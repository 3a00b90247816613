//! Steps 3 and 4 of region formation: replicate the flowgraph reachable from
//! each selected boundary along non-cold edges, wrap the copy in
//! `aregion_begin`/`aregion_end`, and convert cold edges into asserts.
//!
//! The originals remain in place as the non-speculative version: every edge
//! that used to enter a boundary block now enters its `aregion_begin` block,
//! and the begin's abort edge points back at the original block — exactly the
//! paper's "all edges into the block that the region entry was copied from
//! are moved to the aregion begin and an exception edge is added from the
//! atomic begin to the source block".

use std::collections::{BTreeSet, HashMap, HashSet};

use hasp_ir::{AssertKind, BlockId, Func, Inst, Op, RegionId, RegionInfo, Term, VReg};
use hasp_vm::bytecode::CmpOp;

use crate::config::RegionConfig;
use crate::normalize::is_call_block;

/// Forms one atomic region at every boundary block. Returns the new regions.
pub fn form_regions(
    f: &mut Func,
    boundaries: &BTreeSet<BlockId>,
    cfg: &RegionConfig,
) -> Vec<RegionId> {
    let live: HashSet<BlockId> = f.rpo().into_iter().collect();
    let mut bounds: Vec<BlockId> = boundaries
        .iter()
        .copied()
        .filter(|b| live.contains(b) && !f.block(*b).dead)
        .collect();

    // Drop boundaries whose region would be too small to amortize the
    // begin/commit pair (estimated against the full boundary set).
    let bound_set: HashSet<BlockId> = bounds.iter().copied().collect();
    bounds.retain(|&s| {
        let mut ops = 0u64;
        let mut seen: HashSet<BlockId> = [s].into_iter().collect();
        let mut stack = vec![s];
        while let Some(c) = stack.pop() {
            ops += f.block(c).insts.len() as u64 + 1;
            if ops >= cfg.min_region_ops {
                return true;
            }
            for t in f.succs(c) {
                if !seen.contains(&t)
                    && !bound_set.contains(&t)
                    && !is_call_block(f, t)
                    && !edge_cold(f, cfg, c, t)
                {
                    seen.insert(t);
                    stack.push(t);
                }
            }
        }
        ops >= cfg.min_region_ops
    });

    // ---- Phase A: create begin blocks and reroute all incoming edges. ----
    let mut begin_of: HashMap<BlockId, BlockId> = HashMap::new();
    for &s in &bounds {
        let b = f.add_block(Term::Jump(s));
        // Move the boundary's phis into the begin block: merged values are
        // computed before speculation begins, and both the speculative copy
        // and the abort path consume them.
        let phi_count = f.block(s).phi_count();
        let phis: Vec<Inst> = f.block_mut(s).insts.drain(..phi_count).collect();
        f.block_mut(b).insts = phis;
        f.block_mut(b).freq = f.block(s).freq;
        for pb in f.block_ids() {
            if pb != b {
                f.block_mut(pb).term.retarget(s, b);
            }
        }
        if f.entry == s {
            f.entry = b;
        }
        begin_of.insert(s, b);
    }
    let begin_set: HashSet<BlockId> = begin_of.values().copied().collect();

    // ---- Phase B1: compute each region's body over the original graph. ----
    // A body block reached over a back edge to a block that *dominates* part
    // of the body would invert definition order in the copy; such edges are
    // region exits instead (the dominator tree is computed after the begin
    // blocks rerouted all boundary edges).
    let dt = hasp_ir::DomTree::compute(f);
    let mut bodies: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
    for &s in &bounds {
        let mut body: Vec<BlockId> = Vec::new();
        let mut seen: HashSet<BlockId> = HashSet::new();
        let mut ops = 0u64;
        let mut stack = vec![s];
        seen.insert(s);
        while let Some(c) = stack.pop() {
            body.push(c);
            ops += f.block(c).insts.len() as u64 + 1;
            if ops > cfg.max_region_ops {
                continue; // stop expanding; remaining successors become exits
            }
            for t in f.succs(c) {
                if seen.contains(&t)
                    || begin_set.contains(&t)
                    || is_call_block(f, t)
                    || edge_cold(f, cfg, c, t)
                    || dt.dominates(t, c)
                {
                    continue;
                }
                seen.insert(t);
                stack.push(t);
            }
        }
        bodies.push((s, body));
    }

    // ---- Phase B2: copy bodies, convert cold edges, insert commits. ----
    let mut regions = Vec::new();
    for (s, body) in &bodies {
        let (r, vmap) = replicate_one(f, cfg, *s, body, begin_of[s]);
        regions.push(r);
        // SSA repair: every value defined in the body now has two
        // definitions (original + copy), and region exits can re-enter the
        // original blocks downstream — so every pair gets a reaching-def
        // rewrite with join phis.
        hasp_ir::ssa_repair::repair(f, &vmap);
    }

    // Originals are abort paths now: their profile weight moves to the
    // copies (which inherited the counts verbatim).
    let mut originals: HashSet<BlockId> = HashSet::new();
    for (_, body) in &bodies {
        originals.extend(body.iter().copied());
    }
    for b in originals {
        f.block_mut(b).freq = 0;
        zero_counts(&mut f.block_mut(b).term);
    }
    f.remove_unreachable();
    regions
}

fn zero_counts(t: &mut Term) {
    match t {
        Term::Branch {
            t_count, f_count, ..
        } => {
            *t_count = 0;
            *f_count = 0;
        }
        Term::Switch {
            targets, default, ..
        } => {
            for (_, c) in targets.iter_mut() {
                *c = 0;
            }
            default.1 = 0;
        }
        _ => {}
    }
}

fn edge_cold(f: &Func, cfg: &RegionConfig, from: BlockId, to: BlockId) -> bool {
    crate::cold::edge_is_cold(f, cfg, from, to)
}

/// Copies one region body and rewires it.
fn replicate_one(
    f: &mut Func,
    cfg: &RegionConfig,
    s: BlockId,
    body: &[BlockId],
    begin: BlockId,
) -> (RegionId, HashMap<VReg, VReg>) {
    let body_set: HashSet<BlockId> = body.iter().copied().collect();
    let size_estimate: u64 = body
        .iter()
        .map(|&b| f.block(b).insts.len() as u64 + 1)
        .sum();
    let r = f.new_region(RegionInfo {
        begin,
        abort_target: s,
        size_estimate,
    });

    // Rename every value defined inside the body.
    let mut vmap: HashMap<VReg, VReg> = HashMap::new();
    for &c in body {
        let defs: Vec<VReg> = f.block(c).insts.iter().filter_map(|i| i.dst).collect();
        for d in defs {
            let fresh = f.vreg();
            vmap.insert(d, fresh);
        }
    }
    // Allocate copies.
    let mut bmap: HashMap<BlockId, BlockId> = HashMap::new();
    for &c in body {
        let c2 = f.add_block(Term::Return(None));
        bmap.insert(c, c2);
    }

    // Copy instructions and rewrite terminators.
    for &c in body {
        let c2 = bmap[&c];
        let mut insts = f.block(c).insts.clone();
        for inst in &mut insts {
            if let Some(d) = inst.dst {
                inst.dst = Some(vmap[&d]);
            }
            for a in inst.op.args_mut() {
                if let Some(n) = vmap.get(a) {
                    *a = *n;
                }
            }
        }
        let mut term = f.block(c).term.clone();
        for a in term.args_mut() {
            if let Some(n) = vmap.get(a) {
                *a = *n;
            }
        }
        let freq = f.block(c).freq;
        f.block_mut(c2).insts = insts;
        f.block_mut(c2).freq = freq;
        f.block_mut(c2).region = Some(r);
        rewrite_copy_term(f, cfg, r, c, c2, term, &body_set, &bmap, &vmap);
    }

    // Fix phis inside copies: keep only inputs arriving over surviving
    // in-copy edges (this is where superblock-style entry-edge removal
    // happens), relabeled to the copied predecessors.
    let mut copy_preds: HashMap<BlockId, HashSet<BlockId>> = HashMap::new();
    for &c in body {
        for t in f.succs(bmap[&c]) {
            copy_preds.entry(t).or_default().insert(bmap[&c]);
        }
    }
    for &c in body {
        let c2 = bmap[&c];
        let preds_here: HashSet<BlockId> = copy_preds.get(&c2).cloned().unwrap_or_default();
        let mut degenerate: Vec<(usize, VReg)> = Vec::new();
        for (idx, inst) in f.block_mut(c2).insts.iter_mut().enumerate() {
            if let Op::Phi(ins) = &mut inst.op {
                let mut new_ins: Vec<(BlockId, VReg)> = Vec::new();
                for (p, v) in ins.iter() {
                    if let Some(&p2) = bmap.get(p) {
                        if preds_here.contains(&p2) {
                            new_ins.push((p2, *v));
                        }
                    }
                }
                assert!(
                    !new_ins.is_empty(),
                    "region copy of {c} has a phi with no surviving inputs"
                );
                if new_ins.len() == 1 && preds_here.len() <= 1 {
                    degenerate.push((idx, new_ins[0].1));
                } else {
                    *ins = new_ins;
                }
            }
        }
        for (idx, v) in degenerate {
            f.block_mut(c2).insts[idx].op = Op::Copy(v);
        }
        // Copies of blocks that return from the function commit first.
        if matches!(f.block(c2).term, Term::Return(_)) {
            f.block_mut(c2).insts.push(Inst::effect(Op::RegionEnd(r)));
        }
    }

    // Arm the begin block.
    f.block_mut(begin).term = Term::RegionBegin {
        region: r,
        body: bmap[&s],
        abort: s,
    };
    (r, vmap)
}

/// Rewrites the terminator of copy `c2` (of original `c`): in-body edges go
/// to copies, warm exits go through `aregion_end` helper blocks, cold edges
/// become asserts (Step 4).
#[allow(clippy::too_many_arguments)]
fn rewrite_copy_term(
    f: &mut Func,
    cfg: &RegionConfig,
    r: RegionId,
    c: BlockId,
    c2: BlockId,
    term: Term,
    body: &HashSet<BlockId>,
    bmap: &HashMap<BlockId, BlockId>,
    vmap: &HashMap<VReg, VReg>,
) {
    match term {
        Term::Jump(t) => {
            let nt = map_target(f, r, c, t, body, bmap, vmap);
            f.block_mut(c2).term = Term::Jump(nt);
        }
        Term::Return(v) => {
            f.block_mut(c2).term = Term::Return(v);
        }
        Term::Branch {
            op,
            a,
            b,
            t,
            f: fb,
            t_count,
            f_count,
        } => {
            let total = f.block(c).freq.max(t_count + f_count);
            let t_cold = is_cold_count(cfg, t_count, total);
            let f_cold = is_cold_count(cfg, f_count, total);
            match (t_cold, f_cold) {
                (false, false) => {
                    let nt = map_target(f, r, c, t, body, bmap, vmap);
                    let nf = map_target(f, r, c, fb, body, bmap, vmap);
                    f.block_mut(c2).term = Term::Branch {
                        op,
                        a,
                        b,
                        t: nt,
                        f: nf,
                        t_count,
                        f_count,
                    };
                }
                (true, false) => {
                    // Taken side is cold: abort if the condition holds.
                    let id = f.new_assert(r, format!("cold-branch {c} taken"));
                    f.block_mut(c2).insts.push(Inst::effect(Op::Assert {
                        kind: AssertKind::Cmp { op, a, b },
                        id,
                    }));
                    let nf = map_target(f, r, c, fb, body, bmap, vmap);
                    f.block_mut(c2).term = Term::Jump(nf);
                }
                (false, true) => {
                    let id = f.new_assert(r, format!("cold-branch {c} fallthrough"));
                    f.block_mut(c2).insts.push(Inst::effect(Op::Assert {
                        kind: AssertKind::Cmp {
                            op: op.negate(),
                            a,
                            b,
                        },
                        id,
                    }));
                    let nt = map_target(f, r, c, t, body, bmap, vmap);
                    f.block_mut(c2).term = Term::Jump(nt);
                }
                (true, true) => {
                    // Stale profile: keep the hotter side as the path.
                    let (warm, cold_op) = if t_count >= f_count {
                        (t, op.negate())
                    } else {
                        (fb, op)
                    };
                    let id = f.new_assert(r, format!("stale-branch {c}"));
                    f.block_mut(c2).insts.push(Inst::effect(Op::Assert {
                        kind: AssertKind::Cmp { op: cold_op, a, b },
                        id,
                    }));
                    let nw = map_target(f, r, c, warm, body, bmap, vmap);
                    f.block_mut(c2).term = Term::Jump(nw);
                }
            }
        }
        Term::Switch {
            sel,
            targets,
            default,
        } => {
            rewrite_switch(f, cfg, r, c, c2, sel, targets, default, body, bmap, vmap);
        }
        Term::RegionBegin { .. } => unreachable!("no nested regions in a body"),
    }
}

fn is_cold_count(cfg: &RegionConfig, count: u64, total: u64) -> bool {
    if total == 0 {
        return true;
    }
    (count as f64) < cfg.cold_threshold * (total as f64)
}

/// Converts a switch in a region copy: warm cases become compare/branch
/// chains; cold cases become asserts ("simplify an indirect branch to a
/// conditional branch", paper §6).
#[allow(clippy::too_many_arguments)]
fn rewrite_switch(
    f: &mut Func,
    cfg: &RegionConfig,
    r: RegionId,
    c: BlockId,
    c2: BlockId,
    sel: VReg,
    targets: Vec<(BlockId, u64)>,
    default: (BlockId, u64),
    body: &HashSet<BlockId>,
    bmap: &HashMap<BlockId, BlockId>,
    vmap: &HashMap<VReg, VReg>,
) {
    let total: u64 = targets.iter().map(|(_, n)| *n).sum::<u64>() + default.1;
    let warm_cases: Vec<(i64, BlockId, u64)> = targets
        .iter()
        .enumerate()
        .filter(|(_, (_, n))| !is_cold_count(cfg, *n, total))
        .map(|(k, (t, n))| (k as i64, *t, *n))
        .collect();
    let default_warm = !is_cold_count(cfg, default.1, total);

    if warm_cases.is_empty() && !default_warm {
        // Entirely stale: keep the hottest target unconditionally behind an
        // assert on the hottest case value.
        let (k, t, _) = targets
            .iter()
            .enumerate()
            .map(|(k, (t, n))| (k as i64, *t, *n))
            .max_by_key(|(_, _, n)| *n)
            .unwrap_or((-1, default.0, default.1));
        let id = f.new_assert(r, format!("stale-switch {c}"));
        f.block_mut(c2).insts.push(Inst::effect(Op::Assert {
            kind: AssertKind::IntNe { sel, expected: k },
            id,
        }));
        let nt = map_target(f, r, c, t, body, bmap, vmap);
        f.block_mut(c2).term = Term::Jump(nt);
        return;
    }

    if warm_cases.len() == 1 && !default_warm {
        // The common shape: exactly one hot case.
        let (k, t, _) = warm_cases[0];
        let id = f.new_assert(r, format!("cold-switch {c} (1 warm case)"));
        f.block_mut(c2).insts.push(Inst::effect(Op::Assert {
            kind: AssertKind::IntNe { sel, expected: k },
            id,
        }));
        let nt = map_target(f, r, c, t, body, bmap, vmap);
        f.block_mut(c2).term = Term::Jump(nt);
        return;
    }

    // General chain. Each comparison needs its case constant materialized.
    let mut cur = c2;
    let n_warm = warm_cases.len();
    for (i, (k, t, n)) in warm_cases.iter().enumerate() {
        let is_last = i == n_warm - 1;
        let nt = map_target(f, r, c, *t, body, bmap, vmap);
        if is_last && !default_warm {
            // Assert it is this case, then jump.
            let id = f.new_assert(r, format!("cold-switch {c} tail"));
            f.block_mut(cur).insts.push(Inst::effect(Op::Assert {
                kind: AssertKind::IntNe { sel, expected: *k },
                id,
            }));
            f.block_mut(cur).term = Term::Jump(nt);
            return;
        }
        let kc = f.vreg();
        f.block_mut(cur)
            .insts
            .push(Inst::with_dst(kc, Op::Const(*k)));
        let next = f.add_block(Term::Return(None));
        f.block_mut(next).region = Some(r);
        f.block_mut(next).freq = f.block(cur).freq.saturating_sub(*n);
        f.block_mut(cur).term = Term::Branch {
            op: CmpOp::Eq,
            a: sel,
            b: kc,
            t: nt,
            f: next,
            t_count: *n,
            f_count: f.block(cur).freq.saturating_sub(*n),
        };
        cur = next;
    }
    // Remaining: warm default; assert away each cold case value.
    for (k, (_, n)) in targets.iter().enumerate() {
        if is_cold_count(cfg, *n, total) {
            let kc = f.vreg();
            f.block_mut(cur)
                .insts
                .push(Inst::with_dst(kc, Op::Const(k as i64)));
            let id = f.new_assert(r, format!("cold-switch {c} case {k}"));
            f.block_mut(cur).insts.push(Inst::effect(Op::Assert {
                kind: AssertKind::Cmp {
                    op: CmpOp::Eq,
                    a: sel,
                    b: kc,
                },
                id,
            }));
        }
    }
    let nd = map_target(f, r, c, default.0, body, bmap, vmap);
    f.block_mut(cur).term = Term::Jump(nd);
}

/// Maps an edge target from a region copy: in-body targets go to the copy;
/// anything else exits the region through a fresh `aregion_end` block. The
/// exit block also registers itself with the target's phis.
fn map_target(
    f: &mut Func,
    r: RegionId,
    c_orig: BlockId,
    t: BlockId,
    body: &HashSet<BlockId>,
    bmap: &HashMap<BlockId, BlockId>,
    vmap: &HashMap<VReg, VReg>,
) -> BlockId {
    if body.contains(&t) {
        return bmap[&t];
    }
    // Exit: commit and continue in normal code at `t`.
    let e = f.add_block(Term::Jump(t));
    f.block_mut(e).insts.push(Inst::effect(Op::RegionEnd(r)));
    f.block_mut(e).region = Some(r);
    f.block_mut(e).freq = f.edge_count(c_orig, t);
    // The target's phis gain an input from the exit block, mirroring the
    // value they receive from the original (non-speculative) predecessor.
    let mut additions: Vec<(usize, VReg)> = Vec::new();
    for (idx, inst) in f.block(t).insts.iter().enumerate() {
        if let Op::Phi(ins) = &inst.op {
            let v = ins
                .iter()
                .find(|(p, _)| *p == c_orig)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("phi at {t} lacks input for pred {c_orig}"));
            additions.push((idx, *vmap.get(&v).unwrap_or(&v)));
        }
    }
    for (idx, v) in additions {
        if let Op::Phi(ins) = &mut f.block_mut(t).insts[idx].op {
            ins.push((e, v));
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_ir::verify;
    use hasp_vm::bytecode::{BinOp, MethodId};

    /// Straight-line hot path with one cold side exit:
    /// entry -> a -> (cold | b) -> ret
    fn hot_with_cold_exit() -> Func {
        let mut f = Func::new("h", MethodId(0), 1);
        let x = VReg(0);
        let ret = f.add_block(Term::Return(Some(x)));
        let cold = f.add_block(Term::Jump(ret));
        let b = f.add_block(Term::Jump(ret));
        let y = f.vreg();
        let a = f.add_block(Term::Branch {
            op: CmpOp::Eq,
            a: x,
            b: y,
            t: cold,
            f: b,
            t_count: 1,
            f_count: 999,
        });
        f.block_mut(a).insts.push(Inst::with_dst(y, Op::Const(7)));
        f.block_mut(f.entry).term = Term::Jump(a);
        f.block_mut(f.entry).freq = 1000;
        f.block_mut(a).freq = 1000;
        f.block_mut(b).freq = 999;
        f.block_mut(cold).freq = 1;
        f.block_mut(ret).freq = 1000;
        f
    }

    fn test_cfg() -> RegionConfig {
        RegionConfig {
            min_region_ops: 1,
            ..RegionConfig::default()
        }
    }

    #[test]
    fn forms_region_with_assert_and_commit() {
        let mut f = hot_with_cold_exit();
        let cfg = test_cfg();
        let a = BlockId(4);
        let boundaries: BTreeSet<BlockId> = [a].into_iter().collect();
        let regions = form_regions(&mut f, &boundaries, &cfg);
        assert_eq!(regions.len(), 1);
        verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));

        // A RegionBegin exists with the original block as abort target.
        let begin = f.regions[0].begin;
        match f.block(begin).term {
            Term::RegionBegin { abort, .. } => assert_eq!(abort, a),
            ref other => panic!("unexpected {other:?}"),
        }
        // The copy contains an assert (cold branch converted) and a commit.
        let mut has_assert = false;
        let mut has_end = false;
        for b in f.block_ids() {
            if f.block(b).region.is_some() {
                for i in &f.block(b).insts {
                    has_assert |= matches!(i.op, Op::Assert { .. });
                    has_end |= matches!(i.op, Op::RegionEnd(_));
                }
            }
        }
        assert!(has_assert, "{}", f.display());
        assert!(has_end, "{}", f.display());
        // The original cold block is still reachable (via the abort path).
        let reach: HashSet<BlockId> = f.rpo().into_iter().collect();
        assert!(
            reach.contains(&BlockId(2)),
            "cold path must survive for aborts"
        );
    }

    #[test]
    fn per_iteration_region_on_loop() {
        // entry -> head; head: i<n -> body | exit; body -> head
        let mut f = Func::new("l", MethodId(0), 1);
        let n = VReg(0);
        let exit = f.add_block(Term::Return(None));
        let head = f.add_block(Term::Return(None));
        let body = f.add_block(Term::Jump(head));
        let i0 = f.vreg();
        let i1 = f.vreg();
        let iphi = f.vreg();
        let one = f.vreg();
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(i0, Op::Const(0)));
        f.block_mut(f.entry).term = Term::Jump(head);
        let entry = f.entry;
        f.block_mut(head)
            .insts
            .push(Inst::with_dst(iphi, Op::Phi(vec![(entry, i0), (body, i1)])));
        f.block_mut(head).term = Term::Branch {
            op: CmpOp::Lt,
            a: iphi,
            b: n,
            t: body,
            f: exit,
            t_count: 10_000,
            f_count: 10,
        };
        f.block_mut(body)
            .insts
            .push(Inst::with_dst(one, Op::Const(1)));
        f.block_mut(body)
            .insts
            .push(Inst::with_dst(i1, Op::Bin(BinOp::Add, iphi, one)));
        f.block_mut(f.entry).freq = 10;
        f.block_mut(head).freq = 10_010;
        f.block_mut(body).freq = 10_000;
        f.block_mut(exit).freq = 10;

        let cfg = test_cfg();
        let boundaries: BTreeSet<BlockId> = [head].into_iter().collect();
        let regions = form_regions(&mut f, &boundaries, &cfg);
        assert_eq!(regions.len(), 1);
        verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));

        // The begin block must carry the loop phi (plus any join phis the
        // SSA repair placed for replicated values).
        let begin = f.regions[0].begin;
        assert!(f.block(begin).phi_count() >= 1, "{}", f.display());
        // The copied latch must re-enter through the begin (commit, then new
        // region per iteration).
        let phi_preds: Vec<BlockId> = match &f.block(begin).insts[0].op {
            Op::Phi(ins) => ins.iter().map(|(p, _)| *p).collect(),
            other => panic!("unexpected {other:?}"),
        };
        assert!(phi_preds.len() >= 2, "{}", f.display());
    }

    #[test]
    fn region_at_entry_moves_function_entry() {
        let mut f = hot_with_cold_exit();
        let cfg = test_cfg();
        let old_entry = f.entry;
        let boundaries: BTreeSet<BlockId> = [old_entry].into_iter().collect();
        form_regions(&mut f, &boundaries, &cfg);
        verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));
        assert_ne!(f.entry, old_entry);
        assert!(matches!(f.block(f.entry).term, Term::RegionBegin { .. }));
    }
}
