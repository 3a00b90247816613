//! Property tests over the IR analyses on randomly generated reducible-ish
//! CFGs: dominator-tree laws, post-dominator duality at exits, loop
//! detection sanity, and batched SSA repair against one pair at a time; and
//! exactness against naive references — dominators, post-dominators and
//! dominance frontiers against set-based dataflow, and the one-pass CFG
//! simplifier against the rescan-after-every-merge version it replaced.

use std::collections::BTreeSet;

use proptest::prelude::*;

use hasp_ir::{
    ssa_repair, verify, BlockId, DomTree, Func, Inst, LoopForest, Op, PostDomTree, RegionId,
    RegionInfo, Term, VReg,
};
use hasp_opt::simplify;
use hasp_vm::bytecode::{BinOp, CmpOp, MethodId};

/// Builds a random CFG: `n` blocks where block `i` branches to one or two
/// higher-numbered blocks (acyclic core) plus optional back edges to
/// lower-numbered blocks, last block returns.
fn random_cfg(edges: &[(u8, u8, bool)], n: usize) -> Func {
    let mut f = Func::new("r", MethodId(0), 0);
    let x = f.vreg();
    let y = f.vreg();
    // Blocks b1..=bn (entry is b0).
    let blocks: Vec<_> = (0..n).map(|_| f.add_block(Term::Return(None))).collect();
    f.block_mut(f.entry).term = Term::Jump(blocks[0]);
    for i in 0..n - 1 {
        // Default: fall through to the next block.
        f.block_mut(blocks[i]).term = Term::Jump(blocks[i + 1]);
    }
    for &(from, to, backward) in edges {
        let from = from as usize % n;
        if from == n - 1 {
            continue; // keep the exit a plain return
        }
        let to = if backward {
            to as usize % (from + 1) // ≤ from: a back edge
        } else {
            from + 1 + (to as usize % (n - from - 1).max(1))
        };
        let t = blocks[to.min(n - 1)];
        let fall = blocks[from + 1];
        f.block_mut(blocks[from]).term = Term::Branch {
            op: CmpOp::Lt,
            a: x,
            b: y,
            t,
            f: fall,
            t_count: 1,
            f_count: 1,
        };
    }
    f
}

/// Makes a [`random_cfg`] valid SSA (its branch operands get definitions in
/// the entry) and adds one replicated value per `(copy, use, phi)` triple:
/// the original is defined in the entry, its copy in block `copy`, a use in
/// block `use`, and — when block `phi` merges two or more edges — a phi
/// there reading the original from every predecessor. The exit returns the
/// first original. Returns the original → copy map.
fn replicate_values(f: &mut Func, placements: &[(u8, u8, u8)]) -> Vec<(VReg, VReg)> {
    let blocks = f.rpo();
    let preds = f.preds();
    let pick = |i: u8| blocks[i as usize % blocks.len()];
    let entry = f.entry;
    for v in [VReg(0), VReg(1)] {
        f.block_mut(entry)
            .insts
            .push(Inst::with_dst(v, Op::Const(0)));
    }
    let mut copies = Vec::new();
    for (k, &(copy_at, use_at, phi_at)) in placements.iter().enumerate() {
        let (orig, copy, sum) = (f.vreg(), f.vreg(), f.vreg());
        f.block_mut(entry)
            .insts
            .push(Inst::with_dst(orig, Op::Const(k as i64)));
        f.block_mut(pick(copy_at))
            .insts
            .push(Inst::with_dst(copy, Op::Const(k as i64)));
        f.block_mut(pick(use_at))
            .insts
            .push(Inst::with_dst(sum, Op::Bin(BinOp::Add, orig, orig)));
        let mut ins: Vec<(BlockId, VReg)> =
            preds[pick(phi_at)].iter().map(|&p| (p, orig)).collect();
        ins.sort();
        ins.dedup();
        if ins.len() >= 2 {
            let merged = f.vreg();
            f.block_mut(pick(phi_at))
                .insts
                .insert(0, Inst::with_dst(merged, Op::Phi(ins)));
        }
        copies.push((orig, copy));
    }
    let exit = *blocks.last().expect("nonempty");
    if let Term::Return(v) = &mut f.block_mut(exit).term {
        *v = copies.iter().map(|&(orig, _)| orig).min();
    }
    copies
}

/// [`random_cfg`] with some branches widened into switches: each
/// `(from, extra, to)` turns block `from`'s terminator into a switch over its
/// old targets plus `extra % 3` more forward targets.
fn random_cfg_with_switches(edges: &[(u8, u8, bool)], n: usize, switches: &[(u8, u8, u8)]) -> Func {
    let mut f = random_cfg(edges, n);
    for &(from, extra, to) in switches {
        let from = 1 + from as usize % (n - 1); // never the exit block
        let b = BlockId(from as u32);
        let mut targets: Vec<(BlockId, u64)> = f.succs(b).map(|t| (t, 1)).collect();
        for k in 0..extra % 3 {
            let t = from + 1 + (to as usize + k as usize) % (n - from);
            targets.push((BlockId(t as u32), 1));
        }
        let default = targets.pop().expect("a non-exit block has a successor");
        f.block_mut(b).term = Term::Switch {
            sel: VReg(0),
            targets,
            default,
        };
    }
    f
}

/// Blocks reachable from the entry, found without the analyses under test.
fn naive_reachable(f: &Func) -> BTreeSet<BlockId> {
    let mut seen = BTreeSet::from([f.entry]);
    let mut stack = vec![f.entry];
    while let Some(b) = stack.pop() {
        for s in f.block(b).term.succs() {
            if seen.insert(s) {
                stack.push(s);
            }
        }
    }
    seen
}

/// Set-based dominators: `Dom(entry) = {entry}`, `Dom(b) = {b} ∪ ⋂ Dom(p)`
/// over the reachable predecessors, iterated to a fixpoint from "every
/// block". `None` for unreachable blocks.
fn naive_dominators(f: &Func) -> Vec<Option<BTreeSet<BlockId>>> {
    let reach = naive_reachable(f);
    let mut dom: Vec<Option<BTreeSet<BlockId>>> = (0..f.block_count())
        .map(|i| reach.contains(&BlockId(i as u32)).then(|| reach.clone()))
        .collect();
    dom[f.entry.0 as usize] = Some(BTreeSet::from([f.entry]));
    let mut changed = true;
    while changed {
        changed = false;
        for &b in reach.iter().filter(|&&b| b != f.entry) {
            let mut meet: Option<BTreeSet<BlockId>> = None;
            for &p in &reach {
                if f.block(p).term.succs().any(|s| s == b) {
                    let dp = dom[p.0 as usize].as_ref().expect("reachable");
                    meet = Some(match meet {
                        None => dp.clone(),
                        Some(m) => m.intersection(dp).copied().collect(),
                    });
                }
            }
            let mut new = meet.unwrap_or_default();
            new.insert(b);
            if dom[b.0 as usize].as_ref() != Some(&new) {
                dom[b.0 as usize] = Some(new);
                changed = true;
            }
        }
    }
    dom
}

/// The immediate (post-)dominator from (post-)dominator sets: the strict
/// dominator whose own set is the block's set minus the block.
fn naive_immediate(sets: &[Option<BTreeSet<BlockId>>], b: BlockId) -> Option<BlockId> {
    let mut strict = sets[b.0 as usize].clone()?;
    strict.remove(&b);
    strict.iter().copied().find(|d| {
        let own = if d.0 as usize >= sets.len() {
            BTreeSet::from([*d])
        } else {
            sets[d.0 as usize].clone().unwrap_or_default()
        };
        own == strict
    })
}

/// The virtual exit of the naive post-dominator sets.
const VIRTUAL_EXIT: BlockId = BlockId(u32::MAX);

/// Set-based post-dominators over the reachable blocks that reach a
/// return, with a virtual exit after every return: `PDom(b) = {b} ∪ ⋂
/// PDom(s)` over those successors (the virtual exit for a return).
/// `None` for every other block.
fn naive_postdominators(f: &Func) -> Vec<Option<BTreeSet<BlockId>>> {
    let reach = naive_reachable(f);
    let succs = |b: BlockId| f.block(b).term.succs().collect::<Vec<_>>();
    // Reachable blocks from which a return is reachable.
    let mut live: BTreeSet<BlockId> = reach
        .iter()
        .copied()
        .filter(|&b| succs(b).is_empty())
        .collect();
    let mut grew = true;
    while grew {
        grew = false;
        for &b in &reach {
            if !live.contains(&b) && succs(b).iter().any(|s| live.contains(s)) {
                live.insert(b);
                grew = true;
            }
        }
    }
    let mut all = live.clone();
    all.insert(VIRTUAL_EXIT);
    let mut pdom: Vec<Option<BTreeSet<BlockId>>> = (0..f.block_count())
        .map(|i| live.contains(&BlockId(i as u32)).then(|| all.clone()))
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &live {
            let ss = succs(b);
            let mut meet: BTreeSet<BlockId> = if ss.is_empty() {
                BTreeSet::from([VIRTUAL_EXIT])
            } else {
                all.clone()
            };
            for s in ss.iter().filter(|s| live.contains(s)) {
                let ps = pdom[s.0 as usize].as_ref().expect("live");
                meet = meet.intersection(ps).copied().collect();
            }
            meet.insert(b);
            if pdom[b.0 as usize].as_ref() != Some(&meet) {
                pdom[b.0 as usize] = Some(meet);
                changed = true;
            }
        }
    }
    pdom
}

/// A [`random_cfg`] made valid SSA, with atomic regions and phis. Each
/// `(boundary, len, shape)` reroutes the edges into original block `s`
/// through a fresh begin block whose `RegionBegin` enters a chain of
/// `1 + len % 3` region blocks (plain jumps, or a branch over the chain's
/// middle when `shape & 1`) ending in a commit that jumps back to `s` —
/// directly, or through an exit-helper block when `shape & 2`; `s` becomes
/// the region's abort target. Blocks whose bit is set in `phis` get a phi
/// with one input per distinct predecessor (a one-predecessor block's phi
/// is what simplification degenerates). With `orphan`, an unreachable block
/// jumps into the graph.
fn random_region_func(
    edges: &[(u8, u8, bool)],
    n: usize,
    regions: &[(u8, u8, u8)],
    phis: u64,
    orphan: bool,
) -> Func {
    let mut f = random_cfg(edges, n);
    let (x, y) = (VReg(0), VReg(1));
    let entry = f.entry;
    for v in [x, y] {
        f.block_mut(entry)
            .insts
            .push(Inst::with_dst(v, Op::Const(0)));
    }
    for &(boundary, len, shape) in regions {
        let s = BlockId(1 + u32::from(boundary) % n as u32);
        if f.regions.iter().any(|r| r.abort_target == s) {
            continue;
        }
        let r = RegionId(f.regions.len() as u32);
        let begin = f.add_block(Term::Jump(s));
        for pb in 0..f.block_count() as u32 {
            if BlockId(pb) != begin {
                f.block_mut(BlockId(pb)).term.retarget(s, begin);
            }
        }
        let k = 1 + len % 3;
        let chain: Vec<BlockId> = (0..k).map(|_| f.add_block(Term::Jump(s))).collect();
        for w in chain.windows(2) {
            f.block_mut(w[0]).term = Term::Jump(w[1]);
        }
        if shape & 1 == 1 && k == 3 {
            f.block_mut(chain[0]).term = Term::Branch {
                op: CmpOp::Lt,
                a: x,
                b: y,
                t: chain[1],
                f: chain[2],
                t_count: 1,
                f_count: 1,
            };
        }
        let last = *chain.last().expect("k >= 1");
        let commit = if shape & 2 == 2 {
            let exit = f.add_block(Term::Jump(s));
            f.block_mut(last).term = Term::Jump(exit);
            exit
        } else {
            last
        };
        f.block_mut(commit)
            .insts
            .push(Inst::effect(Op::RegionEnd(r)));
        for &c in chain.iter().chain([&commit]) {
            f.block_mut(c).region = Some(r);
        }
        f.block_mut(begin).term = Term::RegionBegin {
            region: r,
            body: chain[0],
            abort: s,
        };
        f.new_region(RegionInfo {
            begin,
            abort_target: s,
            size_estimate: u64::from(k),
        });
    }
    if orphan {
        let target = BlockId(1 + (phis % n as u64) as u32);
        f.add_block(Term::Jump(target));
    }
    let preds = f.preds();
    for i in 0..f.block_count() {
        let b = BlockId(i as u32);
        if (phis >> (i % 64)) & 1 == 0 {
            continue;
        }
        let mut ins: Vec<(BlockId, VReg)> = preds.of(b).iter().map(|&p| (p, x)).collect();
        ins.dedup();
        if !ins.is_empty() {
            let d = f.vreg();
            f.block_mut(b)
                .insts
                .insert(0, Inst::with_dst(d, Op::Phi(ins)));
        }
    }
    f
}

/// The CFG simplifier as it was before it became one pass: after every
/// merge it recomputes the predecessors and rescans from block 0.
fn rescanning_simplify(f: &mut Func) -> usize {
    let mut changes = f.remove_unreachable();
    let preds = f.preds();
    for b in f.block_ids() {
        if preds.count(b) != 1 {
            continue;
        }
        for inst in &mut f.block_mut(b).insts {
            if let Op::Phi(ins) = &inst.op {
                assert_eq!(ins.len(), 1, "phi arity must match single pred");
                inst.op = Op::Copy(ins[0].1);
                changes += 1;
            }
        }
    }
    let is_region_anchor = |f: &Func, b: BlockId| {
        f.regions
            .iter()
            .any(|r| r.begin == b || r.abort_target == b)
    };
    loop {
        let preds = f.preds();
        let mut did = false;
        for b in f.block_ids() {
            let Term::Jump(c) = f.block(b).term else {
                continue;
            };
            if c == b
                || c == f.entry
                || preds.count(c) != 1
                || f.block(b).region != f.block(c).region
                || is_region_anchor(f, c)
            {
                continue;
            }
            let mut c_insts = std::mem::take(&mut f.block_mut(c).insts);
            for inst in &mut c_insts {
                if let Op::Phi(ins) = &inst.op {
                    assert_eq!(ins.len(), 1);
                    inst.op = Op::Copy(ins[0].1);
                }
            }
            let c_term = f.block(c).term.clone();
            f.block_mut(b).insts.extend(c_insts);
            f.block_mut(b).term = c_term;
            f.block_mut(c).dead = true;
            let succs: Vec<BlockId> = f.succs(b).collect();
            for s in succs {
                for inst in &mut f.block_mut(s).insts {
                    if let Op::Phi(ins) = &mut inst.op {
                        for (p, _) in ins.iter_mut() {
                            if *p == c {
                                *p = b;
                            }
                        }
                    }
                }
            }
            did = true;
            changes += 1;
            break; // preds map is stale; recompute
        }
        if !did {
            return changes;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn dominator_laws(
        edges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
        n in 3usize..12,
    ) {
        let f = random_cfg(&edges, n);
        let dt = DomTree::compute(&f);
        let rpo = f.rpo();
        // Entry dominates everything reachable; everything dominates itself.
        for &b in &rpo {
            prop_assert!(dt.dominates(f.entry, b));
            prop_assert!(dt.dominates(b, b));
        }
        // idom is a strict dominator and dominance is transitive through it.
        for &b in &rpo {
            if let Some(d) = dt.idom(b) {
                prop_assert!(dt.dominates(d, b));
                prop_assert!(d != b);
                if let Some(dd) = dt.idom(d) {
                    prop_assert!(dt.dominates(dd, b), "transitivity");
                }
            } else {
                prop_assert_eq!(b, f.entry);
            }
        }
        // A block's dominator must dominate all its predecessors' paths:
        // every CFG predecessor of b is dominated by idom(b) or IS a
        // back-edge source dominated by b itself... weaker check: idom(b)
        // dominates every pred that is not dominated by b.
        let preds = f.preds();
        for &b in &rpo {
            if let Some(d) = dt.idom(b) {
                for &p in preds.of(b) {
                    prop_assert!(
                        dt.dominates(d, p) || dt.dominates(b, p),
                        "idom({b}) = {d} must dominate pred {p} (or p is in a loop under {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn postdominator_duality(
        edges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
        n in 3usize..12,
    ) {
        let f = random_cfg(&edges, n);
        let pdt = PostDomTree::compute(&f);
        let rpo = f.rpo();
        for &b in &rpo {
            prop_assert!(pdt.post_dominates(b, b));
        }
        // Exit blocks post-dominate themselves and are in the exit list.
        for &e in pdt.exits() {
            prop_assert!(f.succs(e).next().is_none());
        }
        // If a post-dominates b and b post-dominates a, they are equal.
        for &a in &rpo {
            for &b in &rpo {
                if a != b {
                    prop_assert!(
                        !(pdt.post_dominates(a, b) && pdt.post_dominates(b, a)),
                        "antisymmetry: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn loop_headers_dominate_their_blocks(
        edges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
        n in 3usize..12,
    ) {
        let f = random_cfg(&edges, n);
        let dt = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dt);
        for l in forest.post_order() {
            for b in l.blocks.iter() {
                prop_assert!(
                    dt.dominates(l.header, b),
                    "natural-loop header {} must dominate member {b}",
                    l.header
                );
            }
            // Every latch is in the loop and targets the header.
            for latch in l.latches(&f) {
                prop_assert!(l.blocks.contains(latch));
                prop_assert!(f.succs(latch).any(|s| s == l.header));
            }
            // Post-order is innermost-first: members of an earlier loop that
            // share our header's blocks imply nesting consistency.
            prop_assert!(l.blocks.contains(l.header));
        }
    }

    /// Repairing a replication's pairs in one call equals repairing them one
    /// call per pair in sorted order, and leaves valid SSA. Originals live in
    /// the entry, so a definition reaches every use and no zero is
    /// synthesized.
    #[test]
    fn batched_ssa_repair_matches_one_pair_at_a_time(
        edges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
        n in 3usize..12,
        placements in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
    ) {
        let mut batched = random_cfg(&edges, n);
        let copies = replicate_values(&mut batched, &placements);
        let mut one_by_one = batched.clone();

        ssa_repair::repair(&mut batched, &copies);
        prop_assert!(verify(&batched).is_ok(), "{:?}\n{}", verify(&batched), batched.display());

        let mut pairs = copies;
        pairs.sort();
        for pair in pairs {
            ssa_repair::repair(&mut one_by_one, &[pair]);
        }
        prop_assert_eq!(one_by_one.display(), batched.display());
    }

    /// Immediate dominators and every dominance query equal the set-based
    /// reference; unreachable blocks have no dominator and dominate nothing
    /// but themselves.
    #[test]
    fn dominators_match_naive_reference(
        edges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
        n in 3usize..12,
        switches in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..3),
        orphan in any::<bool>(),
    ) {
        let mut f = random_cfg_with_switches(&edges, n, &switches);
        if orphan {
            f.add_block(Term::Jump(BlockId(1 + switches.len() as u32 % n as u32)));
        }
        let dt = DomTree::compute(&f);
        let dom = naive_dominators(&f);
        for i in 0..f.block_count() {
            let b = BlockId(i as u32);
            prop_assert_eq!(dt.idom(b), naive_immediate(&dom, b), "idom({}) in\n{}", b, f.display());
            for j in 0..f.block_count() {
                let a = BlockId(j as u32);
                let naive = a == b || dom[i].as_ref().is_some_and(|d| d.contains(&a));
                prop_assert_eq!(dt.dominates(a, b), naive, "{} dom {} in\n{}", a, b, f.display());
            }
        }
        // The tree's preorder and children agree with its idoms.
        prop_assert_eq!(dt.preorder().len(), naive_reachable(&f).len());
        for &b in dt.preorder() {
            prop_assert!(dt.children(b).windows(2).all(|w| w[0] < w[1]));
            for &c in dt.children(b) {
                prop_assert_eq!(dt.idom(c), Some(b));
            }
        }
    }

    /// Immediate post-dominators and every post-dominance query equal the
    /// set-based reference with a virtual exit.
    #[test]
    fn postdominators_match_naive_reference(
        edges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
        n in 3usize..12,
        switches in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..3),
        orphan in any::<bool>(),
    ) {
        let mut f = random_cfg_with_switches(&edges, n, &switches);
        if orphan {
            f.add_block(Term::Return(None));
        }
        let pdt = PostDomTree::compute(&f);
        let pdom = naive_postdominators(&f);
        for i in 0..f.block_count() {
            let b = BlockId(i as u32);
            let naive_ipdom = naive_immediate(&pdom, b).filter(|&d| d != VIRTUAL_EXIT);
            prop_assert_eq!(pdt.ipdom(b), naive_ipdom, "ipdom({}) in\n{}", b, f.display());
            for j in 0..f.block_count() {
                let a = BlockId(j as u32);
                let naive = a == b || pdom[i].as_ref().is_some_and(|d| d.contains(&a));
                prop_assert_eq!(pdt.post_dominates(a, b), naive, "{} pdom {} in\n{}", a, b, f.display());
            }
        }
        let exits: Vec<BlockId> = f.rpo().into_iter().filter(|&b| f.succs(b).len() == 0).collect();
        prop_assert_eq!(pdt.exits(), &exits[..]);
    }

    /// Each block's dominance frontier is the textbook set — the blocks `y`
    /// with a predecessor it dominates that it does not strictly dominate —
    /// listed once each, in reverse postorder.
    #[test]
    fn frontiers_match_naive_reference(
        edges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
        n in 3usize..12,
        switches in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..3),
    ) {
        let f = random_cfg_with_switches(&edges, n, &switches);
        let dt = DomTree::compute(&f);
        let df = dt.frontiers();
        let dom = naive_dominators(&f);
        let reach = naive_reachable(&f);
        let rpo = f.rpo();
        let pos = |b: BlockId| rpo.iter().position(|&x| x == b).expect("reachable");
        for i in 0..f.block_count() {
            let x = BlockId(i as u32);
            let dominated = |b: BlockId| dom[b.0 as usize].as_ref().is_some_and(|d| d.contains(&x));
            let naive: BTreeSet<BlockId> = reach
                .iter()
                .copied()
                .filter(|&y| {
                    let strictly = x != y && dominated(y);
                    !strictly
                        && reach
                            .iter()
                            .any(|&p| f.succs(p).any(|s| s == y) && dominated(p))
                })
                .collect();
            let got = df.get(x);
            prop_assert_eq!(got.iter().copied().collect::<BTreeSet<_>>(), naive, "DF({}) in\n{}", x, f.display());
            prop_assert!(got.windows(2).all(|w| pos(w[0]) < pos(w[1])), "DF({}) = {:?} not in RPO", x, got);
        }
    }

    /// The one-pass simplifier makes exactly the merges of the version that
    /// rescanned from block 0 after each one, on graphs with region tags,
    /// region anchors, phis and unreachable blocks; both leave valid IR.
    #[test]
    fn one_pass_simplify_matches_rescanning_merge_chains(
        edges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
        n in 3usize..12,
        regions in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..4),
        phis in any::<u64>(),
        orphan in any::<bool>(),
    ) {
        let f = random_region_func(&edges, n, &regions, phis, orphan);
        prop_assert!(verify(&f).is_ok(), "{:?}\n{}", verify(&f), f.display());
        let mut one_pass = f.clone();
        let mut rescanning = f.clone();
        let changes = simplify::run(&mut one_pass);
        let oracle_changes = rescanning_simplify(&mut rescanning);
        prop_assert_eq!(one_pass.display(), rescanning.display(), "input:\n{}", f.display());
        prop_assert_eq!(changes, oracle_changes);
        prop_assert!(verify(&one_pass).is_ok(), "{:?}\n{}", verify(&one_pass), one_pass.display());
    }
}
