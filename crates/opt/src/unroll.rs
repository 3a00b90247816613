//! Partial loop unrolling inside atomic regions (paper §4, ~200 LOC in the
//! authors' compiler).
//!
//! A loop fully enclosed in an atomic region gets its body duplicated once
//! (factor 2): iteration pairs then form straight-line code across which GVN
//! removes redundant checks and loads — the paper's Figure 3 effect across
//! iterations. Cold paths inside the body were already converted to asserts,
//! so only the hot body is duplicated: that is what makes the unrolling
//! *partial*.
//!
//! Values defined in the loop may escape through its exits; after the copy,
//! a reaching-definition SSA repair inserts the join phis that merge the
//! iteration-1 and iteration-2 definitions wherever they are consumed.

use std::collections::{HashMap, HashSet};

use hasp_core::RegionConfig;
use hasp_ir::{BlockId, DomTree, Func, LoopForest, Op, Term, VReg};

/// Unrolls eligible region-enclosed loops by a factor of 2. Returns the
/// number of loops unrolled.
pub fn run(f: &mut Func, cfg: &RegionConfig) -> usize {
    if f.regions.is_empty() {
        return 0;
    }
    let dt = DomTree::compute(f);
    let forest = LoopForest::compute(f, &dt);
    let mut unrolled = 0;
    // Only innermost loops (a body copy invalidates outer-loop block sets).
    let candidates: Vec<_> = forest
        .post_order()
        .iter()
        .filter(|l| {
            l.depth
                == forest
                    .post_order()
                    .iter()
                    .map(|x| x.depth)
                    .max()
                    .unwrap_or(0)
        })
        .cloned()
        .collect();
    for l in candidates {
        if try_unroll(f, cfg, &l) {
            unrolled += 1;
        }
    }
    unrolled
}

fn try_unroll(f: &mut Func, cfg: &RegionConfig, l: &hasp_ir::Loop) -> bool {
    // Fully inside one region.
    let Some(region) = f.block(l.header).region else {
        return false;
    };
    if !l.blocks.iter().all(|b| f.block(*b).region == Some(region)) {
        return false;
    }
    // Single latch.
    let latches = l.latches(f);
    if latches.len() != 1 {
        return false;
    }
    let latch = latches[0];
    // Size budget: doubling must stay within the region cap.
    let loop_ops: u64 = l
        .blocks
        .iter()
        .map(|&b| f.block(b).insts.len() as u64 + 1)
        .sum();
    if loop_ops * 2 > cfg.max_region_ops {
        return false;
    }
    let exit_targets: HashSet<BlockId> = l.exit_targets(f).into_iter().collect();
    let blocks: Vec<BlockId> = {
        let mut v: Vec<_> = l.blocks.iter().copied().collect();
        v.sort();
        v
    };

    // ---- Copy the body (iteration 2). ----
    // Copies are numbered in block and instruction order.
    let defs: Vec<VReg> = blocks
        .iter()
        .flat_map(|&b| f.block(b).insts.iter().filter_map(|i| i.dst))
        .collect();
    let mut vmap: HashMap<VReg, VReg> = HashMap::new();
    for d in defs {
        let fresh = f.vreg();
        vmap.insert(d, fresh);
    }
    let mut bmap: HashMap<BlockId, BlockId> = HashMap::new();
    for &b in &blocks {
        let nb = f.add_block(Term::Return(None));
        bmap.insert(b, nb);
    }
    // Latch-carried values feeding the header phis of iteration 2.
    let header_phis: Vec<(VReg, VReg)> = f
        .block(l.header)
        .phis()
        .map(|inst| {
            let Op::Phi(ins) = &inst.op else {
                unreachable!()
            };
            let latch_val = ins
                .iter()
                .find(|(p, _)| *p == latch)
                .map(|(_, v)| *v)
                .expect("header phi must have a latch input");
            (inst.dst.expect("phi has dst"), latch_val)
        })
        .collect();

    for &b in &blocks {
        let nb = bmap[&b];
        let mut insts = f.block(b).insts.clone();
        for inst in &mut insts {
            if let Some(d) = inst.dst {
                inst.dst = Some(vmap[&d]);
            }
            if let Op::Phi(ins) = &mut inst.op {
                for (p, _) in ins.iter_mut() {
                    if let Some(np) = bmap.get(p) {
                        *p = *np;
                    }
                }
            }
            for a in inst.op.args_mut() {
                if let Some(n) = vmap.get(a) {
                    *a = *n;
                }
            }
        }
        // Iteration 2's header phis become copies of iteration 1's
        // latch-carried values.
        if b == l.header {
            for (slot, (phi_dst, latch_val)) in header_phis.iter().enumerate() {
                let inst = &mut insts[slot];
                debug_assert_eq!(inst.dst, Some(vmap[phi_dst]));
                inst.op = Op::Copy(*latch_val);
            }
        }
        let mut term = f.block(b).term.clone();
        for a in term.args_mut() {
            if let Some(n) = vmap.get(a) {
                *a = *n;
            }
        }
        // Retarget: in-loop -> copy; header backedge from copied latch ->
        // original header; exits stay (phi inputs patched below).
        for s in term.succs() {
            if s == l.header && b == latch {
                // keep pointing at the original header (closes iter 2 -> 1)
            } else if let Some(&ns) = bmap.get(&s) {
                term.retarget(s, ns);
            }
        }
        let freq = f.block(b).freq / 2;
        f.block_mut(nb).insts = insts;
        f.block_mut(nb).term = term;
        f.block_mut(nb).freq = freq;
        f.block_mut(nb).region = Some(region);
        f.block_mut(b).freq -= freq;
    }

    // Exit-target phis: inputs for the copied exiting blocks (the direct
    // merges; deeper escapes are handled by the SSA repair below).
    for t in &exit_targets {
        let mut additions: Vec<(usize, BlockId, VReg)> = Vec::new();
        for (idx, inst) in f.block(*t).insts.iter().enumerate() {
            if let Op::Phi(ins) = &inst.op {
                for (p, v) in ins {
                    if let Some(&np) = bmap.get(p) {
                        if f.succs(np).contains(t) {
                            additions.push((idx, np, *vmap.get(v).unwrap_or(v)));
                        }
                    }
                }
            }
        }
        for (idx, np, v) in additions {
            if let Op::Phi(ins) = &mut f.block_mut(*t).insts[idx].op {
                ins.push((np, v));
            }
        }
    }

    // Original latch now feeds iteration 2 instead of the header.
    f.block_mut(latch).term.retarget(l.header, bmap[&l.header]);
    // Header phis: the latch input now arrives from the copied latch.
    let latch2 = bmap[&latch];
    for inst in &mut f.block_mut(l.header).insts {
        if let Op::Phi(ins) = &mut inst.op {
            for (p, v) in ins.iter_mut() {
                if *p == latch {
                    *p = latch2;
                    *v = *vmap.get(v).unwrap_or(v);
                }
            }
        }
    }

    // Reaching-definition repair for every duplicated value: escapes through
    // the loop exits get their iteration-1/iteration-2 join phis.
    hasp_ir::ssa_repair::repair(f, &vmap);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_ir::{verify, Inst, RegionInfo};
    use hasp_vm::bytecode::{BinOp, CmpOp, FieldId, MethodId};

    /// A store-only counted loop fully inside a region:
    /// for (i = 0; i < n; ++i) obj.f = i;
    fn enclosed_store_loop() -> Func {
        let mut f = Func::new("t", MethodId(0), 2);
        let (n, obj) = (VReg(0), VReg(1));
        let ret = f.add_block(Term::Return(None));
        let ehelp = f.add_block(Term::Jump(ret));
        let head = f.add_block(Term::Return(None));
        let body = f.add_block(Term::Jump(head));
        let abort = f.add_block(Term::Jump(ret));
        let r = f.new_region(RegionInfo {
            begin: f.entry,
            abort_target: abort,
            size_estimate: 9,
        });
        f.block_mut(f.entry).term = Term::RegionBegin {
            region: r,
            body: head,
            abort,
        };
        for b in [head, body, ehelp] {
            f.block_mut(b).region = Some(r);
        }
        let i0 = f.vreg();
        let iphi = f.vreg();
        let i1 = f.vreg();
        let one = f.vreg();
        let begin = f.entry;
        f.block_mut(begin)
            .insts
            .push(Inst::with_dst(i0, Op::Const(0)));
        f.block_mut(head)
            .insts
            .push(Inst::with_dst(iphi, Op::Phi(vec![(begin, i0), (body, i1)])));
        f.block_mut(head).term = Term::Branch {
            op: CmpOp::Lt,
            a: iphi,
            b: n,
            t: body,
            f: ehelp,
            t_count: 1000,
            f_count: 10,
        };
        f.block_mut(body)
            .insts
            .push(Inst::with_dst(one, Op::Const(1)));
        f.block_mut(body).insts.push(Inst::effect(Op::StoreField {
            obj,
            field: FieldId(0),
            val: iphi,
        }));
        f.block_mut(body)
            .insts
            .push(Inst::with_dst(i1, Op::Bin(BinOp::Add, iphi, one)));
        f.block_mut(ehelp)
            .insts
            .push(Inst::effect(Op::RegionEnd(r)));
        f.block_mut(head).freq = 1010;
        f.block_mut(body).freq = 1000;
        f
    }

    #[test]
    fn unrolls_store_loop_by_two() {
        let mut f = enclosed_store_loop();
        // RegionBegin terminators put phis at the header via formation in
        // real flows; here the begin block itself carries the init.
        let n = run(&mut f, &RegionConfig::default());
        assert_eq!(n, 1);
        verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));
        // Two stores now exist (one per unrolled iteration).
        let stores: usize = f
            .block_ids()
            .iter()
            .map(|b| {
                f.block(*b)
                    .insts
                    .iter()
                    .filter(|i| matches!(i.op, Op::StoreField { .. }))
                    .count()
            })
            .sum();
        assert_eq!(stores, 2);
    }

    #[test]
    fn loop_with_external_use_gets_repair_phi() {
        let mut f = enclosed_store_loop();
        // The exit helper consumes the loop variable directly: after
        // unrolling, the SSA repair must merge the iteration-1/iteration-2
        // definitions on the way out.
        let head = BlockId(3);
        let iphi = f.block(head).phis().next().and_then(|i| i.dst).unwrap();
        let ehelp = BlockId(2);
        f.block_mut(ehelp).insts.push(Inst::effect(Op::StoreField {
            obj: VReg(1),
            field: FieldId(1),
            val: iphi,
        }));
        assert_eq!(run(&mut f, &RegionConfig::default()), 1);
        verify(&f).unwrap_or_else(|e| {
            panic!(
                "{e}
{}",
                f.display()
            )
        });
        // The escaping use was rewritten (to a join phi or reaching def).
        let still_direct = f
            .block(ehelp)
            .insts
            .iter()
            .any(|i| !matches!(i.op, Op::Phi(_)) && i.op.args().contains(&iphi));
        assert!(
            !still_direct,
            "escaping use must go through the repair:
{}",
            f.display()
        );
    }

    #[test]
    fn loop_outside_region_skipped() {
        let mut f = enclosed_store_loop();
        for b in f.block_ids() {
            f.block_mut(b).region = None;
        }
        f.regions.clear();
        assert_eq!(run(&mut f, &RegionConfig::default()), 0);
    }
}
