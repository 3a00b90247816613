//! CFG cleanup: single-predecessor phi degeneration, straight-line block
//! merging, and unreachable-code removal. Runs between optimization rounds
//! so GVN sees maximal straight-line regions.

use hasp_ir::{BlockId, Func, Op, Term};

/// Simplifies the CFG. Returns the number of structural changes.
pub fn run(f: &mut Func) -> usize {
    let mut changes = 0;
    changes += f.remove_unreachable();
    changes += degenerate_phis(f);
    changes += merge_chains(f);
    changes
}

/// Converts phis in single-predecessor blocks into copies.
fn degenerate_phis(f: &mut Func) -> usize {
    let preds = f.preds();
    let mut n = 0;
    for b in f.block_ids() {
        if preds.count(b) != 1 {
            continue;
        }
        for inst in &mut f.block_mut(b).insts {
            if let Op::Phi(ins) = &inst.op {
                assert_eq!(ins.len(), 1, "phi arity must match single pred");
                inst.op = Op::Copy(ins[0].1);
                n += 1;
            }
        }
    }
    n
}

/// Merges `b -> c` pairs where `b` ends in an unconditional jump and `c` has
/// no other predecessors. Region tags must agree so speculative code never
/// bleeds across a region boundary.
///
/// One pass in `BlockId` order, merging at each block while it can: merging
/// `c` into `b` kills `c` and hands its out-edges to `b`, so no other
/// block's predecessor count changes and no block below `b` becomes
/// mergeable. The merges are the same, in the same order, as rescanning
/// from the lowest block after every merge. Expects every live block to be
/// reachable (`run` removes the rest first).
fn merge_chains(f: &mut Func) -> usize {
    let preds = f.preds();
    let mut pred_count: Vec<usize> = (0..f.block_count())
        .map(|i| preds.count(BlockId(i as u32)))
        .collect();
    let mut merged = 0;
    for i in 0..f.block_count() {
        let b = BlockId(i as u32);
        if f.block(b).dead {
            continue;
        }
        while let Term::Jump(c) = f.block(b).term {
            if c == b
                || c == f.entry
                || pred_count[c.0 as usize] != 1
                || f.block(b).region != f.block(c).region
                || is_region_anchor(f, c)
            {
                break;
            }
            // Degenerate any phis in c first (single pred).
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
            pred_count[c.0 as usize] = 0;
            // Successor phis now see b instead of c.
            for k in 0..f.block(b).term.succ_count() {
                let s = f.block(b).term.succ(k);
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
            merged += 1;
        }
    }
    merged
}

/// Blocks that region metadata points at must keep their identity.
fn is_region_anchor(f: &Func, b: BlockId) -> bool {
    f.regions
        .iter()
        .any(|r| r.begin == b || r.abort_target == b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_ir::{verify, Inst, VReg};
    use hasp_vm::bytecode::{BinOp, MethodId};

    #[test]
    fn merges_jump_chain() {
        let mut f = Func::new("t", MethodId(0), 1);
        let x = VReg(0);
        let c = f.add_block(Term::Return(None));
        let b = f.add_block(Term::Jump(c));
        f.block_mut(f.entry).term = Term::Jump(b);
        let d = f.vreg();
        f.block_mut(b)
            .insts
            .push(Inst::with_dst(d, Op::Bin(BinOp::Add, x, x)));
        let e2 = f.vreg();
        f.block_mut(c)
            .insts
            .push(Inst::with_dst(e2, Op::Bin(BinOp::Add, d, x)));
        f.block_mut(c).term = Term::Return(Some(e2));

        let n = run(&mut f);
        verify(&f).unwrap();
        assert!(n >= 2, "two merges expected, got {n}");
        assert_eq!(f.block_ids().len(), 1);
        assert_eq!(f.block(f.entry).insts.len(), 2);
    }

    #[test]
    fn does_not_merge_across_region_tag() {
        use hasp_ir::{RegionInfo, Term};
        let mut f = Func::new("t", MethodId(0), 0);
        let out = f.add_block(Term::Return(None));
        let exit_helper = f.add_block(Term::Jump(out));
        let body = f.add_block(Term::Jump(exit_helper));
        let abort = f.add_block(Term::Jump(out));
        let r = f.new_region(RegionInfo {
            begin: f.entry,
            abort_target: abort,
            size_estimate: 1,
        });
        f.block_mut(f.entry).term = Term::RegionBegin {
            region: r,
            body,
            abort,
        };
        f.block_mut(body).region = Some(r);
        f.block_mut(exit_helper).region = Some(r);
        f.block_mut(exit_helper)
            .insts
            .push(Inst::effect(Op::RegionEnd(r)));

        run(&mut f);
        verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));
        // body+exit_helper may merge (same region) but neither merges with
        // `out` (region None).
        let live = f.block_ids();
        assert!(live
            .iter()
            .any(|b| f.block(*b).region.is_none() && *b == out));
    }

    #[test]
    fn degenerates_single_pred_phi() {
        let mut f = Func::new("t", MethodId(0), 1);
        let x = VReg(0);
        let c = f.add_block(Term::Return(None));
        // Two preds then one becomes unreachable.
        let dead_src = f.add_block(Term::Jump(c));
        f.block_mut(f.entry).term = Term::Jump(c);
        let ph = f.vreg();
        let entry = f.entry;
        f.block_mut(c)
            .insts
            .push(Inst::with_dst(ph, Op::Phi(vec![(entry, x), (dead_src, x)])));
        f.block_mut(c).term = Term::Return(Some(ph));

        run(&mut f);
        verify(&f).unwrap();
        // dead_src unreachable -> removed; phi degenerated (possibly then
        // merged into entry).
        let any_phi = f
            .block_ids()
            .iter()
            .any(|b| f.block(*b).insts.iter().any(|i| matches!(i.op, Op::Phi(_))));
        assert!(!any_phi);
    }
}
