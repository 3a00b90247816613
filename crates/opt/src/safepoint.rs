//! GC safepoint elision for loops fully encapsulated in atomic regions
//! (paper §6.4): the per-iteration safepoint poll is replaced by a single
//! yield-flag load before the region — if a collection were requested, the
//! region aborts and the non-speculative code (which still polls) runs.

use hasp_ir::{DomTree, Func, Inst, LoopForest, Op};
use hasp_vm::bytecode::Intrinsic;

/// Elides safepoints in region-enclosed loops. Returns the number of
/// safepoint polls removed.
pub fn run(f: &mut Func) -> usize {
    if f.regions.is_empty() {
        return 0;
    }
    let dt = DomTree::compute(f);
    let forest = LoopForest::compute(f, &dt);
    let mut removed = 0;
    let mut touched_regions = Vec::new();
    for l in forest.post_order() {
        // Fully inside one region?
        let Some(region) = f.block(l.header).region else {
            continue;
        };
        if !l.blocks.iter().all(|b| f.block(b).region == Some(region)) {
            continue;
        }
        for b in l.blocks.iter() {
            let before = f.block(b).insts.len();
            f.block_mut(b)
                .insts
                .retain(|i| !matches!(i.op, Op::Safepoint));
            removed += before - f.block(b).insts.len();
        }
        if !touched_regions.contains(&region) {
            touched_regions.push(region);
        }
    }
    // One yield-flag load per affected region, in its begin block.
    for r in touched_regions {
        let begin = f.regions[r.0 as usize].begin;
        let phi_count = f.block(begin).phi_count();
        f.block_mut(begin).insts.insert(
            phi_count,
            Inst::effect(Op::Intrin {
                kind: Intrinsic::YieldFlag,
                args: vec![],
            }),
        );
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_ir::{BlockId, RegionInfo, Term, VReg};
    use hasp_vm::bytecode::{CmpOp, MethodId};

    /// A whole loop inside one region, with a safepoint in its body.
    fn enclosed_loop() -> Func {
        let mut f = Func::new("t", MethodId(0), 2);
        let (a, b) = (VReg(0), VReg(1));
        let ret = f.add_block(Term::Return(None));
        let exit_helper = f.add_block(Term::Jump(ret));
        let head = f.add_block(Term::Return(None));
        let body = f.add_block(Term::Jump(head));
        let abort = f.add_block(Term::Jump(ret));
        let r = f.new_region(RegionInfo {
            begin: f.entry,
            abort_target: abort,
            size_estimate: 8,
        });
        f.block_mut(f.entry).term = Term::RegionBegin {
            region: r,
            body: head,
            abort,
        };
        for blk in [head, body, exit_helper] {
            f.block_mut(blk).region = Some(r);
        }
        f.block_mut(head).term = Term::Branch {
            op: CmpOp::Lt,
            a,
            b,
            t: body,
            f: exit_helper,
            t_count: 100,
            f_count: 10,
        };
        f.block_mut(body)
            .insts
            .push(hasp_ir::Inst::effect(Op::Safepoint));
        f.block_mut(exit_helper)
            .insts
            .push(hasp_ir::Inst::effect(Op::RegionEnd(r)));
        f
    }

    #[test]
    fn removes_safepoint_and_adds_yield_load() {
        let mut f = enclosed_loop();
        assert_eq!(run(&mut f), 1);
        hasp_ir::verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));
        let body = BlockId(3);
        assert!(f.block(body).insts.is_empty());
        let begin = f.entry;
        assert!(f.block(begin).insts.iter().any(|i| matches!(
            i.op,
            Op::Intrin {
                kind: Intrinsic::YieldFlag,
                ..
            }
        )));
    }

    #[test]
    fn loop_straddling_region_untouched() {
        let mut f = enclosed_loop();
        // Pull the body out of the region: loop no longer fully enclosed.
        f.block_mut(BlockId(3)).region = None;
        // (This is not a verifiable region layout, but the pass must still
        // leave the safepoint alone.)
        assert_eq!(run(&mut f), 0);
    }
}
