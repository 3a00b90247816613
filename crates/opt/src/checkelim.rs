//! Post-dominance bounds-check elimination inside atomic regions — the
//! paper's §7 future-work optimization, implemented here.
//!
//! Ordinarily a check `A` is removable only when a subsuming check dominates
//! it. Inside an atomic region it also becomes safe to remove a check `A`
//! that is *post-dominated* by a subsuming check `B`: if `B` fails, the
//! region aborts and the non-speculative code re-executes both checks and
//! reports the failing one precisely. The paper's example removes
//! `check_bounds(c_length, i)` because `check_bounds(c_length, i+1)`
//! post-dominates it within the region.

use hasp_ir::{BlockId, Func, Op, PostDomTree, VReg};
use hasp_vm::bytecode::BinOp;
use hasp_vm::fxhash::FxHashMap;

/// Removes region-internal bounds checks post-dominated by subsuming ones.
/// Returns the number of checks removed.
pub fn run(f: &mut Func) -> usize {
    if f.regions.is_empty() {
        return 0;
    }
    // Collect bounds checks per region.
    type Site = (BlockId, usize, VReg, VReg);
    let mut by_region: FxHashMap<u32, Vec<Site>> = FxHashMap::default();
    for b in f.block_ids() {
        let Some(r) = f.block(b).region else { continue };
        for (i, inst) in f.block(b).insts.iter().enumerate() {
            if let Op::BoundsCheck { len, idx } = inst.op {
                by_region.entry(r.0).or_default().push((b, i, len, idx));
            }
        }
    }
    if by_region.is_empty() {
        return 0;
    }
    let pdt = PostDomTree::compute(f);

    // Def table for recognizing `idx2 = idx + c`.
    let mut defs: Vec<Option<&Op>> = vec![None; f.vreg_count() as usize];
    for b in f.block_ids() {
        for inst in &f.block(b).insts {
            if let Some(slot) = inst.dst.and_then(|d| defs.get_mut(d.0 as usize)) {
                *slot = Some(&inst.op);
            }
        }
    }
    let def_of = |v: VReg| defs.get(v.0 as usize).copied().flatten();
    let const_of = |v: VReg| -> Option<i64> {
        match def_of(v) {
            Some(Op::Const(c)) => Some(*c),
            _ => None,
        }
    };
    // True if checking (len, idx2) subsumes checking (len, idx1):
    // idx2 = idx1 + c with c >= 0 (same upper-bound direction; the paper's
    // example pattern).
    let subsumes = |len2: VReg, idx2: VReg, len1: VReg, idx1: VReg| -> bool {
        if len1 != len2 {
            return false;
        }
        if idx1 == idx2 {
            return true;
        }
        match def_of(idx2) {
            Some(Op::Bin(BinOp::Add, a, b)) => {
                (*a == idx1 && const_of(*b).is_some_and(|c| c >= 0))
                    || (*b == idx1 && const_of(*a).is_some_and(|c| c >= 0))
            }
            _ => false,
        }
    };

    let mut kill: Vec<(BlockId, usize)> = Vec::new();
    for sites in by_region.values() {
        for &(ab, ai, alen, aidx) in sites {
            let removable = sites.iter().any(|&(bb, bi, blen, bidx)| {
                if (ab, ai) == (bb, bi) || !subsumes(blen, bidx, alen, aidx) {
                    return false;
                }
                if ab == bb {
                    bi > ai
                } else {
                    pdt.post_dominates(bb, ab)
                }
            });
            if removable {
                kill.push((ab, ai));
            }
        }
    }
    kill.sort_by(|a, b| b.cmp(a));
    kill.dedup();
    let n = kill.len();
    for (b, i) in kill {
        f.block_mut(b).insts.remove(i);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_ir::{verify, Inst, RegionInfo, Term};
    use hasp_vm::bytecode::MethodId;

    /// A region containing check(len, i) followed by check(len, i+1) — the
    /// §7 example.
    fn region_with_checks() -> (Func, BlockId) {
        let mut f = Func::new("t", MethodId(0), 2);
        let (len, i) = (VReg(0), VReg(1));
        let ret = f.add_block(Term::Return(None));
        let body = f.add_block(Term::Jump(ret));
        let abort = f.add_block(Term::Jump(ret));
        let r = f.new_region(RegionInfo {
            begin: f.entry,
            abort_target: abort,
            size_estimate: 8,
        });
        f.block_mut(f.entry).term = Term::RegionBegin {
            region: r,
            body,
            abort,
        };
        f.block_mut(body).region = Some(r);
        let one = f.vreg();
        let ip1 = f.vreg();
        let blk = f.block_mut(body);
        blk.insts
            .push(Inst::effect(Op::BoundsCheck { len, idx: i }));
        blk.insts.push(Inst::with_dst(one, Op::Const(1)));
        blk.insts
            .push(Inst::with_dst(ip1, Op::Bin(BinOp::Add, i, one)));
        blk.insts
            .push(Inst::effect(Op::BoundsCheck { len, idx: ip1 }));
        blk.insts.push(Inst::effect(Op::RegionEnd(r)));
        (f, body)
    }

    #[test]
    fn removes_postdominated_weaker_check() {
        let (mut f, body) = region_with_checks();
        assert_eq!(run(&mut f), 1);
        verify(&f).unwrap();
        let checks = f
            .block(body)
            .insts
            .iter()
            .filter(|i| matches!(i.op, Op::BoundsCheck { .. }))
            .count();
        assert_eq!(checks, 1, "only the stronger i+1 check remains");
        // The surviving check is the i+1 one.
        let survivor = f
            .block(body)
            .insts
            .iter()
            .find_map(|ins| match ins.op {
                Op::BoundsCheck { idx, .. } => Some(idx),
                _ => None,
            })
            .unwrap();
        assert_ne!(survivor, VReg(1));
    }

    #[test]
    fn outside_regions_untouched() {
        let mut f = Func::new("t", MethodId(0), 2);
        let (len, i) = (VReg(0), VReg(1));
        let one = f.vreg();
        let ip1 = f.vreg();
        let e = f.block_mut(f.entry);
        e.insts.push(Inst::effect(Op::BoundsCheck { len, idx: i }));
        e.insts.push(Inst::with_dst(one, Op::Const(1)));
        e.insts
            .push(Inst::with_dst(ip1, Op::Bin(BinOp::Add, i, one)));
        e.insts
            .push(Inst::effect(Op::BoundsCheck { len, idx: ip1 }));
        e.term = Term::Return(None);
        assert_eq!(run(&mut f), 0);
    }

    #[test]
    fn negative_offset_not_subsuming() {
        let (mut f, body) = region_with_checks();
        // Change the constant to -1: check(len, i-1) does not subsume.
        for inst in &mut f.block_mut(body).insts {
            if let Op::Const(c) = &mut inst.op {
                *c = -1;
            }
        }
        assert_eq!(run(&mut f), 0);
    }
}
