//! IR verifier: SSA well-formedness, CFG consistency, and the paper's atomic
//! region invariants (single-entry, no nesting, no calls inside regions,
//! exits pass through `aregion_end`).

use crate::dom::DomTree;
use crate::func::{Func, Preds};
use crate::instr::{BlockId, Op, Term, VReg};

/// Verifies `f`, returning a description of the first violation found.
///
/// # Errors
/// Returns `Err` with a human-readable message naming the offending block or
/// value when any invariant is violated.
pub fn verify(f: &Func) -> Result<(), String> {
    let dt = DomTree::compute(f);
    let live = dt.rpo();

    // Terminator targets are live blocks.
    for &b in live {
        for s in f.succs(b) {
            if s.0 as usize >= f.block_count() {
                return Err(format!("{b} targets out-of-range block {s}"));
            }
            if f.block(s).dead {
                return Err(format!("{b} targets dead block {s}"));
            }
        }
    }

    // Single definition per vreg: (block, index) of each value's definition.
    let mut def_block: Vec<Option<(BlockId, usize)>> = vec![None; f.vreg_count() as usize];
    for &b in live {
        for (i, inst) in f.block(b).insts.iter().enumerate() {
            if let Some(d) = inst.dst {
                if d.0 as usize >= def_block.len() {
                    def_block.resize(d.0 as usize + 1, None);
                }
                if let Some((ob, _)) = def_block[d.0 as usize].replace((b, i)) {
                    return Err(format!("{d} defined twice ({ob} and {b})"));
                }
            }
        }
    }
    let def_of = |v: VReg| def_block.get(v.0 as usize).copied().flatten();

    // Phis only at block head, and their pred sets match the CFG.
    let preds = dt.preds();
    let (mut phi_preds, mut cfg_preds) = (Vec::new(), Vec::new());
    for &b in live {
        let blk = f.block(b);
        let head = blk.phi_count();
        for (i, inst) in blk.insts.iter().enumerate() {
            if matches!(inst.op, Op::Phi(_)) && i >= head {
                return Err(format!("phi after non-phi in {b}"));
            }
            if let Op::Phi(ins) = &inst.op {
                phi_preds.clear();
                phi_preds.extend(ins.iter().map(|(p, _)| *p));
                phi_preds.sort_unstable();
                phi_preds.dedup();
                cfg_preds.clear();
                cfg_preds.extend_from_slice(preds.of(b));
                cfg_preds.sort_unstable();
                cfg_preds.dedup();
                if phi_preds != cfg_preds {
                    return Err(format!(
                        "phi {:?} in {b} has preds {phi_preds:?} but CFG preds are {cfg_preds:?}",
                        inst.dst
                    ));
                }
            }
        }
    }

    // Defs dominate uses.
    let dominates_use = |def: VReg, use_block: BlockId, use_index: usize| -> bool {
        let Some((db, di)) = def_of(def) else {
            return def.0 < u32::from(f.params); // parameter, live-in at entry
        };
        if db == use_block {
            di < use_index
        } else {
            dt.dominates(db, use_block)
        }
    };
    for &b in live {
        let blk = f.block(b);
        for (i, inst) in blk.insts.iter().enumerate() {
            if let Op::Phi(ins) = &inst.op {
                for (p, v) in ins {
                    // Phi input must dominate the end of the predecessor.
                    if !dominates_use(*v, *p, usize::MAX) {
                        return Err(format!(
                            "phi input {v} (edge {p}->{b}) not dominated by def"
                        ));
                    }
                }
            } else {
                let mut bad = None;
                inst.op.for_each_arg(|v| {
                    if bad.is_none() && !dominates_use(v, b, i) {
                        bad = Some(v);
                    }
                });
                if let Some(v) = bad {
                    return Err(format!("use of {v} in {b}@{i} not dominated by def"));
                }
            }
        }
        let mut bad = None;
        blk.term.for_each_arg(|v| {
            if bad.is_none() && !dominates_use(v, b, usize::MAX) {
                bad = Some(v);
            }
        });
        if let Some(v) = bad {
            return Err(format!("terminator use of {v} in {b} not dominated by def"));
        }
    }

    verify_regions(f, live, preds)
}

fn verify_regions(f: &Func, live: &[BlockId], preds: &Preds) -> Result<(), String> {
    for &b in live {
        let blk = f.block(b);
        match blk.region {
            Some(r) => {
                // No calls inside atomic regions (regions end at non-inlined
                // calls, paper §4).
                for inst in &blk.insts {
                    if inst.op.is_call() {
                        return Err(format!("call inside atomic region r{} at {b}", r.0));
                    }
                    if let Op::RegionEnd(re) = inst.op {
                        if re != r {
                            return Err(format!(
                                "RegionEnd(r{}) inside region r{} at {b}",
                                re.0, r.0
                            ));
                        }
                    }
                }
                // No nesting.
                if matches!(blk.term, Term::RegionBegin { .. }) {
                    return Err(format!("nested RegionBegin at {b} (inside r{})", r.0));
                }
                // Single entry: every predecessor is in the same region or is
                // the RegionBegin block targeting us as body.
                for &p in preds.of(b) {
                    let pb = f.block(p);
                    let ok = pb.region == Some(r)
                        || matches!(pb.term, Term::RegionBegin { region, body, .. }
                            if region == r && body == b);
                    if !ok {
                        return Err(format!(
                            "region r{} block {b} entered from outside ({p})",
                            r.0
                        ));
                    }
                }
                // Exits commit: an edge leaving the region must come from a
                // block containing RegionEnd.
                let leaves_region = f.succs(b).any(|s| f.block(s).region != Some(r));
                if leaves_region {
                    let has_end = blk
                        .insts
                        .iter()
                        .any(|i| matches!(i.op, Op::RegionEnd(re) if re == r));
                    if !has_end {
                        return Err(format!("region r{} exits at {b} without aregion_end", r.0));
                    }
                }
            }
            None => {
                // Asserts and RegionEnd belong inside regions only.
                for inst in &blk.insts {
                    if matches!(inst.op, Op::Assert { .. }) {
                        return Err(format!("assert outside any region at {b}"));
                    }
                    if matches!(inst.op, Op::RegionEnd(_)) {
                        return Err(format!("RegionEnd outside any region at {b}"));
                    }
                }
                if let Term::RegionBegin {
                    region,
                    body,
                    abort,
                } = &blk.term
                {
                    if f.block(*body).region != Some(*region) {
                        return Err(format!(
                            "RegionBegin at {b}: body {body} not tagged r{}",
                            region.0
                        ));
                    }
                    if f.block(*abort).region.is_some() {
                        return Err(format!(
                            "RegionBegin at {b}: abort target {abort} is inside a region",
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::RegionInfo;
    use crate::instr::{AssertKind, Inst, RegionId};
    use hasp_vm::bytecode::{BinOp, MethodId};

    #[test]
    fn accepts_trivial() {
        let f = Func::new("t", MethodId(0), 0);
        verify(&f).unwrap();
    }

    #[test]
    fn rejects_double_def() {
        let mut f = Func::new("t", MethodId(0), 0);
        let v = f.vreg();
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(v, Op::Const(1)));
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(v, Op::Const(2)));
        assert!(verify(&f).unwrap_err().contains("defined twice"));
    }

    #[test]
    fn rejects_use_before_def() {
        let mut f = Func::new("t", MethodId(0), 0);
        let a = f.vreg();
        let b = f.vreg();
        let c = f.vreg();
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(c, Op::Bin(BinOp::Add, a, b)));
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(a, Op::Const(1)));
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(b, Op::Const(2)));
        assert!(verify(&f).unwrap_err().contains("not dominated"));
    }

    #[test]
    fn rejects_call_in_region() {
        let mut f = Func::new("t", MethodId(0), 0);
        let exit = f.add_block(Term::Return(None));
        let body = f.add_block(Term::Jump(exit));
        let abort = f.add_block(Term::Jump(exit));
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
        f.block_mut(body).insts.push(Inst::effect(Op::RegionEnd(r)));
        verify(&f).unwrap();

        f.block_mut(body).insts.insert(
            0,
            Inst::effect(Op::Call {
                method: MethodId(1),
                args: vec![],
            }),
        );
        assert!(verify(&f)
            .unwrap_err()
            .contains("call inside atomic region"));
    }

    #[test]
    fn rejects_region_exit_without_end() {
        let mut f = Func::new("t", MethodId(0), 0);
        let exit = f.add_block(Term::Return(None));
        let body = f.add_block(Term::Jump(exit));
        let abort = f.add_block(Term::Jump(exit));
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
        assert!(verify(&f).unwrap_err().contains("without aregion_end"));
    }

    #[test]
    fn rejects_assert_outside_region() {
        let mut f = Func::new("t", MethodId(0), 0);
        let v = f.vreg();
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(v, Op::Const(0)));
        let id = f.new_assert(RegionId(0), "test");
        f.block_mut(f.entry).insts.push(Inst::effect(Op::Assert {
            kind: AssertKind::Null(v),
            id,
        }));
        assert!(verify(&f).unwrap_err().contains("assert outside"));
    }

    #[test]
    fn rejects_side_entry_into_region() {
        let mut f = Func::new("t", MethodId(0), 0);
        let exit = f.add_block(Term::Return(None));
        let body = f.add_block(Term::Jump(exit));
        let abort = f.add_block(Term::Jump(body)); // illegal: jumps into region
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
        f.block_mut(body).insts.push(Inst::effect(Op::RegionEnd(r)));
        assert!(verify(&f).unwrap_err().contains("entered from outside"));
    }
}
