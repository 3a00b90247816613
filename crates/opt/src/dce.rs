//! Dead-code elimination (effect-aware, SSA mark/sweep).
//!
//! Per the paper (§4), only DCE "needs to be informed that asserts are
//! essential and should not be removed" — [`hasp_ir::Op::has_side_effect`]
//! encodes that, along with checks, stores, calls, monitors, allocation,
//! markers, safepoints, and region bookkeeping.

use hasp_ir::{BlockId, Func, VRegSet};

/// Removes pure instructions whose results are never used. Returns the
/// number of instructions deleted.
pub fn run(f: &mut Func) -> usize {
    let blocks = f.block_ids();
    // Mark phase: everything feeding an effectful op or a terminator.
    let mut live = VRegSet::with_capacity(f.vreg_count() as usize);
    let mut work = Vec::new();
    let mut mark = |a| {
        if live.insert(a) {
            work.push(a);
        }
    };
    for &b in &blocks {
        for inst in &f.block(b).insts {
            if inst.op.has_side_effect() {
                inst.op.for_each_arg(&mut mark);
            }
        }
        f.block(b).term.for_each_arg(&mut mark);
    }
    // Def lookup: (block, index) of each value's definition.
    let mut def_of: Vec<Option<(BlockId, usize)>> = vec![None; f.vreg_count() as usize];
    for &b in &blocks {
        for (i, inst) in f.block(b).insts.iter().enumerate() {
            if let Some(d) = inst.dst {
                if d.0 as usize >= def_of.len() {
                    def_of.resize(d.0 as usize + 1, None);
                }
                def_of[d.0 as usize] = Some((b, i));
            }
        }
    }
    while let Some(v) = work.pop() {
        if let Some((b, i)) = def_of.get(v.0 as usize).copied().flatten() {
            f.block(b).insts[i].op.for_each_arg(|a| {
                if live.insert(a) {
                    work.push(a);
                }
            });
        }
    }
    // Sweep.
    let mut removed = 0;
    for &b in &blocks {
        let before = f.block(b).insts.len();
        f.block_mut(b)
            .insts
            .retain(|inst| inst.op.has_side_effect() || inst.dst.is_none_or(|d| live.contains(d)));
        removed += before - f.block(b).insts.len();
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_ir::{verify, Inst, Op, Term, VReg};
    use hasp_vm::bytecode::{BinOp, FieldId, MethodId};

    #[test]
    fn removes_unused_pure_chain() {
        let mut f = Func::new("t", MethodId(0), 1);
        let x = VReg(0);
        let a = f.vreg();
        let b = f.vreg();
        let used = f.vreg();
        let e = f.block_mut(f.entry);
        e.insts.push(Inst::with_dst(a, Op::Const(5)));
        e.insts.push(Inst::with_dst(b, Op::Bin(BinOp::Add, a, a))); // dead chain
        e.insts
            .push(Inst::with_dst(used, Op::Bin(BinOp::Add, x, x)));
        e.term = Term::Return(Some(used));
        let _ = b;
        let n = run(&mut f);
        verify(&f).unwrap();
        assert_eq!(n, 2);
        assert_eq!(f.block(f.entry).insts.len(), 1);
    }

    #[test]
    fn keeps_effects_and_their_inputs() {
        let mut f = Func::new("t", MethodId(0), 2);
        let (o, v) = (VReg(0), VReg(1));
        let unused_load = f.vreg();
        let e = f.block_mut(f.entry);
        e.insts.push(Inst::with_dst(
            unused_load,
            Op::LoadField {
                obj: o,
                field: FieldId(0),
            },
        ));
        e.insts.push(Inst::effect(Op::StoreField {
            obj: o,
            field: FieldId(0),
            val: v,
        }));
        e.insts.push(Inst::effect(Op::NullCheck(o)));
        e.term = Term::Return(None);
        let n = run(&mut f);
        verify(&f).unwrap();
        assert_eq!(n, 1, "only the unused load dies");
        assert_eq!(f.block(f.entry).insts.len(), 2);
    }

    #[test]
    fn dead_phi_cycle_removed() {
        // A loop-carried phi used only by itself (and an add feeding it back)
        // must die: phi -> add -> phi with no external use.
        use hasp_vm::bytecode::CmpOp;
        let mut f = Func::new("t", MethodId(0), 1);
        let p = VReg(0);
        let exit = f.add_block(Term::Return(None));
        let head = f.add_block(Term::Return(None));
        let body = f.add_block(Term::Jump(head));
        let phi = f.vreg();
        let nxt = f.vreg();
        let entry = f.entry;
        f.block_mut(entry).term = Term::Jump(head);
        f.block_mut(head)
            .insts
            .push(Inst::with_dst(phi, Op::Phi(vec![(entry, p), (body, nxt)])));
        f.block_mut(head).term = Term::Branch {
            op: CmpOp::Lt,
            a: p,
            b: p,
            t: body,
            f: exit,
            t_count: 1,
            f_count: 1,
        };
        f.block_mut(body)
            .insts
            .push(Inst::with_dst(nxt, Op::Bin(BinOp::Add, phi, p)));
        let n = run(&mut f);
        verify(&f).unwrap();
        assert_eq!(n, 2, "phi and add both dead");
    }
}
