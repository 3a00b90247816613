//! Constant propagation, algebraic simplification, and branch folding.
//!
//! Inside atomic regions this pass "eliminates branches via constant
//! propagation previously inhibited by cold control flow" (paper §6): once
//! cold edges are asserts, values that were merge-dependent become constants.

use hasp_ir::{AssertKind, BlockId, Func, Op, Term, VReg};
use hasp_vm::bytecode::BinOp;

/// Statistics from one constant-propagation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConstPropStats {
    /// Instructions folded to constants or simplified to copies.
    pub folded: usize,
    /// Conditional branches/switches folded to jumps.
    pub branches: usize,
    /// Statically-false asserts removed.
    pub asserts: usize,
}

/// Runs constant propagation over `f`. Returns statistics.
pub fn run(f: &mut Func) -> ConstPropStats {
    let mut stats = ConstPropStats::default();
    let mut consts = Consts(vec![None; f.vreg_count() as usize]);

    // Collect constants (SSA: one def each, so a single scan suffices; copies
    // were collapsed by GVN).
    let blocks = f.block_ids();
    for &b in &blocks {
        for inst in &f.block(b).insts {
            if let (Some(d), Op::Const(c)) = (inst.dst, &inst.op) {
                consts.insert(d, *c);
            }
        }
    }

    // Fold instructions.
    for &b in &blocks {
        let n = f.block(b).insts.len();
        for i in 0..n {
            let inst = &f.block(b).insts[i];
            let dst = inst.dst;
            let mut dead_assert = false;
            let new_op = match &inst.op {
                Op::Bin(op, x, y) => match (consts.get(x), consts.get(y)) {
                    (Some(&cx), Some(&cy)) => op.eval(cx, cy).map(Op::Const),
                    (_, Some(0))
                        if matches!(
                            op,
                            BinOp::Add
                                | BinOp::Sub
                                | BinOp::Or
                                | BinOp::Xor
                                | BinOp::Shl
                                | BinOp::Shr
                        ) =>
                    {
                        Some(Op::Copy(*x))
                    }
                    (Some(0), _) if matches!(op, BinOp::Add | BinOp::Or | BinOp::Xor) => {
                        Some(Op::Copy(*y))
                    }
                    (_, Some(1)) if matches!(op, BinOp::Mul | BinOp::Div) => Some(Op::Copy(*x)),
                    (Some(1), _) if matches!(op, BinOp::Mul) => Some(Op::Copy(*y)),
                    (Some(0), _) if matches!(op, BinOp::Mul | BinOp::And) => Some(Op::Const(0)),
                    (_, Some(0)) if matches!(op, BinOp::Mul | BinOp::And) => Some(Op::Const(0)),
                    _ => None,
                },
                Op::Cmp(op, x, y) => match (consts.get(x), consts.get(y)) {
                    (Some(&cx), Some(&cy)) => Some(Op::Const(i64::from(op.eval_int(cx, cy)))),
                    _ if x == y => Some(Op::Const(i64::from(op.eval_int(0, 0)))),
                    _ => None,
                },
                // Div checks against nonzero constants are removed in the
                // retain pass below.
                Op::Assert {
                    kind: AssertKind::Cmp { op, a, b: y },
                    ..
                } => {
                    if let (Some(&ca), Some(&cb)) = (consts.get(a), consts.get(y)) {
                        dead_assert = !op.eval_int(ca, cb);
                    }
                    None
                }
                Op::Assert {
                    kind: AssertKind::IntNe { sel, expected },
                    ..
                } => {
                    dead_assert = consts.get(sel) == Some(expected);
                    None
                }
                _ => None,
            };
            if dead_assert {
                stats.asserts += 1;
                f.block_mut(b).insts[i].op = Op::Marker(u32::MAX); // tombstone
            }
            if let Some(op) = new_op {
                if let (Op::Const(c), Some(d)) = (&op, dst) {
                    consts.insert(d, *c);
                }
                f.block_mut(b).insts[i].op = op;
                stats.folded += 1;
            }
        }
        // Remove statically-satisfied div checks and assert tombstones.
        let before = f.block(b).insts.len();
        f.block_mut(b).insts.retain(|i| match &i.op {
            Op::Marker(u32::MAX) => false,
            Op::DivCheck(v) => !matches!(consts.get(v), Some(&c) if c != 0),
            _ => true,
        });
        stats.folded += before - f.block(b).insts.len();
    }

    // Fold conditional terminators with known outcomes.
    for &b in &blocks {
        let term = f.block(b).term.clone();
        match term {
            Term::Branch {
                op,
                a,
                b: y,
                t,
                f: fb,
                ..
            } => {
                let known = match (consts.get(&a), consts.get(&y)) {
                    (Some(&ca), Some(&cb)) => Some(op.eval_int(ca, cb)),
                    _ if a == y => Some(op.eval_int(0, 0)),
                    _ => None,
                };
                if let Some(taken) = known {
                    let (keep, drop) = if taken { (t, fb) } else { (fb, t) };
                    f.block_mut(b).term = Term::Jump(keep);
                    stats.branches += 1;
                    if drop != keep {
                        prune_phi_inputs(f, b, drop);
                    }
                }
            }
            Term::Switch {
                sel,
                ref targets,
                default,
            } => {
                if let Some(&c) = consts.get(&sel) {
                    let chosen = if c >= 0 && (c as usize) < targets.len() {
                        targets[c as usize].0
                    } else {
                        default.0
                    };
                    let drops: Vec<_> = targets
                        .iter()
                        .map(|(t, _)| *t)
                        .chain([default.0])
                        .filter(|x| *x != chosen)
                        .collect();
                    f.block_mut(b).term = Term::Jump(chosen);
                    stats.branches += 1;
                    for d in drops {
                        prune_phi_inputs(f, b, d);
                    }
                }
            }
            _ => {}
        }
    }
    if stats.branches > 0 {
        f.remove_unreachable();
    }
    stats
}

/// Known constant values, indexed by `VReg`.
struct Consts(Vec<Option<i64>>);

impl Consts {
    fn get(&self, v: &VReg) -> Option<&i64> {
        self.0.get(v.0 as usize).and_then(Option::as_ref)
    }

    fn insert(&mut self, v: VReg, c: i64) {
        if v.0 as usize >= self.0.len() {
            self.0.resize(v.0 as usize + 1, None);
        }
        self.0[v.0 as usize] = Some(c);
    }
}

/// Removes `from`'s phi inputs in `to` after the edge `from -> to` was
/// deleted (unless another edge from `from` to `to` survives).
fn prune_phi_inputs(f: &mut Func, from: BlockId, to: BlockId) {
    if f.succs(from).any(|s| s == to) {
        return;
    }
    for inst in &mut f.block_mut(to).insts {
        if let Op::Phi(ins) = &mut inst.op {
            ins.retain(|(p, _)| *p != from);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_ir::{verify, Inst};
    use hasp_vm::bytecode::{CmpOp, MethodId};

    #[test]
    fn folds_constants_and_identities() {
        let mut f = Func::new("t", MethodId(0), 1);
        let x = VReg(0);
        let c2 = f.vreg();
        let c3 = f.vreg();
        let s = f.vreg();
        let z = f.vreg();
        let id = f.vreg();
        let e = f.block_mut(f.entry);
        e.insts.push(Inst::with_dst(c2, Op::Const(2)));
        e.insts.push(Inst::with_dst(c3, Op::Const(3)));
        e.insts.push(Inst::with_dst(s, Op::Bin(BinOp::Add, c2, c3)));
        e.insts.push(Inst::with_dst(z, Op::Const(0)));
        e.insts.push(Inst::with_dst(id, Op::Bin(BinOp::Add, x, z)));
        e.term = Term::Return(Some(id));
        let stats = run(&mut f);
        verify(&f).unwrap();
        assert!(stats.folded >= 2);
        assert!(matches!(f.block(f.entry).insts[2].op, Op::Const(5)));
        assert!(matches!(f.block(f.entry).insts[4].op, Op::Copy(v) if v == x));
    }

    #[test]
    fn folds_constant_branch_and_prunes_phi() {
        let mut f = Func::new("t", MethodId(0), 0);
        let join = f.add_block(Term::Return(None));
        let t = f.add_block(Term::Jump(join));
        let e = f.add_block(Term::Jump(join));
        let c1 = f.vreg();
        let c2 = f.vreg();
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(c1, Op::Const(1)));
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(c2, Op::Const(2)));
        f.block_mut(f.entry).term = Term::Branch {
            op: CmpOp::Lt,
            a: c1,
            b: c2,
            t,
            f: e,
            t_count: 0,
            f_count: 0,
        };
        let va = f.vreg();
        let vb = f.vreg();
        let ph = f.vreg();
        f.block_mut(t).insts.push(Inst::with_dst(va, Op::Const(10)));
        f.block_mut(e).insts.push(Inst::with_dst(vb, Op::Const(20)));
        f.block_mut(join)
            .insts
            .push(Inst::with_dst(ph, Op::Phi(vec![(t, va), (e, vb)])));
        f.block_mut(join).term = Term::Return(Some(ph));

        let stats = run(&mut f);
        verify(&f).unwrap_or_else(|err| panic!("{err}\n{}", f.display()));
        assert_eq!(stats.branches, 1);
        assert!(f.block(e).dead, "untaken arm removed");
        match &f.block(join).insts[0].op {
            Op::Phi(ins) => assert_eq!(ins.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn removes_false_asserts() {
        use hasp_ir::{RegionId, RegionInfo};
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
        let c1 = f.vreg();
        let c2 = f.vreg();
        f.block_mut(body)
            .insts
            .push(Inst::with_dst(c1, Op::Const(1)));
        f.block_mut(body)
            .insts
            .push(Inst::with_dst(c2, Op::Const(2)));
        let id = f.new_assert(RegionId(0), "x");
        f.block_mut(body).insts.push(Inst::effect(Op::Assert {
            kind: AssertKind::Cmp {
                op: CmpOp::Gt,
                a: c1,
                b: c2,
            },
            id,
        }));
        f.block_mut(body).insts.push(Inst::effect(Op::RegionEnd(r)));
        let stats = run(&mut f);
        verify(&f).unwrap();
        assert_eq!(stats.asserts, 1);
    }

    #[test]
    fn same_operand_cmp_folds() {
        let mut f = Func::new("t", MethodId(0), 1);
        let x = VReg(0);
        let d = f.vreg();
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(d, Op::Cmp(CmpOp::Eq, x, x)));
        f.block_mut(f.entry).term = Term::Return(Some(d));
        run(&mut f);
        assert!(matches!(f.block(f.entry).insts[0].op, Op::Const(1)));
    }
}
