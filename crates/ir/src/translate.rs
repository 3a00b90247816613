//! Bytecode → IR translation.
//!
//! Safety checks are decomposed (`GetField` becomes `NullCheck` +
//! `LoadField`; `ALoad` becomes `NullCheck` + `ArrayLen` + `BoundsCheck` +
//! `LoadElem`) so that redundancy elimination can remove checks
//! independently of the accesses they guard — the paper's motivating
//! optimization (§2, Figure 3). Profile counts from the interpreter are
//! attached to branch/switch terminators and block frequencies.

use hasp_vm::bytecode::{block_leaders, BinOp, Instr, MethodId};
use hasp_vm::class::Program;
use hasp_vm::profile::MethodProfile;

use crate::func::Func;
use crate::instr::{BlockId, Inst, Op, Term, VReg};
use crate::ssa;

/// Translates `method` into (non-optimized) SSA IR using `profile` for edge
/// weights. A missing/empty profile produces zero counts, which region
/// formation treats as cold.
pub fn translate(program: &Program, method: MethodId, profile: Option<&MethodProfile>) -> Func {
    let m = program.method(method);
    let empty = MethodProfile::default();
    let prof = profile.unwrap_or(&empty);

    // 1. Find block leaders.
    let is_leader = block_leaders(&m.code);
    let leader_list: Vec<usize> = (0..is_leader.len()).filter(|&pc| is_leader[pc]).collect();

    let mut f = Func::new(m.name.clone(), method, m.argc);
    // Variable space: bytecode registers map to VReg(0..m.regs); temps after.
    for _ in m.argc..m.regs {
        f.vreg();
    }

    // Entry block: zero-init non-arg variables (the interpreter's default),
    // then jump to the block at pc 0. SSA construction + DCE clean up unused
    // inits.
    // Block of each leader pc, in pc order.
    let mut pc_block = vec![BlockId(u32::MAX); is_leader.len()];
    for &pc in &leader_list {
        let b = f.add_block(Term::Return(None));
        pc_block[pc] = b;
        f.block_mut(b).freq = prof.exec_count(pc);
    }
    let var = |r: hasp_vm::bytecode::Reg| VReg(u32::from(r.0));
    {
        let entry = f.entry;
        for i in m.argc..m.regs {
            f.block_mut(entry)
                .insts
                .push(Inst::with_dst(VReg(u32::from(i)), Op::Const(0)));
        }
        if m.synchronized {
            f.block_mut(entry)
                .insts
                .push(Inst::effect(Op::NullCheck(VReg(0))));
            f.block_mut(entry)
                .insts
                .push(Inst::effect(Op::MonitorEnter(VReg(0))));
        }
        f.block_mut(entry).term = Term::Jump(pc_block[0]);
        f.block_mut(entry).freq = prof.invocations;
    }

    // 2. Translate each bytecode block.
    for (li, &start) in leader_list.iter().enumerate() {
        let end = leader_list.get(li + 1).copied().unwrap_or(m.code.len());
        let bid = pc_block[start];
        let mut fell_through = true;
        for pc in start..end {
            let instr = &m.code[pc];
            match instr {
                Instr::Const { dst, value } => {
                    f.block_mut(bid)
                        .insts
                        .push(Inst::with_dst(var(*dst), Op::Const(*value)));
                }
                Instr::ConstNull { dst } => {
                    f.block_mut(bid)
                        .insts
                        .push(Inst::with_dst(var(*dst), Op::ConstNull));
                }
                Instr::Move { dst, src } => {
                    f.block_mut(bid)
                        .insts
                        .push(Inst::with_dst(var(*dst), Op::Copy(var(*src))));
                }
                Instr::Bin { op, dst, a, b } => {
                    if matches!(op, BinOp::Div | BinOp::Rem) {
                        f.block_mut(bid)
                            .insts
                            .push(Inst::effect(Op::DivCheck(var(*b))));
                    }
                    f.block_mut(bid)
                        .insts
                        .push(Inst::with_dst(var(*dst), Op::Bin(*op, var(*a), var(*b))));
                }
                Instr::Cmp { op, dst, a, b } => {
                    f.block_mut(bid)
                        .insts
                        .push(Inst::with_dst(var(*dst), Op::Cmp(*op, var(*a), var(*b))));
                }
                Instr::Branch { op, a, b, target } => {
                    let (t_count, f_count) = prof.branch_counts(pc);
                    f.block_mut(bid).term = Term::Branch {
                        op: *op,
                        a: var(*a),
                        b: var(*b),
                        t: pc_block[*target],
                        f: pc_block[pc + 1],
                        t_count,
                        f_count,
                    };
                    fell_through = false;
                }
                Instr::Jump { target } => {
                    f.block_mut(bid).term = Term::Jump(pc_block[*target]);
                    fell_through = false;
                }
                Instr::Switch {
                    src,
                    targets,
                    default,
                } => {
                    let counts = prof
                        .switches
                        .get(&pc)
                        .cloned()
                        .unwrap_or_else(|| vec![0; targets.len() + 1]);
                    f.block_mut(bid).term = Term::Switch {
                        sel: var(*src),
                        targets: targets
                            .iter()
                            .zip(&counts)
                            .map(|(t, c)| (pc_block[*t], *c))
                            .collect(),
                        default: (pc_block[*default], counts[targets.len()]),
                    };
                    fell_through = false;
                }
                Instr::New { dst, class } => {
                    f.block_mut(bid)
                        .insts
                        .push(Inst::with_dst(var(*dst), Op::New(*class)));
                }
                Instr::NewArray { dst, len } => {
                    f.block_mut(bid)
                        .insts
                        .push(Inst::with_dst(var(*dst), Op::NewArray(var(*len))));
                }
                Instr::GetField { dst, obj, field } => {
                    f.block_mut(bid)
                        .insts
                        .push(Inst::effect(Op::NullCheck(var(*obj))));
                    f.block_mut(bid).insts.push(Inst::with_dst(
                        var(*dst),
                        Op::LoadField {
                            obj: var(*obj),
                            field: *field,
                        },
                    ));
                }
                Instr::PutField { obj, field, src } => {
                    f.block_mut(bid)
                        .insts
                        .push(Inst::effect(Op::NullCheck(var(*obj))));
                    f.block_mut(bid).insts.push(Inst::effect(Op::StoreField {
                        obj: var(*obj),
                        field: *field,
                        val: var(*src),
                    }));
                }
                Instr::ALoad { dst, arr, idx } => {
                    let len = f.vreg();
                    let b = f.block_mut(bid);
                    b.insts.push(Inst::effect(Op::NullCheck(var(*arr))));
                    b.insts.push(Inst::with_dst(len, Op::ArrayLen(var(*arr))));
                    b.insts.push(Inst::effect(Op::BoundsCheck {
                        len,
                        idx: var(*idx),
                    }));
                    b.insts.push(Inst::with_dst(
                        var(*dst),
                        Op::LoadElem {
                            arr: var(*arr),
                            idx: var(*idx),
                        },
                    ));
                }
                Instr::AStore { arr, idx, src } => {
                    let len = f.vreg();
                    let b = f.block_mut(bid);
                    b.insts.push(Inst::effect(Op::NullCheck(var(*arr))));
                    b.insts.push(Inst::with_dst(len, Op::ArrayLen(var(*arr))));
                    b.insts.push(Inst::effect(Op::BoundsCheck {
                        len,
                        idx: var(*idx),
                    }));
                    b.insts.push(Inst::effect(Op::StoreElem {
                        arr: var(*arr),
                        idx: var(*idx),
                        val: var(*src),
                    }));
                }
                Instr::ArrayLen { dst, arr } => {
                    f.block_mut(bid)
                        .insts
                        .push(Inst::effect(Op::NullCheck(var(*arr))));
                    f.block_mut(bid)
                        .insts
                        .push(Inst::with_dst(var(*dst), Op::ArrayLen(var(*arr))));
                }
                Instr::Call { dst, method, args } => {
                    let argv = args.iter().map(|r| var(*r)).collect();
                    f.block_mut(bid).insts.push(Inst {
                        dst: dst.map(var),
                        op: Op::Call {
                            method: *method,
                            args: argv,
                        },
                    });
                }
                Instr::CallVirtual {
                    dst,
                    slot,
                    recv,
                    args,
                } => {
                    f.block_mut(bid)
                        .insts
                        .push(Inst::effect(Op::NullCheck(var(*recv))));
                    let argv = args.iter().map(|r| var(*r)).collect();
                    f.block_mut(bid).insts.push(Inst {
                        dst: dst.map(var),
                        op: Op::CallVirtual {
                            slot: *slot,
                            recv: var(*recv),
                            args: argv,
                            site: pc as u32,
                        },
                    });
                }
                Instr::Return { src } => {
                    if m.synchronized {
                        f.block_mut(bid)
                            .insts
                            .push(Inst::effect(Op::MonitorExit(VReg(0))));
                    }
                    f.block_mut(bid).term = Term::Return(src.map(var));
                    fell_through = false;
                }
                Instr::MonitorEnter { obj } => {
                    f.block_mut(bid)
                        .insts
                        .push(Inst::effect(Op::NullCheck(var(*obj))));
                    f.block_mut(bid)
                        .insts
                        .push(Inst::effect(Op::MonitorEnter(var(*obj))));
                }
                Instr::MonitorExit { obj } => {
                    f.block_mut(bid)
                        .insts
                        .push(Inst::effect(Op::NullCheck(var(*obj))));
                    f.block_mut(bid)
                        .insts
                        .push(Inst::effect(Op::MonitorExit(var(*obj))));
                }
                Instr::InstanceOf { dst, obj, class } => {
                    f.block_mut(bid).insts.push(Inst::with_dst(
                        var(*dst),
                        Op::InstanceOf {
                            obj: var(*obj),
                            class: *class,
                        },
                    ));
                }
                Instr::CheckCast { obj, class } => {
                    f.block_mut(bid).insts.push(Inst::effect(Op::CastCheck {
                        obj: var(*obj),
                        class: *class,
                    }));
                }
                Instr::Safepoint => {
                    f.block_mut(bid).insts.push(Inst::effect(Op::Safepoint));
                }
                Instr::Intrin { kind, dst, args } => {
                    let argv = args.iter().map(|r| var(*r)).collect();
                    f.block_mut(bid).insts.push(Inst {
                        dst: dst.map(var),
                        op: Op::Intrin {
                            kind: *kind,
                            args: argv,
                        },
                    });
                }
                Instr::Marker { id } => {
                    f.block_mut(bid).insts.push(Inst::effect(Op::Marker(*id)));
                }
            }
        }
        if fell_through {
            // The bytecode builder guarantees the method cannot fall off the
            // end, so `end` is a valid leader here.
            f.block_mut(bid).term = Term::Jump(pc_block[end]);
        }
    }

    ssa::construct(&mut f, u32::from(m.regs));
    f.remove_unreachable();
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use hasp_vm::builder::ProgramBuilder;
    use hasp_vm::bytecode::{BinOp, CmpOp};
    use hasp_vm::interp::Interp;

    fn sum_loop_program() -> (Program, MethodId) {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.method("main", 0);
        let sum = m.imm(0);
        let i = m.imm(0);
        let n = m.imm(50);
        let one = m.imm(1);
        let head = m.new_label();
        let exit = m.new_label();
        m.bind(head);
        m.branch(CmpOp::Ge, i, n, exit);
        m.bin(BinOp::Add, sum, sum, i);
        m.bin(BinOp::Add, i, i, one);
        m.jump(head);
        m.bind(exit);
        m.checksum(sum);
        m.ret(Some(sum));
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);
        (p, entry)
    }

    #[test]
    fn loop_translates_to_valid_ssa() {
        let (p, entry) = sum_loop_program();
        let mut interp = Interp::new(&p).with_profiling();
        interp.run(&[]).unwrap();
        let prof = interp.profile.method(entry).cloned();
        let f = translate(&p, entry, prof.as_ref());
        verify::verify(&f).expect("valid SSA");
        // The loop header must contain phis for sum and i.
        let has_phi = f
            .block_ids()
            .iter()
            .any(|b| f.block(*b).insts.iter().any(|i| matches!(i.op, Op::Phi(_))));
        assert!(
            has_phi,
            "loop-carried variables need phis:\n{}",
            f.display()
        );
        // Branch profile carried over: not-taken 50, taken 1.
        let found = f.block_ids().iter().any(|b| {
            matches!(
                f.block(*b).term,
                Term::Branch {
                    t_count: 1,
                    f_count: 50,
                    ..
                }
            )
        });
        assert!(found, "profile counts attached:\n{}", f.display());
    }

    #[test]
    fn field_access_decomposes_checks() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, &["f"]);
        let fld = pb.field(c, "f");
        let mut m = pb.method("main", 0);
        let o = m.reg();
        m.new_obj(o, c);
        let v = m.reg();
        m.get_field(v, o, fld);
        m.get_field(v, o, fld);
        m.ret(Some(v));
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);
        let f = translate(&p, entry, None);
        verify::verify(&f).unwrap();
        let n_checks: usize = f
            .block_ids()
            .iter()
            .map(|b| {
                f.block(*b)
                    .insts
                    .iter()
                    .filter(|i| matches!(i.op, Op::NullCheck(_)))
                    .count()
            })
            .sum();
        assert_eq!(
            n_checks, 2,
            "each GetField carries its own NullCheck pre-GVN"
        );
    }

    #[test]
    fn array_access_decomposes_to_four_ops() {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.method("main", 0);
        let len = m.imm(8);
        let a = m.reg();
        m.new_array(a, len);
        let idx = m.imm(3);
        let v = m.reg();
        m.aload(v, a, idx);
        m.ret(Some(v));
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);
        let f = translate(&p, entry, None);
        verify::verify(&f).unwrap();
        let ops: Vec<String> = f
            .block_ids()
            .iter()
            .flat_map(|b| f.block(*b).insts.iter().map(|i| format!("{:?}", i.op)))
            .collect();
        let joined = ops.join(" ");
        assert!(joined.contains("NullCheck"));
        assert!(joined.contains("ArrayLen"));
        assert!(joined.contains("BoundsCheck"));
        assert!(joined.contains("LoadElem"));
    }

    #[test]
    fn synchronized_method_brackets_monitor() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, &[]);
        let _ = c;
        let mut s = pb.method("sync", 1);
        s.set_synchronized();
        s.ret(Some(s.arg(0)));
        let mid = s.finish(&mut pb);
        let mut m = pb.method("main", 0);
        m.ret(None);
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);
        let f = translate(&p, mid, None);
        verify::verify(&f).unwrap();
        let all: Vec<String> = f
            .block_ids()
            .iter()
            .flat_map(|b| f.block(*b).insts.iter().map(|i| format!("{:?}", i.op)))
            .collect();
        let joined = all.join(" ");
        assert!(joined.contains("MonitorEnter"));
        assert!(joined.contains("MonitorExit"));
    }
}
