//! Lowering optimized IR to machine uops.
//!
//! * SSA phis become parallel move sequences on incoming edges (critical
//!   edges get out-of-line move stubs).
//! * Asserts become a conditional branch to an out-of-line `aregion_abort`
//!   (exactly Figure 4's code shape).
//! * Monitor operations expand into the reservation-lock fast path — load,
//!   compare, branch, store (§4: "even the fastest path must still check the
//!   status of the lock and update it with a store"); the SLE check expands
//!   to just load + compare + branch with no store.
//! * `aregion_begin <alt>` carries the non-speculative code's address.

use std::collections::HashMap;

use hasp_ir::{AssertKind, BlockId, Func, Op, Term, VReg};
use hasp_vm::bytecode::{BinOp, CmpOp, Intrinsic};
use hasp_vm::interp::MUTATOR_THREAD;

use crate::uop::{CompiledCode, MReg, Uop};

/// Lowers an optimized function to machine code.
pub fn lower(f: &Func) -> CompiledCode {
    Lowering::new(f).run()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Label {
    Block(BlockId),
    Stub(usize),
    /// An absolute position in the main uop stream (used by monitor/SLE
    /// slow-path stubs that resume right after their fast path).
    Pos(usize),
}

struct Stub {
    uops: Vec<Uop>,
    /// Where the stub jumps when it completes (`None` = the stub ends in an
    /// Abort/terminal uop). Filled in after the fast path is emitted for
    /// resume-style stubs.
    cont: Option<Label>,
}

struct Lowering<'f> {
    f: &'f Func,
    uops: Vec<Uop>,
    patches: Vec<(usize, usize, Label)>, // (uop index, operand slot, label)
    stubs: Vec<Stub>,
    stub_patches: Vec<(usize, usize, usize, Label)>, // (stub, uop, slot, label)
    next_reg: u32,
    order: Vec<BlockId>,
    /// Deduplicated edge-move stubs.
    edge_stubs: HashMap<(BlockId, BlockId), Label>,
}

impl<'f> Lowering<'f> {
    fn new(f: &'f Func) -> Self {
        Lowering {
            f,
            uops: Vec::new(),
            patches: Vec::new(),
            stubs: Vec::new(),
            stub_patches: Vec::new(),
            next_reg: f.vreg_count(),
            order: f.rpo(),
            edge_stubs: HashMap::new(),
        }
    }

    fn temp(&mut self) -> MReg {
        let r = MReg(self.next_reg);
        self.next_reg += 1;
        r
    }

    fn run(mut self) -> CompiledCode {
        let order = self.order.clone();
        let mut block_pos: HashMap<BlockId, usize> = HashMap::new();
        for (i, &b) in order.iter().enumerate() {
            block_pos.insert(b, self.uops.len());
            self.emit_block(b, order.get(i + 1).copied());
        }
        // Stubs (including any created while emitting earlier stubs).
        let mut stub_pos: Vec<usize> = Vec::new();
        let mut si = 0;
        while si < self.stubs.len() {
            stub_pos.push(self.uops.len());
            let stub = std::mem::replace(
                &mut self.stubs[si],
                Stub {
                    uops: vec![],
                    cont: None,
                },
            );
            let base = self.uops.len();
            let n = stub.uops.len();
            self.uops.extend(stub.uops);
            // Re-register this stub's internal patches at their final spots.
            let pending: Vec<_> = self
                .stub_patches
                .iter()
                .filter(|(s, _, _, _)| *s == si)
                .cloned()
                .collect();
            for (_, u, slot, label) in pending {
                debug_assert!(u < n);
                self.patches.push((base + u, slot, label));
            }
            if let Some(cont) = stub.cont {
                let at = self.uops.len();
                self.uops.push(Uop::Jmp { target: usize::MAX });
                self.patches.push((at, 0, cont));
            }
            si += 1;
        }
        // Patch.
        let resolve = |l: Label| -> usize {
            match l {
                Label::Block(b) => *block_pos
                    .get(&b)
                    .unwrap_or_else(|| panic!("unlaid block {b} in {}", self.f.name)),
                Label::Stub(s) => stub_pos[s],
                Label::Pos(p) => p,
            }
        };
        for (idx, slot, label) in std::mem::take(&mut self.patches) {
            let pos = resolve(label);
            match &mut self.uops[idx] {
                Uop::Jmp { target } | Uop::Br { target, .. } => *target = pos,
                Uop::JmpInd { table, default, .. } => {
                    if slot < table.len() {
                        table[slot] = pos;
                    } else {
                        *default = pos;
                    }
                }
                Uop::RegionBegin { alt, .. } => *alt = pos,
                other => panic!("patch on {other:?}"),
            }
        }
        debug_assert!(self.uops.iter().all(|u| match u {
            Uop::Jmp { target } | Uop::Br { target, .. } => *target != usize::MAX,
            Uop::JmpInd { table, default, .. } =>
                table.iter().all(|t| *t != usize::MAX) && *default != usize::MAX,
            Uop::RegionBegin { alt, .. } => *alt != usize::MAX,
            _ => true,
        }));

        CompiledCode {
            name: self.f.name.clone(),
            uops: self.uops,
            regs: self.next_reg,
            // The abort target is the original (pre-replication) boundary
            // block — the region's stable identity across recompiles,
            // which re-formation requests name.
            region_boundaries: self.f.regions.iter().map(|r| r.abort_target.0).collect(),
            // Sealed (superblock index built) at `CodeCache::install`.
            blocks: Vec::new(),
            region_writes: Default::default(),
        }
    }

    fn emit(&mut self, u: Uop) {
        self.uops.push(u);
    }

    fn emit_jmp(&mut self, label: Label, next: Option<BlockId>) {
        if let (Label::Block(b), Some(n)) = (label, next) {
            if b == n {
                return; // fallthrough
            }
        }
        let at = self.uops.len();
        self.emit(Uop::Jmp { target: usize::MAX });
        self.patches.push((at, 0, label));
    }

    fn emit_br(&mut self, op: CmpOp, a: MReg, b: MReg, label: Label) {
        let at = self.uops.len();
        self.emit(Uop::Br {
            op,
            a,
            b,
            target: usize::MAX,
        });
        self.patches.push((at, 0, label));
    }

    /// The label for edge `p -> t`, inserting a parallel-move stub when `t`
    /// has phis.
    fn edge(&mut self, p: BlockId, t: BlockId) -> Label {
        if let Some(&l) = self.edge_stubs.get(&(p, t)) {
            return l;
        }
        let moves = self.phi_moves(p, t);
        let label = if moves.is_empty() {
            Label::Block(t)
        } else {
            let seq = self.sequentialize(moves);
            let uops = seq
                .into_iter()
                .map(|(dst, src)| Uop::Mov { dst, src })
                .collect();
            self.stubs.push(Stub {
                uops,
                cont: Some(Label::Block(t)),
            });
            Label::Stub(self.stubs.len() - 1)
        };
        self.edge_stubs.insert((p, t), label);
        label
    }

    /// (dst, src) pairs the edge `p -> t` must perform (phi semantics).
    fn phi_moves(&self, p: BlockId, t: BlockId) -> Vec<(MReg, MReg)> {
        let mut moves = Vec::new();
        for inst in self.f.block(t).phis() {
            if let Op::Phi(ins) = &inst.op {
                let src = ins
                    .iter()
                    .find(|(pb, _)| *pb == p)
                    .map(|(_, v)| *v)
                    .unwrap_or_else(|| {
                        panic!("phi in {t} lacks input for pred {p} in {}", self.f.name)
                    });
                let dst = inst.dst.expect("phi defines a value");
                if mreg(dst) != mreg(src) {
                    moves.push((mreg(dst), mreg(src)));
                }
            }
        }
        moves
    }

    /// Orders parallel moves so no source is clobbered before it is read;
    /// cycles are broken with a temporary.
    fn sequentialize(&mut self, mut moves: Vec<(MReg, MReg)>) -> Vec<(MReg, MReg)> {
        let mut out = Vec::new();
        while !moves.is_empty() {
            // A move whose destination is not a pending source is safe.
            if let Some(i) = moves
                .iter()
                .position(|(d, _)| !moves.iter().any(|(_, s)| s == d))
            {
                out.push(moves.remove(i));
                continue;
            }
            // Cycle: rotate through a temp.
            let (d0, s0) = moves[0];
            let t = self.temp();
            out.push((t, d0));
            // Any move reading d0 now reads t.
            for (_, s) in moves.iter_mut() {
                if *s == d0 {
                    *s = t;
                }
            }
            let _ = s0;
        }
        out
    }

    fn emit_block(&mut self, b: BlockId, next: Option<BlockId>) {
        let blk = self.f.block(b);
        let phi_count = blk.phi_count();
        let insts: Vec<_> = blk.insts[phi_count..].to_vec();
        for inst in &insts {
            self.emit_inst(inst);
        }
        match blk.term.clone() {
            Term::Jump(t) => {
                // Inline any phi moves directly (not a critical edge).
                let moves = self.phi_moves(b, t);
                let seq = self.sequentialize(moves);
                for (dst, src) in seq {
                    self.emit(Uop::Mov { dst, src });
                }
                self.emit_jmp(Label::Block(t), next);
            }
            Term::Branch {
                op,
                a,
                b: y,
                t,
                f: fb,
                ..
            } => {
                let lt = self.edge(b, t);
                self.emit_br(op, mreg(a), mreg(y), lt);
                let lf = self.edge(b, fb);
                self.emit_jmp(lf, next);
            }
            Term::Switch {
                sel,
                targets,
                default,
            } => {
                let labels: Vec<Label> = targets.iter().map(|(t, _)| self.edge(b, *t)).collect();
                let dl = self.edge(b, default.0);
                let at = self.uops.len();
                self.emit(Uop::JmpInd {
                    sel: mreg(sel),
                    table: vec![usize::MAX; labels.len()].into(),
                    default: usize::MAX,
                });
                for (slot, l) in labels.into_iter().enumerate() {
                    self.patches.push((at, slot, l));
                }
                let nslots = match &self.uops[at] {
                    Uop::JmpInd { table, .. } => table.len(),
                    _ => unreachable!(),
                };
                self.patches.push((at, nslots, dl));
            }
            Term::Return(v) => {
                self.emit(Uop::Ret { src: v.map(mreg) });
            }
            Term::RegionBegin {
                region,
                body,
                abort,
            } => {
                debug_assert!(self.phi_moves(b, body).is_empty());
                debug_assert!(self.phi_moves(b, abort).is_empty());
                let at = self.uops.len();
                self.emit(Uop::RegionBegin {
                    region: region.0,
                    alt: usize::MAX,
                });
                self.patches.push((at, 0, Label::Block(abort)));
                self.emit_jmp(Label::Block(body), next);
            }
        }
    }

    fn emit_inst(&mut self, inst: &hasp_ir::Inst) {
        let d = inst.dst.map(mreg);
        match &inst.op {
            Op::Const(c) => self.emit(Uop::Const {
                dst: d.unwrap(),
                imm: *c,
            }),
            Op::ConstNull => self.emit(Uop::ConstNull { dst: d.unwrap() }),
            Op::Copy(v) => self.emit(Uop::Mov {
                dst: d.unwrap(),
                src: mreg(*v),
            }),
            Op::Phi(_) => unreachable!("phis lowered as edge moves"),
            Op::Bin(op, a, b) => self.emit(Uop::Alu {
                op: *op,
                dst: d.unwrap(),
                a: mreg(*a),
                b: mreg(*b),
            }),
            Op::Cmp(op, a, b) => self.emit(Uop::CmpSet {
                op: *op,
                dst: d.unwrap(),
                a: mreg(*a),
                b: mreg(*b),
            }),
            Op::NullCheck(v) => self.emit(Uop::CheckNull { v: mreg(*v) }),
            Op::BoundsCheck { len, idx } => self.emit(Uop::CheckBounds {
                len: mreg(*len),
                idx: mreg(*idx),
            }),
            Op::DivCheck(v) => self.emit(Uop::CheckDiv { v: mreg(*v) }),
            Op::CastCheck { obj, class } => self.emit(Uop::CheckCast {
                obj: mreg(*obj),
                class: *class,
            }),
            Op::New(class) => self.emit(Uop::AllocObj {
                dst: d.unwrap(),
                class: *class,
            }),
            Op::NewArray(len) => self.emit(Uop::AllocArr {
                dst: d.unwrap(),
                len: mreg(*len),
            }),
            Op::LoadField { obj, field } => self.emit(Uop::LoadField {
                dst: d.unwrap(),
                obj: mreg(*obj),
                field: field.0,
            }),
            Op::StoreField { obj, field, val } => self.emit(Uop::StoreField {
                obj: mreg(*obj),
                field: field.0,
                src: mreg(*val),
            }),
            Op::LoadElem { arr, idx } => self.emit(Uop::LoadElem {
                dst: d.unwrap(),
                arr: mreg(*arr),
                idx: mreg(*idx),
            }),
            Op::StoreElem { arr, idx, val } => self.emit(Uop::StoreElem {
                arr: mreg(*arr),
                idx: mreg(*idx),
                src: mreg(*val),
            }),
            Op::ArrayLen(arr) => self.emit(Uop::LoadLen {
                dst: d.unwrap(),
                arr: mreg(*arr),
            }),
            Op::LoadClass(obj) => self.emit(Uop::LoadClass {
                dst: d.unwrap(),
                obj: mreg(*obj),
            }),
            Op::InstanceOf { obj, class } => self.emit(Uop::InstOf {
                dst: d.unwrap(),
                obj: mreg(*obj),
                class: *class,
            }),
            Op::Call { method, args } => self.emit(Uop::Call {
                dst: d,
                target: *method,
                args: args.iter().map(|a| mreg(*a)).collect(),
            }),
            Op::CallVirtual {
                slot, recv, args, ..
            } => self.emit(Uop::CallVirt {
                dst: d,
                slot: *slot,
                recv: mreg(*recv),
                args: args.iter().map(|a| mreg(*a)).collect(),
            }),
            Op::MonitorEnter(obj) => self.emit_monitor_enter(mreg(*obj)),
            Op::MonitorExit(obj) => self.emit_monitor_exit(mreg(*obj)),
            Op::SleCheck(obj) => self.emit_sle_check(mreg(*obj)),
            Op::Safepoint => self.emit(Uop::Poll),
            Op::Intrin { kind, args } => match kind {
                Intrinsic::YieldFlag => {
                    self.emit(Uop::Poll);
                    if let Some(dst) = d {
                        self.emit(Uop::Const { dst, imm: 0 });
                    }
                }
                k => self.emit(Uop::Intrin {
                    kind: *k,
                    dst: d,
                    args: args.iter().map(|a| mreg(*a)).collect(),
                }),
            },
            Op::Marker(id) => self.emit(Uop::Marker { id: *id }),
            Op::Assert { kind, id } => self.emit_assert(kind, id.0),
            Op::RegionEnd(r) => self.emit(Uop::RegionEnd { region: r.0 }),
        }
    }

    /// Conditional branch to an out-of-line unconditional abort (Figure 4).
    fn emit_assert(&mut self, kind: &AssertKind, id: u32) {
        let abort = {
            self.stubs.push(Stub {
                uops: vec![Uop::Abort { assert_id: id }],
                cont: None,
            });
            Label::Stub(self.stubs.len() - 1)
        };
        match kind {
            AssertKind::Cmp { op, a, b } => self.emit_br(*op, mreg(*a), mreg(*b), abort),
            AssertKind::Null(v) => {
                let n = self.temp();
                self.emit(Uop::ConstNull { dst: n });
                self.emit_br(CmpOp::Eq, mreg(*v), n, abort);
            }
            AssertKind::ClassNe { obj, class } => {
                let cls = self.temp();
                self.emit(Uop::LoadClass {
                    dst: cls,
                    obj: mreg(*obj),
                });
                let k = self.temp();
                self.emit(Uop::Const {
                    dst: k,
                    imm: i64::from(class.0),
                });
                self.emit_br(CmpOp::Ne, cls, k, abort);
            }
            AssertKind::LockHeld(v) => {
                // Same shape as the SLE check but with an explicit assert id.
                let t = self.temp();
                self.emit(Uop::LoadLock {
                    dst: t,
                    obj: mreg(*v),
                });
                let z = self.temp();
                self.emit(Uop::Const { dst: z, imm: 0 });
                self.emit_br(CmpOp::Ne, t, z, abort);
            }
            AssertKind::IntNe { sel, expected } => {
                let k = self.temp();
                self.emit(Uop::Const {
                    dst: k,
                    imm: *expected,
                });
                self.emit_br(CmpOp::Ne, mreg(*sel), k, abort);
            }
        }
    }

    /// Reservation-lock fast path: 5 uops when the lock is free.
    fn emit_monitor_enter(&mut self, obj: MReg) {
        let t = self.temp();
        self.emit(Uop::LoadLock { dst: t, obj });
        let z = self.temp();
        self.emit(Uop::Const { dst: z, imm: 0 });
        // Slow path: recursive acquire (owner must be us).
        let (n2, c32, ow, tid, one) = (
            self.temp(),
            self.temp(),
            self.temp(),
            self.temp(),
            self.temp(),
        );
        let slow_uops = vec![
            Uop::Const { dst: c32, imm: 32 },
            Uop::Alu {
                op: BinOp::Shr,
                dst: ow,
                a: t,
                b: c32,
            },
            Uop::Const {
                dst: tid,
                imm: MUTATOR_THREAD,
            },
            Uop::Br {
                op: CmpOp::Ne,
                a: ow,
                b: tid,
                target: usize::MAX,
            },
            Uop::Const { dst: one, imm: 1 },
            Uop::Alu {
                op: BinOp::Add,
                dst: n2,
                a: t,
                b: one,
            },
            Uop::StoreLock { obj, src: n2 },
        ];
        // The contention branch inside the stub targets an Unreachable stub.
        self.stubs.push(Stub {
            uops: vec![Uop::Unreachable {
                why: "monitor contention in single-mutator sim",
            }],
            cont: None,
        });
        let contend = self.stubs.len() - 1;
        self.stubs.push(Stub {
            uops: slow_uops,
            cont: None,
        });
        let slow = self.stubs.len() - 1;
        self.stub_patches.push((slow, 3, 0, Label::Stub(contend)));
        // Fast path continues inline.
        self.emit_br(CmpOp::Ne, t, z, Label::Stub(slow));
        let n1 = self.temp();
        self.emit(Uop::Const {
            dst: n1,
            imm: (MUTATOR_THREAD << 32) | 1,
        });
        self.emit(Uop::StoreLock { obj, src: n1 });
        // The slow stub resumes right after the fast path.
        self.fixup_stub_cont(slow);
    }

    /// Reservation-lock release: 5 uops when un-nested.
    fn emit_monitor_exit(&mut self, obj: MReg) {
        let t = self.temp();
        self.emit(Uop::LoadLock { dst: t, obj });
        let k1 = self.temp();
        self.emit(Uop::Const {
            dst: k1,
            imm: (MUTATOR_THREAD << 32) | 1,
        });
        let (one, n) = (self.temp(), self.temp());
        let nested_uops = vec![
            Uop::Const { dst: one, imm: 1 },
            Uop::Alu {
                op: BinOp::Sub,
                dst: n,
                a: t,
                b: one,
            },
            Uop::StoreLock { obj, src: n },
        ];
        self.stubs.push(Stub {
            uops: nested_uops,
            cont: None,
        });
        let nested = self.stubs.len() - 1;
        self.emit_br(CmpOp::Ne, t, k1, Label::Stub(nested));
        let z = self.temp();
        self.emit(Uop::Const { dst: z, imm: 0 });
        self.emit(Uop::StoreLock { obj, src: z });
        self.fixup_stub_cont(nested);
    }

    /// SLE-elided monitor entry: load + compare + branch, no store (§4).
    fn emit_sle_check(&mut self, obj: MReg) {
        let t = self.temp();
        self.emit(Uop::LoadLock { dst: t, obj });
        let z = self.temp();
        self.emit(Uop::Const { dst: z, imm: 0 });
        // Cold: lock word nonzero — abort unless it is our own reservation.
        let (c32, ow, tid) = (self.temp(), self.temp(), self.temp());
        self.stubs.push(Stub {
            uops: vec![Uop::Abort {
                assert_id: u32::MAX,
            }],
            cont: None,
        });
        let abort = self.stubs.len() - 1;
        let cold_uops = vec![
            Uop::Const { dst: c32, imm: 32 },
            Uop::Alu {
                op: BinOp::Shr,
                dst: ow,
                a: t,
                b: c32,
            },
            Uop::Const {
                dst: tid,
                imm: MUTATOR_THREAD,
            },
            Uop::Br {
                op: CmpOp::Ne,
                a: ow,
                b: tid,
                target: usize::MAX,
            },
        ];
        self.stubs.push(Stub {
            uops: cold_uops,
            cont: None,
        });
        let cold = self.stubs.len() - 1;
        self.stub_patches.push((cold, 3, 0, Label::Stub(abort)));
        self.emit_br(CmpOp::Ne, t, z, Label::Stub(cold));
        self.fixup_stub_cont(cold);
    }

    /// Points a resume-style stub's continuation at the current position in
    /// the main stream (the uop right after the fast path).
    fn fixup_stub_cont(&mut self, stub: usize) {
        self.stubs[stub].cont = Some(Label::Pos(self.uops.len()));
    }
}

fn mreg(v: VReg) -> MReg {
    MReg(v.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_ir::{Inst, RegionId, RegionInfo};
    use hasp_vm::bytecode::MethodId;

    fn count(code: &CompiledCode, pred: impl Fn(&Uop) -> bool) -> usize {
        code.uops.iter().filter(|u| pred(u)).count()
    }

    #[test]
    fn straightline_lowering_shapes() {
        let mut f = Func::new("t", MethodId(0), 2);
        let (a, b) = (VReg(0), VReg(1));
        let c = f.vreg();
        let e = f.block_mut(f.entry);
        e.insts.push(Inst::with_dst(c, Op::Bin(BinOp::Add, a, b)));
        e.insts.push(Inst::effect(Op::NullCheck(a)));
        e.term = Term::Return(Some(c));
        let code = lower(&f);
        assert!(matches!(code.uops[0], Uop::Alu { op: BinOp::Add, .. }));
        assert!(matches!(code.uops[1], Uop::CheckNull { .. }));
        assert!(matches!(code.uops[2], Uop::Ret { .. }));
    }

    #[test]
    fn monitor_fast_paths_have_paper_cost() {
        // Enter: load, const, branch, const, store = 5 uops on the fast
        // path; exit likewise; SLE check: load, const, branch = 3.
        let mut f = Func::new("t", MethodId(0), 1);
        let lock = VReg(0);
        f.block_mut(f.entry)
            .insts
            .push(Inst::effect(Op::MonitorEnter(lock)));
        f.block_mut(f.entry).term = Term::Return(None);
        let enter = lower(&f);
        // Fast path = uops before the Ret, excluding out-of-line stubs.
        let ret_at = enter
            .uops
            .iter()
            .position(|u| matches!(u, Uop::Ret { .. }))
            .unwrap();
        assert_eq!(ret_at, 5, "{:?}", &enter.uops[..ret_at]);

        let mut g = Func::new("t2", MethodId(0), 1);
        g.block_mut(g.entry)
            .insts
            .push(Inst::effect(Op::MonitorExit(lock)));
        g.block_mut(g.entry).term = Term::Return(None);
        let exit = lower(&g);
        let ret_at = exit
            .uops
            .iter()
            .position(|u| matches!(u, Uop::Ret { .. }))
            .unwrap();
        assert_eq!(ret_at, 5, "{:?}", &exit.uops[..ret_at]);

        let mut h = Func::new("t3", MethodId(0), 1);
        let exit_b = h.add_block(Term::Return(None));
        let body = h.add_block(Term::Jump(exit_b));
        let abort = h.add_block(Term::Jump(exit_b));
        let r = h.new_region(RegionInfo {
            begin: h.entry,
            abort_target: abort,
            size_estimate: 2,
        });
        h.block_mut(h.entry).term = Term::RegionBegin {
            region: r,
            body,
            abort,
        };
        h.block_mut(body).region = Some(r);
        h.block_mut(body)
            .insts
            .push(Inst::effect(Op::SleCheck(lock)));
        h.block_mut(body).insts.push(Inst::effect(Op::RegionEnd(r)));
        let sle = lower(&h);
        // Body layout: RegionBegin, (jump), LoadLock, Const, Br, RegionEnd...
        let begin_at = sle
            .uops
            .iter()
            .position(|u| matches!(u, Uop::RegionBegin { .. }))
            .unwrap();
        let end_at = sle
            .uops
            .iter()
            .position(|u| matches!(u, Uop::RegionEnd { .. }))
            .unwrap();
        let fast: Vec<&Uop> = sle.uops[begin_at + 1..end_at]
            .iter()
            .filter(|u| !matches!(u, Uop::Jmp { .. }))
            .collect();
        assert_eq!(
            fast.len(),
            3,
            "SLE fast path is load+const+branch: {fast:?}"
        );
    }

    #[test]
    fn assert_lowered_as_branch_to_abort_stub() {
        let mut f = Func::new("t", MethodId(0), 2);
        let (a, b) = (VReg(0), VReg(1));
        let exit = f.add_block(Term::Return(None));
        let body = f.add_block(Term::Jump(exit));
        let abort = f.add_block(Term::Jump(exit));
        let r = f.new_region(RegionInfo {
            begin: f.entry,
            abort_target: abort,
            size_estimate: 2,
        });
        f.block_mut(f.entry).term = Term::RegionBegin {
            region: r,
            body,
            abort,
        };
        f.block_mut(body).region = Some(r);
        let id = f.new_assert(RegionId(0), "test");
        f.block_mut(body).insts.push(Inst::effect(Op::Assert {
            kind: AssertKind::Cmp {
                op: CmpOp::Ge,
                a,
                b,
            },
            id,
        }));
        f.block_mut(body).insts.push(Inst::effect(Op::RegionEnd(r)));
        let code = lower(&f);
        // A conditional branch targets an unconditional Abort (Figure 4).
        let abort_at = code
            .uops
            .iter()
            .position(|u| matches!(u, Uop::Abort { assert_id: 0 }))
            .expect("abort stub");
        let feeds_abort = code
            .uops
            .iter()
            .any(|u| matches!(u, Uop::Br { target, .. } if *target == abort_at));
        assert!(feeds_abort, "{:?}", code.uops);
    }

    #[test]
    fn phi_cycle_gets_temp_move() {
        // swap: x,y = y,x around a loop — the parallel move needs a temp.
        let mut f = Func::new("t", MethodId(0), 2);
        let (a, b) = (VReg(0), VReg(1));
        let exit = f.add_block(Term::Return(Some(a)));
        let head = f.add_block(Term::Return(None));
        let x = f.vreg();
        let y = f.vreg();
        f.block_mut(f.entry).term = Term::Jump(head);
        let entry = f.entry;
        f.block_mut(head)
            .insts
            .push(Inst::with_dst(x, Op::Phi(vec![(entry, a), (head, y)])));
        f.block_mut(head)
            .insts
            .push(Inst::with_dst(y, Op::Phi(vec![(entry, b), (head, x)])));
        f.block_mut(head).term = Term::Branch {
            op: CmpOp::Lt,
            a: x,
            b: y,
            t: head,
            f: exit,
            t_count: 5,
            f_count: 1,
        };
        let code = lower(&f);
        // The back-edge move set {x<-y, y<-x} is cyclic: at least 3 moves.
        let moves = count(&code, |u| matches!(u, Uop::Mov { .. }));
        assert!(
            moves >= 3,
            "cyclic phi moves need a temporary: {:?}",
            code.uops
        );
    }

    #[test]
    fn switch_lowered_as_indirect_jump() {
        let mut f = Func::new("t", MethodId(0), 1);
        let sel = VReg(0);
        let t0 = f.add_block(Term::Return(None));
        let t1 = f.add_block(Term::Return(None));
        let d = f.add_block(Term::Return(None));
        f.block_mut(f.entry).term = Term::Switch {
            sel,
            targets: vec![(t0, 5), (t1, 5)],
            default: (d, 1),
        };
        let code = lower(&f);
        assert_eq!(count(&code, |u| matches!(u, Uop::JmpInd { .. })), 1);
    }
}
