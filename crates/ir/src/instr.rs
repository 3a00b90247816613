//! IR instructions, terminators, and operand utilities.
//!
//! The IR is an SSA, CFG-based high-level representation modeled on a JVM
//! JIT's HIR (DRLVM Jitrino in the paper). Two properties matter for the
//! reproduction:
//!
//! * Safety checks are *decomposed*: `GetField` in bytecode becomes
//!   `NullCheck` + `LoadField` here, so redundancy elimination can remove the
//!   check while keeping the access (paper §2).
//! * Asserts (conditional aborts) are plain instructions with source operands
//!   and no control-flow successors — unlike branches they "can be completely
//!   ignored when optimizing other instructions" and can be freely scheduled
//!   and value-numbered (paper §4).

use std::fmt;

use hasp_vm::bytecode::{BinOp, ClassId, CmpOp, FieldId, Intrinsic, MethodId, SlotId};

/// An SSA value (virtual register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(pub u32);

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A basic block id within a [`Func`](crate::func::Func).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Identifies an atomic region within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// Identifies an assertion; the hardware reports the failing assert's id so
/// the runtime can diagnose aborts and recompile (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AssertId(pub u32);

/// The condition of an [`Op::Assert`]: the region aborts if the condition
/// holds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AssertKind {
    /// Abort if `a <op> b`.
    Cmp {
        /// Predicate.
        op: CmpOp,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// Abort if `v` is null (speculation: expected non-null).
    Null(VReg),
    /// Abort if the dynamic class of `obj` is not exactly `class`
    /// (devirtualization guard for partially-inlined virtual calls).
    ClassNe {
        /// Receiver.
        obj: VReg,
        /// Expected exact class.
        class: ClassId,
    },
    /// Abort if the lock word of `obj` is held by another thread
    /// (speculative lock elision, paper §4).
    LockHeld(VReg),
    /// Abort if `sel != expected` (residue of converting a cold-heavy switch
    /// into compares, paper §6: "simplify an indirect branch to a
    /// conditional branch").
    IntNe {
        /// Selector value.
        sel: VReg,
        /// The only expected value.
        expected: i64,
    },
}

impl AssertKind {
    /// Operands read by the assertion.
    pub fn args(&self) -> Vec<VReg> {
        let mut v = Vec::with_capacity(2);
        self.for_each_arg(|a| v.push(a));
        v
    }

    /// Calls `f` on every operand, in order, without allocating.
    pub fn for_each_arg(&self, mut f: impl FnMut(VReg)) {
        match self {
            AssertKind::Cmp { a, b, .. } => {
                f(*a);
                f(*b);
            }
            AssertKind::Null(v) | AssertKind::LockHeld(v) => f(*v),
            AssertKind::ClassNe { obj, .. } => f(*obj),
            AssertKind::IntNe { sel, .. } => f(*sel),
        }
    }

    fn for_each_arg_mut<'a>(&'a mut self, mut f: impl FnMut(&'a mut VReg)) {
        match self {
            AssertKind::Cmp { a, b, .. } => {
                f(a);
                f(b);
            }
            AssertKind::Null(v) | AssertKind::LockHeld(v) => f(v),
            AssertKind::ClassNe { obj, .. } => f(obj),
            AssertKind::IntNe { sel, .. } => f(sel),
        }
    }
}

/// An IR operation. Instructions that produce a value carry their
/// destination in [`Inst::dst`].
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Integer constant.
    Const(i64),
    /// The null reference.
    ConstNull,
    /// SSA phi: one incoming value per predecessor block.
    Phi(Vec<(BlockId, VReg)>),
    /// Copy (inserted when leaving SSA or by pass bookkeeping).
    Copy(VReg),
    /// Binary ALU op. `Div`/`Rem` require a preceding [`Op::DivCheck`].
    Bin(BinOp, VReg, VReg),
    /// Comparison producing 0/1.
    Cmp(CmpOp, VReg, VReg),
    /// Trap (or in-region abort) if the operand is null.
    NullCheck(VReg),
    /// Trap (or in-region abort) unless `0 <= idx < len`.
    BoundsCheck {
        /// Array length operand.
        len: VReg,
        /// Index operand.
        idx: VReg,
    },
    /// Trap (or in-region abort) if the divisor is zero.
    DivCheck(VReg),
    /// Trap (or in-region abort) unless `obj` is null or an instance of
    /// `class` (checked cast).
    CastCheck {
        /// Reference being cast.
        obj: VReg,
        /// Target class.
        class: ClassId,
    },
    /// Allocate an instance.
    New(ClassId),
    /// Allocate an array of the given length.
    NewArray(VReg),
    /// Field load (null check already done separately).
    LoadField {
        /// Base object.
        obj: VReg,
        /// Field.
        field: FieldId,
    },
    /// Field store.
    StoreField {
        /// Base object.
        obj: VReg,
        /// Field.
        field: FieldId,
        /// Value stored.
        val: VReg,
    },
    /// Array element load (checks already done separately).
    LoadElem {
        /// Array object.
        arr: VReg,
        /// Element index.
        idx: VReg,
    },
    /// Array element store.
    StoreElem {
        /// Array object.
        arr: VReg,
        /// Element index.
        idx: VReg,
        /// Value stored.
        val: VReg,
    },
    /// Array length load (null check already done separately).
    ArrayLen(VReg),
    /// Direct call. Never inside an atomic region.
    Call {
        /// Callee.
        method: MethodId,
        /// Arguments.
        args: Vec<VReg>,
    },
    /// Virtual call through a vtable slot. Never inside an atomic region.
    CallVirtual {
        /// Vtable slot.
        slot: SlotId,
        /// Receiver (also passed as first argument).
        recv: VReg,
        /// Remaining arguments.
        args: Vec<VReg>,
        /// Bytecode pc of the original call site — the key into the
        /// interpreter's receiver-class histogram, which drives
        /// devirtualization decisions in the inliner.
        site: u32,
    },
    /// Monitor acquire.
    MonitorEnter(VReg),
    /// Monitor release.
    MonitorExit(VReg),
    /// SLE-elided monitor pair entry: loads the lock word and aborts the
    /// region if it is held by another thread; no store is performed.
    SleCheck(VReg),
    /// `instanceof` producing 0/1.
    InstanceOf {
        /// Reference tested.
        obj: VReg,
        /// Class tested against.
        class: ClassId,
    },
    /// Loads the dynamic class id of a non-null object (used by
    /// devirtualization guards on non-speculative paths).
    LoadClass(VReg),
    /// GC safepoint poll.
    Safepoint,
    /// Host intrinsic.
    Intrin {
        /// Which intrinsic.
        kind: Intrinsic,
        /// Arguments.
        args: Vec<VReg>,
    },
    /// Simulation marker.
    Marker(u32),
    /// Conditional abort of the enclosing atomic region.
    Assert {
        /// Abort condition.
        kind: AssertKind,
        /// Stable id reported by hardware on abort.
        id: AssertId,
    },
    /// Commit the enclosing atomic region (`aregion_end`).
    RegionEnd(RegionId),
}

impl Op {
    /// Operand values read by this op.
    pub fn args(&self) -> Vec<VReg> {
        let mut v = Vec::new();
        self.for_each_arg(|a| v.push(a));
        v
    }

    /// Calls `f` on every operand, in order, without allocating.
    pub fn for_each_arg(&self, mut f: impl FnMut(VReg)) {
        match self {
            Op::Const(_)
            | Op::ConstNull
            | Op::New(_)
            | Op::Safepoint
            | Op::Marker(_)
            | Op::RegionEnd(_) => {}
            Op::Phi(ins) => ins.iter().for_each(|(_, v)| f(*v)),
            Op::Copy(v)
            | Op::NullCheck(v)
            | Op::DivCheck(v)
            | Op::NewArray(v)
            | Op::ArrayLen(v)
            | Op::MonitorEnter(v)
            | Op::MonitorExit(v)
            | Op::SleCheck(v)
            | Op::LoadClass(v) => f(*v),
            Op::Bin(_, a, b) | Op::Cmp(_, a, b) => {
                f(*a);
                f(*b);
            }
            Op::BoundsCheck { len, idx } => {
                f(*len);
                f(*idx);
            }
            Op::CastCheck { obj, .. } | Op::InstanceOf { obj, .. } => f(*obj),
            Op::LoadField { obj, .. } => f(*obj),
            Op::StoreField { obj, val, .. } => {
                f(*obj);
                f(*val);
            }
            Op::LoadElem { arr, idx } => {
                f(*arr);
                f(*idx);
            }
            Op::StoreElem { arr, idx, val } => {
                f(*arr);
                f(*idx);
                f(*val);
            }
            Op::Call { args, .. } | Op::Intrin { args, .. } => args.iter().for_each(|a| f(*a)),
            Op::CallVirtual { recv, args, .. } => {
                f(*recv);
                args.iter().for_each(|a| f(*a));
            }
            Op::Assert { kind, .. } => kind.for_each_arg(f),
        }
    }

    /// Calls `f` on a mutable reference to every operand, in order, without
    /// allocating (for renaming).
    pub fn for_each_arg_mut<'a>(&'a mut self, mut f: impl FnMut(&'a mut VReg)) {
        match self {
            Op::Const(_)
            | Op::ConstNull
            | Op::New(_)
            | Op::Safepoint
            | Op::Marker(_)
            | Op::RegionEnd(_) => {}
            Op::Phi(ins) => ins.iter_mut().for_each(|(_, v)| f(v)),
            Op::Copy(v)
            | Op::NullCheck(v)
            | Op::DivCheck(v)
            | Op::NewArray(v)
            | Op::ArrayLen(v)
            | Op::MonitorEnter(v)
            | Op::MonitorExit(v)
            | Op::SleCheck(v)
            | Op::LoadClass(v) => f(v),
            Op::Bin(_, a, b) | Op::Cmp(_, a, b) => {
                f(a);
                f(b);
            }
            Op::BoundsCheck { len, idx } => {
                f(len);
                f(idx);
            }
            Op::CastCheck { obj, .. } | Op::InstanceOf { obj, .. } => f(obj),
            Op::LoadField { obj, .. } => f(obj),
            Op::StoreField { obj, val, .. } => {
                f(obj);
                f(val);
            }
            Op::LoadElem { arr, idx } => {
                f(arr);
                f(idx);
            }
            Op::StoreElem { arr, idx, val } => {
                f(arr);
                f(idx);
                f(val);
            }
            Op::Call { args, .. } | Op::Intrin { args, .. } => args.iter_mut().for_each(f),
            Op::CallVirtual { recv, args, .. } => {
                f(recv);
                args.iter_mut().for_each(f);
            }
            Op::Assert { kind, .. } => kind.for_each_arg_mut(f),
        }
    }

    /// True for operations with observable effects or control relevance that
    /// dead-code elimination must preserve even when the result is unused.
    ///
    /// Per the paper, asserts "are essential and should not be removed" by
    /// DCE; checks trap; stores, calls, monitors, allocation, safepoints,
    /// markers, and region ops all have effects.
    pub fn has_side_effect(&self) -> bool {
        match self {
            Op::Const(_)
            | Op::ConstNull
            | Op::Phi(_)
            | Op::Copy(_)
            | Op::Bin(_, _, _)
            | Op::Cmp(_, _, _)
            | Op::LoadField { .. }
            | Op::LoadElem { .. }
            | Op::ArrayLen(_)
            | Op::InstanceOf { .. }
            | Op::LoadClass(_) => false,
            // Allocation is pure-ish but its identity is observable (object
            // ids feed the checksum); treat as effectful.
            _ => true,
        }
    }

    /// True for calls (which end atomic regions and act as full barriers).
    pub fn is_call(&self) -> bool {
        matches!(self, Op::Call { .. } | Op::CallVirtual { .. })
    }
}

/// One IR instruction: an optional destination and an operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    /// Result value, if the op produces one.
    pub dst: Option<VReg>,
    /// The operation.
    pub op: Op,
}

impl Inst {
    /// Creates an instruction with a destination.
    pub fn with_dst(dst: VReg, op: Op) -> Self {
        Inst { dst: Some(dst), op }
    }

    /// Creates an effect-only instruction.
    pub fn effect(op: Op) -> Self {
        Inst { dst: None, op }
    }
}

/// Block terminators. Conditional terminators carry the observed execution
/// counts of each outgoing edge — region formation is profile-driven.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch: to `t` if `a <op> b`, else to `f`.
    Branch {
        /// Predicate.
        op: CmpOp,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
        /// Taken target.
        t: BlockId,
        /// Fall-through target.
        f: BlockId,
        /// Profiled taken count.
        t_count: u64,
        /// Profiled not-taken count.
        f_count: u64,
    },
    /// Multi-way dispatch on `sel` (0-based); last resort is `default`.
    Switch {
        /// Selector.
        sel: VReg,
        /// Per-case (target, profiled count).
        targets: Vec<(BlockId, u64)>,
        /// (default target, profiled count).
        default: (BlockId, u64),
    },
    /// Return from the function.
    Return(Option<VReg>),
    /// Enter an atomic region: control goes to `body` speculatively; on any
    /// abort the hardware restores state and transfers to `abort` (the
    /// non-speculative version). Corresponds to `aregion_begin <alt PC>`.
    RegionBegin {
        /// Which region.
        region: RegionId,
        /// Speculative body entry.
        body: BlockId,
        /// Non-speculative alternate entry (`<alt PC>`).
        abort: BlockId,
    },
}

impl Term {
    /// Number of outgoing edges.
    pub fn succ_count(&self) -> usize {
        match self {
            Term::Jump(_) => 1,
            Term::Branch { .. } | Term::RegionBegin { .. } => 2,
            Term::Switch { targets, .. } => targets.len() + 1,
            Term::Return(_) => 0,
        }
    }

    /// Target of edge `i` (`i < succ_count()`).
    pub fn succ(&self, i: usize) -> BlockId {
        match self {
            Term::Jump(b) if i == 0 => *b,
            Term::Branch { t, f, .. } if i < 2 => [*t, *f][i],
            Term::RegionBegin { body, abort, .. } if i < 2 => [*body, *abort][i],
            Term::Switch {
                targets, default, ..
            } if i <= targets.len() => targets.get(i).map_or(default.0, |(b, _)| *b),
            _ => panic!("edge {i} out of range for {self:?}"),
        }
    }

    /// All successor blocks, in edge order, without allocating.
    pub fn succs(&self) -> Succs<'_> {
        Succs {
            term: self,
            next: 0,
            end: self.succ_count(),
        }
    }

    /// Rewrites every successor equal to `from` into `to`.
    pub fn retarget(&mut self, from: BlockId, to: BlockId) {
        let patch = |b: &mut BlockId| {
            if *b == from {
                *b = to;
            }
        };
        match self {
            Term::Jump(b) => patch(b),
            Term::Branch { t, f, .. } => {
                patch(t);
                patch(f);
            }
            Term::Switch {
                targets, default, ..
            } => {
                for (b, _) in targets.iter_mut() {
                    patch(b);
                }
                patch(&mut default.0);
            }
            Term::Return(_) => {}
            Term::RegionBegin { body, abort, .. } => {
                patch(body);
                patch(abort);
            }
        }
    }

    /// Operand values read by the terminator.
    pub fn args(&self) -> Vec<VReg> {
        let mut v = Vec::new();
        self.for_each_arg(|a| v.push(a));
        v
    }

    /// Calls `f` on every operand value, in order, without allocating.
    pub fn for_each_arg(&self, mut f: impl FnMut(VReg)) {
        match self {
            Term::Branch { a, b, .. } => {
                f(*a);
                f(*b);
            }
            Term::Switch { sel, .. } => f(*sel),
            Term::Return(Some(v)) => f(*v),
            _ => {}
        }
    }

    /// Calls `f` on a mutable reference to every operand value, in order,
    /// without allocating (for renaming).
    pub fn for_each_arg_mut<'a>(&'a mut self, mut f: impl FnMut(&'a mut VReg)) {
        match self {
            Term::Branch { a, b, .. } => {
                f(a);
                f(b);
            }
            Term::Switch { sel, .. } => f(sel),
            Term::Return(Some(v)) => f(v),
            _ => {}
        }
    }
}

/// The successors of a terminator, in edge order ([`Term::succs`]).
#[derive(Debug, Clone)]
pub struct Succs<'a> {
    term: &'a Term,
    next: usize,
    end: usize,
}

impl Iterator for Succs<'_> {
    type Item = BlockId;

    #[inline]
    fn next(&mut self) -> Option<BlockId> {
        (self.next < self.end).then(|| {
            self.next += 1;
            self.term.succ(self.next - 1)
        })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Succs<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_args_roundtrip() {
        let mut op = Op::Bin(BinOp::Add, VReg(1), VReg(2));
        assert_eq!(op.args(), vec![VReg(1), VReg(2)]);
        op.for_each_arg_mut(|a| a.0 += 10);
        assert_eq!(op.args(), vec![VReg(11), VReg(12)]);
        let mut call = Op::CallVirtual {
            slot: SlotId(0),
            recv: VReg(3),
            args: vec![VReg(4), VReg(5)],
            site: 0,
        };
        call.for_each_arg_mut(|a| a.0 *= 2);
        assert_eq!(call.args(), vec![VReg(6), VReg(8), VReg(10)]);
    }

    #[test]
    fn switch_succs_list_cases_then_default() {
        let t = Term::Switch {
            sel: VReg(0),
            targets: vec![(BlockId(4), 1), (BlockId(2), 0)],
            default: (BlockId(4), 3),
        };
        assert_eq!(t.succ_count(), 3);
        assert_eq!(t.succs().len(), 3);
        assert!(t.succs().eq([BlockId(4), BlockId(2), BlockId(4)]));
        assert_eq!(Term::Return(None).succs().next(), None);
    }

    #[test]
    fn side_effects() {
        assert!(!Op::Const(3).has_side_effect());
        assert!(!Op::LoadField {
            obj: VReg(0),
            field: FieldId(0)
        }
        .has_side_effect());
        assert!(Op::StoreField {
            obj: VReg(0),
            field: FieldId(0),
            val: VReg(1)
        }
        .has_side_effect());
        assert!(Op::NullCheck(VReg(0)).has_side_effect());
        assert!(Op::Assert {
            kind: AssertKind::Null(VReg(0)),
            id: AssertId(0)
        }
        .has_side_effect());
        assert!(Op::RegionEnd(RegionId(0)).has_side_effect());
    }

    #[test]
    fn term_retarget_and_succs() {
        let mut t = Term::Branch {
            op: CmpOp::Lt,
            a: VReg(0),
            b: VReg(1),
            t: BlockId(2),
            f: BlockId(3),
            t_count: 10,
            f_count: 90,
        };
        assert!(t.succs().eq([BlockId(2), BlockId(3)]));
        t.retarget(BlockId(3), BlockId(7));
        assert!(t.succs().eq([BlockId(2), BlockId(7)]));
    }

    #[test]
    fn region_begin_has_two_succs() {
        let t = Term::RegionBegin {
            region: RegionId(0),
            body: BlockId(1),
            abort: BlockId(2),
        };
        assert!(t.succs().eq([BlockId(1), BlockId(2)]));
    }

    #[test]
    fn assert_kinds_args() {
        let k = AssertKind::Cmp {
            op: CmpOp::Ge,
            a: VReg(4),
            b: VReg(5),
        };
        assert_eq!(k.args(), vec![VReg(4), VReg(5)]);
        assert_eq!(AssertKind::LockHeld(VReg(9)).args(), vec![VReg(9)]);
    }
}
