//! The register-based, Java-like bytecode the VM executes and the JIT
//! compiles.
//!
//! The instruction set deliberately mirrors the *shape* of JVM code after a
//! first translation out of the stack machine: virtual registers, explicit
//! control flow, object field and array accesses with implicit null/bounds
//! checks, virtual dispatch through vtable slots, per-object monitors, and GC
//! safepoints on loop back-edges. These are exactly the features the paper's
//! optimizations feed on (§2).

use std::fmt;

/// A virtual register within a method frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u16);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifies a class in the [`Program`](crate::class::Program)'s class table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// Identifies a method in the program's method table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodId(pub u32);

/// A field index within an object layout (fields of superclasses first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldId(pub u16);

/// A virtual-dispatch slot index within a class vtable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub u16);

/// Binary ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division; traps on a zero divisor.
    Div,
    /// Remainder; traps on a zero divisor.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (modulo 64).
    Shl,
    /// Arithmetic shift right (modulo 64).
    Shr,
}

impl BinOp {
    /// Evaluates the operation, returning `None` on division by zero.
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> Option<i64> {
        Some(match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    return None;
                }
                a.wrapping_div(b)
            }
            BinOp::Rem => {
                if b == 0 {
                    return None;
                }
                a.wrapping_rem(b)
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b as u32 & 63),
            BinOp::Shr => a.wrapping_shr(b as u32 & 63),
        })
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        };
        f.write_str(s)
    }
}

/// Comparison predicates used by conditional branches.
///
/// `Eq`/`Ne` also compare references (for null tests the builder compares
/// against a register holding the null constant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl CmpOp {
    /// The predicate with operands swapped (`a op b` ⇔ `b op.swap() a`).
    pub fn swap(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The logical negation of the predicate.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Evaluates the predicate on integers.
    #[inline]
    pub fn eval_int(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        };
        f.write_str(s)
    }
}

/// Host-provided intrinsics, used by workloads for observable output and
/// deterministic input generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// Folds the argument into the global checksum accumulator
    /// (`cs = cs * 31 + v`); the checksum is the observable result used by
    /// the functional-equivalence tests.
    Checksum,
    /// Writes the next value of a seeded 64-bit LCG into `dst`.
    NextRandom,
    /// Thread-yield flag load (the JVM's GC polling read). Returns 0.
    YieldFlag,
}

/// One bytecode instruction.
///
/// Branch targets are indices into the method's instruction vector; the
/// [`MethodBuilder`](crate::builder::MethodBuilder) patches labels into
/// absolute indices.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields (dst/src/obj/...) are self-describing
pub enum Instr {
    /// `dst = value`
    Const { dst: Reg, value: i64 },
    /// `dst = null`
    ConstNull { dst: Reg },
    /// `dst = src`
    Move { dst: Reg, src: Reg },
    /// `dst = a <op> b`
    Bin { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// `dst = (a <op> b) ? 1 : 0`
    Cmp { op: CmpOp, dst: Reg, a: Reg, b: Reg },
    /// `if a <op> b goto target`
    Branch {
        op: CmpOp,
        a: Reg,
        b: Reg,
        target: usize,
    },
    /// `goto target`
    Jump { target: usize },
    /// `goto targets[src]` if `0 <= src < targets.len()`, else `default`.
    /// Models Java's `tableswitch` (an indirect branch to hardware).
    Switch {
        src: Reg,
        targets: Vec<usize>,
        default: usize,
    },
    /// Allocate an instance of `class`; fields are zero/null initialized.
    New { dst: Reg, class: ClassId },
    /// Allocate an array of `len` (register) elements of `Value::Int(0)`.
    NewArray { dst: Reg, len: Reg },
    /// `dst = obj.field` — implicit null check on `obj`.
    GetField { dst: Reg, obj: Reg, field: FieldId },
    /// `obj.field = src` — implicit null check on `obj`.
    PutField { obj: Reg, field: FieldId, src: Reg },
    /// `dst = arr[idx]` — implicit null and bounds checks.
    ALoad { dst: Reg, arr: Reg, idx: Reg },
    /// `arr[idx] = src` — implicit null and bounds checks.
    AStore { arr: Reg, idx: Reg, src: Reg },
    /// `dst = arr.length` — implicit null check.
    ArrayLen { dst: Reg, arr: Reg },
    /// Direct (static / non-virtual) call.
    Call {
        dst: Option<Reg>,
        method: MethodId,
        args: Vec<Reg>,
    },
    /// Virtual call through the receiver's vtable `slot` — implicit null
    /// check on the receiver, which is passed as the callee's first argument.
    CallVirtual {
        dst: Option<Reg>,
        slot: SlotId,
        recv: Reg,
        args: Vec<Reg>,
    },
    /// Return from the method, optionally with a value.
    Return { src: Option<Reg> },
    /// Acquire the object's monitor (reservation-style lock word).
    MonitorEnter { obj: Reg },
    /// Release the object's monitor.
    MonitorExit { obj: Reg },
    /// `dst = (obj instanceof class) ? 1 : 0` (null is not an instance).
    InstanceOf { dst: Reg, obj: Reg, class: ClassId },
    /// Trap with [`Trap::ClassCast`](crate::error::Trap::ClassCast) unless
    /// `obj` is null or an instance of `class`.
    CheckCast { obj: Reg, class: ClassId },
    /// GC safepoint poll (placed on loop back-edges by the builder).
    Safepoint,
    /// Host intrinsic.
    Intrin {
        kind: Intrinsic,
        dst: Option<Reg>,
        args: Vec<Reg>,
    },
    /// Simulation marker (§5 methodology): bounds equal work across compiler
    /// configurations. Has no architectural effect.
    Marker { id: u32 },
}

impl Instr {
    /// Registers read by this instruction.
    pub fn uses(&self) -> Vec<Reg> {
        match self {
            Instr::Const { .. } | Instr::ConstNull { .. } | Instr::New { .. } => vec![],
            Instr::Move { src, .. } => vec![*src],
            Instr::Bin { a, b, .. } | Instr::Cmp { a, b, .. } | Instr::Branch { a, b, .. } => {
                vec![*a, *b]
            }
            Instr::Jump { .. } | Instr::Safepoint | Instr::Marker { .. } => vec![],
            Instr::Switch { src, .. } => vec![*src],
            Instr::NewArray { len, .. } => vec![*len],
            Instr::GetField { obj, .. } => vec![*obj],
            Instr::PutField { obj, src, .. } => vec![*obj, *src],
            Instr::ALoad { arr, idx, .. } => vec![*arr, *idx],
            Instr::AStore { arr, idx, src } => vec![*arr, *idx, *src],
            Instr::ArrayLen { arr, .. } => vec![*arr],
            Instr::Call { args, .. } => args.clone(),
            Instr::CallVirtual { recv, args, .. } => {
                let mut v = vec![*recv];
                v.extend_from_slice(args);
                v
            }
            Instr::Return { src } => src.iter().copied().collect(),
            Instr::MonitorEnter { obj } | Instr::MonitorExit { obj } => vec![*obj],
            Instr::InstanceOf { obj, .. } | Instr::CheckCast { obj, .. } => vec![*obj],
            Instr::Intrin { args, .. } => args.clone(),
        }
    }

    /// The register written by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Instr::Const { dst, .. }
            | Instr::ConstNull { dst }
            | Instr::Move { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::Cmp { dst, .. }
            | Instr::New { dst, .. }
            | Instr::NewArray { dst, .. }
            | Instr::GetField { dst, .. }
            | Instr::ALoad { dst, .. }
            | Instr::ArrayLen { dst, .. }
            | Instr::InstanceOf { dst, .. } => Some(*dst),
            Instr::Call { dst, .. }
            | Instr::CallVirtual { dst, .. }
            | Instr::Intrin { dst, .. } => *dst,
            _ => None,
        }
    }

    /// True if the instruction unconditionally ends straight-line flow
    /// (jump, switch, or return).
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Instr::Jump { .. } | Instr::Switch { .. } | Instr::Return { .. }
        )
    }

    /// Explicit control-flow successors (branch/jump/switch targets). A
    /// conditional branch's fall-through successor is implicit (`pc + 1`).
    pub fn targets(&self) -> Vec<usize> {
        match self {
            Instr::Branch { target, .. } | Instr::Jump { target } => vec![*target],
            Instr::Switch {
                targets, default, ..
            } => {
                let mut t = targets.clone();
                t.push(*default);
                t
            }
            _ => vec![],
        }
    }
}

/// The basic-block leaders of `code`, as one flag per pc plus one for the
/// end of the stream: pc 0, every branch/jump/switch target, and the pc
/// after every conditional branch or terminator. IR translation cuts blocks
/// here, and the profiling interpreter's straight-line runs never cross one.
pub fn block_leaders(code: &[Instr]) -> Vec<bool> {
    let mut is_leader = vec![false; code.len() + 1];
    is_leader[0] = true;
    for (pc, instr) in code.iter().enumerate() {
        for t in instr.targets() {
            is_leader[t] = true;
        }
        if (matches!(instr, Instr::Branch { .. }) || instr.is_terminator()) && pc + 1 < code.len() {
            is_leader[pc + 1] = true;
        }
    }
    is_leader
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval() {
        assert_eq!(BinOp::Add.eval(2, 3), Some(5));
        assert_eq!(BinOp::Sub.eval(2, 3), Some(-1));
        assert_eq!(BinOp::Mul.eval(4, 3), Some(12));
        assert_eq!(BinOp::Div.eval(7, 2), Some(3));
        assert_eq!(BinOp::Div.eval(7, 0), None);
        assert_eq!(BinOp::Rem.eval(7, 0), None);
        assert_eq!(BinOp::Shl.eval(1, 65), Some(2), "shift is modulo 64");
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), Some(i64::MIN), "wrapping");
    }

    #[test]
    fn cmp_negate_swap() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for (a, b) in [(1, 2), (2, 1), (3, 3)] {
                assert_eq!(op.eval_int(a, b), !op.negate().eval_int(a, b));
                assert_eq!(op.eval_int(a, b), op.swap().eval_int(b, a));
            }
        }
    }

    #[test]
    fn uses_and_defs() {
        let i = Instr::Bin {
            op: BinOp::Add,
            dst: Reg(0),
            a: Reg(1),
            b: Reg(2),
        };
        assert_eq!(i.uses(), vec![Reg(1), Reg(2)]);
        assert_eq!(i.def(), Some(Reg(0)));

        let c = Instr::CallVirtual {
            dst: None,
            slot: SlotId(0),
            recv: Reg(5),
            args: vec![Reg(6)],
        };
        assert_eq!(c.uses(), vec![Reg(5), Reg(6)]);
        assert_eq!(c.def(), None);
    }

    #[test]
    fn switch_targets_include_default() {
        let s = Instr::Switch {
            src: Reg(0),
            targets: vec![3, 4],
            default: 9,
        };
        assert_eq!(s.targets(), vec![3, 4, 9]);
        assert!(s.is_terminator());
        assert!(!Instr::Safepoint.is_terminator());
    }
}
