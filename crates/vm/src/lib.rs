//! # hasp-vm — the managed-runtime substrate
//!
//! A Java-like virtual machine built from scratch as the substrate for
//! reproducing *Hardware Atomicity for Reliable Software Speculation*
//! (Neelakantam et al., ISCA 2007). The paper's evaluation lives inside
//! Apache Harmony DRLVM; this crate provides the equivalent raw material the
//! optimizations feed on:
//!
//! * a register-based bytecode with Java's *shape* — frequent biased
//!   branches, implicit null/bounds/type checks, virtual dispatch through
//!   vtables, per-object monitors, GC safepoints ([`bytecode`]),
//! * an object heap with simulated byte addresses so the hardware crate can
//!   run a real cache model over its traffic ([`heap`]),
//! * a profiling interpreter collecting branch bias, switch case counts,
//!   receiver histograms and invocation counts ([`interp`], [`profile`]),
//! * builders for writing workloads in Rust ([`builder`]).
//!
//! ## Example
//!
//! ```
//! use hasp_vm::builder::ProgramBuilder;
//! use hasp_vm::bytecode::{BinOp, CmpOp};
//! use hasp_vm::interp::Interp;
//! use hasp_vm::value::Value;
//!
//! let mut pb = ProgramBuilder::new();
//! let mut m = pb.method("main", 0);
//! let (sum, i, n, one) = (m.imm(0), m.imm(0), m.imm(10), m.imm(1));
//! let head = m.new_label();
//! let exit = m.new_label();
//! m.bind(head);
//! m.branch(CmpOp::Ge, i, n, exit);
//! m.bin(BinOp::Add, sum, sum, i);
//! m.bin(BinOp::Add, i, i, one);
//! m.jump(head);
//! m.bind(exit);
//! m.ret(Some(sum));
//! let entry = m.finish(&mut pb);
//! let program = pb.finish(entry);
//!
//! let mut interp = Interp::new(&program);
//! assert_eq!(interp.run(&[]).unwrap(), Some(Value::Int(45)));
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod bytecode;
pub mod class;
pub mod env;
pub mod error;
pub mod fxhash;
pub mod heap;
pub mod interp;
pub mod profile;
pub mod value;

pub use builder::{MethodBuilder, ProgramBuilder};
pub use bytecode::{BinOp, ClassId, CmpOp, FieldId, Instr, Intrinsic, MethodId, Reg, SlotId};
pub use class::{Class, Method, Program};
pub use env::{Env, EnvSnapshot};
pub use error::{Trap, VmError};
pub use heap::{Heap, HeapCell, HeapMark};
pub use interp::Interp;
pub use profile::{MethodProfile, Profile};
pub use value::{ObjId, Value};
