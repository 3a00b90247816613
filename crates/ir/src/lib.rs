//! # hasp-ir — the JIT compiler's intermediate representation
//!
//! An SSA, CFG-based high-level IR modeled on a JVM JIT's HIR (DRLVM Jitrino
//! in the paper *Hardware Atomicity for Reliable Software Speculation*,
//! ISCA 2007), together with the analyses the optimizer and region formation
//! need: dominators and post-dominators ([`dom`]), natural loops ([`loops`]),
//! liveness ([`liveness`]), bytecode translation with decomposed safety
//! checks ([`mod@translate`]), SSA construction ([`ssa`]), and a verifier
//! enforcing SSA plus the paper's atomic-region invariants ([`mod@verify`]).
//!
//! Atomic regions are first-class: [`instr::Term::RegionBegin`] models
//! `aregion_begin <alt PC>` with an explicit abort edge (the paper maps this
//! onto try/catch IR support), [`instr::Op::RegionEnd`] models `aregion_end`,
//! and [`instr::Op::Assert`] models conditional aborts — plain instructions
//! with no control-flow successors, which is precisely why they constrain
//! optimization less than branches (§4).

#![warn(missing_docs)]

pub mod dense;
pub mod dom;
pub mod dot;
pub mod func;
pub mod instr;
pub mod liveness;
pub mod loops;
pub mod ssa;
pub mod ssa_repair;
pub mod translate;
pub mod verify;

pub use dense::{BlockSet, DenseLists, VRegSet};
pub use dom::{DomTree, PostDomTree};
pub use func::{AssertInfo, Block, Func, Preds, RegionInfo};
pub use instr::{AssertId, AssertKind, BlockId, Inst, Op, RegionId, Succs, Term, VReg};
pub use liveness::Liveness;
pub use loops::{ensure_preheader, Loop, LoopForest};
pub use translate::translate;
pub use verify::verify;
