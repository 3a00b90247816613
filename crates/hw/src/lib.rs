//! # hasp-hw — hardware atomicity substrate and timing simulator
//!
//! The hardware half of the HASP reproduction of *Hardware Atomicity for
//! Reliable Software Speculation* (ISCA 2007): the three ISA primitives
//! (`aregion_begin <alt>`, `aregion_end`, `aregion_abort`) implemented on a
//! checkpoint execution substrate, exactly as §3 prescribes — register
//! checkpoint at the recovery point, address tracking through per-line
//! speculative read/write bits in the L1, buffered updates (undo log),
//! conflict detection against coherence invalidations, flash-clear
//! commit/abort — plus a Table 1 machine model for timing.
//!
//! * [`uop`] — the machine ISA and code cache.
//! * [`lower()`](crate::lower::lower) — IR → uop lowering (phi elimination, assert/abort shapes,
//!   reservation-lock and SLE expansions).
//! * [`cache`] — two-level cache with speculative bits (overflow → abort).
//! * [`coherence`] — the sharded line directory behind real multi-core
//!   runs: N machines on OS threads publish per-line intent and receive
//!   asynchronous organic `Conflict`/`Sle` aborts.
//! * [`bpred`] — tournament + indirect branch predictors.
//! * [`machine`] — the functional executor with checkpoint/rollback and the
//!   interval timing model, including the Figure 9 sensitivity knobs.
//! * [`superblock`] — the decoded superblock index behind the batched
//!   dispatch hot path (built at code-cache install time).
//! * [`config`] — Table 1 parameters, §6.3 variants, and the online
//!   abort-recovery governor ladder policy ([`GovernorConfig`],
//!   [`ReformRequest`]).
//! * [`stats`] — uops/cycles/coverage/abort statistics (Tables 3, Fig. 8/9).
//! * [`fault`] — deterministic fault injection ([`FaultPlan`]) and
//!   structured machine errors ([`MachineFault`]).
//! * [`publish`] — epoch/RCU-style lock-free publication ([`Publisher`]),
//!   the code-cache installation channel for the serving harness.

#![warn(missing_docs)]

pub mod bpred;
pub mod cache;
pub mod coherence;
pub mod config;
pub mod fault;
pub mod lineset;
pub mod lower;
pub mod machine;
pub mod publish;
pub mod stats;
pub mod superblock;
pub mod uop;

pub use cache::{CacheSim, FastHit, HitLevel, TargetCache, NO_SITE};
pub use coherence::{CohMsg, CoreId, CoreLink, Directory, LineState, LinkStats, MAX_CORES};
pub use config::{Dispatch, GovernorConfig, HwConfig, ReformRequest};
pub use fault::{FaultKind, FaultPlan, MachineFault, FAULT_KINDS};
pub use lower::lower;
pub use machine::{Machine, MachinePools, FALLBACK_LOCK_ADDR};
pub use publish::{PinGuard, Publisher};
pub use stats::{
    AbortReason, Histogram, MarkerSnap, PredStats, RegionCounters, RunStats, ABORT_REASONS,
};
pub use uop::{CodeCache, CompiledCode, MReg, Uop, UopClass, UOP_CLASSES};
