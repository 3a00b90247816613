//! Deterministic fault injection and online abort recovery.
//!
//! The paper's reliability argument (§3, §6.1) is that *any* abort cause —
//! coherence conflict, interrupt, cache overflow, exception, failed assert —
//! rolls back to a bit-exact architectural state and falls back to the
//! non-speculative code at the region's alternate PC. This module makes that
//! contract systematically testable:
//!
//! * [`FaultPlan`] — a seeded, deterministic injection plan that can produce
//!   every abort cause at a swept rate or at a precise trigger point
//!   (abort-at-the-Nth-region-entry).
//! * [`MachineFault`] — structured machine errors, so hardware misuse
//!   (e.g. `aregion_abort` outside a region) and invariant-validator
//!   failures surface as values instead of panics.

use hasp_vm::bytecode::MethodId;
use hasp_vm::error::VmError;

use crate::stats::AbortReason;

/// A deterministic fault-injection plan.
///
/// All rates are exact and seeded: two machines given the same plan and the
/// same program inject the same faults at the same retired-uop positions, so
/// campaign cells are reproducible and comparable across runs and threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// RNG seed for probabilistic injection (conflicts, spurious aborts).
    pub seed: u64,
    /// Coherence-conflict probability per 1M in-region uops (0 disables):
    /// models an invalidation hitting the region's read/write set.
    pub conflict_per_miljon: u64,
    /// Interrupt interval in retired uops (0 disables); an interrupt inside
    /// a region aborts it (best-effort hardware).
    pub interrupt_interval: u64,
    /// Spurious hardware-abort probability per 1M in-region uops
    /// (0 disables): the substrate aborts for no architectural reason, as
    /// best-effort hardware is allowed to.
    pub spurious_per_miljon: u64,
    /// Speculative-footprint line budget (0 = only the cache geometry
    /// limits). A region touching more distinct lines than this overflows —
    /// a shrunken stand-in for a smaller speculative cache.
    pub line_budget: u64,
    /// Abort exactly the Nth dynamic region entry (1-based; `None`
    /// disables). The targeted probe for abort-path bisection.
    pub abort_at_entry: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// No injected faults (architectural aborts only).
    pub fn none() -> Self {
        FaultPlan {
            seed: 0x4a57,
            conflict_per_miljon: 0,
            interrupt_interval: 0,
            spurious_per_miljon: 0,
            line_budget: 0,
            abort_at_entry: None,
        }
    }

    /// Conflict injection at `per_miljon` per 1M in-region uops.
    pub fn conflicts(per_miljon: u64) -> Self {
        FaultPlan {
            conflict_per_miljon: per_miljon,
            ..FaultPlan::none()
        }
    }

    /// Interrupt injection every `interval` retired uops.
    pub fn interrupts(interval: u64) -> Self {
        FaultPlan {
            interrupt_interval: interval,
            ..FaultPlan::none()
        }
    }

    /// Spurious-abort injection at `per_miljon` per 1M in-region uops.
    pub fn spurious(per_miljon: u64) -> Self {
        FaultPlan {
            spurious_per_miljon: per_miljon,
            ..FaultPlan::none()
        }
    }

    /// Overflow injection: cap region footprints at `lines` distinct lines.
    pub fn overflow_budget(lines: u64) -> Self {
        FaultPlan {
            line_budget: lines,
            ..FaultPlan::none()
        }
    }

    /// Targeted injection: abort the `n`th dynamic region entry (1-based).
    pub fn abort_at(n: u64) -> Self {
        FaultPlan {
            abort_at_entry: Some(n),
            ..FaultPlan::none()
        }
    }

    /// True when a rate-driven injection is armed: conflicts, interrupts or
    /// spurious aborts, whose rates count uops. A coherence leg of the
    /// worker pool requires that none is, so every conflict it reports
    /// comes from the directory.
    pub fn rate_armed(&self) -> bool {
        self.conflict_per_miljon > 0 || self.interrupt_interval > 0 || self.spurious_per_miljon > 0
    }
}

/// The injectable fault families a campaign sweeps over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Coherence conflicts at a per-1M-uop rate.
    Conflict,
    /// Interrupts at a retired-uop interval.
    Interrupt,
    /// Cache-line overflow via a shrunken speculative line budget.
    Overflow,
    /// Spurious hardware aborts at a per-1M-uop rate.
    Spurious,
    /// A targeted abort at the Nth dynamic region entry.
    Targeted,
}

/// All fault kinds, for campaign iteration.
pub const FAULT_KINDS: [FaultKind; 5] = [
    FaultKind::Conflict,
    FaultKind::Interrupt,
    FaultKind::Overflow,
    FaultKind::Spurious,
    FaultKind::Targeted,
];

impl FaultKind {
    /// Campaign label.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Conflict => "conflict",
            FaultKind::Interrupt => "interrupt",
            FaultKind::Overflow => "overflow",
            FaultKind::Spurious => "spurious",
            FaultKind::Targeted => "targeted",
        }
    }

    /// The plan injecting this kind at `rate` (kind-specific meaning:
    /// per-1M-uop probability, uop interval, line budget, or entry ordinal).
    pub fn plan(self, rate: u64) -> FaultPlan {
        match self {
            FaultKind::Conflict => FaultPlan::conflicts(rate),
            FaultKind::Interrupt => FaultPlan::interrupts(rate),
            FaultKind::Overflow => FaultPlan::overflow_budget(rate),
            FaultKind::Spurious => FaultPlan::spurious(rate),
            FaultKind::Targeted => FaultPlan::abort_at(rate),
        }
    }

    /// The abort reason this kind is recorded under.
    pub fn reason(self) -> AbortReason {
        match self {
            FaultKind::Conflict => AbortReason::Conflict,
            FaultKind::Interrupt => AbortReason::Interrupt,
            FaultKind::Overflow => AbortReason::Overflow,
            FaultKind::Spurious | FaultKind::Targeted => AbortReason::Spurious,
        }
    }
}

/// A structured machine failure.
///
/// Hardware misuse (a lowering bug emitting `aregion_abort` outside a
/// region, a nested `aregion_begin`) and invariant-validator violations are
/// *reported*, not panicked, so one malformed cell of an experiment matrix
/// degrades to a recorded failure instead of killing its worker thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineFault {
    /// A non-speculative VM-level error (trap, fuel, stack overflow).
    Vm(VmError),
    /// `aregion_abort` executed with no region in flight.
    AbortOutsideRegion {
        /// Method containing the offending uop.
        method: MethodId,
        /// Uop offset of the offending `aregion_abort`.
        pc: usize,
    },
    /// `aregion_begin` executed while a region was already in flight.
    NestedRegion {
        /// Method containing the offending uop.
        method: MethodId,
        /// Uop offset of the offending `aregion_begin`.
        pc: usize,
    },
    /// `aregion_end` executed with no region in flight.
    EndOutsideRegion {
        /// Method containing the offending uop.
        method: MethodId,
        /// Uop offset of the offending `aregion_end`.
        pc: usize,
    },
    /// A call targeted a method with no installed code.
    MethodNotCompiled(MethodId),
    /// The post-abort/post-commit invariant validator found corrupted
    /// architectural state.
    InvariantViolation {
        /// Which invariant failed.
        what: &'static str,
        /// Human-readable details (expected vs observed).
        detail: String,
    },
}

impl From<VmError> for MachineFault {
    fn from(e: VmError) -> Self {
        MachineFault::Vm(e)
    }
}

impl std::fmt::Display for MachineFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineFault::Vm(e) => write!(f, "{e}"),
            MachineFault::AbortOutsideRegion { method, pc } => {
                write!(f, "aregion_abort outside a region at {}:{pc}", method.0)
            }
            MachineFault::NestedRegion { method, pc } => {
                write!(f, "nested aregion_begin at {}:{pc}", method.0)
            }
            MachineFault::EndOutsideRegion { method, pc } => {
                write!(f, "aregion_end outside a region at {}:{pc}", method.0)
            }
            MachineFault::MethodNotCompiled(m) => {
                write!(f, "method {} not compiled", m.0)
            }
            MachineFault::InvariantViolation { what, detail } => {
                write!(f, "post-abort/commit invariant violated ({what}): {detail}")
            }
        }
    }
}

impl std::error::Error for MachineFault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_arm_the_right_knob() {
        assert_eq!(FaultPlan::conflicts(500).conflict_per_miljon, 500);
        assert_eq!(FaultPlan::interrupts(1000).interrupt_interval, 1000);
        assert_eq!(FaultPlan::spurious(250).spurious_per_miljon, 250);
        assert_eq!(FaultPlan::overflow_budget(4).line_budget, 4);
        assert_eq!(FaultPlan::abort_at(7).abort_at_entry, Some(7));
        assert!(!FaultPlan::none().rate_armed());
        assert!(FaultPlan::conflicts(1).rate_armed());
        assert!(FaultPlan::interrupts(1).rate_armed());
        assert!(FaultPlan::spurious(1).rate_armed());
        assert!(
            !FaultPlan::overflow_budget(4).rate_armed(),
            "a line budget counts lines, not uops"
        );
    }

    #[test]
    fn kind_round_trip() {
        for k in FAULT_KINDS {
            let p = k.plan(10);
            assert_ne!(p, FaultPlan::none(), "{} plan arms something", k.name());
        }
        assert_eq!(FaultKind::Targeted.reason(), AbortReason::Spurious);
        assert_eq!(FaultKind::Overflow.reason(), AbortReason::Overflow);
    }

    #[test]
    fn fault_display_is_descriptive() {
        let f = MachineFault::AbortOutsideRegion {
            method: MethodId(3),
            pc: 17,
        };
        assert!(f.to_string().contains("aregion_abort outside"));
        let v = MachineFault::InvariantViolation {
            what: "spec-bits",
            detail: "2 lines still speculative".into(),
        };
        assert!(v.to_string().contains("spec-bits"));
        let vm: MachineFault = VmError::StackOverflow.into();
        assert_eq!(vm.to_string(), "call stack overflow");
    }
}
