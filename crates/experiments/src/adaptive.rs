//! Abort-recovery policies layered above the raw speculative run.
//!
//! Two policies live here:
//!
//! * [`run_governed`] — the *online* governor (the default policy): the
//!   machine itself tracks per-region consecutive-abort streaks and patches
//!   `aregion_begin` into a branch-to-alt past a retry budget, with
//!   exponential-backoff re-enable. One run, no recompilation.
//! * [`run_adaptive`] — the offline two-pass ablation (§7 future work,
//!   [Zilles & Neelakantam, CGO'05]): run once, diagnose methods whose
//!   regions exceed an abort-rate threshold via the hardware's
//!   abort-reason/abort-PC registers, recompile them without atomic
//!   regions, and re-run. Kept as the comparison point the governor is
//!   measured against.
//!
//! Both convert pmd-style post-profile behavior changes from a slowdown
//! back to ≈ baseline performance; the governor does it within a single
//! run.

use std::collections::HashSet;

use hasp_hw::{lower, CodeCache, GovernorConfig, HwConfig, Machine};
use hasp_opt::{compile_method, CompilerConfig};
use hasp_vm::bytecode::MethodId;
use hasp_vm::interp::Interp;
use hasp_workloads::Workload;

use crate::runner::{
    extract_samples, profile_workload, run_workload, ProfiledWorkload, WorkloadRun,
};

/// Runs `w` under `ccfg` with the online abort-recovery governor enabled:
/// the single-run replacement for the two-pass [`run_adaptive`] policy.
///
/// The returned run is labeled `"governed"` so it can sit beside the
/// ungoverned run in the same table.
///
/// # Panics
/// Panics if the run diverges from the interpreter's checksum.
pub fn run_governed(
    w: &Workload,
    profiled: &ProfiledWorkload,
    ccfg: &CompilerConfig,
    hw: &HwConfig,
) -> WorkloadRun {
    let mut hw = hw.clone();
    hw.governor = GovernorConfig::online();
    let mut run = run_workload(w, profiled, ccfg, &hw);
    run.compiler = "governed";
    run
}

/// Interpreter steps the first-pass profile of [`early_window_profile`]
/// sees: roughly phase 1 of `synthetic::phase_flip(72_000, 60_000, 40)`.
const EARLY_WINDOW_STEPS: u64 = 900_000;

/// Profiles `w` the way a first-pass JIT does: the branch profile covers
/// only the early execution window, so on the phase-flip stressor it closes
/// before the branch flips. The reference checksum and step count still come
/// from the full run.
///
/// # Panics
/// Panics if `w` fails to interpret.
pub fn early_window_profile(w: &Workload) -> ProfiledWorkload {
    let mut profiled = profile_workload(w);
    let mut early = Interp::new(&w.program).with_profiling();
    early.set_fuel(EARLY_WINDOW_STEPS);
    let _ = early.run(&[]); // fuel exhaustion expected
    profiled.profile = early.profile;
    profiled
}

/// Abort-rate threshold above which a method is recompiled without regions
/// (the paper: "an abort rate of even a few percent can have a significant
/// impact").
pub const ABORT_RATE_THRESHOLD: f64 = 0.01;

/// Result of the adaptive experiment.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// First (fully speculative) run.
    pub first: WorkloadRun,
    /// Second run after recompiling high-abort methods.
    pub second: WorkloadRun,
    /// Methods that were de-speculated.
    pub recompiled: Vec<MethodId>,
}

/// Runs `w` under `ccfg`, identifies methods whose regions exceed the abort
/// threshold, recompiles them without regions, and re-runs.
///
/// # Panics
/// Panics if either run diverges from the interpreter's checksum.
pub fn run_adaptive(
    w: &Workload,
    profiled: &ProfiledWorkload,
    ccfg: &CompilerConfig,
    hw: &HwConfig,
) -> AdaptiveOutcome {
    let first = run_workload(w, profiled, ccfg, hw);

    // Diagnose: methods with any region whose abort rate exceeds the
    // threshold (the hardware reports which region aborted, §3.2).
    let mut offenders: HashSet<MethodId> = HashSet::new();
    for ((method, _region), c) in first.stats.per_region.iter() {
        if c.entries > 0 && c.aborts as f64 / c.entries as f64 > ABORT_RATE_THRESHOLD {
            offenders.insert(method);
        }
    }

    // Recompile: offenders fall back to the non-atomic pipeline.
    let fallback = CompilerConfig::no_atomic();
    let mut code = CodeCache::new();
    for m in w.program.method_ids() {
        let cfg = if offenders.contains(&m) {
            &fallback
        } else {
            ccfg
        };
        let c = compile_method(&w.program, &profiled.profile, m, cfg);
        code.install(m, lower(&c.func));
    }
    let mut mach = Machine::new(&w.program, &code, hw.clone());
    mach.set_fuel(w.fuel.saturating_mul(4));
    mach.run(&[])
        .unwrap_or_else(|e| panic!("adaptive rerun of {} failed: {e}", w.name));
    assert_eq!(
        mach.env.checksum(),
        profiled.reference_checksum,
        "adaptive recompilation broke {}",
        w.name
    );

    let stats = mach.stats().clone();
    let pred = mach.way_pred_stats();
    let samples =
        extract_samples(w, &stats).unwrap_or_else(|e| panic!("adaptive rerun of {}: {e}", w.name));
    let second = WorkloadRun {
        workload: first.workload,
        compiler: "adaptive",
        hardware: first.hardware,
        stats,
        samples,
        static_uops: code.static_uops(),
        pred,
    };
    let mut recompiled: Vec<MethodId> = offenders.into_iter().collect();
    recompiled.sort();
    AdaptiveOutcome {
        first,
        second,
        recompiled,
    }
}
