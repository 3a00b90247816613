//! Integration test for the online abort-recovery governor: a pmd-style
//! workload whose hot-branch bias flips after the profiling window keeps
//! aborting its regions forever under a stale profile. The governor must
//! convert that sustained-abort run to ≈ no-atomic performance *within a
//! single run* — the single-run replacement for the offline two-pass
//! adaptive-recompilation ablation.

use hasp_experiments::adaptive::{early_window_profile, run_adaptive, run_governed};
use hasp_experiments::run_workload;
use hasp_hw::HwConfig;
use hasp_opt::CompilerConfig;
use hasp_workloads::synthetic;

#[test]
fn governor_converts_sustained_aborts_to_baseline_performance() {
    let w = synthetic::phase_flip(72_000, 60_000, 40);
    // A first-pass JIT profiles only the early execution window — phase 2
    // has not happened yet when the optimizer runs.
    let profiled = early_window_profile(&w);

    let hw = HwConfig::baseline();
    let ccfg = CompilerConfig::atomic();
    let base = run_workload(&w, &profiled, &CompilerConfig::no_atomic(), &hw);
    let ungoverned = run_workload(&w, &profiled, &ccfg, &hw);
    let governed = run_governed(&w, &profiled, &ccfg, &hw);

    eprintln!(
        "cycles: base {} ungoverned {} governed {} | aborts: ungoverned {} governed {} | \
         disables {} skips {} reenables {}",
        base.stats.cycles,
        ungoverned.stats.cycles,
        governed.stats.cycles,
        ungoverned.stats.total_aborts(),
        governed.stats.total_aborts(),
        governed.stats.governor_disables,
        governed.stats.governor_skips,
        governed.stats.governor_reenables,
    );

    // The stale profile makes the speculative binary abort persistently.
    assert!(
        ungoverned.stats.total_aborts() > 1_000,
        "phase flip must cause sustained aborts, got {}",
        ungoverned.stats.total_aborts()
    );

    // The governor de-speculates the offending region online: streaks hit
    // the retry budget, entries branch straight to the alternate PC, and
    // the abort storm collapses.
    assert!(governed.stats.governor_disables > 0, "governor engaged");
    assert!(
        governed.stats.governor_skips > 0,
        "entries were patched out"
    );
    assert!(
        governed.stats.total_aborts() < ungoverned.stats.total_aborts() / 4,
        "governed aborts {} must collapse vs ungoverned {}",
        governed.stats.total_aborts(),
        ungoverned.stats.total_aborts()
    );
    assert!(
        governed.stats.cycles <= ungoverned.stats.cycles,
        "de-speculation must not slow the run down"
    );

    // ≈ no-atomic performance within a single run.
    let ratio = governed.stats.cycles as f64 / base.stats.cycles as f64;
    assert!(
        ratio < 1.10,
        "governed run must land within 10% of the no-atomic baseline, got {ratio:.3}x"
    );
    assert_eq!(governed.compiler, "governed");

    // The governed single run matches (or beats) what the offline two-pass
    // ablation achieves with a full recompile in between.
    let outcome = run_adaptive(&w, &profiled, &ccfg, &hw);
    assert!(!outcome.recompiled.is_empty(), "ablation also diagnoses it");
    let vs_adaptive = governed.stats.cycles as f64 / outcome.second.stats.cycles as f64;
    assert!(
        vs_adaptive < 1.10,
        "one governed run ≈ the two-pass adaptive rerun, got {vs_adaptive:.3}x"
    );
}
