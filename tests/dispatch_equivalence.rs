//! The golden gate for superblock dispatch: for every suite workload, the
//! batched superblock engine must be *bit-identical* to the per-uop
//! reference loop — same checksum, same full `RunStats` (uops, cycles,
//! abort counts, uop-class mix, marker snaps), sample for sample. The
//! batched fuel/stats accounting is only a valid optimisation if no
//! observation point (marker snapshot, region boundary, fault) can tell
//! the two engines apart.
//!
//! A second leg drives the fault-injection smoke matrix under both
//! dispatch modes with the invariant validator on and compares outcomes
//! cell by cell: every fault kind runs on the chained engine, its injected
//! aborts stopping blocks at the same uops as the per-uop reference.

use hasp_experiments::{
    compile_workload, profile_workload, sweep_rates, try_execute_compiled, CompiledWorkload,
    ProfiledWorkload,
};
use hasp_hw::{Dispatch, FaultPlan, GovernorConfig, HwConfig, FAULT_KINDS};
use hasp_opt::CompilerConfig;
use hasp_workloads::{all_workloads, Workload};

fn per_uop_baseline() -> HwConfig {
    let mut hw = HwConfig::per_uop();
    // Same timing name so WorkloadRun equality only differs by stats if the
    // engines genuinely diverge.
    hw.name = HwConfig::baseline().name;
    hw
}

fn run_both(
    w: &Workload,
    profiled: &ProfiledWorkload,
    compiled: &CompiledWorkload,
    mut hw_sb: HwConfig,
    mut hw_pu: HwConfig,
) {
    hw_sb.dispatch = Dispatch::Superblock;
    hw_pu.dispatch = Dispatch::PerUop;
    let sb = try_execute_compiled(w, profiled, compiled, &hw_sb);
    let pu = try_execute_compiled(w, profiled, compiled, &hw_pu);
    match (sb, pu) {
        (Ok(sb), Ok(pu)) => {
            // Full-struct equality: uops, cycles, commits, aborts-by-reason,
            // uop-class mix, region histograms, marker snaps, and the
            // extracted samples all at once.
            assert_eq!(
                sb.stats, pu.stats,
                "{}: superblock stats diverged from per-uop reference",
                w.name
            );
            assert_eq!(sb.samples, pu.samples, "{}: samples diverged", w.name);
        }
        (sb, pu) => panic!(
            "{}: dispatch modes disagree on outcome:\n  superblock: {sb:?}\n  per-uop:    {pu:?}",
            w.name
        ),
    }
}

/// Every Table 2 workload, every paper compiler configuration: superblock
/// dispatch must reproduce the per-uop engine's stats exactly (checksum
/// equality is asserted inside `try_execute_compiled` against the
/// interpreter for both modes).
#[test]
fn all_workloads_identical_across_dispatch_modes() {
    for w in all_workloads() {
        let profiled = profile_workload(&w);
        for ccfg in CompilerConfig::paper_configs() {
            let compiled = compile_workload(&w, &profiled, &ccfg);
            run_both(
                &w,
                &profiled,
                &compiled,
                HwConfig::baseline(),
                per_uop_baseline(),
            );
        }
    }
}

/// The narrow machines and overhead models stress different fuel/cycle
/// arithmetic; the engines must still agree.
#[test]
fn hardware_variants_identical_across_dispatch_modes() {
    let ws = all_workloads();
    let w = ws.iter().find(|w| w.name == "xalan").expect("xalan");
    let profiled = profile_workload(w);
    let compiled = compile_workload(w, &profiled, &CompilerConfig::atomic_aggressive());
    for hw in [
        HwConfig::with_begin_overhead(),
        HwConfig::single_inflight(),
        HwConfig::two_wide(),
        HwConfig::two_wide_half(),
    ] {
        run_both(w, &profiled, &compiled, hw.clone(), hw);
    }
}

/// The mid-chain abort path must be exercised non-vacuously: a targeted
/// injection fires `aregion_abort` while the chained engine is deep in a
/// linked trace, so the suffix-unapply accounting and the post-abort
/// resync are what's under test — not just clean commits. The abort count
/// is asserted positive first, so this can never silently degenerate into
/// a commits-only run.
#[test]
fn mid_chain_abort_is_exercised_and_identical() {
    let ws = all_workloads();
    let w = ws.iter().find(|w| w.name == "jython").expect("jython");
    let profiled = profile_workload(w);
    let compiled = compile_workload(w, &profiled, &CompilerConfig::atomic_aggressive());
    for entry in [1, 7, 1000] {
        let mut hw_sb = HwConfig::baseline();
        hw_sb.faults = FaultPlan::abort_at(entry);
        let mut hw_pu = per_uop_baseline();
        hw_pu.faults = FaultPlan::abort_at(entry);
        let sb = try_execute_compiled(w, &profiled, &compiled, &hw_sb)
            .expect("superblock run with targeted abort");
        assert!(
            sb.stats.aborts.total() > 0,
            "targeted abort at entry {entry} never fired — the mid-chain \
             abort path went unexercised"
        );
        let pu = try_execute_compiled(w, &profiled, &compiled, &hw_pu)
            .expect("per-uop run with targeted abort");
        assert_eq!(
            sb.stats, pu.stats,
            "mid-chain abort (entry {entry}): superblock stats diverged"
        );
        assert_eq!(sb.samples, pu.samples, "entry {entry}: samples diverged");
    }
}

/// The fault smoke matrix (fop, pmd × every fault kind at its middle rate)
/// cell-by-cell under both dispatch modes, validated as the campaign runs
/// it. Neither injection nor the validator forces an engine, so every
/// kind runs on the chained engine, and the two engines' `validations`
/// counts are compared with the rest of `RunStats`.
#[test]
fn fault_smoke_matrix_identical_across_dispatch_modes() {
    let mut workloads = all_workloads();
    workloads.retain(|w| w.name == "fop" || w.name == "pmd");
    let ccfg = CompilerConfig::atomic_aggressive();
    for w in &workloads {
        let profiled = profile_workload(w);
        let compiled = compile_workload(w, &profiled, &ccfg);
        for kind in FAULT_KINDS {
            let rate = sweep_rates(kind)[1];
            let mut hw = HwConfig::baseline();
            hw.faults = kind.plan(rate);
            hw.governor = GovernorConfig::online();
            hw.validate = true;
            run_both(w, &profiled, &compiled, hw.clone(), hw);
        }
        // And the clean cell with the governor online, for symmetry.
        let mut hw = HwConfig::baseline();
        hw.faults = FaultPlan::none();
        hw.governor = GovernorConfig::online();
        hw.validate = true;
        run_both(w, &profiled, &compiled, hw.clone(), hw);
    }
}
