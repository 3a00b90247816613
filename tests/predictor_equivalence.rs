//! Suite-level gate for the seal-site way predictor (DESIGN §16): for every
//! Table 2 workload, a run with the predictor armed (the production
//! default) must be *bit-identical* to a run with the predictor disabled —
//! same checksum, same full `RunStats` (uops, cycles, hit mix, abort
//! counts, marker snaps), sample for sample. A predicted index is only used
//! after a live tag compare proves the line still resides there, so no
//! observation point may be able to tell the two models apart; this gate is
//! what holds that claim to account across both dispatch engines.
//!
//! A fault-pressure leg repeats the comparison under targeted mid-chain
//! aborts, a tight injected line budget, and coherence-conflict spray:
//! aborts flash-clear the speculative epoch and overflows stress the LRU
//! victim choice — exactly the machinery a stale predictor entry would
//! corrupt if validation ever let one through. A third leg sweeps the §6.3
//! hardware variants, so the equivalence is not an artifact of the Table 1
//! geometry.

use hasp_experiments::{
    compile_workload, profile_workload, try_execute_compiled, CompiledWorkload, ProfiledWorkload,
};
use hasp_hw::{FaultPlan, HwConfig};
use hasp_opt::CompilerConfig;
use hasp_workloads::{all_workloads, Workload};

fn unpredicted_baseline() -> HwConfig {
    let mut hw = HwConfig::unpredicted();
    // Same timing name so the two runs differ only in stats if the models
    // genuinely diverge.
    hw.name = HwConfig::baseline().name;
    hw
}

fn run_both(
    w: &Workload,
    profiled: &ProfiledWorkload,
    compiled: &CompiledWorkload,
    predicted: HwConfig,
    unpredicted: HwConfig,
) {
    assert!(predicted.way_predict && !unpredicted.way_predict);
    let p = try_execute_compiled(w, profiled, compiled, &predicted);
    let u = try_execute_compiled(w, profiled, compiled, &unpredicted);
    match (p, u) {
        (Ok(p), Ok(u)) => {
            assert_eq!(
                p.stats, u.stats,
                "{}: predicted stats diverged from the unpredicted reference",
                w.name
            );
            assert_eq!(p.samples, u.samples, "{}: samples diverged", w.name);
            assert_eq!(
                u.pred.probes, 0,
                "{}: disabled predictor must never be consulted",
                w.name
            );
            assert!(
                p.pred.probes > 0,
                "{}: armed predictor was never consulted — the gate is vacuous",
                w.name
            );
        }
        (p, u) => panic!(
            "{}: cache models disagree on outcome:\n  predicted:   {p:?}\n  unpredicted: {u:?}",
            w.name
        ),
    }
}

/// Every suite workload under the aggressive paper configuration, on the
/// superblock engine: the predicted model must reproduce the unpredicted
/// model's stats exactly (checksum equality is asserted inside
/// `try_execute_compiled` against the interpreter for both runs).
#[test]
fn all_workloads_identical_across_predictor_models() {
    for w in all_workloads() {
        let profiled = profile_workload(&w);
        let compiled = compile_workload(&w, &profiled, &CompilerConfig::atomic_aggressive());
        run_both(
            &w,
            &profiled,
            &compiled,
            HwConfig::baseline(),
            unpredicted_baseline(),
        );
    }
}

/// The per-uop reference engine reaches the cache model through
/// `Machine::step` rather than the superblock interior loop, so its seal
/// sites arrive via a different dispatch path — gate that leg too.
#[test]
fn per_uop_engine_identical_across_predictor_models() {
    for w in all_workloads() {
        let profiled = profile_workload(&w);
        let compiled = compile_workload(&w, &profiled, &CompilerConfig::atomic_aggressive());
        let predicted = HwConfig::per_uop();
        let mut unpredicted = HwConfig::per_uop();
        unpredicted.way_predict = false;
        run_both(&w, &profiled, &compiled, predicted, unpredicted);
    }
}

/// Aborts bump the speculative epoch (flash clear) and overflow exercises
/// the LRU victim choice under speculative pressure; a predictor
/// entry trained before a mid-block abort must retrain through validation,
/// never stale-hit across the epoch. Drive all three fault kinds and
/// require identity cell by cell.
#[test]
fn fault_pressure_identical_across_predictor_models() {
    let ws = all_workloads();
    let w = ws.iter().find(|w| w.name == "jython").expect("jython");
    let profiled = profile_workload(w);
    let compiled = compile_workload(w, &profiled, &CompilerConfig::atomic_aggressive());
    for plan in [
        FaultPlan::abort_at(7),
        FaultPlan::overflow_budget(24),
        FaultPlan::conflicts(1_000),
    ] {
        let mut predicted = HwConfig::baseline();
        predicted.faults = plan.clone();
        let mut unpredicted = unpredicted_baseline();
        unpredicted.faults = plan;
        run_both(w, &profiled, &compiled, predicted, unpredicted);
    }
}

/// The §6.3 hardware variants change width, MLP, and cache geometry —
/// `two_wide_half`'s 2-way L1 is a shipped associativity with its own
/// tag-scan instantiation and a different victim pool — so the predictor
/// must stay exact under each, not just Table 1.
#[test]
fn hardware_variants_identical_across_predictor_models() {
    let ws = all_workloads();
    let w = ws.iter().find(|w| w.name == "fop").expect("fop");
    let profiled = profile_workload(w);
    let compiled = compile_workload(w, &profiled, &CompilerConfig::atomic_aggressive());
    for predicted in [
        HwConfig::with_begin_overhead(),
        HwConfig::single_inflight(),
        HwConfig::two_wide(),
        HwConfig::two_wide_half(),
    ] {
        let mut unpredicted = predicted.clone();
        unpredicted.way_predict = false;
        run_both(w, &profiled, &compiled, predicted, unpredicted);
    }
}
