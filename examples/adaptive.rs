//! Adaptive recompilation (paper §7, future work): the hardware's abort
//! reason/PC registers identify regions whose profile went stale; methods
//! above the abort-rate threshold are recompiled without speculation.
//!
//! The workload's hot branch flips bias after the profiling window — cold
//! during warm-up, ~40% taken in the measured phase — so every atomic region
//! formed from the profile keeps aborting, exactly the failure the paper's
//! reactive loop exists for.
//!
//! ```bash
//! cargo run --release --example adaptive
//! ```

use hasp_experiments::adaptive::{early_window_profile, run_adaptive, ABORT_RATE_THRESHOLD};
use hasp_experiments::run_workload;
use hasp_hw::HwConfig;
use hasp_opt::CompilerConfig;
use hasp_workloads::synthetic;

fn main() {
    // One hot loop whose "odd" branch flips from 0% to 40% taken at
    // i = 60000 — after the first-pass profiling window closes.
    let w = synthetic::phase_flip(72_000, 60_000, 40);
    println!("profiling {} ...", w.name);
    // The JVM's first-pass profiler only sees the early execution window —
    // phase 2 has not happened yet when the optimizer runs.
    let profiled = early_window_profile(&w);

    let baseline = run_workload(
        &w,
        &profiled,
        &CompilerConfig::no_atomic(),
        &HwConfig::baseline(),
    );

    println!("running speculative → diagnosing → recompiling → re-running ...");
    let outcome = run_adaptive(
        &w,
        &profiled,
        &CompilerConfig::atomic(),
        &HwConfig::baseline(),
    );

    let f = &outcome.first.stats;
    let s = &outcome.second.stats;
    println!(
        "\nbaseline  (no-atomic) : cycles {:>9}",
        baseline.stats.cycles
    );
    println!(
        "first run (atomic)    : cycles {:>9}  aborts {:>6} ({:.2}% of regions)",
        f.cycles,
        f.total_aborts(),
        f.abort_rate() * 100.0
    );
    println!(
        "methods over the {:.0}% abort threshold: {:?}",
        ABORT_RATE_THRESHOLD * 100.0,
        outcome
            .recompiled
            .iter()
            .map(|m| w.program.method(*m).name.clone())
            .collect::<Vec<_>>()
    );
    println!(
        "second run (adaptive) : cycles {:>9}  aborts {:>6} ({:.2}% of regions)",
        s.cycles,
        s.total_aborts(),
        s.abort_rate() * 100.0
    );

    let d = (f.cycles as f64 / s.cycles as f64 - 1.0) * 100.0;
    println!("\nadaptive recompilation changed execution time by {d:+.1}%");
    println!(
        "(the paper: \"an abort rate of even a few percent can have a\n\
         significant impact on performance\" — reactive recompilation is the\n\
         proposed remedy)"
    );
}
