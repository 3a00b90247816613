//! Experiment driver: prints every regenerated table and figure, or — with
//! the `faults` subcommand — runs the fault-injection campaign and writes
//! the `BENCH_faults.json` resilience report (`faults --smoke` for the
//! CI-sized slice; `faults --knee` instead binary-searches each workload's
//! highest tolerated conflict rate and writes `BENCH_knee.json`), or — with
//! the `bench-dispatch` subcommand — races the per-uop and superblock
//! dispatch engines over the suite and writes `BENCH_dispatch.json`, or —
//! with `serve` / `mt` — runs the worker-pool harness (pooled machines, one
//! lock-free published code cache; `mt` attaches every worker to one shared
//! coherence directory) and writes `BENCH_service.json` / `BENCH_mt.json`.

use hasp_experiments::figures;
use hasp_experiments::{dispatch_bench, faults, service, Suite};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    match std::env::args().nth(1).as_deref() {
        None => print_figures(),
        Some("bench-dispatch") => bench_dispatch(smoke),
        Some("serve") => pool(smoke, false),
        Some("mt") => pool(smoke, true),
        Some("faults") => {
            // `--injected` is accepted as the explicit name for what this
            // campaign always is: the deterministic fault-injection ablation
            // (organic conflicts live in the `mt` harness).
            let injected = std::env::args().any(|a| a == "--injected");
            if std::env::args().any(|a| a == "--knee") {
                knee_sweep(smoke);
            } else {
                fault_campaign(smoke, injected);
            }
        }
        Some(other) => {
            eprintln!(
                "unknown subcommand `{other}` (expected no argument, `bench-dispatch [--smoke]`, \
                 `serve [--smoke]`, `mt [--smoke]`, or `faults [--knee] [--injected] [--smoke]`)"
            );
            std::process::exit(2);
        }
    }
}

/// The worker-pool benchmark: `serve` (coherence off) or `mt` (every
/// worker attached to one shared coherence directory).
fn pool(smoke: bool, coherence: bool) {
    let (name, artifact) = if coherence {
        ("mt", "BENCH_mt")
    } else {
        ("serve", "BENCH_service")
    };
    eprintln!(
        "{name}: {} run, worker-pool scaling sweep, coherence {}",
        if smoke { "smoke" } else { "full" },
        if coherence { "on" } else { "off" }
    );
    let t0 = std::time::Instant::now();
    let report = if coherence {
        service::run_mt(smoke)
    } else {
        service::run_service(smoke)
    };
    let wall = t0.elapsed().as_secs_f64();
    print!("{}", report.table());
    // The smoke slice goes to its own (gitignored) file so a CI run never
    // clobbers the committed full artifact.
    let path = if smoke {
        format!("{artifact}_smoke.json")
    } else {
        format!("{artifact}.json")
    };
    std::fs::write(&path, report.json(wall)).expect("write pool bench artifact");
    eprintln!(
        "wrote {path} (modeled top speedup {:.2}x, {} emergent aborts, max tier {}, \
         host cores {}, in {wall:.1}s)",
        report.top_speedup(),
        report.emergent_total(),
        report.max_tier(),
        report.host_cores
    );
    let problems = report.problems();
    for p in &problems {
        eprintln!("FAILED: {p}");
    }
    if !problems.is_empty() {
        std::process::exit(1);
    }
}

fn bench_dispatch(smoke: bool) {
    eprintln!(
        "bench-dispatch: {} sweep, per-uop vs superblock",
        if smoke { "smoke" } else { "full" }
    );
    let t0 = std::time::Instant::now();
    let report = dispatch_bench::run_bench(smoke);
    let wall = t0.elapsed().as_secs_f64();
    print!("{}", report.table());
    let json = report.json(smoke, wall);
    // The smoke slice goes to its own file so a CI run never clobbers the
    // committed full-suite artifact.
    let path = if smoke {
        "BENCH_dispatch_smoke.json"
    } else {
        "BENCH_dispatch.json"
    };
    std::fs::write(path, &json).expect("write dispatch bench artifact");
    eprintln!(
        "wrote {path} (geomean speedup {:.2}x, cache-off ceiling {:.2}x, \
         predictor uplift {:.2}x, in {wall:.1}s)",
        report.geomean_speedup(),
        report.geomean_cache_off(),
        report.geomean_pred_speedup()
    );
}

fn fault_campaign(smoke: bool, injected: bool) {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    eprintln!(
        "fault campaign ({}): {} sweep on {threads} threads",
        if injected {
            "injected ablation, explicit"
        } else {
            "injected ablation"
        },
        if smoke { "smoke" } else { "full" }
    );
    let t0 = std::time::Instant::now();
    let report = faults::run_campaign(smoke, threads);
    let wall = t0.elapsed().as_secs_f64();
    print!("{}", report.table());
    let json = report.json(smoke, threads, wall);
    std::fs::write("BENCH_faults.json", &json).expect("write BENCH_faults.json");
    eprintln!(
        "wrote BENCH_faults.json ({} cells in {wall:.1}s)",
        report.cells.len()
    );
    if !report.all_passed() || !report.tiers_consistent() {
        for c in report.failures() {
            eprintln!(
                "FAILED cell: {} / {} @ {}: {}",
                c.workload,
                c.kind.name(),
                c.rate,
                c.result.as_ref().unwrap_err()
            );
        }
        for r in &report.reforms {
            if let Some(e) = &r.error {
                eprintln!("FAILED reform row: {}: {e}", r.workload);
            }
        }
        if !report.tiers_consistent() {
            eprintln!("FAILED: governor tier counters imbalanced (enters != exits + live)");
        }
        std::process::exit(1);
    }
}

fn knee_sweep(smoke: bool) {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    eprintln!(
        "knee sweep: {} workload set on {threads} threads (threshold {}x)",
        if smoke { "smoke" } else { "full" },
        faults::KNEE_THRESHOLD
    );
    let t0 = std::time::Instant::now();
    let report = faults::run_knee(smoke, threads);
    let wall = t0.elapsed().as_secs_f64();
    print!("{}", report.table());
    let json = report.json(smoke, threads, wall);
    // The smoke slice goes to its own (gitignored) file so a CI run never
    // clobbers the committed full-suite artifact.
    let path = if smoke {
        "BENCH_knee_smoke.json"
    } else {
        "BENCH_knee.json"
    };
    std::fs::write(path, &json).expect("write knee artifact");
    eprintln!(
        "wrote {path} ({} workloads in {wall:.1}s)",
        report.rows.len()
    );
    if !report.all_passed() {
        for r in &report.rows {
            if let Some(e) = &r.error {
                eprintln!("FAILED row: {}: {e}", r.workload);
            }
        }
        std::process::exit(1);
    }
}

fn print_figures() {
    let t0 = std::time::Instant::now();
    let mut suite = Suite::new();
    // Fill the whole matrix through the parallel pipeline up front; the
    // figure generators below then read from cache.
    let cells = suite.full_matrix();
    suite.run_all(&cells);
    println!("{}", figures::table2(&suite));
    let (_, s) = figures::fig1(&mut suite);
    println!("{s}");
    let (_, s) = figures::fig7(&mut suite);
    println!("{s}");
    let (_, s) = figures::fig8(&mut suite);
    println!("{s}");
    let (_, s) = figures::table3(&mut suite);
    println!("{s}");
    let (_, s) = figures::fig9(&mut suite);
    println!("{s}");
    let (_, s) = figures::sec62(&mut suite);
    println!("{s}");
    let (_, s) = figures::sec63(&mut suite);
    println!("{s}");
    let (_, s) = figures::uop_mix(&mut suite);
    println!("{s}");
    eprintln!(
        "total wall time: {:.1}s ({} worker threads)",
        t0.elapsed().as_secs_f64(),
        suite.threads()
    );
}
