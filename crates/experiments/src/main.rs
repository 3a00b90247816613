//! Experiment driver: prints every regenerated table and figure and the
//! ablation studies, or — with the `faults` subcommand — runs the
//! fault-injection campaign and writes the `BENCH_faults.json` resilience
//! report (`faults --knee` instead binary-searches each workload's highest
//! tolerated conflict rate and writes `BENCH_knee.json`), or — with the
//! `bench-dispatch` subcommand — races the per-uop and superblock dispatch
//! engines over the suite and writes `BENCH_dispatch.json`, or — with
//! `serve` / `mt` — runs the worker-pool harness (pooled machines, one code
//! cache handed out with each batch by the work queue; `mt` attaches every
//! worker to one shared coherence directory) and writes
//! `BENCH_service.json` / `BENCH_mt.json`.
//! `--smoke` runs each artifact's CI slice and writes `BENCH_*_smoke.json`
//! instead. `inspect <workload> [config] [--dot]` explains one workload's
//! compile and run (see `hasp_experiments::inspect`).

use hasp_experiments::figures;
use hasp_experiments::{dispatch_bench, faults, inspect, service, Suite};

const USAGE: &str = "usage: experiments [bench-dispatch [--smoke] | serve [--smoke] | \
                     mt [--smoke] | faults [--knee] [--smoke] | \
                     inspect <workload> [config] [--dot]]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return print_figures();
    };
    match cmd.as_str() {
        "bench-dispatch" => bench_dispatch(flags(rest, ["--smoke"])[0]),
        "serve" => pool(flags(rest, ["--smoke"])[0], false),
        "mt" => pool(flags(rest, ["--smoke"])[0], true),
        "faults" => {
            let [knee, smoke] = flags(rest, ["--knee", "--smoke"]);
            if knee {
                knee_sweep(smoke);
            } else {
                fault_campaign(smoke);
            }
        }
        "inspect" => {
            let dot = rest.iter().any(|a| a == "--dot");
            let names: Vec<&String> = rest.iter().filter(|a| *a != "--dot").collect();
            let (workload, config) = match names[..] {
                [w] => (w.as_str(), "atomic"),
                [w, c] => (w.as_str(), c.as_str()),
                _ => usage("`inspect` takes a workload, an optional config and `--dot`"),
            };
            print!(
                "{}",
                inspect::inspect(workload, config, dot).unwrap_or_else(|e| usage(&e))
            );
        }
        other => usage(&format!("unknown subcommand `{other}`")),
    }
}

/// Prints `problem` and the usage line, and exits 2.
fn usage(problem: &str) -> ! {
    eprintln!("{problem}\n{USAGE}");
    std::process::exit(2);
}

/// Which of the `allowed` flags `args` sets; any other argument is a usage
/// error.
fn flags<const N: usize>(args: &[String], allowed: [&str; N]) -> [bool; N] {
    let mut set = [false; N];
    for a in args {
        match allowed.iter().position(|f| f == a) {
            Some(k) => set[k] = true,
            None => usage(&format!("unknown argument `{a}`")),
        }
    }
    set
}

/// Writes `BENCH_<name>.json`, or the gitignored `BENCH_<name>_smoke.json`
/// for a smoke run so that a CI run never clobbers a committed full
/// artifact, and returns the path written.
fn write_artifact(name: &str, smoke: bool, json: &str) -> String {
    let path = format!("BENCH_{name}{}.json", if smoke { "_smoke" } else { "" });
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    path
}

/// The worker-pool benchmark: `serve` (coherence off) or `mt` (every
/// worker attached to one shared coherence directory).
fn pool(smoke: bool, coherence: bool) {
    let (name, artifact) = if coherence {
        ("mt", "mt")
    } else {
        ("serve", "service")
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
    let path = write_artifact(artifact, smoke, &report.json(wall));
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
    let path = write_artifact("dispatch", smoke, &report.json(smoke, wall));
    eprintln!(
        "wrote {path} (geomean speedup {:.2}x, predictor uplift {:.2}x, in {wall:.1}s)",
        report.geomean_speedup(),
        report.geomean_pred_speedup()
    );
}

fn fault_campaign(smoke: bool) {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    eprintln!(
        "fault campaign (injected ablation): {} sweep on {threads} threads",
        if smoke { "smoke" } else { "full" }
    );
    let t0 = std::time::Instant::now();
    let report = faults::run_campaign(smoke, threads);
    let wall = t0.elapsed().as_secs_f64();
    print!("{}", report.table());
    let path = write_artifact("faults", smoke, &report.json(smoke, threads, wall));
    eprintln!("wrote {path} ({} cells in {wall:.1}s)", report.cells.len());
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
    let path = write_artifact("knee", smoke, &report.json(smoke, threads, wall));
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
    let (_, s) = figures::ablations(&mut suite);
    println!("{s}");
    let (_, s) = figures::uop_mix(&mut suite);
    println!("{s}");
    eprintln!(
        "total wall time: {:.1}s ({} worker threads)",
        t0.elapsed().as_secs_f64(),
        suite.threads()
    );
}
