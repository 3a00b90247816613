//! Smoke-sized runs of the benchmark. They exercise the release binary,
//! so run them with `cargo test --release --manifest-path
//! perfbench/Cargo.toml`; debug builds skip them.

use std::process::Command;
use std::time::Instant;

use hasp_opt::CompilerConfig;
use perfbench::layers::PROGRAMS;
use perfbench::pipeline::{compile, compile_traced, profile, same_product};
use perfbench::trace::Tracer;

/// End-to-end metrics every workload prints with tracing off.
const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("sim_muops_per_s", "Muop/s"),
];

/// Each workload's metrics under its own names (the `report` line).
fn report_metrics(workload: &str) -> Vec<(&'static str, &'static str)> {
    let mut v = vec![
        ("setup_s", "s"),
        ("peak_rss_mb", "MB"),
        ("failed_share", "fraction"),
        ("host_speed", "fraction"),
        ("sim_cycles", "cycles"),
    ];
    v.extend(match workload {
        "cold_start" => vec![
            ("cold_programs_per_s", "1/s"),
            ("cold_ms_p50", "ms"),
            ("cold_ms_p90", "ms"),
        ],
        "steady_sim" => vec![
            ("sim_muops_per_s", "Muop/s"),
            ("sim_run_ms_p50", "ms"),
            ("sim_run_ms_p90", "ms"),
            ("atomic_speedup_pct", "%"),
        ],
        _ => vec![
            ("shared_rps", "1/s"),
            ("shared_ms_p50", "ms"),
            ("shared_ms_p99", "ms"),
            ("directory_identity_gap", "count"),
        ],
    });
    v
}

/// Per-layer metrics with their units, as listed for the traced run.
fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &str)> = vec![
        ("vm.interp.ms".into(), "ms"),
        ("vm.interp.steps".into(), "count"),
        ("ir.translate.ms".into(), "ms"),
        ("opt.inline.sites".into(), "count"),
        ("opt.ir_insts".into(), "count"),
        ("core.form.ms".into(), "ms"),
        ("core.form.regions".into(), "count"),
        ("hw.lower.ms".into(), "ms"),
        ("hw.install.ms".into(), "ms"),
        ("hw.static_uops".into(), "count"),
        ("hw.machine.ms".into(), "ms"),
        ("hw.machine.ns_per_uop".into(), "ns"),
        ("hw.machine.cycles".into(), "cycles"),
        ("hw.machine.commit_ratio".into(), "fraction"),
        ("hw.machine.region_uop_share".into(), "fraction"),
        ("hw.bpred.mispredicts".into(), "count"),
        ("hw.cache.l1_hit_rate".into(), "fraction"),
        ("hw.cache.pred_hit_rate".into(), "fraction"),
        ("hw.machine.conflict_aborts_per_muop".into(), "1/Muop"),
        ("hw.machine.attach_ms".into(), "ms"),
        ("hw.machine.detach_ms".into(), "ms"),
        ("hw.coherence.identity_gap".into(), "count"),
        ("hw.governor.lock_subscriptions".into(), "count"),
        ("hw.governor.lock_holds".into(), "count"),
        ("bench.trace_overhead_pct".into(), "%"),
    ];
    for p in PROGRAMS {
        v.push((format!("vm.interp.ms.{p}"), "ms"));
        v.push((format!("core.form.ms.{p}"), "ms"));
    }
    for pass in [
        "inline",
        "gvn",
        "constprop",
        "dce",
        "simplify",
        "sle",
        "safepoint",
        "unroll",
    ] {
        v.push((format!("opt.{pass}.ms"), "ms"));
    }
    for m in ["uops", "commits", "aborts"] {
        v.push((format!("hw.machine.{m}"), "count"));
    }
    for m in ["mem_accesses", "l2_hits"] {
        v.push((format!("hw.cache.{m}"), "count"));
    }
    for m in [
        "publishes",
        "invalidations",
        "downgrades",
        "signaled",
        "sig_aborts",
        "sig_raced",
    ] {
        v.push((format!("hw.coherence.{m}"), "count"));
    }
    for t in 1..=3 {
        v.push((format!("hw.governor.tier_enters.t{t}"), "count"));
    }
    v
}

/// Runs the benchmark binary and returns its standard output lines.
fn run(workload: &str, trace: u8) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "0.2"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .map(str::to_string)
        .collect()
}

fn assert_has(line: &str, name: &str, unit: &str) {
    let entry = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&entry)
        .unwrap_or_else(|| panic!("{name} missing from {line}"));
    let rest = &line[at + entry.len()..];
    let close = rest.find('}').expect("entry closes");
    assert!(
        rest[..close].ends_with(&format!("\"unit\": \"{unit}\"")),
        "{name} lacks unit {unit}: {}",
        &rest[..close]
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs the optimised benchmark; use --release"
)]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in ["cold_start", "steady_sim", "shared_asid"] {
        let untraced = run(workload, 0);
        let last = untraced.last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0, "), "{last}");
        for (name, unit) in E2E {
            assert_has(last, name, unit);
        }
        let report = untraced
            .iter()
            .find(|l| l.starts_with(&format!("report {workload} ")))
            .expect("a report line");
        for (name, unit) in report_metrics(workload) {
            assert_has(report, name, unit);
        }
        assert!(untraced.iter().any(|l| l.starts_with("cell ")));

        let traced = run(workload, 1);
        let last = traced.last().expect("a result line");
        assert!(last.starts_with("{\"correct\": true, "), "{last}");
        for (name, unit) in layer_metrics() {
            assert_has(last, &name, unit);
        }
        // The exact simulated counters do not depend on tracing.
        let digest = |lines: &[String]| {
            lines
                .iter()
                .find(|l| l.starts_with("digest "))
                .cloned()
                .expect("a digest line")
        };
        assert_eq!(digest(&untraced), digest(&traced), "{workload}");
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "compiles every program twice; use --release"
)]
fn traced_redrive_equals_compile_program() {
    let mut tr = Tracer::new(true, Instant::now());
    for w in hasp_workloads::all_workloads() {
        let prof = profile(&w, 1, &mut tr).expect("profiles");
        for cfg in [
            CompilerConfig::no_atomic(),
            CompilerConfig::atomic_aggressive(),
        ] {
            let plain = compile(&w, &prof, &cfg);
            let traced = compile_traced(&w, &prof, &cfg, &mut tr).expect("verifies");
            assert!(same_product(&plain, &traced), "{} / {}", w.name, cfg.name);
        }
    }
    assert!(tr.spans().iter().any(|s| s.name == "core.form"));
}

#[test]
fn usage_errors_exit_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--workload", "cold_start", "--trace", "2"],
        vec!["--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
