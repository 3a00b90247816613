//! Microbenchmark for the machine's dispatch engines: every suite workload
//! executed under per-uop dispatch and under superblock dispatch, reporting
//! retired uops/second for both and the speedup ratio. This quantifies the
//! tentpole claim that batched superblock accounting (one frame borrow, one
//! fuel/stats update per block) beats the per-uop reference loop — while
//! `tests/dispatch_equivalence.rs` proves the two are bit-identical.
//!
//! The artifact is `BENCH_dispatch.json`; the suite geomean speedup is the
//! headline number. A third leg disables the seal-site way predictor
//! (`HwConfig::unpredicted`): the same-binary A/B that prices the predictor
//! (DESIGN §16), with per-workload hit rates alongside so a dead predictor
//! cannot hide behind a noisy uplift.

use hasp_bench::best_of_interleaved;
use hasp_hw::{Dispatch, HwConfig};
use hasp_opt::CompilerConfig;
use hasp_workloads::all_workloads;

use crate::report::{num, JsonArr, JsonObj, Table};
use crate::runner::{compile_workload, execute_compiled, profile_workload};

/// Timed executions per (workload × mode); the minimum wall time is kept so
/// scheduler noise inflates neither leg.
const REPS: usize = 9;

/// One workload's measurement under both dispatch engines.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchRow {
    /// Workload name.
    pub workload: &'static str,
    /// Retired uops per run (identical across modes by construction).
    pub uops: u64,
    /// Wall seconds under per-uop dispatch, best of the report's `reps` runs.
    pub per_uop_s: f64,
    /// Wall seconds under superblock dispatch, best of `reps` runs.
    pub superblock_s: f64,
    /// Wall seconds, best of `reps` runs, under superblock dispatch with the
    /// seal-site way predictor disabled (`HwConfig::unpredicted`) — the
    /// same-binary A/B leg that prices the predictor (DESIGN §16).
    /// Semantics-preserving (the equivalence gates prove it bit-identical),
    /// so its uop count is asserted equal to the shipped leg's.
    pub unpredicted_s: f64,
    /// Seal-site way-predictor consults during the superblock warm run
    /// (DESIGN §16) — every access with a sealed seal site.
    pub pred_probes: u64,
    /// Tag-validated predictor hits among those consults: accesses whose
    /// set scan and install path the predictor skipped.
    pub pred_hits: u64,
}

impl DispatchRow {
    /// Retired uops per wall second under per-uop dispatch.
    pub fn per_uop_rate(&self) -> f64 {
        self.uops as f64 / self.per_uop_s
    }

    /// Retired uops per wall second under superblock dispatch.
    pub fn superblock_rate(&self) -> f64 {
        self.uops as f64 / self.superblock_s
    }

    /// Superblock speedup over per-uop (ratio of uops/sec; >1 is faster).
    pub fn speedup(&self) -> f64 {
        self.per_uop_s / self.superblock_s
    }

    /// Way-predictor hit rate over its consults (0 when never consulted).
    pub fn pred_rate(&self) -> f64 {
        if self.pred_probes == 0 {
            0.0
        } else {
            self.pred_hits as f64 / self.pred_probes as f64
        }
    }

    /// Same-binary predictor uplift on the shipped engine: unpredicted
    /// wall time over predicted wall time (>1 means the predictor pays).
    pub fn pred_speedup(&self) -> f64 {
        self.unpredicted_s / self.superblock_s
    }
}

/// The dispatch benchmark result over the workload suite.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchBenchReport {
    /// Per-workload measurements.
    pub rows: Vec<DispatchRow>,
}

impl DispatchBenchReport {
    /// Geometric-mean speedup across the suite (the headline number).
    pub fn geomean_speedup(&self) -> f64 {
        if self.rows.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self.rows.iter().map(|r| r.speedup().ln()).sum();
        (log_sum / self.rows.len() as f64).exp()
    }

    /// Geometric-mean same-binary predictor uplift across the suite.
    pub fn geomean_pred_speedup(&self) -> f64 {
        if self.rows.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self.rows.iter().map(|r| r.pred_speedup().ln()).sum();
        (log_sum / self.rows.len() as f64).exp()
    }

    /// Renders the benchmark table.
    pub fn table(&self) -> String {
        let mut t = Table::new(
            "Dispatch engines: per-uop vs superblock (retired uops/sec)",
            &[
                "workload",
                "uops",
                "per-uop/s",
                "superblock/s",
                "speedup",
                "pred%",
                "predx",
            ],
        );
        for r in &self.rows {
            t.row(&[
                r.workload.into(),
                r.uops.to_string(),
                format!("{:.2}M", r.per_uop_rate() / 1e6),
                format!("{:.2}M", r.superblock_rate() / 1e6),
                format!("{}x", num(r.speedup(), 2)),
                format!("{:.1}", r.pred_rate() * 100.0),
                format!("{}x", num(r.pred_speedup(), 2)),
            ]);
        }
        t.row(&[
            "geomean".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            format!("{}x", num(self.geomean_speedup(), 2)),
            "-".into(),
            format!("{}x", num(self.geomean_pred_speedup(), 2)),
        ]);
        t.render()
    }

    /// Serializes the report as the `BENCH_dispatch.json` artifact.
    pub fn json(&self, smoke: bool, wall_s: f64) -> String {
        let mut rows = JsonArr::new();
        for r in &self.rows {
            rows = rows.obj(
                JsonObj::new()
                    .str("workload", r.workload)
                    .int("uops", r.uops)
                    .num("per_uop_s", r.per_uop_s)
                    .num("superblock_s", r.superblock_s)
                    .num("unpredicted_s", r.unpredicted_s)
                    .num("per_uop_uops_per_s", r.per_uop_rate())
                    .num("superblock_uops_per_s", r.superblock_rate())
                    .num("speedup", r.speedup())
                    .int("pred_probes", r.pred_probes)
                    .int("pred_hits", r.pred_hits)
                    .num("pred_rate", r.pred_rate())
                    .num("pred_speedup", r.pred_speedup()),
            );
        }
        JsonObj::new()
            .str("schema", "hasp-bench-dispatch-v6")
            .bool("smoke", smoke)
            .int("reps", REPS as u64)
            .num("wall_s", wall_s)
            .int("workloads", self.rows.len() as u64)
            .num("geomean_speedup", self.geomean_speedup())
            .num("geomean_pred_speedup", self.geomean_pred_speedup())
            .arr("per_workload", rows)
            .finish()
    }
}

/// Runs the dispatch benchmark. Smoke mode restricts to two representative
/// workloads (fop, pmd) — the CI-sized slice `scripts/check.sh` runs.
///
/// Profiling and compilation happen once per workload outside the timed
/// region; both engines then execute the *same* compiled code, so the only
/// measured difference is the dispatch loop itself.
pub fn run_bench(smoke: bool) -> DispatchBenchReport {
    let mut workloads = all_workloads();
    if smoke {
        workloads.retain(|w| w.name == "fop" || w.name == "pmd");
    }
    let ccfg = CompilerConfig::atomic_aggressive();
    let sb_hw = HwConfig::baseline();
    let pu_hw = HwConfig::per_uop();
    let up_hw = HwConfig::unpredicted();
    debug_assert_eq!(sb_hw.dispatch, Dispatch::Superblock);
    debug_assert_eq!(pu_hw.dispatch, Dispatch::PerUop);
    debug_assert!(sb_hw.way_predict && !up_hw.way_predict);

    let rows = workloads
        .iter()
        .map(|w| {
            let profiled = profile_workload(w);
            let compiled = compile_workload(w, &profiled, &ccfg);
            // The shared scaffold (`hasp_bench::scaffold`): one untimed
            // warm run per leg, then best-of-REPS interleaved round-robin
            // across the legs so host-speed drift degrades every leg
            // alike. Each timed rep must retire the warm run's exact uop
            // count — a leg can never get faster by doing different work.
            let legs = [&pu_hw, &sb_hw, &up_hw];
            let out = best_of_interleaved(
                REPS,
                legs.len(),
                |k| execute_compiled(w, &profiled, &compiled, legs[k]),
                |_, rep, warm| assert_eq!(rep.stats.uops, warm.stats.uops, "{}", w.name),
            );
            let (warm, best) = (out.warm, out.best_s);
            let [per_uop_s, superblock_s, unpredicted_s] = best.try_into().expect("three legs");
            let (pu_warm, sb_warm, up_warm) = (&warm[0], &warm[1], &warm[2]);
            let (pu_uops, sb_uops) = (pu_warm.stats.uops, sb_warm.stats.uops);
            assert_eq!(
                pu_uops, sb_uops,
                "{}: engines retired different uop counts",
                w.name
            );
            // The predictor is semantics-preserving, so the A/B leg must
            // retire the exact same uop stream as the shipped leg (the
            // equivalence test suite asserts full-stats identity; this
            // keeps the bench honest about comparing equal work).
            assert_eq!(
                up_warm.stats.uops, sb_uops,
                "{}: unpredicted A/B leg retired different uop counts",
                w.name
            );
            DispatchRow {
                workload: w.name,
                uops: sb_uops,
                per_uop_s,
                superblock_s,
                unpredicted_s,
                // The superblock (shipped-config) run is the leg the
                // predictor serves; its warm run is deterministic, so these
                // counters are stable across reps.
                pred_probes: sb_warm.pred.probes,
                pred_hits: sb_warm.pred.hits,
            }
        })
        .collect();

    DispatchBenchReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_and_rates_are_consistent() {
        let report = DispatchBenchReport {
            rows: vec![
                DispatchRow {
                    workload: "a",
                    uops: 1_000_000,
                    per_uop_s: 0.2,
                    superblock_s: 0.1,
                    unpredicted_s: 0.11,
                    pred_probes: 200_000,
                    pred_hits: 150_000,
                },
                DispatchRow {
                    workload: "b",
                    uops: 2_000_000,
                    per_uop_s: 0.8,
                    superblock_s: 0.1,
                    unpredicted_s: 0.1,
                    pred_probes: 0,
                    pred_hits: 0,
                },
            ],
        };
        assert!((report.rows[0].speedup() - 2.0).abs() < 1e-12);
        assert!((report.rows[1].speedup() - 8.0).abs() < 1e-12);
        // geomean(2, 8) = 4.
        assert!((report.geomean_speedup() - 4.0).abs() < 1e-12);
        assert!((report.rows[0].superblock_rate() - 1e7).abs() < 1e-3);
        assert!((report.rows[0].pred_rate() - 0.75).abs() < 1e-12);
        assert!(report.rows[1].pred_rate().abs() < 1e-12, "0/0 consults");
        // A/B uplifts: 0.11/0.1 = 1.1 and 0.1/0.1 = 1, geomean sqrt(1.1).
        assert!((report.rows[0].pred_speedup() - 1.1).abs() < 1e-12);
        assert!((report.geomean_pred_speedup() - 1.1f64.sqrt()).abs() < 1e-12);
        let json = report.json(false, 1.0);
        assert!(json.contains("\"schema\": \"hasp-bench-dispatch-v6\""));
        assert!(json.contains("\"geomean_speedup\": 4.000000"));
        let table = report.table();
        assert!(table.contains("geomean"));
        assert!(table.contains("pred%"));
        assert!(table.contains("predx"));
        assert!(json.contains("\"geomean_pred_speedup\""));
        assert!(json.contains("\"pred_probes\": 200000"));
        assert!(json.contains("\"pred_rate\": 0.750000"));
    }

    #[test]
    fn smoke_bench_measures_both_engines() {
        let report = run_bench(true);
        assert_eq!(report.rows.len(), 2);
        for r in &report.rows {
            assert!(r.uops > 0);
            assert!(r.per_uop_s > 0.0 && r.superblock_s > 0.0 && r.unpredicted_s > 0.0);
            assert!(
                r.pred_probes > 0 && r.pred_hits > 0,
                "{}: dynamic heap accesses must consult (and sometimes hit) \
                 the way predictor under the shipped config",
                r.workload
            );
        }
        assert!(report.geomean_speedup() > 0.0);
    }
}
