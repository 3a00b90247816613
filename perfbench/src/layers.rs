//! Per-layer metrics of the traced run. Layers are named after the
//! crates' modules; `ms` is self time per traced operation and counts are
//! per traced operation. Every workload reports the same list, with 0
//! where a layer does no work on that workload.

use std::collections::{BTreeMap, HashMap};

use hasp_hw::stats::AbortReason;
use hasp_hw::{LinkStats, PredStats};

use crate::pipeline::{Compiled, SimCounters};
use crate::trace::{self_time_by_name_op, Span};
use crate::{median, Metric};

/// The seven programs, in `all_workloads()` order (per-program metric
/// names are fixed so every run reports the same set).
pub const PROGRAMS: [&str; 7] = ["antlr", "bloat", "fop", "hsqldb", "jython", "pmd", "xalan"];

/// The `hasp_opt` passes whose self time is reported.
const OPT_PASSES: [&str; 8] = [
    "inline",
    "gvn",
    "constprop",
    "dce",
    "simplify",
    "sle",
    "safepoint",
    "unroll",
];

/// Counts gathered at the layer boundaries of traced operations.
#[derive(Debug, Default)]
pub struct LayerAcc {
    /// Each traced operation's program and the factor scaling its host
    /// times to reference speed, by operation id.
    pub ops: HashMap<u64, (&'static str, f64)>,
    /// Interpreter steps.
    pub steps: u64,
    /// Inline sites created.
    pub inline_sites: u64,
    /// IR instructions after the pipeline.
    pub ir_insts: u64,
    /// Atomic regions formed.
    pub regions: u64,
    /// Static uops installed.
    pub static_uops: u64,
    /// Simulated counters.
    pub sim: SimCounters,
    /// Way-predictor consults and validated hits.
    pub pred_probes: u64,
    /// Way-predictor validated hits.
    pub pred_hits: u64,
    /// Core-link counters, summed over every link.
    pub link: LinkStats,
    /// Directory counters: publishes, invalidations, downgrades, signaled.
    pub dir: [u64; 4],
    /// Requests, traced or not, that the link and directory counters
    /// cover (they cannot be split between concurrent requests).
    pub coh_requests: u64,
    /// `|signaled - (sig_aborts + sig_raced)|` over the whole run.
    pub identity_gap: u64,
}

impl LayerAcc {
    /// Records traced operation `id` on `program`, whose host times scale
    /// to reference speed by `scale`.
    pub fn op(&mut self, id: u64, program: &'static str, scale: f64) {
        self.ops.insert(id, (program, scale));
    }

    /// Records the compile-side counts of one traced operation.
    pub fn compiled(&mut self, c: &Compiled, static_uops: usize) {
        for (_, m) in c {
            self.inline_sites += m.sites.len() as u64;
            self.ir_insts += m.func.size();
            self.regions += m.formation.as_ref().map_or(0, |f| f.regions.len() as u64);
        }
        self.static_uops += static_uops as u64;
    }

    /// Records the machine-side counts of one traced operation.
    pub fn ran(&mut self, counters: &SimCounters, pred: &PredStats) {
        self.sim.add(counters);
        self.pred_probes += pred.probes;
        self.pred_hits += pred.hits;
    }

    /// The per-layer metrics, from these counts, the run's spans, and the
    /// times of traced and untraced units of the same work.
    pub fn metrics(&self, spans: &[Span], traced: &[f64], untraced: &[f64]) -> Vec<Metric> {
        let ops = self.ops.len().max(1) as f64;
        let per_op = |x: u64| x as f64 / ops;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

        let self_ns = self_time_by_name_op(spans);
        let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
        let mut by_name_prog: BTreeMap<(&str, &str), f64> = BTreeMap::new();
        for (&(name, op), &ns) in &self_ns {
            let Some(&(p, scale)) = self.ops.get(&op) else {
                continue;
            };
            let ns = ns as f64 * scale;
            *by_name.entry(name).or_insert(0.0) += ns;
            *by_name_prog.entry((name, p)).or_insert(0.0) += ns;
        }
        let ms = |name: &str| by_name.get(name).copied().unwrap_or(0.0) / 1e6 / ops;
        let ms_prog = |name: &str, p: &str| {
            let n = self.ops.values().filter(|&&(q, _)| q == p).count().max(1);
            by_name_prog.get(&(name, p)).copied().unwrap_or(0.0) / 1e6 / n as f64
        };

        let mut v = vec![
            Metric::new("vm.interp.ms", "ms", ms("vm.interp")),
            Metric::new("vm.interp.steps", "count", per_op(self.steps)),
        ];
        for p in PROGRAMS {
            v.push(Metric::new(
                format!("vm.interp.ms.{p}"),
                "ms",
                ms_prog("vm.interp", p),
            ));
        }
        v.push(Metric::new("ir.translate.ms", "ms", ms("ir.translate")));
        for pass in OPT_PASSES {
            v.push(Metric::new(
                format!("opt.{pass}.ms"),
                "ms",
                ms(&format!("opt.{pass}")),
            ));
        }
        v.push(Metric::new(
            "opt.inline.sites",
            "count",
            per_op(self.inline_sites),
        ));
        v.push(Metric::new("opt.ir_insts", "count", per_op(self.ir_insts)));
        v.push(Metric::new("core.form.ms", "ms", ms("core.form")));
        for p in PROGRAMS {
            v.push(Metric::new(
                format!("core.form.ms.{p}"),
                "ms",
                ms_prog("core.form", p),
            ));
        }
        v.push(Metric::new(
            "core.form.regions",
            "count",
            per_op(self.regions),
        ));
        v.push(Metric::new("hw.lower.ms", "ms", ms("hw.lower")));
        v.push(Metric::new("hw.install.ms", "ms", ms("hw.install")));
        v.push(Metric::new(
            "hw.static_uops",
            "count",
            per_op(self.static_uops),
        ));

        let s = &self.sim;
        let machine_ns = by_name.get("hw.machine").copied().unwrap_or(0.0);
        v.extend([
            Metric::new("hw.machine.ms", "ms", ms("hw.machine")),
            Metric::new(
                "hw.machine.ns_per_uop",
                "ns",
                if s.uops == 0 {
                    0.0
                } else {
                    machine_ns / s.uops as f64
                },
            ),
            Metric::new("hw.machine.uops", "count", per_op(s.uops)),
            Metric::new("hw.machine.cycles", "cycles", per_op(s.cycles)),
            Metric::new("hw.machine.commits", "count", per_op(s.commits)),
            Metric::new("hw.machine.aborts", "count", per_op(s.total_aborts())),
            Metric::new(
                "hw.machine.commit_ratio",
                "fraction",
                ratio(s.commits, s.entries),
            ),
            Metric::new(
                "hw.machine.region_uop_share",
                "fraction",
                ratio(s.region_uops, s.uops),
            ),
            Metric::new("hw.bpred.mispredicts", "count", per_op(s.mispredicts)),
            Metric::new("hw.cache.mem_accesses", "count", per_op(s.mem_accesses)),
            Metric::new(
                "hw.cache.l1_hit_rate",
                "fraction",
                ratio(s.l1_hits, s.mem_accesses),
            ),
            Metric::new("hw.cache.l2_hits", "count", per_op(s.l2_hits)),
            Metric::new(
                "hw.cache.pred_hit_rate",
                "fraction",
                ratio(self.pred_hits, self.pred_probes),
            ),
        ]);

        let [publishes, invalidations, downgrades, signaled] = self.dir;
        let per_req = |x: u64| ratio(x, self.coh_requests);
        v.extend([
            Metric::new("hw.coherence.publishes", "count", per_req(publishes)),
            Metric::new(
                "hw.coherence.invalidations",
                "count",
                per_req(invalidations),
            ),
            Metric::new("hw.coherence.downgrades", "count", per_req(downgrades)),
            Metric::new("hw.coherence.signaled", "count", per_req(signaled)),
            Metric::new(
                "hw.coherence.sig_aborts",
                "count",
                per_req(self.link.sig_aborts),
            ),
            Metric::new(
                "hw.coherence.sig_raced",
                "count",
                per_req(self.link.sig_raced),
            ),
            Metric::new(
                "hw.coherence.identity_gap",
                "count",
                self.identity_gap as f64,
            ),
            Metric::new(
                "hw.machine.conflict_aborts_per_muop",
                "1/Muop",
                ratio(s.aborts_for(AbortReason::Conflict) * 1_000_000, s.uops),
            ),
            Metric::new("hw.machine.attach_ms", "ms", ms("hw.machine.attach")),
            Metric::new("hw.machine.detach_ms", "ms", ms("hw.machine.detach")),
        ]);
        for t in 1..=3 {
            v.push(Metric::new(
                format!("hw.governor.tier_enters.t{t}"),
                "count",
                per_op(s.tier_enters[t]),
            ));
        }
        v.push(Metric::new(
            "hw.governor.lock_subscriptions",
            "count",
            per_op(s.lock_subscriptions),
        ));
        v.push(Metric::new(
            "hw.governor.lock_holds",
            "count",
            per_op(s.lock_holds),
        ));

        let (t, u) = (median(traced), median(untraced));
        let overhead = if u > 0.0 { (t / u - 1.0) * 100.0 } else { 0.0 };
        v.push(Metric::new("bench.trace_overhead_pct", "%", overhead));
        v
    }
}
