//! The fault-injection campaign: workload × fault kind × rate, with every
//! cell executed in validation mode (post-abort/post-commit invariant
//! checks on) and the online abort-recovery governor enabled.
//!
//! The campaign operationalizes the paper's reliability claim (§3, §6.1):
//! under *any* abort cause — coherence conflict, interrupt, cache-line
//! overflow, spurious hardware abort, or a targeted abort at a precise
//! region entry — the machine must roll back to bit-exact architectural
//! state and still produce the interpreter's checksum. A cell that
//! diverges, faults, or trips the invariant validator is recorded as a
//! failure value ([`CellError`]) rather than a panic, so the resilience
//! report always covers the full matrix.

use hasp_hw::{FaultKind, FaultPlan, GovernorConfig, HwConfig, FAULT_KINDS};
use hasp_opt::CompilerConfig;
use hasp_workloads::{all_workloads, synthetic, Workload};

use crate::reform::{run_reform_quanta, ReformOutcome};
use crate::report::{num, JsonArr, JsonObj, Table};
use crate::runner::{
    compile_workload, profile_workload, try_execute_compiled, CellError, CompiledWorkload,
    ProfiledWorkload, WorkloadRun,
};
use crate::suite::parallel_map;

/// The overflow line budget the campaign's re-formation rows run under:
/// the middle sweep rate, harsh enough that a genuinely fat region keeps
/// overflowing, mild enough that ordinary regions stay speculative.
pub const REFORM_OVERFLOW_BUDGET: u64 = 8;

/// The swept rates for each fault kind, mild → harsh. The rate's meaning is
/// kind-specific: per-1M-in-region-uop probability (conflict, spurious),
/// retired-uop interval (interrupt), speculative line budget (overflow), or
/// dynamic entry ordinal (targeted).
pub fn sweep_rates(kind: FaultKind) -> [u64; 3] {
    match kind {
        FaultKind::Conflict => [100, 1_000, 10_000],
        FaultKind::Interrupt => [100_000, 10_000, 1_000],
        FaultKind::Overflow => [32, 8, 2],
        FaultKind::Spurious => [100, 1_000, 10_000],
        FaultKind::Targeted => [1, 100, 10_000],
    }
}

/// The hardware configuration every campaign cell runs under: baseline
/// timing, the cell's injection plan, invariant validation on, governor
/// online.
pub fn campaign_hw(plan: FaultPlan) -> HwConfig {
    let mut hw = HwConfig::baseline();
    hw.faults = plan;
    hw.validate = true;
    hw.governor = GovernorConfig::online();
    hw
}

/// The measurements extracted from one passing cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Total cycles under injection.
    pub cycles: u64,
    /// Cycles relative to the same workload's clean (no-injection) run.
    pub slowdown: f64,
    /// Regions committed.
    pub commits: u64,
    /// Regions aborted (all reasons).
    pub aborts: u64,
    /// Aborts recorded under the injected kind's reason register value.
    pub injected: u64,
    /// Invariant validations that ran (and passed).
    pub validations: u64,
    /// Region entries the governor de-speculated.
    pub governor_skips: u64,
    /// Times the governor patched a region out (streak hit the budget).
    pub governor_disables: u64,
    /// Cooldown expiries that re-enabled a de-speculated region.
    pub governor_reenables: u64,
    /// Calm-streak one-tier de-escalations.
    pub governor_recoveries: u64,
    /// Governor-ladder transitions into each tier (0, 1, 3; slot 2 is 0).
    pub tier_enters: [u64; 4],
    /// Region-entry consults spent at each tier (time-in-tier).
    pub tier_time: [u64; 4],
    /// Re-formation requests the governor emitted.
    pub reform_requests: u64,
    /// `tier_enters == tier_exits + tier_live` held per tier at run end
    /// (the ladder's accounting invariant; the CI smoke leg gates on it).
    pub tier_consistent: bool,
    /// Mean de-speculated entries per re-enable — a proxy for how long a
    /// region sat on the software path before speculation resumed
    /// (`governor_skips / governor_reenables`; equals plain skips when
    /// nothing ever re-enabled).
    pub recovery_latency: f64,
}

/// One (workload × fault kind × rate) campaign cell.
#[derive(Debug, Clone)]
pub struct FaultCell {
    /// Workload name.
    pub workload: &'static str,
    /// Injected fault family.
    pub kind: FaultKind,
    /// Kind-specific rate (see [`sweep_rates`]).
    pub rate: u64,
    /// The cell's outcome, or why it failed.
    pub result: Result<CellOutcome, CellError>,
}

/// The full campaign result: every cell plus the clean reference runs.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-workload clean-run cycles (the slowdown denominator).
    pub clean_cycles: Vec<(&'static str, u64)>,
    /// Every campaign cell, in (workload, kind, rate) order.
    pub cells: Vec<FaultCell>,
    /// Adaptive re-formation rows: each campaign workload plus the
    /// `footprint-split` ladder adversary driven through the
    /// compile → run → drain → re-form loop under overflow injection at
    /// [`REFORM_OVERFLOW_BUDGET`] lines.
    pub reforms: Vec<ReformOutcome>,
}

impl CampaignReport {
    /// True when every cell reproduced the interpreter checksum under
    /// injection (no faults, divergences, or invariant violations) and
    /// every re-formation quantum did too.
    pub fn all_passed(&self) -> bool {
        self.cells.iter().all(|c| c.result.is_ok())
            && self.reforms.iter().all(|r| r.error.is_none())
    }

    /// True when every passing cell's governor-ladder tier counters
    /// balanced (`enters == exits + live` per tier).
    pub fn tiers_consistent(&self) -> bool {
        self.cells
            .iter()
            .filter_map(|c| c.result.as_ref().ok())
            .all(|o| o.tier_consistent)
    }

    /// True when at least one re-formation row both re-formed a region and
    /// kept committing afterwards — the ladder's recovery signal.
    pub fn any_recovered(&self) -> bool {
        self.reforms.iter().any(|r| r.recovered)
    }

    /// The failed cells, if any.
    pub fn failures(&self) -> Vec<&FaultCell> {
        self.cells.iter().filter(|c| c.result.is_err()).collect()
    }

    /// Renders the resilience table.
    pub fn table(&self) -> String {
        let mut t = Table::new(
            "Fault-injection campaign (checksum-equivalent under every abort cause)",
            &[
                "workload",
                "fault",
                "rate",
                "slowdown",
                "commits",
                "aborts",
                "injected",
                "validated",
                "gov-skips",
                "tiers",
                "reforms",
                "status",
            ],
        );
        for c in &self.cells {
            match &c.result {
                Ok(o) => t.row(&[
                    c.workload.into(),
                    c.kind.name().into(),
                    c.rate.to_string(),
                    format!("{}x", num(o.slowdown, 2)),
                    o.commits.to_string(),
                    o.aborts.to_string(),
                    o.injected.to_string(),
                    o.validations.to_string(),
                    o.governor_skips.to_string(),
                    // Tier-entry distribution, tracked→3 left to right.
                    format!(
                        "{}/{}/{}/{}",
                        o.tier_enters[0], o.tier_enters[1], o.tier_enters[2], o.tier_enters[3]
                    ),
                    o.reform_requests.to_string(),
                    if o.tier_consistent {
                        "ok".into()
                    } else {
                        "TIER-IMBALANCE".to_string()
                    },
                ]),
                Err(e) => t.row(&[
                    c.workload.into(),
                    c.kind.name().into(),
                    c.rate.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("FAIL: {e}"),
                ]),
            }
        }
        let mut s = t.render();
        let mut rt = Table::new(
            "Adaptive re-formation (overflow budget 8, governor ladder online)",
            &[
                "workload",
                "quanta",
                "reforms",
                "post-commits",
                "recovered",
                "converged",
                "status",
            ],
        );
        for r in &self.reforms {
            rt.row(&[
                r.workload.into(),
                r.quanta.len().to_string(),
                r.excluded.len().to_string(),
                r.post_reform_commits.to_string(),
                if r.recovered { "yes" } else { "no" }.into(),
                if r.converged { "yes" } else { "no" }.into(),
                match &r.error {
                    None => "ok".into(),
                    Some(e) => format!("FAIL: {e}"),
                },
            ]);
        }
        s.push('\n');
        s.push_str(&rt.render());
        s
    }

    /// Serializes the report as the `BENCH_faults.json` artifact.
    pub fn json(&self, smoke: bool, threads: usize, wall_s: f64) -> String {
        let mut cells = JsonArr::new();
        for c in &self.cells {
            let mut o = JsonObj::new()
                .str("workload", c.workload)
                .str("fault", c.kind.name())
                .int("rate", c.rate)
                .bool("ok", c.result.is_ok());
            match &c.result {
                Ok(out) => {
                    let tiers = |v: &[u64; 4]| {
                        JsonObj::new()
                            .int("t0", v[0])
                            .int("t1", v[1])
                            .int("t2", v[2])
                            .int("t3", v[3])
                    };
                    o = o
                        .int("cycles", out.cycles)
                        .num("slowdown", out.slowdown)
                        .int("commits", out.commits)
                        .int("aborts", out.aborts)
                        .int("injected", out.injected)
                        .int("validations", out.validations)
                        .int("governor_skips", out.governor_skips)
                        .int("governor_disables", out.governor_disables)
                        .int("governor_reenables", out.governor_reenables)
                        .int("governor_recoveries", out.governor_recoveries)
                        .obj("tier_enters", tiers(&out.tier_enters))
                        .obj("tier_time", tiers(&out.tier_time))
                        .int("reform_requests", out.reform_requests)
                        .bool("tier_consistent", out.tier_consistent)
                        .num("recovery_latency", out.recovery_latency);
                }
                Err(e) => {
                    o = o.str("error", &e.to_string());
                }
            }
            cells = cells.obj(o);
        }
        let mut reforms = JsonArr::new();
        for r in &self.reforms {
            let mut o = JsonObj::new()
                .str("workload", r.workload)
                .bool("ok", r.error.is_none())
                .int("quanta", r.quanta.len() as u64)
                .int("reforms", r.excluded.len() as u64)
                .int(
                    "reform_requests",
                    r.quanta.iter().map(|q| q.requests.len() as u64).sum(),
                )
                .int("post_reform_commits", r.post_reform_commits)
                .bool("recovered", r.recovered)
                .bool("converged", r.converged);
            if let Some(e) = &r.error {
                o = o.str("error", &e.to_string());
            }
            reforms = reforms.obj(o);
        }
        let policy = GovernorConfig::online();
        let meta = JsonObj::new()
            .int("rng_seed", FaultPlan::none().seed)
            .str("governor", "online")
            .int("retry_budget", u64::from(policy.retry_budget))
            .int("cooldown_entries", policy.cooldown_entries)
            .int("max_cooldown", policy.max_cooldown)
            .int("permanent_disables", u64::from(policy.permanent_disables))
            .int("reform_budget", u64::from(policy.reform_budget))
            .int("reform_overflow_budget", REFORM_OVERFLOW_BUDGET);
        JsonObj::new()
            .str("schema", "hasp-faults-v3")
            // This campaign is the *injected* ablation: conflicts come from
            // the deterministic FaultPlan, not from other cores. The organic
            // counterpart (real threads over the coherence directory) is the
            // `mt` harness's BENCH_mt.json.
            .str("mode", "injected")
            .bool("smoke", smoke)
            .int("threads", threads as u64)
            .num("wall_s", wall_s)
            .obj("meta", meta)
            .int("cells", self.cells.len() as u64)
            .int("failed", self.failures().len() as u64)
            .bool("all_passed", self.all_passed())
            .bool("tier_counters_consistent", self.tiers_consistent())
            .bool("any_recovered", self.any_recovered())
            .arr("matrix", cells)
            .arr("reforms", reforms)
            .finish()
    }
}

/// Runs the campaign over the Table 2 workload suite. Smoke mode restricts
/// to two representative workloads (fop, pmd) at each kind's middle rate —
/// the CI-sized slice `scripts/check.sh` runs.
pub fn run_campaign(smoke: bool, threads: usize) -> CampaignReport {
    let mut workloads = all_workloads();
    if smoke {
        workloads.retain(|w| w.name == "fop" || w.name == "pmd");
    }
    run_campaign_on(&workloads, smoke, threads)
}

/// Runs the campaign over an explicit workload set (test entry point).
/// `smoke` selects middle-rate-only sweeps.
pub fn run_campaign_on(workloads: &[Workload], smoke: bool, threads: usize) -> CampaignReport {
    let ccfg = CompilerConfig::atomic_aggressive();
    let idx: Vec<usize> = (0..workloads.len()).collect();
    let profiles = parallel_map(workloads, threads, profile_workload);
    let compiled = parallel_map(&idx, threads, |&i| {
        compile_workload(&workloads[i], &profiles[i], &ccfg)
    });

    // Clean reference runs: same code, same validation-mode hardware, no
    // injection. A failure here is a harness bug, not a campaign finding.
    let clean: Vec<WorkloadRun> = parallel_map(&idx, threads, |&i| {
        try_execute_compiled(
            &workloads[i],
            &profiles[i],
            &compiled[i],
            &campaign_hw(FaultPlan::none()),
        )
        .unwrap_or_else(|e| panic!("clean campaign run of {} failed: {e}", workloads[i].name))
    });

    let mut specs: Vec<(usize, FaultKind, u64)> = Vec::new();
    for &i in &idx {
        for kind in FAULT_KINDS {
            let rates = sweep_rates(kind);
            let rates: &[u64] = if smoke { &rates[1..2] } else { &rates };
            for &rate in rates {
                specs.push((i, kind, rate));
            }
        }
    }

    let results = parallel_map(&specs, threads, |&(i, kind, rate)| {
        try_execute_compiled(
            &workloads[i],
            &profiles[i],
            &compiled[i],
            &campaign_hw(kind.plan(rate)),
        )
    });

    let cells = specs
        .iter()
        .zip(results)
        .map(|(&(i, kind, rate), result)| FaultCell {
            workload: workloads[i].name,
            kind,
            rate,
            result: result.map(|run| CellOutcome {
                cycles: run.stats.cycles,
                slowdown: run.stats.cycles as f64 / clean[i].stats.cycles.max(1) as f64,
                commits: run.stats.commits,
                aborts: run.stats.total_aborts(),
                injected: run.stats.aborts.get(kind.reason()),
                validations: run.stats.validations,
                governor_skips: run.stats.governor_skips,
                governor_disables: run.stats.governor_disables,
                governor_reenables: run.stats.governor_reenables,
                governor_recoveries: run.stats.governor_recoveries,
                tier_enters: run.stats.tier_enters,
                tier_time: run.stats.tier_time,
                reform_requests: run.stats.reform_requests,
                tier_consistent: run.stats.tier_counters_consistent(),
                recovery_latency: run.stats.governor_skips as f64
                    / run.stats.governor_reenables.max(1) as f64,
            }),
        })
        .collect();

    // Re-formation rows: every campaign workload plus the footprint-split
    // ladder adversary (which guarantees the recover signal is exercised),
    // each driven through the quantized re-formation loop under overflow
    // injection.
    let adversary = synthetic::footprint_split(2_000);
    let adversary_profile = profile_workload(&adversary);
    let reform_hw = campaign_hw(FaultKind::Overflow.plan(REFORM_OVERFLOW_BUDGET));
    let reform_idx: Vec<usize> = (0..=workloads.len()).collect();
    let reforms = parallel_map(&reform_idx, threads, |&i| {
        let (w, p) = if i < workloads.len() {
            (&workloads[i], &profiles[i])
        } else {
            (&adversary, &adversary_profile)
        };
        run_reform_quanta(w, p, &ccfg, &reform_hw)
    });

    CampaignReport {
        clean_cycles: idx
            .iter()
            .map(|&i| (workloads[i].name, clean[i].stats.cycles))
            .collect(),
        cells,
        reforms,
    }
}

/// Slowdown threshold of the knee search: a probe is *tolerated* when its
/// validated, governor-online run stays under this ratio of the clean run.
pub const KNEE_THRESHOLD: f64 = 1.05;

/// Bracket cap of the knee search, in conflicts per million in-region uops
/// (the cap means every in-region uop conflicts).
pub const KNEE_RATE_CAP: u64 = 1_000_000;

/// One probe of the knee search: a conflict-injection run at `rate`.
#[derive(Debug, Clone)]
pub struct KneeProbe {
    /// Injected conflicts per million in-region uops.
    pub rate: u64,
    /// Cycles relative to the clean run.
    pub slowdown: f64,
    /// `slowdown < KNEE_THRESHOLD`.
    pub tolerated: bool,
    /// Regions aborted (all reasons) during the probe.
    pub aborts: u64,
}

/// The knee-search result for one workload: the highest injected conflict
/// rate it tolerates under the online governor at under-5% slowdown.
#[derive(Debug, Clone)]
pub struct KneeRow {
    /// Workload name.
    pub workload: &'static str,
    /// Clean-run cycles (the slowdown denominator).
    pub clean_cycles: u64,
    /// Highest tolerated rate found (0 = even the mildest probe exceeded
    /// the threshold).
    pub knee_rate: u64,
    /// Slowdown measured at the knee (1.0 when `knee_rate` is 0).
    pub knee_slowdown: f64,
    /// The workload tolerated [`KNEE_RATE_CAP`] itself — the governor holds
    /// the slowdown under the threshold at any injection rate.
    pub saturated: bool,
    /// Every probe taken, in search order.
    pub probes: Vec<KneeProbe>,
    /// A probe run failed checksum equivalence, faulted, or tripped the
    /// invariant validator (the row's knee is then meaningless).
    pub error: Option<CellError>,
}

/// The knee report over a workload set.
#[derive(Debug, Clone)]
pub struct KneeReport {
    /// One row per workload.
    pub rows: Vec<KneeRow>,
}

impl KneeReport {
    /// True when every probe of every row reproduced the interpreter
    /// checksum under injection.
    pub fn all_passed(&self) -> bool {
        self.rows.iter().all(|r| r.error.is_none())
    }

    /// Renders the knee table.
    pub fn table(&self) -> String {
        let mut t = Table::new(
            "Conflict-rate knee (highest rate/M tolerated at <5% slowdown, governor online)",
            &[
                "workload",
                "knee",
                "slowdown",
                "probes",
                "aborts",
                "saturated",
                "status",
            ],
        );
        for r in &self.rows {
            match &r.error {
                None => t.row(&[
                    r.workload.into(),
                    // A saturated cell's knee is a lower bound — the search
                    // never found a rate the governor could not absorb, so
                    // rendering the cap as if it were a measured knee would
                    // overstate precision.
                    if r.saturated {
                        format!(">={}", r.knee_rate)
                    } else {
                        r.knee_rate.to_string()
                    },
                    format!("{}x", num(r.knee_slowdown, 3)),
                    r.probes.len().to_string(),
                    r.probes.iter().map(|p| p.aborts).sum::<u64>().to_string(),
                    if r.saturated { "yes" } else { "no" }.into(),
                    "ok".into(),
                ]),
                Some(e) => t.row(&[
                    r.workload.into(),
                    "-".into(),
                    "-".into(),
                    r.probes.len().to_string(),
                    "-".into(),
                    "-".into(),
                    format!("FAIL: {e}"),
                ]),
            }
        }
        t.render()
    }

    /// Serializes the report as the `BENCH_knee.json` artifact.
    pub fn json(&self, smoke: bool, threads: usize, wall_s: f64) -> String {
        let mut rows = JsonArr::new();
        for r in &self.rows {
            let mut probes = JsonArr::new();
            for p in &r.probes {
                probes = probes.obj(
                    JsonObj::new()
                        .int("rate", p.rate)
                        .num("slowdown", p.slowdown)
                        .bool("tolerated", p.tolerated)
                        .int("aborts", p.aborts),
                );
            }
            let mut o = JsonObj::new()
                .str("workload", r.workload)
                .bool("ok", r.error.is_none())
                .int("clean_cycles", r.clean_cycles)
                .int("knee_rate", r.knee_rate)
                .num("knee_slowdown", r.knee_slowdown)
                .bool("saturated", r.saturated)
                .arr("probes", probes);
            if let Some(e) = &r.error {
                o = o.str("error", &e.to_string());
            }
            rows = rows.obj(o);
        }
        JsonObj::new()
            .str("schema", "hasp-knee-v1")
            .bool("smoke", smoke)
            .int("threads", threads as u64)
            .num("wall_s", wall_s)
            .num("threshold", KNEE_THRESHOLD)
            .int("rate_cap", KNEE_RATE_CAP)
            .int("rows", self.rows.len() as u64)
            .bool("all_passed", self.all_passed())
            .arr("workloads", rows)
            .finish()
    }
}

/// One conflict-injection probe under the campaign configuration
/// (validation on, governor online — checksum equivalence is asserted
/// inside [`try_execute_compiled`]).
fn knee_probe(
    w: &Workload,
    profiled: &ProfiledWorkload,
    compiled: &CompiledWorkload,
    clean_cycles: u64,
    rate: u64,
) -> Result<KneeProbe, CellError> {
    let run = try_execute_compiled(
        w,
        profiled,
        compiled,
        &campaign_hw(FaultPlan::conflicts(rate)),
    )?;
    let slowdown = run.stats.cycles as f64 / clean_cycles.max(1) as f64;
    Ok(KneeProbe {
        rate,
        slowdown,
        tolerated: slowdown < KNEE_THRESHOLD,
        aborts: run.stats.total_aborts(),
    })
}

/// Brackets then bisects the highest tolerated conflict rate for one
/// workload: grow ×8 from 256/M until a probe exceeds the threshold (or
/// [`KNEE_RATE_CAP`] is itself tolerated — `saturated`), then bisect the
/// bracket down to ~12% relative precision (`hi - lo <= lo/8`). The
/// governor makes the slowdown curve effectively monotone in the rate; if a
/// plateau ever wobbles, the search still terminates on a genuinely
/// tolerated rate with a tight bracket.
fn knee_search(
    w: &Workload,
    profiled: &ProfiledWorkload,
    compiled: &CompiledWorkload,
    clean_cycles: u64,
) -> KneeRow {
    let mut row = KneeRow {
        workload: w.name,
        clean_cycles,
        knee_rate: 0,
        knee_slowdown: 1.0,
        saturated: false,
        probes: Vec::new(),
        error: None,
    };
    let (mut lo, mut lo_slow) = (0u64, 1.0f64);
    let mut hi = None;
    let mut rate = 256u64;
    loop {
        match knee_probe(w, profiled, compiled, clean_cycles, rate) {
            Err(e) => {
                row.error = Some(e);
                return row;
            }
            Ok(p) => {
                let (tolerated, slowdown) = (p.tolerated, p.slowdown);
                row.probes.push(p);
                if !tolerated {
                    hi = Some(rate);
                    break;
                }
                (lo, lo_slow) = (rate, slowdown);
                if rate >= KNEE_RATE_CAP {
                    row.saturated = true;
                    break;
                }
                rate = (rate * 8).min(KNEE_RATE_CAP);
            }
        }
    }
    if let Some(mut hi) = hi {
        while hi - lo > (lo / 8).max(1) {
            let mid = lo + (hi - lo) / 2;
            match knee_probe(w, profiled, compiled, clean_cycles, mid) {
                Err(e) => {
                    row.error = Some(e);
                    return row;
                }
                Ok(p) => {
                    let (tolerated, slowdown) = (p.tolerated, p.slowdown);
                    row.probes.push(p);
                    if tolerated {
                        (lo, lo_slow) = (mid, slowdown);
                    } else {
                        hi = mid;
                    }
                }
            }
        }
    }
    row.knee_rate = lo;
    row.knee_slowdown = lo_slow;
    row
}

/// Runs the knee search over the Table 2 suite (smoke: fop + pmd only),
/// workloads in parallel, probes within a workload sequential (each one
/// steers the next).
pub fn run_knee(smoke: bool, threads: usize) -> KneeReport {
    let mut workloads = all_workloads();
    if smoke {
        workloads.retain(|w| w.name == "fop" || w.name == "pmd");
    }
    run_knee_on(&workloads, threads)
}

/// Runs the knee search over an explicit workload set (test entry point).
pub fn run_knee_on(workloads: &[Workload], threads: usize) -> KneeReport {
    let ccfg = CompilerConfig::atomic_aggressive();
    let idx: Vec<usize> = (0..workloads.len()).collect();
    let profiles = parallel_map(workloads, threads, profile_workload);
    let compiled = parallel_map(&idx, threads, |&i| {
        compile_workload(&workloads[i], &profiles[i], &ccfg)
    });
    let clean: Vec<WorkloadRun> = parallel_map(&idx, threads, |&i| {
        try_execute_compiled(
            &workloads[i],
            &profiles[i],
            &compiled[i],
            &campaign_hw(FaultPlan::none()),
        )
        .unwrap_or_else(|e| panic!("clean knee run of {} failed: {e}", workloads[i].name))
    });
    let rows = parallel_map(&idx, threads, |&i| {
        knee_search(
            &workloads[i],
            &profiles[i],
            &compiled[i],
            clean[i].stats.cycles,
        )
    });
    KneeReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_workloads::synthetic;

    #[test]
    fn smoke_campaign_on_synthetic_workload_passes_every_cell() {
        let w = synthetic::add_element(2_000);
        let report = run_campaign_on(&[w], true, 2);
        assert_eq!(report.cells.len(), FAULT_KINDS.len());
        assert!(report.all_passed(), "failed cells: {:?}", report.failures());
        for c in &report.cells {
            let o = c.result.as_ref().unwrap();
            assert!(
                o.validations >= o.commits + o.aborts,
                "{}: every commit and abort must be validated",
                c.kind.name()
            );
        }
        // At least one kind actually injected aborts at the smoke rates.
        let injected: u64 = report
            .cells
            .iter()
            .map(|c| c.result.as_ref().unwrap().injected)
            .sum();
        assert!(injected > 0, "smoke rates must inject something");
        // Ladder accounting balanced in every cell.
        assert!(report.tiers_consistent());
        // The re-formation rows include the adversary, which must both
        // re-form and keep committing.
        assert!(report
            .reforms
            .iter()
            .any(|r| r.workload == "footprint-split"));
        assert!(report.any_recovered(), "adversary must reform and recover");
        // The report renders and serializes.
        assert!(report.table().contains("ok"));
        let json = report.json(true, 2, 0.5);
        assert!(json.contains("\"all_passed\": true"));
        assert!(json.contains("\"schema\": \"hasp-faults-v3\""));
        assert!(json.contains("\"rng_seed\""));
        assert!(json.contains("\"tier_counters_consistent\": true"));
        assert!(json.contains("\"any_recovered\": true"));
    }

    #[test]
    fn knee_search_converges_with_checksum_equivalence() {
        let w = synthetic::add_element(2_000);
        let report = run_knee_on(&[w], 2);
        assert_eq!(report.rows.len(), 1);
        let r = &report.rows[0];
        assert!(r.error.is_none(), "probe failed: {:?}", r.error);
        assert!(!r.probes.is_empty());
        assert!(
            r.knee_slowdown < KNEE_THRESHOLD,
            "the knee itself must be tolerated"
        );
        if r.saturated {
            assert_eq!(r.knee_rate, KNEE_RATE_CAP);
        } else {
            // The search was bounded by a probe over the threshold.
            assert!(r.probes.iter().any(|p| !p.tolerated));
            assert!(r.knee_rate < KNEE_RATE_CAP);
        }
        // Every tolerated probe is genuinely under the threshold and the
        // report round-trips.
        for p in &r.probes {
            assert_eq!(p.tolerated, p.slowdown < KNEE_THRESHOLD);
        }
        assert!(report.all_passed());
        let json = report.json(true, 2, 0.1);
        assert!(json.contains("\"schema\": \"hasp-knee-v1\""));
        assert!(report.table().contains("ok"));
    }

    #[test]
    fn saturated_knee_cells_render_as_a_lower_bound() {
        // A saturated row reports the cap only as ">=cap" — the search never
        // bounded the knee, so the table must not present a measured value —
        // while an unsaturated row keeps the plain number.
        let row = |workload, knee_rate, saturated| KneeRow {
            workload,
            clean_cycles: 1_000,
            knee_rate,
            knee_slowdown: 1.01,
            saturated,
            probes: Vec::new(),
            error: None,
        };
        let report = KneeReport {
            rows: vec![
                row("capped", KNEE_RATE_CAP, true),
                row("bounded", 4_096, false),
            ],
        };
        let table = report.table();
        assert!(table.contains(&format!(">={KNEE_RATE_CAP}")));
        assert!(table.contains("yes"));
        assert!(table.contains(" 4096 ") || table.contains("4096"));
        assert!(
            !table.contains(">=4096"),
            "unsaturated knees are measured values, not bounds"
        );
        let json = report.json(true, 1, 0.1);
        assert!(json.contains("\"saturated\": true"));
        assert!(json.contains("\"saturated\": false"));
    }

    #[test]
    fn full_sweep_covers_kinds_times_rates() {
        // Shape-only: spec construction, no execution.
        let n_kinds = FAULT_KINDS.len();
        for kind in FAULT_KINDS {
            assert_eq!(sweep_rates(kind).len(), 3);
        }
        assert_eq!(n_kinds, 5);
    }
}
