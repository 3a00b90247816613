//! The real multi-core harness (`experiments -- mt`): N pooled-machine
//! workers on real OS threads over one shared coherence [`Directory`]
//! (DESIGN §17), serving the `serve` corpus's tenants with **no
//! [`FaultPlan`](hasp_hw::FaultPlan)** — every abort in this harness is
//! organic, produced by genuine cross-thread coherence traffic.
//!
//! Two phases feed `BENCH_mt.json`:
//!
//! * **Scaling legs** (1/2/4/8 workers): each worker round-robins the
//!   tenant list from a phase-shifted start, so workers mostly execute
//!   *different* tenants (distinct address spaces — no interaction) and
//!   collide only when per-tenant runtimes drift them onto the same
//!   tenant. Wall-clock throughput per leg comes from the shared
//!   warm-then-interleaved best-of-reps scaffold
//!   ([`hasp_bench::best_of_interleaved`]).
//! * **Contention phase**: every worker hammers the *same* tenant (one
//!   shared address space). This is where emergent `Conflict`/`Sle`
//!   aborts, abort-rate knees comparable to the injected sweeps in
//!   `BENCH_knee.json`, and §14 governor-ladder climbs are measured.
//!
//! Every iteration asserts the interpreter's reference checksum, so the
//! atomicity contract is re-proven under real concurrency on every
//! request; every leg asserts the directory's conservation identity
//! (`signaled == sig_aborts + sig_raced` once mailboxes quiesce).

use std::sync::Arc;

use hasp_bench::best_of_interleaved;
use hasp_hw::stats::RunStats;
use hasp_hw::{
    CoreLink, Directory, GovernorConfig, HwConfig, LinkStats, Machine, MachinePools, ABORT_REASONS,
};
use hasp_opt::CompilerConfig;
use hasp_workloads::Workload;

use crate::report::{num, JsonArr, JsonObj, Table};
use crate::runner::{compile_workload, CompiledWorkload, ProfiledWorkload};
use crate::service::build_tenants;

/// Index of `Conflict` in [`ABORT_REASONS`] (checked at startup).
fn reason_index(name: &str) -> usize {
    ABORT_REASONS
        .iter()
        .position(|r| r.name() == name)
        .unwrap_or_else(|| panic!("abort reason {name} missing"))
}

/// One tenant as the mt harness sees it: workload + profile + sealed code.
/// The hardware config is shared (and injection-free) across tenants.
struct MtTenant {
    name: &'static str,
    workload: Workload,
    profiled: ProfiledWorkload,
    compiled: CompiledWorkload,
}

/// The injection-free hardware configuration every mt machine runs:
/// baseline timing, governor online, **no FaultPlan** — conflicts must
/// emerge from the directory or not at all.
fn mt_hw() -> HwConfig {
    HwConfig {
        name: "mt",
        governor: GovernorConfig::online(),
        ..HwConfig::baseline()
    }
}

/// Per-worker aggregate over one leg run.
#[derive(Debug, Default, Clone, Copy)]
struct WorkerAgg {
    iterations: u64,
    uops: u64,
    commits: u64,
    aborts: [u64; ABORT_REASONS.len()],
    tier_enters: [u64; 4],
    tier_time: [u64; 4],
    lock_subscriptions: u64,
    lock_holds: u64,
    link: LinkStats,
}

impl WorkerAgg {
    fn absorb_stats(&mut self, s: &RunStats) {
        self.iterations += 1;
        self.uops += s.uops;
        self.commits += s.commits;
        for (slot, &r) in self.aborts.iter_mut().zip(ABORT_REASONS.iter()) {
            *slot += s.aborts.get(r);
        }
        for t in 0..4 {
            self.tier_enters[t] += s.tier_enters[t];
            self.tier_time[t] += s.tier_time[t];
        }
        self.lock_subscriptions += s.lock_subscriptions;
        self.lock_holds += s.lock_holds;
    }

    fn absorb_link(&mut self, l: &LinkStats) {
        self.link.published += l.published;
        self.link.drained += l.drained;
        self.link.sig_aborts += l.sig_aborts;
        self.link.sig_raced += l.sig_raced;
        self.link.benign += l.benign;
        self.link.unsignaled_conflicts += l.unsignaled_conflicts;
    }

    fn merge(&mut self, o: &WorkerAgg) {
        self.iterations += o.iterations;
        self.uops += o.uops;
        self.commits += o.commits;
        for (a, b) in self.aborts.iter_mut().zip(o.aborts.iter()) {
            *a += b;
        }
        for t in 0..4 {
            self.tier_enters[t] += o.tier_enters[t];
            self.tier_time[t] += o.tier_time[t];
        }
        self.lock_subscriptions += o.lock_subscriptions;
        self.lock_holds += o.lock_holds;
        self.absorb_link(&o.link);
    }
}

/// One completed leg run: the merged worker aggregate plus the directory's
/// global counters and the conservation verdict.
#[derive(Debug, Clone, Copy)]
struct LegRun {
    workers: usize,
    agg: WorkerAgg,
    signaled: u64,
    publishes: u64,
    invalidations: u64,
    downgrades: u64,
    conservation: bool,
}

impl LegRun {
    fn emergent(&self) -> u64 {
        self.agg.aborts[reason_index("conflict")] + self.agg.aborts[reason_index("sle")]
    }
}

/// One worker's request loop: pooled machines, one [`CoreLink`] per tenant
/// (each (worker, tenant) pair is its own directory core, so a mailbox
/// only ever carries messages from its tenant's address space), checksum
/// asserted on every iteration.
fn worker_loop(
    w: usize,
    workers: usize,
    tenants: &[MtTenant],
    hw: &HwConfig,
    dir: &Arc<Directory>,
    iters: usize,
) -> WorkerAgg {
    let t = tenants.len();
    let mut links: Vec<Option<CoreLink>> = (0..t)
        .map(|i| Some(CoreLink::new(Arc::clone(dir), (w * t + i) as u8, i as u16)))
        .collect();
    let mut pools = MachinePools::new();
    let mut agg = WorkerAgg::default();
    // Phase-shifted round-robin: workers start `t / workers` tenants apart
    // so concurrent same-tenant execution comes from runtime drift, not
    // from the schedule forcing lockstep collisions.
    let offset = w * t / workers;
    for k in 0..iters {
        let ti = (k + offset) % t;
        let tn = &tenants[ti];
        let mut mach = Machine::with_pools(
            &tn.workload.program,
            &tn.compiled.code,
            hw.clone(),
            std::mem::take(&mut pools),
        );
        mach.set_fuel(tn.workload.fuel.saturating_mul(4));
        mach.attach_core(links[ti].take().expect("link in rotation"));
        if let Err(e) = mach.run(&[]) {
            panic!("mt worker {w} tenant {}: {e:?}", tn.name);
        }
        assert_eq!(
            mach.env.checksum(),
            tn.profiled.reference_checksum,
            "mt worker {w} tenant {} diverged under contention",
            tn.name
        );
        agg.absorb_stats(mach.stats());
        links[ti] = mach.detach_core();
        pools = mach.into_pools();
    }
    for link in links.into_iter().flatten() {
        agg.absorb_link(&link.stats);
    }
    agg
}

/// Runs one leg: `workers` real threads over a fresh directory, each
/// executing `iters` requests. Returns the merged aggregate and checks
/// the conservation identity.
fn run_leg(tenants: &[MtTenant], hw: &HwConfig, workers: usize, iters: usize) -> LegRun {
    let dir = Directory::new(workers * tenants.len());
    let aggs: Vec<WorkerAgg> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let dir = Arc::clone(&dir);
                s.spawn(move || worker_loop(w, workers, tenants, hw, &dir, iters))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mt worker panicked"))
            .collect()
    });
    let mut agg = WorkerAgg::default();
    for a in &aggs {
        agg.merge(a);
    }
    // Every worker detached (and thereby drained) its links before
    // exiting, and speculative registrations cannot outlive a region, so
    // by now every signaled message has been classified.
    let conservation = dir.signaled() == agg.link.sig_aborts + agg.link.sig_raced;
    LegRun {
        workers,
        agg,
        signaled: dir.signaled(),
        publishes: dir.publishes(),
        invalidations: dir.invalidations(),
        downgrades: dir.downgrades(),
        conservation,
    }
}

/// One scaling-leg row of the report.
#[derive(Debug, Clone, Copy)]
pub struct MtLeg {
    /// Worker threads (= cores per tenant view).
    pub workers: usize,
    /// Total requests served (workers × iterations).
    pub requests: u64,
    /// Best-of-reps wall seconds for the whole leg.
    pub wall_s: f64,
    /// Requests per wall second (the scaling metric: per-worker work is
    /// fixed, so ideal scaling keeps wall flat as workers grow).
    pub throughput_rps: f64,
    /// Retired uops across all workers (warm run).
    pub uops: u64,
    /// Region commits.
    pub commits: u64,
    /// Aborts, total.
    pub aborts: u64,
    /// Organic `Conflict` + `Sle` aborts.
    pub emergent: u64,
    /// Emergent aborts per million retired uops (comparable to the
    /// injected-rate axis of `BENCH_knee.json`).
    pub emergent_per_muop: f64,
    /// Directory messages sent with a live speculative collision.
    pub signaled: u64,
    /// Directory publishes / invalidations / downgrades.
    pub publishes: u64,
    /// Invalidation messages.
    pub invalidations: u64,
    /// Downgrade messages.
    pub downgrades: u64,
    /// Conservation identity held (`signaled == sig_aborts + sig_raced`).
    pub conservation: bool,
    /// Victim-side classification of signaled messages.
    pub sig_aborts: u64,
    /// Signals that provably raced with a commit/abort flash-clear.
    pub sig_raced: u64,
    /// Unsignaled messages that hit a live speculative bit (must be 0).
    pub unsignaled_conflicts: u64,
    /// Governor-ladder tier entries (0–3) under this leg.
    pub tier_enters: [u64; 4],
    /// Region-entry consults spent per tier.
    pub tier_time: [u64; 4],
}

/// The contention-phase summary: all workers on one shared tenant.
#[derive(Debug, Clone, Copy)]
pub struct MtContention {
    /// Worker threads hammering the shared tenant.
    pub workers: usize,
    /// Requests served.
    pub requests: u64,
    /// Retired uops.
    pub uops: u64,
    /// Region commits.
    pub commits: u64,
    /// Organic `Conflict` + `Sle` aborts (the non-vacuity gate).
    pub emergent: u64,
    /// Emergent aborts per million retired uops.
    pub emergent_per_muop: f64,
    /// Governor-ladder tier entries.
    pub tier_enters: [u64; 4],
    /// Region-entry consults per tier.
    pub tier_time: [u64; 4],
    /// Tier-2 fallback-lock subscriptions taken.
    pub lock_subscriptions: u64,
    /// Software-path executions under the fallback lock.
    pub lock_holds: u64,
    /// Conservation identity held.
    pub conservation: bool,
    /// Signaled / classified message counts.
    pub signaled: u64,
    /// Signals that aborted the victim's region.
    pub sig_aborts: u64,
    /// Signals that raced a flash-clear.
    pub sig_raced: u64,
    /// Unsignaled messages that hit a live speculative bit (must be 0).
    pub unsignaled_conflicts: u64,
}

/// The full mt report.
#[derive(Debug)]
pub struct MtReport {
    /// Smoke (CI slice) or full run.
    pub smoke: bool,
    /// Timed reps per leg (plus one warm pass).
    pub reps: usize,
    /// Tenant names in rotation order.
    pub tenants: Vec<&'static str>,
    /// Shared-tenant name of the contention phase.
    pub contended_tenant: &'static str,
    /// Host parallelism (`available_parallelism`) — the scaling-floor gate
    /// in `scripts/check.sh` only applies when this is ≥ 2.
    pub host_cores: usize,
    /// Scaling legs in worker order.
    pub legs: Vec<MtLeg>,
    /// The contention phase.
    pub contention: MtContention,
}

impl MtReport {
    /// Every leg (and the contention phase) satisfied conservation.
    pub fn all_conserved(&self) -> bool {
        self.legs.iter().all(|l| l.conservation) && self.contention.conservation
    }

    /// Organic aborts observed without any injection plan.
    pub fn emergent_total(&self) -> u64 {
        self.contention.emergent + self.legs.iter().map(|l| l.emergent).sum::<u64>()
    }

    /// Highest governor tier any region entered anywhere in the run.
    pub fn max_tier(&self) -> usize {
        let mut max = 0;
        let mut consider = |te: &[u64; 4]| {
            for (t, &n) in te.iter().enumerate() {
                if n > 0 {
                    max = max.max(t);
                }
            }
        };
        for l in &self.legs {
            consider(&l.tier_enters);
        }
        consider(&self.contention.tier_enters);
        max
    }

    /// Throughput scaling of leg `i` relative to the 1-worker leg.
    pub fn scaling_x(&self, i: usize) -> f64 {
        self.legs[i].throughput_rps / self.legs[0].throughput_rps
    }

    /// Renders the human-readable tables.
    pub fn table(&self) -> String {
        let mut t = Table::new(
            &format!(
                "mt: real-thread scaling over the shared directory ({} tenants, host cores {})",
                self.tenants.len(),
                self.host_cores
            ),
            &[
                "workers", "reqs", "wall s", "req/s", "x", "commits", "aborts", "emergent",
                "e/Muop", "conserve",
            ],
        );
        for (i, l) in self.legs.iter().enumerate() {
            t.row(&[
                l.workers.to_string(),
                l.requests.to_string(),
                num(l.wall_s, 3),
                num(l.throughput_rps, 1),
                num(self.scaling_x(i), 2),
                l.commits.to_string(),
                l.aborts.to_string(),
                l.emergent.to_string(),
                num(l.emergent_per_muop, 2),
                if l.conservation { "ok" } else { "FAIL" }.to_string(),
            ]);
        }
        let mut c = Table::new(
            &format!(
                "mt contention: {} workers sharing tenant {}",
                self.contention.workers, self.contended_tenant
            ),
            &[
                "reqs",
                "commits",
                "emergent",
                "e/Muop",
                "tiers 0/1/2/3",
                "locksub",
                "conserve",
            ],
        );
        let te = self.contention.tier_enters;
        c.row(&[
            self.contention.requests.to_string(),
            self.contention.commits.to_string(),
            self.contention.emergent.to_string(),
            num(self.contention.emergent_per_muop, 2),
            format!("{}/{}/{}/{}", te[0], te[1], te[2], te[3]),
            self.contention.lock_subscriptions.to_string(),
            if self.contention.conservation {
                "ok"
            } else {
                "FAIL"
            }
            .to_string(),
        ]);
        format!("{}{}", t.render(), c.render())
    }

    /// Serializes the artifact.
    pub fn json(&self, wall_s: f64) -> String {
        let mut legs = JsonArr::new();
        for (i, l) in self.legs.iter().enumerate() {
            legs = legs.obj(
                JsonObj::new()
                    .int("workers", l.workers as u64)
                    .int("requests", l.requests)
                    .num("wall_s", l.wall_s)
                    .num("throughput_rps", l.throughput_rps)
                    .num("scaling_x", self.scaling_x(i))
                    .int("uops", l.uops)
                    .int("commits", l.commits)
                    .int("aborts", l.aborts)
                    .int("emergent", l.emergent)
                    .num("emergent_per_muop", l.emergent_per_muop)
                    .int("signaled", l.signaled)
                    .int("sig_aborts", l.sig_aborts)
                    .int("sig_raced", l.sig_raced)
                    .int("unsignaled_conflicts", l.unsignaled_conflicts)
                    .int("publishes", l.publishes)
                    .int("invalidations", l.invalidations)
                    .int("downgrades", l.downgrades)
                    .bool("conservation", l.conservation)
                    .arr("tier_enters", tier_arr(&l.tier_enters))
                    .arr("tier_time", tier_arr(&l.tier_time)),
            );
        }
        let c = &self.contention;
        let contention = JsonObj::new()
            .int("workers", c.workers as u64)
            .str("tenant", self.contended_tenant)
            .int("requests", c.requests)
            .int("uops", c.uops)
            .int("commits", c.commits)
            .int("emergent", c.emergent)
            .num("emergent_per_muop", c.emergent_per_muop)
            .int("signaled", c.signaled)
            .int("sig_aborts", c.sig_aborts)
            .int("sig_raced", c.sig_raced)
            .int("unsignaled_conflicts", c.unsignaled_conflicts)
            .int("lock_subscriptions", c.lock_subscriptions)
            .int("lock_holds", c.lock_holds)
            .bool("conservation", c.conservation)
            .arr("tier_enters", tier_arr(&c.tier_enters))
            .arr("tier_time", tier_arr(&c.tier_time));
        let mut tenants = JsonArr::new();
        for name in &self.tenants {
            tenants = tenants.str(name);
        }
        JsonObj::new()
            .str("schema", "hasp-mt-v2")
            .bool("smoke", self.smoke)
            .int("reps", self.reps as u64)
            .int("host_cores", self.host_cores as u64)
            .arr("tenants", tenants)
            .arr("legs", legs)
            .obj("contention", contention)
            .bool("conservation_ok", self.all_conserved())
            .int("emergent_total", self.emergent_total())
            .int("max_tier", self.max_tier() as u64)
            .num("wall_s", wall_s)
            .finish()
    }
}

fn tier_arr(v: &[u64; 4]) -> JsonArr {
    let mut a = JsonArr::new();
    for &x in v {
        a = a.int(x);
    }
    a
}

fn leg_row(run: &LegRun, wall_s: f64) -> MtLeg {
    let a = &run.agg;
    MtLeg {
        workers: run.workers,
        requests: a.iterations,
        wall_s,
        throughput_rps: a.iterations as f64 / wall_s.max(1e-9),
        uops: a.uops,
        commits: a.commits,
        aborts: a.aborts.iter().sum(),
        emergent: run.emergent(),
        emergent_per_muop: run.emergent() as f64 / (a.uops as f64 / 1e6).max(1e-9),
        signaled: run.signaled,
        publishes: run.publishes,
        invalidations: run.invalidations,
        downgrades: run.downgrades,
        conservation: run.conservation,
        sig_aborts: a.link.sig_aborts,
        sig_raced: a.link.sig_raced,
        unsignaled_conflicts: a.link.unsignaled_conflicts,
        tier_enters: a.tier_enters,
        tier_time: a.tier_time,
    }
}

/// Profiles and compiles the tenant corpus (no injection in any tenant's
/// hardware — the `serve` corpus only contributes the workload mix).
fn build_mt_tenants(smoke: bool) -> Vec<MtTenant> {
    let ccfg = CompilerConfig::atomic_aggressive();
    build_tenants(smoke)
        .into_iter()
        .map(|t| {
            let compiled = compile_workload(&t.workload, &t.profiled, &ccfg);
            MtTenant {
                name: t.name,
                workload: t.workload,
                profiled: t.profiled,
                compiled,
            }
        })
        .collect()
}

/// Runs the full mt benchmark.
pub fn run_mt(smoke: bool) -> MtReport {
    let tenants = build_mt_tenants(smoke);
    let hw = mt_hw();
    debug_assert!(!hw.faults.any_per_uop(), "mt must be injection-free");
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let worker_legs: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let (reps, iters) = if smoke { (2, 6) } else { (3, 8) };

    // Scaling phase through the shared scaffold: warm pass per leg, then
    // reps interleaved round-robin so host drift degrades all legs alike.
    // Abort counts legitimately vary across reps (real interleavings);
    // request counts and checksums (asserted in the workers) must not.
    let out = best_of_interleaved(
        reps,
        worker_legs.len(),
        |k| run_leg(&tenants, &hw, worker_legs[k], iters),
        |k, rep, warm| {
            assert_eq!(
                rep.agg.iterations, warm.agg.iterations,
                "leg {k} request count varied"
            );
            assert!(rep.conservation, "leg {k} conservation failed in a rep");
        },
    );
    let legs: Vec<MtLeg> = out
        .warm
        .iter()
        .zip(out.best_s.iter())
        .map(|(run, &s)| leg_row(run, s))
        .collect();

    // Contention phase: everyone on one shared tenant (one address space).
    let contended_tenant = if smoke { "pmd" } else { "hsqldb" };
    let shared: Vec<MtTenant> = {
        let mut v = build_mt_tenants(smoke);
        v.retain(|t| t.name == contended_tenant);
        v
    };
    assert_eq!(shared.len(), 1, "contended tenant missing from corpus");
    let cworkers = *worker_legs.last().expect("legs");
    let citers = if smoke { 8 } else { 12 };
    let crun = run_leg(&shared, &hw, cworkers, citers);
    let ca = &crun.agg;
    let contention = MtContention {
        workers: cworkers,
        requests: ca.iterations,
        uops: ca.uops,
        commits: ca.commits,
        emergent: crun.emergent(),
        emergent_per_muop: crun.emergent() as f64 / (ca.uops as f64 / 1e6).max(1e-9),
        tier_enters: ca.tier_enters,
        tier_time: ca.tier_time,
        lock_subscriptions: ca.lock_subscriptions,
        lock_holds: ca.lock_holds,
        conservation: crun.conservation,
        signaled: crun.signaled,
        sig_aborts: ca.link.sig_aborts,
        sig_raced: ca.link.sig_raced,
        unsignaled_conflicts: ca.link.unsignaled_conflicts,
    };

    MtReport {
        smoke,
        reps,
        tenants: tenants.iter().map(|t| t.name).collect(),
        contended_tenant,
        host_cores,
        legs,
        contention,
    }
}
