//! The worker-pool harness behind `experiments -- serve` and
//! `experiments -- mt`: a fixed pool of pooled-frame [`Machine`] workers
//! drains a bounded MPMC queue of workload requests, all sharing one code
//! cache, and — with coherence on — all attached to one shared coherence
//! [`Directory`].
//!
//! The serving shape the paper's §7 deployment sketch implies but never
//! benchmarks: many independent requests, one shared compiled-code cache.
//! Three properties are load-bearing and each has its own enforcement:
//!
//! * **Publication through the work queue.** The current [`ServiceCache`]
//!   rides in the work queue's state as an `Arc` with a version. A worker
//!   takes its batch and that cache in one critical section of the queue
//!   lock it takes anyway, then serves the whole batch out of it without
//!   touching the lock again. An install builds the new sealed cache off
//!   the lock on the producer thread and swaps it in under the lock; an old
//!   cache is freed when the last batch holding it drops its `Arc`.
//!   `tests/service.rs` installs mid-stream under real threads and asserts
//!   no torn reads: every request on either code version reproduces the
//!   interpreter checksum.
//! * **Cross-request isolation.** A worker builds each request's machine
//!   with [`Machine::with_pools`] and retires it into its
//!   [`MachinePools`], so allocations carry from request to request while
//!   every run is bit-identical to one on a fresh machine (debug-asserted
//!   in the machine, proven by `machine.rs` tests), which is what makes
//!   request timing independent of worker count and service order.
//! * **Sharded statistics with conservation.** Per-tenant stats accumulate
//!   into per-worker shards ([`TenantShard`]) with no cross-worker
//!   synchronization; a separate per-request atomic tally is kept
//!   independently, and at report time the shard merge must reproduce the
//!   atomic totals exactly ([`LegOutcome::conservation_ok`] — gated by CI
//!   and a proptest).
//!
//! **Coherence** is the harness's one switch (DESIGN §17). With it on
//! (`mt`), each worker owns one [`CoreLink`] per tenant — core `w·T + t`,
//! address space `t` — attached around every run, so workers serving the
//! same tenant genuinely race and every `Conflict` abort is organic:
//! no tenant may arm conflict, interrupt or spurious injection
//! ([`FaultPlan::any_per_uop`](hasp_hw::FaultPlan::any_per_uop)). Such a
//! leg also gates the directory's conservation identity (`signaled ==
//! Σ sig_aborts + Σ sig_raced`, folded into [`LegOutcome::conservation_ok`])
//! and its observation identity (machine `Conflict` aborts ==
//! `Σ sig_aborts`, [`LegOutcome::observation_ok`]).
//!
//! Every leg is reported on two clocks. Modeled: each request's service
//! time is its run's `stats.cycles`, and a discrete-event simulation places
//! those services on N servers, which makes the worker-scaling curve a
//! property of the *model*, reproducible on any host. With coherence off
//! the cycles are deterministic and order-independent thanks to the
//! isolation property; real conflicts make them vary, so only coherence-off
//! reports are checked for determinism. Wall: each leg's host seconds and
//! requests per second. Both artifacts, `BENCH_service.json` (`serve`) and
//! `BENCH_mt.json` (`mt`), use schema `hasp-pool-v3`.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use hasp_bench::best_of_interleaved;
use hasp_hw::stats::{AbortCounts, AbortReason};
use hasp_hw::{
    CodeCache, CoreLink, Directory, FaultPlan, GovernorConfig, Histogram, HwConfig, LinkStats,
    Machine, MachinePools,
};
use hasp_opt::CompilerConfig;
use hasp_workloads::{all_workloads, Workload};

use crate::report::{num, JsonArr, JsonObj, Table};
use crate::runner::{compile_workload, profile_workload, ProfiledWorkload};

/// Nominal clock used to express simulated cycles as time (Table 1 runs the
/// core at 4 GHz; the service tier is modeled at a derated 2 GHz part).
pub const CLOCK_GHZ: f64 = 2.0;

/// Bounded work-queue capacity: the producer blocks past this depth, so the
/// enqueue side can never outrun the pool unboundedly.
const QUEUE_CAP: usize = 8;

/// Requests a worker claims per queue lock; the whole batch is served from
/// the code cache handed out with it.
const BATCH: usize = 4;

/// Speculative-footprint line budget injected for contended-class tenants:
/// large regions overflow every entry, abort streaks build, and the
/// governor ladder escalates — the "noisy neighbor" the tier-distribution
/// column watches.
const CONTENDED_LINE_BUDGET: u64 = 4;

/// Open-loop arrival utilization (percent of pool capacity) for the latency
/// simulation: high enough that queueing is visible, low enough to be
/// stable.
const OPEN_LOOP_UTIL_PCT: u64 = 95;

/// The tenant's service class: how its requests stress the substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantClass {
    /// Architectural aborts only.
    Clean,
    /// A shrunken speculative line budget ([`CONTENDED_LINE_BUDGET`])
    /// forces overflow aborts and governor-ladder activity.
    Contended,
}

impl TenantClass {
    /// Report label.
    pub fn name(self) -> &'static str {
        match self {
            TenantClass::Clean => "clean",
            TenantClass::Contended => "contended",
        }
    }
}

/// One tenant: a workload, its profiling products, and the hardware
/// configuration its requests execute under.
#[derive(Debug)]
pub struct Tenant {
    /// Tenant name (the workload name).
    pub name: &'static str,
    /// Service class.
    pub class: TenantClass,
    /// The workload program and fuel budget.
    pub workload: Workload,
    /// Interpreter profile + the reference checksum every request must
    /// reproduce.
    pub profiled: ProfiledWorkload,
    /// Hardware configuration (governor online; contended tenants add the
    /// injected line budget).
    pub hw: HwConfig,
}

impl Tenant {
    /// Profiles `workload` and fixes its service-mode hardware config.
    pub fn new(workload: Workload, class: TenantClass) -> Self {
        let profiled = profile_workload(&workload);
        let hw = match class {
            TenantClass::Clean => HwConfig {
                name: "svc-clean",
                governor: GovernorConfig::online(),
                ..HwConfig::baseline()
            },
            TenantClass::Contended => HwConfig {
                name: "svc-contended",
                governor: GovernorConfig::online(),
                faults: FaultPlan::overflow_budget(CONTENDED_LINE_BUDGET),
                ..HwConfig::baseline()
            },
        };
        Tenant {
            name: workload.name,
            class,
            workload,
            profiled,
            hw,
        }
    }
}

/// The shared code: one sealed [`CodeCache`] per tenant, swapped as a unit
/// so every worker always sees a mutually consistent set.
#[derive(Debug, Clone)]
pub struct ServiceCache {
    /// Sealed code, indexed by tenant id.
    pub tenants: Vec<CodeCache>,
}

/// Compiles every tenant under `ccfg` into a fresh sealed [`ServiceCache`].
/// This is the install path: it runs on the producer thread, off the
/// workers' hot path and off the work-queue lock.
pub fn build_service_cache(tenants: &[Tenant], ccfg: &CompilerConfig) -> ServiceCache {
    ServiceCache {
        tenants: tenants
            .iter()
            .map(|t| compile_workload(&t.workload, &t.profiled, ccfg).code)
            .collect(),
    }
}

/// One queued request: schedule position + tenant id.
#[derive(Debug, Clone, Copy)]
struct Request {
    seq: u32,
    tenant: u32,
}

/// One served request's timing sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTiming {
    /// Position in the request schedule.
    pub seq: u32,
    /// Tenant id.
    pub tenant: u32,
    /// Modeled service time in simulated cycles.
    pub cycles: u64,
}

/// The bounded MPMC work queue: one mutex + two condvars. This is request
/// *admission*, not dispatch — workers touch it once per [`BATCH`]. Its
/// state also carries the current code cache, so a batch and the cache it
/// is served from are handed out together.
struct WorkQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
}

struct QueueState {
    q: VecDeque<Request>,
    closed: bool,
    /// The cache new batches are served from.
    cache: Arc<ServiceCache>,
    /// `cache`'s version: 1 for the initial cache, one more per install.
    version: u64,
}

impl WorkQueue {
    fn new(cache: ServiceCache) -> Self {
        WorkQueue {
            state: Mutex::new(QueueState {
                q: VecDeque::with_capacity(QUEUE_CAP),
                closed: false,
                cache: Arc::new(cache),
                version: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Blocks while the queue is at capacity (producer backpressure).
    fn push(&self, r: Request) {
        let mut s = self.state.lock().unwrap();
        while s.q.len() >= QUEUE_CAP {
            s = self.not_full.wait(s).unwrap();
        }
        s.q.push_back(r);
        drop(s);
        self.not_empty.notify_one();
    }

    /// Pops up to `max` requests with the current cache and its version;
    /// blocks while empty and open. `None` means the queue is closed and
    /// drained.
    fn pop_batch(&self, max: usize) -> Option<(Vec<Request>, Arc<ServiceCache>, u64)> {
        let mut s = self.state.lock().unwrap();
        while s.q.is_empty() && !s.closed {
            s = self.not_empty.wait(s).unwrap();
        }
        let take = s.q.len().min(max);
        if take == 0 {
            return None;
        }
        let batch: Vec<Request> = s.q.drain(..take).collect();
        let (cache, version) = (Arc::clone(&s.cache), s.version);
        drop(s);
        self.not_full.notify_all();
        // More work may remain for the other workers.
        self.not_empty.notify_one();
        Some((batch, cache, version))
    }

    /// Makes `cache`, built off the lock, the one later batches are served
    /// from. Batches already handed out keep theirs, and the old cache is
    /// freed when the last of them drops it.
    fn install(&self, cache: ServiceCache) {
        let cache = Arc::new(cache);
        let mut s = self
            .state
            .lock()
            .expect("a worker panicked holding the queue");
        s.cache = cache;
        s.version += 1;
    }

    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.not_empty.notify_all();
    }
}

/// Per-(worker × tenant) statistics shard. Accumulated with no cross-worker
/// synchronization; merged only at report time.
#[derive(Debug, Clone, Default)]
pub struct TenantShard {
    /// Requests served.
    pub requests: u64,
    /// Requests that faulted or diverged from the reference checksum.
    pub failures: u64,
    /// Retired uops.
    pub uops: u64,
    /// Modeled cycles.
    pub cycles: u64,
    /// Region commits.
    pub commits: u64,
    /// Aborts by reason.
    pub aborts: AbortCounts,
    /// Per-static-region counters (merged across requests).
    pub regions: hasp_hw::stats::RegionTable,
    /// Time-in-tier (entry consults per governor tier).
    pub tier_time: [u64; 4],
    /// Governor-ladder tier entries (0, 1, 3; slot 2 is 0).
    pub tier_enters: [u64; 4],
}

impl TenantShard {
    /// Adds another shard's counters into this one. Every field is a sum
    /// (or, for region tiers, a max), so the merge is order-independent.
    pub fn merge(&mut self, other: &TenantShard) {
        self.requests += other.requests;
        self.failures += other.failures;
        self.uops += other.uops;
        self.cycles += other.cycles;
        self.commits += other.commits;
        self.aborts.merge(&other.aborts);
        self.regions.merge(&other.regions);
        add_tiers(&mut self.tier_time, &other.tier_time);
        add_tiers(&mut self.tier_enters, &other.tier_enters);
    }
}

fn add_tiers(acc: &mut [u64; 4], other: &[u64; 4]) {
    for (a, o) in acc.iter_mut().zip(other) {
        *a += o;
    }
}

/// The aborts a coherence signal stands behind: `Conflict` only. An `Sle`
/// abort is the program's own elided-lock check, which no directory
/// message raises.
fn conflict_class(aborts: &AbortCounts) -> u64 {
    aborts.get(AbortReason::Conflict)
}

/// One worker's full shard: per-tenant counters, request timings, the
/// cache versions it served from, and its core links' traffic.
#[derive(Debug, Clone)]
pub struct WorkerShard {
    /// Per-tenant counters, indexed by tenant id.
    pub per_tenant: Vec<TenantShard>,
    /// Per-request timings this worker served.
    pub timings: Vec<RequestTiming>,
    /// Distinct cache versions this worker served from.
    pub versions: BTreeSet<u64>,
    /// Traffic counters summed over this worker's core links (zero with
    /// coherence off).
    pub link: LinkStats,
}

impl WorkerShard {
    fn new(tenants: usize) -> Self {
        WorkerShard {
            per_tenant: vec![TenantShard::default(); tenants],
            timings: Vec::new(),
            versions: BTreeSet::new(),
            link: LinkStats::default(),
        }
    }
}

/// The shared directory's global counters, read after every worker has
/// detached (and thereby drained) its links.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectoryCounters {
    /// Messages posted against a live speculative claim.
    pub signaled: u64,
    /// Directory transactions published.
    pub publishes: u64,
    /// Invalidation messages posted.
    pub invalidations: u64,
    /// Downgrade messages posted.
    pub downgrades: u64,
}

/// The independent per-request tally the shard merge must reproduce.
#[derive(Default)]
struct Globals {
    requests: AtomicU64,
    uops: AtomicU64,
    commits: AtomicU64,
    aborts: AtomicU64,
}

/// Everything one pool run produced, before any aggregation.
#[derive(Debug, Clone)]
pub struct LegOutcome {
    /// Worker-pool size.
    pub workers: usize,
    /// One shard per worker.
    pub shards: Vec<WorkerShard>,
    /// Mid-stream cache installs performed.
    pub installs: u64,
    /// Independent atomic totals: requests, uops, commits, aborts.
    pub global: [u64; 4],
    /// The shared directory's counters (`None` with coherence off).
    pub directory: Option<DirectoryCounters>,
    /// Wall-clock seconds for the pool run (host-dependent).
    pub wall_s: f64,
}

impl LegOutcome {
    /// Per-tenant shards merged across workers.
    pub fn merged_tenants(&self) -> Vec<TenantShard> {
        let n = self.shards.first().map_or(0, |s| s.per_tenant.len());
        let mut merged = vec![TenantShard::default(); n];
        for shard in &self.shards {
            for (m, t) in merged.iter_mut().zip(&shard.per_tenant) {
                m.merge(t);
            }
        }
        merged
    }

    /// Every worker's core-link traffic, summed.
    pub fn link(&self) -> LinkStats {
        let mut link = LinkStats::default();
        for shard in &self.shards {
            link.merge(&shard.link);
        }
        link
    }

    /// The conservation check: the report-time shard merge must reproduce
    /// the independently-kept atomic totals exactly — a lost or
    /// double-counted request anywhere in the sharding shows up here — and,
    /// with coherence on, every signaled directory message must have been
    /// classified by its victim (`signaled == Σ sig_aborts + Σ sig_raced`).
    pub fn conservation_ok(&self) -> bool {
        let merged = self.merged_tenants();
        let sums = [
            merged.iter().map(|t| t.requests).sum::<u64>(),
            merged.iter().map(|t| t.uops).sum::<u64>(),
            merged.iter().map(|t| t.commits).sum::<u64>(),
            merged.iter().map(|t| t.aborts.total()).sum::<u64>(),
        ];
        let link = self.link();
        sums == self.global
            && self
                .directory
                .is_none_or(|d| d.signaled == link.sig_aborts + link.sig_raced)
    }

    /// The observation identity (DESIGN §17): with coherence on, every
    /// conflict a victim's link delivered surfaced as exactly one machine
    /// `Conflict` abort. Vacuously true with coherence off.
    pub fn observation_ok(&self) -> bool {
        self.directory.is_none()
            || self
                .merged_tenants()
                .iter()
                .map(|t| conflict_class(&t.aborts))
                .sum::<u64>()
                == self.link().sig_aborts
    }

    /// Requests across all shards that faulted or diverged.
    pub fn failures(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| &s.per_tenant)
            .map(|t| t.failures)
            .sum()
    }

    /// All request timings in schedule order. Panics if a schedule position
    /// was served zero or multiple times (a queue bug).
    pub fn request_timings(&self) -> Vec<RequestTiming> {
        let mut all: Vec<RequestTiming> = self
            .shards
            .iter()
            .flat_map(|s| s.timings.iter().copied())
            .collect();
        all.sort_by_key(|t| t.seq);
        for (i, t) in all.iter().enumerate() {
            assert_eq!(t.seq as usize, i, "request served zero or multiple times");
        }
        all
    }

    /// Distinct cache versions served from across all workers.
    pub fn versions_seen(&self) -> BTreeSet<u64> {
        self.shards
            .iter()
            .flat_map(|s| s.versions.iter().copied())
            .collect()
    }
}

/// Serves one request on `mach` (already positioned on the tenant's code),
/// attaching `link` around the run when coherence is on, and records it
/// into the worker's shard and the global tally. A fault or a checksum
/// mismatch counts as a failure.
fn serve_one(
    mach: &mut Machine<'_>,
    t: &Tenant,
    req: Request,
    link: &mut Option<CoreLink>,
    shard: &mut WorkerShard,
    globals: &Globals,
) {
    mach.set_fuel(t.workload.fuel.saturating_mul(4));
    if let Some(l) = link.take() {
        mach.attach_core(l);
    }
    let ran = mach.run(&[]);
    *link = mach.detach_core();
    let ok = ran.is_ok() && mach.env.checksum() == t.profiled.reference_checksum;
    let stats = mach.stats();
    let ts = &mut shard.per_tenant[req.tenant as usize];
    ts.requests += 1;
    if !ok {
        ts.failures += 1;
    }
    ts.uops += stats.uops;
    ts.cycles += stats.cycles;
    ts.commits += stats.commits;
    ts.aborts.merge(&stats.aborts);
    ts.regions.merge(&stats.per_region);
    add_tiers(&mut ts.tier_time, &stats.tier_time);
    add_tiers(&mut ts.tier_enters, &stats.tier_enters);
    shard.timings.push(RequestTiming {
        seq: req.seq,
        tenant: req.tenant,
        cycles: stats.cycles,
    });
    globals.requests.fetch_add(1, Ordering::Relaxed);
    globals.uops.fetch_add(stats.uops, Ordering::Relaxed);
    globals.commits.fetch_add(stats.commits, Ordering::Relaxed);
    globals
        .aborts
        .fetch_add(stats.aborts.total(), Ordering::Relaxed);
}

/// One worker: pop a batch with the current cache, serve the batch out of
/// that cache — one pooled machine per request, its allocations recycled
/// through the pools. With a directory, the worker owns one core link per
/// tenant (core `worker_id·T + t`, asid `t`), so a mailbox only ever
/// carries its tenant's address-space traffic.
fn worker_loop(
    worker_id: usize,
    tenants: &[Tenant],
    queue: &WorkQueue,
    globals: &Globals,
    dir: Option<&Arc<Directory>>,
) -> WorkerShard {
    let n = tenants.len();
    let mut shard = WorkerShard::new(n);
    let mut pools = MachinePools::new();
    let mut links: Vec<Option<CoreLink>> = (0..n)
        .map(|t| dir.map(|d| CoreLink::new(Arc::clone(d), (worker_id * n + t) as u8, t as u16)))
        .collect();
    while let Some((batch, cache, version)) = queue.pop_batch(BATCH) {
        shard.versions.insert(version);
        for req in batch {
            let tid = req.tenant as usize;
            let t = &tenants[tid];
            let mut mach = Machine::with_pools(
                &t.workload.program,
                &cache.tenants[tid],
                t.hw.clone(),
                std::mem::take(&mut pools),
            );
            serve_one(&mut mach, t, req, &mut links[tid], &mut shard, globals);
            pools = mach.into_pools();
        }
    }
    for link in links.into_iter().flatten() {
        shard.link.merge(&link.stats);
    }
    shard
}

/// Runs one worker-pool leg: `workers` threads drain `schedule` (tenant id
/// per request) out of the bounded queue, all dispatching from one shared
/// cache that starts as `initial`. After `install_points[k]` requests have
/// been *pushed*, the producer builds a fresh cache under `install_ccfg`
/// and installs it mid-stream — workers keep executing throughout. With
/// `coherence`, every worker attaches to one shared [`Directory`] (see
/// [`worker_loop`]).
///
/// `install_points` must be ascending and within `1..=schedule.len()`.
pub fn run_leg(
    tenants: &[Tenant],
    schedule: &[u32],
    workers: usize,
    initial: &ServiceCache,
    install_points: &[usize],
    install_ccfg: &CompilerConfig,
    coherence: bool,
) -> LegOutcome {
    assert!(workers >= 1, "need at least one worker");
    assert!(
        install_points.windows(2).all(|w| w[0] < w[1])
            && install_points
                .iter()
                .all(|&p| p >= 1 && p <= schedule.len()),
        "install points must be ascending within 1..=len"
    );
    // Conflicts must emerge from the directory or not at all.
    assert!(
        !coherence || tenants.iter().all(|t| !t.hw.faults.any_per_uop()),
        "a coherence leg must be injection-free"
    );
    let dir = coherence.then(|| Directory::new(workers * tenants.len()));
    let queue = WorkQueue::new(initial.clone());
    let globals = Globals::default();
    let t0 = Instant::now();

    let mut installs = 0;
    let shards = std::thread::scope(|s| {
        let queue = &queue;
        let globals = &globals;
        let dir = dir.as_ref();
        let handles: Vec<_> = (0..workers)
            .map(|id| s.spawn(move || worker_loop(id, tenants, queue, globals, dir)))
            .collect();

        let mut points = install_points.iter().peekable();
        for (seq, &tenant) in schedule.iter().enumerate() {
            queue.push(Request {
                seq: seq as u32,
                tenant,
            });
            if points.peek() == Some(&&(seq + 1)) {
                points.next();
                // Built here, on the producer thread and off the queue
                // lock — the workers keep serving while this compiles — and
                // swapped in under the lock.
                queue.install(build_service_cache(tenants, install_ccfg));
                installs += 1;
            }
        }
        queue.close();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"))
            .collect::<Vec<_>>()
    });
    let wall_s = t0.elapsed().as_secs_f64();

    LegOutcome {
        workers,
        shards,
        installs,
        global: [
            globals.requests.load(Ordering::Relaxed),
            globals.uops.load(Ordering::Relaxed),
            globals.commits.load(Ordering::Relaxed),
            globals.aborts.load(Ordering::Relaxed),
        ],
        directory: dir.map(|d| DirectoryCounters {
            signaled: d.signaled(),
            publishes: d.publishes(),
            invalidations: d.invalidations(),
            downgrades: d.downgrades(),
        }),
        wall_s,
    }
}

// ---------------------------------------------------------------------------
// Discrete-event simulation over modeled cycles.
// ---------------------------------------------------------------------------

/// Greedy FIFO makespan: all requests available at t=0, each assigned to
/// the earliest-free of `workers` servers. Returns the completion time of
/// the last request in simulated cycles.
pub fn saturation_makespan(cycles: &[u64], workers: usize) -> u64 {
    let mut servers: BinaryHeap<Reverse<u64>> = (0..workers).map(|_| Reverse(0u64)).collect();
    let mut makespan = 0;
    for &c in cycles {
        let Reverse(free) = servers.pop().expect("workers >= 1");
        let done = free + c;
        makespan = makespan.max(done);
        servers.push(Reverse(done));
    }
    makespan
}

/// Open-loop arrival simulation at `util_pct`% of pool capacity: requests
/// arrive at a fixed interval, queue FIFO for the earliest-free server.
/// Returns per-request latencies (in schedule order) and the
/// queue-depth-at-arrival histogram.
pub fn open_loop(
    reqs: &[RequestTiming],
    workers: usize,
    util_pct: u64,
) -> (Vec<RequestTiming>, Histogram) {
    let mut depth_hist = Histogram::new(&[0, 1, 2, 4, 8, 16, 32, 64]);
    if reqs.is_empty() {
        return (Vec::new(), depth_hist);
    }
    let total: u64 = reqs.iter().map(|r| r.cycles).sum();
    let delta = (total as f64 / (reqs.len() as f64 * workers as f64)) * (100.0 / util_pct as f64);
    let mut servers: BinaryHeap<Reverse<u64>> = (0..workers).map(|_| Reverse(0u64)).collect();
    let mut starts: Vec<u64> = Vec::with_capacity(reqs.len());
    let mut latencies = Vec::with_capacity(reqs.len());
    for (i, r) in reqs.iter().enumerate() {
        let arrival = (i as f64 * delta).round() as u64;
        // Queue depth at this arrival: already-arrived requests that have
        // not yet started service.
        let depth = starts.iter().filter(|&&s| s > arrival).count() as u64;
        depth_hist.record(depth);
        let Reverse(free) = servers.pop().expect("workers >= 1");
        let start = free.max(arrival);
        starts.push(start);
        servers.push(Reverse(start + r.cycles));
        latencies.push(RequestTiming {
            seq: r.seq,
            tenant: r.tenant,
            cycles: start + r.cycles - arrival,
        });
    }
    (latencies, depth_hist)
}

/// Nearest-rank percentile of an ascending-sorted slice (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Simulated cycles expressed in microseconds at [`CLOCK_GHZ`].
pub fn cycles_to_us(cycles: u64) -> f64 {
    cycles as f64 / (CLOCK_GHZ * 1e3)
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

/// One tenant's row in a leg summary.
#[derive(Debug, Clone)]
pub struct TenantRow {
    /// Tenant name.
    pub name: &'static str,
    /// Service class.
    pub class: TenantClass,
    /// Requests served.
    pub requests: u64,
    /// Failed requests.
    pub failures: u64,
    /// Retired uops.
    pub uops: u64,
    /// Modeled cycles.
    pub cycles: u64,
    /// Region commits.
    pub commits: u64,
    /// Total aborts.
    pub aborts: u64,
    /// Distinct static regions.
    pub unique_regions: usize,
    /// Worst governor tier any request observed.
    pub top_tier: u8,
    /// Open-loop p50 latency, microseconds.
    pub p50_us: f64,
    /// Open-loop p99 latency, microseconds.
    pub p99_us: f64,
}

/// One worker-pool leg, aggregated for the report.
#[derive(Debug, Clone)]
pub struct LegSummary {
    /// Worker-pool size.
    pub workers: usize,
    /// Requests served.
    pub requests: u64,
    /// Failed requests.
    pub failures: u64,
    /// Saturation makespan in simulated cycles.
    pub makespan_cycles: u64,
    /// Sustained throughput at saturation, requests/second at [`CLOCK_GHZ`].
    pub throughput_rps: f64,
    /// Clean-class open-loop p50 latency, microseconds.
    pub clean_p50_us: f64,
    /// Clean-class open-loop p99 latency, microseconds.
    pub clean_p99_us: f64,
    /// Contended-class open-loop p50 latency, microseconds.
    pub contended_p50_us: f64,
    /// Contended-class open-loop p99 latency, microseconds.
    pub contended_p99_us: f64,
    /// Queue-depth-at-arrival histogram from the open-loop simulation.
    pub queue_depth: Histogram,
    /// Time-in-tier totals across all requests (governor tier distribution
    /// under load).
    pub tier_time: [u64; 4],
    /// Governor-ladder tier entries across all requests.
    pub tier_enters: [u64; 4],
    /// Retired uops.
    pub uops: u64,
    /// Region commits.
    pub commits: u64,
    /// Total aborts.
    pub aborts: u64,
    /// `Conflict` aborts: organic with coherence on, where nothing is
    /// injected.
    pub emergent: u64,
    /// [`LegOutcome::conservation_ok`].
    pub conservation: bool,
    /// [`LegOutcome::observation_ok`].
    pub observation: bool,
    /// Core-link traffic summed over every worker.
    pub link: LinkStats,
    /// The shared directory's counters (all zero with coherence off).
    pub directory: DirectoryCounters,
    /// Mid-stream cache installs.
    pub installs: u64,
    /// Distinct cache versions served from by workers.
    pub versions_seen: usize,
    /// Host wall seconds for the leg.
    pub wall_s: f64,
    /// Per-tenant rows.
    pub per_tenant: Vec<TenantRow>,
}

impl LegSummary {
    /// Requests per host wall second.
    pub fn wall_rps(&self) -> f64 {
        self.requests as f64 / self.wall_s.max(1e-9)
    }

    /// Emergent aborts per million retired uops (comparable to the
    /// injected-rate axis of `BENCH_knee.json`).
    pub fn emergent_per_muop(&self) -> f64 {
        self.emergent as f64 / (self.uops as f64 / 1e6).max(1e-9)
    }

    /// Every per-leg gate: no failed request, both identities, no
    /// unsignaled conflict.
    pub fn passed(&self) -> bool {
        self.failures == 0
            && self.conservation
            && self.observation
            && self.link.unsignaled_conflicts == 0
    }
}

/// Aggregates one leg's raw outcome into report form.
pub fn summarize_leg(tenants: &[Tenant], out: &LegOutcome) -> LegSummary {
    let reqs = out.request_timings();
    let cycles: Vec<u64> = reqs.iter().map(|r| r.cycles).collect();
    let makespan = saturation_makespan(&cycles, out.workers);
    let throughput_rps = if makespan == 0 {
        0.0
    } else {
        reqs.len() as f64 / (makespan as f64 / (CLOCK_GHZ * 1e9))
    };
    let (latencies, queue_depth) = open_loop(&reqs, out.workers, OPEN_LOOP_UTIL_PCT);

    let class_pcts = |class: TenantClass| {
        let mut v: Vec<u64> = latencies
            .iter()
            .filter(|l| tenants[l.tenant as usize].class == class)
            .map(|l| l.cycles)
            .collect();
        v.sort_unstable();
        (
            cycles_to_us(percentile(&v, 50.0)),
            cycles_to_us(percentile(&v, 99.0)),
        )
    };
    let (clean_p50_us, clean_p99_us) = class_pcts(TenantClass::Clean);
    let (contended_p50_us, contended_p99_us) = class_pcts(TenantClass::Contended);

    let merged = out.merged_tenants();
    let sum = |f: fn(&TenantShard) -> u64| merged.iter().map(f).sum::<u64>();
    let mut tier_time = [0u64; 4];
    let mut tier_enters = [0u64; 4];
    for t in &merged {
        add_tiers(&mut tier_time, &t.tier_time);
        add_tiers(&mut tier_enters, &t.tier_enters);
    }
    let per_tenant = merged
        .iter()
        .enumerate()
        .map(|(tid, m)| {
            let mut v: Vec<u64> = latencies
                .iter()
                .filter(|l| l.tenant as usize == tid)
                .map(|l| l.cycles)
                .collect();
            v.sort_unstable();
            TenantRow {
                name: tenants[tid].name,
                class: tenants[tid].class,
                requests: m.requests,
                failures: m.failures,
                uops: m.uops,
                cycles: m.cycles,
                commits: m.commits,
                aborts: m.aborts.total(),
                unique_regions: m.regions.len(),
                top_tier: m.regions.values().map(|c| c.tier).max().unwrap_or(0),
                p50_us: cycles_to_us(percentile(&v, 50.0)),
                p99_us: cycles_to_us(percentile(&v, 99.0)),
            }
        })
        .collect();

    LegSummary {
        workers: out.workers,
        requests: reqs.len() as u64,
        failures: out.failures(),
        makespan_cycles: makespan,
        throughput_rps,
        clean_p50_us,
        clean_p99_us,
        contended_p50_us,
        contended_p99_us,
        queue_depth,
        tier_time,
        tier_enters,
        uops: sum(|t| t.uops),
        commits: sum(|t| t.commits),
        aborts: sum(|t| t.aborts.total()),
        emergent: sum(|t| conflict_class(&t.aborts)),
        conservation: out.conservation_ok(),
        observation: out.observation_ok(),
        link: out.link(),
        directory: out.directory.unwrap_or_default(),
        installs: out.installs,
        versions_seen: out.versions_seen().len(),
        wall_s: out.wall_s,
        per_tenant,
    }
}

/// The worker-pool benchmark report, for `serve` and `mt` alike.
#[derive(Debug, Clone)]
pub struct PoolReport {
    /// CI-sized slice?
    pub smoke: bool,
    /// Workers attached to one shared coherence directory?
    pub coherence: bool,
    /// Each leg's schedule grows with its worker count (`mt`), instead of
    /// every leg serving the same schedule (`serve`).
    pub fixed_work_per_worker: bool,
    /// Timed reps per scaling leg after one warm run (0: each leg runs
    /// once and times itself).
    pub reps: usize,
    /// Host parallelism — `scripts/check.sh` applies its wall-clock
    /// scaling floor only when this is ≥ 2.
    pub host_cores: usize,
    /// `(name, class)` per tenant, in tenant-id order.
    pub tenants: Vec<(&'static str, TenantClass)>,
    /// One summary per worker-pool size, ascending.
    pub legs: Vec<LegSummary>,
    /// Every worker on one tenant's address space: `(tenant, leg)`.
    pub contention: Option<(&'static str, LegSummary)>,
    /// Per-request modeled cycles identical across every leg (the
    /// cross-request-isolation property made observable). `None` with
    /// coherence on, where real conflicts make cycle counts vary.
    pub deterministic: Option<bool>,
}

impl PoolReport {
    /// Modeled throughput of the largest pool over the 1-worker pool.
    pub fn top_speedup(&self) -> f64 {
        self.legs
            .len()
            .checked_sub(1)
            .map_or(0.0, |last| self.relative(last).0)
    }

    /// Every leg's modeled throughput at least the 1-worker leg's (the
    /// scaling floor CI gates on with coherence off).
    pub fn scaling_ok(&self) -> bool {
        match self.legs.first() {
            Some(first) => self
                .legs
                .iter()
                .all(|l| l.throughput_rps >= first.throughput_rps),
            None => false,
        }
    }

    /// Leg `i`'s modeled speedup and wall-clock scaling over the 1-worker
    /// leg.
    pub fn relative(&self, i: usize) -> (f64, f64) {
        let (first, l) = (&self.legs[0], &self.legs[i]);
        let speedup = if first.throughput_rps > 0.0 {
            l.throughput_rps / first.throughput_rps
        } else {
            0.0
        };
        (speedup, l.wall_rps() / first.wall_rps())
    }

    /// The scaling legs, then the contention leg.
    fn all_legs(&self) -> impl Iterator<Item = &LegSummary> {
        self.legs
            .iter()
            .chain(self.contention.as_ref().map(|(_, c)| c))
    }

    /// `Conflict` aborts across every leg.
    pub fn emergent_total(&self) -> u64 {
        self.all_legs().map(|l| l.emergent).sum()
    }

    /// Highest governor tier any region entered in any leg.
    pub fn max_tier(&self) -> usize {
        self.all_legs()
            .filter_map(|l| l.tier_enters.iter().rposition(|&n| n > 0))
            .max()
            .unwrap_or(0)
    }

    /// Every gate the report fails, as messages (empty when it passes):
    /// the per-leg gates, a non-vacuous contention leg, and — with
    /// coherence off only — the modeled scaling floor and determinism. Real
    /// conflicts vary and inflate per-request cycles (the §14 ladder
    /// de-speculates contended regions), so with coherence on the modeled
    /// curve measures contention, not the pool.
    pub fn problems(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .all_legs()
            .filter(|l| !l.passed())
            .map(|l| {
                format!(
                    "leg of {} workers: {} failures, conservation {}, observation {}, \
                     {} unsignaled conflicts",
                    l.workers,
                    l.failures,
                    l.conservation,
                    l.observation,
                    l.link.unsignaled_conflicts
                )
            })
            .collect();
        if !self.coherence && !self.scaling_ok() {
            out.push("modeled worker scaling regressed below the 1-worker floor".into());
        }
        if self.deterministic == Some(false) {
            out.push("request timings varied across worker counts".into());
        }
        if let Some((tenant, c)) = &self.contention {
            if c.emergent == 0 {
                out.push(format!(
                    "contention on {tenant} produced no emergent conflicts (vacuous run)"
                ));
            }
        }
        out
    }

    /// One table row; `rel` is [`PoolReport::relative`] (`None` for the
    /// contention leg).
    fn leg_cells(label: String, l: &LegSummary, rel: Option<(f64, f64)>) -> Vec<String> {
        let te = l.tier_enters;
        let (speedup, scaling) = rel.map_or(("-".into(), "-".into()), |(s, x)| {
            (format!("{}x", num(s, 2)), format!("{}x", num(x, 2)))
        });
        vec![
            label,
            l.requests.to_string(),
            num(l.throughput_rps, 0),
            speedup,
            num(l.wall_rps(), 1),
            scaling,
            format!("{}/{}", num(l.clean_p50_us, 0), num(l.clean_p99_us, 0)),
            format!(
                "{}/{}",
                num(l.contended_p50_us, 0),
                num(l.contended_p99_us, 0)
            ),
            num(l.queue_depth.mean(), 2),
            l.emergent.to_string(),
            num(l.emergent_per_muop(), 2),
            format!("{}/{}/{}/{}", te[0], te[1], te[2], te[3]),
            if l.conservation { "yes" } else { "NO" }.into(),
            if l.observation { "yes" } else { "NO" }.into(),
            l.installs.to_string(),
        ]
    }

    /// Renders the worker-scaling table (plus the contention leg) and the
    /// largest pool's per-tenant breakdown.
    pub fn table(&self) -> String {
        let mut t = Table::new(
            &format!(
                "Worker pool: {} tenants, one shared code cache, coherence {} \
                 (host cores {})",
                self.tenants.len(),
                if self.coherence { "on" } else { "off" },
                self.host_cores
            ),
            &[
                "workers",
                "requests",
                "req/s",
                "speedup",
                "wall req/s",
                "wall x",
                "clean p50/p99 us",
                "cont p50/p99 us",
                "q-mean",
                "emergent",
                "e/Muop",
                "tiers 0/1/2/3",
                "conserved",
                "observed",
                "installs",
            ],
        );
        for (i, l) in self.legs.iter().enumerate() {
            t.row(&Self::leg_cells(
                l.workers.to_string(),
                l,
                Some(self.relative(i)),
            ));
        }
        if let Some((tenant, c)) = &self.contention {
            t.row(&Self::leg_cells(
                format!("{} on {tenant}", c.workers),
                c,
                None,
            ));
        }
        let mut s = t.render();
        if let Some(last) = self.legs.last() {
            let mut pt = Table::new(
                &format!("Per-tenant breakdown ({} workers)", last.workers),
                &[
                    "tenant", "class", "requests", "fail", "commits", "aborts", "top tier",
                    "p50 us", "p99 us",
                ],
            );
            for r in &last.per_tenant {
                pt.row(&[
                    r.name.into(),
                    r.class.name().into(),
                    r.requests.to_string(),
                    r.failures.to_string(),
                    r.commits.to_string(),
                    r.aborts.to_string(),
                    r.top_tier.to_string(),
                    num(r.p50_us, 0),
                    num(r.p99_us, 0),
                ]);
            }
            s.push('\n');
            s.push_str(&pt.render());
        }
        s
    }

    /// Serializes the report as a `hasp-pool-v3` artifact
    /// (`BENCH_service.json` or `BENCH_mt.json`).
    pub fn json(&self, wall_s: f64) -> String {
        let mut tenants = JsonArr::new();
        for &(name, class) in &self.tenants {
            tenants = tenants.obj(JsonObj::new().str("name", name).str("class", class.name()));
        }
        let mut legs = JsonArr::new();
        for (i, l) in self.legs.iter().enumerate() {
            legs = legs.obj(leg_json(l, Some(self.relative(i))));
        }
        let mut out = JsonObj::new()
            .str("schema", "hasp-pool-v3")
            .bool("smoke", self.smoke)
            .bool("coherence", self.coherence)
            .bool("fixed_work_per_worker", self.fixed_work_per_worker)
            .int("reps", self.reps as u64)
            .int("host_cores", self.host_cores as u64)
            .num("wall_s", wall_s)
            .num("clock_ghz", CLOCK_GHZ)
            .arr("tenants", tenants)
            .arr("legs", legs);
        if let Some((tenant, c)) = &self.contention {
            out = out.obj("contention", leg_json(c, None).str("tenant", tenant));
        }
        if let Some(d) = self.deterministic {
            out = out.bool("deterministic", d);
        }
        out.num("top_speedup", self.top_speedup())
            .bool("scaling_ok", self.scaling_ok())
            .bool("conservation_ok", self.all_legs().all(|l| l.conservation))
            .int("emergent_total", self.emergent_total())
            .int("max_tier", self.max_tier() as u64)
            .finish()
    }
}

/// One leg's JSON object; `rel` is [`PoolReport::relative`] (`None` for the
/// contention leg).
fn leg_json(l: &LegSummary, rel: Option<(f64, f64)>) -> JsonObj {
    let tiers = |v: &[u64; 4]| {
        JsonObj::new()
            .int("t0", v[0])
            .int("t1", v[1])
            .int("t2", v[2])
            .int("t3", v[3])
    };
    let mut depth = JsonArr::new();
    for (i, &c) in l.queue_depth.counts.iter().enumerate() {
        let le = l
            .queue_depth
            .bounds
            .get(i)
            .map_or("inf".to_string(), |b| b.to_string());
        depth = depth.obj(JsonObj::new().str("le", &le).int("count", c));
    }
    let mut per_tenant = JsonArr::new();
    for r in &l.per_tenant {
        per_tenant = per_tenant.obj(
            JsonObj::new()
                .str("tenant", r.name)
                .str("class", r.class.name())
                .int("requests", r.requests)
                .int("failures", r.failures)
                .int("uops", r.uops)
                .int("cycles", r.cycles)
                .int("commits", r.commits)
                .int("aborts", r.aborts)
                .int("unique_regions", r.unique_regions as u64)
                .int("top_tier", u64::from(r.top_tier))
                .num("p50_us", r.p50_us)
                .num("p99_us", r.p99_us),
        );
    }
    let mut o = JsonObj::new()
        .int("workers", l.workers as u64)
        .int("requests", l.requests)
        .int("failures", l.failures)
        .int("makespan_cycles", l.makespan_cycles)
        .num("throughput_rps", l.throughput_rps);
    if let Some((speedup, _)) = rel {
        o = o.num("speedup_vs_1", speedup);
    }
    o = o
        .num("clean_p50_us", l.clean_p50_us)
        .num("clean_p99_us", l.clean_p99_us)
        .num("contended_p50_us", l.contended_p50_us)
        .num("contended_p99_us", l.contended_p99_us)
        .num("queue_depth_mean", l.queue_depth.mean())
        .int("queue_depth_max", l.queue_depth.max)
        .arr("queue_depth_hist", depth)
        .obj("tier_time", tiers(&l.tier_time))
        .obj("tier_enters", tiers(&l.tier_enters))
        .int("uops", l.uops)
        .int("commits", l.commits)
        .int("aborts", l.aborts)
        .int("emergent", l.emergent)
        .num("emergent_per_muop", l.emergent_per_muop())
        .bool("conservation", l.conservation)
        .bool("observation", l.observation)
        .int("signaled", l.directory.signaled)
        .int("sig_aborts", l.link.sig_aborts)
        .int("sig_raced", l.link.sig_raced)
        .int("unsignaled_conflicts", l.link.unsignaled_conflicts)
        .int("publishes", l.directory.publishes)
        .int("invalidations", l.directory.invalidations)
        .int("downgrades", l.directory.downgrades)
        .int("installs", l.installs)
        .int("versions_seen", l.versions_seen as u64)
        .num("wall_s", l.wall_s)
        .num("wall_rps", l.wall_rps());
    if let Some((_, scaling)) = rel {
        o = o.num("scaling_x", scaling);
    }
    o.arr("per_tenant", per_tenant)
}

// ---------------------------------------------------------------------------
// The benchmark driver.
// ---------------------------------------------------------------------------

/// xorshift64 step, the repo's stock deterministic RNG.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Builds a seeded request schedule: `rounds` rounds, each containing every
/// tenant exactly once in a per-round shuffled order — a mixed arrival
/// stream with a fair per-tenant request count.
pub fn build_schedule(tenants: usize, rounds: usize, seed: u64) -> Vec<u32> {
    let mut rng = seed | 1;
    let mut schedule = Vec::with_capacity(tenants * rounds);
    for _ in 0..rounds {
        let mut round: Vec<u32> = (0..tenants as u32).collect();
        // Fisher–Yates with the seeded stream.
        for i in (1..round.len()).rev() {
            let j = (xorshift(&mut rng) % (i as u64 + 1)) as usize;
            round.swap(i, j);
        }
        schedule.extend(round);
    }
    schedule
}

/// The tenants `serve` runs in the contended class.
const CONTENDED: [&str; 3] = ["hsqldb", "pmd", "xalan"];

/// The tenant mix: all seven suite workloads, those named in `contended`
/// in the contended class and the rest clean. Smoke mode keeps fop and pmd
/// — the CI-sized slice `scripts/check.sh` runs.
pub fn build_tenants(smoke: bool, contended: &[&str]) -> Vec<Tenant> {
    let mut workloads = all_workloads();
    if smoke {
        workloads.retain(|w| w.name == "fop" || w.name == "pmd");
    }
    workloads
        .into_iter()
        .map(|w| {
            let class = if contended.contains(&w.name) {
                TenantClass::Contended
            } else {
                TenantClass::Clean
            };
            Tenant::new(w, class)
        })
        .collect()
}

/// The worker-pool sizes both benchmarks sweep.
fn worker_legs(smoke: bool) -> &'static [usize] {
    if smoke {
        &[1, 2]
    } else {
        &[1, 2, 4, 8]
    }
}

/// The schedule seed both benchmarks use.
const SCHEDULE_SEED: u64 = 0x5eed_cafe;

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Runs the service benchmark (`serve`): the tenant mix served by worker
/// pools of increasing size over the same seeded schedule, with two
/// mid-stream cache installs per leg and coherence off. Smoke mode
/// shrinks the tenant set, round count, and pool-size sweep.
pub fn run_service(smoke: bool) -> PoolReport {
    let tenants = build_tenants(smoke, &CONTENDED);
    let rounds = if smoke { 12 } else { 24 };
    let schedule = build_schedule(tenants.len(), rounds, SCHEDULE_SEED);
    // Installs rebuild the same compiler configuration: a fresh, sealed,
    // bit-identical product. The install path is fully exercised
    // while request timings stay comparable across the install boundary
    // (the mid-stream install test covers *different* products).
    let ccfg = CompilerConfig::atomic_aggressive();
    let cache = build_service_cache(&tenants, &ccfg);
    let installs = [schedule.len() / 2, (3 * schedule.len()) / 4];

    let outs: Vec<LegOutcome> = worker_legs(smoke)
        .iter()
        .map(|&w| run_leg(&tenants, &schedule, w, &cache, &installs, &ccfg, false))
        .collect();
    let timings: Vec<Vec<RequestTiming>> = outs.iter().map(LegOutcome::request_timings).collect();
    PoolReport {
        smoke,
        coherence: false,
        fixed_work_per_worker: false,
        reps: 0,
        host_cores: host_cores(),
        tenants: tenants.iter().map(|t| (t.name, t.class)).collect(),
        legs: outs.iter().map(|o| summarize_leg(&tenants, o)).collect(),
        contention: None,
        deterministic: Some(timings.windows(2).all(|w| w[0] == w[1])),
    }
}

/// Runs the multi-core benchmark (`mt`): the same pool with coherence on and
/// every tenant clean, so every conflict abort is organic. Each scaling
/// leg's schedule grows with its worker count (fixed work per worker), and
/// its wall time is the best of interleaved reps after a warm run
/// ([`best_of_interleaved`]). The contention leg then aims the largest pool
/// at one tenant's address space (hsqldb, the SLE workload; pmd in smoke
/// mode), where conflicts and §14 ladder climbs concentrate.
pub fn run_mt(smoke: bool) -> PoolReport {
    let tenants = build_tenants(smoke, &[]);
    let ccfg = CompilerConfig::atomic_aggressive();
    let cache = build_service_cache(&tenants, &ccfg);
    let legs = worker_legs(smoke);
    let (reps, rounds_per_worker, contention_per_worker) =
        if smoke { (2, 3, 8) } else { (3, 1, 12) };

    let schedules: Vec<Vec<u32>> = legs
        .iter()
        .map(|&w| build_schedule(tenants.len(), w * rounds_per_worker, SCHEDULE_SEED))
        .collect();
    // Abort counts legitimately vary across reps (real interleavings). A
    // rep that fails a leg gate replaces the warm run in the report, so the
    // failure reaches the artifact and its gates.
    let mut failed: Vec<Option<LegOutcome>> = vec![None; legs.len()];
    let timed = best_of_interleaved(
        reps,
        legs.len(),
        |k| run_leg(&tenants, &schedules[k], legs[k], &cache, &[], &ccfg, true),
        |k, rep, _| {
            // Summarizing also checks every request was served exactly once.
            if !summarize_leg(&tenants, rep).passed() {
                failed[k].get_or_insert_with(|| rep.clone());
            }
        },
    );
    let legs_out = timed
        .warm
        .into_iter()
        .zip(failed)
        .zip(timed.best_s)
        .map(|((warm, failed), wall_s)| {
            let out = LegOutcome {
                wall_s,
                ..failed.unwrap_or(warm)
            };
            summarize_leg(&tenants, &out)
        })
        .collect();

    let name = if smoke { "pmd" } else { "hsqldb" };
    let ct = tenants
        .iter()
        .position(|t| t.name == name)
        .expect("contended tenant in the corpus");
    let shared = std::slice::from_ref(&tenants[ct]);
    let shared_cache = ServiceCache {
        tenants: vec![cache.tenants[ct].clone()],
    };
    let cworkers = *legs.last().expect("legs");
    let schedule = vec![0; cworkers * contention_per_worker];
    let contention = run_leg(shared, &schedule, cworkers, &shared_cache, &[], &ccfg, true);

    PoolReport {
        smoke,
        coherence: true,
        fixed_work_per_worker: true,
        reps,
        host_cores: host_cores(),
        tenants: tenants.iter().map(|t| (t.name, t.class)).collect(),
        legs: legs_out,
        contention: Some((name, summarize_leg(shared, &contention))),
        deterministic: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_makespan_packs_greedily() {
        // 2 servers, FIFO: [30] -> s1, [10,10,10] -> s2.
        assert_eq!(saturation_makespan(&[30, 10, 10, 10], 2), 30);
        assert_eq!(saturation_makespan(&[10, 10, 10, 10], 2), 20);
        assert_eq!(saturation_makespan(&[10, 10, 10, 10], 1), 40);
        assert_eq!(saturation_makespan(&[], 3), 0);
        // 4 workers on 4 equal requests: perfect 4x over 1 worker.
        assert_eq!(saturation_makespan(&[100; 8], 4), 200);
        assert_eq!(saturation_makespan(&[100; 8], 1), 800);
    }

    #[test]
    fn open_loop_uniform_service_never_queues() {
        // Uniform 1000-cycle requests on one server at 95% utilization:
        // arrivals are slower than service, so latency == service time and
        // the queue is always empty at arrival.
        let reqs: Vec<RequestTiming> = (0..20)
            .map(|i| RequestTiming {
                seq: i,
                tenant: 0,
                cycles: 1000,
            })
            .collect();
        let (lat, depth) = open_loop(&reqs, 1, 95);
        assert!(lat.iter().all(|l| l.cycles == 1000));
        assert_eq!(depth.n, 20);
        assert_eq!(depth.max, 0);
        // A huge head-of-line request backs up everything behind it.
        let mut reqs = reqs;
        reqs[0].cycles = 50_000;
        let (lat, depth) = open_loop(&reqs, 1, 95);
        assert!(lat[1].cycles > 1000, "request behind the elephant queues");
        assert!(depth.max > 0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 51);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn schedule_is_fair_and_seeded() {
        let a = build_schedule(7, 24, 0x5eed_cafe);
        let b = build_schedule(7, 24, 0x5eed_cafe);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 7 * 24);
        for round in a.chunks(7) {
            let mut seen: Vec<u32> = round.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..7).collect::<Vec<_>>(), "each round is fair");
        }
        let c = build_schedule(7, 24, 0x1234);
        assert_ne!(a, c, "different seed, different order");
        // The mix is actually mixed: not every round in the same order.
        assert!(a.chunks(7).any(|r| r != &a[..7]));
    }

    #[test]
    fn cycles_convert_at_the_nominal_clock() {
        // 2 GHz: 2000 cycles per microsecond.
        assert!((cycles_to_us(2000) - 1.0).abs() < 1e-12);
        assert!((cycles_to_us(1_000_000) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn report_json_carries_the_contract_fields() {
        let leg = LegSummary {
            workers: 2,
            requests: 10,
            failures: 0,
            makespan_cycles: 1_000_000,
            throughput_rps: 20_000.0,
            clean_p50_us: 50.0,
            clean_p99_us: 90.0,
            contended_p50_us: 60.0,
            contended_p99_us: 120.0,
            queue_depth: Histogram::new(&[0, 1, 2]),
            tier_time: [5, 3, 1, 0],
            tier_enters: [4, 2, 0, 1],
            uops: 2_000_000,
            commits: 5,
            aborts: 4,
            emergent: 3,
            conservation: true,
            observation: true,
            link: LinkStats {
                sig_aborts: 3,
                sig_raced: 4,
                ..LinkStats::default()
            },
            directory: DirectoryCounters {
                signaled: 7,
                publishes: 100,
                invalidations: 9,
                downgrades: 2,
            },
            installs: 2,
            versions_seen: 3,
            wall_s: 0.1,
            per_tenant: vec![TenantRow {
                name: "fop",
                class: TenantClass::Clean,
                requests: 10,
                failures: 0,
                uops: 100,
                cycles: 200,
                commits: 5,
                aborts: 1,
                unique_regions: 3,
                top_tier: 1,
                p50_us: 50.0,
                p99_us: 90.0,
            }],
        };
        let serve = PoolReport {
            smoke: true,
            coherence: false,
            fixed_work_per_worker: false,
            reps: 0,
            host_cores: 2,
            tenants: vec![("fop", TenantClass::Clean), ("pmd", TenantClass::Contended)],
            legs: vec![
                LegSummary {
                    workers: 1,
                    throughput_rps: 11_000.0,
                    wall_s: 0.2,
                    requests: 10,
                    ..leg.clone()
                },
                leg.clone(),
            ],
            contention: None,
            deterministic: Some(true),
        };
        assert!(serve.scaling_ok());
        assert!(serve.problems().is_empty(), "{:?}", serve.problems());
        assert!((serve.top_speedup() - 20.0 / 11.0).abs() < 1e-9);
        let (speedup, scaling) = serve.relative(1);
        assert!((speedup - 20.0 / 11.0).abs() < 1e-9 && (scaling - 2.0).abs() < 1e-9);
        assert_eq!(serve.max_tier(), 3);
        let json = serve.json(1.5);
        for field in [
            "\"schema\": \"hasp-pool-v3\"",
            "\"coherence\": false",
            "\"throughput_rps\": 20000.000000",
            "\"clean_p99_us\": 90.000000",
            "\"contended_p50_us\": 60.000000",
            "\"queue_depth_hist\"",
            "\"t3\": 1",
            "\"conservation\": true",
            "\"deterministic\": true",
            "\"speedup_vs_1\"",
            "\"scaling_x\": 2.000000",
            "\"wall_rps\": 100.000000",
        ] {
            assert!(json.contains(field), "missing {field}");
        }
        assert!(!json.contains("\"contention\""));
        let table = serve.table();
        assert!(table.contains("workers"));
        assert!(table.contains("Per-tenant breakdown"));

        // With coherence on: the directory fields, the observation flag and
        // the contention leg; no determinism claim.
        let mut mt = PoolReport {
            coherence: true,
            fixed_work_per_worker: true,
            reps: 3,
            contention: Some(("pmd", leg)),
            deterministic: None,
            ..serve
        };
        assert!(mt.problems().is_empty(), "{:?}", mt.problems());
        assert_eq!(mt.emergent_total(), 9);
        let json = mt.json(1.5);
        for field in [
            "\"coherence\": true",
            "\"fixed_work_per_worker\": true",
            "\"signaled\": 7",
            "\"sig_aborts\": 3",
            "\"sig_raced\": 4",
            "\"unsignaled_conflicts\": 0",
            "\"publishes\": 100",
            "\"invalidations\": 9",
            "\"downgrades\": 2",
            "\"observation\": true",
            "\"emergent_per_muop\": 1.500000",
            "\"contention\"",
            "\"tenant\": \"pmd\"",
            "\"conservation_ok\": true",
            "\"emergent_total\": 9",
        ] {
            assert!(json.contains(field), "missing {field}");
        }
        assert!(!json.contains("\"deterministic\""));
        assert!(mt.table().contains("2 on pmd"));

        // A broken identity anywhere fails the report.
        if let Some((_, c)) = &mut mt.contention {
            c.observation = false;
        }
        assert_eq!(mt.problems().len(), 1);
    }

    #[test]
    fn conservation_fails_on_a_lost_request() {
        let mut shard = WorkerShard::new(1);
        shard.per_tenant[0].requests = 3;
        shard.per_tenant[0].uops = 300;
        let out = LegOutcome {
            workers: 1,
            shards: vec![shard],
            installs: 0,
            global: [3, 300, 0, 0],
            directory: None,
            wall_s: 0.0,
        };
        assert!(out.conservation_ok());
        let mut broken = LegOutcome {
            global: [4, 300, 0, 0],
            ..out.clone()
        };
        assert!(!broken.conservation_ok(), "a lost request must be caught");
        broken.global = [3, 299, 0, 0];
        assert!(!broken.conservation_ok(), "lost uops must be caught");

        // With a directory, every signaled message must be classified and
        // every delivered conflict must surface as a machine abort.
        let mut coherent = LegOutcome {
            directory: Some(DirectoryCounters {
                signaled: 5,
                ..DirectoryCounters::default()
            }),
            ..out
        };
        coherent.shards[0].link.sig_aborts = 2;
        coherent.shards[0].link.sig_raced = 3;
        for _ in 0..2 {
            coherent.shards[0].per_tenant[0]
                .aborts
                .record(AbortReason::Conflict);
        }
        coherent.global[3] = 2;
        assert!(coherent.conservation_ok() && coherent.observation_ok());
        coherent.shards[0].link.sig_raced = 2;
        assert!(
            !coherent.conservation_ok(),
            "an unclassified signal must be caught"
        );
        coherent.shards[0].link.sig_aborts = 3;
        assert!(
            !coherent.observation_ok(),
            "an unobserved conflict must be caught"
        );
    }

    #[test]
    fn sle_aborts_are_not_emergent() {
        // Two delivered conflicts, plus three aborts of the program's own
        // elided-lock check, which no directory message raised.
        let mut shard = WorkerShard::new(1);
        shard.per_tenant[0].requests = 1;
        let (conflict, sle) = (AbortReason::Conflict, AbortReason::Sle);
        for reason in [conflict, conflict, sle, sle, sle] {
            shard.per_tenant[0].aborts.record(reason);
        }
        shard.link.sig_aborts = 2;
        let out = LegOutcome {
            workers: 1,
            shards: vec![shard],
            installs: 0,
            global: [1, 0, 0, 5],
            directory: Some(DirectoryCounters {
                signaled: 2,
                ..DirectoryCounters::default()
            }),
            wall_s: 0.0,
        };
        assert!(out.conservation_ok());
        assert!(
            out.observation_ok(),
            "an Sle abort has no signal to balance"
        );
        assert_eq!(conflict_class(&out.merged_tenants()[0].aborts), 2);
    }
}
