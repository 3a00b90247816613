//! The three workloads. Each takes the seed that feeds every program's
//! inputs, sets up (repeatedly, so set-up time is a median), then runs a
//! closed loop for the requested host time.
//!
//! * `cold_start` — one client; each operation takes one program from
//!   bytecode to a checked simulated result (profile, compile, lower and
//!   install, run). The only workload where the interpreter, region
//!   formation and the optimizer do most of the work.
//! * `steady_sim` — one client; set-up compiles all seven programs under
//!   `no_atomic` and `atomic_aggressive`; each operation runs one of the
//!   fourteen sealed codes on a fresh baseline machine. The simulator does
//!   all the work, with and without checkpoints.
//! * `shared_asid` — two clients on two threads serve back-to-back hsqldb
//!   requests in one address space over one coherence directory, governor
//!   online. The only workload where writes contend across cores.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use hasp_experiments::runner::WorkloadRun;
use hasp_hw::stats::RunStats;
use hasp_hw::{CoreLink, Directory, GovernorConfig, HwConfig, LinkStats, MachinePools, PredStats};
use hasp_opt::CompilerConfig;
use hasp_workloads::{all_workloads, Workload};

use crate::layers::LayerAcc;
use crate::pipeline::{
    compile, compile_traced, profile, run_checked, same_product, seal, CellGuard, Compiled, Run,
    SimCounters,
};
use crate::trace::{Span, Tracer};
use crate::{median, peak_rss_mb, percentile, secs_since, HostSpeed, Metric, SplitMix};

/// Set-up runs at least this often per run; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
/// A set-up cheaper than this much host time in total is repeated (up to
/// [`SETUP_MAX_REPS`]) so its median rests on many samples.
const SETUP_MIN_SECS: f64 = 0.3;
/// See [`SETUP_MIN_SECS`].
const SETUP_MAX_REPS: usize = 200;
/// Calibration slices on each side of the set-up reps (they can last
/// seconds, too long for one slice to tell the host's speed over them).
const SETUP_CAL_SLICES: usize = 5;

/// A workload name from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// See the module documentation.
    ColdStart,
    /// See the module documentation.
    SteadySim,
    /// See the module documentation.
    SharedAsid,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::ColdStart, Kind::SteadySim, Kind::SharedAsid];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdStart => "cold_start",
            Kind::SteadySim => "steady_sim",
            Kind::SharedAsid => "shared_asid",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Runs the workload.
    ///
    /// # Errors
    /// Returns a description when set-up fails (a program does not
    /// interpret).
    pub fn run(self, p: &Params) -> Result<Outcome, String> {
        match self {
            Kind::ColdStart => cold_start(p),
            Kind::SteadySim => steady_sim(p),
            Kind::SharedAsid => shared_asid(p),
        }
    }
}

/// Run parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seed for every program's inputs and the program order.
    pub seed: u64,
    /// Host seconds the closed loop runs for.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations attempted.
    pub attempted: u64,
    /// Operations that failed a check (counted, never a panic).
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// End-to-end metrics (tracing off), same names on every workload.
    pub e2e: Vec<Metric>,
    /// End-to-end metrics under the workload's own names.
    pub report: Vec<Metric>,
    /// Per-layer metrics (tracing on).
    pub layers: Vec<Metric>,
    /// Exact simulated counters per (program, config) cell.
    pub cells: Vec<(String, SimCounters)>,
    /// Every span of the traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Counts one checked operation.
    fn check<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(e);
                }
                None
            }
        }
    }

    /// Failed operations over attempted operations.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Fills in the metrics of a finished run.
    fn finish(
        &mut self,
        p: &Params,
        setup: &[f64],
        t: &Timed,
        mut report: Vec<Metric>,
        acc: LayerAcc,
        tr: &Tracer,
    ) {
        let setup_s = median(setup);
        let rss = peak_rss_mb();
        let op_secs = t.op_secs();
        self.e2e = vec![
            Metric::new("setup_s", "s", setup_s),
            Metric::new("peak_rss_mb", "MB", rss),
            Metric::new("ops_per_s", "1/s", t.ops_per_s()),
            Metric::new("op_ms_p50", "ms", percentile(&op_secs, 0.5) * 1e3),
            Metric::new("sim_muops_per_s", "Muop/s", t.muops_per_s()),
        ];
        let mut head = vec![
            Metric::new("setup_s", "s", setup_s),
            Metric::new("peak_rss_mb", "MB", rss),
            Metric::new("failed_share", "fraction", self.failed_share()),
            Metric::new("host_speed", "fraction", t.host_speed),
        ];
        head.append(&mut report);
        self.report = head;
        if p.trace {
            self.layers = acc.metrics(tr.spans(), &t.traced_units, &t.untraced_units);
            self.spans = tr.spans().to_vec();
        }
    }
}

/// The cells a guard recorded, named `<program> <config>`.
fn named_cells(guard: &CellGuard) -> Vec<(String, SimCounters)> {
    guard
        .cells()
        .into_iter()
        .map(|((w, c), s)| (format!("{w} {c}"), s))
        .collect()
}

/// Simulated cycles of one pass over the cells.
fn cycles(cells: &[(String, SimCounters)]) -> u64 {
    cells.iter().map(|(_, s)| s.cycles).sum()
}

/// Runs the set-up `f` repeatedly (see [`SETUP_MIN_REPS`] and
/// [`SETUP_MIN_SECS`]), keeping the last product and every duration at
/// reference host speed (one scale, from calibration slices before the
/// first rep and after the last).
fn setups<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let mut secs: Vec<f64> = Vec::new();
    let mut last = None;
    let mut hs = HostSpeed::new(SETUP_CAL_SLICES);
    while secs.len() < SETUP_MIN_REPS
        || (secs.iter().sum::<f64>() < SETUP_MIN_SECS && secs.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(f()?);
        secs.push(secs_since(t));
    }
    let scale = hs.scale();
    secs.iter_mut().for_each(|s| *s *= scale);
    Ok((last.expect("set-up ran"), secs))
}

/// Host times of a closed loop, at reference host speed.
#[derive(Debug, Default)]
struct Timed {
    /// Concurrent clients.
    clients: usize,
    /// Per untraced, checked operation: its kind, host time and uops.
    ops: Vec<(usize, f64, u64)>,
    /// The host's median speed as a fraction of the reference speed.
    host_speed: f64,
    /// Time of each traced and untraced unit of work (a pass, or a
    /// request), for the tracing overhead.
    traced_units: Vec<f64>,
    /// See [`Timed::traced_units`].
    untraced_units: Vec<f64>,
}

impl Timed {
    /// Host time of every operation.
    fn op_secs(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.1).collect()
    }

    /// Per operation kind: median host time and median uops.
    fn per_kind(&self) -> Vec<(f64, f64)> {
        let mut kinds: BTreeMap<usize, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for &(k, secs, uops) in &self.ops {
            let e = kinds.entry(k).or_default();
            e.0.push(secs);
            e.1.push(uops as f64);
        }
        kinds
            .values()
            .map(|(s, u)| (median(s), median(u)))
            .collect()
    }

    /// Operations per second of all clients together: the geometric mean
    /// over operation kinds of each kind's rate at its median time, so a
    /// seed that lengthens one program moves it by that program's share
    /// only.
    fn ops_per_s(&self) -> f64 {
        self.clients as f64 * geomean(self.per_kind().iter().map(|&(s, _)| 1.0 / s))
    }

    /// Simulated Muops per second of all clients together, the geometric
    /// mean over operation kinds.
    fn muops_per_s(&self) -> f64 {
        self.clients as f64 * geomean(self.per_kind().iter().map(|&(s, u)| u / 1e6 / s))
    }
}

/// Geometric mean; 0 for no values.
fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (n, sum) = xs.fold((0, 0.0), |(n, s), x| (n + 1, s + x.ln()));
    if n == 0 {
        0.0
    } else {
        (sum / f64::from(n)).exp()
    }
}

/// The closed loop of one client over `kinds` kinds of operation: passes
/// over every kind in a seeded order, until time is up. When tracing,
/// passes alternate traced and untraced (the first is traced), and the
/// loop runs at least one of each.
///
/// `op` performs operation `kind` (the timed part); `after` checks its
/// product untimed and returns the uops of a checked, untraced operation.
/// It is also told the operation's id, whether it was traced, and the
/// factor that scales its host time to reference speed.
fn closed_loop<R>(
    p: &Params,
    kinds: usize,
    tr: &mut Tracer,
    mut op: impl FnMut(usize, &mut Tracer) -> R,
    mut after: impl FnMut(usize, R, OpInfo) -> Option<u64>,
) -> Timed {
    let mut hs = HostSpeed::new(1);
    let mut t = Timed {
        clients: 1,
        ..Timed::default()
    };
    let start = Instant::now();
    let (mut op_id, mut pass) = (0, 0);
    while pass == 0 || (p.trace && pass < 2) || secs_since(start) < p.seconds {
        let traced = p.trace && pass % 2 == 0;
        tr.set_enabled(traced);
        let mut order: Vec<usize> = (0..kinds).collect();
        SplitMix::new(p.seed, pass).shuffle(&mut order);
        let mut pass_secs = 0.0;
        for kind in order {
            op_id += 1;
            tr.set_op(op_id);
            let t0 = Instant::now();
            let root = tr.begin("bench.op");
            let r = op(kind, tr);
            tr.end(root);
            let raw = secs_since(t0);
            let scale = hs.scale();
            let secs = raw * scale;
            pass_secs += secs;
            let info = OpInfo {
                id: op_id,
                traced,
                scale,
            };
            if let Some(uops) = after(kind, r, info) {
                t.ops.push((kind, secs, uops));
            }
        }
        if traced {
            &mut t.traced_units
        } else {
            &mut t.untraced_units
        }
        .push(pass_secs);
        pass += 1;
    }
    t.host_speed = hs.speed();
    t
}

/// What the closed loop tells `after` about an operation.
#[derive(Debug, Clone, Copy)]
struct OpInfo {
    id: u64,
    traced: bool,
    /// Reference-speed time over raw host time.
    scale: f64,
}

/// One cold operation's product, kept for the checks after timing.
struct ColdProduct {
    steps: u64,
    compiled: Compiled,
    static_uops: usize,
    run: Run,
}

fn cold_start(p: &Params) -> Result<Outcome, String> {
    let (ws, setup) = setups(|| Ok(all_workloads()))?;
    let cfg = CompilerConfig::atomic_aggressive();
    let hw = HwConfig::baseline();
    let mut out = Outcome::default();
    let mut tr = Tracer::new(false, Instant::now());

    // The traced passes re-drive the compiler pass by pass; their product
    // is checked against `compile_program`'s, computed here untimed.
    let refs: Vec<Option<Compiled>> = if p.trace {
        ws.iter()
            .map(|w| profile(w, p.seed, &mut tr).map(|pr| compile(w, &pr, &cfg)))
            .map(|r| out.check(r))
            .collect()
    } else {
        Vec::new()
    };

    let mut acc = LayerAcc::default();
    let mut guard = CellGuard::default();
    let mut pools = MachinePools::new();
    let timed = closed_loop(
        p,
        ws.len(),
        &mut tr,
        |i, tr| cold_op(&ws[i], p.seed, &cfg, &hw, &mut pools, tr),
        |i, r, op| {
            let w = &ws[i];
            let prod = out.check(r.and_then(|prod| {
                guard.check(w.name, cfg.name, &prod.run.counters)?;
                if op.traced
                    && !refs[i]
                        .as_ref()
                        .is_some_and(|c| same_product(c, &prod.compiled))
                {
                    return Err(format!(
                        "{}: traced compile differs from compile_program",
                        w.name
                    ));
                }
                Ok(prod)
            }))?;
            if !op.traced {
                return Some(prod.run.counters.uops);
            }
            acc.op(op.id, w.name, op.scale);
            acc.steps += prod.steps;
            acc.compiled(&prod.compiled, prod.static_uops);
            acc.ran(&prod.run.counters, &prod.run.pred);
            None
        },
    );
    out.cells = named_cells(&guard);
    let report = vec![
        Metric::new("cold_programs_per_s", "1/s", timed.ops_per_s()),
        Metric::new("cold_ms_p50", "ms", percentile(&timed.op_secs(), 0.5) * 1e3),
        Metric::new("cold_ms_p90", "ms", percentile(&timed.op_secs(), 0.9) * 1e3),
        Metric::new("sim_cycles", "cycles", cycles(&out.cells) as f64),
    ];
    out.finish(p, &setup, &timed, report, acc, &tr);
    Ok(out)
}

/// One cold operation: profile, compile (pass by pass when tracing),
/// lower and install, run and check.
fn cold_op(
    w: &Workload,
    seed: u64,
    cfg: &CompilerConfig,
    hw: &HwConfig,
    pools: &mut MachinePools,
    tr: &mut Tracer,
) -> Result<ColdProduct, String> {
    let prof = profile(w, seed, tr)?;
    let compiled = if tr.enabled() {
        compile_traced(w, &prof, cfg, tr)?
    } else {
        compile(w, &prof, cfg)
    };
    let code = seal(&compiled, tr);
    let ran = run_checked(
        w,
        &code,
        hw,
        seed,
        prof.reference,
        std::mem::take(pools),
        None,
        tr,
    );
    *pools = ran.pools;
    Ok(ColdProduct {
        steps: prof.steps,
        compiled,
        static_uops: code.static_uops(),
        run: ran.result?,
    })
}

/// One sealed (program, config) code of `steady_sim`.
struct Sealed {
    program: usize,
    config: &'static str,
    code: hasp_hw::CodeCache,
    reference: i64,
}

fn steady_sim(p: &Params) -> Result<Outcome, String> {
    let configs = [
        CompilerConfig::no_atomic(),
        CompilerConfig::atomic_aggressive(),
    ];
    let mut out = Outcome::default();
    // Each set-up rep redoes the identity checks; only the last rep's count.
    let mut identity: Vec<Result<(), String>> = Vec::new();
    let ((ws, codes), setup) = setups(|| {
        identity.clear();
        let ws = all_workloads();
        let mut off = Tracer::new(false, Instant::now());
        let mut codes = Vec::new();
        for (i, w) in ws.iter().enumerate() {
            let prof = profile(w, p.seed, &mut off)?;
            for cfg in &configs {
                let compiled = compile(w, &prof, cfg);
                if p.trace {
                    let same = compile_traced(w, &prof, cfg, &mut off)
                        .is_ok_and(|c| same_product(&c, &compiled));
                    identity.push(if same {
                        Ok(())
                    } else {
                        Err(format!("{}/{}: traced compile differs", w.name, cfg.name))
                    });
                }
                codes.push(Sealed {
                    program: i,
                    config: cfg.name,
                    code: seal(&compiled, &mut off),
                    reference: prof.reference,
                });
            }
        }
        Ok((ws, codes))
    })?;
    for r in identity {
        out.check(r);
    }

    let hw = HwConfig::baseline();
    let mut tr = Tracer::new(false, Instant::now());
    let mut acc = LayerAcc::default();
    let mut guard = CellGuard::default();
    let mut first: Vec<Option<Run>> = codes.iter().map(|_| None).collect();
    let mut pools = MachinePools::new();
    let timed = closed_loop(
        p,
        codes.len(),
        &mut tr,
        |i, tr| {
            let c = &codes[i];
            let ran = run_checked(
                &ws[c.program],
                &c.code,
                &hw,
                p.seed,
                c.reference,
                std::mem::take(&mut pools),
                None,
                tr,
            );
            pools = ran.pools;
            ran.result
        },
        |i, r, op| {
            let c = &codes[i];
            let name = ws[c.program].name;
            let run = out.check(r.and_then(|run| {
                guard.check(name, c.config, &run.counters)?;
                Ok(run)
            }))?;
            let uops = run.counters.uops;
            if op.traced {
                acc.op(op.id, name, op.scale);
                acc.ran(&run.counters, &run.pred);
            }
            if first[i].is_none() {
                first[i] = Some(run);
            }
            (!op.traced).then_some(uops)
        },
    );
    out.cells = named_cells(&guard);
    let report = vec![
        Metric::new("sim_muops_per_s", "Muop/s", timed.muops_per_s()),
        Metric::new(
            "sim_run_ms_p50",
            "ms",
            percentile(&timed.op_secs(), 0.5) * 1e3,
        ),
        Metric::new(
            "sim_run_ms_p90",
            "ms",
            percentile(&timed.op_secs(), 0.9) * 1e3,
        ),
        Metric::new("sim_cycles", "cycles", cycles(&out.cells) as f64),
        Metric::new(
            "atomic_speedup_pct",
            "%",
            atomic_speedup_pct(&ws, &codes, &first, &configs),
        ),
    ];
    out.finish(p, &setup, &timed, report, acc, &tr);
    Ok(out)
}

/// Geomean over the programs of the §5 weighted-sample speedup of
/// `atomic_aggressive` over `no_atomic` (`WorkloadRun::speedup_vs`), in
/// percent; 0 when a program has no checked run under both configs.
fn atomic_speedup_pct(
    ws: &[Workload],
    codes: &[Sealed],
    first: &[Option<Run>],
    configs: &[CompilerConfig; 2],
) -> f64 {
    let as_run = |i: usize| {
        let c = &codes[i];
        // `speedup_vs` reads the samples alone.
        first[i].as_ref().map(|r| WorkloadRun {
            workload: ws[c.program].name,
            compiler: c.config,
            hardware: "baseline",
            stats: RunStats::default(),
            samples: r.samples.clone(),
            static_uops: c.code.static_uops(),
            pred: r.pred,
        })
    };
    let find = |prog: usize, cfg: &str| {
        codes
            .iter()
            .position(|c| c.program == prog && c.config == cfg)
    };
    let mut log_sum = 0.0;
    for prog in 0..ws.len() {
        let base = find(prog, configs[0].name).and_then(as_run);
        let atom = find(prog, configs[1].name).and_then(as_run);
        let (Some(base), Some(atom)) = (base, atom) else {
            return 0.0;
        };
        log_sum += (1.0 + atom.speedup_vs(&base) / 100.0).ln();
    }
    ((log_sum / ws.len() as f64).exp() - 1.0) * 100.0
}

/// The `shared_asid` hardware: baseline with the §14 governor online.
fn shared_hw() -> HwConfig {
    HwConfig {
        governor: GovernorConfig::online(),
        ..HwConfig::baseline()
    }
}

/// The clients of `shared_asid`.
const CLIENTS: usize = 2;

/// One request a client served.
struct Request {
    round: usize,
    id: u64,
    traced: bool,
    /// Raw host time.
    raw: f64,
    /// The checked run's counters.
    result: Result<(SimCounters, PredStats), String>,
}

/// What one client thread brings back.
struct ClientOut {
    requests: Vec<Request>,
    link: LinkStats,
    tracer: Tracer,
}

/// Round control shared by the `shared_asid` clients.
struct Rounds {
    /// Both clients start each round together, and end it together.
    barrier: Barrier,
    /// Set by client 0 between rounds when time is up.
    stop: AtomicBool,
    /// The directories of the last [`DIR_RING`] rounds, the current one
    /// last. Client 0 adds a fresh one between rounds, so no round
    /// inherits another's line states. Keeping a few alive places each
    /// new one at another address: how the directory's stripes share host
    /// cache lines then varies within a run instead of between runs, and
    /// that placement changes how hard the clients contend.
    dirs: Mutex<VecDeque<Arc<Directory>>>,
}

/// See [`Rounds::dirs`].
const DIR_RING: usize = 16;

impl Rounds {
    fn dir(&self) -> Arc<Directory> {
        let dirs = self.dirs.lock().expect("no client panicked holding it");
        Arc::clone(dirs.back().expect("never empty"))
    }
}

fn shared_asid(p: &Params) -> Result<Outcome, String> {
    let cfg = CompilerConfig::atomic_aggressive();
    let hw = shared_hw();
    let mut solo = None;
    let ((w, prof, code), setup) = setups(|| {
        let w = hasp_workloads::hsqldb::hsqldb();
        let mut off = Tracer::new(false, Instant::now());
        let prof = profile(&w, p.seed, &mut off)?;
        let code = seal(&compile(&w, &prof, &cfg), &mut off);
        // A lone run (no directory) checks the code before the clients
        // start and gives the exactly repeatable cell.
        let ran = run_checked(
            &w,
            &code,
            &hw,
            p.seed,
            prof.reference,
            MachinePools::new(),
            None,
            &mut off,
        );
        solo = Some(ran.result);
        Ok((w, prof, code))
    })?;
    let mut out = Outcome::default();
    let solo = out.check(solo.expect("set-up ran"));

    let epoch = Instant::now();
    let rounds = Rounds {
        barrier: Barrier::new(CLIENTS),
        stop: AtomicBool::new(false),
        dirs: Mutex::new(VecDeque::from([Directory::new(CLIENTS)])),
    };
    // Directory counters summed over rounds: publishes, invalidations,
    // downgrades, signaled.
    let mut dir_counts = [0u64; 4];
    let mut hs = HostSpeed::new(1);
    let mut scales = Vec::new();
    let clients: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..CLIENTS)
            .map(|t| {
                let (w, code, hw, rounds) = (&w, &code, &hw, &rounds);
                let reference = prof.reference;
                s.spawn(move || client(t, w, code, hw, reference, p, epoch, rounds, |_| ()))
            })
            .collect();
        // Client 0 runs on this thread and times the host between rounds,
        // while the other client waits at the barrier.
        let first = client(0, &w, &code, &hw, prof.reference, p, epoch, &rounds, |_| {
            scales.push(hs.scale());
            let mut dirs = rounds.dirs.lock().expect("no client panicked holding it");
            let dir = dirs.back().expect("never empty");
            let counts = [
                dir.publishes(),
                dir.invalidations(),
                dir.downgrades(),
                dir.signaled(),
            ];
            for (total, n) in dir_counts.iter_mut().zip(counts) {
                *total += n;
            }
            if dirs.len() == DIR_RING {
                dirs.pop_front();
            }
            dirs.push_back(Directory::new(CLIENTS));
        });
        std::iter::once(first)
            .chain(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked")),
            )
            .collect()
    });

    let mut acc = LayerAcc::default();
    let mut tr = Tracer::new(p.trace, epoch);
    let mut timed = Timed {
        clients: CLIENTS,
        host_speed: hs.speed(),
        ..Timed::default()
    };
    let mut link = LinkStats::default();
    for c in clients {
        link.sig_aborts += c.link.sig_aborts;
        link.sig_raced += c.link.sig_raced;
        tr.absorb(c.tracer);
        for r in c.requests {
            acc.coh_requests += 1;
            let scale = scales[r.round];
            let secs = r.raw * scale;
            if r.traced {
                &mut timed.traced_units
            } else {
                &mut timed.untraced_units
            }
            .push(secs);
            let Some((counters, pred)) = out.check(r.result) else {
                continue;
            };
            if r.traced {
                acc.op(r.id, w.name, scale);
                acc.ran(&counters, &pred);
            } else {
                timed.ops.push((0, secs, counters.uops));
            }
        }
    }
    // Every link was detached (and so drained) after its last request, so
    // each signaled message has been classified by now. The identity can
    // still break through the coherence re-drain race (an open defect of
    // the directory, not of any request's result), so the gap is reported
    // as a number rather than counted as a failed operation.
    let signaled = dir_counts[3];
    let gap = signaled.abs_diff(link.sig_aborts + link.sig_raced);
    if gap != 0 {
        eprintln!(
            "shared_asid: directory identity off by {gap}: signaled {signaled} != \
             sig_aborts {} + sig_raced {}",
            link.sig_aborts, link.sig_raced
        );
    }
    acc.link = link;
    acc.identity_gap = gap;
    acc.dir = dir_counts;

    if let Some(r) = &solo {
        out.cells = vec![(format!("{} {}+solo", w.name, cfg.name), r.counters)];
    }
    let report = vec![
        Metric::new("shared_rps", "1/s", timed.ops_per_s()),
        Metric::new(
            "shared_ms_p50",
            "ms",
            percentile(&timed.op_secs(), 0.5) * 1e3,
        ),
        Metric::new(
            "shared_ms_p99",
            "ms",
            percentile(&timed.op_secs(), 0.99) * 1e3,
        ),
        Metric::new("directory_identity_gap", "count", gap as f64),
        Metric::new("sim_cycles", "cycles", cycles(&out.cells) as f64),
    ];
    out.finish(p, &setup, &timed, report, acc, &tr);
    Ok(out)
}

/// One `shared_asid` client: requests in rounds until time is up, each
/// on a fresh pooled machine attached through this client's core link.
/// Every round starts both clients together, so how hard they contend
/// does not depend on how far apart they have drifted. When tracing,
/// every other round is traced. Client 0 calls `between` after each
/// round with the round's index, while the other client waits, and
/// decides when to stop.
#[allow(clippy::too_many_arguments)]
fn client(
    t: usize,
    w: &Workload,
    code: &hasp_hw::CodeCache,
    hw: &HwConfig,
    reference: i64,
    p: &Params,
    epoch: Instant,
    rounds: &Rounds,
    mut between: impl FnMut(usize),
) -> ClientOut {
    let core = u8::try_from(t).expect("few clients");
    let mut link = LinkStats::default();
    let mut pools = MachinePools::new();
    let mut tr = Tracer::new(false, epoch);
    let mut requests = Vec::new();
    let start = Instant::now();
    for round in 0.. {
        rounds.barrier.wait();
        if rounds.stop.load(Ordering::SeqCst) {
            break;
        }
        let traced = p.trace && round % 2 == 0;
        tr.set_enabled(traced);
        let id = ((t as u64) << 32) | round as u64;
        tr.set_op(id);
        let t0 = Instant::now();
        let root = tr.begin("bench.op");
        let ran = run_checked(
            w,
            code,
            hw,
            p.seed,
            reference,
            std::mem::take(&mut pools),
            Some(CoreLink::new(rounds.dir(), core, 0)),
            &mut tr,
        );
        tr.end(root);
        let raw = secs_since(t0);
        pools = ran.pools;
        if let Some(l) = ran.link {
            link.sig_aborts += l.stats.sig_aborts;
            link.sig_raced += l.stats.sig_raced;
        }
        requests.push(Request {
            round,
            id,
            traced,
            raw,
            result: ran.result.map(|r| (r.counters, r.pred)),
        });
        rounds.barrier.wait();
        if t == 0 {
            between(round);
            if round >= 1 && secs_since(start) >= p.seconds {
                rounds.stop.store(true, Ordering::SeqCst);
            }
        }
    }
    ClientOut {
        requests,
        link,
        tracer: tr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_are_counted_not_raised() {
        let mut out = Outcome::default();
        assert_eq!(out.check(Ok::<_, String>(7)), Some(7));
        // A run checked against the wrong reference checksum fails as a
        // value and is counted.
        let w = hasp_workloads::synthetic::add_element(1_000);
        let mut tr = Tracer::new(false, Instant::now());
        let prof = profile(&w, 1, &mut tr).expect("profiles");
        let code = seal(&compile(&w, &prof, &CompilerConfig::no_atomic()), &mut tr);
        let hw = HwConfig::baseline();
        let pools = MachinePools::new();
        let ran = run_checked(&w, &code, &hw, 1, prof.reference + 1, pools, None, &mut tr);
        assert!(out.check(ran.result).is_none());
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert_eq!(out.failed_share(), 0.5);
        assert!(out.errors[0].contains("checksum"), "{:?}", out.errors);
    }

    #[test]
    fn rates_take_each_kind_at_its_median() {
        let t = Timed {
            clients: 2,
            ops: vec![(0, 1.0, 10), (0, 3.0, 10), (0, 2.0, 10), (1, 4.0, 40)],
            ..Timed::default()
        };
        // Kind 0 at 2 s and kind 1 at 4 s: geomean of 1/2 and 1/4, twice.
        assert!((t.ops_per_s() - 2.0 * (0.125f64).sqrt()).abs() < 1e-12);
        // 10 uops in 2 s and 40 uops in 4 s.
        let want = 2.0 * (10.0 / 2.0 * 40.0 / 4.0f64).sqrt() / 1e6;
        assert!((t.muops_per_s() - want).abs() < 1e-15);
    }
}
