//! The pipeline driven from outside through the crates' public functions:
//! profile-interpret, compile, lower and install, run and check.
//!
//! Every stage returns failures as values so that an operation that goes
//! wrong is counted, never a panic.

use std::collections::HashMap;

use hasp_core::form_atomic_regions;
use hasp_experiments::runner::{extract_samples, SampleMeasure};
use hasp_hw::stats::{AbortReason, RunStats, ABORT_REASONS};
use hasp_hw::{lower, CodeCache, CoreLink, HwConfig, Machine, MachinePools, PredStats};
use hasp_ir::{translate, verify};
use hasp_opt::{
    checkelim, compile_program, constprop, dce, gvn, inline, safepoint, simplify, sle, unroll,
    CompiledMethod, CompilerConfig,
};
use hasp_vm::bytecode::MethodId;
use hasp_vm::profile::Profile;
use hasp_vm::{Env, Interp};
use hasp_workloads::Workload;

use crate::trace::Tracer;

/// A program profiled under one seed: the profile that drives the
/// compiler and the checksum every compiled run must reproduce.
#[derive(Debug)]
pub struct Profiled {
    /// Interpreter-collected profile.
    pub profile: Profile,
    /// Reference checksum of the interpreter for this seed.
    pub reference: i64,
    /// Bytecode instructions the interpreter executed.
    pub steps: u64,
}

/// Profile-interprets `w` with its inputs drawn from `seed`.
///
/// # Errors
/// Returns a description when the interpreter traps.
pub fn profile(w: &Workload, seed: u64, tr: &mut Tracer) -> Result<Profiled, String> {
    let mut interp = Interp::new(&w.program).with_profiling();
    interp.env = Env::new(seed);
    interp.set_fuel(w.fuel);
    let s = tr.begin("vm.interp");
    let r = interp.run(&[]);
    tr.end(s);
    r.map_err(|e| format!("{}: interpreter: {e}", w.name))?;
    Ok(Profiled {
        profile: interp.profile,
        reference: interp.env.checksum(),
        steps: interp.steps,
    })
}

/// Compiled methods in `MethodId` order.
pub type Compiled = Vec<(MethodId, CompiledMethod)>;

/// `hasp_opt::compile_program`, with its methods put in `MethodId` order.
pub fn compile(w: &Workload, p: &Profiled, cfg: &CompilerConfig) -> Compiled {
    let mut v: Compiled = compile_program(&w.program, &p.profile, cfg)
        .into_iter()
        .collect();
    v.sort_unstable_by_key(|(m, _)| *m);
    v
}

/// Re-drives `compile_method`'s public pass sequence for every method,
/// one span per pass call, so compile time splits by pass.
///
/// # Errors
/// Returns a description when the final IR fails verification.
pub fn compile_traced(
    w: &Workload,
    p: &Profiled,
    cfg: &CompilerConfig,
    tr: &mut Tracer,
) -> Result<Compiled, String> {
    w.program
        .method_ids()
        .map(|m| compile_method_traced(w, p, m, cfg, tr).map(|c| (m, c)))
        .collect()
}

fn compile_method_traced(
    w: &Workload,
    p: &Profiled,
    method: MethodId,
    cfg: &CompilerConfig,
    tr: &mut Tracer,
) -> Result<CompiledMethod, String> {
    let program = &w.program;
    let mut f = tr.time("ir.translate", || {
        translate(program, method, p.profile.method(method))
    });
    tr.time("opt.gvn", || gvn::run(&mut f));
    tr.time("opt.constprop", || constprop::run(&mut f));
    tr.time("opt.dce", || dce::run(&mut f));

    let m = program.method(method);
    let sites = if m.opaque {
        Vec::new()
    } else {
        tr.time("opt.inline", || {
            inline::run(&mut f, program, &p.profile, &cfg.inline)
        })
    };

    let formation = if cfg.atomic && !m.opaque {
        let region_cfg = cfg.region_for(method);
        let res = tr.time("core.form", || {
            form_atomic_regions(&mut f, &sites, &region_cfg)
        });
        if cfg.sle {
            tr.time("opt.sle", || sle::run(&mut f));
        }
        if cfg.safepoint_elision {
            tr.time("opt.safepoint", || safepoint::run(&mut f));
        }
        if cfg.partial_unroll {
            tr.time("opt.unroll", || unroll::run(&mut f, &region_cfg));
        }
        Some(res)
    } else {
        None
    };

    for _ in 0..cfg.opt_rounds {
        let mut changed = 0;
        changed += tr.time("opt.gvn", || gvn::run(&mut f)).total();
        changed += tr.time("opt.constprop", || constprop::run(&mut f)).folded;
        changed += tr.time("opt.dce", || dce::run(&mut f));
        changed += tr.time("opt.simplify", || simplify::run(&mut f));
        if changed == 0 {
            break;
        }
    }
    if cfg.postdom_checkelim {
        tr.time("opt.checkelim", || checkelim::run(&mut f));
        tr.time("opt.dce", || dce::run(&mut f));
    }
    verify(&f).map_err(|e| format!("{}: final verify ({}): {e}", w.name, cfg.name))?;
    Ok(CompiledMethod {
        func: f,
        sites,
        formation,
    })
}

/// Whether two compilations produced the same product: for every method,
/// the same inline-site count, formation outcome, and IR text up to the
/// numbering of virtual registers (`compile_program` itself numbers some
/// phis in hash-map order, so two calls differ in register names alone).
pub fn same_product(a: &Compiled, b: &Compiled) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ma, ca), (mb, cb))| {
            ma == mb
                && ca.sites.len() == cb.sites.len()
                && ca.formation.as_ref().map(|r| (&r.regions, &r.boundaries))
                    == cb.formation.as_ref().map(|r| (&r.regions, &r.boundaries))
                && canonical_ir(&ca.func.display()) == canonical_ir(&cb.func.display())
        })
}

/// `Func::display` text with virtual registers renamed `%0, %1, …` in
/// order of first appearance. Definitions print as `  v<n> = …`, uses as
/// `VReg(<n>)`.
pub fn canonical_ir(text: &str) -> String {
    let mut names: HashMap<&str, usize> = HashMap::new();
    let mut canon = |n| {
        let next = names.len();
        *names.entry(n).or_insert(next)
    };
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let mut rest = line;
        if let Some((num, tail)) = line.strip_prefix("  v").and_then(|d| d.split_once(" = ")) {
            if !num.is_empty() && num.bytes().all(|b| b.is_ascii_digit()) {
                out.push_str(&format!("  %{} = ", canon(num)));
                rest = tail;
            }
        }
        while let Some(i) = rest.find("VReg(") {
            let after = &rest[i + "VReg(".len()..];
            let end = after.find(')').unwrap_or(after.len());
            out.push_str(&rest[..i]);
            out.push_str(&format!("VReg(%{}", canon(&after[..end])));
            rest = &after[end..];
        }
        out.push_str(rest);
        out.push('\n');
    }
    out
}

/// Lowers and installs every method, in `MethodId` order so the seal-site
/// numbering repeats from run to run.
pub fn seal(compiled: &Compiled, tr: &mut Tracer) -> CodeCache {
    let mut code = CodeCache::new();
    for (m, c) in compiled {
        let lowered = tr.time("hw.lower", || lower(&c.func));
        tr.time("hw.install", || code.install(*m, lowered));
    }
    code
}

/// Simulated counters of one run: the exact-statistics guard compares
/// these between runs, and between traced and untraced runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Retired uops.
    pub uops: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Uops retired inside atomic regions.
    pub region_uops: u64,
    /// Region commits.
    pub commits: u64,
    /// Region entries (commits plus aborts plus software-path runs).
    pub entries: u64,
    /// Aborts, one slot per [`ABORT_REASONS`] entry.
    pub aborts: [u64; ABORT_REASONS.len()],
    /// Data-memory accesses.
    pub mem_accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// Governor tier entries 0–3.
    pub tier_enters: [u64; 4],
    /// Fallback-lock subscriptions.
    pub lock_subscriptions: u64,
    /// Software-path executions under the fallback lock.
    pub lock_holds: u64,
}

impl SimCounters {
    /// Reads the counters out of a run's statistics.
    pub fn of(s: &RunStats) -> SimCounters {
        let mut aborts = [0; ABORT_REASONS.len()];
        for (slot, r) in aborts.iter_mut().zip(ABORT_REASONS) {
            *slot = s.aborts.get(r);
        }
        SimCounters {
            uops: s.uops,
            cycles: s.cycles,
            region_uops: s.region_uops,
            commits: s.commits,
            entries: s.per_region.values().map(|c| c.entries).sum(),
            aborts,
            mem_accesses: s.mem_accesses,
            l1_hits: s.l1_hits,
            l2_hits: s.l2_hits,
            mispredicts: s.mispredicts,
            tier_enters: s.tier_enters,
            lock_subscriptions: s.lock_subscriptions,
            lock_holds: s.lock_holds,
        }
    }

    /// Total aborts.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// Aborts for one reason.
    pub fn aborts_for(&self, r: AbortReason) -> u64 {
        let i = ABORT_REASONS
            .iter()
            .position(|&x| x == r)
            .expect("every reason is listed");
        self.aborts[i]
    }

    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &SimCounters) {
        self.uops += o.uops;
        self.cycles += o.cycles;
        self.region_uops += o.region_uops;
        self.commits += o.commits;
        self.entries += o.entries;
        for (a, b) in self.aborts.iter_mut().zip(o.aborts) {
            *a += b;
        }
        self.mem_accesses += o.mem_accesses;
        self.l1_hits += o.l1_hits;
        self.l2_hits += o.l2_hits;
        self.mispredicts += o.mispredicts;
        for (a, b) in self.tier_enters.iter_mut().zip(o.tier_enters) {
            *a += b;
        }
        self.lock_subscriptions += o.lock_subscriptions;
        self.lock_holds += o.lock_holds;
    }

    /// The guard line's fields, in a fixed order.
    pub fn fields(&self) -> Vec<(String, u64)> {
        let mut v = vec![
            ("uops".to_string(), self.uops),
            ("cycles".to_string(), self.cycles),
            ("region_uops".to_string(), self.region_uops),
            ("commits".to_string(), self.commits),
            ("entries".to_string(), self.entries),
        ];
        for (r, n) in ABORT_REASONS.iter().zip(self.aborts) {
            v.push((format!("aborts.{}", r.name()), n));
        }
        v.extend([
            ("mem_accesses".to_string(), self.mem_accesses),
            ("l1_hits".to_string(), self.l1_hits),
            ("l2_hits".to_string(), self.l2_hits),
            ("mispredicts".to_string(), self.mispredicts),
        ]);
        v
    }

    /// FNV-1a digest of [`SimCounters::fields`].
    pub fn digest(&self) -> u64 {
        fnv1a(self.fields().iter().map(|(_, v)| *v))
    }
}

/// FNV-1a over 64-bit words.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One checked simulated run.
#[derive(Debug)]
pub struct Run {
    /// Simulated counters.
    pub counters: SimCounters,
    /// Marker-bounded samples (§5).
    pub samples: Vec<SampleMeasure>,
    /// Way-predictor counters.
    pub pred: PredStats,
}

/// A run on the machine: its outcome plus the machine's recycled pools
/// and, when one was attached, the core link.
pub struct Ran {
    /// The checked result, or why the run failed.
    pub result: Result<Run, String>,
    /// Pools for the next machine on this thread.
    pub pools: MachinePools,
    /// The detached core link.
    pub link: Option<CoreLink>,
}

/// Runs `code` on a machine built with [`Machine::with_pools`], inputs
/// drawn from `seed`, optionally attached to a coherence directory
/// through `link`, and checks the result: no machine fault, the
/// interpreter's checksum, and both markers of every sample retired.
#[allow(clippy::too_many_arguments)]
pub fn run_checked(
    w: &Workload,
    code: &CodeCache,
    hw: &HwConfig,
    seed: u64,
    reference: i64,
    pools: MachinePools,
    link: Option<CoreLink>,
    tr: &mut Tracer,
) -> Ran {
    let mut mach = Machine::with_pools(&w.program, code, hw.clone(), pools);
    mach.env = Env::new(seed);
    mach.set_fuel(w.fuel.saturating_mul(4));
    if let Some(l) = link {
        tr.time("hw.machine.attach", || mach.attach_core(l));
    }
    let s = tr.begin("hw.machine");
    let r = mach.run(&[]);
    tr.end(s);
    let link = if mach.coherence().is_some() {
        tr.time("hw.machine.detach", || mach.detach_core())
    } else {
        None
    };
    let result = match r {
        Err(e) => Err(format!("{}: machine fault: {e}", w.name)),
        Ok(_) if mach.env.checksum() != reference => Err(format!(
            "{}: checksum {} != interpreter {reference}",
            w.name,
            mach.env.checksum()
        )),
        Ok(_) => extract_samples(w, mach.stats())
            .map_err(|e| format!("{}: {e}", w.name))
            .map(|samples| Run {
                counters: SimCounters::of(mach.stats()),
                samples,
                pred: mach.way_pred_stats(),
            }),
    };
    Ran {
        result,
        pools: mach.into_pools(),
        link,
    }
}

/// Per-cell reference counters, so every run of a deterministic cell can
/// be checked against the first one.
#[derive(Debug, Default)]
pub struct CellGuard {
    first: HashMap<(&'static str, &'static str), SimCounters>,
}

impl CellGuard {
    /// Records `c` for the cell, or checks it against the cell's first run.
    ///
    /// # Errors
    /// Returns a description when the counters differ.
    pub fn check(
        &mut self,
        program: &'static str,
        config: &'static str,
        c: &SimCounters,
    ) -> Result<(), String> {
        let first = self.first.entry((program, config)).or_insert(*c);
        if first == c {
            Ok(())
        } else {
            Err(format!(
                "{program}/{config}: simulated counters differ between runs ({first:?} vs {c:?})"
            ))
        }
    }

    /// Every recorded cell, sorted.
    pub fn cells(&self) -> Vec<((&'static str, &'static str), SimCounters)> {
        let mut v: Vec<_> = self.first.iter().map(|(k, c)| (*k, *c)).collect();
        v.sort_unstable_by_key(|(k, _)| *k);
        v
    }
}
