//! The simulated machine: functional uop execution on a checkpoint substrate
//! with atomic-region support, plus an interval-analysis timing model.
//!
//! Functional semantics are exact — the same heap, environment, and value
//! model as the interpreter — so a compiled program's observable checksum
//! can be compared bit-for-bit against interpretation, *including across
//! region aborts*: `aregion_begin` checkpoints registers, the environment,
//! and the allocation frontier; stores are undo-logged; aborts restore
//! everything and redirect to the alternate PC.
//!
//! Timing follows interval analysis: a width-bound base cost per uop, branch
//! misprediction bubbles from a real tournament predictor, and memory stall
//! cycles from a real cache simulation (MLP-discounted), plus the region
//! overheads of the Figure 9 sensitivity configurations.

use hasp_vm::bytecode::{Intrinsic, MethodId};
use hasp_vm::class::Program;
use hasp_vm::env::{Env, EnvSnapshot};
use hasp_vm::error::{Trap, VmError};
use hasp_vm::heap::{Heap, HeapCell, HeapMark};
use hasp_vm::value::{ObjId, Value};

use crate::bpred::Predictor;
use crate::cache::{CacheSim, FastHit, HitLevel, TargetCache, NO_SITE};
use crate::coherence::CoreLink;
use crate::config::{Dispatch, GovernorConfig, HwConfig, ReformRequest};
use crate::fault::MachineFault;
use crate::lineset::LineSet;
use crate::stats::{AbortReason, MarkerSnap, RunStats};
use crate::superblock::{SbInfo, SbTerm, YIELD_FLAG_ADDR};
use crate::uop::{CodeCache, CompiledCode, MReg, Uop};
use hasp_vm::fxhash::FxHashMap;

/// Data address of the global fallback lock word (the hybrid-TM mutual-
/// isolation channel, SNIPPETS §9.2.2 made concrete): tier-2+ speculative
/// entries *read* this word into their region read-set at `aregion_begin`
/// (subscription), and de-speculated software-path executions *write* it
/// (acquire/release collapsed to one non-speculative store in this
/// single-threaded machine), so a software-path writer conflicts every
/// subscribed hardware execution out. Lives on its own 64-byte line,
/// distinct from [`YIELD_FLAG_ADDR`]'s line, so lock traffic never aliases
/// the safepoint poll word.
pub const FALLBACK_LOCK_ADDR: u64 = 0x140;

/// What executing one uop did to control flow.
enum StepOut {
    /// Fall through (or branch): the frame's pc becomes this value.
    Next(usize),
    /// The uop already redirected control itself (call linkage, return to a
    /// caller frame, region abort, governor patch-out) — the frame stack's
    /// top pc is authoritative.
    Redirect,
    /// The outermost frame returned: the program's result.
    Return(Option<Value>),
}

/// How a superblock's interior run ended (see [`Machine::run_interior`]).
enum Interior {
    /// Every interior uop up to the terminator retired on the fast path.
    Done,
    /// The uop at this pc needs the shared [`Machine::step`] path — either
    /// an unspecialized kind, or a specialized one about to trap. The fast
    /// path bailed before any side effect, so replaying it is exact.
    Slow(usize),
    /// The memory access at this pc overflowed the region. The cache state
    /// is already updated (not replayable): the caller must abort.
    Overflow(usize),
}

/// How an `aregion_begin` resolved (see [`Machine::region_begin`]).
enum BeginOut {
    /// The region was entered: execution falls through into the body.
    Entered,
    /// Control was redirected to this pc without entering (a governor
    /// de-speculation patch-out, or a targeted injected abort that fired
    /// the moment the checkpoint was armed).
    Redirect(usize),
}

#[derive(Debug)]
struct Frame<'p> {
    method: MethodId,
    /// The frame's compiled code, resolved once at call time so the per-uop
    /// fetch path is a plain slice index (no per-retired-uop map lookup).
    code: &'p CompiledCode,
    regs: Vec<i64>,
    pc: usize,
    ret_dst: Option<MReg>,
}

#[derive(Debug)]
struct RegionCtx {
    region: u32,
    method: MethodId,
    alt: usize,
    frame_depth: usize,
    /// Sparse register checkpoint: the values of exactly the registers in
    /// the region's write set, in that set's (sorted) order. Frames here
    /// can run to thousands of registers while a region writes a handful,
    /// so checkpointing the full file would dominate region cost.
    regs: Vec<i64>,
    env: EnvSnapshot,
    heap: HeapMark,
    undo: Vec<(HeapCell, i64)>,
    lines: LineSet,
    /// The last cache line recorded into `lines`, so runs of accesses to
    /// the same line (the common case: consecutive fields of one object)
    /// skip the set probe entirely.
    last_line: u64,
    start_uops: u64,
    /// Independent copy of the *full* register file, captured only in
    /// validation mode so the post-abort validator can verify the sparse
    /// restoration without trusting the rollback path (or the write-set
    /// analysis) it is checking.
    shadow_regs: Vec<i64>,
}

/// Per-static-region governor state: consecutive-abort streaks, the
/// exponential-backoff cooldown, and the region's position on the tier
/// ladder (see [`GovernorConfig`]).
#[derive(Debug, Clone, Copy)]
struct GovState {
    /// Consecutive aborts since the last commit or de-speculation.
    streak: u32,
    /// Consecutive `Overflow`/`Explicit` aborts — the evidence stream for
    /// adaptive re-formation (any other abort class resets it).
    reform_streak: u32,
    /// Consecutive commits since the last abort (the calm streak gating
    /// cooldown decay and tier de-escalation).
    calm: u64,
    /// Entries still to be patched straight to the alternate PC.
    skips_remaining: u64,
    /// Next de-speculation's cooldown length (doubles per de-speculation,
    /// halves per calm streak, bounded by the policy).
    cooldown: u64,
    /// Current ladder tier (0–3; 3 is permanent).
    tier: u8,
    /// Consecutive de-speculations — the tier-escalation evidence
    /// (decremented on calm de-escalation so a recovered region re-earns
    /// its way back up instead of snapping to the old tier).
    disables: u32,
    /// A [`ReformRequest`] has already been emitted for this region this
    /// run (at most one, so the harness sees a stable exclusion set).
    reform_sent: bool,
}

/// The machine.
#[derive(Debug)]
pub struct Machine<'p> {
    program: &'p Program,
    code: &'p CodeCache,
    cfg: HwConfig,
    /// The object heap.
    pub heap: Heap,
    /// Observable side effects (checksum, RNG, markers).
    pub env: Env,
    frames: Vec<Frame<'p>>,
    region: Option<RegionCtx>,
    cache: CacheSim,
    pred: Predictor,
    stats: RunStats,
    /// Cycles × width accumulator (integer arithmetic for determinism).
    cxw: u64,
    last_commit_cxw: u64,
    fuel: u64,
    fault_rng: u64,
    /// Precomputed `cfg.faults.any_per_uop()` so the per-uop hot path pays
    /// one branch when no probabilistic injection is armed.
    inject_per_uop: bool,
    /// Dynamic `aregion_begin` count (1-based), driving targeted injection.
    region_entries: u64,
    /// Online governor state per static region.
    gov: FxHashMap<(MethodId, u32), GovState>,
    /// The global fallback lock word's current state. In this
    /// single-threaded machine a software-path execution acquires and
    /// releases within one `aregion_begin` consult, so the lock is only
    /// ever *observed* held when an external holder set it via
    /// [`Machine::set_fallback_lock`] (the multi-core / test hook).
    fallback_lock: bool,
    /// Re-formation requests the governor has emitted and the harness has
    /// not yet drained ([`Machine::take_reform_requests`]).
    reform_requests: Vec<ReformRequest>,
    max_depth: usize,
    /// Retired register files, recycled across frame pushes so steady-state
    /// call linkage allocates nothing.
    reg_pool: Vec<Vec<i64>>,
    /// Undo-log buffer recycled across regions (only one region is ever in
    /// flight).
    spare_undo: Vec<(HeapCell, i64)>,
    /// Footprint-set buffer recycled across regions.
    spare_lines: Vec<u64>,
    /// Argument-marshalling buffer recycled across calls.
    arg_buf: Vec<i64>,
    /// Branch-target side-cache for indirect dispatch (`JmpInd`/`CallVirt`).
    btb: TargetCache,
    /// This core's attachment to a shared coherence directory, when the
    /// machine runs as one core of a multi-core fleet (DESIGN §17). `None`
    /// — the default — keeps every memory path bit-identical to the
    /// single-core machine.
    coh: Option<CoreLink>,
}

/// The lifetime-free pooled state of a retired [`Machine`]: every
/// steady-state allocation a machine accumulates (register files, region
/// scratch buffers, the cache arrays, predictor tables, the BTB), detached
/// from the program/code borrows so a service worker can carry it across
/// published code-cache versions. [`Machine::with_pools`] deterministically
/// resets everything it recycles — a pooled machine is bit-identical to a
/// fresh one.
#[derive(Debug, Default)]
pub struct MachinePools {
    reg_pool: Vec<Vec<i64>>,
    spare_undo: Vec<(HeapCell, i64)>,
    spare_lines: Vec<u64>,
    arg_buf: Vec<i64>,
    cache: Option<CacheSim>,
    pred: Option<Predictor>,
    btb: Option<TargetCache>,
}

impl MachinePools {
    /// Empty pools (the first request on a worker allocates cold).
    pub fn new() -> Self {
        MachinePools::default()
    }
}

impl<'p> Machine<'p> {
    /// Creates a machine over compiled code.
    pub fn new(program: &'p Program, code: &'p CodeCache, cfg: HwConfig) -> Self {
        Machine::with_pools(program, code, cfg, MachinePools::new())
    }

    /// Creates a machine over compiled code, recycling a retired machine's
    /// pooled allocations. Every recycled structure is reset to its
    /// construction state first, so execution is bit-identical to a machine
    /// built by [`Machine::new`] — the pools only save the allocations.
    pub fn with_pools(
        program: &'p Program,
        code: &'p CodeCache,
        cfg: HwConfig,
        mut pools: MachinePools,
    ) -> Self {
        let cache = match pools.cache.take() {
            Some(mut c) => {
                c.reset(&cfg);
                c
            }
            None => CacheSim::new(&cfg),
        };
        let pred = match pools.pred.take() {
            Some(mut p) => {
                p.reset();
                p
            }
            None => Predictor::new(),
        };
        let btb = match pools.btb.take() {
            Some(mut b) => {
                b.reset();
                b
            }
            None => TargetCache::new(),
        };
        pools.spare_undo.clear();
        pools.spare_lines.clear();
        pools.arg_buf.clear();
        if pools.spare_undo.capacity() == 0 {
            pools.spare_undo.reserve(64);
        }
        if pools.spare_lines.capacity() == 0 {
            pools.spare_lines.reserve(64);
        }
        let seed = cfg.faults.seed;
        let inject_per_uop = cfg.faults.any_per_uop();
        Machine {
            program,
            code,
            cfg,
            heap: Heap::new(),
            env: Env::default(),
            frames: Vec::new(),
            region: None,
            cache,
            pred,
            stats: RunStats::default(),
            cxw: 0,
            last_commit_cxw: 0,
            fuel: u64::MAX,
            fault_rng: seed | 1,
            inject_per_uop,
            region_entries: 0,
            gov: FxHashMap::default(),
            fallback_lock: false,
            reform_requests: Vec::new(),
            max_depth: 512,
            reg_pool: pools.reg_pool,
            spare_undo: pools.spare_undo,
            spare_lines: pools.spare_lines,
            arg_buf: pools.arg_buf,
            btb,
            coh: None,
        }
    }

    /// Retires the machine, returning its pooled allocations for the next
    /// [`Machine::with_pools`]. Live frames and an in-flight region (a run
    /// cut short by fuel exhaustion or a fault) fold their buffers back
    /// into the pools.
    pub fn into_pools(mut self) -> MachinePools {
        self.recycle_transient_state();
        MachinePools {
            reg_pool: self.reg_pool,
            spare_undo: self.spare_undo,
            spare_lines: self.spare_lines,
            arg_buf: self.arg_buf,
            cache: Some(self.cache),
            pred: Some(self.pred),
            btb: Some(self.btb),
        }
    }

    /// Resets the machine in place for the next request of a serving
    /// worker: all architectural state (heap, environment, frames), all
    /// speculative state (region context, cache speculative bits), all
    /// microarchitectural history (cache contents, predictors, BTB), and
    /// all per-request accounting (stats, cycle accumulators, fault RNG,
    /// governor ladder) return to construction state, while every
    /// steady-state allocation is kept. The subsequent run is
    /// bit-identical to one on a freshly constructed machine —
    /// which is also what makes per-request results independent of which
    /// worker served them, the property the service harness's shard
    /// conservation check rests on.
    pub fn reset_for_request(&mut self) {
        self.recycle_transient_state();
        self.heap = Heap::new();
        self.env = Env::default();
        self.cache.reset(&self.cfg);
        self.pred.reset();
        self.btb.reset();
        self.stats = RunStats::default();
        self.cxw = 0;
        self.last_commit_cxw = 0;
        self.fuel = u64::MAX;
        self.fault_rng = self.cfg.faults.seed | 1;
        self.region_entries = 0;
        self.gov.clear();
        self.fallback_lock = false;
        self.reform_requests.clear();
        self.arg_buf.clear();
        debug_assert_eq!(
            self.cross_request_state(),
            None,
            "reset_for_request left cross-request state behind"
        );
    }

    /// Drains live frames and an in-flight region context back into the
    /// recycling pools (shared by [`Machine::reset_for_request`] and
    /// [`Machine::into_pools`]).
    fn recycle_transient_state(&mut self) {
        while let Some(f) = self.frames.pop() {
            self.reg_pool.push(f.regs);
        }
        if let Some(r) = self.region.take() {
            let mut undo = r.undo;
            undo.clear();
            self.spare_undo = undo;
            self.spare_lines = r.lines.into_buffer();
        }
    }

    /// The first piece of cross-request state still live on this machine,
    /// or `None` when a new request would observe a pristine machine. The
    /// isolation oracle behind [`Machine::reset_for_request`]'s debug
    /// assertion and the service harness's tests: speculative cache lines,
    /// a trained way predictor, governor ladder state, or any architectural
    /// residue here would leak one tenant's request into the next.
    pub fn cross_request_state(&self) -> Option<&'static str> {
        if self.region.is_some() {
            return Some("region context still in flight");
        }
        if !self.frames.is_empty() {
            return Some("frames not drained");
        }
        if self.cache.spec_lines() != 0 {
            return Some("speculative cache lines still marked");
        }
        if self.cache.pred_trained() {
            return Some("way predictor still trained");
        }
        if !self.gov.is_empty() {
            return Some("governor ladder map populated");
        }
        if self.region_entries != 0 {
            return Some("dynamic region-entry counter nonzero");
        }
        if !self.reform_requests.is_empty() {
            return Some("undrained re-formation requests");
        }
        if self.fallback_lock {
            return Some("fallback lock held");
        }
        if self.cxw != 0 || self.last_commit_cxw != 0 {
            return Some("cycle accumulator nonzero");
        }
        if self.stats != RunStats::default() {
            return Some("statistics not zeroed");
        }
        if self.env.checksum() != Env::default().checksum() {
            return Some("environment side effects present");
        }
        if self.fault_rng != (self.cfg.faults.seed | 1) {
            return Some("fault RNG advanced");
        }
        None
    }

    /// Limits the number of uops executed (tests).
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Attaches this machine to a shared coherence directory as one core
    /// of a multi-core fleet (DESIGN §17): every data access will drain
    /// the core's mailbox and publish its intent, and remote collisions
    /// with this core's speculative lines abort its region organically.
    pub fn attach_core(&mut self, link: CoreLink) {
        self.coh = Some(link);
    }

    /// Detaches the core link, first draining any undelivered remote
    /// messages into the cache (quiesced — outside a region nothing can
    /// conflict). Returns `None` if no link was attached.
    pub fn detach_core(&mut self) -> Option<CoreLink> {
        let mut link = self.coh.take()?;
        link.drain_quiesced(&mut self.cache);
        Some(link)
    }

    /// The attached core link, if any (stats inspection).
    pub fn coherence(&self) -> Option<&CoreLink> {
        self.coh.as_ref()
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Seal-site way-predictor counters (DESIGN §16). Kept apart from
    /// [`Machine::stats`] on purpose: the predictor is a transparent
    /// micro-optimisation, and the equivalence gates assert [`RunStats`]
    /// equality between predicted and unpredicted configurations — these
    /// counters are the one place the two runs legitimately differ.
    pub fn way_pred_stats(&self) -> crate::stats::PredStats {
        self.cache.pred_stats()
    }

    /// Current cycle count.
    pub fn cycles(&self) -> u64 {
        self.cxw / self.cfg.width
    }

    /// Sets the global fallback lock word's externally visible state — the
    /// hook for a (future multi-core, today test-harness) software-path
    /// holder outside this machine. While held, every tier-2+ speculative
    /// entry aborts at its subscription read with [`AbortReason::Sle`].
    pub fn set_fallback_lock(&mut self, held: bool) {
        self.fallback_lock = held;
    }

    /// Whether the global fallback lock word is currently held.
    pub fn fallback_lock_held(&self) -> bool {
        self.fallback_lock
    }

    /// Drains the governor's pending re-formation requests. The harness
    /// calls this between run quanta, re-runs region formation with each
    /// request's boundary excluded, recompiles, and reinstalls — after
    /// which the re-formed region starts a fresh run at tier 0.
    pub fn take_reform_requests(&mut self) -> Vec<ReformRequest> {
        std::mem::take(&mut self.reform_requests)
    }

    /// Runs the program's entry method.
    ///
    /// # Errors
    /// Returns a [`MachineFault`]: a wrapped [`VmError`] on a
    /// non-speculative trap, fuel exhaustion, or stack overflow; a
    /// structured hardware-misuse fault (e.g. `aregion_abort` outside a
    /// region) on malformed code; or an invariant violation when
    /// [`HwConfig::validate`] is set and a commit/abort left corrupted
    /// architectural state.
    pub fn run(&mut self, args: &[Value]) -> Result<Option<Value>, MachineFault> {
        let entry = self.program.entry();
        self.push_frame(
            entry,
            &args.iter().map(|v| v.encode()).collect::<Vec<_>>(),
            None,
        )?;
        let out = self.exec()?;
        self.stats.cycles = self.cycles();
        Ok(out)
    }

    fn push_frame(
        &mut self,
        m: MethodId,
        args: &[i64],
        ret_dst: Option<MReg>,
    ) -> Result<(), MachineFault> {
        if self.frames.len() >= self.max_depth {
            return Err(VmError::StackOverflow.into());
        }
        let code = self.code.get(m).ok_or(MachineFault::MethodNotCompiled(m))?;
        // Register-file size comes from lowering metadata, so a recycled
        // buffer reaches its steady-state capacity after one use.
        let mut regs = self.reg_pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(code.regs as usize, 0);
        regs[..args.len()].copy_from_slice(args);
        self.frames.push(Frame {
            method: m,
            code,
            regs,
            pc: 0,
            ret_dst,
        });
        Ok(())
    }

    fn charge(&mut self, cycles: u64) {
        self.cxw += cycles * self.cfg.width;
    }

    /// Accounts the hidden uops of call/return linkage (argument
    /// marshalling, prologue/epilogue, vtable load). The abstract ISA's
    /// Call/Ret are single uops; real call linkage is not, and inlining's
    /// benefit depends on that cost.
    fn account_call_overhead(&mut self, uops: u64) {
        self.stats.uops += uops;
        self.cxw += uops;
        if self.region.is_some() {
            self.stats.region_uops += uops;
        }
    }

    fn pc_hash(m: MethodId, pc: usize) -> u64 {
        (u64::from(m.0) << 24) ^ pc as u64
    }

    /// The borrow-split core of [`Machine::mem_access`]: cache simulation,
    /// timing, speculative tracking, and overflow detection over the
    /// machine's disjoint fields, so the superblock interior loop can run it
    /// while holding the frame's register file borrowed. Returns `false` on
    /// region overflow — the caller must abort.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn mem_access_parts(
        cache: &mut CacheSim,
        stats: &mut RunStats,
        cxw: &mut u64,
        region: &mut Option<RegionCtx>,
        coh: &mut Option<CoreLink>,
        cfg: &HwConfig,
        site: u32,
        addr: u64,
        write: bool,
    ) -> bool {
        // Ablation: with the timing model off, every access is a free L1
        // hit and only the region footprint (and any injected line budget)
        // is tracked — quantifies the model's share of simulator runtime.
        if cfg.cache_off {
            stats.mem_accesses += 1;
            stats.l1_hits += 1;
            return !Self::over_line_budget(cache, region, cfg, addr);
        }
        // The coherence hook (DESIGN §17, `CoreLink::access`): a colliding
        // remote op bails out before this access touches anything — the
        // caller aborts through the overflow path with the parked reason.
        if let Some(link) = coh.as_mut() {
            let line = cache.line_of(addr);
            if link.access(cache, line, write, region.is_some()).is_some() {
                return false;
            }
        }
        stats.mem_accesses += 1;
        let in_region = region.is_some();
        // The seal-site way predictor (DESIGN §16): `Absorbed` is an L1 hit
        // whose current-epoch speculative bits already cover this access
        // kind, so the set scan, footprint update, and budget re-check are
        // all skipped. Skipping the footprint is sound because a
        // current-epoch speculative bit can only have been set by an earlier
        // in-region call on the same line (each region runs in its own
        // epoch), which already recorded the line and settled the
        // line-budget verdict; the verdict only changes when the footprint
        // grows. `Resident` is a validated hit whose speculative bits did
        // *not* cover the access — the line was just marked for the first
        // time this region, so the footprint insert and budget verdict are
        // still owed.
        match cache.fast_hit(site, addr, write, in_region) {
            Some(FastHit::Absorbed) => {
                stats.l1_hits += 1;
                return true;
            }
            Some(FastHit::Resident) => {
                stats.l1_hits += 1;
                return !Self::over_line_budget(cache, region, cfg, addr);
            }
            None => {}
        }
        let (level, overflow) = cache.access_sited(site, addr, write, in_region);
        match level {
            HitLevel::L1 => stats.l1_hits += 1,
            HitLevel::L2 => {
                stats.l2_hits += 1;
                *cxw += cache.l2_extra_cxw;
            }
            HitLevel::Memory => *cxw += cache.mem_extra_cxw,
        }
        // Only a region marks speculative bits, so only a region can
        // overflow. The footprint still records an overflowing access's
        // line: the abort reports the footprint size to the governor.
        debug_assert!(in_region || !overflow);
        let over_budget = Self::over_line_budget(cache, region, cfg, addr);
        !(overflow || over_budget)
    }

    /// Records `addr`'s line in the in-flight region's footprint and
    /// returns whether the footprint now exceeds the injected line budget
    /// (`false` outside a region). The budget models a smaller speculative
    /// cache: it tightens the geometric overflow, never loosens it.
    #[inline]
    fn over_line_budget(
        cache: &CacheSim,
        region: &mut Option<RegionCtx>,
        cfg: &HwConfig,
        addr: u64,
    ) -> bool {
        let Some(r) = region.as_mut() else {
            return false;
        };
        let line = cache.line_of(addr);
        if line != r.last_line {
            r.last_line = line;
            r.lines.insert(line);
        }
        let budget = cfg.faults.line_budget;
        budget > 0 && r.lines.len() as u64 > budget
    }

    /// Data-memory access bookkeeping: cache simulation, timing, speculative
    /// tracking, and overflow detection. Returns `Ok(false)` if the region
    /// overflowed (and was aborted).
    fn mem_access(&mut self, site: u32, addr: u64, write: bool) -> Result<bool, MachineFault> {
        let Machine {
            cache,
            stats,
            cxw,
            region,
            coh,
            cfg,
            ..
        } = self;
        if Self::mem_access_parts(cache, stats, cxw, region, coh, cfg, site, addr, write) {
            Ok(true)
        } else {
            let why = self.take_mem_abort_reason();
            self.abort(why)?;
            Ok(false)
        }
    }

    /// Why the last failed memory access bailed: a coherence conflict the
    /// core's link parked (`Conflict`, or `Sle` for the fallback-lock
    /// line), else a plain region overflow.
    fn take_mem_abort_reason(&mut self) -> AbortReason {
        self.coh
            .as_mut()
            .and_then(CoreLink::take_abort)
            .unwrap_or(AbortReason::Overflow)
    }

    /// Logs the old value of `cell` before a speculative store.
    fn log_undo(&mut self, cell: HeapCell) {
        if let Some(r) = self.region.as_mut() {
            r.undo.push((cell, self.heap.read_cell(cell)));
        }
    }

    fn abort(&mut self, reason: AbortReason) -> Result<(), MachineFault> {
        let Some(mut r) = self.region.take() else {
            let f = self.frames.last().expect("frame");
            return Err(MachineFault::AbortOutsideRegion {
                method: f.method,
                pc: f.pc,
            });
        };
        // Roll back memory (reverse order), allocations, environment,
        // registers; redirect to the alternate PC.
        for (cell, old) in r.undo.iter().rev() {
            self.heap.write_cell(*cell, *old);
        }
        self.heap.truncate(&r.heap);
        self.env.restore(&r.env);
        while self.frames.len() > r.frame_depth {
            let f = self.frames.pop().expect("frame");
            self.reg_pool.push(f.regs);
        }
        let frame = self.frames.last_mut().expect("frame");
        // Sparse rollback: only the region's writable registers (regions
        // contain no calls, so nothing else touches the frame) can differ
        // from the checkpoint — restoring exactly those is bit-identical
        // to swapping in a full-file copy.
        let code = frame.code;
        let writes = &code.region_writes[r.region as usize];
        for (&idx, &v) in writes.iter().zip(r.regs.iter()) {
            frame.regs[idx as usize] = v;
        }
        frame.pc = r.alt;
        let mut ckpt = std::mem::take(&mut r.regs);
        ckpt.clear();
        self.reg_pool.push(ckpt);
        self.cache.abort_region();
        // Withdraw directory speculative registrations only *after* the
        // flash-clear: a remote write that samples the registration before
        // this release finds a victim whose local bits are already gone —
        // classified as raced-with-abort, never a live claim it fails to
        // signal.
        if let Some(link) = self.coh.as_mut() {
            link.release_spec();
        }
        self.stats.aborts.record(reason);
        self.stats
            .per_region
            .counters_mut((r.method, r.region))
            .aborts += 1;
        if self.cfg.governor.enabled {
            // Evidence for abort-class-aware escalation: the region's
            // formation boundary (the stable cross-recompile identity the
            // harness excludes on re-formation) and the footprint it had
            // accumulated when it died.
            let boundary = code
                .region_boundaries
                .get(r.region as usize)
                .copied()
                .unwrap_or(u32::MAX);
            self.gov_on_abort(r.method, r.region, reason, boundary, r.lines.len() as u64);
        }
        if self.cfg.validate {
            self.validate_arch_state(&r, true)?;
        }
        r.undo.clear();
        self.spare_undo = r.undo;
        self.spare_lines = r.lines.into_buffer();
        self.charge(self.cfg.abort_penalty);
        Ok(())
    }

    /// A safety-check failure: an exception abort inside a region, a VM trap
    /// outside.
    fn trap_or_abort(&mut self, trap: Trap) -> Result<(), MachineFault> {
        if self.region.is_some() {
            self.abort(AbortReason::Exception)
        } else {
            let f = self.frames.last().expect("frame");
            Err(VmError::Trap {
                trap,
                method: f.method,
                pc: f.pc,
            }
            .into())
        }
    }

    /// The tier a region with `disables` consecutive de-speculations sits
    /// at: the first de-speculation puts it at tier 1 (backoff),
    /// `tier2_disables` of them escalate to tier 2 (fallback-lock
    /// subscription), `tier3_disables` more to tier 3 (permanent software
    /// path). A zero threshold disables that rung of the ladder.
    fn ladder_tier(policy: &GovernorConfig, disables: u32) -> u8 {
        let mut tier = 1;
        if policy.tier2_disables > 0 && disables >= policy.tier2_disables {
            tier = 2;
            if policy.tier3_disables > 0
                && disables >= policy.tier2_disables + policy.tier3_disables
            {
                tier = 3;
            }
        }
        tier
    }

    /// Governor bookkeeping on an abort — abort-class-aware ladder
    /// escalation:
    ///
    /// * `Interrupt`/`Spurious` are environmental noise: no streak growth,
    ///   no calm reset — a noisy-interrupt workload can no longer demote a
    ///   healthy region.
    /// * `Overflow`/`Explicit` additionally grow the re-formation streak;
    ///   at `reform_budget` consecutive ones a [`ReformRequest`] is emitted
    ///   (once per region) so the harness can recompile with the offending
    ///   boundary excluded instead of demoting the region forever.
    /// * Every streak-growing class counts toward de-speculation: at the
    ///   retry budget the region is patched out for `cooldown` entries, the
    ///   next cooldown doubles (bounded), and the consecutive-disable count
    ///   walks the region up the tier ladder.
    fn gov_on_abort(
        &mut self,
        method: MethodId,
        region: u32,
        reason: AbortReason,
        boundary: u32,
        footprint_lines: u64,
    ) {
        if matches!(reason, AbortReason::Interrupt | AbortReason::Spurious) {
            return;
        }
        let policy = &self.cfg.governor;
        let key = (method, region);
        if !self.gov.contains_key(&key) {
            // First tracked abort: the region enters the ladder at tier 0.
            self.stats.tier_enters[0] += 1;
            self.stats.tier_live[0] += 1;
        }
        let g = self.gov.entry(key).or_insert(GovState {
            streak: 0,
            reform_streak: 0,
            calm: 0,
            skips_remaining: 0,
            cooldown: policy.cooldown_entries,
            tier: 0,
            disables: 0,
            reform_sent: false,
        });
        g.streak += 1;
        g.calm = 0;
        let reformable = matches!(reason, AbortReason::Overflow | AbortReason::Explicit);
        if reformable {
            g.reform_streak += 1;
        } else {
            g.reform_streak = 0;
        }
        let emit_reform = reformable
            && policy.reform_budget > 0
            && !g.reform_sent
            && g.reform_streak >= policy.reform_budget;
        if emit_reform {
            g.reform_sent = true;
        }
        if g.streak >= policy.retry_budget {
            g.skips_remaining = g.cooldown;
            g.cooldown = (g.cooldown.saturating_mul(2)).min(policy.max_cooldown);
            g.streak = 0;
            g.disables += 1;
            self.stats.governor_disables += 1;
            let target = Self::ladder_tier(policy, g.disables).max(g.tier);
            if target != g.tier {
                self.stats.tier_exits[g.tier as usize] += 1;
                self.stats.tier_live[g.tier as usize] -= 1;
                self.stats.tier_enters[target as usize] += 1;
                self.stats.tier_live[target as usize] += 1;
                g.tier = target;
                self.stats.per_region.counters_mut(key).tier = target;
            }
        }
        if emit_reform {
            self.stats.reform_requests += 1;
            self.reform_requests.push(ReformRequest {
                method,
                region,
                boundary,
                reason,
                footprint_lines,
            });
        }
    }

    /// Governor bookkeeping on a commit: the abort and re-formation streaks
    /// reset, and a calm streak of `cooldown_entries` consecutive commits
    /// halves the cooldown back toward its base *and de-escalates the
    /// region one tier* (tier 3 is permanent) — so a region that genuinely
    /// recovered from a transient fault burst climbs back down the ladder,
    /// while one still aborting a substantial fraction of its entries
    /// (which never stays calm that long) keeps backing off exponentially.
    fn gov_on_commit(&mut self, method: MethodId, region: u32) {
        if let Some(g) = self.gov.get_mut(&(method, region)) {
            g.streak = 0;
            g.reform_streak = 0;
            g.calm += 1;
            if g.calm >= self.cfg.governor.cooldown_entries {
                g.calm = 0;
                g.cooldown = (g.cooldown / 2).max(self.cfg.governor.cooldown_entries);
                if g.tier > 0 && g.tier < 3 {
                    let target = g.tier - 1;
                    self.stats.tier_exits[g.tier as usize] += 1;
                    self.stats.tier_live[g.tier as usize] -= 1;
                    self.stats.tier_enters[target as usize] += 1;
                    self.stats.tier_live[target as usize] += 1;
                    g.tier = target;
                    // Re-earn escalations: the disable count steps back with
                    // the tier instead of snapping the region straight back
                    // up on its next de-speculation.
                    g.disables = g.disables.saturating_sub(1);
                    self.stats.governor_recoveries += 1;
                    self.stats.per_region.counters_mut((method, region)).tier = target;
                }
            }
        }
    }

    /// Executes an `aregion_begin` at `pc`: governor consult, entry stalls,
    /// sparse write-set checkpoint, region-context arming, and targeted
    /// injection — shared verbatim by the per-uop `step` arm and the block
    /// engine's inline terminator, so region-entry semantics cannot drift.
    fn region_begin(
        &mut self,
        method: MethodId,
        pc: usize,
        region: u32,
        alt: usize,
    ) -> Result<BeginOut, MachineFault> {
        if self.region.is_some() {
            return Err(MachineFault::NestedRegion { method, pc });
        }
        // Governor consult: a de-speculated region's begin is patched to
        // branch straight to its alternate PC — the non-speculative version
        // runs with zero region overhead. A tier-3 region is patched out
        // permanently; a tier-2 region's software path additionally runs
        // under the global fallback lock (the write conflicts out any
        // subscribed speculative execution — in this single-threaded
        // machine the acquire/release pair collapses to one store).
        // Healthy regions have no governor state, so the fast path stays a
        // single failing map probe. `tier` survives the consult to arm the
        // tier-2 subscription after the checkpoint below.
        let mut tier: u8 = 0;
        if self.cfg.governor.enabled {
            if let Some(g) = self.gov.get_mut(&(method, region)) {
                tier = g.tier;
                self.stats.tier_time[tier as usize] += 1;
                let software_path = if tier >= 3 {
                    true
                } else if g.skips_remaining > 0 {
                    g.skips_remaining -= 1;
                    if g.skips_remaining == 0 {
                        self.stats.governor_reenables += 1;
                    }
                    true
                } else {
                    false
                };
                if software_path {
                    self.stats.governor_skips += 1;
                    self.stats
                        .per_region
                        .counters_mut((method, region))
                        .gov_skips += 1;
                    if tier >= 2 {
                        self.stats.lock_holds += 1;
                        self.mem_access(NO_SITE, FALLBACK_LOCK_ADDR, true)?;
                    }
                    return Ok(BeginOut::Redirect(alt));
                }
            }
        }
        self.charge(self.cfg.begin_stall);
        if self.cfg.single_inflight {
            // Stall at decode until the previous region drains.
            let drain = self.cfg.window / self.cfg.width;
            let gap = (self.cxw - self.last_commit_cxw) / self.cfg.width;
            if gap < drain {
                self.charge(drain - gap);
            }
        }
        // Sparse checkpoint into a pooled buffer: only the region's
        // precomputed write set needs saving (see the `RegionCtx`
        // field docs); the previous region's undo-log / footprint
        // allocations are reused.
        let mut ckpt = self.reg_pool.pop().unwrap_or_default();
        ckpt.clear();
        let f = self.frames.last().expect("frame");
        let writes = &f.code.region_writes[region as usize];
        ckpt.extend(writes.iter().map(|&r| f.regs[r as usize]));
        // The shadow checkpoint is validator-only state: an
        // independent full register-file copy the rollback path
        // never touches, so sparse restoration can be cross-checked
        // against the complete pre-region file.
        let shadow_regs = if self.cfg.validate {
            f.regs.clone()
        } else {
            Vec::new()
        };
        let mut undo = std::mem::take(&mut self.spare_undo);
        undo.clear();
        self.region = Some(RegionCtx {
            region,
            method,
            alt,
            frame_depth: self.frames.len(),
            regs: ckpt,
            env: self.env.snapshot(),
            heap: self.heap.alloc_mark(),
            undo,
            lines: LineSet::from_buffer(std::mem::take(&mut self.spare_lines)),
            last_line: u64::MAX,
            start_uops: self.stats.uops,
            shadow_regs,
        });
        self.stats.per_region.counters_mut((method, region)).entries += 1;
        // Tier-2 fallback-lock subscription: read the lock word into the
        // region's read-set, so a software-path writer's coherence
        // invalidation conflicts this execution out. The read is a real
        // region access — it occupies a footprint line and can itself
        // overflow a tight injected budget. If the lock is already held by
        // an external software-path execution, entering would race the
        // holder, so the entry aborts straight to the alternate path (Sle:
        // a lock-word check found the lock taken).
        if tier >= 2 {
            self.stats.lock_subscriptions += 1;
            if !self.mem_access(NO_SITE, FALLBACK_LOCK_ADDR, false)? {
                return Ok(BeginOut::Redirect(alt));
            }
            if self.fallback_lock {
                self.stats.lock_held_aborts += 1;
                self.abort(AbortReason::Sle)?;
                return Ok(BeginOut::Redirect(alt));
            }
        }
        // Targeted injection: abort exactly the Nth dynamic
        // entry, the moment the checkpoint is armed.
        self.region_entries += 1;
        if self.cfg.faults.abort_at_entry == Some(self.region_entries) {
            self.abort(AbortReason::Spurious)?;
            return Ok(BeginOut::Redirect(alt));
        }
        Ok(BeginOut::Entered)
    }

    /// Executes an `aregion_end` at `pc`: flash-clear commit, statistics,
    /// validation, governor bookkeeping, and buffer recycling — shared
    /// verbatim by the per-uop `step` arm and the block engine's inline
    /// terminator.
    fn region_end(&mut self, method: MethodId, pc: usize, region: u32) -> Result<(), MachineFault> {
        let Some(mut r) = self.region.take() else {
            return Err(MachineFault::EndOutsideRegion { method, pc });
        };
        debug_assert_eq!(r.region, region);
        self.cache.commit_region();
        // Directory release strictly after the epoch bump — see the abort
        // path for the conservation argument.
        if let Some(link) = self.coh.as_mut() {
            link.release_spec();
        }
        self.stats.commits += 1;
        self.stats
            .region_sizes
            .record(self.stats.uops - r.start_uops);
        self.stats.region_footprint.record(r.lines.len() as u64);
        self.last_commit_cxw = self.cxw;
        if self.cfg.validate {
            self.validate_arch_state(&r, false)?;
        }
        if self.cfg.governor.enabled {
            self.gov_on_commit(r.method, r.region);
        }
        // Recycle the region's buffers for the next one.
        r.undo.clear();
        self.spare_undo = r.undo;
        self.spare_lines = r.lines.into_buffer();
        self.reg_pool.push(r.regs);
        Ok(())
    }

    /// The §3 atomicity contract, checked mechanically after a commit or an
    /// abort: speculative cache state flash-cleared, the frame stack back at
    /// checkpoint depth, region counters consistent — and after an abort,
    /// the PC at the alternate path, the register file bit-identical to an
    /// independently captured shadow checkpoint, the allocation frontier and
    /// environment restored, and every undo-logged cell holding its
    /// pre-region value.
    fn validate_arch_state(&mut self, r: &RegionCtx, aborted: bool) -> Result<(), MachineFault> {
        fn violated(what: &'static str, detail: String) -> Result<(), MachineFault> {
            Err(MachineFault::InvariantViolation { what, detail })
        }
        let spec = self.cache.spec_lines();
        if spec != 0 {
            return violated("spec-bits", format!("{spec} lines still speculative"));
        }
        if self.frames.len() != r.frame_depth {
            return violated(
                "frame-depth",
                format!(
                    "depth {} != checkpoint {}",
                    self.frames.len(),
                    r.frame_depth
                ),
            );
        }
        let entries: u64 = self.stats.per_region.values().map(|c| c.entries).sum();
        let resolved = self.stats.commits + self.stats.aborts.total();
        if entries != resolved {
            return violated(
                "region-counters",
                format!("{entries} entries != {} commits + aborts", resolved),
            );
        }
        // Ladder accounting: per tier, every transition in is balanced by a
        // transition out or a still-live region, and the live counters must
        // match an exact recount of the governor table.
        let mut census = [0u64; 4];
        for g in self.gov.values() {
            census[g.tier as usize] += 1;
        }
        for (t, &tier_census) in census.iter().enumerate() {
            let (en, ex, live) = (
                self.stats.tier_enters[t],
                self.stats.tier_exits[t],
                self.stats.tier_live[t],
            );
            if en != ex + live || live != tier_census {
                return violated(
                    "tier-counters",
                    format!(
                        "tier {t}: {en} enters != {ex} exits + {live} live \
                         (governor table holds {tier_census})"
                    ),
                );
            }
        }
        if aborted {
            let frame = self.frames.last().expect("frame");
            if frame.pc != r.alt {
                return violated("alt-pc", format!("pc {} != alt {}", frame.pc, r.alt));
            }
            if frame.regs != r.shadow_regs {
                return violated(
                    "registers",
                    format!(
                        "register file differs from shadow checkpoint at index {:?}",
                        frame
                            .regs
                            .iter()
                            .zip(&r.shadow_regs)
                            .position(|(a, b)| a != b)
                    ),
                );
            }
            if self.heap.alloc_mark() != r.heap {
                return violated("alloc-frontier", "allocation mark not restored".into());
            }
            if self.env.snapshot() != r.env {
                return violated("env", "environment snapshot not restored".into());
            }
            // Every undo-logged cell must hold its pre-region value. The log
            // may contain the same cell several times; reverse-order
            // application leaves the *first* logged (oldest) value, so only
            // each cell's first occurrence is checked. Cells of objects
            // allocated inside the region no longer exist after the frontier
            // rollback and are skipped.
            let live = self.heap.len();
            let mut seen = std::collections::HashSet::new();
            for (cell, old) in &r.undo {
                if !seen.insert(*cell) {
                    continue;
                }
                let obj = match *cell {
                    HeapCell::Field(o, _) | HeapCell::Elem(o, _) | HeapCell::Lock(o) => o,
                };
                if obj.0 as usize >= live {
                    continue;
                }
                let now = self.heap.read_cell(*cell);
                if now != *old {
                    return violated(
                        "undo-log",
                        format!("cell {cell:?} holds {now}, expected pre-region {old}"),
                    );
                }
            }
        }
        self.stats.validations += 1;
        Ok(())
    }

    fn obj(&mut self, bits: i64) -> Result<ObjId, VmError> {
        match Value::decode(bits) {
            Value::Ref(Some(o)) => Ok(o),
            Value::Ref(None) => {
                // A null reaching a memory uop means a NullCheck was removed
                // unsoundly — surface it loudly rather than masking it.
                let f = self.frames.last().expect("frame");
                Err(VmError::Trap {
                    trap: Trap::NullPointer,
                    method: f.method,
                    pc: f.pc,
                })
            }
            Value::Int(_) => {
                let f = self.frames.last().expect("frame");
                Err(VmError::TypeMismatch {
                    method: f.method,
                    pc: f.pc,
                    what: "expected ref",
                })
            }
        }
    }

    /// Dispatch selector. The superblock hot path requires that nothing
    /// observes state *between* the uops of a straight-line run:
    /// probabilistic/interval fault injection draws once per retired
    /// in-region uop, and the invariant validator audits the reference
    /// interleaving — either forces the per-uop path, keeping
    /// injected-fault campaigns bit-identical by construction.
    fn exec(&mut self) -> Result<Option<Value>, MachineFault> {
        if self.cfg.dispatch == Dispatch::Superblock && !self.inject_per_uop && !self.cfg.validate {
            self.exec_superblock()
        } else {
            self.exec_per_uop()
        }
    }

    /// Rolls back the batched accounting of a block's unexecuted suffix
    /// after a mid-block redirect (in-region abort, overflow, or trap at an
    /// interior uop): totals return to exactly what the per-uop reference
    /// would have recorded at the redirect point.
    fn unapply_suffix(&mut self, suffix: &SbInfo, was_in_region: bool) {
        let n = u64::from(suffix.len);
        self.fuel += n;
        self.stats.uops -= n;
        self.cxw -= n;
        self.stats.uop_classes.unapply_delta(&suffix.classes);
        if was_in_region {
            self.stats.region_uops -= n;
        }
    }

    /// The superblock interior executor: retires the straight-line uops in
    /// `i..term` under one set of field borrows — register file, heap,
    /// cache, and region context all resolved once — inlining the hot
    /// register, check, memory, and intrinsic kinds. Anything about to trap
    /// bails out *before* its side effects with [`Interior::Slow`] so the
    /// caller can replay it through the shared [`Machine::step`] semantics;
    /// region overflow (whose cache access cannot be replayed) surfaces as
    /// [`Interior::Overflow`].
    #[allow(clippy::too_many_lines)]
    #[inline]
    fn run_interior(&mut self, code: &'p CompiledCode, mut i: usize, term: usize) -> Interior {
        let program = self.program;
        let Machine {
            frames,
            heap,
            cache,
            stats,
            region,
            coh,
            cfg,
            cxw,
            env,
            ..
        } = self;
        let frame = frames.last_mut().expect("frame");
        let regs = &mut frame.regs;
        macro_rules! probe {
            ($addr:expr, $write:expr) => {{
                // The uop's seal site (way-predictor slot, DESIGN §16)
                // rides in the superblock index; non-memory uops never
                // reach this macro.
                let site = code.blocks[i].mem_site;
                Self::mem_access_parts(cache, stats, cxw, region, coh, cfg, site, $addr, $write)
            }};
        }
        loop {
            if i >= term {
                break Interior::Done;
            }
            match code.uops[i] {
                Uop::Const { dst, imm } => regs[dst.0 as usize] = imm,
                Uop::ConstNull { dst } => regs[dst.0 as usize] = Value::NULL.encode(),
                Uop::Mov { dst, src } => regs[dst.0 as usize] = regs[src.0 as usize],
                Uop::Alu { op, dst, a, b } => {
                    // Trapping ops (div/rem) evaluate side-effect-free, so a
                    // trap can still bail to the shared slow path exactly.
                    match op.eval(regs[a.0 as usize], regs[b.0 as usize]) {
                        Some(v) => regs[dst.0 as usize] = v,
                        None => break Interior::Slow(i),
                    }
                }
                Uop::CmpSet { op, dst, a, b } => {
                    regs[dst.0 as usize] =
                        i64::from(op.eval_int(regs[a.0 as usize], regs[b.0 as usize]));
                }
                Uop::CheckNull { v } => {
                    if Value::decode(regs[v.0 as usize]) == Value::NULL {
                        break Interior::Slow(i);
                    }
                }
                Uop::CheckBounds { len, idx } => {
                    let (l, x) = (regs[len.0 as usize], regs[idx.0 as usize]);
                    if x < 0 || x >= l {
                        break Interior::Slow(i);
                    }
                }
                Uop::CheckDiv { v } => {
                    if regs[v.0 as usize] == 0 {
                        break Interior::Slow(i);
                    }
                }
                Uop::CheckCast { obj, class } => {
                    if let Value::Ref(Some(o)) = Value::decode(regs[obj.0 as usize]) {
                        if !program.is_subclass(heap.class_of(o), class) {
                            break Interior::Slow(i);
                        }
                    }
                }
                Uop::InstOf { dst, obj, class } => {
                    let is = match Value::decode(regs[obj.0 as usize]) {
                        Value::Ref(Some(o)) => program.is_subclass(heap.class_of(o), class),
                        _ => false,
                    };
                    regs[dst.0 as usize] = i64::from(is);
                }
                Uop::LoadField { dst, obj, field } => {
                    let Value::Ref(Some(o)) = Value::decode(regs[obj.0 as usize]) else {
                        break Interior::Slow(i);
                    };
                    let (addr, slot) = heap.field_slot(o, field);
                    if !probe!(addr, false) {
                        break Interior::Overflow(i);
                    }
                    regs[dst.0 as usize] = slot.encode();
                }
                Uop::StoreField { obj, field, src } => {
                    let Value::Ref(Some(o)) = Value::decode(regs[obj.0 as usize]) else {
                        break Interior::Slow(i);
                    };
                    let (addr, slot) = heap.field_slot(o, field);
                    if !probe!(addr, true) {
                        break Interior::Overflow(i);
                    }
                    if let Some(r) = region.as_mut() {
                        r.undo.push((HeapCell::Field(o, field), slot.encode()));
                    }
                    *slot = Value::decode(regs[src.0 as usize]);
                }
                Uop::LoadElem { dst, arr, idx } => {
                    let Value::Ref(Some(o)) = Value::decode(regs[arr.0 as usize]) else {
                        break Interior::Slow(i);
                    };
                    let (addr, slot) = heap.elem_slot(o, regs[idx.0 as usize] as u32);
                    if !probe!(addr, false) {
                        break Interior::Overflow(i);
                    }
                    regs[dst.0 as usize] = slot.encode();
                }
                Uop::StoreElem { arr, idx, src } => {
                    let Value::Ref(Some(o)) = Value::decode(regs[arr.0 as usize]) else {
                        break Interior::Slow(i);
                    };
                    let j = regs[idx.0 as usize] as u32;
                    let (addr, slot) = heap.elem_slot(o, j);
                    if !probe!(addr, true) {
                        break Interior::Overflow(i);
                    }
                    if let Some(r) = region.as_mut() {
                        r.undo.push((HeapCell::Elem(o, j), slot.encode()));
                    }
                    *slot = Value::decode(regs[src.0 as usize]);
                }
                Uop::LoadLen { dst, arr } => {
                    let Value::Ref(Some(o)) = Value::decode(regs[arr.0 as usize]) else {
                        break Interior::Slow(i);
                    };
                    let (addr, len) = heap.len_slot(o);
                    if !probe!(addr, false) {
                        break Interior::Overflow(i);
                    }
                    regs[dst.0 as usize] = len as i64;
                }
                Uop::LoadClass { dst, obj } => {
                    let Value::Ref(Some(o)) = Value::decode(regs[obj.0 as usize]) else {
                        break Interior::Slow(i);
                    };
                    let addr = heap.addr_of_header(o);
                    if !probe!(addr, false) {
                        break Interior::Overflow(i);
                    }
                    regs[dst.0 as usize] = i64::from(heap.class_of(o).0);
                }
                Uop::LoadLock { dst, obj } => {
                    let Value::Ref(Some(o)) = Value::decode(regs[obj.0 as usize]) else {
                        break Interior::Slow(i);
                    };
                    let cell = HeapCell::Lock(o);
                    let addr = heap.addr_of(cell);
                    if !probe!(addr, false) {
                        break Interior::Overflow(i);
                    }
                    regs[dst.0 as usize] = heap.read_cell(cell);
                }
                Uop::StoreLock { obj, src } => {
                    let Value::Ref(Some(o)) = Value::decode(regs[obj.0 as usize]) else {
                        break Interior::Slow(i);
                    };
                    let cell = HeapCell::Lock(o);
                    let addr = heap.addr_of(cell);
                    if !probe!(addr, true) {
                        break Interior::Overflow(i);
                    }
                    if let Some(r) = region.as_mut() {
                        r.undo.push((cell, heap.read_cell(cell)));
                    }
                    heap.write_cell(cell, regs[src.0 as usize]);
                }
                Uop::Poll => {
                    if !probe!(YIELD_FLAG_ADDR, false) {
                        break Interior::Overflow(i);
                    }
                }
                Uop::Intrin {
                    kind,
                    dst,
                    ref args,
                } => match kind {
                    Intrinsic::Checksum => env.checksum_push(regs[args[0].0 as usize]),
                    Intrinsic::NextRandom => {
                        let v = env.next_random();
                        if let Some(d) = dst {
                            regs[d.0 as usize] = v;
                        }
                    }
                    Intrinsic::YieldFlag => {
                        if let Some(d) = dst {
                            regs[d.0 as usize] = 0;
                        }
                    }
                },
                // Allocation, trapping ALU, and anything else: the shared
                // step path handles it.
                _ => break Interior::Slow(i),
            }
            i += 1;
        }
    }

    /// The chained batched-dispatch hot path: retire decoded superblocks
    /// block-to-block without leaving the engine. Each iteration charges the
    /// block's precomputed fuel/stats delta once, runs the straight-line
    /// prefix under one register-file borrow, then follows the *sealed*
    /// terminator link ([`SbTerm`]): direct and conditional successors,
    /// region entry/commit/abort, and call/return frame transitions all
    /// resolve inline on locally cached `(method, pc, code)` state — the
    /// frame stack is consulted only when a frame actually changes, and the
    /// shared [`Machine::step`] path is reserved for trap replay,
    /// indirect-table misses, and `Unreachable`.
    ///
    /// The accounting invariant that makes the batch exact: the per-uop
    /// reference charges each uop *before* executing its action, so
    /// charging all `n` uops at block entry agrees with it at every point
    /// where the counters are observable (terminators and markers), and a
    /// redirect at interior uop `i` only needs `blocks[i + 1]` — precisely
    /// the unexecuted suffix — subtracted again. A mid-chain abort (assert,
    /// overflow, trap-turned-abort) therefore lands on exactly the totals
    /// the reference would have recorded at the redirect point, after which
    /// the chain resynchronizes from the frame stack and keeps going.
    #[allow(clippy::too_many_lines)]
    fn exec_superblock(&mut self) -> Result<Option<Value>, MachineFault> {
        // The chain's cached dispatch state: authoritative between frame
        // transitions (`self.frames` pcs may lag until a slow path syncs).
        let (mut method, mut pc, mut code) = {
            let f = self.frames.last().expect("frame");
            (f.method, f.pc, f.code)
        };
        /// Re-caches the chain state from the frame stack after a path that
        /// redirected through it (abort, trap replay, governor patch-out).
        macro_rules! resync {
            () => {{
                let f = self.frames.last().expect("frame");
                method = f.method;
                pc = f.pc;
                code = f.code;
            }};
        }
        loop {
            let sb = &code.blocks[pc];
            let n = u64::from(sb.len);
            if n == 0 {
                // Markers live outside blocks: architecturally inert and
                // free, they snapshot the retired-uop and cycle counters.
                let Uop::Marker { id } = code.uops[pc] else {
                    unreachable!("len-0 superblock on a non-marker uop")
                };
                self.env.hit_marker(id);
                let ordinal = self.env.marker_count(id);
                let snap = MarkerSnap {
                    id,
                    ordinal,
                    uops: self.stats.uops,
                    cycles: self.cycles(),
                };
                self.stats.markers.push(snap);
                pc += 1;
                continue;
            }
            if self.fuel < n {
                // Within one block of exhaustion: the reference path finds
                // the exact uop the fuel runs out on.
                self.frames.last_mut().expect("frame").pc = pc;
                return self.exec_per_uop();
            }
            // The whole block's accounting, batched.
            self.fuel -= n;
            self.stats.uops += n;
            self.cxw += n;
            self.stats.uop_classes.apply_delta(&sb.classes);
            let in_region = self.region.is_some();
            if in_region {
                self.stats.region_uops += n;
            }
            let term = pc + sb.len as usize - 1;
            let sterm = sb.term;
            if pc < term {
                let mut i = pc;
                let mut redirected = false;
                while i < term {
                    match self.run_interior(code, i, term) {
                        Interior::Done => break,
                        // A trap-bound or unspecialized interior uop: keep
                        // the frame pc exact for trap provenance, then
                        // replay it through the shared semantics (the fast
                        // path bailed before any side effect, so replaying
                        // is exact).
                        Interior::Slow(j) => {
                            self.frames.last_mut().expect("frame").pc = j;
                            match self.step(&code.uops[j], method, j) {
                                Ok(StepOut::Next(_)) => i = j + 1,
                                Ok(StepOut::Redirect) => {
                                    self.unapply_suffix(&code.blocks[j + 1], in_region);
                                    redirected = true;
                                    break;
                                }
                                Ok(StepOut::Return(_)) => {
                                    unreachable!("return is a block terminator")
                                }
                                Err(e) => {
                                    self.unapply_suffix(&code.blocks[j + 1], in_region);
                                    return Err(e);
                                }
                            }
                        }
                        // The cache already recorded the access when
                        // overflow was detected (and for a coherence
                        // conflict the line is already gone), so this
                        // cannot be replayed — abort here, exactly as the
                        // reference path's `mem_access` would, with the
                        // parked conflict reason when a drain bailed the
                        // probe.
                        Interior::Overflow(j) => {
                            let why = self.take_mem_abort_reason();
                            if let Err(e) = self.abort(why) {
                                self.unapply_suffix(&code.blocks[j + 1], in_region);
                                return Err(e);
                            }
                            self.unapply_suffix(&code.blocks[j + 1], in_region);
                            redirected = true;
                            break;
                        }
                    }
                }
                if redirected {
                    resync!();
                    continue;
                }
            }
            // Follow the sealed terminator link. Every arm mirrors the
            // corresponding [`Machine::step`] semantics exactly; the shared
            // region helpers *are* the step arms.
            match sterm {
                SbTerm::Jmp { next } => pc = next as usize,
                SbTerm::Br { op, a, b, taken } => {
                    let Machine {
                        frames,
                        stats,
                        pred,
                        cxw,
                        cfg,
                        ..
                    } = &mut *self;
                    let regs = &frames.last().expect("frame").regs;
                    let (x, y) = (regs[a.0 as usize], regs[b.0 as usize]);
                    let t = op.eval_int(x, y);
                    stats.branches += 1;
                    if !pred.branch(Self::pc_hash(method, term), t) {
                        stats.mispredicts += 1;
                        *stats.mispredict_sites.entry((method.0, term)).or_insert(0) += 1;
                        *cxw += cfg.mispredict_penalty * cfg.width;
                    }
                    pc = if t { taken as usize } else { term + 1 };
                }
                SbTerm::Ret { src } => {
                    // Epilogue: frame teardown + return-address handling,
                    // with the register file recycled through the pool.
                    self.account_call_overhead(2);
                    debug_assert!(
                        self.region.is_none()
                            || self.region.as_ref().expect("region").frame_depth
                                == self.frames.len(),
                        "region must not span returns"
                    );
                    let frame = self.frames.pop().expect("frame");
                    let v = src.map(|r| frame.regs[r.0 as usize]);
                    if self.frames.is_empty() {
                        self.stats.cycles = self.cycles();
                        return Ok(v.map(Value::decode));
                    }
                    let caller = self.frames.last_mut().expect("frame");
                    if let Some(d) = frame.ret_dst {
                        caller.regs[d.0 as usize] = v.unwrap_or(0);
                    }
                    method = caller.method;
                    pc = caller.pc;
                    code = caller.code;
                    self.reg_pool.push(frame.regs);
                }
                SbTerm::RegionBegin { region, alt } => {
                    match self.region_begin(method, term, region, alt as usize)? {
                        BeginOut::Entered => pc = term + 1,
                        BeginOut::Redirect(t) => pc = t,
                    }
                }
                SbTerm::RegionEnd { region } => {
                    self.region_end(method, term, region)?;
                    pc = term + 1;
                }
                SbTerm::Abort { assert_id } => {
                    // `abort` reads the frame pc only on the misuse
                    // (no-region) error path; keep it exact for the report.
                    self.frames.last_mut().expect("frame").pc = term;
                    let reason = if assert_id == u32::MAX {
                        AbortReason::Sle
                    } else {
                        AbortReason::Explicit
                    };
                    self.abort(reason)?;
                    resync!();
                }
                SbTerm::Decode => match code.uops[term] {
                    Uop::JmpInd {
                        sel,
                        ref table,
                        default,
                    } => {
                        let Machine {
                            frames,
                            stats,
                            pred,
                            btb,
                            cxw,
                            cfg,
                            ..
                        } = &mut *self;
                        let v = frames.last().expect("frame").regs[sel.0 as usize];
                        let site = Self::pc_hash(method, term);
                        let target = match btb.lookup(site, v) {
                            Some(t) => t,
                            None => {
                                let t = if v >= 0 && (v as usize) < table.len() {
                                    table[v as usize]
                                } else {
                                    default
                                };
                                btb.insert(site, v, t);
                                t
                            }
                        };
                        stats.indirects += 1;
                        if !pred.indirect(site, target as u64) {
                            stats.indirect_misses += 1;
                            *cxw += cfg.mispredict_penalty * cfg.width;
                        }
                        pc = target;
                    }
                    Uop::Call {
                        dst,
                        target,
                        ref args,
                    } => {
                        debug_assert!(self.region.is_none(), "call inside atomic region");
                        // Frame setup: argument marshalling + prologue uops.
                        self.account_call_overhead(args.len() as u64 + 2);
                        if self.frames.len() >= self.max_depth {
                            return Err(VmError::StackOverflow.into());
                        }
                        let callee = self
                            .code
                            .get(target)
                            .ok_or(MachineFault::MethodNotCompiled(target))?;
                        // Pooled push with the arguments copied caller →
                        // callee directly — no marshalling buffer between.
                        let mut regs = self.reg_pool.pop().unwrap_or_default();
                        regs.clear();
                        regs.resize(callee.regs as usize, 0);
                        let caller = self.frames.last_mut().expect("frame");
                        for (i, r) in args.iter().enumerate() {
                            regs[i] = caller.regs[r.0 as usize];
                        }
                        caller.pc = term + 1;
                        self.frames.push(Frame {
                            method: target,
                            code: callee,
                            regs,
                            pc: 0,
                            ret_dst: dst,
                        });
                        method = target;
                        code = callee;
                        pc = 0;
                    }
                    Uop::CallVirt {
                        dst,
                        slot,
                        recv,
                        ref args,
                    } if matches!(
                        Value::decode(self.frames.last().expect("frame").regs[recv.0 as usize]),
                        Value::Ref(Some(_))
                    ) =>
                    {
                        debug_assert!(self.region.is_none(), "call inside atomic region");
                        let rbits = self.frames.last().expect("frame").regs[recv.0 as usize];
                        let Value::Ref(Some(ro)) = Value::decode(rbits) else {
                            unreachable!("guard checked the receiver")
                        };
                        let class = self.heap.class_of(ro);
                        // Virtual-call sites are overwhelmingly monomorphic:
                        // the side-cache memoizes the vtable walk per
                        // (site, class). A vtable slot never changes, so a
                        // hit is transparent.
                        let site = Self::pc_hash(method, term);
                        let target = match self.btb.lookup(site, i64::from(class.0)) {
                            Some(t) => MethodId(t as u32),
                            None => {
                                let t = self.program.resolve_virtual(class, slot);
                                self.btb.insert(site, i64::from(class.0), t.0 as usize);
                                t
                            }
                        };
                        // Frame setup + vtable load.
                        self.account_call_overhead(args.len() as u64 + 4);
                        // Virtual dispatch is an indirect branch.
                        self.stats.indirects += 1;
                        if !self.pred.indirect(site, u64::from(target.0)) {
                            self.stats.indirect_misses += 1;
                            self.charge(self.cfg.mispredict_penalty);
                        }
                        if self.frames.len() >= self.max_depth {
                            return Err(VmError::StackOverflow.into());
                        }
                        let callee = self
                            .code
                            .get(target)
                            .ok_or(MachineFault::MethodNotCompiled(target))?;
                        let mut regs = self.reg_pool.pop().unwrap_or_default();
                        regs.clear();
                        regs.resize(callee.regs as usize, 0);
                        let caller = self.frames.last_mut().expect("frame");
                        regs[0] = rbits;
                        for (i, r) in args.iter().enumerate() {
                            regs[i + 1] = caller.regs[r.0 as usize];
                        }
                        caller.pc = term + 1;
                        self.frames.push(Frame {
                            method: target,
                            code: callee,
                            regs,
                            pc: 0,
                            ret_dst: dst,
                        });
                        method = target;
                        code = callee;
                        pc = 0;
                    }
                    // Null/non-ref virtual receivers (exact trap provenance),
                    // `Unreachable`, and blocks sealed early by markers or
                    // end-of-stream: the shared step path handles them.
                    ref u => {
                        self.frames.last_mut().expect("frame").pc = term;
                        match self.step(u, method, term)? {
                            StepOut::Next(np) => self.frames.last_mut().expect("frame").pc = np,
                            StepOut::Redirect => {}
                            StepOut::Return(v) => {
                                self.stats.cycles = self.cycles();
                                return Ok(v);
                            }
                        }
                        resync!();
                    }
                },
            }
        }
    }

    /// The reference interpretation: fetch, account, and execute one uop at
    /// a time. This is the only path that can observe state between the
    /// uops of a straight-line run, so per-uop fault injection and the
    /// invariant validator always run here.
    fn exec_per_uop(&mut self) -> Result<Option<Value>, MachineFault> {
        loop {
            if self.fuel == 0 {
                return Err(VmError::FuelExhausted.into());
            }
            let (method, pc, code) = {
                let f = self.frames.last().expect("frame");
                (f.method, f.pc, f.code)
            };
            // Fetch by reference — the code cache outlives the machine, so
            // the uop (including any JmpInd table or call argument list) is
            // dispatched in place, never cloned, and the frame carries its
            // method's code so there is no per-uop map lookup.
            let uop: &'p Uop = &code.uops[pc];

            // Markers are architecturally inert and free.
            if let Uop::Marker { id } = *uop {
                self.env.hit_marker(id);
                let ordinal = self.env.marker_count(id);
                let snap = MarkerSnap {
                    id,
                    ordinal,
                    uops: self.stats.uops,
                    cycles: self.cycles(),
                };
                self.stats.markers.push(snap);
                self.frames.last_mut().expect("frame").pc += 1;
                continue;
            }

            self.fuel -= 1;
            self.stats.uops += 1;
            self.stats.uop_classes.record(uop.class());
            self.cxw += 1;
            if self.region.is_some() {
                self.stats.region_uops += 1;
                if self.inject_per_uop {
                    // Interrupt injection (best-effort hardware).
                    let interval = self.cfg.faults.interrupt_interval;
                    if interval > 0 && self.stats.uops.is_multiple_of(interval) {
                        self.abort(AbortReason::Interrupt)?;
                        continue;
                    }
                    let conflict = self.cfg.faults.conflict_per_miljon;
                    let spurious = self.cfg.faults.spurious_per_miljon;
                    if conflict > 0 || spurious > 0 {
                        self.fault_rng = self
                            .fault_rng
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        // Coherence conflict injection.
                        if conflict > 0 && (self.fault_rng >> 11) % 1_000_000 < conflict {
                            self.abort(AbortReason::Conflict)?;
                            continue;
                        }
                        // Spurious hardware aborts (independent bits of the
                        // same draw, so the streams don't correlate).
                        if spurious > 0 && (self.fault_rng >> 29) % 1_000_000 < spurious {
                            self.abort(AbortReason::Spurious)?;
                            continue;
                        }
                    }
                }
            }

            match self.step(uop, method, pc)? {
                StepOut::Next(np) => self.frames.last_mut().expect("frame").pc = np,
                StepOut::Redirect => {}
                StepOut::Return(v) => {
                    self.stats.cycles = self.cycles();
                    return Ok(v);
                }
            }
        }
    }

    /// Executes one uop's architectural action — shared verbatim by both
    /// dispatch paths, so their semantics cannot drift. Accounting (fuel,
    /// stats, injection) is the caller's job; `pc` is the uop's own offset,
    /// and the frame's pc field already equals it (trap provenance relies
    /// on that).
    #[allow(clippy::too_many_lines)]
    #[inline]
    fn step(&mut self, uop: &'p Uop, method: MethodId, pc: usize) -> Result<StepOut, MachineFault> {
        let mut next_pc = pc + 1;
        macro_rules! regs {
            () => {
                self.frames.last_mut().expect("frame").regs
            };
        }
        /// Read a register without a mutable borrow (usable as an
        /// argument to `&mut self` methods).
        macro_rules! rval {
            ($r:expr) => {
                self.frames.last().expect("frame").regs[$r.0 as usize]
            };
        }
        /// The executing uop's seal site (way-predictor slot, DESIGN §16),
        /// from the sealed superblock index. Non-memory uops that still
        /// touch the cache model (allocation header writes) carry
        /// `NO_SITE` there, so one macro serves every arm.
        macro_rules! msite {
            () => {
                self.frames.last().expect("frame").code.blocks[pc].mem_site
            };
        }
        match *uop {
            Uop::Const { dst, imm } => regs!()[dst.0 as usize] = imm,
            Uop::ConstNull { dst } => regs!()[dst.0 as usize] = Value::NULL.encode(),
            Uop::Mov { dst, src } => {
                let v = regs!()[src.0 as usize];
                regs!()[dst.0 as usize] = v;
            }
            Uop::Alu { op, dst, a, b } => {
                let (x, y) = (regs!()[a.0 as usize], regs!()[b.0 as usize]);
                match op.eval(x, y) {
                    Some(v) => regs!()[dst.0 as usize] = v,
                    None => {
                        // Division by zero past its CheckDiv: impossible
                        // for correct lowering; treat as a trap.
                        self.trap_or_abort(Trap::DivByZero)?;
                        return Ok(StepOut::Redirect);
                    }
                }
            }
            Uop::CmpSet { op, dst, a, b } => {
                let (x, y) = (regs!()[a.0 as usize], regs!()[b.0 as usize]);
                regs!()[dst.0 as usize] = i64::from(op.eval_int(x, y));
            }
            Uop::Jmp { target } => next_pc = target,
            Uop::Br { op, a, b, target } => {
                let (x, y) = (regs!()[a.0 as usize], regs!()[b.0 as usize]);
                let taken = op.eval_int(x, y);
                self.stats.branches += 1;
                if !self.pred.branch(Self::pc_hash(method, pc), taken) {
                    self.stats.mispredicts += 1;
                    *self
                        .stats
                        .mispredict_sites
                        .entry((method.0, pc))
                        .or_insert(0) += 1;
                    self.charge(self.cfg.mispredict_penalty);
                }
                if taken {
                    next_pc = target;
                }
            }
            Uop::JmpInd {
                sel,
                ref table,
                default,
            } => {
                let v = regs!()[sel.0 as usize];
                // Monomorphic dispatch sites hit the branch-target
                // side-cache and skip the table walk; the table lookup
                // is a pure function of (site, selector), so a hit is
                // semantically transparent.
                let site = Self::pc_hash(method, pc);
                next_pc = match self.btb.lookup(site, v) {
                    Some(t) => t,
                    None => {
                        let t = if v >= 0 && (v as usize) < table.len() {
                            table[v as usize]
                        } else {
                            default
                        };
                        self.btb.insert(site, v, t);
                        t
                    }
                };
                self.stats.indirects += 1;
                if !self.pred.indirect(site, next_pc as u64) {
                    self.stats.indirect_misses += 1;
                    self.charge(self.cfg.mispredict_penalty);
                }
            }
            Uop::LoadField { dst, obj, field } => {
                let o = self.obj(rval!(obj))?;
                let cell = HeapCell::Field(o, field);
                if !self.mem_access(msite!(), self.heap.addr_of(cell), false)? {
                    return Ok(StepOut::Redirect);
                }
                regs!()[dst.0 as usize] = self.heap.read_cell(cell);
            }
            Uop::StoreField { obj, field, src } => {
                let o = self.obj(rval!(obj))?;
                let cell = HeapCell::Field(o, field);
                if !self.mem_access(msite!(), self.heap.addr_of(cell), true)? {
                    return Ok(StepOut::Redirect);
                }
                self.log_undo(cell);
                let v = regs!()[src.0 as usize];
                self.heap.write_cell(cell, v);
            }
            Uop::LoadElem { dst, arr, idx } => {
                let o = self.obj(rval!(arr))?;
                let i = regs!()[idx.0 as usize] as u32;
                let cell = HeapCell::Elem(o, i);
                if !self.mem_access(msite!(), self.heap.addr_of(cell), false)? {
                    return Ok(StepOut::Redirect);
                }
                regs!()[dst.0 as usize] = self.heap.read_cell(cell);
            }
            Uop::StoreElem { arr, idx, src } => {
                let o = self.obj(rval!(arr))?;
                let i = regs!()[idx.0 as usize] as u32;
                let cell = HeapCell::Elem(o, i);
                if !self.mem_access(msite!(), self.heap.addr_of(cell), true)? {
                    return Ok(StepOut::Redirect);
                }
                self.log_undo(cell);
                let v = regs!()[src.0 as usize];
                self.heap.write_cell(cell, v);
            }
            Uop::LoadLen { dst, arr } => {
                let o = self.obj(rval!(arr))?;
                if !self.mem_access(msite!(), self.heap.addr_of_len(o), false)? {
                    return Ok(StepOut::Redirect);
                }
                let n = self.heap.array_len(o).expect("array") as i64;
                regs!()[dst.0 as usize] = n;
            }
            Uop::LoadLock { dst, obj } => {
                let o = self.obj(rval!(obj))?;
                let cell = HeapCell::Lock(o);
                if !self.mem_access(msite!(), self.heap.addr_of(cell), false)? {
                    return Ok(StepOut::Redirect);
                }
                regs!()[dst.0 as usize] = self.heap.read_cell(cell);
            }
            Uop::StoreLock { obj, src } => {
                let o = self.obj(rval!(obj))?;
                let cell = HeapCell::Lock(o);
                if !self.mem_access(msite!(), self.heap.addr_of(cell), true)? {
                    return Ok(StepOut::Redirect);
                }
                self.log_undo(cell);
                let v = regs!()[src.0 as usize];
                self.heap.write_cell(cell, v);
            }
            Uop::LoadClass { dst, obj } => {
                let o = self.obj(rval!(obj))?;
                if !self.mem_access(msite!(), self.heap.addr_of_header(o), false)? {
                    return Ok(StepOut::Redirect);
                }
                regs!()[dst.0 as usize] = i64::from(self.heap.class_of(o).0);
            }
            Uop::AllocObj { dst, class } => {
                let n = self.program.class(class).field_count();
                let o = self.heap.alloc_object(class, n);
                if !self.mem_access(msite!(), self.heap.addr_of_header(o), true)? {
                    return Ok(StepOut::Redirect);
                }
                regs!()[dst.0 as usize] = Value::from(o).encode();
            }
            Uop::AllocArr { dst, len } => {
                let n = regs!()[len.0 as usize];
                if n < 0 {
                    self.trap_or_abort(Trap::OutOfBounds)?;
                    return Ok(StepOut::Redirect);
                }
                let o = self.heap.alloc_array(n as usize);
                if !self.mem_access(msite!(), self.heap.addr_of_header(o), true)? {
                    return Ok(StepOut::Redirect);
                }
                regs!()[dst.0 as usize] = Value::from(o).encode();
            }
            Uop::CheckNull { v } => {
                if Value::decode(regs!()[v.0 as usize]) == Value::NULL {
                    self.trap_or_abort(Trap::NullPointer)?;
                    return Ok(StepOut::Redirect);
                }
            }
            Uop::CheckBounds { len, idx } => {
                let (l, i) = (regs!()[len.0 as usize], regs!()[idx.0 as usize]);
                if i < 0 || i >= l {
                    self.trap_or_abort(Trap::OutOfBounds)?;
                    return Ok(StepOut::Redirect);
                }
            }
            Uop::CheckDiv { v } => {
                if regs!()[v.0 as usize] == 0 {
                    self.trap_or_abort(Trap::DivByZero)?;
                    return Ok(StepOut::Redirect);
                }
            }
            Uop::CheckCast { obj, class } => {
                let bits = regs!()[obj.0 as usize];
                if let Value::Ref(Some(o)) = Value::decode(bits) {
                    if !self.program.is_subclass(self.heap.class_of(o), class) {
                        self.trap_or_abort(Trap::ClassCast)?;
                        return Ok(StepOut::Redirect);
                    }
                }
            }
            Uop::InstOf { dst, obj, class } => {
                let bits = regs!()[obj.0 as usize];
                let is = match Value::decode(bits) {
                    Value::Ref(Some(o)) => self.program.is_subclass(self.heap.class_of(o), class),
                    _ => false,
                };
                regs!()[dst.0 as usize] = i64::from(is);
            }
            Uop::Call {
                dst,
                target,
                ref args,
            } => {
                debug_assert!(self.region.is_none(), "call inside atomic region");
                // Frame setup: argument marshalling + prologue uops.
                self.account_call_overhead(args.len() as u64 + 2);
                let mut argv = std::mem::take(&mut self.arg_buf);
                argv.clear();
                argv.extend(args.iter().map(|r| regs!()[r.0 as usize]));
                self.frames.last_mut().expect("frame").pc = next_pc;
                self.push_frame(target, &argv, dst)?;
                argv.clear();
                self.arg_buf = argv;
                return Ok(StepOut::Redirect);
            }
            Uop::CallVirt {
                dst,
                slot,
                recv,
                ref args,
            } => {
                debug_assert!(self.region.is_none(), "call inside atomic region");
                let ro = self.obj(rval!(recv))?;
                let class = self.heap.class_of(ro);
                // Virtual-call sites are overwhelmingly monomorphic: the
                // side-cache memoizes the vtable walk per (site, class).
                // A vtable slot never changes, so a hit is transparent.
                let site = Self::pc_hash(method, pc);
                let target = match self.btb.lookup(site, i64::from(class.0)) {
                    Some(t) => MethodId(t as u32),
                    None => {
                        let t = self.program.resolve_virtual(class, slot);
                        self.btb.insert(site, i64::from(class.0), t.0 as usize);
                        t
                    }
                };
                // Frame setup + vtable load.
                self.account_call_overhead(args.len() as u64 + 4);
                let mut argv = std::mem::take(&mut self.arg_buf);
                argv.clear();
                argv.push(regs!()[recv.0 as usize]);
                argv.extend(args.iter().map(|r| regs!()[r.0 as usize]));
                // Virtual dispatch is an indirect branch.
                self.stats.indirects += 1;
                if !self.pred.indirect(site, u64::from(target.0)) {
                    self.stats.indirect_misses += 1;
                    self.charge(self.cfg.mispredict_penalty);
                }
                self.frames.last_mut().expect("frame").pc = next_pc;
                self.push_frame(target, &argv, dst)?;
                argv.clear();
                self.arg_buf = argv;
                return Ok(StepOut::Redirect);
            }
            Uop::Ret { src } => {
                // Epilogue: frame teardown + return-address handling.
                self.account_call_overhead(2);
                let v = src.map(|r| regs!()[r.0 as usize]);
                debug_assert!(
                    self.region.is_none()
                        || self.region.as_ref().expect("region").frame_depth == self.frames.len(),
                    "region must not span returns"
                );
                let frame = self.frames.pop().expect("frame");
                if self.frames.is_empty() {
                    return Ok(StepOut::Return(v.map(Value::decode)));
                }
                if let Some(d) = frame.ret_dst {
                    self.frames.last_mut().expect("frame").regs[d.0 as usize] = v.unwrap_or(0);
                }
                self.reg_pool.push(frame.regs);
                return Ok(StepOut::Redirect);
            }
            Uop::RegionBegin { region, alt } => {
                match self.region_begin(method, pc, region, alt)? {
                    BeginOut::Entered => {}
                    BeginOut::Redirect(t) => {
                        self.frames.last_mut().expect("frame").pc = t;
                        return Ok(StepOut::Redirect);
                    }
                }
            }
            Uop::RegionEnd { region } => self.region_end(method, pc, region)?,
            Uop::Abort { assert_id } => {
                let reason = if assert_id == u32::MAX {
                    AbortReason::Sle
                } else {
                    AbortReason::Explicit
                };
                self.abort(reason)?;
                return Ok(StepOut::Redirect);
            }
            Uop::Poll => {
                if !self.mem_access(msite!(), YIELD_FLAG_ADDR, false)? {
                    return Ok(StepOut::Redirect);
                }
            }
            Uop::Intrin {
                kind,
                dst,
                ref args,
            } => match kind {
                Intrinsic::Checksum => {
                    let v = regs!()[args[0].0 as usize];
                    self.env.checksum_push(v);
                }
                Intrinsic::NextRandom => {
                    let v = self.env.next_random();
                    if let Some(d) = dst {
                        regs!()[d.0 as usize] = v;
                    }
                }
                Intrinsic::YieldFlag => {
                    if let Some(d) = dst {
                        regs!()[d.0 as usize] = 0;
                    }
                }
            },
            Uop::Marker { .. } => unreachable!("handled above"),
            Uop::Unreachable { why } => {
                panic!("executed unreachable uop: {why} at {}:{pc}", method.0)
            }
        }
        Ok(StepOut::Next(next_pc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_opt::{compile_program, CompilerConfig};
    use hasp_vm::builder::ProgramBuilder;
    use hasp_vm::bytecode::{BinOp, CmpOp};
    use hasp_vm::interp::Interp;
    use hasp_vm::profile::Profile;

    /// Profiles a program with the interpreter, compiles every method under
    /// `cfg`, and returns (interpreter checksum, machine, profile run result)
    /// for comparison.
    pub(super) fn run_both(
        p: &Program,
        ccfg: &CompilerConfig,
        hw: HwConfig,
    ) -> (i64, Option<Value>, i64, Option<Value>, RunStats) {
        let mut interp = Interp::new(p).with_profiling();
        interp.set_fuel(200_000_000);
        let iret = interp.run(&[]).expect("interp");
        let icks = interp.env.checksum();
        let profile: Profile = interp.profile;

        let compiled = compile_program(p, &profile, ccfg);
        let mut cc = CodeCache::new();
        for (m, c) in &compiled {
            cc.install(*m, crate::lower::lower(&c.func));
        }
        let mut mach = Machine::new(p, &cc, hw);
        mach.set_fuel(500_000_000);
        let mret = mach.run(&[]).expect("machine");
        let mcks = mach.env.checksum();
        let stats = mach.stats().clone();
        (icks, iret, mcks, mret, stats)
    }

    /// The Figure 2 `addElement`-style workload: hot path with redundant
    /// checks, a cold overflow branch, a synchronized helper.
    pub(super) fn add_element_program(n: i64, chunk: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("Vec", None, &["cached", "i", "chunk_size", "total"]);
        let f_cached = pb.field(c, "cached");
        let f_i = pb.field(c, "i");
        let f_cs = pb.field(c, "chunk_size");
        let f_total = pb.field(c, "total");

        // synchronized add(v, x): total += x
        let mut s = pb.method("Vec.add", 2);
        s.set_synchronized();
        let t = s.reg();
        s.get_field(t, s.arg(0), f_total);
        s.bin(BinOp::Add, t, t, s.arg(1));
        s.put_field(s.arg(0), f_total, t);
        s.ret(None);
        let add = s.finish(&mut pb);

        let mut m = pb.method("main", 0);
        let v = m.reg();
        m.new_obj(v, c);
        let cap = m.imm(chunk);
        let arr = m.reg();
        m.new_array(arr, cap);
        m.put_field(v, f_cached, arr);
        m.put_field(v, f_cs, cap);
        let zero = m.imm(0);
        m.put_field(v, f_i, zero);
        let nn = m.imm(n);
        let k = m.imm(0);
        let one = m.imm(1);
        let head = m.new_label();
        let exit = m.new_label();
        let cold = m.new_label();
        let join = m.new_label();
        m.bind(head);
        m.branch(CmpOp::Ge, k, nn, exit);
        let i = m.reg();
        m.get_field(i, v, f_i);
        let cs = m.reg();
        m.get_field(cs, v, f_cs);
        m.branch(CmpOp::Ge, i, cs, cold);
        let cached = m.reg();
        m.get_field(cached, v, f_cached);
        m.astore(cached, i, k);
        let i2 = m.reg();
        m.bin(BinOp::Add, i2, i, one);
        m.put_field(v, f_i, i2);
        m.call(None, add, &[v, k]);
        m.jump(join);
        m.bind(cold);
        // Wrap around: reset index (exercised when chunk < n).
        m.put_field(v, f_i, zero);
        m.jump(join);
        m.bind(join);
        m.bin(BinOp::Add, k, k, one);
        m.safepoint();
        m.jump(head);
        m.bind(exit);
        let total = m.reg();
        m.get_field(total, v, f_total);
        m.checksum(total);
        let iv = m.reg();
        m.get_field(iv, v, f_i);
        m.checksum(iv);
        m.ret(Some(total));
        let entry = m.finish(&mut pb);
        pb.finish(entry)
    }

    #[test]
    fn baseline_matches_interpreter() {
        let p = add_element_program(3000, 1 << 20);
        let (icks, iret, mcks, mret, _) =
            run_both(&p, &CompilerConfig::no_atomic(), HwConfig::baseline());
        assert_eq!(icks, mcks);
        assert_eq!(iret, mret);
    }

    #[test]
    fn atomic_matches_interpreter_and_commits_regions() {
        let p = add_element_program(3000, 1 << 20);
        let (icks, iret, mcks, mret, stats) =
            run_both(&p, &CompilerConfig::atomic(), HwConfig::baseline());
        assert_eq!(icks, mcks, "atomic config must preserve semantics");
        assert_eq!(iret, mret);
        assert!(
            stats.commits > 100,
            "hot loop must run in regions: {}",
            stats.commits
        );
        assert!(stats.coverage() > 0.3, "coverage {}", stats.coverage());
    }

    #[test]
    fn atomic_reduces_uops() {
        let p = add_element_program(3000, 1 << 20);
        let (_, _, _, _, base) = run_both(&p, &CompilerConfig::no_atomic(), HwConfig::baseline());
        let (_, _, _, _, atom) = run_both(&p, &CompilerConfig::atomic(), HwConfig::baseline());
        assert!(
            atom.uops < base.uops,
            "atomic should remove redundant work: {} vs {}",
            atom.uops,
            base.uops
        );
        assert!(
            atom.cycles < base.cycles,
            "{} vs {}",
            atom.cycles,
            base.cycles
        );
    }

    #[test]
    fn abort_path_preserves_semantics() {
        // chunk < n: the "cold" overflow branch fires every `chunk`
        // iterations (bias 0.2%, below the 1% cold threshold); in the atomic
        // config this is an assert -> abort -> non-speculative re-execution.
        // Results must be identical.
        let p = add_element_program(20_000, 500);
        let (icks, iret, mcks, mret, stats) =
            run_both(&p, &CompilerConfig::atomic(), HwConfig::baseline());
        assert_eq!(icks, mcks, "aborts must be transparent");
        assert_eq!(iret, mret);
        assert!(
            stats.total_aborts() >= 10,
            "wraparound must abort: {:?}",
            stats.aborts
        );
        assert!(
            stats.aborts.get(AbortReason::Explicit) > 0,
            "{:?}",
            stats.aborts
        );
    }

    #[test]
    fn conflicts_and_interrupts_are_transparent() {
        let p = add_element_program(2000, 1 << 20);
        let mut hw = HwConfig::baseline();
        hw.faults.conflict_per_miljon = 500; // aggressive conflict injection
        hw.faults.interrupt_interval = 10_000;
        let (icks, _, mcks, _, stats) = run_both(&p, &CompilerConfig::atomic(), hw);
        assert_eq!(icks, mcks, "conflict/interrupt aborts must be transparent");
        assert!(
            stats.aborts.get(AbortReason::Conflict) > 0
                || stats.aborts.get(AbortReason::Interrupt) > 0,
            "expected injected aborts: {:?}",
            stats.aborts
        );
    }

    #[test]
    fn overflow_aborts_are_transparent() {
        // A loop touching a large array region-internally: the footprint
        // exceeds one L1 set's speculative capacity -> overflow aborts.
        let mut pb = ProgramBuilder::new();
        let mut m = pb.method("main", 0);
        let cap = m.imm(100_000);
        let arr = m.reg();
        m.new_array(arr, cap);
        let i = m.imm(0);
        let n = m.imm(50_000);
        let one = m.imm(1);
        let stride = m.imm(512); // 512 elements * 8B = 4KB stride = same L1 set
        let head = m.new_label();
        let exit = m.new_label();
        m.bind(head);
        m.branch(CmpOp::Ge, i, n, exit);
        let idx = m.reg();
        m.bin(BinOp::Mul, idx, i, stride);
        let wrapped = m.reg();
        m.bin(BinOp::Rem, wrapped, idx, cap);
        m.astore(arr, wrapped, i);
        m.bin(BinOp::Add, i, i, one);
        m.safepoint();
        m.jump(head);
        m.bind(exit);
        let probe = m.imm(0);
        let out = m.reg();
        m.aload(out, arr, probe);
        m.checksum(out);
        m.checksum(i);
        m.ret(None);
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);
        let (icks, _, mcks, _, stats) =
            run_both(&p, &CompilerConfig::atomic(), HwConfig::baseline());
        assert_eq!(icks, mcks);
        // Either whole-loop encapsulation overflowed, or per-iteration
        // regions were chosen; both are acceptable, but with 4KB strides a
        // whole-loop region cannot survive.
        if stats.commits == 0 {
            assert!(
                stats.aborts.get(AbortReason::Overflow) > 0,
                "{:?}",
                stats.aborts
            );
        }
    }

    #[test]
    fn synchronized_methods_execute_correctly() {
        // Nested synchronized calls on the same receiver (recursive locking).
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, &["v"]);
        let fv = pb.field(c, "v");
        let inner = pb.declare("C.inner", 1);
        let mut s2 = pb.method("C.inner", 1);
        s2.set_synchronized();
        let t = s2.reg();
        s2.get_field(t, s2.arg(0), fv);
        let one = s2.imm(1);
        s2.bin(BinOp::Add, t, t, one);
        s2.put_field(s2.arg(0), fv, t);
        s2.ret(None);
        s2.finish(&mut pb);
        let mut s1 = pb.method("C.outer", 1);
        s1.set_synchronized();
        s1.call(None, inner, &[s1.arg(0)]);
        s1.ret(None);
        let outer = s1.finish(&mut pb);

        let mut m = pb.method("main", 0);
        let o = m.reg();
        m.new_obj(o, c);
        let i = m.imm(0);
        let n = m.imm(500);
        let one = m.imm(1);
        let head = m.new_label();
        let exit = m.new_label();
        m.bind(head);
        m.branch(CmpOp::Ge, i, n, exit);
        m.call(None, outer, &[o]);
        m.bin(BinOp::Add, i, i, one);
        m.jump(head);
        m.bind(exit);
        let out = m.reg();
        m.get_field(out, o, fv);
        m.checksum(out);
        m.ret(Some(out));
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);
        for ccfg in CompilerConfig::paper_configs() {
            let (icks, iret, mcks, mret, _) = run_both(&p, &ccfg, HwConfig::baseline());
            assert_eq!(icks, mcks, "config {}", ccfg.name);
            assert_eq!(iret, mret, "config {}", ccfg.name);
        }
    }

    #[test]
    fn all_paper_configs_match_interpreter() {
        let p = add_element_program(2500, 300);
        for ccfg in CompilerConfig::paper_configs() {
            let (icks, iret, mcks, mret, _) = run_both(&p, &ccfg, HwConfig::baseline());
            assert_eq!(icks, mcks, "config {}", ccfg.name);
            assert_eq!(iret, mret, "config {}", ccfg.name);
        }
    }

    #[test]
    fn hw_sensitivity_configs_run() {
        let p = add_element_program(1500, 1 << 20);
        for hw in [
            HwConfig::baseline(),
            HwConfig::with_begin_overhead(),
            HwConfig::single_inflight(),
            HwConfig::two_wide(),
            HwConfig::two_wide_half(),
        ] {
            let name = hw.name;
            let (icks, _, mcks, _, _) = run_both(&p, &CompilerConfig::atomic(), hw);
            assert_eq!(icks, mcks, "hw config {name}");
        }
    }

    #[test]
    fn begin_overhead_costs_cycles() {
        let p = add_element_program(2000, 1 << 20);
        let (_, _, _, _, fast) = run_both(&p, &CompilerConfig::atomic(), HwConfig::baseline());
        let (_, _, _, _, slow) = run_both(
            &p,
            &CompilerConfig::atomic(),
            HwConfig::with_begin_overhead(),
        );
        assert!(
            slow.cycles > fast.cycles,
            "{} vs {}",
            slow.cycles,
            fast.cycles
        );
        let (_, _, _, _, single) =
            run_both(&p, &CompilerConfig::atomic(), HwConfig::single_inflight());
        assert!(
            single.cycles > fast.cycles,
            "{} vs {}",
            single.cycles,
            fast.cycles
        );
    }

    #[test]
    fn markers_snapshot_uops_and_cycles() {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.method("main", 0);
        m.marker(1);
        let i = m.imm(0);
        let n = m.imm(100);
        let one = m.imm(1);
        let head = m.new_label();
        let exit = m.new_label();
        m.bind(head);
        m.branch(CmpOp::Ge, i, n, exit);
        m.bin(BinOp::Add, i, i, one);
        m.jump(head);
        m.bind(exit);
        m.marker(2);
        m.checksum(i);
        m.ret(None);
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);
        let (_, _, _, _, stats) = run_both(&p, &CompilerConfig::no_atomic(), HwConfig::baseline());
        assert_eq!(stats.markers.len(), 2);
        assert_eq!(stats.markers[0].id, 1);
        assert_eq!(stats.markers[1].id, 2);
        assert!(stats.markers[1].uops > stats.markers[0].uops + 100);
        assert!(stats.markers[1].cycles > stats.markers[0].cycles);
    }

    #[test]
    fn sle_reduces_uops_on_lock_heavy_code() {
        let p = add_element_program(3000, 1 << 20);
        let mut no_sle = CompilerConfig::atomic();
        no_sle.sle = false;
        let (_, _, cks_sle, _, with) =
            run_both(&p, &CompilerConfig::atomic(), HwConfig::baseline());
        let (_, _, cks_nosle, _, without) = run_both(&p, &no_sle, HwConfig::baseline());
        assert_eq!(cks_sle, cks_nosle);
        assert!(
            with.uops <= without.uops,
            "SLE must not add uops: {} vs {}",
            with.uops,
            without.uops
        );
    }
}

#[cfg(test)]
mod unit_tests {
    //! Focused machine-internals tests (the broader pipeline tests live in
    //! `tests` above).
    use super::*;
    use hasp_ir::{Func, Inst, Op, RegionInfo, Term};
    use hasp_vm::builder::ProgramBuilder;
    use hasp_vm::bytecode::{BinOp, CmpOp};

    /// Builds a single-method program and matching code cache by hand.
    fn install(f: &Func) -> (Program, CodeCache) {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.method("main", 0);
        m.ret(None);
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);
        let mut cc = CodeCache::new();
        cc.install(entry, crate::lower::lower(f));
        (p, cc)
    }

    #[test]
    fn call_overhead_is_accounted() {
        // A method calling a leaf twice: uop count must exceed the static
        // instruction count by the linkage overhead.
        let mut pb = ProgramBuilder::new();
        let mut leaf = pb.method("leaf", 1);
        leaf.ret(Some(leaf.arg(0)));
        let leaf_id = leaf.finish(&mut pb);
        let mut m = pb.method("main", 0);
        let x = m.imm(3);
        let r = m.reg();
        m.call(Some(r), leaf_id, &[x]);
        m.call(Some(r), leaf_id, &[x]);
        m.ret(Some(r));
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);
        let prof = hasp_vm::profile::Profile::new();
        let mut cc = CodeCache::new();
        for mid in p.method_ids() {
            let f = hasp_ir::translate(&p, mid, prof.method(mid));
            cc.install(mid, crate::lower::lower(&f));
        }
        let mut mach = Machine::new(&p, &cc, HwConfig::baseline());
        mach.run(&[]).unwrap();
        // Static uops on the execution path ≈ 1 const + 2 calls + 2 rets +
        // main ret = 6; overhead adds (args+2) per call and 2 per ret.
        let s = mach.stats();
        assert!(
            s.uops >= 6 + 2 * 3 + 3 * 2,
            "linkage uops must be charged: {}",
            s.uops
        );
    }

    #[test]
    fn region_stats_track_commits_sizes_and_footprints() {
        // One region around a couple of memory ops.
        let mut pb = ProgramBuilder::new();
        let cls = pb.add_class("C", None, &["f"]);
        let fld = pb.field(cls, "f");
        let mut m = pb.method("main", 0);
        let o = m.reg();
        m.new_obj(o, cls);
        let v = m.imm(7);
        m.put_field(o, fld, v);
        m.ret(None);
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);

        // Hand-build IR with a region wrapping the store.
        let mut f = hasp_ir::translate(&p, entry, None);
        // Find the block with the store and wrap the whole body.
        let body_blocks = f.block_ids();
        let abort = f.add_block(Term::Return(None));
        let target = body_blocks[0];
        let begin = f.add_block(Term::Jump(target));
        let r = f.new_region(RegionInfo {
            begin,
            abort_target: abort,
            size_estimate: 8,
        });
        f.block_mut(begin).term = Term::RegionBegin {
            region: r,
            body: target,
            abort,
        };
        for b in body_blocks {
            f.block_mut(b).region = Some(r);
            if matches!(f.block(b).term, Term::Return(_)) {
                f.block_mut(b).insts.push(Inst::effect(Op::RegionEnd(r)));
            }
        }
        f.entry = begin;
        hasp_ir::verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));

        let mut cc = CodeCache::new();
        cc.install(entry, crate::lower::lower(&f));
        let mut mach = Machine::new(&p, &cc, HwConfig::baseline());
        mach.run(&[]).unwrap();
        let s = mach.stats();
        assert_eq!(s.commits, 1);
        assert_eq!(s.region_sizes.n, 1);
        assert!(s.region_sizes.sum > 0);
        assert_eq!(s.region_footprint.n, 1);
        assert!(s.region_footprint.sum >= 1, "the store touched a line");
        assert_eq!(s.per_region.len(), 1);
        assert!(s.coverage() > 0.5);
    }

    #[test]
    fn single_inflight_charges_back_to_back_regions() {
        // Two immediately-consecutive regions: the second begin stalls.
        let mut f = Func::new("m", hasp_vm::bytecode::MethodId(0), 0);
        let v = f.vreg();
        let exit = f.add_block(Term::Return(None));
        let abort2 = f.add_block(Term::Jump(exit));
        let body2 = f.add_block(Term::Jump(exit));
        let begin2 = f.add_block(Term::Jump(exit));
        let abort1 = f.add_block(Term::Jump(begin2));
        let body1 = f.add_block(Term::Jump(begin2));
        let r1 = f.new_region(RegionInfo {
            begin: f.entry,
            abort_target: abort1,
            size_estimate: 2,
        });
        let r2 = f.new_region(RegionInfo {
            begin: begin2,
            abort_target: abort2,
            size_estimate: 2,
        });
        f.block_mut(f.entry).term = Term::RegionBegin {
            region: r1,
            body: body1,
            abort: abort1,
        };
        f.block_mut(begin2).term = Term::RegionBegin {
            region: r2,
            body: body2,
            abort: abort2,
        };
        for (b, r) in [(body1, r1), (body2, r2)] {
            f.block_mut(b).region = Some(r);
            f.block_mut(b).insts.push(Inst::with_dst(v, Op::Const(1)));
            f.block_mut(b).insts.push(Inst::effect(Op::RegionEnd(r)));
        }
        // body1 defines v; body2 redefines — fix SSA by using a fresh value.
        let v2 = f.vreg();
        f.block_mut(body2).insts[0] = Inst::with_dst(v2, Op::Const(2));
        hasp_ir::verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));

        let (p, cc) = install(&f);
        let mut fast = Machine::new(&p, &cc, HwConfig::baseline());
        fast.run(&[]).unwrap();
        let mut slow = Machine::new(&p, &cc, HwConfig::single_inflight());
        slow.run(&[]).unwrap();
        assert!(
            slow.cycles() > fast.cycles(),
            "single-inflight must stall the second begin: {} vs {}",
            slow.cycles(),
            fast.cycles()
        );
        assert_eq!(slow.stats().commits, 2);
    }

    #[test]
    fn alu_and_branch_semantics_match_interpreter_ops() {
        // Spot-check encode/decode through the machine: ref equality and
        // int ordering behave like the interpreter.
        let mut pb = ProgramBuilder::new();
        let cls = pb.add_class("C", None, &[]);
        let mut m = pb.method("main", 0);
        let a = m.reg();
        m.new_obj(a, cls);
        let b = m.reg();
        m.new_obj(b, cls);
        let same = m.new_label();
        let done = m.new_label();
        let flag = m.imm(0);
        m.branch(CmpOp::Eq, a, a, same);
        m.jump(done);
        m.bind(same);
        let one = m.imm(1);
        m.bin(BinOp::Add, flag, flag, one);
        // b != a:
        let not_taken = m.new_label();
        m.branch(CmpOp::Eq, a, b, not_taken);
        m.jump(done);
        m.bind(not_taken);
        let k100 = m.imm(100);
        m.bin(BinOp::Add, flag, flag, k100);
        m.jump(done);
        m.bind(done);
        m.checksum(flag);
        m.ret(Some(flag));
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);

        let mut interp = Interp_::new(&p);
        let iref = interp.run(&[]).unwrap();

        let prof = hasp_vm::profile::Profile::new();
        let mut cc = CodeCache::new();
        for mid in p.method_ids() {
            let f = hasp_ir::translate(&p, mid, prof.method(mid));
            cc.install(mid, crate::lower::lower(&f));
        }
        let mut mach = Machine::new(&p, &cc, HwConfig::baseline());
        let mref = mach.run(&[]).unwrap();
        assert_eq!(iref, mref);
        assert_eq!(interp.env.checksum(), mach.env.checksum());
        assert_eq!(mref, Some(Value::Int(1)), "a==a taken, a==b not taken");
    }

    use hasp_vm::interp::Interp as Interp_;
}

#[cfg(test)]
mod fault_tests {
    //! The abort-path contract, checked per cause: every injected abort kind
    //! must (a) stay architecturally transparent and (b) pass the invariant
    //! validator, and hardware misuse must surface as a structured
    //! [`MachineFault`] instead of a panic.
    use super::tests::{add_element_program, run_both};
    use super::*;
    use crate::fault::FaultPlan;
    use hasp_opt::CompilerConfig;
    use hasp_vm::builder::ProgramBuilder;
    use hasp_vm::bytecode::{BinOp, CmpOp};

    /// Installs a hand-written uop stream as the entry method.
    fn install_uops(uops: Vec<Uop>, regs: u32) -> (Program, CodeCache) {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.method("main", 0);
        m.ret(None);
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);
        let mut cc = CodeCache::new();
        cc.install(
            entry,
            CompiledCode {
                name: "main".into(),
                uops,
                regs,
                assert_origins: Vec::new(),
                region_count: 1,
                region_boundaries: Vec::new(),
                blocks: Vec::new(),
                region_writes: Default::default(),
            },
        );
        (p, cc)
    }

    /// Runs `add_element` under `plan` with the validator on; asserts
    /// transparency and that at least `min` aborts of `reason` validated.
    fn assert_validated_aborts(plan: FaultPlan, reason: AbortReason, min: u64) -> RunStats {
        let p = add_element_program(2000, 1 << 20);
        let mut hw = HwConfig::baseline();
        hw.faults = plan;
        hw.validate = true;
        let (icks, iret, mcks, mret, stats) = run_both(&p, &CompilerConfig::atomic(), hw);
        assert_eq!(icks, mcks, "{reason:?} aborts must be transparent");
        assert_eq!(iret, mret);
        assert!(
            stats.aborts.get(reason) >= min,
            "expected ≥{min} {reason:?} aborts: {:?}",
            stats.aborts
        );
        assert!(
            stats.validations >= stats.commits + stats.total_aborts(),
            "every commit and abort must validate: {} < {} + {}",
            stats.validations,
            stats.commits,
            stats.total_aborts()
        );
        stats
    }

    #[test]
    fn validator_passes_conflict_aborts() {
        assert_validated_aborts(FaultPlan::conflicts(500), AbortReason::Conflict, 1);
    }

    #[test]
    fn validator_passes_interrupt_aborts() {
        assert_validated_aborts(FaultPlan::interrupts(10_000), AbortReason::Interrupt, 1);
    }

    #[test]
    fn validator_passes_spurious_aborts() {
        assert_validated_aborts(FaultPlan::spurious(500), AbortReason::Spurious, 1);
    }

    #[test]
    fn validator_passes_overflow_aborts_from_line_budget() {
        // A 2-line speculative budget is below any real region footprint
        // here, so regions overflow immediately and fall back.
        assert_validated_aborts(FaultPlan::overflow_budget(2), AbortReason::Overflow, 1);
    }

    #[test]
    fn validator_passes_targeted_entry_abort() {
        let stats = assert_validated_aborts(FaultPlan::abort_at(5), AbortReason::Spurious, 1);
        assert_eq!(
            stats.aborts.get(AbortReason::Spurious),
            1,
            "exactly the 5th entry aborts"
        );
    }

    #[test]
    fn validator_passes_explicit_aborts() {
        // chunk < n: the wraparound assert fires (Explicit aborts) with the
        // validator on.
        let p = add_element_program(20_000, 500);
        let mut hw = HwConfig::baseline();
        hw.validate = true;
        let (icks, _, mcks, _, stats) = run_both(&p, &CompilerConfig::atomic(), hw);
        assert_eq!(icks, mcks);
        assert!(
            stats.aborts.get(AbortReason::Explicit) > 0,
            "{:?}",
            stats.aborts
        );
        assert!(stats.validations >= stats.commits + stats.total_aborts());
    }

    #[test]
    fn validator_passes_sle_abort() {
        // Raw stream: an SLE lock-word assert (`aregion_abort` with the
        // reserved id) fires inside the region; alt path returns 7.
        let (p, cc) = install_uops(
            vec![
                Uop::RegionBegin { region: 0, alt: 3 },
                Uop::Abort {
                    assert_id: u32::MAX,
                },
                Uop::RegionEnd { region: 0 },
                Uop::Const {
                    dst: MReg(0),
                    imm: 7,
                },
                Uop::Ret { src: Some(MReg(0)) },
            ],
            1,
        );
        let mut hw = HwConfig::baseline();
        hw.validate = true;
        let mut mach = Machine::new(&p, &cc, hw);
        let out = mach.run(&[]).expect("sle abort is recoverable");
        assert_eq!(out, Some(Value::Int(7)));
        assert_eq!(mach.stats().aborts.get(AbortReason::Sle), 1);
        assert!(mach.stats().validations >= 1);
    }

    #[test]
    fn validator_passes_exception_abort() {
        // Raw stream: a failing CheckDiv inside the region is an exception
        // abort (a trap outside); alt path returns 42.
        let (p, cc) = install_uops(
            vec![
                Uop::Const {
                    dst: MReg(0),
                    imm: 0,
                },
                Uop::RegionBegin { region: 0, alt: 4 },
                Uop::CheckDiv { v: MReg(0) },
                Uop::RegionEnd { region: 0 },
                Uop::Const {
                    dst: MReg(0),
                    imm: 42,
                },
                Uop::Ret { src: Some(MReg(0)) },
            ],
            1,
        );
        let mut hw = HwConfig::baseline();
        hw.validate = true;
        let mut mach = Machine::new(&p, &cc, hw);
        let out = mach.run(&[]).expect("exception abort is recoverable");
        assert_eq!(out, Some(Value::Int(42)));
        assert_eq!(mach.stats().aborts.get(AbortReason::Exception), 1);
        assert!(mach.stats().validations >= 1);
    }

    /// `[Poll, CheckNull, Poll]` inside a region: the check traps between
    /// the two polls, so the superblock engine leaves the block mid-way
    /// through an exception abort to the alt path, with one access retired
    /// and one never reached.
    fn mid_block_trap_stream() -> (Program, CodeCache) {
        install_uops(
            vec![
                Uop::RegionBegin { region: 0, alt: 8 },
                Uop::ConstNull { dst: MReg(0) },
                Uop::Poll,
                Uop::CheckNull { v: MReg(0) },
                Uop::Poll,
                Uop::RegionEnd { region: 0 },
                Uop::Const {
                    dst: MReg(1),
                    imm: 1,
                },
                Uop::Ret { src: Some(MReg(1)) },
                Uop::Const {
                    dst: MReg(1),
                    imm: 7,
                },
                Uop::Ret { src: Some(MReg(1)) },
            ],
            2,
        )
    }

    #[test]
    fn mid_block_trap_between_polls_matches_the_per_uop_reference() {
        let mut runs = Vec::new();
        for hw in [HwConfig::baseline(), HwConfig::per_uop()] {
            let (p, cc) = mid_block_trap_stream();
            let mut mach = Machine::new(&p, &cc, hw);
            let out = mach.run(&[]).expect("exception abort is recoverable");
            assert_eq!(out, Some(Value::Int(7)), "trap redirects to alt path");
            assert_eq!(mach.stats().aborts.get(AbortReason::Exception), 1);
            // Only the first poll retired before the trap (a cold miss).
            assert_eq!(mach.stats().mem_accesses, 1);
            assert_eq!(mach.stats().l1_hits, 0);
            runs.push(mach.stats().clone());
        }
        assert_eq!(runs[0], runs[1], "superblock == per-uop reference");
    }

    #[test]
    fn hardware_misuse_is_a_structured_fault() {
        type FaultCheck = fn(&MachineFault) -> bool;
        let cases: Vec<(Vec<Uop>, FaultCheck)> = vec![
            (
                vec![Uop::Abort { assert_id: 0 }, Uop::Ret { src: None }],
                |e| matches!(e, MachineFault::AbortOutsideRegion { pc: 0, .. }),
            ),
            (
                vec![Uop::RegionEnd { region: 0 }, Uop::Ret { src: None }],
                |e| matches!(e, MachineFault::EndOutsideRegion { pc: 0, .. }),
            ),
            (
                vec![
                    Uop::RegionBegin { region: 0, alt: 3 },
                    Uop::RegionBegin { region: 1, alt: 3 },
                    Uop::RegionEnd { region: 0 },
                    Uop::Ret { src: None },
                ],
                |e| matches!(e, MachineFault::NestedRegion { pc: 1, .. }),
            ),
        ];
        for (uops, check) in cases {
            let (p, cc) = install_uops(uops, 1);
            let mut mach = Machine::new(&p, &cc, HwConfig::baseline());
            let err = mach.run(&[]).unwrap_err();
            assert!(check(&err), "unexpected fault: {err}");
        }
    }

    /// An always-aborting region in a counted loop: the governor must
    /// de-speculate it and convert most entries into direct alt-path runs.
    fn always_abort_loop(n: i64) -> (Program, CodeCache) {
        install_uops(
            vec![
                Uop::Const {
                    dst: MReg(0),
                    imm: 0,
                },
                Uop::Const {
                    dst: MReg(1),
                    imm: n,
                },
                Uop::Const {
                    dst: MReg(2),
                    imm: 1,
                },
                Uop::Br {
                    op: CmpOp::Ge,
                    a: MReg(0),
                    b: MReg(1),
                    target: 8,
                },
                Uop::RegionBegin { region: 0, alt: 6 },
                Uop::Abort { assert_id: 0 },
                Uop::Alu {
                    op: BinOp::Add,
                    dst: MReg(0),
                    a: MReg(0),
                    b: MReg(2),
                },
                Uop::Jmp { target: 3 },
                Uop::Ret { src: Some(MReg(0)) },
            ],
            3,
        )
    }

    #[test]
    fn governor_despeculates_sustained_abort_region() {
        let (p, cc) = always_abort_loop(1000);
        // Off: every entry aborts.
        let mut mach = Machine::new(&p, &cc, HwConfig::baseline());
        let out = mach.run(&[]).expect("run");
        assert_eq!(out, Some(Value::Int(1000)));
        assert_eq!(mach.stats().total_aborts(), 1000);

        // On: streaks of `retry_budget` aborts, then exponentially growing
        // skip windows; the alt path still runs every iteration.
        let mut hw = HwConfig::baseline();
        hw.validate = true;
        hw.governor = GovernorConfig {
            retry_budget: 3,
            cooldown_entries: 4,
            max_cooldown: 64,
            ..GovernorConfig::online()
        };
        let mut mach = Machine::new(&p, &cc, hw);
        let out = mach.run(&[]).expect("run");
        assert_eq!(out, Some(Value::Int(1000)), "semantics preserved");
        let s = mach.stats();
        assert!(
            s.governor_disables >= 2,
            "sustained aborts must trip the budget repeatedly: {s:?}"
        );
        assert!(
            s.governor_skips > 800,
            "backoff must absorb most entries: {} skips",
            s.governor_skips
        );
        assert!(
            s.total_aborts() < 100,
            "de-speculation must suppress aborts: {}",
            s.total_aborts()
        );
        let region = s.per_region.values().next().expect("one region");
        assert_eq!(region.gov_skips, s.governor_skips);
    }

    #[test]
    fn governor_reenables_and_cooldown_decays_on_commit() {
        // A region that aborts only while i < 32 and commits afterwards:
        // the governor de-speculates during the abort phase, re-enables, and
        // commits thereafter reset the streak (cooldown decays toward base).
        let (p, cc) = install_uops(
            vec![
                Uop::Const {
                    dst: MReg(0),
                    imm: 0,
                },
                Uop::Const {
                    dst: MReg(1),
                    imm: 400,
                },
                Uop::Const {
                    dst: MReg(2),
                    imm: 1,
                },
                Uop::Const {
                    dst: MReg(3),
                    imm: 32,
                },
                // loop head
                Uop::Br {
                    op: CmpOp::Ge,
                    a: MReg(0),
                    b: MReg(1),
                    target: 12,
                },
                Uop::RegionBegin { region: 0, alt: 10 },
                // abort while i < 32
                Uop::Br {
                    op: CmpOp::Lt,
                    a: MReg(0),
                    b: MReg(3),
                    target: 8,
                },
                Uop::Jmp { target: 9 },
                Uop::Abort { assert_id: 0 },
                Uop::RegionEnd { region: 0 },
                // alt / join: i += 1
                Uop::Alu {
                    op: BinOp::Add,
                    dst: MReg(0),
                    a: MReg(0),
                    b: MReg(2),
                },
                Uop::Jmp { target: 4 },
                Uop::Ret { src: Some(MReg(0)) },
            ],
            4,
        );
        let mut hw = HwConfig::baseline();
        hw.validate = true;
        // Pin the tier-1 (backoff-only) policy: this test is specifically
        // about reenable + cooldown decay, which the ladder's tier-3
        // permanence would otherwise mask.
        hw.governor = GovernorConfig {
            retry_budget: 2,
            cooldown_entries: 4,
            max_cooldown: 16,
            ..GovernorConfig::backoff_only()
        };
        let mut mach = Machine::new(&p, &cc, hw);
        let out = mach.run(&[]).expect("run");
        assert_eq!(out, Some(Value::Int(400)));
        let s = mach.stats();
        assert!(s.governor_disables >= 1, "{s:?}");
        assert!(s.governor_reenables >= 1, "{s:?}");
        assert!(
            s.commits > 300,
            "post-phase entries must speculate again: {} commits",
            s.commits
        );
    }

    /// One always-aborting region driven through the complete tier ladder:
    /// tracked (0) → backoff (1) → fallback-lock subscription (2) →
    /// permanent software path (3), with a re-formation request emitted on
    /// the sustained `Explicit` streak — all while the alt path preserves
    /// semantics and the tier accounting stays balanced under the
    /// validator.
    #[test]
    fn ladder_escalates_through_every_tier() {
        let (p, cc) = always_abort_loop(1500);
        let mut hw = HwConfig::baseline();
        hw.validate = true;
        hw.governor = GovernorConfig {
            retry_budget: 2,
            cooldown_entries: 2,
            max_cooldown: 8,
            ..GovernorConfig::online()
        };
        let mut mach = Machine::new(&p, &cc, hw);
        let out = mach.run(&[]).expect("run");
        assert_eq!(out, Some(Value::Int(1500)), "semantics preserved");
        let reqs = mach.take_reform_requests();
        let s = mach.stats();
        // Every tier was entered, non-vacuously.
        for t in 0..4 {
            assert!(s.tier_enters[t] > 0, "tier {t} never entered: {s:?}");
            assert!(s.tier_time[t] > 0, "no time spent at tier {t}: {s:?}");
        }
        // The region ends pinned at tier 3 (permanent), and is the only
        // live tracked region.
        assert_eq!(s.tier_live, [0, 0, 0, 1], "{s:?}");
        assert!(s.tier_counters_consistent(), "{s:?}");
        let region = s.per_region.values().next().expect("one region");
        assert_eq!(region.tier, 3);
        // Tier 2 actually engaged the hybrid-TM protocol: speculative
        // entries subscribed the fallback lock, software-path entries
        // took it.
        assert!(s.lock_subscriptions > 0, "{s:?}");
        assert!(s.lock_holds > 0, "{s:?}");
        // The sustained Explicit streak produced exactly one re-formation
        // request; the hand-built stream has no boundary map.
        assert_eq!(s.reform_requests, 1);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].reason, AbortReason::Explicit);
        assert_eq!(reqs[0].boundary, u32::MAX);
        // Tier 3 converts the tail of the run into software-path entries.
        assert!(s.governor_skips > 1000, "{s:?}");
    }

    /// With an external software-path writer holding the fallback lock, a
    /// tier-2 region's subscription read sees the lock held and aborts
    /// (`Sle`) instead of speculating against the lock holder.
    #[test]
    fn tier2_subscription_aborts_while_fallback_lock_held() {
        let (p, cc) = always_abort_loop(600);
        let mut hw = HwConfig::baseline();
        hw.validate = true;
        // Stop the ladder at tier 2 so speculative retries keep happening
        // (tier 3 would stop attempting speculation altogether).
        hw.governor = GovernorConfig {
            retry_budget: 2,
            cooldown_entries: 2,
            max_cooldown: 8,
            ..GovernorConfig::to_tier2()
        };
        let mut mach = Machine::new(&p, &cc, hw);
        mach.set_fallback_lock(true);
        let out = mach.run(&[]).expect("run");
        assert_eq!(out, Some(Value::Int(600)), "semantics preserved");
        let s = mach.stats();
        assert!(
            s.lock_held_aborts > 0,
            "tier-2 entries must abort on the held lock: {s:?}"
        );
        assert!(s.aborts.get(AbortReason::Sle) >= s.lock_held_aborts);
        assert!(s.tier_counters_consistent(), "{s:?}");
        assert!(mach.fallback_lock_held());
    }

    /// The ladder behaves identically under both dispatch engines: a
    /// governed always-aborting region produces bit-identical statistics
    /// whether dispatched per-uop or through sealed superblocks.
    #[test]
    fn ladder_matches_across_dispatch_engines() {
        let policy = GovernorConfig {
            retry_budget: 2,
            cooldown_entries: 2,
            max_cooldown: 8,
            ..GovernorConfig::online()
        };
        let mut runs = Vec::new();
        for mut hw in [HwConfig::baseline(), HwConfig::per_uop()] {
            hw.governor = policy.clone();
            let (p, cc) = always_abort_loop(800);
            let mut mach = Machine::new(&p, &cc, hw);
            let out = mach.run(&[]).expect("run");
            assert_eq!(out, Some(Value::Int(800)));
            runs.push(mach.stats().clone());
        }
        let diff = runs[0].diff(&runs[1]);
        assert!(diff.is_empty(), "engines diverged: {diff:?}");
    }

    #[test]
    fn committed_region_end_falls_through_to_join() {
        // Sanity for the two-phase program above: a committed region's end
        // falls through to the shared join block.
        let (p, cc) = install_uops(
            vec![
                Uop::RegionBegin { region: 0, alt: 2 },
                Uop::RegionEnd { region: 0 },
                Uop::Const {
                    dst: MReg(0),
                    imm: 9,
                },
                Uop::Ret { src: Some(MReg(0)) },
            ],
            1,
        );
        let mut hw = HwConfig::baseline();
        hw.validate = true;
        let mut mach = Machine::new(&p, &cc, hw);
        let out = mach.run(&[]).expect("run");
        assert_eq!(out, Some(Value::Int(9)));
        assert_eq!(mach.stats().commits, 1);
        assert!(mach.stats().validations >= 1);
    }

    #[test]
    fn deterministic_injection_is_reproducible() {
        let p = add_element_program(2000, 1 << 20);
        let mut hw = HwConfig::baseline();
        hw.faults = FaultPlan::conflicts(800);
        let (_, _, cks_a, _, stats_a) = run_both(&p, &CompilerConfig::atomic(), hw.clone());
        let (_, _, cks_b, _, stats_b) = run_both(&p, &CompilerConfig::atomic(), hw);
        assert_eq!(cks_a, cks_b);
        assert_eq!(stats_a.aborts.total(), stats_b.aborts.total());
        assert_eq!(stats_a.cycles, stats_b.cycles);
    }

    /// Compiles `add_element_program` under the atomic config and installs
    /// it — the shared fixture for the pooled-machine/reset tests.
    fn compiled_add_element(n: i64, chunk: i64) -> (Program, CodeCache) {
        use hasp_opt::compile_program;
        use hasp_vm::interp::Interp;
        let p = add_element_program(n, chunk);
        let mut interp = Interp::new(&p).with_profiling();
        interp.run(&[]).expect("interp");
        let compiled = compile_program(&p, &interp.profile, &CompilerConfig::atomic());
        let mut cc = CodeCache::new();
        for (m, c) in &compiled {
            cc.install(*m, crate::lower::lower(&c.func));
        }
        (p, cc)
    }

    #[test]
    fn reset_for_request_is_bit_identical_to_a_fresh_machine() {
        let (p, cc) = compiled_add_element(3000, 500);
        let hw = HwConfig::baseline();
        // Reference: a fresh machine per run.
        let mut fresh = Machine::new(&p, &cc, hw.clone());
        fresh.run(&[]).expect("fresh run");
        let fresh_cks = fresh.env.checksum();
        let fresh_stats = fresh.stats().clone();
        assert!(fresh_stats.total_aborts() > 0, "fixture must abort");

        // A recycled machine: dirty from a full prior request (committed
        // regions, aborts, warmed caches and predictors), then reset.
        let mut mach = Machine::new(&p, &cc, hw);
        mach.run(&[]).expect("first request");
        mach.reset_for_request();
        assert_eq!(mach.cross_request_state(), None);
        mach.run(&[]).expect("second request");
        assert_eq!(mach.env.checksum(), fresh_cks);
        assert_eq!(
            mach.stats(),
            &fresh_stats,
            "a reset machine must be indistinguishable from a fresh one: {:?}",
            fresh_stats.diff(mach.stats())
        );
    }

    #[test]
    fn reset_for_request_clears_a_mid_region_interrupted_run() {
        let (p, cc) = compiled_add_element(3000, 1 << 20);
        let hw = HwConfig::baseline();
        let mut fresh = Machine::new(&p, &cc, hw.clone());
        fresh.run(&[]).expect("fresh run");
        let fresh_cks = fresh.env.checksum();
        let fresh_stats = fresh.stats().clone();

        // Cut a run down mid-flight by exhausting fuel: frames are live and
        // (with the hot loop fully encapsulated) a region is typically in
        // flight — the dirtiest state a worker can hand back.
        let mut mach = Machine::new(&p, &cc, hw);
        mach.set_fuel(fresh_stats.uops / 2);
        let out = mach.run(&[]);
        assert!(out.is_err(), "truncated run must fault on fuel");
        assert_ne!(mach.cross_request_state(), None, "dirty state expected");
        mach.reset_for_request();
        assert_eq!(mach.cross_request_state(), None);
        mach.run(&[]).expect("post-reset request");
        assert_eq!(mach.env.checksum(), fresh_cks);
        assert_eq!(
            mach.stats(),
            &fresh_stats,
            "{:?}",
            fresh_stats.diff(mach.stats())
        );
    }

    #[test]
    fn pooled_machine_matches_fresh_machine_bit_for_bit() {
        let (p, cc) = compiled_add_element(3000, 500);
        let hw = HwConfig::baseline();
        let mut fresh = Machine::new(&p, &cc, hw.clone());
        fresh.run(&[]).expect("fresh run");
        // Retire a dirty machine into pools (mid-flight, to exercise the
        // transient-state recycling), then build a pooled successor.
        let mut donor = Machine::new(&p, &cc, hw.clone());
        donor.set_fuel(fresh.stats().uops / 3);
        let _ = donor.run(&[]);
        let pools = donor.into_pools();
        let mut pooled = Machine::with_pools(&p, &cc, hw, pools);
        assert_eq!(pooled.cross_request_state(), None);
        pooled.run(&[]).expect("pooled run");
        assert_eq!(pooled.env.checksum(), fresh.env.checksum());
        assert_eq!(
            pooled.stats(),
            fresh.stats(),
            "{:?}",
            fresh.stats().diff(pooled.stats())
        );
    }
}
