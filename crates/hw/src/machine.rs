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

use hasp_vm::bytecode::{CmpOp, Intrinsic, MethodId, SlotId};
use hasp_vm::class::Program;
use hasp_vm::env::{Env, EnvSnapshot};
use hasp_vm::error::{Trap, VmError};
use hasp_vm::heap::{Heap, HeapCell, HeapMark};
use hasp_vm::value::{ObjId, Value};

use crate::bpred::Predictor;
use crate::cache::{CacheSim, HitLevel};
use crate::coherence::CoreLink;
use crate::config::{Dispatch, GovernorConfig, HwConfig, ReformRequest};
use crate::fault::MachineFault;
use crate::stats::{AbortReason, MarkerSnap, RunStats};
use crate::superblock::{SbInfo, SbTerm, YIELD_FLAG_ADDR};
use crate::uop::{CodeCache, CodePos, CompiledCode, MReg, Uop};
use hasp_vm::fxhash::FxHashMap;

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

/// Why [`Machine::run_interior`] stopped at a uop without retiring it;
/// [`Machine::bail`] finishes the stop for either engine.
enum Stop {
    /// A safety check failed: a trap outside a region, an exception abort
    /// inside one. Nothing was written.
    Trap(Trap),
    /// A memory operand holds no object (these raw bits): a hard error.
    /// Nothing was written.
    NotObj(i64),
    /// The region must abort for this reason: the memory access overflowed
    /// (geometric or past the injected line budget) or drained a coherence
    /// `Conflict`, and the cache already recorded it; or the region's
    /// scheduled injected abort fell on this uop, which is accounted but
    /// not executed.
    Abort(AbortReason),
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

/// `jmp_ind`'s target: the `table` entry the selector `v` names, or
/// `default` when `v` is out of range.
fn jump_target(v: i64, table: &[CodePos], default: CodePos) -> CodePos {
    usize::try_from(v)
        .ok()
        .and_then(|i| table.get(i).copied())
        .unwrap_or(default)
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

/// The one region context of a core (regions never nest). A begin resets
/// it in place, so its buffers are reused by every later region, and by
/// later machines through [`MachinePools`].
#[derive(Debug, Default)]
struct RegionCtx {
    /// A region is in flight; every other field is meaningful only then.
    active: bool,
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
    start_uops: u64,
    /// Independent copy of the *full* register file, captured only in
    /// validation mode so the post-abort validator can verify the sparse
    /// restoration without trusting the rollback path (or the write-set
    /// analysis) it is checking.
    shadow_regs: Vec<i64>,
    /// Validation mode's first-write shadow of the heap: each word's value
    /// before the region's first store to it, recorded in the store arms
    /// apart from the undo push, so the post-abort validator can check the
    /// rollback without trusting the log it is checking.
    shadow_stores: FxHashMap<HeapCell, i64>,
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
    /// Current ladder tier: 0, 1, or 3 (permanent). The ladder has no
    /// tier 2.
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
    region: RegionCtx,
    cache: CacheSim,
    pred: Predictor,
    stats: RunStats,
    /// Way-predicted L1 hits not yet in `stats` or the cache's
    /// `PredStats`: each is one access, one L1 hit, one predictor probe
    /// and one predictor hit, folded in once when [`Machine::exec`]
    /// returns.
    pred_hits: u64,
    /// Stall cycles × width: charges and miss latencies (integer
    /// arithmetic for determinism). Each retired uop's one slot is not
    /// here; [`Machine::cxw`] adds `stats.uops`.
    stall_cxw: u64,
    /// [`Machine::cxw`] at the last commit.
    last_commit_cxw: u64,
    fuel: u64,
    /// The fault RNG: a conflict/spurious draw is one LCG step per
    /// in-region uop, taken ahead of time up to the next hit.
    fault_rng: u64,
    /// The in-region uop ordinal (`stats.region_uops`) of the next
    /// conflict or spurious hit, and which one it is; ordinal 0 until the
    /// first entered region draws it. Read only when a rate is armed.
    draw_hit: (u64, AbortReason),
    /// The live region's next injected abort: the in-region uop ordinal it
    /// fires at (`u64::MAX` for none) and its reason, set at each entered
    /// `aregion_begin`. The fired uop is accounted but never executed.
    inject: (u64, AbortReason),
    /// Dynamic `aregion_begin` count (1-based), driving targeted injection.
    region_entries: u64,
    /// Online governor state per static region.
    gov: FxHashMap<(MethodId, u32), GovState>,
    /// Re-formation requests the governor has emitted and the harness has
    /// not yet drained ([`Machine::take_reform_requests`]).
    reform_requests: Vec<ReformRequest>,
    max_depth: usize,
    /// Retired register files, recycled across frame pushes so steady-state
    /// call linkage allocates nothing.
    reg_pool: Vec<Vec<i64>>,
    /// This core's attachment to a shared coherence directory, when the
    /// machine runs as one core of a multi-core fleet (DESIGN §17). `None`
    /// — the default — keeps every memory path bit-identical to the
    /// single-core machine.
    coh: Option<CoreLink>,
}

/// The lifetime-free pooled state of a retired [`Machine`]: every
/// steady-state allocation a machine accumulates (register files, the
/// region context's buffers, the cache arrays, predictor tables), detached
/// from the program/code borrows so a worker can carry it from request to
/// request and across published code-cache versions.
/// [`Machine::with_pools`] deterministically resets everything it recycles
/// — a pooled machine is bit-identical to a fresh one.
#[derive(Debug, Default)]
pub struct MachinePools {
    reg_pool: Vec<Vec<i64>>,
    region: RegionCtx,
    cache: Option<CacheSim>,
    pred: Option<Predictor>,
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
    /// built by [`Machine::new`] — the pools only save the allocations. This
    /// is the one reuse path: a serving worker builds each request's
    /// machine here and retires it with [`Machine::into_pools`], which is
    /// also what makes per-request results independent of which worker
    /// served them (the service harness's shard conservation check rests on
    /// it).
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
        let seed = cfg.faults.seed;
        let mach = Machine {
            program,
            code,
            cfg,
            heap: Heap::new(),
            env: Env::default(),
            frames: Vec::new(),
            region: pools.region,
            cache,
            pred,
            stats: RunStats::default(),
            pred_hits: 0,
            stall_cxw: 0,
            last_commit_cxw: 0,
            fuel: u64::MAX,
            fault_rng: seed | 1,
            draw_hit: (0, AbortReason::Conflict),
            inject: (u64::MAX, AbortReason::Interrupt),
            region_entries: 0,
            gov: FxHashMap::default(),
            reform_requests: Vec::new(),
            max_depth: 512,
            reg_pool: pools.reg_pool,
            coh: None,
        };
        debug_assert_eq!(
            mach.cross_request_state(),
            None,
            "with_pools left cross-request state behind"
        );
        mach
    }

    /// Retires the machine, returning its pooled allocations for the next
    /// [`Machine::with_pools`]. Live frames (a run cut short by fuel
    /// exhaustion or a fault) fold their register files back into the pool,
    /// and an in-flight region is dropped.
    pub fn into_pools(mut self) -> MachinePools {
        self.reg_pool.extend(self.frames.drain(..).map(|f| f.regs));
        self.region.active = false;
        MachinePools {
            reg_pool: self.reg_pool,
            region: self.region,
            cache: Some(self.cache),
            pred: Some(self.pred),
        }
    }

    /// The first piece of cross-request state still live on this machine,
    /// or `None` when a new request would observe a pristine machine. The
    /// isolation oracle behind [`Machine::with_pools`]'s debug assertion
    /// and the service harness's tests: speculative cache lines,
    /// a trained way predictor, governor ladder state, or any architectural
    /// residue here would leak one tenant's request into the next.
    pub fn cross_request_state(&self) -> Option<&'static str> {
        if self.region.active {
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
        if self.pred_hits != 0 {
            return Some("predicted hits not folded");
        }
        if self.stall_cxw != 0 || self.last_commit_cxw != 0 {
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
        self.cxw() / self.cfg.width
    }

    /// Cycles × width: one slot per retired uop plus the stalls.
    fn cxw(&self) -> u64 {
        self.stats.uops + self.stall_cxw
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
        self.push_frame(self.program.entry(), args)?;
        self.exec()
    }

    /// Pushes a run's entry frame; every other frame is pushed by
    /// [`Machine::call`].
    fn push_frame(&mut self, m: MethodId, args: &[Value]) -> Result<(), MachineFault> {
        let code = self.code.get(m).ok_or(MachineFault::MethodNotCompiled(m))?;
        let mut regs = self.reg_pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(code.regs as usize, 0);
        for (slot, v) in regs.iter_mut().zip(args) {
            *slot = v.encode();
        }
        self.frames.push(Frame {
            method: m,
            code,
            regs,
            pc: 0,
            ret_dst: None,
        });
        Ok(())
    }

    // The control-transfer uops, each defined once and called by both
    // engines (`step` and `exec_superblock`'s terminator arms). `branch`,
    // `indirect`, `call` and `ret` are `#[inline]`, not `#[inline(always)]`:
    // forcing them inline measured about 5% fewer simulated uops per second
    // on perfbench's `steady_sim` (2-core x86-64 host).

    /// A marker: architecturally inert and free, it snapshots the
    /// retired-uop and cycle counters.
    fn marker(&mut self, id: u32) {
        self.env.hit_marker(id);
        let snap = MarkerSnap {
            id,
            ordinal: self.env.marker_count(id),
            uops: self.stats.uops,
            cycles: self.cycles(),
        };
        self.stats.markers.push(snap);
    }

    /// A conditional branch at `pc`: evaluates `a op b` on the current
    /// frame, trains the branch predictor, charges a misprediction, and
    /// returns whether the branch is taken.
    #[inline]
    fn branch(&mut self, method: MethodId, pc: usize, op: CmpOp, a: MReg, b: MReg) -> bool {
        let regs = &self.frames.last().expect("frame").regs;
        let taken = op.eval_int(regs[a.0 as usize], regs[b.0 as usize]);
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
        taken
    }

    /// An indirect control transfer at `pc` (`jmp_ind`, or a virtual
    /// call's dispatch) to `target`: trains the indirect predictor and
    /// charges a misprediction.
    #[inline]
    fn indirect(&mut self, method: MethodId, pc: usize, target: u64) {
        self.stats.indirects += 1;
        if !self.pred.indirect(Self::pc_hash(method, pc), target) {
            self.stats.indirect_misses += 1;
            self.charge(self.cfg.mispredict_penalty);
        }
    }

    /// A virtual call's target at `pc`: the receiver's vtable `slot`,
    /// dispatched as an indirect branch. A null receiver traps.
    fn virtual_target(
        &mut self,
        method: MethodId,
        pc: usize,
        recv: MReg,
        slot: SlotId,
    ) -> Result<MethodId, MachineFault> {
        let o = self.obj(self.frames.last().expect("frame").regs[recv.0 as usize])?;
        let target = self.program.resolve_virtual(self.heap.class_of(o), slot);
        self.indirect(method, pc, u64::from(target.0));
        Ok(target)
    }

    /// Call linkage: charges the hidden linkage uops, then pushes a frame
    /// for `target` whose register file comes from the pool and starts with
    /// the receiver (for a virtual call) and the arguments, copied straight
    /// from the caller's registers. The caller resumes at `ret_pc`.
    #[inline]
    fn call(
        &mut self,
        target: MethodId,
        recv: Option<MReg>,
        args: &[MReg],
        dst: Option<MReg>,
        ret_pc: usize,
    ) -> Result<(), MachineFault> {
        debug_assert!(!self.region.active, "call inside atomic region");
        // Argument marshalling and prologue; a virtual call also passes its
        // receiver and loads the vtable.
        let linkage = if recv.is_some() { 4 } else { 2 };
        self.account_call_overhead(args.len() as u64 + linkage);
        if self.frames.len() >= self.max_depth {
            return Err(VmError::StackOverflow.into());
        }
        let code = self
            .code
            .get(target)
            .ok_or(MachineFault::MethodNotCompiled(target))?;
        // Register-file size comes from lowering metadata, so a recycled
        // buffer reaches its steady-state capacity after one use.
        let mut regs = self.reg_pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(code.regs as usize, 0);
        let caller = self.frames.last_mut().expect("frame");
        for (i, r) in recv.iter().chain(args).enumerate() {
            regs[i] = caller.regs[r.0 as usize];
        }
        caller.pc = ret_pc;
        self.frames.push(Frame {
            method: target,
            code,
            regs,
            pc: 0,
            ret_dst: dst,
        });
        Ok(())
    }

    /// Return linkage: charges the epilogue uops, pops the frame into the
    /// pool, and writes `src` into the caller's destination register —
    /// or, from the outermost frame, returns the program's result.
    #[inline]
    fn ret(&mut self, src: Option<MReg>) -> StepOut {
        // Frame teardown and return-address handling.
        self.account_call_overhead(2);
        debug_assert!(
            !self.region.active || self.region.frame_depth == self.frames.len(),
            "region must not span returns"
        );
        let frame = self.frames.pop().expect("frame");
        let v = src.map(|r| frame.regs[r.0 as usize]);
        self.reg_pool.push(frame.regs);
        let Some(caller) = self.frames.last_mut() else {
            return StepOut::Return(v.map(Value::decode));
        };
        if let Some(d) = frame.ret_dst {
            caller.regs[d.0 as usize] = v.unwrap_or(0);
        }
        StepOut::Redirect
    }

    fn charge(&mut self, cycles: u64) {
        self.stall_cxw += cycles * self.cfg.width;
    }

    /// Accounts the hidden uops of call/return linkage (argument
    /// marshalling, prologue/epilogue, vtable load). The abstract ISA's
    /// Call/Ret are single uops; real call linkage is not, and inlining's
    /// benefit depends on that cost.
    fn account_call_overhead(&mut self, uops: u64) {
        self.stats.uops += uops;
        if self.region.active {
            self.stats.region_uops += uops;
        }
    }

    fn pc_hash(m: MethodId, pc: usize) -> u64 {
        (u64::from(m.0) << 24) ^ pc as u64
    }

    /// A data access past the predicted head: the coherence hook, the
    /// way predictor when a link is attached, then the set scan, install
    /// and miss latency. The interior's `access!` tries the predictor
    /// first when no link is attached, and a predictor that missed there
    /// is not consulted again here. Runs over the machine's disjoint
    /// fields, so the interior can call it while holding the frame's
    /// register file borrowed. `budget` is the injected line budget inside
    /// a region and 0 outside. `Err` carries the reason the region must
    /// abort: `Overflow`, or the coherence conflict the core's link
    /// drained.
    // Out of line: the head in `access!` answers most accesses, and one
    // call here keeps every memory arm's inline code down to that head.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn mem_access_parts(
        cache: &mut CacheSim,
        stats: &mut RunStats,
        stall_cxw: &mut u64,
        pred_hits: &mut u64,
        coh: &mut Option<CoreLink>,
        in_region: bool,
        budget: u64,
        site: u32,
        addr: u64,
        write: bool,
    ) -> Result<(), AbortReason> {
        // The coherence hook (DESIGN §17, `CoreLink::access`): a colliding
        // remote op bails out before this access touches anything, so it
        // runs before the predictor too.
        if let Some(link) = coh.as_mut() {
            let line = cache.line_of(addr);
            if let Some(why) = link.access(cache, line, write, in_region) {
                return Err(why);
            }
            if cache.fast_hit(site, addr, write, in_region) {
                *pred_hits += 1;
                return Self::within_budget(cache, budget);
            }
        }
        stats.mem_accesses += 1;
        let (level, overflow) = cache.access_sited(site, addr, write, in_region);
        match level {
            HitLevel::L1 => stats.l1_hits += 1,
            HitLevel::L2 => {
                stats.l2_hits += 1;
                *stall_cxw += cache.l2_extra_cxw;
            }
            HitLevel::Memory => *stall_cxw += cache.mem_extra_cxw,
        }
        // Only a region marks speculative bits, so only a region can
        // overflow.
        debug_assert!(in_region || !overflow);
        if overflow {
            return Err(AbortReason::Overflow);
        }
        Self::within_budget(cache, budget)
    }

    /// The injected line budget models a smaller speculative cache: it
    /// tightens the geometric overflow, never loosens it. `budget` is 0
    /// (none) outside a region, where the footprint cannot grow.
    #[inline(always)]
    fn within_budget(cache: &CacheSim, budget: u64) -> Result<(), AbortReason> {
        if budget > 0 && cache.footprint() > budget {
            return Err(AbortReason::Overflow);
        }
        Ok(())
    }

    fn abort(&mut self, reason: AbortReason) -> Result<(), MachineFault> {
        if !self.region.active {
            let f = self.frames.last().expect("frame");
            return Err(MachineFault::AbortOutsideRegion {
                method: f.method,
                pc: f.pc,
            });
        }
        self.region.active = false;
        let r = &self.region;
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
        let (method, region) = (r.method, r.region);
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
        self.stats.per_region.counters_mut((method, region)).aborts += 1;
        if self.cfg.governor.enabled {
            // Evidence for abort-class-aware escalation: the region's
            // formation boundary (the stable cross-recompile identity the
            // harness excludes on re-formation).
            let boundary = code
                .region_boundaries
                .get(region as usize)
                .copied()
                .unwrap_or(u32::MAX);
            self.gov_on_abort(method, region, reason, boundary);
        }
        if self.cfg.validate {
            self.validate_arch_state(true)?;
        }
        self.charge(self.cfg.abort_penalty);
        Ok(())
    }

    /// A safety-check failure: an exception abort inside a region, a VM trap
    /// outside.
    fn trap_or_abort(&mut self, trap: Trap) -> Result<(), MachineFault> {
        if self.region.active {
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

    /// Finishes an interior [`Stop`] at uop `pc`, for either engine. The
    /// frame pc is made exact first: trap provenance and the abort path's
    /// misuse report read it.
    fn bail(&mut self, pc: usize, why: Stop) -> Result<(), MachineFault> {
        self.frames.last_mut().expect("frame").pc = pc;
        match why {
            Stop::Trap(trap) => self.trap_or_abort(trap),
            Stop::NotObj(bits) => Err(self
                .obj(bits)
                .expect_err("a stopped operand holds no object")
                .into()),
            Stop::Abort(reason) => self.abort(reason),
        }
    }

    /// The tier a region with `disables` consecutive de-speculations sits
    /// at: tier 1 (backoff) from the first de-speculation, tier 3
    /// (permanent software path) from the `permanent_disables`-th. A zero
    /// threshold never pins a region.
    fn ladder_tier(policy: &GovernorConfig, disables: u32) -> u8 {
        if policy.permanent_disables > 0 && disables >= policy.permanent_disables {
            3
        } else {
            1
        }
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
    fn gov_on_abort(&mut self, method: MethodId, region: u32, reason: AbortReason, boundary: u32) {
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
            });
        }
    }

    /// Governor bookkeeping on a commit: the abort and re-formation streaks
    /// reset, and a calm streak of `cooldown_entries` consecutive commits
    /// halves the cooldown back toward its base *and returns a tier-1
    /// region to tier 0* (tier 3 is permanent) — so a region that genuinely
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
                if g.tier == 1 {
                    self.stats.tier_exits[1] += 1;
                    self.stats.tier_live[1] -= 1;
                    self.stats.tier_enters[0] += 1;
                    self.stats.tier_live[0] += 1;
                    g.tier = 0;
                    // Re-earn escalations: the disable count steps back with
                    // the tier instead of snapping the region straight on to
                    // tier 3 on its next de-speculations.
                    g.disables = g.disables.saturating_sub(1);
                    self.stats.governor_recoveries += 1;
                    self.stats.per_region.counters_mut((method, region)).tier = 0;
                }
            }
        }
    }

    /// Executes an `aregion_begin` at `pc`: governor consult, entry stalls,
    /// sparse write-set checkpoint, region-context arming, targeted
    /// injection, and the schedule of the region's next injected abort —
    /// shared verbatim by the per-uop `step` arm and the block engine's
    /// inline terminator, so region-entry semantics cannot drift.
    fn region_begin(
        &mut self,
        method: MethodId,
        pc: usize,
        region: u32,
        alt: usize,
    ) -> Result<BeginOut, MachineFault> {
        if self.region.active {
            return Err(MachineFault::NestedRegion { method, pc });
        }
        // Governor consult: a de-speculated region's begin is patched to
        // branch straight to its alternate PC — the original,
        // non-speculative code runs with zero region overhead and needs no
        // lock of its own (DESIGN §14). A tier-3 region is patched out
        // permanently. Healthy regions have no governor state, so the fast
        // path stays a single failing map probe.
        if self.cfg.governor.enabled {
            if let Some(g) = self.gov.get_mut(&(method, region)) {
                self.stats.tier_time[g.tier as usize] += 1;
                let software_path = if g.tier == 3 {
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
                    return Ok(BeginOut::Redirect(alt));
                }
            }
        }
        self.charge(self.cfg.begin_stall);
        if self.cfg.single_inflight {
            // Stall at decode until the previous region drains.
            let drain = self.cfg.window / self.cfg.width;
            let gap = (self.cxw() - self.last_commit_cxw) / self.cfg.width;
            if gap < drain {
                self.charge(drain - gap);
            }
        }
        // Arm the context in place: a sparse checkpoint of only the
        // region's precomputed write set (see the `RegionCtx` field docs),
        // into buffers the previous region already sized.
        let f = self.frames.last().expect("frame");
        let r = &mut self.region;
        r.active = true;
        r.region = region;
        r.method = method;
        r.alt = alt;
        r.frame_depth = self.frames.len();
        r.regs.clear();
        let writes = &f.code.region_writes[region as usize];
        r.regs.extend(writes.iter().map(|&w| f.regs[w as usize]));
        // The shadow checkpoint is validator-only state: an independent
        // full register-file copy the rollback path never touches, so
        // sparse restoration can be cross-checked against the complete
        // pre-region file.
        r.shadow_regs.clear();
        if self.cfg.validate {
            r.shadow_regs.extend_from_slice(&f.regs);
            r.shadow_stores.clear();
        }
        r.env = self.env.snapshot();
        r.heap = self.heap.alloc_mark();
        r.undo.clear();
        r.start_uops = self.stats.uops;
        self.stats.per_region.counters_mut((method, region)).entries += 1;
        // Targeted injection: abort exactly the Nth dynamic
        // entry, the moment the checkpoint is armed.
        self.region_entries += 1;
        if self.cfg.faults.abort_at_entry == Some(self.region_entries) {
            self.abort(AbortReason::Spurious)?;
            return Ok(BeginOut::Redirect(alt));
        }
        self.schedule_injection();
        Ok(BeginOut::Entered)
    }

    /// Sets the entered region's next injected abort: the earlier of the
    /// next interrupt (a multiple of `interrupt_interval` retired uops)
    /// and the next conflict or spurious hit, an interrupt first on a tie.
    /// Inside a region retired and in-region uops advance together
    /// (regions contain no calls), so the interrupt's in-region ordinal
    /// follows from `stats.uops`.
    fn schedule_injection(&mut self) {
        let f = &self.cfg.faults;
        let (uops, ordinal) = (self.stats.uops, self.stats.region_uops);
        let mut next = (u64::MAX, AbortReason::Interrupt);
        if f.interrupt_interval > 0 {
            next.0 = ordinal.saturating_add(f.interrupt_interval - uops % f.interrupt_interval);
        }
        if f.conflict_per_miljon > 0 || f.spurious_per_miljon > 0 {
            if self.draw_hit.0 == 0 {
                self.draw_hit = self.draw_after(0);
            }
            if self.draw_hit.0 < next.0 {
                next = self.draw_hit;
            }
        }
        self.inject = next;
    }

    /// The first conflict or spurious hit after in-region uop `ordinal`:
    /// each in-region uop draws one step of the fault LCG, and a draw's
    /// conflict bits are tested before its spurious bits (independent bits
    /// of one draw, so the two streams don't correlate). Returns the
    /// hitting uop's ordinal and reason.
    fn draw_after(&mut self, mut ordinal: u64) -> (u64, AbortReason) {
        let conflict = self.cfg.faults.conflict_per_miljon;
        let spurious = self.cfg.faults.spurious_per_miljon;
        loop {
            ordinal += 1;
            self.fault_rng = self
                .fault_rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if conflict > 0 && (self.fault_rng >> 11) % 1_000_000 < conflict {
                return (ordinal, AbortReason::Conflict);
            }
            if spurious > 0 && (self.fault_rng >> 29) % 1_000_000 < spurious {
                return (ordinal, AbortReason::Spurious);
            }
        }
    }

    /// Fires the live region's scheduled injected abort and returns its
    /// reason. The draw stream moves on from the fired uop's own ordinal,
    /// never from the running count, which the chained engine has already
    /// advanced past the block's unexecuted suffix.
    // Out of line and cold, so the draw loop stays out of the chained
    // engine's hot loop: perfbench `steady_sim` medians 0-6% higher than
    // with it inlined in four rotating series, ahead in 24 of 36 rounds
    // (2-core x86-64 host).
    #[cold]
    #[inline(never)]
    fn injected(&mut self) -> AbortReason {
        let (at, why) = self.inject;
        if why == AbortReason::Interrupt {
            // The interrupted uop draws nothing, so a pending hit moves one
            // uop later.
            self.draw_hit.0 += 1;
        } else {
            self.draw_hit = self.draw_after(at);
        }
        why
    }

    /// Executes an `aregion_end` at `pc`: flash-clear commit, statistics,
    /// validation, and governor bookkeeping — shared verbatim by the
    /// per-uop `step` arm and the block engine's inline terminator.
    fn region_end(&mut self, method: MethodId, pc: usize, region: u32) -> Result<(), MachineFault> {
        if !self.region.active {
            return Err(MachineFault::EndOutsideRegion { method, pc });
        }
        self.region.active = false;
        let r = &self.region;
        debug_assert_eq!(r.region, region);
        // The footprint is the cache's speculative-line count, read before
        // the flash clear zeroes it.
        let footprint = self.cache.footprint();
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
        self.stats.region_footprint.record(footprint);
        self.last_commit_cxw = self.cxw();
        let (method, region) = (r.method, r.region);
        if self.cfg.validate {
            self.validate_arch_state(false)?;
        }
        if self.cfg.governor.enabled {
            self.gov_on_commit(method, region);
        }
        Ok(())
    }

    /// The §3 atomicity contract, checked mechanically after a commit or an
    /// abort: speculative cache state flash-cleared, the frame stack back at
    /// checkpoint depth, region counters consistent — and after an abort,
    /// the PC at the alternate path, the register file bit-identical to an
    /// independently captured shadow checkpoint, the allocation frontier and
    /// environment restored, every word the region stored to holding its
    /// pre-region value (the first-write shadow), and the undo log naming
    /// only such words. Reads the just-resolved region's context, which
    /// stays intact until the next begin.
    fn validate_arch_state(&mut self, aborted: bool) -> Result<(), MachineFault> {
        fn violated(what: &'static str, detail: String) -> Result<(), MachineFault> {
            Err(MachineFault::InvariantViolation { what, detail })
        }
        let r = &self.region;
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
            // Memory against the first-write shadow, which the store arms
            // fill apart from the undo log: every word the region stored to
            // must hold its pre-region value (this sees a store that never
            // logged), and the log may name only such words (this sees an
            // entry that logged the wrong cell). Cells of objects allocated
            // inside the region no longer exist after the frontier rollback
            // and are skipped.
            let live = |cell: &HeapCell| {
                let (HeapCell::Field(o, _) | HeapCell::Elem(o, _) | HeapCell::Lock(o)) = *cell;
                (o.0 as usize) < self.heap.len()
            };
            for (cell, _) in r.undo.iter().filter(|(c, _)| live(c)) {
                if !r.shadow_stores.contains_key(cell) {
                    return violated(
                        "undo-log",
                        format!("logged cell {cell:?}, which the region never stored to"),
                    );
                }
            }
            for (cell, &old) in r.shadow_stores.iter().filter(|(c, _)| live(c)) {
                let now = self.heap.read_cell(*cell);
                if now != old {
                    return violated(
                        "memory",
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

    /// Dispatch selector: [`HwConfig::dispatch`] alone picks the engine.
    /// Injected aborts are scheduled stops that both engines honour at the
    /// same uop, and the invariant validator runs only at commits and
    /// aborts, which both engines reach through the same helpers, so every
    /// experiment runs on whichever engine is configured.
    ///
    /// On every exit, `Ok` or `Err`, it folds the predicted hits into
    /// their four counters and writes `stats.cycles`, so a run cut short
    /// reports the same totals as one that returned.
    fn exec(&mut self) -> Result<Option<Value>, MachineFault> {
        let out = match self.cfg.dispatch {
            Dispatch::Superblock => self.exec_superblock(),
            Dispatch::PerUop => self.exec_per_uop(),
        };
        let hits = std::mem::take(&mut self.pred_hits);
        self.stats.mem_accesses += hits;
        self.stats.l1_hits += hits;
        self.cache.count_pred_hits(hits);
        self.stats.cycles = self.cycles();
        out
    }

    /// Rolls back the batched accounting of a block's unexecuted suffix
    /// after a mid-block redirect (in-region abort, overflow, or trap at an
    /// interior uop): totals return to exactly what the per-uop reference
    /// would have recorded at the redirect point.
    fn unapply_suffix(&mut self, suffix: &SbInfo, was_in_region: bool) {
        let n = u64::from(suffix.len);
        self.fuel += n;
        self.stats.uops -= n;
        self.stats.uop_classes.unapply_delta(&suffix.classes);
        if was_in_region {
            self.stats.region_uops -= n;
        }
    }

    /// The one definition of every straight-line (non-terminator) uop,
    /// shared by both engines: retires the uops in `i..term` under one set
    /// of field borrows — register file, heap, cache, and region context
    /// all resolved once. The superblock engine runs a block's interior
    /// here, and `step` a single uop through [`Machine::run_one`]. A uop
    /// that cannot retire stops the run at its pc with a [`Stop`] before it
    /// writes anything (an overflowing allocation's object is the abort's
    /// to truncate); the caller finishes it with [`Machine::bail`].
    #[allow(clippy::too_many_lines)]
    #[inline(always)]
    fn run_interior(
        &mut self,
        code: &'p CompiledCode,
        mut i: usize,
        term: usize,
    ) -> Result<(), (usize, Stop)> {
        let program = self.program;
        let Machine {
            frames,
            heap,
            cache,
            stats,
            region,
            coh,
            cfg,
            stall_cxw,
            pred_hits,
            env,
            ..
        } = self;
        let frame = frames.last_mut().expect("frame");
        let regs = &mut frame.regs;
        let in_region = region.active;
        let shadowing = in_region && cfg.validate;
        let linked = coh.is_some();
        let budget = if in_region { cfg.faults.line_budget } else { 0 };
        /// The object a memory operand register holds, or a stop.
        macro_rules! obj {
            ($r:expr) => {{
                let bits = regs[$r.0 as usize];
                match Value::decode(bits) {
                    Value::Ref(Some(o)) => o,
                    _ => break Err((i, Stop::NotObj(bits))),
                }
            }};
        }
        /// The uop's data access at `$addr`, through its seal site
        /// (way-predictor slot, DESIGN §16; `NO_SITE` for an allocation's
        /// header write), or an abort stop. With no coherence link the
        /// predicted hit runs here and bumps one counter; everything else
        /// is [`Machine::mem_access_parts`].
        macro_rules! access {
            ($addr:expr, $write:expr) => {{
                let (site, addr, write) = (code.blocks[i].mem_site, $addr, $write);
                let done = if !linked && cache.fast_hit(site, addr, write, in_region) {
                    *pred_hits += 1;
                    Self::within_budget(cache, budget)
                } else {
                    Self::mem_access_parts(
                        cache, stats, stall_cxw, pred_hits, coh, in_region, budget, site, addr,
                        write,
                    )
                };
                if let Err(why) = done {
                    break Err((i, Stop::Abort(why)));
                }
            }};
        }
        /// Validation only: `$cell`'s pre-region value `$old`, kept at the
        /// region's first store to it (the first-write shadow).
        macro_rules! shadow {
            ($cell:expr, $old:expr) => {
                if shadowing {
                    region.shadow_stores.entry($cell).or_insert($old);
                }
            };
        }
        /// A safety check: trap unless `$ok`.
        macro_rules! check {
            ($ok:expr, $trap:expr) => {
                if !$ok {
                    break Err((i, Stop::Trap($trap)));
                }
            };
        }
        loop {
            if i >= term {
                break Ok(());
            }
            match code.uops[i] {
                Uop::Const { dst, imm } => regs[dst.0 as usize] = imm,
                Uop::ConstNull { dst } => regs[dst.0 as usize] = Value::NULL.encode(),
                Uop::Mov { dst, src } => regs[dst.0 as usize] = regs[src.0 as usize],
                Uop::Alu { op, dst, a, b } => {
                    // Division by zero past its CheckDiv: impossible for
                    // correct lowering; treat as a trap.
                    let Some(v) = op.eval(regs[a.0 as usize], regs[b.0 as usize]) else {
                        break Err((i, Stop::Trap(Trap::DivByZero)));
                    };
                    regs[dst.0 as usize] = v;
                }
                Uop::CmpSet { op, dst, a, b } => {
                    regs[dst.0 as usize] =
                        i64::from(op.eval_int(regs[a.0 as usize], regs[b.0 as usize]));
                }
                Uop::CheckNull { v } => {
                    check!(
                        Value::decode(regs[v.0 as usize]) != Value::NULL,
                        Trap::NullPointer
                    );
                }
                Uop::CheckBounds { len, idx } => {
                    let (l, x) = (regs[len.0 as usize], regs[idx.0 as usize]);
                    check!(x >= 0 && x < l, Trap::OutOfBounds);
                }
                Uop::CheckDiv { v } => check!(regs[v.0 as usize] != 0, Trap::DivByZero),
                Uop::CheckCast { obj, class } => {
                    if let Value::Ref(Some(o)) = Value::decode(regs[obj.0 as usize]) {
                        check!(
                            program.is_subclass(heap.class_of(o), class),
                            Trap::ClassCast
                        );
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
                    let o = obj!(obj);
                    let (addr, slot) = heap.field_slot(o, field);
                    access!(addr, false);
                    regs[dst.0 as usize] = *slot;
                }
                Uop::StoreField { obj, field, src } => {
                    let o = obj!(obj);
                    let (addr, slot) = heap.field_slot(o, field);
                    access!(addr, true);
                    shadow!(HeapCell::Field(o, field), *slot);
                    if region.active {
                        region.undo.push((HeapCell::Field(o, field), *slot));
                    }
                    *slot = regs[src.0 as usize];
                }
                Uop::LoadElem { dst, arr, idx } => {
                    let o = obj!(arr);
                    let (addr, slot) = heap.elem_slot(o, regs[idx.0 as usize] as u32);
                    access!(addr, false);
                    regs[dst.0 as usize] = *slot;
                }
                Uop::StoreElem { arr, idx, src } => {
                    let o = obj!(arr);
                    let j = regs[idx.0 as usize] as u32;
                    let (addr, slot) = heap.elem_slot(o, j);
                    access!(addr, true);
                    shadow!(HeapCell::Elem(o, j), *slot);
                    if region.active {
                        region.undo.push((HeapCell::Elem(o, j), *slot));
                    }
                    *slot = regs[src.0 as usize];
                }
                Uop::LoadLen { dst, arr } => {
                    let o = obj!(arr);
                    let (addr, len) = heap.len_slot(o);
                    access!(addr, false);
                    regs[dst.0 as usize] = len as i64;
                }
                Uop::LoadClass { dst, obj } => {
                    let o = obj!(obj);
                    access!(heap.addr_of_header(o), false);
                    regs[dst.0 as usize] = i64::from(heap.class_of(o).0);
                }
                Uop::LoadLock { dst, obj } => {
                    let cell = HeapCell::Lock(obj!(obj));
                    access!(heap.addr_of(cell), false);
                    regs[dst.0 as usize] = heap.read_cell(cell);
                }
                Uop::StoreLock { obj, src } => {
                    let cell = HeapCell::Lock(obj!(obj));
                    access!(heap.addr_of(cell), true);
                    shadow!(cell, heap.read_cell(cell));
                    if region.active {
                        region.undo.push((cell, heap.read_cell(cell)));
                    }
                    heap.write_cell(cell, regs[src.0 as usize]);
                }
                Uop::AllocObj { dst, class } => {
                    let o = heap.alloc_object(class, program.class(class).field_count());
                    access!(heap.addr_of_header(o), true);
                    regs[dst.0 as usize] = Value::from(o).encode();
                }
                Uop::AllocArr { dst, len } => {
                    let Ok(n) = usize::try_from(regs[len.0 as usize]) else {
                        break Err((i, Stop::Trap(Trap::OutOfBounds)));
                    };
                    let o = heap.alloc_array(n);
                    access!(heap.addr_of_header(o), true);
                    regs[dst.0 as usize] = Value::from(o).encode();
                }
                Uop::Poll => access!(YIELD_FLAG_ADDR, false),
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
                Uop::Jmp { .. }
                | Uop::Br { .. }
                | Uop::JmpInd { .. }
                | Uop::Call { .. }
                | Uop::CallVirt { .. }
                | Uop::Ret { .. }
                | Uop::RegionBegin { .. }
                | Uop::RegionEnd { .. }
                | Uop::Abort { .. }
                | Uop::Marker { .. }
                | Uop::Unreachable { .. } => unreachable!("terminator or marker in an interior"),
            }
            i += 1;
        }
    }

    /// [`Machine::run_interior`] on the one uop at `pc` of the current
    /// frame: how `step` runs a straight-line uop.
    // `#[inline(always)]` on `run_interior` plus this `#[inline(never)]`
    // wrapper beat plain `#[inline]` with `step` calling `run_interior`
    // directly by 2-4% on perfbench `steady_sim` (2-core x86-64 host, 13
    // of 18 alternating pairs).
    #[inline(never)]
    fn run_one(&mut self, pc: usize) -> Result<(), (usize, Stop)> {
        let code = self.frames.last().expect("frame").code;
        self.run_interior(code, pc, pc + 1)
    }

    /// The chained batched-dispatch hot path: retire decoded superblocks
    /// block-to-block without leaving the engine. Each iteration charges the
    /// block's precomputed fuel/stats delta once, runs the straight-line
    /// prefix under one register-file borrow, then follows the *sealed*
    /// terminator link ([`SbTerm`]): direct and conditional successors,
    /// indirect jumps, region entry/commit/abort, and call/return frame
    /// transitions all resolve on locally cached `(method, pc, code)` state
    /// through the helpers the per-uop engine shares — the frame stack is
    /// consulted only when a frame actually changes, and the whole
    /// [`Machine::step`] path is reserved for `Unreachable` and blocks
    /// sealed early.
    ///
    /// The accounting invariant that makes the batch exact: the per-uop
    /// reference charges each uop *before* executing its action, so
    /// charging all `n` uops at block entry agrees with it at every point
    /// where the counters are observable (terminators and markers), and a
    /// stop at interior uop `i` only needs `blocks[i + 1]` — precisely the
    /// unexecuted suffix — subtracted again. A mid-chain abort (assert,
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
        /// redirected through it (abort, interior stop, governor patch-out).
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
            if self.fuel < n.max(1) {
                // Within one block of exhaustion (a marker counts as one
                // uop here, as the reference stops before it with no fuel
                // left): the reference path finds the exact uop the fuel
                // runs out on.
                self.frames.last_mut().expect("frame").pc = pc;
                return self.exec_per_uop();
            }
            if n == 0 {
                // Markers live outside blocks.
                let Uop::Marker { id } = code.uops[pc] else {
                    unreachable!("len-0 superblock on a non-marker uop")
                };
                self.marker(id);
                pc += 1;
                continue;
            }
            // The whole block's accounting, batched.
            self.fuel -= n;
            self.stats.uops += n;
            self.stats.uop_classes.apply_delta(&sb.classes);
            let term = pc + sb.len as usize - 1;
            let sterm = sb.term;
            let in_region = self.region.active;
            // The uop of the region's scheduled injected abort, when it
            // falls in this block: the last one, `term`, has ordinal
            // `region_uops`.
            let mut inject = None;
            if in_region {
                self.stats.region_uops += n;
                let at = self.inject.0;
                if at <= self.stats.region_uops {
                    debug_assert!(at + n > self.stats.region_uops, "injection skipped");
                    inject = Some(term - (self.stats.region_uops - at) as usize);
                }
            }
            // The interior, up to an injected abort's uop, which then
            // stops the block like any interior stop. A stop leaves the
            // block: finish it, hand back the unexecuted suffix's batched
            // accounting (a stop on the terminator has none), and resume
            // wherever it redirected.
            let mut stopped = self.run_interior(code, pc, inject.unwrap_or(term));
            if let (Ok(()), Some(j)) = (&stopped, inject) {
                stopped = Err((j, Stop::Abort(self.injected())));
            }
            if let Err((j, why)) = stopped {
                let finished = self.bail(j, why);
                if j < term {
                    self.unapply_suffix(&code.blocks[j + 1], in_region);
                }
                finished?;
                resync!();
                continue;
            }
            // Follow the sealed terminator link. Every arm mirrors the
            // corresponding [`Machine::step`] semantics exactly; the shared
            // region helpers *are* the step arms.
            match sterm {
                SbTerm::Jmp { next } => pc = next as usize,
                SbTerm::Br { op, a, b, taken } => {
                    pc = if self.branch(method, term, op, a, b) {
                        taken as usize
                    } else {
                        term + 1
                    };
                }
                SbTerm::Ret { src } => match self.ret(src) {
                    StepOut::Return(v) => return Ok(v),
                    _ => resync!(),
                },
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
                SbTerm::Decode => {
                    // Exact for trap provenance (a null virtual receiver)
                    // and for the shared step path below.
                    self.frames.last_mut().expect("frame").pc = term;
                    match code.uops[term] {
                        Uop::JmpInd {
                            sel,
                            ref table,
                            default,
                        } => {
                            let v = self.frames.last().expect("frame").regs[sel.0 as usize];
                            pc = jump_target(v, table, default);
                            self.indirect(method, term, pc as u64);
                        }
                        Uop::Call {
                            dst,
                            target,
                            ref args,
                        } => {
                            self.call(target, None, args, dst, term + 1)?;
                            resync!();
                        }
                        Uop::CallVirt {
                            dst,
                            slot,
                            recv,
                            ref args,
                        } => {
                            let target = self.virtual_target(method, term, recv, slot)?;
                            self.call(target, Some(recv), args, dst, term + 1)?;
                            resync!();
                        }
                        // `Unreachable`, and blocks sealed early by markers
                        // or end-of-stream: the shared step path handles
                        // them.
                        ref u => {
                            match self.step(u, method, term)? {
                                StepOut::Next(np) => {
                                    self.frames.last_mut().expect("frame").pc = np;
                                }
                                StepOut::Redirect => {}
                                StepOut::Return(v) => return Ok(v),
                            }
                            resync!();
                        }
                    }
                }
            }
        }
    }

    /// The reference interpretation: fetch, account, and execute one uop at
    /// a time. Runs under [`Dispatch::PerUop`], and finishes a chained run
    /// within one block of fuel exhaustion.
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

            if let Uop::Marker { id } = *uop {
                self.marker(id);
                self.frames.last_mut().expect("frame").pc += 1;
                continue;
            }

            self.fuel -= 1;
            self.stats.uops += 1;
            self.stats.uop_classes.record(uop.class());
            if self.region.active {
                self.stats.region_uops += 1;
                if self.stats.region_uops == self.inject.0 {
                    let why = self.injected();
                    self.abort(why)?;
                    continue;
                }
            }

            match self.step(uop, method, pc)? {
                StepOut::Next(np) => self.frames.last_mut().expect("frame").pc = np,
                StepOut::Redirect => {}
                StepOut::Return(v) => return Ok(v),
            }
        }
    }

    /// Executes one uop's architectural action for the per-uop engine (and
    /// for the superblock engine's decoded terminators). Accounting (fuel,
    /// stats, injection) is the caller's job; `pc` is the uop's own offset,
    /// and the frame's pc field already equals it (trap provenance relies
    /// on that). Only control transfers, region primitives and
    /// `Unreachable` have arms here; every straight-line uop runs its one
    /// definition in [`Machine::run_interior`].
    #[inline]
    fn step(&mut self, uop: &'p Uop, method: MethodId, pc: usize) -> Result<StepOut, MachineFault> {
        let mut next_pc = pc + 1;
        match *uop {
            Uop::Jmp { target } => next_pc = target,
            Uop::Br { op, a, b, target } => {
                if self.branch(method, pc, op, a, b) {
                    next_pc = target;
                }
            }
            Uop::JmpInd {
                sel,
                ref table,
                default,
            } => {
                let v = self.frames.last().expect("frame").regs[sel.0 as usize];
                next_pc = jump_target(v, table, default);
                self.indirect(method, pc, next_pc as u64);
            }
            Uop::Call {
                dst,
                target,
                ref args,
            } => {
                self.call(target, None, args, dst, next_pc)?;
                return Ok(StepOut::Redirect);
            }
            Uop::CallVirt {
                dst,
                slot,
                recv,
                ref args,
            } => {
                let target = self.virtual_target(method, pc, recv, slot)?;
                self.call(target, Some(recv), args, dst, next_pc)?;
                return Ok(StepOut::Redirect);
            }
            Uop::Ret { src } => return Ok(self.ret(src)),
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
            Uop::Marker { .. } => unreachable!("handled above"),
            Uop::Unreachable { why } => {
                panic!("executed unreachable uop: {why} at {}:{pc}", method.0)
            }
            _ => {
                if let Err((_, why)) = self.run_one(pc) {
                    self.bail(pc, why)?;
                    return Ok(StepOut::Redirect);
                }
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
    use hasp_vm::bytecode::{BinOp, ClassId, CmpOp};

    /// Installs a hand-written uop stream as the entry method of a program
    /// that also declares two unrelated field-less classes, `ClassId(0)`
    /// and `ClassId(1)`, for cast checks.
    fn install_uops(uops: Vec<Uop>, regs: u32) -> (Program, CodeCache) {
        let mut pb = ProgramBuilder::new();
        pb.add_class("A", None, &[]);
        pb.add_class("B", None, &[]);
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

    /// Runs `add_element` under `plan` with the validator on, on the
    /// shipped engine and the per-uop reference; asserts transparency,
    /// equal statistics on both engines, and that at least `min` aborts of
    /// `reason` validated.
    fn assert_validated_aborts(plan: FaultPlan, reason: AbortReason, min: u64) -> RunStats {
        let p = add_element_program(2000, 1 << 20);
        let runs: Vec<RunStats> = [HwConfig::baseline(), HwConfig::per_uop()]
            .into_iter()
            .map(|hw| {
                let hw = HwConfig {
                    faults: plan.clone(),
                    validate: true,
                    ..hw
                };
                let (icks, iret, mcks, mret, stats) = run_both(&p, &CompilerConfig::atomic(), hw);
                assert_eq!(icks, mcks, "{reason:?} aborts must be transparent");
                assert_eq!(iret, mret);
                stats
            })
            .collect();
        assert!(
            runs[0] == runs[1],
            "engines diverged: {:?}",
            runs[0].diff(&runs[1])
        );
        let stats = runs[0].clone();
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

    #[test]
    fn validator_checks_region_stores_against_the_first_write_shadow() {
        // An array allocated before the region; the region stores to
        // element 0 twice and aborts. The alt path spins until fuel runs
        // out, leaving the frame and the resolved region's context in
        // place for a direct look at the validator.
        for hw in [HwConfig::baseline(), HwConfig::per_uop()] {
            let (p, cc) = install_uops(
                vec![
                    Uop::Const {
                        dst: MReg(0),
                        imm: 4,
                    },
                    Uop::AllocArr {
                        dst: MReg(1),
                        len: MReg(0),
                    },
                    Uop::Const {
                        dst: MReg(2),
                        imm: 0,
                    },
                    Uop::Const {
                        dst: MReg(3),
                        imm: 7,
                    },
                    Uop::RegionBegin { region: 0, alt: 9 },
                    Uop::StoreElem {
                        arr: MReg(1),
                        idx: MReg(2),
                        src: MReg(3),
                    },
                    Uop::StoreElem {
                        arr: MReg(1),
                        idx: MReg(2),
                        src: MReg(0),
                    },
                    Uop::Abort { assert_id: 0 },
                    Uop::RegionEnd { region: 0 },
                    Uop::Jmp { target: 9 },
                ],
                4,
            );
            let mut mach = Machine::new(
                &p,
                &cc,
                HwConfig {
                    validate: true,
                    ..hw
                },
            );
            mach.set_fuel(50);
            assert!(matches!(
                mach.run(&[]),
                Err(MachineFault::Vm(VmError::FuelExhausted))
            ));
            assert_eq!(mach.stats().aborts.get(AbortReason::Explicit), 1);
            assert_eq!(mach.stats().validations, 1);
            let word = HeapCell::Elem(ObjId(0), 0);
            assert_eq!(mach.region.shadow_stores.len(), 1, "one word stored");
            assert_eq!(mach.region.shadow_stores[&word], 0, "its pre-region value");
            mach.validate_arch_state(true)
                .expect("the rollback is exact");
            // A word the rollback missed: what a store without an undo
            // entry leaves behind.
            mach.heap.write_cell(word, 7);
            let what = |m: &mut Machine| match m.validate_arch_state(true) {
                Err(MachineFault::InvariantViolation { what, .. }) => what,
                other => panic!("expected a violation, got {other:?}"),
            };
            assert_eq!(what(&mut mach), "memory");
            mach.heap.write_cell(word, 0);
            // A log entry naming a word the region never stored to.
            mach.region.undo.push((HeapCell::Elem(ObjId(0), 1), 0));
            assert_eq!(what(&mut mach), "undo-log");
        }
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
    /// tracked (0) → backoff (1) → permanent software path (3), with a
    /// re-formation request emitted on the sustained `Explicit` streak —
    /// all while the alt path preserves semantics and the tier accounting
    /// stays balanced under the validator.
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
        // Every rung was entered, non-vacuously; slot 2 names no rung.
        for t in [0, 1, 3] {
            assert!(s.tier_enters[t] > 0, "tier {t} never entered: {s:?}");
            assert!(s.tier_time[t] > 0, "no time spent at tier {t}: {s:?}");
        }
        assert_eq!((s.tier_enters[2], s.tier_time[2]), (0, 0), "{s:?}");
        // The region ends pinned at tier 3 (permanent), and is the only
        // live tracked region.
        assert_eq!(s.tier_live, [0, 0, 0, 1], "{s:?}");
        assert!(s.tier_counters_consistent(), "{s:?}");
        let region = s.per_region.values().next().expect("one region");
        assert_eq!(region.tier, 3);
        // The sustained Explicit streak produced exactly one re-formation
        // request; the hand-built stream has no boundary map.
        assert_eq!(s.reform_requests, 1);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].reason, AbortReason::Explicit);
        assert_eq!(reqs[0].boundary, u32::MAX);
        // Tier 3 converts the tail of the run into software-path entries.
        assert!(s.governor_skips > 1000, "{s:?}");
    }

    /// The ladder is bookkeeping only: no rung reads or writes a word of
    /// its own. A region driven to the permanent tier in a loop without a
    /// memory uop leaves the cache untouched on both engines, and no region
    /// ever sits at tier 2.
    #[test]
    fn the_ladder_touches_no_memory_on_either_engine() {
        for mut hw in [HwConfig::baseline(), HwConfig::per_uop()] {
            hw.validate = true;
            hw.governor = GovernorConfig {
                retry_budget: 2,
                cooldown_entries: 2,
                max_cooldown: 8,
                ..GovernorConfig::online()
            };
            let (p, cc) = always_abort_loop(600);
            let mut mach = Machine::new(&p, &cc, hw);
            let out = mach.run(&[]).expect("run");
            assert_eq!(out, Some(Value::Int(600)), "semantics preserved");
            let s = mach.stats();
            assert_eq!(s.tier_live, [0, 0, 0, 1], "{s:?}");
            assert_eq!(s.mem_accesses, 0, "{s:?}");
            assert_eq!(s.tier_enters[2], 0, "{s:?}");
        }
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
        assert!(
            runs[0] == runs[1],
            "engines diverged: {:?}",
            runs[0].diff(&runs[1])
        );
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
    /// it — the fixture for the pooled-machine test.
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

    /// A machine built from a retired machine's pools is indistinguishable
    /// from a fresh one, whatever its donor left behind: a completed run
    /// (committed regions, aborts, warmed caches and predictors); a run cut
    /// by fuel with a region in flight (the hot loop is fully encapsulated
    /// when the array never wraps); and a validator-on run with aborts,
    /// whose recycled region context carries a shadow register copy.
    #[test]
    fn pooled_machine_matches_fresh_machine_bit_for_bit() {
        let validated = HwConfig {
            validate: true,
            ..HwConfig::baseline()
        };
        let cases = [
            (compiled_add_element(3000, 500), HwConfig::baseline(), false),
            (
                compiled_add_element(3000, 1 << 20),
                HwConfig::baseline(),
                true,
            ),
            (compiled_add_element(3000, 500), validated, false),
        ];
        for ((p, cc), hw, cut) in &cases {
            let mut fresh = Machine::new(p, cc, hw.clone());
            fresh.run(&[]).expect("fresh run");
            let donor = if *cut {
                // The first fuel cut from mid-run on that stops the run
                // with a region in flight.
                (fresh.stats().uops / 2..)
                    .map(|fuel| {
                        let mut d = Machine::new(p, cc, hw.clone());
                        d.set_fuel(fuel);
                        assert!(d.run(&[]).is_err(), "truncated run must fault on fuel");
                        d
                    })
                    .find(|d| d.region.active)
                    .expect("a cut inside a region")
            } else {
                let mut d = Machine::new(p, cc, hw.clone());
                d.run(&[]).expect("donor run");
                assert!(d.stats().total_aborts() > 0, "fixture must abort");
                d
            };
            let mut pooled = Machine::with_pools(p, cc, hw.clone(), donor.into_pools());
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

    /// A run that faults reports its totals like a run that returns: on
    /// both engines, fuel exhaustion leaves `stats().cycles` at `cycles()`
    /// and the predicted hits folded into their counters.
    #[test]
    fn a_faulted_run_reports_cycles_and_folded_hits() {
        let (p, cc) = compiled_add_element(20_000, 500);
        let runs: Vec<_> = [HwConfig::baseline(), HwConfig::per_uop()]
            .into_iter()
            .map(|hw| {
                let mut mach = Machine::new(&p, &cc, hw);
                mach.set_fuel(50_000);
                assert_eq!(mach.run(&[]), Err(VmError::FuelExhausted.into()));
                let stats = mach.stats().clone();
                assert!(stats.cycles > 0, "a faulted run kept 0 cycles");
                assert_eq!(stats.cycles, mach.cycles());
                assert_eq!(mach.pred_hits, 0, "predicted hits left unfolded");
                let pred = mach.way_pred_stats();
                assert!(pred.hits > 0 && pred.hits + pred.mispredicts <= pred.probes);
                assert!(stats.l1_hits >= pred.hits && stats.mem_accesses >= stats.l1_hits);
                stats
            })
            .collect();
        assert_eq!(runs[0], runs[1], "superblock == per-uop reference");
    }

    /// Predicted hits still waiting for their fold are cross-request
    /// state: the next request would inherit them.
    #[test]
    fn cross_request_state_names_unfolded_predicted_hits() {
        let (p, cc) = install_uops(vec![Uop::Ret { src: None }], 1);
        let mut mach = Machine::new(&p, &cc, HwConfig::baseline());
        assert_eq!(mach.cross_request_state(), None);
        mach.pred_hits = 1;
        assert_eq!(
            mach.cross_request_state(),
            Some("predicted hits not folded")
        );
    }

    /// Runs a hand-written uop stream on both dispatch engines under
    /// `faults` and returns the common outcome and statistics; the engines
    /// must agree on both.
    fn run_both_engines(
        uops: &[Uop],
        regs: u32,
        faults: &FaultPlan,
    ) -> (Result<Option<Value>, MachineFault>, RunStats) {
        let runs: Vec<_> = [HwConfig::baseline(), HwConfig::per_uop()]
            .into_iter()
            .map(|hw| {
                let (p, cc) = install_uops(uops.to_vec(), regs);
                assert_eq!(p.entry(), MethodId(0));
                let faults = faults.clone();
                let mut mach = Machine::new(&p, &cc, HwConfig { faults, ..hw });
                let out = mach.run(&[]);
                (out, mach.stats().clone())
            })
            .collect();
        assert_eq!(runs[0], runs[1], "superblock == per-uop reference");
        runs[0].clone()
    }

    /// Fuel that runs out right before a marker stops both engines there:
    /// the marker does not fire, and the frame stays at its pc.
    #[test]
    fn fuel_exhausted_before_a_marker_stops_both_engines_there() {
        let c = |imm| Uop::Const { dst: MReg(0), imm };
        let uops = vec![
            c(1),
            c(2),
            Uop::Marker { id: 5 },
            c(3),
            Uop::Ret { src: None },
        ];
        let runs: Vec<_> = [HwConfig::baseline(), HwConfig::per_uop()]
            .into_iter()
            .map(|hw| {
                let (p, cc) = install_uops(uops.clone(), 1);
                let mut mach = Machine::new(&p, &cc, hw);
                mach.set_fuel(2);
                let out = mach.run(&[]);
                let pc = mach.frames.last().expect("frame").pc;
                (out, mach.stats().clone(), mach.env.marker_count(5), pc)
            })
            .collect();
        assert_eq!(runs[0], runs[1], "superblock == per-uop reference");
        let (out, stats, count, pc) = &runs[0];
        assert_eq!(*out, Err(VmError::FuelExhausted.into()));
        assert!(stats.markers.is_empty(), "{:?}", stats.markers);
        assert_eq!((*count, *pc), (0, 2));
    }

    #[test]
    fn call_linkage_and_indirect_jumps_agree_across_engines() {
        // Unbounded self-recursion: 512 calls of 3 uops each (the call and
        // its two linkage uops), the last one faulting at the depth limit.
        let recurse = [
            Uop::Call {
                dst: None,
                target: MethodId(0),
                args: Box::new([]),
            },
            Uop::Ret { src: None },
        ];
        let none = FaultPlan::none();
        let (out, stats) = run_both_engines(&recurse, 1, &none);
        assert_eq!(out, Err(VmError::StackOverflow.into()));
        assert_eq!(stats.uops, 1536);

        let missing = [
            Uop::Call {
                dst: None,
                target: MethodId(1),
                args: Box::new([]),
            },
            Uop::Ret { src: None },
        ];
        let (out, _) = run_both_engines(&missing, 1, &none);
        assert_eq!(out, Err(MachineFault::MethodNotCompiled(MethodId(1))));

        // `jmp_ind` over a one-entry table: pc 4 returns 20, the default
        // (pc 2) returns 10.
        for (sel, expect) in [(-1, 10), (0, 20), (1, 10)] {
            let switch = [
                Uop::Const {
                    dst: MReg(0),
                    imm: sel,
                },
                Uop::JmpInd {
                    sel: MReg(0),
                    table: Box::new([4]),
                    default: 2,
                },
                Uop::Const {
                    dst: MReg(1),
                    imm: 10,
                },
                Uop::Ret { src: Some(MReg(1)) },
                Uop::Const {
                    dst: MReg(1),
                    imm: 20,
                },
                Uop::Ret { src: Some(MReg(1)) },
            ];
            let (out, stats) = run_both_engines(&switch, 2, &none);
            assert_eq!(out, Ok(Some(Value::Int(expect))), "selector {sel}");
            assert_eq!(
                stats.uops, 6,
                "const, jmp_ind, const, ret and its 2 linkage uops"
            );
        }
    }

    /// Every way a straight-line uop can stop, on both engines: a memory
    /// operand that holds no object is a hard error at its pc; a failed
    /// check (or a negative array length) traps outside a region and is an
    /// exception abort to the alternate path inside one; a store past the
    /// speculative line budget is an overflow abort.
    #[test]
    fn every_interior_stop_agrees_across_engines() {
        let (r0, r1, r2) = (MReg(0), MReg(1), MReg(2));
        let none = FaultPlan::none();
        let main = MethodId(0);
        let stoppers = [
            Uop::LoadField {
                dst: r1,
                obj: r0,
                field: 0,
            },
            Uop::StoreElem {
                arr: r0,
                idx: r1,
                src: r1,
            },
        ];
        for stopper in stoppers {
            for (bits, fault) in [
                (
                    Value::NULL.encode(),
                    VmError::Trap {
                        trap: Trap::NullPointer,
                        method: main,
                        pc: 2,
                    },
                ),
                (
                    5,
                    VmError::TypeMismatch {
                        method: main,
                        pc: 2,
                        what: "expected ref",
                    },
                ),
            ] {
                let uops = [
                    Uop::Const { dst: r0, imm: bits },
                    Uop::Const { dst: r1, imm: 0 },
                    stopper.clone(),
                    Uop::Ret { src: None },
                ];
                let (out, stats) = run_both_engines(&uops, 2, &none);
                assert_eq!(out, Err(fault.into()), "{stopper:?} on {bits}");
                assert_eq!(stats.uops, 3, "nothing past the stopped uop retires");
            }
        }

        // (set-up, the failing uop, its trap).
        let checks = [
            (
                vec![
                    Uop::Const { dst: r0, imm: 2 },
                    Uop::Const { dst: r1, imm: 2 },
                ],
                Uop::CheckBounds { len: r0, idx: r1 },
                Trap::OutOfBounds,
            ),
            (
                vec![Uop::AllocObj {
                    dst: r0,
                    class: ClassId(0),
                }],
                Uop::CheckCast {
                    obj: r0,
                    class: ClassId(1),
                },
                Trap::ClassCast,
            ),
            (
                vec![Uop::Const { dst: r0, imm: 0 }],
                Uop::CheckDiv { v: r0 },
                Trap::DivByZero,
            ),
            (
                vec![Uop::Const { dst: r0, imm: -1 }],
                Uop::AllocArr { dst: r1, len: r0 },
                Trap::OutOfBounds,
            ),
        ];
        for (setup, check, trap) in checks {
            let pc = setup.len();
            let mut uops = setup.clone();
            uops.extend([check.clone(), Uop::Ret { src: None }]);
            let (out, stats) = run_both_engines(&uops, 3, &none);
            let fault = VmError::Trap {
                trap,
                method: main,
                pc,
            };
            assert_eq!(out, Err(fault.into()), "{check:?} outside a region");
            assert_eq!(stats.uops, pc as u64 + 1);

            // Inside a region the same failure aborts to the alternate
            // path, which returns 7 (the committed path would return 1).
            let alt = pc + 5;
            let mut uops = vec![Uop::RegionBegin { region: 0, alt }];
            uops.extend(setup);
            uops.extend([
                check.clone(),
                Uop::RegionEnd { region: 0 },
                Uop::Const { dst: r2, imm: 1 },
                Uop::Ret { src: Some(r2) },
                Uop::Const { dst: r2, imm: 7 },
                Uop::Ret { src: Some(r2) },
            ]);
            let (out, stats) = run_both_engines(&uops, 3, &none);
            assert_eq!(out, Ok(Some(Value::Int(7))), "{check:?} inside a region");
            assert_eq!(stats.aborts.get(AbortReason::Exception), 1);
            assert_eq!(stats.aborts.total(), 1);
            assert_eq!(stats.commits, 0);
        }

        // Two stores in a region, 120 bytes apart in one array: the second
        // touches a second line, past a one-line budget. The alternate path
        // reads back the first store's element, which the abort restored.
        let r3 = MReg(3);
        let uops = [
            Uop::Const { dst: r0, imm: 16 },
            Uop::AllocArr { dst: r1, len: r0 },
            Uop::Const { dst: r2, imm: 15 },
            Uop::Const { dst: r3, imm: 0 },
            Uop::RegionBegin { region: 0, alt: 10 },
            Uop::StoreElem {
                arr: r1,
                idx: r3,
                src: r0,
            },
            Uop::StoreElem {
                arr: r1,
                idx: r2,
                src: r0,
            },
            Uop::RegionEnd { region: 0 },
            Uop::Const { dst: r2, imm: 1 },
            Uop::Ret { src: Some(r2) },
            Uop::LoadElem {
                dst: r2,
                arr: r1,
                idx: r3,
            },
            Uop::Ret { src: Some(r2) },
        ];
        let (out, stats) = run_both_engines(&uops, 4, &FaultPlan::overflow_budget(1));
        assert_eq!(out, Ok(Some(Value::Int(0))), "the first store rolled back");
        assert_eq!(stats.aborts.get(AbortReason::Overflow), 1);
        assert_eq!(stats.aborts.total(), 1);
    }

    /// A region of straight-line stores to `lines` consecutive cache lines
    /// of one array (elements `8k` for `k < lines`, 64 bytes apart). The
    /// committed path returns 1; the alternate path returns element 0,
    /// which is 0 again once an abort rolled its store back.
    fn store_lines_region(lines: u32) -> Vec<Uop> {
        let (len, arr, idx, one) = (MReg(0), MReg(1), MReg(2), MReg(3));
        let mut uops = vec![
            Uop::Const {
                dst: len,
                imm: 8 * i64::from(lines),
            },
            Uop::AllocArr { dst: arr, len },
            Uop::Const { dst: one, imm: 1 },
            // Past the body's two uops per line, the end and the return.
            Uop::RegionBegin {
                region: 0,
                alt: 2 * lines as usize + 6,
            },
        ];
        for k in 0..lines {
            uops.push(Uop::Const {
                dst: idx,
                imm: 8 * i64::from(k),
            });
            uops.push(Uop::StoreElem { arr, idx, src: one });
        }
        uops.extend([
            Uop::RegionEnd { region: 0 },
            Uop::Ret { src: Some(one) },
            Uop::Const { dst: idx, imm: 0 },
            Uop::LoadElem { dst: one, arr, idx },
            Uop::Ret { src: Some(one) },
        ]);
        uops
    }

    /// The region footprint is the cache's speculative-line count, on both
    /// engines: under a `b`-line budget, a region touching exactly `b`
    /// distinct lines commits with footprint `b`, and one touching `b + 1`
    /// aborts `Overflow` with its stores rolled back. With no budget, a
    /// region touching 100 lines, one per L1 set, commits with footprint
    /// 100.
    #[test]
    fn line_budget_and_footprint_count_distinct_lines() {
        for b in [1u32, 3, 8] {
            let budget = FaultPlan::overflow_budget(u64::from(b));
            let (out, stats) = run_both_engines(&store_lines_region(b), 4, &budget);
            assert_eq!(out, Ok(Some(Value::Int(1))), "{b} lines fit the budget");
            assert_eq!((stats.commits, stats.aborts.total()), (1, 0));
            assert_eq!(stats.region_footprint.max, u64::from(b));
            let (out, stats) = run_both_engines(&store_lines_region(b + 1), 4, &budget);
            assert_eq!(out, Ok(Some(Value::Int(0))), "{b} + 1 lines roll back");
            assert_eq!((stats.commits, stats.aborts.total()), (0, 1));
            assert_eq!(stats.aborts.get(AbortReason::Overflow), 1);
        }
        let (out, stats) = run_both_engines(&store_lines_region(100), 4, &FaultPlan::none());
        assert_eq!(out, Ok(Some(Value::Int(1))));
        assert_eq!((stats.commits, stats.aborts.total()), (1, 0));
        assert_eq!(stats.region_footprint.max, 100);
    }

    /// The loop of the schedule test: `iters` times, a region of `k`
    /// straight-line adds and its end (`k + 1` in-region uops), then the
    /// counter's decrement and back branch outside it. An abort's alternate
    /// path is that same decrement, so the method returns `k` per commit.
    fn region_loop(k: usize, iters: i64) -> Vec<Uop> {
        let (n, one, sum, zero) = (MReg(0), MReg(1), MReg(2), MReg(3));
        let mut uops = vec![
            Uop::Const { dst: n, imm: iters },
            Uop::Const { dst: one, imm: 1 },
            Uop::RegionBegin {
                region: 0,
                alt: k + 4,
            },
        ];
        uops.extend((0..k).map(|_| Uop::Alu {
            op: BinOp::Add,
            dst: sum,
            a: sum,
            b: one,
        }));
        uops.extend([
            Uop::RegionEnd { region: 0 },
            Uop::Alu {
                op: BinOp::Sub,
                dst: n,
                a: n,
                b: one,
            },
            Uop::Br {
                op: CmpOp::Ne,
                a: n,
                b: zero,
                target: 2,
            },
            Uop::Ret { src: Some(sum) },
        ]);
        uops
    }

    /// The oracle for [`region_loop`] under `plan`: the per-uop draw the
    /// injection schedule replaced. Every in-region uop is accounted, then
    /// aborts on an interrupt (a multiple of `interrupt_interval` retired
    /// uops) or else draws one LCG step, whose conflict bits are tested
    /// before its spurious bits. Returns the commits, the interrupt,
    /// conflict and spurious aborts, and the retired and in-region uops.
    fn drawn_outcome(plan: &FaultPlan, k: u64, iters: u64) -> (u64, [u64; 3], u64, u64) {
        let mut rng = plan.seed | 1;
        let (conflict, spurious) = (plan.conflict_per_miljon, plan.spurious_per_miljon);
        let (mut commits, mut aborts) = (0, [0; 3]);
        // The two constants before the loop.
        let (mut uops, mut region_uops) = (2u64, 0);
        for _ in 0..iters {
            uops += 1; // aregion_begin
            let mut fired = None;
            for _ in 0..=k {
                uops += 1;
                region_uops += 1;
                if plan.interrupt_interval > 0 && uops.is_multiple_of(plan.interrupt_interval) {
                    fired = Some(0);
                    break;
                }
                if conflict > 0 || spurious > 0 {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    if conflict > 0 && (rng >> 11) % 1_000_000 < conflict {
                        fired = Some(1);
                        break;
                    }
                    if spurious > 0 && (rng >> 29) % 1_000_000 < spurious {
                        fired = Some(2);
                        break;
                    }
                }
            }
            match fired {
                Some(i) => aborts[i] += 1,
                None => commits += 1,
            }
            uops += 2; // the decrement and the back branch
        }
        // The return and its two linkage uops.
        (commits, aborts, uops + 3, region_uops)
    }

    const LOOP_ITERS: u64 = 200;

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 256,
            ..proptest::ProptestConfig::default()
        })]

        /// Injected aborts are scheduled stops that land exactly where the
        /// per-uop draw they replaced fired, on both engines: random seeds,
        /// conflict and spurious rates, and small interrupt intervals, so
        /// interrupts and draw hits often fall in one region or on one uop,
        /// and stops fall mid-block and on the region's end.
        #[test]
        fn injection_schedule_matches_the_per_uop_draw(
            seed in proptest::prelude::any::<u64>(),
            conflict in proptest::prop_oneof![proptest::prelude::Just(0u64), 1_000u64..200_000],
            spurious in proptest::prop_oneof![proptest::prelude::Just(0u64), 1_000u64..200_000],
            interval in proptest::prop_oneof![
                proptest::prelude::Just(0u64),
                proptest::prelude::Just(7u64),
                proptest::prelude::Just(13u64),
                proptest::prelude::Just(50u64),
                proptest::prelude::Just(97u64),
            ],
            k in 1usize..40,
        ) {
            let plan = FaultPlan {
                seed,
                conflict_per_miljon: conflict,
                interrupt_interval: interval,
                spurious_per_miljon: spurious,
                ..FaultPlan::none()
            };
            let (commits, aborts, uops, region_uops) = drawn_outcome(&plan, k as u64, LOOP_ITERS);
            let (out, stats) = run_both_engines(&region_loop(k, LOOP_ITERS as i64), 4, &plan);
            let reasons = [AbortReason::Interrupt, AbortReason::Conflict, AbortReason::Spurious];
            assert_eq!(
                (stats.commits, reasons.map(|r| stats.aborts.get(r)), stats.uops),
                (commits, aborts, uops),
                "{plan:?}, k = {k}"
            );
            assert_eq!(stats.region_uops, region_uops, "{plan:?}, k = {k}");
            assert_eq!(stats.aborts.total(), aborts.iter().sum::<u64>());
            assert_eq!(out, Ok(Some(Value::Int(k as i64 * commits as i64))));
        }
    }
}
