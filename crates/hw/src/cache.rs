//! Two-level data-cache model with per-line speculative read/write bits.
//!
//! Exactly the paper's §3.3 implementation sketch: "the data cache retains
//! the data footprint of the atomic region ... Each cache line is extended
//! with two bits for tracking which addresses have been read and written in
//! the atomic region. These addresses are exposed to the coherency mechanism
//! to observe invalidations. Flash clear operations are used to commit
//! and/or abort speculative state." Evicting a speculatively-accessed line
//! overflows the region (best-effort hardware → abort). So only the L1
//! carries the bits: a live region's lines are all L1-resident, and the L2
//! is a plain LRU backstop.
//!
//! The flash clear itself is modeled the way real hardware builds it: the
//! speculative R/W "bits" are epoch tags compared against a region epoch, so
//! a commit clears every line's speculative state by bumping one counter —
//! O(1), like the single wired clear line it models — instead of sweeping
//! the array. Aborts still sweep, but only to invalidate speculatively
//! written lines, and aborts are the rare case.

use crate::config::HwConfig;
use crate::stats::PredStats;

/// The "no predictor slot" site id: passed for accesses that have no sealed
/// memory-uop identity (alloc header writes, fallback-lock probes, per-uop
/// interpreter paths without sealed code) and stored in
/// `SbInfo::mem_site` for non-memory pcs. The way predictor skips these.
pub const NO_SITE: u32 = u32::MAX;

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// L1 data cache hit.
    L1,
    /// L2 unified cache hit.
    L2,
    /// Miss to memory.
    Memory,
}

/// Epoch value meaning "bit never set" (no region epoch ever matches it).
const NEVER: u64 = 0;

/// Tag value meaning "line invalid". Real tags are line indices
/// (`addr >> log2(line_bytes)`), which cannot reach `u64::MAX`, so validity
/// folds into the tag word and the hit-path scan is a single array sweep.
const TAG_INVALID: u64 = u64::MAX;

/// One cache level, struct-of-arrays: the per-access tag scan touches one
/// contiguous `ways`-sized window of `tags` (a single hardware cache line
/// for any sane associativity) instead of striding across fat line records;
/// LRU ages and speculative epochs live in parallel arrays touched only on
/// a hit index or an install.
#[derive(Debug, Clone, PartialEq)]
struct Level {
    sets: u64,
    ways: u64,
    /// `sets - 1` when the set count is a power of two (every shipped
    /// config), letting the per-access set index be a mask instead of a
    /// hardware `div` — this runs on every simulated memory uop.
    set_mask: Option<u64>,
    tags: Vec<u64>,
    lru: Vec<u64>,
    /// Region epoch in which each line was last speculatively read; the
    /// read bit is "set" iff this equals the cache's current epoch. Empty
    /// in a level without speculative bits (the L2).
    spec_read_epoch: Vec<u64>,
    /// Region epoch in which each line was last speculatively written.
    spec_write_epoch: Vec<u64>,
    tick: u64,
}

impl Level {
    /// A level of `sets × ways` lines, with per-line speculative bits iff
    /// `speculative`: only the L1 carries them, since a region's lines are
    /// all L1-resident (evicting one aborts the region).
    fn new(sets: u64, ways: u64, speculative: bool) -> Self {
        let n = (sets * ways) as usize;
        let spec_n = if speculative { n } else { 0 };
        Level {
            sets,
            ways,
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            tags: vec![TAG_INVALID; n],
            lru: vec![0; n],
            spec_read_epoch: vec![NEVER; spec_n],
            spec_write_epoch: vec![NEVER; spec_n],
            tick: 0,
        }
    }

    /// Whether line slot `i` carries speculative bits of `epoch` (never, in
    /// a level without them).
    fn spec(&self, i: usize, epoch: u64) -> bool {
        self.spec_read_epoch.get(i) == Some(&epoch) || self.spec_write_epoch.get(i) == Some(&epoch)
    }

    /// Clears line slot `i`'s speculative bits, if the level has them.
    fn clear_spec(&mut self, i: usize) {
        if let Some(e) = self.spec_read_epoch.get_mut(i) {
            *e = NEVER;
            self.spec_write_epoch[i] = NEVER;
        }
    }

    /// Restores construction state in place, reusing the allocations.
    fn reset(&mut self) {
        self.tags.fill(TAG_INVALID);
        self.lru.fill(0);
        self.spec_read_epoch.fill(NEVER);
        self.spec_write_epoch.fill(NEVER);
        self.tick = 0;
    }

    #[inline]
    fn set_range(&self, line_addr: u64) -> std::ops::Range<usize> {
        let set = match self.set_mask {
            Some(m) => (line_addr & m) as usize,
            None => (line_addr % self.sets) as usize,
        };
        let w = self.ways as usize;
        set * w..(set + 1) * w
    }

    /// Fixed-arity tag-compare window: with the way count a const generic
    /// the sweep unrolls into straight-line compare/select code over a
    /// `[u64; W]`, which the host can turn into one or two vector compares
    /// for the shipped associativities. Returns the in-set way index of the
    /// matching tag, or `usize::MAX`.
    #[inline(always)]
    fn scan_fixed<const W: usize>(win: &[u64; W], line_addr: u64) -> usize {
        let mut hit = usize::MAX;
        for (k, &t) in win.iter().enumerate() {
            if t == line_addr {
                hit = k;
            }
        }
        hit
    }

    #[inline]
    fn lookup(&mut self, line_addr: u64) -> Option<usize> {
        self.tick += 1;
        let r = self.set_range(line_addr);
        let base = r.start;
        // Branchless scan: sweep the whole (tiny) set instead of exiting at
        // the first match. An early-exit loop leaves at a data-dependent
        // iteration, which costs the *host* a branch mispredict on nearly
        // every simulated access; the fixed-trip select compiles to
        // straight-line compare/cmov code. A tag match implies validity: no
        // real line is `TAG_INVALID`. The shipped associativities (2/4/8)
        // dispatch to monomorphized fixed-arity windows; anything else takes
        // the generic runtime-trip sweep.
        let hit = match self.ways {
            2 => Self::scan_fixed::<2>(
                self.tags[base..base + 2].try_into().expect("2-way window"),
                line_addr,
            ),
            4 => Self::scan_fixed::<4>(
                self.tags[base..base + 4].try_into().expect("4-way window"),
                line_addr,
            ),
            8 => Self::scan_fixed::<8>(
                self.tags[base..base + 8].try_into().expect("8-way window"),
                line_addr,
            ),
            _ => {
                let mut h = usize::MAX;
                for (k, &t) in self.tags[r].iter().enumerate() {
                    if t == line_addr {
                        h = k;
                    }
                }
                h
            }
        };
        if hit != usize::MAX {
            let i = base + hit;
            self.lru[i] = self.tick;
            return Some(i);
        }
        None
    }

    /// Installs a line, returning the evicted line if it had speculative
    /// bits set (overflow signal); prefers evicting non-speculative lines.
    fn install(&mut self, line_addr: u64, epoch: u64) -> (usize, bool) {
        self.tick += 1;
        let r = self.set_range(line_addr);
        // Choose victim: invalid > non-speculative LRU > speculative LRU.
        let mut victim = r.start;
        let mut best = (2u8, u64::MAX); // (class, lru)
        for i in r {
            let class = if self.tags[i] == TAG_INVALID {
                0
            } else if !self.spec(i, epoch) {
                1
            } else {
                2
            };
            if (class, self.lru[i]) < best {
                best = (class, self.lru[i]);
                victim = i;
            }
        }
        let overflow = self.tags[victim] != TAG_INVALID && self.spec(victim, epoch);
        self.tags[victim] = line_addr;
        self.lru[victim] = self.tick;
        self.clear_spec(victim);
        (victim, overflow)
    }
}

/// One seal-site way-predictor entry: the last `(line, L1 way slot)` the
/// owning memory-uop site resolved through the full path. `line ==
/// TAG_INVALID` means never trained. Entries are *hints*, never trusted:
/// every consult validates the cached slot against the live L1 tag array,
/// so stale entries (evicted, invalidated, aborted-away lines) degrade to
/// mispredicts, not wrong answers.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PredEntry {
    line: u64,
    idx: u32,
}

const PRED_EMPTY: PredEntry = PredEntry {
    line: TAG_INVALID,
    idx: 0,
};

/// The simulated cache hierarchy, fronted by a per-seal-site way predictor.
///
/// The way predictor (`DESIGN.md` §16) gives every sealed memory-uop site
/// one entry naming the last `(line, L1 way)` it resolved, so a site that
/// keeps touching one line skips the set scan and the install path. Two
/// invariants make it invisible:
///
/// * **Validity.** Predictor entries carry no epoch. Every consult
///   re-validates `tags[idx] == line` against the live array instead, which
///   is exact: tags store full line indices, so a match proves the line is
///   resident at that slot *right now*, whatever evictions, aborts, or
///   invalidations happened since training.
/// * **Recency.** A predicted hit bumps the way's LRU age at once, exactly
///   as the set scan's hit would, so LRU state — and with it every victim
///   choice, hit level, and overflow signal — matches the unpredicted
///   reference tick for tick.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheSim {
    l1: Level,
    l2: Level,
    line_bytes: u64,
    /// `log2(line_bytes)` when the line size is a power of two, so the
    /// per-access line index is a shift instead of a hardware `div`.
    line_shift: Option<u32>,
    /// Current region epoch; starts above [`NEVER`] so default lines are
    /// never speculative.
    epoch: u64,
    /// `HwConfig::way_predict` — `false` disables the per-site predictor
    /// (the `unpredicted()` reference leg).
    way_predict: bool,
    /// Per-site predictor entries, indexed by global seal-site id and grown
    /// on demand at training time.
    pred: Vec<PredEntry>,
    /// Predictor consult/hit/mispredict counters (kept out of `RunStats` —
    /// see [`PredStats`]).
    pred_stats: PredStats,
    /// O(1)-maintained count of L1 lines holding current-epoch speculative
    /// state: the in-flight region's footprint ([`CacheSim::footprint`]).
    spec_count: u32,
    /// Extra cycles × width charged per L2 hit, `(l2_latency - l1_latency)
    /// / mlp * width`, precomputed at construction so the miss path pays no
    /// hardware divide. The machine's one definition of miss latency.
    pub(crate) l2_extra_cxw: u64,
    /// As [`Self::l2_extra_cxw`] for misses to memory:
    /// `(mem_latency - l1_latency) / mlp * width`.
    pub(crate) mem_extra_cxw: u64,
}

impl CacheSim {
    /// Builds the hierarchy described by `cfg`.
    pub fn new(cfg: &HwConfig) -> Self {
        let mut sim = CacheSim {
            l1: Level::new(cfg.l1_sets(), cfg.l1_ways, true),
            l2: Level::new(cfg.l2_sets(), cfg.l2_ways, false),
            line_bytes: 0,
            line_shift: None,
            epoch: 0,
            way_predict: false,
            pred: Vec::new(),
            pred_stats: PredStats::default(),
            spec_count: 0,
            l2_extra_cxw: 0,
            mem_extra_cxw: 0,
        };
        sim.init_scalars(cfg);
        sim
    }

    /// Initializes every non-array field to its construction value for
    /// `cfg` — the single source shared by [`CacheSim::new`] and
    /// [`CacheSim::reset`], so the two can never drift field-by-field.
    fn init_scalars(&mut self, cfg: &HwConfig) {
        self.line_bytes = cfg.line_bytes;
        self.line_shift = cfg
            .line_bytes
            .is_power_of_two()
            .then(|| cfg.line_bytes.trailing_zeros());
        self.epoch = NEVER + 1;
        self.way_predict = cfg.way_predict;
        self.pred_stats = PredStats::default();
        self.spec_count = 0;
        self.l2_extra_cxw = (cfg.l2_latency - cfg.l1_latency) / cfg.mlp * cfg.width;
        self.mem_extra_cxw = (cfg.mem_latency - cfg.l1_latency) / cfg.mlp * cfg.width;
    }

    /// Restores the hierarchy to the state [`CacheSim::new`] would build
    /// for `cfg`. When the geometry matches the current one, every array is
    /// cleared in place (the allocations — megabytes for an L2 — are the
    /// whole point of recycling a simulator across service requests);
    /// otherwise the hierarchy is rebuilt. Either way the result is
    /// bit-identical to a freshly constructed simulator (debug-asserted).
    pub fn reset(&mut self, cfg: &HwConfig) {
        let same_geometry = self.l1.sets == cfg.l1_sets()
            && self.l1.ways == cfg.l1_ways
            && self.l2.sets == cfg.l2_sets()
            && self.l2.ways == cfg.l2_ways
            && self.line_bytes == cfg.line_bytes;
        if same_geometry {
            self.l1.reset();
            self.l2.reset();
            self.pred.clear();
            self.init_scalars(cfg);
        } else {
            *self = CacheSim::new(cfg);
        }
        debug_assert_eq!(
            *self,
            CacheSim::new(cfg),
            "in-place reset diverged from a fresh simulator"
        );
    }

    /// Whether any seal-site predictor entry is trained — must be `false`
    /// between requests (the cross-request isolation check; a stale entry
    /// is harmless for correctness but would leak timing-irrelevant state
    /// across tenants).
    pub fn pred_trained(&self) -> bool {
        self.pred.iter().any(|e| e.line != TAG_INVALID)
    }

    /// The way predictor's consult/hit/mispredict counters.
    pub fn pred_stats(&self) -> PredStats {
        self.pred_stats
    }

    /// The cache line index of a byte address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        match self.line_shift {
            Some(s) => addr >> s,
            None => addr / self.line_bytes,
        }
    }

    /// Marks the current epoch's speculative bit on L1 way `idx`,
    /// maintaining the O(1) speculative-line counter (a line is counted
    /// once however many bits it accumulates).
    #[inline]
    fn mark_spec(&mut self, idx: usize, write: bool) {
        if !self.l1.spec(idx, self.epoch) {
            self.spec_count += 1;
        }
        if write {
            self.l1.spec_write_epoch[idx] = self.epoch;
        } else {
            self.l1.spec_read_epoch[idx] = self.epoch;
        }
    }

    /// The way-predictor fast path, consulted *before*
    /// [`CacheSim::access_sited`]: `true` iff `site`'s cached `(line, way)`
    /// entry names this line and validation against the live L1 tag array
    /// confirms residency at that slot — an L1 hit that skipped the set
    /// scan and install path. Recency and speculative bits update exactly
    /// as on the full path.
    ///
    /// A hit counts nothing here: the caller counts its hits and hands the
    /// total to `CacheSim::count_pred_hits` (the machine does so once per
    /// run). `false` (cold site, different line, failed validation,
    /// predictor off) means the caller must take the full path, which
    /// retrains the site; a consult that misses counts its probe here.
    // Forced inline: the machine runs it at the head of every memory arm,
    // where plain `#[inline]` left it an out-of-line call; perfbench
    // `steady_sim` gained 1.04x over the parent that way against 1.17x
    // forced (five alternating 8 s pairs each, 2-core x86-64 host).
    #[inline(always)]
    pub fn fast_hit(&mut self, site: u32, addr: u64, write: bool, speculative: bool) -> bool {
        if !self.way_predict || site == NO_SITE {
            return false;
        }
        let line = self.line_of(addr);
        let e = *self.pred.get(site as usize).unwrap_or(&PRED_EMPTY);
        if e.line != line {
            // Never trained, or trained for another line: a plain miss.
            self.pred_stats.probes += 1;
            return false;
        }
        let idx = e.idx as usize;
        if self.l1.tags[idx] != line {
            // The line left that slot since training (eviction, abort
            // invalidation, coherence): deoptimize to the full path.
            self.pred_stats.probes += 1;
            self.pred_stats.mispredicts += 1;
            return false;
        }
        // The bump `Level::lookup` makes on a hit.
        self.l1.tick += 1;
        self.l1.lru[idx] = self.l1.tick;
        if speculative {
            self.mark_spec(idx, write);
        }
        true
    }

    /// Adds `n` hits that [`CacheSim::fast_hit`] returned to the predictor
    /// counters: each was one probe and one hit.
    pub(crate) fn count_pred_hits(&mut self, n: u64) {
        self.pred_stats.probes += n;
        self.pred_stats.hits += n;
    }

    /// Records `site`'s full-path resolution `(line, way)` in its predictor
    /// entry, growing the table on first sight of a site.
    #[inline]
    fn train(&mut self, site: u32, line: u64, idx: usize) {
        if !self.way_predict || site == NO_SITE {
            return;
        }
        let s = site as usize;
        if s >= self.pred.len() {
            self.pred.resize(s + 1, PRED_EMPTY);
        }
        self.pred[s] = PredEntry {
            line,
            idx: idx as u32,
        };
    }

    /// Performs an access. When `speculative` (inside an atomic region) the
    /// touched L1 line's read/write bit is set. Returns the servicing level
    /// and whether installing the line evicted speculative state (region
    /// overflow — the caller must abort).
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool, speculative: bool) -> (HitLevel, bool) {
        self.access_sited(NO_SITE, addr, write, speculative)
    }

    /// [`CacheSim::access`] with a seal-site identity: the full path, which
    /// additionally retrains `site`'s predictor entry with the L1 slot the
    /// access resolved to. `NO_SITE` trains nothing.
    #[inline]
    pub fn access_sited(
        &mut self,
        site: u32,
        addr: u64,
        write: bool,
        speculative: bool,
    ) -> (HitLevel, bool) {
        let line = self.line_of(addr);
        let (level, idx, overflow) = match self.l1.lookup(line) {
            Some(i) => (HitLevel::L1, i, false),
            None => {
                let level = if self.l2.lookup(line).is_some() {
                    HitLevel::L2
                } else {
                    // No L2 line is speculative: the victim is plain LRU.
                    self.l2.install(line, NEVER);
                    HitLevel::Memory
                };
                let (i, ovf) = self.l1.install(line, self.epoch);
                (level, i, ovf)
            }
        };
        if overflow {
            // The evicted victim carried current-epoch speculative bits;
            // its state left the cache with it.
            debug_assert!(self.spec_count > 0);
            self.spec_count -= 1;
        }
        if speculative {
            self.mark_spec(idx, write);
        }
        self.train(site, line, idx);
        (level, overflow)
    }

    /// Commits the current region: flash-clears all speculative bits (a
    /// single epoch bump — the O(1) wired clear the paper describes).
    pub fn commit_region(&mut self) {
        self.epoch += 1;
        self.spec_count = 0;
    }

    /// Aborts the current region: speculatively-written lines are
    /// invalidated (their data is rolled back architecturally by the undo
    /// log); read bits are flash-cleared.
    pub fn abort_region(&mut self) {
        for (i, e) in self.l1.spec_write_epoch.iter().enumerate() {
            if *e == self.epoch {
                self.l1.tags[i] = TAG_INVALID;
            }
        }
        self.epoch += 1;
        self.spec_count = 0;
    }

    /// The in-flight region's footprint: the number of L1 lines holding
    /// current-epoch speculative state, read from the maintained counter
    /// with no scan in any build (the machine reads it on every in-region
    /// access and every commit). Every in-region access marks its line, and
    /// a marked line leaves L1 only through an eviction that reports
    /// overflow or an invalidation that reports a conflict, both of which
    /// abort the region; so while a region lives, this counts exactly the
    /// distinct lines it has touched.
    #[inline]
    pub(crate) fn footprint(&self) -> u64 {
        u64::from(self.spec_count)
    }

    /// Number of L1 lines holding current-epoch speculative state (the
    /// region footprint), checked in debug builds against an O(sets×ways)
    /// scan of the array (the invariant validator calls this on every
    /// commit and abort in validation mode).
    pub fn spec_lines(&self) -> usize {
        debug_assert_eq!(
            self.spec_count as usize,
            self.spec_lines_scan(),
            "maintained speculative-line counter out of sync with the array scan"
        );
        self.spec_count as usize
    }

    /// The reference O(sets×ways) scan the counter replaces; retained as
    /// the debug-mode oracle for [`CacheSim::spec_lines`].
    fn spec_lines_scan(&self) -> usize {
        (0..self.l1.tags.len())
            .filter(|&i| self.l1.tags[i] != TAG_INVALID && self.l1.spec(i, self.epoch))
            .count()
    }

    /// An external coherence invalidation for `addr`: the line is removed
    /// from *both* levels (the model is coherence-inclusive: an external
    /// writer owns the line exclusively, so no level may keep a stale
    /// copy). Returns `true` if it hit a line in the current region's read
    /// or write set (conflict — the caller must abort the region).
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let line = self.line_of(addr);
        self.invalidate_line(line)
    }

    /// [`CacheSim::invalidate`] keyed by line index — the form the
    /// coherence directory's drain path uses (its messages carry lines,
    /// not addresses).
    pub fn invalidate_line(&mut self, line: u64) -> bool {
        for i in self.l2.set_range(line) {
            if self.l2.tags[i] == line {
                self.l2.tags[i] = TAG_INVALID;
                break;
            }
        }
        let r = self.l1.set_range(line);
        for i in r {
            if self.l1.tags[i] == line {
                let conflict = self.l1.spec(i, self.epoch);
                if conflict {
                    debug_assert!(self.spec_count > 0);
                    self.spec_count -= 1;
                }
                self.l1.tags[i] = TAG_INVALID;
                self.l1.clear_spec(i);
                return conflict;
            }
        }
        false
    }

    /// An external coherence *downgrade* for `line` (a remote reader took
    /// a shared copy). A shared copy may stay resident, so on the
    /// non-conflict path this is a no-op — unless the line carries a
    /// current-epoch speculative *write* bit: the remote read observed
    /// data this region has not committed, which is a conflict, and the
    /// line (whose data the undo log rolls back architecturally) is fully
    /// invalidated exactly as [`CacheSim::invalidate_line`] would.
    /// Returns `true` on conflict — the caller must abort the region.
    pub fn downgrade_line(&mut self, line: u64) -> bool {
        for i in self.l1.set_range(line) {
            if self.l1.tags[i] == line {
                if self.l1.spec_write_epoch[i] == self.epoch {
                    return self.invalidate_line(line);
                }
                return false;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> CacheSim {
        CacheSim::new(&HwConfig::baseline())
    }

    #[test]
    fn miss_then_hit() {
        let mut c = sim();
        assert_eq!(c.access(0x1000, false, false).0, HitLevel::Memory);
        assert_eq!(c.access(0x1000, false, false).0, HitLevel::L1);
        assert_eq!(c.access(0x1008, false, false).0, HitLevel::L1, "same line");
        assert_eq!(
            c.access(0x1040, false, false).0,
            HitLevel::Memory,
            "next line"
        );
    }

    #[test]
    fn l2_backstop() {
        let mut c = sim();
        c.access(0x1000, false, false);
        // Evict from L1 by filling its set (128 sets * 64B = 8KB stride).
        for k in 1..=4 {
            c.access(0x1000 + k * 8192, false, false);
        }
        // 0x1000 evicted from L1 but still in L2.
        assert_eq!(c.access(0x1000, false, false).0, HitLevel::L2);
    }

    #[test]
    fn speculative_bits_and_commit() {
        let mut c = sim();
        c.access(0x2000, false, true);
        c.access(0x3000, true, true);
        assert_eq!(c.spec_lines(), 2);
        c.commit_region();
        assert_eq!(c.spec_lines(), 0);
        // Data survives commit.
        assert_eq!(c.access(0x2000, false, false).0, HitLevel::L1);
    }

    #[test]
    fn abort_invalidates_written_lines_only() {
        let mut c = sim();
        c.access(0x2000, false, true); // read set
        c.access(0x3000, true, true); // write set
        c.abort_region();
        assert_eq!(c.spec_lines(), 0);
        assert_eq!(
            c.access(0x2000, false, false).0,
            HitLevel::L1,
            "read line survives"
        );
        assert_ne!(
            c.access(0x3000, false, false).0,
            HitLevel::L1,
            "written line invalidated"
        );
    }

    #[test]
    fn overflow_when_set_full_of_speculative_lines() {
        let mut c = sim();
        // Fill one L1 set (4 ways) with speculative lines; the 5th evicts one.
        for k in 0..4u64 {
            let (_, ovf) = c.access(0x1000 + k * 8192, true, true);
            assert!(!ovf);
        }
        let (_, ovf) = c.access(0x1000 + 4 * 8192, true, true);
        assert!(ovf, "fifth speculative line in a 4-way set overflows");
    }

    #[test]
    fn conflict_detection() {
        let mut c = sim();
        c.access(0x5000, false, true);
        assert!(
            c.invalidate(0x5008),
            "invalidation of read-set line conflicts"
        );
        assert!(!c.invalidate(0x9000), "unrelated line: no conflict");
        c.access(0x6000, false, false);
        c.commit_region();
        assert!(!c.invalidate(0x6000), "non-speculative line: no conflict");
    }

    #[test]
    fn invalidate_removes_the_line_from_both_levels() {
        let mut c = sim();
        c.access(0x1000, false, false); // resident in L1 and L2
        c.invalidate(0x1000);
        assert_eq!(
            c.access(0x1000, false, false).0,
            HitLevel::Memory,
            "coherence-inclusive: the L2 copy is gone too"
        );
    }

    #[test]
    fn spec_counter_tracks_overflow_and_conflict_evictions() {
        let mut c = sim();
        for k in 0..4u64 {
            c.access(0x1000 + k * 8192, true, true);
        }
        assert_eq!(c.spec_lines(), 4);
        let (_, ovf) = c.access(0x1000 + 4 * 8192, true, true);
        assert!(ovf);
        assert_eq!(c.spec_lines(), 4, "victim left with its bits, +1 new line");
        assert!(c.invalidate(0x1000 + 4 * 8192));
        assert_eq!(
            c.spec_lines(),
            3,
            "conflicting line left the read/write set"
        );
    }

    /// Drives one access through the production sited discipline: fast path
    /// first, full (training) path on a fast miss — what the machine's
    /// memory arms do, minus timing and the line budget.
    fn sited(c: &mut CacheSim, site: u32, addr: u64, write: bool, spec: bool) -> (HitLevel, bool) {
        if c.fast_hit(site, addr, write, spec) {
            c.count_pred_hits(1);
            (HitLevel::L1, false)
        } else {
            c.access_sited(site, addr, write, spec)
        }
    }

    #[test]
    fn way_predictor_trains_validates_and_deoptimizes() {
        let mut c = sim();
        // Cold site: the consult is a plain miss, the full path trains it.
        assert!(!c.fast_hit(3, 0x1000, false, false));
        c.access_sited(3, 0x1000, false, false);
        let after_train = c.pred_stats();
        assert_eq!(after_train.probes, 1);
        assert_eq!(after_train.hits, 0);
        // Same site, same line: the entry validates and hits. The hit
        // counts nothing itself; the caller folds it in.
        assert!(c.fast_hit(3, 0x1008, false, false));
        assert_eq!(c.pred_stats(), after_train);
        c.count_pred_hits(1);
        assert_eq!(c.pred_stats().probes, 2);
        assert_eq!(c.pred_stats().hits, 1);
        assert_eq!(c.pred_stats().mispredicts, 0);
        // Evict 0x1000 from L1 (fill its 4-way set with an 8 KB stride):
        // the stale entry must fail validation, not claim a hit.
        for k in 1..=4u64 {
            sited(&mut c, 10 + k as u32, 0x1000 + k * 8192, false, false);
        }
        assert!(!c.fast_hit(3, 0x1000, false, false));
        assert_eq!(c.pred_stats().mispredicts, 1);
        // The full path retrains; the site predicts again.
        assert_eq!(c.access_sited(3, 0x1000, false, false).0, HitLevel::L2);
        assert!(c.fast_hit(3, 0x1000, false, false));
    }

    #[test]
    fn predictor_hit_counts_its_line_once_in_the_footprint() {
        let mut c = sim();
        // Train site 7 outside a region, then re-access speculatively: the
        // validated hit is the line's first in-region touch and enters it
        // in the footprint.
        c.access_sited(7, 0x3000, false, false);
        assert_eq!(c.spec_lines(), 0);
        assert!(c.fast_hit(7, 0x3000, false, true));
        assert_eq!(c.spec_lines(), 1, "the validated hit marked the read bit");
        // Repeats, and a write that adds the second bit, leave one line.
        assert!(c.fast_hit(7, 0x3008, false, true));
        assert!(c.fast_hit(7, 0x3000, true, true));
        assert!(c.fast_hit(7, 0x3010, false, true));
        assert_eq!(c.spec_lines(), 1, "one line, however many bits");
        assert_eq!(c.footprint(), 1);
        // A non-speculative hit marks nothing.
        c.commit_region();
        assert!(c.fast_hit(7, 0x3000, true, false));
        assert_eq!(c.spec_lines(), 0);
    }

    #[test]
    fn predictor_never_stale_hits_across_an_abort() {
        let mut c = sim();
        // Speculatively write a line through site 5, then abort: the line
        // is invalidated, and the site must deoptimize (mispredict), never
        // report residency for the dead line.
        sited(&mut c, 5, 0x6000, true, true);
        c.abort_region();
        assert!(!c.fast_hit(5, 0x6000, false, true));
        assert_eq!(c.pred_stats().mispredicts, 1);
        assert_ne!(
            c.access_sited(5, 0x6000, false, true).0,
            HitLevel::L1,
            "the aborted write's line is gone"
        );
    }

    #[test]
    fn sited_discipline_is_bit_identical_to_unpredicted_reference() {
        let mut p = sim();
        let mut r = CacheSim::new(&HwConfig::unpredicted());
        // Two sites alternating lines in the same L1 set, an eviction storm
        // (its victims are chosen by the LRU ages predicted hits bump),
        // speculative marks, a commit, an abort, an invalidate: hit levels,
        // overflow signals, spec-line counts, and the L1 arrays themselves
        // (tags, LRU ticks, spec epochs) must match the predictor-off
        // reference access for access.
        let mut seq: Vec<(u32, u64, bool, bool)> = Vec::new();
        for _ in 0..4 {
            seq.push((0, 0x1000, false, false));
            seq.push((1, 0x3000, true, false));
        }
        for k in 1..=4u64 {
            seq.push((10 + k as u32, 0x1000 + k * 8192, false, false));
        }
        for _ in 0..3 {
            seq.push((0, 0x1000, false, true));
            seq.push((1, 0x3000, true, true));
        }
        for (i, &(site, a, w, s)) in seq.iter().enumerate() {
            assert_eq!(sited(&mut p, site, a, w, s), r.access(a, w, s), "op {i}");
            assert_eq!(p.spec_lines(), r.spec_lines(), "op {i}");
            assert_eq!(p.l1, r.l1, "op {i}: L1 state drifted");
        }
        p.commit_region();
        r.commit_region();
        for &(site, a, w, _) in &seq[..6] {
            assert_eq!(sited(&mut p, site, a, w, true), r.access(a, w, true));
        }
        p.abort_region();
        r.abort_region();
        assert_eq!(p.invalidate(0x3000), r.invalidate(0x3000));
        for (i, &(site, a, w, s)) in seq.iter().enumerate() {
            assert_eq!(sited(&mut p, site, a, w, s), r.access(a, w, s), "re {i}");
            assert_eq!(p.spec_lines(), r.spec_lines(), "re {i}");
            assert_eq!(p.l1, r.l1, "re {i}: L1 state drifted");
        }
    }

    #[test]
    fn reset_clears_the_predictor_bit_exactly() {
        let cfg = HwConfig::baseline();
        let mut c = CacheSim::new(&cfg);
        sited(&mut c, 2, 0x1000, false, false);
        sited(&mut c, 9, 0x2000, true, true);
        assert!(c.pred_trained());
        c.reset(&cfg);
        assert!(!c.pred_trained(), "reset must drop trained entries");
        assert_eq!(c.pred_stats(), PredStats::default());
        assert_eq!(c, CacheSim::new(&cfg), "reset is bit-identical to fresh");
    }

    #[test]
    fn epoch_clear_does_not_leak_stale_bits_across_regions() {
        let mut c = sim();
        // Region 1 touches a line speculatively, commits.
        c.access(0x7000, true, true);
        c.commit_region();
        assert_eq!(c.spec_lines(), 0);
        // Region 2 re-touches the same line non-speculatively: still clean.
        c.access(0x7000, false, false);
        assert_eq!(c.spec_lines(), 0);
        // A conflict probe on it must not see region 1's stale write bit.
        assert!(!c.invalidate(0x7000));
        // Region 3: the line is speculative again only once re-marked.
        c.access(0x8000, false, true);
        c.abort_region();
        c.access(0x8000, false, true);
        assert_eq!(c.spec_lines(), 1);
    }
}
