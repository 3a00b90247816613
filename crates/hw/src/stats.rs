//! Execution statistics: uop counts, cycles, atomic-region behavior
//! (Table 3), region size and footprint distributions (§6.2), and marker
//! snapshots for the §5 sampling methodology.

use hasp_vm::bytecode::MethodId;

use crate::uop::{UopClass, UOP_CLASSES};
use hasp_vm::fxhash::FxHashMap;

/// Why an atomic region aborted (reported to software through the abort
/// reason register, §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// An assert fired (`aregion_abort` reached).
    Explicit,
    /// A safety check failed inside the region (exception).
    Exception,
    /// The region's footprint evicted speculative state from the L1.
    Overflow,
    /// A coherence invalidation hit the read/write set.
    Conflict,
    /// An interrupt arrived mid-region (best-effort hardware).
    Interrupt,
    /// The program's own elided-lock check found the object's lock word
    /// held: the `aregion_abort` with the reserved id that an SLE monitor
    /// enter lowers to (§4). No coherence signal stands behind it.
    Sle,
    /// The substrate aborted for no architectural reason (spurious or
    /// injected targeted abort — best-effort hardware is allowed to).
    Spurious,
}

/// All abort reasons, for iteration.
pub const ABORT_REASONS: [AbortReason; 7] = [
    AbortReason::Explicit,
    AbortReason::Exception,
    AbortReason::Overflow,
    AbortReason::Conflict,
    AbortReason::Interrupt,
    AbortReason::Sle,
    AbortReason::Spurious,
];

impl AbortReason {
    /// Report label.
    pub fn name(self) -> &'static str {
        match self {
            AbortReason::Explicit => "explicit",
            AbortReason::Exception => "exception",
            AbortReason::Overflow => "overflow",
            AbortReason::Conflict => "conflict",
            AbortReason::Interrupt => "interrupt",
            AbortReason::Sle => "sle",
            AbortReason::Spurious => "spurious",
        }
    }
}

/// Dense per-reason abort counters.
///
/// Aborts are counted on the machine's rollback path; a flat array indexed
/// by [`AbortReason`] keeps that path free of hashing. (The per-static-region
/// aggregation stays in a `HashMap` — it is touched once per region, not per
/// uop, and its key space is program-dependent.)
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct AbortCounts([u64; ABORT_REASONS.len()]);

impl AbortCounts {
    /// Records one abort for `reason`.
    pub fn record(&mut self, reason: AbortReason) {
        self.0[reason as usize] += 1;
    }

    /// The count for `reason`.
    pub fn get(&self, reason: AbortReason) -> u64 {
        self.0[reason as usize]
    }

    /// Total aborts across all reasons.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// `(reason, count)` pairs for every reason with a nonzero count.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (AbortReason, u64)> + '_ {
        ABORT_REASONS
            .iter()
            .map(move |&r| (r, self.get(r)))
            .filter(|&(_, n)| n > 0)
    }

    /// Adds another shard's counts into this one (per-reason sums — the
    /// service harness's report-time shard merge). Commutative and
    /// associative, so the merged totals are independent of which worker
    /// served which request and in what order.
    pub fn merge(&mut self, other: &AbortCounts) {
        for (c, o) in self.0.iter_mut().zip(&other.0) {
            *c += o;
        }
    }
}

impl std::fmt::Debug for AbortCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter_nonzero()).finish()
    }
}

/// Dense per-class retired-uop counters (indexed by [`UopClass`]).
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct UopClassCounts([u64; UOP_CLASSES.len()]);

impl UopClassCounts {
    /// Records one retired uop of `class`.
    #[inline]
    pub fn record(&mut self, class: UopClass) {
        self.0[class as usize] += 1;
    }

    /// The count for `class`.
    pub fn get(&self, class: UopClass) -> u64 {
        self.0[class as usize]
    }

    /// Total across all classes.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Adds a dense per-class delta — the whole-block tally precomputed by
    /// the superblock index, applied once at block entry.
    #[inline]
    pub fn apply_delta(&mut self, delta: &[u32; UOP_CLASSES.len()]) {
        for (c, d) in self.0.iter_mut().zip(delta) {
            *c += u64::from(*d);
        }
    }

    /// Subtracts a dense per-class delta — the unexecuted suffix of a block
    /// that redirected mid-flight, bringing the tallies back to exactly what
    /// the per-uop reference would have recorded.
    #[inline]
    pub fn unapply_delta(&mut self, delta: &[u32; UOP_CLASSES.len()]) {
        for (c, d) in self.0.iter_mut().zip(delta) {
            *c -= u64::from(*d);
        }
    }

    /// `(class, count)` pairs for every class with a nonzero count.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (UopClass, u64)> + '_ {
        UOP_CLASSES
            .iter()
            .map(move |&c| (c, self.get(c)))
            .filter(|&(_, n)| n > 0)
    }
}

impl std::fmt::Debug for UopClassCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter_nonzero()).finish()
    }
}

/// Seal-site way-predictor counters (DESIGN §16).
///
/// Deliberately *not* part of [`RunStats`]: the predictor is a
/// performance-transparent accelerator, and every equivalence gate asserts
/// full `RunStats` equality across predictor-on/off configs. Counters live
/// in the cache model and are read out separately via
/// `Machine::way_pred_stats`. The machine counts its predicted hits apart
/// and folds them in when a run stops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredStats {
    /// Predictor consults: accesses that reached the per-site table (sited
    /// access, predictor enabled).
    pub probes: u64,
    /// Consults whose cached `(line, way)` entry named this access's line
    /// *and* survived validation against the live L1 tag array.
    pub hits: u64,
    /// Consults whose entry named this line but failed tag validation (the
    /// line moved or left the cache since training) — the deoptimize-to-
    /// reference case; cold and different-line consults are plain misses.
    pub mispredicts: u64,
}

/// A histogram over power-of-two-ish buckets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Counts per bucket (one extra for "above the last bound").
    pub counts: Vec<u64>,
    /// Sum of samples.
    pub sum: u64,
    /// Number of samples.
    pub n: u64,
    /// Largest sample.
    pub max: u64,
}

impl Histogram {
    /// Creates a histogram with the given bucket upper bounds.
    pub fn new(bounds: &[u64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            n: 0,
            max: 0,
        }
    }

    /// Records a sample.
    pub fn record(&mut self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.n += 1;
        self.max = self.max.max(v);
    }

    /// Mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// Fraction of samples at or below `bound` (must be a bucket bound).
    pub fn fraction_le(&self, bound: u64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let mut acc = 0;
        for (i, &b) in self.bounds.iter().enumerate() {
            if b <= bound {
                acc += self.counts[i];
            }
        }
        acc as f64 / self.n as f64
    }
}

/// Per-static-region counters (keyed by method + region id).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionCounters {
    /// Dynamic entries (`aregion_begin` executed).
    pub entries: u64,
    /// Aborts.
    pub aborts: u64,
    /// Would-be entries the governor patched straight to the alternate PC
    /// (de-speculated entries; not counted in `entries` — no region began).
    pub gov_skips: u64,
    /// The region's current governor-ladder tier (0, 1 or 3; 0 also for
    /// regions the governor never had to track).
    pub tier: u8,
}

/// Per-static-region counter table: a hash index over stable rows, with a
/// most-recently-used slot in front.
///
/// Dynamic region entries cluster heavily — a loop re-enters the same
/// static region thousands of times in a row — so the hot
/// [`RegionTable::counters_mut`] path almost always resolves through the
/// MRU key compare and never touches the hash map. Rows are append-only,
/// so their indices stay stable for the lifetime of the run.
#[derive(Debug, Clone, Default)]
pub struct RegionTable {
    index: FxHashMap<(MethodId, u32), u32>,
    rows: Vec<((MethodId, u32), RegionCounters)>,
    /// MRU accelerator; derived state, excluded from equality.
    last: Option<((MethodId, u32), u32)>,
}

impl RegionTable {
    /// The counters for `key`, creating a zeroed row on first sight.
    #[inline]
    pub fn counters_mut(&mut self, key: (MethodId, u32)) -> &mut RegionCounters {
        if let Some((k, i)) = self.last {
            if k == key {
                return &mut self.rows[i as usize].1;
            }
        }
        let i = match self.index.get(&key) {
            Some(&i) => i,
            None => {
                let i = self.rows.len() as u32;
                self.index.insert(key, i);
                self.rows.push((key, RegionCounters::default()));
                i
            }
        };
        self.last = Some((key, i));
        &mut self.rows[i as usize].1
    }

    /// The counters for `key`, if the region ever executed.
    pub fn get(&self, key: &(MethodId, u32)) -> Option<&RegionCounters> {
        self.index.get(key).map(|&i| &self.rows[i as usize].1)
    }

    /// Number of distinct static regions seen.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no region ever executed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All `(key, counters)` pairs in first-execution order.
    pub fn iter(&self) -> impl Iterator<Item = ((MethodId, u32), &RegionCounters)> {
        self.rows.iter().map(|(k, c)| (*k, c))
    }

    /// All counters in first-execution order.
    pub fn values(&self) -> impl Iterator<Item = &RegionCounters> {
        self.rows.iter().map(|(_, c)| c)
    }

    /// Merges another table's rows into this one: `entries`, `aborts`, and
    /// `gov_skips` add per static region; `tier` takes the maximum (the
    /// worst ladder tier any contributing run observed). Sums and max are
    /// commutative, so merged counters are independent of shard order —
    /// only the derived *row order* depends on it (compare merged tables
    /// via [`RegionTable::sorted_rows`]).
    pub fn merge(&mut self, other: &RegionTable) {
        for (key, c) in other.iter() {
            let row = self.counters_mut(key);
            row.entries += c.entries;
            row.aborts += c.aborts;
            row.gov_skips += c.gov_skips;
            row.tier = row.tier.max(c.tier);
        }
    }

    /// All `(key, counters)` pairs in key order — the canonical,
    /// first-execution-order-independent view for comparing tables merged
    /// from differently-interleaved shards.
    pub fn sorted_rows(&self) -> Vec<((MethodId, u32), RegionCounters)> {
        let mut rows: Vec<_> = self.rows.clone();
        rows.sort_by_key(|((m, r), _)| (m.0, *r));
        rows
    }
}

impl PartialEq for RegionTable {
    fn eq(&self, other: &Self) -> bool {
        // Row order is first-execution order, which bit-identical runs
        // reproduce exactly; `index`/`last` are derived accelerators.
        self.rows == other.rows
    }
}

impl Eq for RegionTable {}

/// One marker snapshot: the machine state when a marker uop retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkerSnap {
    /// Marker id.
    pub id: u32,
    /// 1-based hit ordinal for this id.
    pub ordinal: u64,
    /// Total uops retired so far.
    pub uops: u64,
    /// Cycles so far.
    pub cycles: u64,
}

/// Aggregate statistics for one machine run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Total uops executed (committed and aborted work both flow through the
    /// pipeline).
    pub uops: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Uops executed inside atomic regions.
    pub region_uops: u64,
    /// Retired uops by class (dense; bumped once per retired uop).
    pub uop_classes: UopClassCounts,
    /// Regions committed.
    pub commits: u64,
    /// Regions aborted, by reason (dense; bumped on the rollback path).
    pub aborts: AbortCounts,
    /// Conditional branches executed / mispredicted.
    pub branches: u64,
    /// Mispredicted conditional branches.
    pub mispredicts: u64,
    /// Indirect branches executed / mispredicted.
    pub indirects: u64,
    /// Mispredicted indirect branches.
    pub indirect_misses: u64,
    /// Memory accesses hitting L1 / L2 / memory.
    pub l1_hits: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// Memory accesses.
    pub mem_accesses: u64,
    /// Committed region sizes in uops (§6.2 ROB analysis).
    pub region_sizes: Histogram,
    /// Committed region footprints in distinct cache lines (§6.2).
    pub region_footprint: Histogram,
    /// Per-static-region entry/abort counters (adaptive recompilation input).
    pub per_region: RegionTable,
    /// Marker snapshots in hit order.
    pub markers: Vec<MarkerSnap>,
    /// Mispredicted-branch sites: (method id, pc) → miss count (diagnosis).
    pub mispredict_sites: FxHashMap<(u32, usize), u64>,
    /// Region entries the governor patched straight to the alternate PC.
    pub governor_skips: u64,
    /// Times the governor de-speculated a region (streak hit the budget).
    pub governor_disables: u64,
    /// Times a de-speculated region's cooldown expired and it re-enabled.
    pub governor_reenables: u64,
    /// Governor-ladder transitions *into* each tier, indexed by tier (0, 1,
    /// 3; slot 2 names no rung and stays 0). `tier_enters[0]` counts
    /// regions the governor started tracking (first non-environmental
    /// abort); healthy never-aborting regions are never tracked and appear
    /// in no tier counter.
    pub tier_enters: [u64; 4],
    /// Governor-ladder transitions *out of* each tier. Per tier,
    /// `tier_enters[t] == tier_exits[t] + tier_live[t]` always holds (the
    /// validator checks it after every commit and abort).
    pub tier_exits: [u64; 4],
    /// Tracked regions currently at each tier (live census; matches a
    /// recount of the governor table exactly).
    pub tier_live: [u64; 4],
    /// Time-in-tier in units of `aregion_begin` consults: how many region
    /// entries (speculative or patched-out) were attempted while the region
    /// sat at each tier. Only governor-tracked regions are counted.
    pub tier_time: [u64; 4],
    /// Retired with the global fallback lock: always 0. Kept only while
    /// the benchmark harness still copies it.
    pub lock_subscriptions: u64,
    /// Retired with the global fallback lock: always 0. Kept only while
    /// the benchmark harness still copies it.
    pub lock_holds: u64,
    /// Re-formation requests the governor emitted (sustained
    /// `Overflow`/`Explicit` aborts; at most one per static region per run).
    pub reform_requests: u64,
    /// Calm-streak de-escalations: a tracked region stepped from tier 1
    /// back to tier 0 after `cooldown_entries` consecutive commits.
    pub governor_recoveries: u64,
    /// Post-abort/post-commit invariant validations that ran (and passed —
    /// a failing validation is a [`crate::fault::MachineFault`]).
    pub validations: u64,
}

impl Default for RunStats {
    fn default() -> Self {
        RunStats {
            uops: 0,
            cycles: 0,
            region_uops: 0,
            uop_classes: UopClassCounts::default(),
            commits: 0,
            aborts: AbortCounts::default(),
            branches: 0,
            mispredicts: 0,
            indirects: 0,
            indirect_misses: 0,
            l1_hits: 0,
            l2_hits: 0,
            mem_accesses: 0,
            region_sizes: Histogram::new(&[16, 32, 64, 128, 256, 512, 1024]),
            region_footprint: Histogram::new(&[1, 2, 4, 8, 10, 16, 32, 50, 100, 128]),
            per_region: RegionTable::default(),
            markers: Vec::new(),
            mispredict_sites: FxHashMap::default(),
            governor_skips: 0,
            governor_disables: 0,
            governor_reenables: 0,
            tier_enters: [0; 4],
            tier_exits: [0; 4],
            tier_live: [0; 4],
            tier_time: [0; 4],
            lock_subscriptions: 0,
            lock_holds: 0,
            reform_requests: 0,
            governor_recoveries: 0,
            validations: 0,
        }
    }
}

impl RunStats {
    /// Total aborts across reasons.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.total()
    }

    /// Fraction of dynamic uops inside atomic regions (Table 3 coverage).
    pub fn coverage(&self) -> f64 {
        if self.uops == 0 {
            0.0
        } else {
            self.region_uops as f64 / self.uops as f64
        }
    }

    /// Abort percentage over region entries (Table 3 "abort %").
    pub fn abort_rate(&self) -> f64 {
        let entries = self.commits + self.total_aborts();
        if entries == 0 {
            0.0
        } else {
            self.total_aborts() as f64 / entries as f64
        }
    }

    /// Aborts per 1000 uops (Table 3).
    pub fn aborts_per_kuop(&self) -> f64 {
        if self.uops == 0 {
            0.0
        } else {
            self.total_aborts() as f64 * 1000.0 / self.uops as f64
        }
    }

    /// Number of unique static regions that executed (Table 3 "unique").
    pub fn unique_regions(&self) -> usize {
        self.per_region.len()
    }

    /// The governor-ladder accounting invariant: per tier, every transition
    /// in is balanced by a transition out or a still-live region
    /// (`enters == exits + live`). The CI smoke leg gates on this.
    pub fn tier_counters_consistent(&self) -> bool {
        (0..4).all(|t| self.tier_enters[t] == self.tier_exits[t] + self.tier_live[t])
    }

    /// Average committed region size in uops (Table 3 "size").
    pub fn avg_region_size(&self) -> f64 {
        self.region_sizes.mean()
    }

    /// Field-by-field comparison against another run, for diagnosing
    /// dispatch-engine divergence: one human-readable line per differing
    /// field (`name: self vs other`), empty when the runs are bit-identical.
    /// Collections (histograms, per-region map, markers, mispredict sites)
    /// are summarized rather than dumped.
    pub fn diff(&self, other: &RunStats) -> Vec<String> {
        let mut out = Vec::new();
        let mut scalar = |name: &str, a: u64, b: u64| {
            if a != b {
                out.push(format!("{name}: {a} vs {b}"));
            }
        };
        scalar("uops", self.uops, other.uops);
        scalar("cycles", self.cycles, other.cycles);
        scalar("region_uops", self.region_uops, other.region_uops);
        scalar("commits", self.commits, other.commits);
        scalar("branches", self.branches, other.branches);
        scalar("mispredicts", self.mispredicts, other.mispredicts);
        scalar("indirects", self.indirects, other.indirects);
        scalar(
            "indirect_misses",
            self.indirect_misses,
            other.indirect_misses,
        );
        scalar("l1_hits", self.l1_hits, other.l1_hits);
        scalar("l2_hits", self.l2_hits, other.l2_hits);
        scalar("mem_accesses", self.mem_accesses, other.mem_accesses);
        scalar("governor_skips", self.governor_skips, other.governor_skips);
        scalar(
            "governor_disables",
            self.governor_disables,
            other.governor_disables,
        );
        scalar(
            "governor_reenables",
            self.governor_reenables,
            other.governor_reenables,
        );
        scalar(
            "reform_requests",
            self.reform_requests,
            other.reform_requests,
        );
        scalar(
            "governor_recoveries",
            self.governor_recoveries,
            other.governor_recoveries,
        );
        for t in 0..4 {
            scalar(
                &format!("tier_enters[{t}]"),
                self.tier_enters[t],
                other.tier_enters[t],
            );
            scalar(
                &format!("tier_exits[{t}]"),
                self.tier_exits[t],
                other.tier_exits[t],
            );
            scalar(
                &format!("tier_live[{t}]"),
                self.tier_live[t],
                other.tier_live[t],
            );
            scalar(
                &format!("tier_time[{t}]"),
                self.tier_time[t],
                other.tier_time[t],
            );
        }
        scalar("validations", self.validations, other.validations);
        for c in UOP_CLASSES {
            if self.uop_classes.get(c) != other.uop_classes.get(c) {
                out.push(format!(
                    "uop_classes[{}]: {} vs {}",
                    c.name(),
                    self.uop_classes.get(c),
                    other.uop_classes.get(c)
                ));
            }
        }
        for r in ABORT_REASONS {
            if self.aborts.get(r) != other.aborts.get(r) {
                out.push(format!(
                    "aborts[{}]: {} vs {}",
                    r.name(),
                    self.aborts.get(r),
                    other.aborts.get(r)
                ));
            }
        }
        if self.region_sizes != other.region_sizes {
            out.push(format!(
                "region_sizes: mean {:.1} max {} vs mean {:.1} max {}",
                self.region_sizes.mean(),
                self.region_sizes.max,
                other.region_sizes.mean(),
                other.region_sizes.max
            ));
        }
        if self.region_footprint != other.region_footprint {
            out.push(format!(
                "region_footprint: mean {:.1} max {} vs mean {:.1} max {}",
                self.region_footprint.mean(),
                self.region_footprint.max,
                other.region_footprint.mean(),
                other.region_footprint.max
            ));
        }
        if self.per_region != other.per_region {
            out.push(format!(
                "per_region: {} static regions vs {}",
                self.per_region.len(),
                other.per_region.len()
            ));
        }
        if self.markers != other.markers {
            let first = self
                .markers
                .iter()
                .zip(&other.markers)
                .position(|(a, b)| a != b)
                .map_or_else(
                    || format!("lengths {} vs {}", self.markers.len(), other.markers.len()),
                    |i| format!("first divergence at hit {i}"),
                );
            out.push(format!("markers: {first}"));
        }
        if self.mispredict_sites != other.mispredict_sites {
            out.push(format!(
                "mispredict_sites: {} sites vs {}",
                self.mispredict_sites.len(),
                other.mispredict_sites.len()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [1, 5, 50, 500] {
            h.record(v);
        }
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.mean(), 139.0);
        assert_eq!(h.max, 500);
        assert_eq!(h.fraction_le(10), 0.5);
        assert_eq!(h.fraction_le(100), 0.75);
    }

    #[test]
    fn derived_rates() {
        let mut s = RunStats {
            uops: 1000,
            region_uops: 700,
            commits: 97,
            ..RunStats::default()
        };
        for _ in 0..3 {
            s.aborts.record(AbortReason::Explicit);
        }
        assert_eq!(s.coverage(), 0.7);
        assert_eq!(s.abort_rate(), 0.03);
        assert_eq!(s.aborts_per_kuop(), 3.0);
    }

    #[test]
    fn dense_abort_counts() {
        let mut a = AbortCounts::default();
        a.record(AbortReason::Conflict);
        a.record(AbortReason::Conflict);
        a.record(AbortReason::Overflow);
        assert_eq!(a.get(AbortReason::Conflict), 2);
        assert_eq!(a.get(AbortReason::Overflow), 1);
        assert_eq!(a.get(AbortReason::Sle), 0);
        assert_eq!(a.total(), 3);
        let nz: Vec<_> = a.iter_nonzero().collect();
        assert_eq!(
            nz,
            vec![(AbortReason::Overflow, 1), (AbortReason::Conflict, 2)]
        );
        assert!(format!("{a:?}").contains("Conflict"));
    }

    #[test]
    fn abort_counts_merge_adds_per_reason() {
        let mut a = AbortCounts::default();
        a.record(AbortReason::Conflict);
        let mut b = AbortCounts::default();
        b.record(AbortReason::Conflict);
        b.record(AbortReason::Overflow);
        a.merge(&b);
        assert_eq!(a.get(AbortReason::Conflict), 2);
        assert_eq!(a.get(AbortReason::Overflow), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn region_table_merge_is_shard_order_independent() {
        let k1 = (MethodId(1), 0u32);
        let k2 = (MethodId(2), 3u32);
        let mut shard_a = RegionTable::default();
        let row = shard_a.counters_mut(k1);
        row.entries = 10;
        row.aborts = 2;
        row.tier = 3;
        let mut shard_b = RegionTable::default();
        let row = shard_b.counters_mut(k2);
        row.entries = 5;
        row.gov_skips = 4;
        row.tier = 3;
        let row = shard_b.counters_mut(k1);
        row.entries = 7;
        row.aborts = 1;
        row.tier = 1;

        // Merge in both orders: first-execution row order differs, but the
        // canonical sorted view must be identical.
        let mut ab = RegionTable::default();
        ab.merge(&shard_a);
        ab.merge(&shard_b);
        let mut ba = RegionTable::default();
        ba.merge(&shard_b);
        ba.merge(&shard_a);
        assert_ne!(ab.iter().next(), ba.iter().next(), "row order differs");
        assert_eq!(ab.sorted_rows(), ba.sorted_rows());
        let merged = ab.get(&k1).expect("k1 merged");
        assert_eq!(merged.entries, 17);
        assert_eq!(merged.aborts, 3);
        assert_eq!(merged.tier, 3, "tier takes the worst observed");
        assert_eq!(ab.get(&k2).expect("k2").gov_skips, 4);
    }

    #[test]
    fn tier_counter_invariant() {
        let mut s = RunStats::default();
        assert!(s.tier_counters_consistent(), "all-zero is balanced");
        // One region tracked at tier 0, escalated to tier 1 and still there.
        s.tier_enters[0] = 1;
        s.tier_exits[0] = 1;
        s.tier_enters[1] = 1;
        s.tier_live[1] = 1;
        assert!(s.tier_counters_consistent());
        // A lost exit breaks the balance.
        s.tier_exits[1] = 1;
        assert!(!s.tier_counters_consistent());
    }

    #[test]
    fn dense_uop_class_counts() {
        use crate::uop::{MReg, Uop};
        let mut c = UopClassCounts::default();
        c.record(
            Uop::Const {
                dst: MReg(0),
                imm: 1,
            }
            .class(),
        );
        c.record(Uop::Poll.class());
        c.record(Uop::Poll.class());
        assert_eq!(c.get(UopClass::Alu), 1);
        assert_eq!(c.get(UopClass::Memory), 2);
        assert_eq!(c.total(), 3);
    }
}
