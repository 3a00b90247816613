//! Hardware configurations (Table 1 of the paper, plus the §6.3 sensitivity
//! variants) and the abort-recovery policy ([`GovernorConfig`] — recovery
//! policy lives here, not with fault *injection*).

use hasp_vm::bytecode::MethodId;

use crate::fault::FaultPlan;
use crate::stats::AbortReason;

/// How [`Machine::exec`](crate::machine::Machine) walks the uop stream.
///
/// Both modes are observably identical — same checksums, same [`RunStats`]
/// (uops, cycles, aborts, class mix), same marker snaps — which the
/// dispatch-equivalence gate asserts on every suite workload. `PerUop` is
/// the reference interpretation; `Superblock` is the production hot path.
///
/// [`RunStats`]: crate::stats::RunStats
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dispatch {
    /// Reference interpretation: fetch, account, and execute one uop at a
    /// time.
    PerUop,
    /// Chained superblock dispatch: maximal straight-line runs execute with
    /// one batched fuel/stats update per block from metadata precomputed at
    /// `CodeCache` install time, and control transfers stay *inside* the
    /// block engine. Sealed terminators link blocks into traces (jumps,
    /// branches), `aregion_begin`/`end`/`abort` are handled inline, and
    /// call/return run on a pooled-frame fast path — the engine hands over
    /// to per-uop stepping only within one block of fuel exhaustion. A
    /// mid-chain abort or trap unapplies the unexecuted block suffix so
    /// every observation point matches [`Dispatch::PerUop`] exactly.
    #[default]
    Superblock,
}

/// The online abort-recovery governor policy: a per-region **tier ladder**
/// (§7 made single-run, extended to the best-effort-HTM policy ladder).
///
/// The hardware reports which region aborted (§3.2); the governor tracks
/// per-region *consecutive-abort streaks* online and walks each region up a
/// four-tier ladder as streaks keep exhausting the retry budget:
///
/// * **Tier 0** — speculate freely (healthy region, no governor state).
/// * **Tier 1** — retry with exponential backoff: a region whose streak
///   reaches [`retry_budget`](Self::retry_budget) has its `aregion_begin`
///   patched to branch straight to the alternate PC for
///   [`cooldown_entries`](Self::cooldown_entries) would-be entries
///   (de-speculation), after which it is re-enabled. Each successive
///   de-speculation doubles the cooldown up to
///   [`max_cooldown`](Self::max_cooldown).
/// * **Tier 2** — fallback-lock subscription: after
///   [`tier2_disables`](Self::tier2_disables) de-speculations the region
///   still speculates, but every `aregion_begin` reads the global fallback
///   lock word into the region's read-set, so a software-path lock holder
///   conflicts the region out; while the region is de-speculated the
///   software path *takes* the lock, giving mutual isolation between
///   hardware and software executions of the same region.
/// * **Tier 3** — permanent software path: after
///   [`tier3_disables`](Self::tier3_disables) further de-speculations every
///   entry branches to the alternate PC under the fallback lock, for good.
///
/// Escalation is **abort-class-aware**: `Interrupt`/`Spurious` aborts are
/// environmental noise and grow no streak; `Conflict`/`Sle` climb the
/// ladder via backoff; a run of [`reform_budget`](Self::reform_budget)
/// consecutive `Overflow`/`Explicit` aborts additionally emits a
/// [`ReformRequest`] asking the harness to re-form the region's boundaries
/// with the offending site excluded (adaptive re-formation) instead of
/// demoting it forever. A calm streak of
/// [`cooldown_entries`](Self::cooldown_entries) consecutive commits halves
/// the cooldown and de-escalates one tier, so transient fault bursts
/// recover while sustained post-profile behavior changes converge to the
/// non-speculative code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GovernorConfig {
    /// Master switch (off = the seed's offline two-pass behavior).
    pub enabled: bool,
    /// Consecutive aborts of one region before it is de-speculated.
    pub retry_budget: u32,
    /// Entries a de-speculated region skips before re-enable (base value of
    /// the exponential backoff).
    pub cooldown_entries: u64,
    /// Backoff ceiling in skipped entries.
    pub max_cooldown: u64,
    /// Consecutive de-speculations before a region escalates to tier 2
    /// (fallback-lock subscription). 0 = never escalate past tier 1.
    pub tier2_disables: u32,
    /// Further de-speculations past tier 2 before the region goes to tier 3
    /// (permanent software path). 0 = never escalate past tier 2.
    pub tier3_disables: u32,
    /// Consecutive `Overflow`/`Explicit` aborts of one region before a
    /// [`ReformRequest`] is emitted (at most one per region per run).
    /// 0 = never request re-formation.
    pub reform_budget: u32,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig::off()
    }
}

impl GovernorConfig {
    /// Governor disabled.
    pub fn off() -> Self {
        GovernorConfig {
            enabled: false,
            retry_budget: 3,
            cooldown_entries: 64,
            max_cooldown: 65_536,
            tier2_disables: 2,
            tier3_disables: 2,
            reform_budget: 4,
        }
    }

    /// The default online policy — the full ladder: 3-abort streaks
    /// de-speculate, 64-entry base cooldown, backoff ceiling of 64K
    /// entries, tier 2 after 2 de-speculations, tier 3 after 2 more,
    /// re-formation requested after 4 consecutive footprint/assert aborts.
    pub fn online() -> Self {
        GovernorConfig {
            enabled: true,
            ..GovernorConfig::off()
        }
    }

    /// The PR 2 policy: retry + exponential backoff only, no fallback-lock
    /// tier, no permanent software path, no re-formation. The ablation
    /// baseline for the ladder.
    pub fn backoff_only() -> Self {
        GovernorConfig {
            enabled: true,
            tier2_disables: 0,
            tier3_disables: 0,
            reform_budget: 0,
            ..GovernorConfig::off()
        }
    }

    /// The ladder capped at tier 2: fallback-lock subscription engages but
    /// regions are never permanently demoted to the software path.
    pub fn to_tier2() -> Self {
        GovernorConfig {
            tier3_disables: 0,
            ..GovernorConfig::online()
        }
    }
}

/// A governor request to *re-form* one region instead of demoting it: the
/// region kept aborting on its speculative footprint or a failed assert
/// (`Overflow`/`Explicit`), which recompilation can actually fix — rerun
/// region formation with the offending boundary excluded and the region
/// re-enters at tier 0.
///
/// The machine only *emits* these ([`Machine::take_reform_requests`]); the
/// experiments harness drains them between run quanta, recompiles via
/// `hasp_opt::compile_program` with the exclusion set grown, and reinstalls
/// the `CodeCache`.
///
/// [`Machine::take_reform_requests`]: crate::machine::Machine::take_reform_requests
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReformRequest {
    /// Method owning the offending region.
    pub method: MethodId,
    /// Per-method region id (index into the method's region table).
    pub region: u32,
    /// The region's formation boundary: the original (pre-replication)
    /// block id that seeded it — stable across recompiles, so it names the
    /// site to exclude. `u32::MAX` when the compiled code carries no
    /// boundary map (hand-built uops).
    pub boundary: u32,
    /// The abort class that triggered the request.
    pub reason: AbortReason,
}

/// Parameters of the simulated machine.
///
/// Defaults reproduce Table 1: a 4.0 GHz, 4-wide out-of-order core with a
/// 128-entry instruction window, 20-cycle branch misprediction penalty,
/// 32 KB 4-way L1 (4-cycle), 4 MB 8-way L2 (20-cycle), 64-byte lines, and
/// 100 ns memory, executing atomic regions on a checkpoint substrate.
#[derive(Debug, Clone, PartialEq)]
pub struct HwConfig {
    /// Display name for experiment reports.
    pub name: &'static str,
    /// Rename/issue/retire width.
    pub width: u64,
    /// Instruction window size (used by the §6.2 region/ROB analysis and the
    /// single-in-flight drain estimate).
    pub window: u64,
    /// Branch misprediction penalty in cycles.
    pub mispredict_penalty: u64,
    /// L1 data cache size in bytes.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: u64,
    /// L1 hit latency (cycles).
    pub l1_latency: u64,
    /// L2 size in bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: u64,
    /// L2 hit latency (cycles).
    pub l2_latency: u64,
    /// Memory latency in cycles (100 ns at 4 GHz = 400).
    pub mem_latency: u64,
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// Average overlap factor for long-latency misses (models MLP/stream
    /// prefetching: stall cycles are `latency / mlp`).
    pub mlp: u64,
    /// Extra stall cycles charged at every `aregion_begin` (Figure 9's
    /// "+ 20-cycle overhead" configuration; 0 for the checkpoint substrate).
    pub begin_stall: u64,
    /// Permit only one atomic region in flight: an `aregion_begin` stalls at
    /// decode until the previous region commits (Figure 9's
    /// "single-inflight" configuration).
    pub single_inflight: bool,
    /// Pipeline flush cycles charged on a region abort.
    pub abort_penalty: u64,
    /// Deterministic fault-injection plan (conflicts, interrupts, spurious
    /// aborts, footprint budget, targeted entry aborts).
    pub faults: FaultPlan,
    /// Run the post-abort/post-commit invariant validator (undo log drained,
    /// speculative bits flash-cleared, checkpoint fully restored, region
    /// counters consistent). Architecturally free; intended for tests and
    /// fault campaigns.
    pub validate: bool,
    /// The online abort-recovery governor policy.
    pub governor: GovernorConfig,
    /// Uop-stream dispatch strategy (see [`Dispatch`]).
    pub dispatch: Dispatch,
    /// Arm the seal-site way predictor in front of the dynamic-access set
    /// scan (`DESIGN.md` §16): each sealed memory-uop site caches the last
    /// `(line, L1 way)` it resolved, and a consult validated against the
    /// live tag array skips the scan and install path. Semantics-preserving
    /// — `tests/predictor_equivalence.rs` and the lockstep proptest gate
    /// bit-exactness against the predictor-off reference — so it is on by
    /// default; `false` forces the unpredicted reference model.
    pub way_predict: bool,
}

impl HwConfig {
    /// Table 1's baseline 4-wide out-of-order processor with the
    /// high-performance checkpoint substrate.
    pub fn baseline() -> Self {
        HwConfig {
            name: "chkpt-4wide",
            width: 4,
            window: 128,
            mispredict_penalty: 20,
            l1_bytes: 32 * 1024,
            l1_ways: 4,
            l1_latency: 4,
            l2_bytes: 4 * 1024 * 1024,
            l2_ways: 8,
            l2_latency: 20,
            mem_latency: 400,
            line_bytes: 64,
            mlp: 4,
            begin_stall: 0,
            single_inflight: false,
            abort_penalty: 20,
            faults: FaultPlan::none(),
            validate: false,
            governor: GovernorConfig::off(),
            dispatch: Dispatch::Superblock,
            way_predict: true,
        }
    }

    /// The baseline machine forced onto the reference per-uop dispatch path
    /// (the "before" side of the dispatch benchmark and equivalence gate).
    pub fn per_uop() -> Self {
        HwConfig {
            name: "chkpt-4wide-peruop",
            dispatch: Dispatch::PerUop,
            ..HwConfig::baseline()
        }
    }

    /// The baseline with the seal-site way predictor disabled: every
    /// access resolves through the set-scan reference path. The "before"
    /// side of the predictor-equivalence gate.
    pub fn unpredicted() -> Self {
        HwConfig {
            name: "chkpt-4wide-unpredicted",
            way_predict: false,
            ..HwConfig::baseline()
        }
    }

    /// Figure 9: 20-cycle pipeline stall at every `aregion_begin`.
    pub fn with_begin_overhead() -> Self {
        HwConfig {
            name: "chkpt+20-cycle",
            begin_stall: 20,
            ..HwConfig::baseline()
        }
    }

    /// Figure 9: a single atomic region in flight at a time.
    pub fn single_inflight() -> Self {
        HwConfig {
            name: "chkpt-single-inflight",
            single_inflight: true,
            ..HwConfig::baseline()
        }
    }

    /// §6.3: 2-wide OOO version of the baseline (widths halved).
    pub fn two_wide() -> Self {
        HwConfig {
            name: "chkpt-2wide",
            width: 2,
            ..HwConfig::baseline()
        }
    }

    /// §6.3: 2-wide with all structures halved ("many-core" style).
    pub fn two_wide_half() -> Self {
        HwConfig {
            name: "chkpt-2wide-half",
            width: 2,
            window: 64,
            l1_bytes: 16 * 1024,
            l1_ways: 2,
            l2_bytes: 2 * 1024 * 1024,
            l2_ways: 4,
            mlp: 2,
            ..HwConfig::baseline()
        }
    }

    /// Number of L1 sets.
    pub fn l1_sets(&self) -> u64 {
        self.l1_bytes / self.line_bytes / self.l1_ways
    }

    /// Number of L2 sets.
    pub fn l2_sets(&self) -> u64 {
        self.l2_bytes / self.line_bytes / self.l2_ways
    }
}

impl Default for HwConfig {
    fn default() -> Self {
        HwConfig::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let c = HwConfig::baseline();
        assert_eq!(c.width, 4);
        assert_eq!(c.window, 128);
        assert_eq!(c.mispredict_penalty, 20);
        assert_eq!(c.l1_bytes, 32 * 1024);
        assert_eq!(c.l2_bytes, 4 * 1024 * 1024);
        assert_eq!(c.mem_latency, 400, "100ns at 4GHz");
        assert_eq!(c.l1_sets(), 128);
        assert_eq!(c.l2_sets(), 8192);
    }

    #[test]
    fn baseline_has_no_faults_and_no_governor() {
        let c = HwConfig::baseline();
        assert_eq!(c.faults, FaultPlan::none());
        assert!(!c.validate);
        assert!(!c.governor.enabled);
    }

    #[test]
    fn baseline_dispatches_superblocks_and_per_uop_variant_does_not() {
        assert_eq!(HwConfig::baseline().dispatch, Dispatch::Superblock);
        let r = HwConfig::per_uop();
        assert_eq!(r.dispatch, Dispatch::PerUop);
        // Identical timing model — only the dispatch strategy differs.
        let mut b = HwConfig::baseline();
        b.name = r.name;
        b.dispatch = Dispatch::PerUop;
        assert_eq!(b, r);
    }

    #[test]
    fn fast_path_knobs_default_on_and_ablations_differ_only_in_their_knob() {
        let b = HwConfig::baseline();
        assert!(b.way_predict, "way prediction is the production default");
        let up = HwConfig::unpredicted();
        assert!(!up.way_predict);
        let mut b4 = HwConfig::baseline();
        b4.name = up.name;
        b4.way_predict = false;
        assert_eq!(b4, up, "unpredicted differs from baseline only by the knob");
    }

    #[test]
    fn governor_ladder_policies() {
        let on = GovernorConfig::online();
        assert!(on.enabled);
        assert!(on.tier2_disables > 0 && on.tier3_disables > 0);
        assert!(on.reform_budget > 0);
        let b = GovernorConfig::backoff_only();
        assert!(b.enabled);
        assert_eq!(
            (b.tier2_disables, b.tier3_disables, b.reform_budget),
            (0, 0, 0),
            "backoff-only never leaves tier 1 and never reforms"
        );
        let t2 = GovernorConfig::to_tier2();
        assert!(t2.tier2_disables > 0 && t2.tier3_disables == 0);
        assert_eq!(GovernorConfig::default(), GovernorConfig::off());
    }

    #[test]
    fn sensitivity_variants() {
        assert_eq!(HwConfig::with_begin_overhead().begin_stall, 20);
        assert!(HwConfig::single_inflight().single_inflight);
        assert_eq!(HwConfig::two_wide().width, 2);
        let h = HwConfig::two_wide_half();
        assert_eq!(h.l1_bytes, 16 * 1024);
        assert_eq!(h.window, 64);
    }
}
