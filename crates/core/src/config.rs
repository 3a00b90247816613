//! Region-formation parameters (paper §4).

use std::collections::BTreeSet;

use hasp_ir::BlockId;

/// Tunables for atomic-region formation. Defaults are the paper's: cold
/// paths are those with branch bias below 1%, and both the loop-path
/// threshold and the target region size `R` are 200 high-level IR operations.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionConfig {
    /// Edge bias below which a path is considered cold (paper: 1%).
    pub cold_threshold: f64,
    /// `LOOPPATHTHRESHOLD`: loops whose average dynamic path length per entry
    /// meets this run one atomic region per iteration (paper: 200).
    pub loop_path_threshold: f64,
    /// `R` in Equation 1: the desired region size in HIR ops (paper: 200).
    pub target_region_size: u64,
    /// Seed blocks for acyclic tracing must execute at least
    /// `max_block_count / seed_fraction` times (Algorithm 1 uses 100).
    pub seed_fraction: u64,
    /// Safety cap on the number of HIR ops replicated into one region, so a
    /// warm-diamond explosion cannot blow up compile time or the hardware's
    /// buffering (the paper relies on boundary spacing for the same effect).
    pub max_region_ops: u64,
    /// Loops with an average trip count above this are given per-iteration
    /// regions even when each iteration is short, so the footprint of a whole
    /// encapsulated loop cannot overflow the cache (paper §4: "or if the
    /// average number of iterations executed is high enough that the region
    /// might overflow the cache").
    pub max_encapsulated_trip_count: f64,
    /// Boundaries whose region body would be smaller than this many HIR ops
    /// are dropped: a region that cannot amortize its `aregion_begin` /
    /// `aregion_end` pair only costs (the paper's jython analysis shows
    /// exactly this failure mode for "a large number of small atomic
    /// regions").
    pub min_region_ops: u64,
    /// Boundary blocks (original, pre-replication ids) that must *not* seed
    /// a region in this formation run — the adaptive re-formation exclusion
    /// set. A region that keeps aborting on its footprint or a failed
    /// assert names its boundary in a `ReformRequest`; re-running formation
    /// with that boundary excluded either merges the blocks into a
    /// neighboring (differently shaped) region or leaves them
    /// non-speculative, instead of demoting the region forever.
    pub excluded_boundaries: BTreeSet<u32>,
}

impl Default for RegionConfig {
    fn default() -> Self {
        RegionConfig {
            cold_threshold: 0.01,
            loop_path_threshold: 200.0,
            target_region_size: 200,
            seed_fraction: 100,
            max_region_ops: 1200,
            max_encapsulated_trip_count: 64.0,
            min_region_ops: 10,
            excluded_boundaries: BTreeSet::new(),
        }
    }
}

impl RegionConfig {
    /// A configuration scaled to favor smaller regions (used by the
    /// ablation table's `R` sweep).
    pub fn with_target_size(mut self, r: u64) -> Self {
        self.target_region_size = r;
        self.loop_path_threshold = r as f64;
        self
    }

    /// Overrides the cold-path bias threshold.
    pub fn with_cold_threshold(mut self, t: f64) -> Self {
        self.cold_threshold = t;
        self
    }

    /// Adds boundary blocks to the re-formation exclusion set.
    pub fn with_excluded(mut self, boundaries: impl IntoIterator<Item = u32>) -> Self {
        self.excluded_boundaries.extend(boundaries);
        self
    }

    /// True when `b` must not seed a region in this formation run.
    pub fn is_excluded(&self, b: BlockId) -> bool {
        self.excluded_boundaries.contains(&b.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = RegionConfig::default();
        assert_eq!(c.cold_threshold, 0.01);
        assert_eq!(c.loop_path_threshold, 200.0);
        assert_eq!(c.target_region_size, 200);
    }

    #[test]
    fn builders() {
        let c = RegionConfig::default()
            .with_target_size(50)
            .with_cold_threshold(0.05);
        assert_eq!(c.target_region_size, 50);
        assert_eq!(c.loop_path_threshold, 50.0);
        assert_eq!(c.cold_threshold, 0.05);
    }

    #[test]
    fn exclusion_set() {
        let c = RegionConfig::default();
        assert!(!c.is_excluded(BlockId(3)), "default excludes nothing");
        let c = c.with_excluded([3, 7]).with_excluded([9]);
        assert!(c.is_excluded(BlockId(3)));
        assert!(c.is_excluded(BlockId(9)));
        assert!(!c.is_excluded(BlockId(4)));
    }
}
