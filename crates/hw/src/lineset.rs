//! A hybrid set of cache-line indices: unsorted small-vector under a spill
//! threshold, deterministic hash-set above it.
//!
//! Atomic-region footprints are tiny — §6.2 measures most regions under 10
//! distinct lines and 50 lines covering 99% — so the per-uop cost of
//! tracking the footprint is dominated by data-structure constants, not
//! asymptotics. An append-only `Vec<u64>` with a linear membership scan
//! beats both a `HashSet<u64>` and a sorted vector there: no hashing, no
//! buckets, no `Vec::insert` memmove to keep order, one contiguous
//! allocation that the machine's region context clears and reuses across
//! regions, and a probe that is a branch-predictable sweep of at most
//! [`SPILL_LINES`] words — comfortably L1-resident.
//!
//! The tail matters too, though: overflow-style experiments (whole-loop
//! encapsulation, large speculative budgets) can push a single region to
//! thousands of distinct lines, where the linear scan turns quadratic. Past
//! [`SPILL_LINES`] distinct lines the set spills into a deterministic
//! [`FxHashSet`] — O(1) inserts — and stays there for the region's
//! lifetime. Both representations answer insert/contains/len identically (a
//! proptest in `tests/prop_hw.rs` drives them against each other across the
//! threshold).

use hasp_vm::fxhash::FxHashSet;

/// Distinct-line count beyond which the dense vector spills to a hash set.
/// Above any typical committed region footprint in the paper's data, and
/// small enough that a full dense miss-scan stays a few hundred bytes.
pub const SPILL_LINES: usize = 64;

/// A set of cache-line indices: unsorted small-vector, spilling to a hash
/// set past [`SPILL_LINES`] distinct entries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LineSet {
    /// Dense representation (insertion order, deduplicated); emptied on
    /// spill but kept allocated, so a [`LineSet::clear`]ed set reuses it.
    lines: Vec<u64>,
    /// Spilled representation; `Some` once the set outgrew the vector.
    spill: Option<FxHashSet<u64>>,
}

impl LineSet {
    /// An empty set.
    pub fn new() -> Self {
        LineSet::default()
    }

    /// Empties the set back to the dense representation, keeping the dense
    /// buffer's allocation (a spilled set's hash storage is dropped).
    pub fn clear(&mut self) {
        self.lines.clear();
        self.spill = None;
    }

    /// Inserts a line index; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, line: u64) -> bool {
        if let Some(set) = &mut self.spill {
            return set.insert(line);
        }
        if self.lines.contains(&line) {
            return false;
        }
        self.lines.push(line);
        if self.lines.len() > SPILL_LINES {
            self.spill = Some(self.lines.drain(..).collect());
        }
        true
    }

    /// Membership test.
    pub fn contains(&self, line: u64) -> bool {
        match &self.spill {
            Some(set) => set.contains(&line),
            None => self.lines.contains(&line),
        }
    }

    /// Number of distinct lines.
    pub fn len(&self) -> usize {
        match &self.spill {
            Some(set) => set.len(),
            None => self.lines.len(),
        }
    }

    /// True when no lines are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once the set has spilled out of the dense representation.
    pub fn is_spilled(&self) -> bool {
        self.spill.is_some()
    }

    /// The line indices while dense (insertion order); empty after a spill
    /// — use [`LineSet::to_sorted_vec`] for a representation-independent
    /// view.
    pub fn as_slice(&self) -> &[u64] {
        &self.lines
    }

    /// All line indices, sorted, regardless of representation.
    pub fn to_sorted_vec(&self) -> Vec<u64> {
        let mut v: Vec<u64> = match &self.spill {
            Some(set) => set.iter().copied().collect(),
            None => self.lines.clone(),
        };
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_dedupes() {
        let mut s = LineSet::new();
        assert!(s.insert(5));
        assert!(s.insert(1));
        assert!(s.insert(9));
        assert!(!s.insert(5), "duplicate rejected");
        assert_eq!(s.to_sorted_vec(), vec![1, 5, 9]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(9));
        assert!(!s.contains(2));
        assert!(!s.is_spilled());
    }

    #[test]
    fn buffer_reuse_round_trip() {
        let mut s = LineSet::new();
        for v in 0..32 {
            s.insert(v * 3);
        }
        let cap = s.lines.capacity();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.lines.capacity(), cap, "allocation preserved");
        assert!(s.insert(3), "a cleared set forgets its lines");
    }

    #[test]
    fn spills_past_threshold_and_keeps_answering() {
        let mut s = LineSet::new();
        for v in 0..=SPILL_LINES as u64 {
            assert!(s.insert(v * 2));
        }
        assert!(s.is_spilled(), "must spill past {SPILL_LINES} lines");
        assert_eq!(s.len(), SPILL_LINES + 1);
        // Duplicates, membership, and new inserts behave identically.
        assert!(!s.insert(0));
        assert!(s.contains(2 * SPILL_LINES as u64));
        assert!(!s.contains(1));
        assert!(s.insert(1));
        assert_eq!(s.len(), SPILL_LINES + 2);
        // The sorted view spans both representations.
        let sorted = s.to_sorted_vec();
        assert_eq!(sorted.len(), s.len());
        assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        // Clearing returns to the dense representation.
        s.clear();
        assert!(s.is_empty() && !s.is_spilled());
    }

    #[test]
    fn matches_hashset_semantics() {
        // Differential check against a plain hash set, with a line universe
        // small enough to stay dense and large iteration counts.
        let mut dense = LineSet::new();
        let mut reference = std::collections::HashSet::new();
        let mut x: u64 = 0x1234_5678;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = (x >> 33) % 64;
            assert_eq!(dense.insert(line), reference.insert(line));
        }
        assert_eq!(dense.len(), reference.len());
    }
}
