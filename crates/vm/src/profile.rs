//! Edge, call-site, and invocation profiles collected by the first-pass
//! interpreter (paper §4: "region formation is fundamentally profile-driven").
//!
//! The profile is dense: one [`MethodProfile`] slot per `MethodId`, and
//! per-pc vectors sized to the method's code when it first runs. The
//! interpreter does not bump these while it runs; it counts into flat
//! program-wide arrays and folds them in here once per
//! [`Interp::call`](crate::interp::Interp::call).

use crate::bytecode::{ClassId, MethodId};
use crate::fxhash::FxHashMap;

/// Profile counters for one method, indexed by bytecode pc.
#[derive(Debug, Clone, Default)]
pub struct MethodProfile {
    /// Times the method was invoked.
    pub invocations: u64,
    /// Per pc: (taken, not-taken) counts of the conditional branch there;
    /// (0, 0) at every other pc.
    pub(crate) branches: Vec<(u64, u64)>,
    /// For each switch pc: per-case counts (`targets.len()` entries) plus the
    /// default count in the last slot.
    pub switches: FxHashMap<usize, Vec<u64>>,
    /// For each virtual-call pc: receiver class histogram.
    pub receivers: FxHashMap<usize, FxHashMap<ClassId, u64>>,
    /// Per pc: times the instruction there was executed (block counts are
    /// derived from the counts of block-leader pcs).
    pub(crate) exec: Vec<u64>,
}

impl MethodProfile {
    /// Zeroed counters for a method whose code is `code_len` instructions.
    fn sized(code_len: usize) -> Self {
        MethodProfile {
            branches: vec![(0, 0); code_len],
            exec: vec![0; code_len],
            ..MethodProfile::default()
        }
    }

    /// (taken, not-taken) counts of the branch at `pc`; (0, 0) if it never
    /// executed or is not a branch.
    pub fn branch_counts(&self, pc: usize) -> (u64, u64) {
        self.branches.get(pc).copied().unwrap_or((0, 0))
    }

    /// Taken-bias of the branch at `pc` in [0, 1]; `None` if never executed.
    pub fn branch_bias(&self, pc: usize) -> Option<f64> {
        let (t, n) = self.branch_counts(pc);
        let total = t + n;
        if total == 0 {
            None
        } else {
            Some(t as f64 / total as f64)
        }
    }

    /// Execution count of the instruction at `pc`.
    pub fn exec_count(&self, pc: usize) -> u64 {
        self.exec.get(pc).copied().unwrap_or(0)
    }

    /// The single receiver class observed at a virtual call site, if the site
    /// is monomorphic (exactly one class observed).
    pub fn monomorphic_receiver(&self, pc: usize) -> Option<ClassId> {
        let h = self.receivers.get(&pc)?;
        if h.len() == 1 {
            h.keys().next().copied()
        } else {
            None
        }
    }

    /// The dominant receiver class and its frequency share, if any. A tie
    /// goes to the lowest `ClassId`.
    pub fn dominant_receiver(&self, pc: usize) -> Option<(ClassId, f64)> {
        let h = self.receivers.get(&pc)?;
        let total: u64 = h.values().sum();
        let (&c, &n) = h.iter().max_by_key(|&(&c, &n)| (n, std::cmp::Reverse(c)))?;
        if total == 0 {
            None
        } else {
            Some((c, n as f64 / total as f64))
        }
    }
}

/// Whole-program profile: one [`MethodProfile`] per method.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Indexed by `MethodId`; `None` for a method that never ran.
    methods: Vec<Option<MethodProfile>>,
}

impl Profile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// The profile for `m`, if the method ever ran.
    pub fn method(&self, m: MethodId) -> Option<&MethodProfile> {
        self.methods.get(m.0 as usize)?.as_ref()
    }

    /// Mutable accessor, creating zeroed counters for `m` (whose code is
    /// `code_len` instructions) on first use.
    #[inline]
    pub(crate) fn method_mut(&mut self, m: MethodId, code_len: usize) -> &mut MethodProfile {
        let i = m.0 as usize;
        if i >= self.methods.len() {
            self.methods.resize_with(i + 1, || None);
        }
        self.methods[i].get_or_insert_with(|| MethodProfile::sized(code_len))
    }

    /// Methods sorted by invocation count, hottest first.
    pub fn hottest_methods(&self) -> Vec<(MethodId, u64)> {
        let mut v: Vec<_> = self
            .methods
            .iter()
            .enumerate()
            .filter_map(|(i, p)| Some((MethodId(i as u32), p.as_ref()?.invocations)))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Clears all counters (used between profiling phases).
    pub fn reset(&mut self) {
        self.methods.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_bias() {
        let mut p = MethodProfile::sized(8);
        p.branches[4] = (99, 1);
        assert_eq!(p.branch_counts(4), (99, 1));
        assert_eq!(p.branch_bias(4), Some(0.99));
        assert_eq!(p.branch_bias(5), None);
        assert_eq!(p.branch_bias(100), None);
    }

    #[test]
    fn receiver_classification() {
        let mut p = MethodProfile::default();
        let h = p.receivers.entry(10).or_default();
        h.insert(ClassId(1), 80);
        h.insert(ClassId(2), 20);
        assert_eq!(p.monomorphic_receiver(10), None);
        assert_eq!(p.dominant_receiver(10), Some((ClassId(1), 0.8)));

        let mut q = MethodProfile::default();
        q.receivers.entry(10).or_default().insert(ClassId(3), 5);
        assert_eq!(q.monomorphic_receiver(10), Some(ClassId(3)));
    }

    /// A 2-way tie goes to the lowest class, whatever order the histogram
    /// iterates in: both insertion orders of the tied pair agree.
    #[test]
    fn dominant_receiver_tie_goes_to_lowest_class() {
        for tied in [[ClassId(7), ClassId(3)], [ClassId(3), ClassId(7)]] {
            let mut p = MethodProfile::default();
            let h = p.receivers.entry(2).or_default();
            for c in tied {
                h.insert(c, 40);
            }
            h.insert(ClassId(1), 20);
            assert_eq!(p.dominant_receiver(2), Some((ClassId(3), 0.4)));
        }
    }

    #[test]
    fn hottest_sorted() {
        let mut p = Profile::new();
        p.method_mut(MethodId(0), 1).invocations = 5;
        p.method_mut(MethodId(1), 1).invocations = 50;
        assert_eq!(p.hottest_methods()[0].0, MethodId(1));
    }
}
