//! Execution environment shared between the interpreter and compiled code:
//! the observable checksum, the deterministic random source, and simulation
//! markers.

/// Observable side effects of a run.
///
/// Both the profiling interpreter and the hardware simulator thread their
/// side effects through an `Env`, so a workload's result can be compared
/// bit-for-bit across execution engines and compiler configurations — the
/// backbone of the functional-equivalence test suite.
#[derive(Debug, Clone)]
pub struct Env {
    checksum: i64,
    rng: u64,
    marker_hits: Vec<(u32, u64)>,
    /// Per-id running tallies. Marker ids are static program points, so this
    /// stays a handful of entries; keeping it alongside the hit log makes
    /// `marker_count` O(#ids) instead of a scan over every recorded hit
    /// (which turns quadratic on marker-heavy workloads). Derived state:
    /// always reconstructible from `marker_hits`, hence excluded from
    /// equality.
    counts: Vec<(u32, u64)>,
}

impl PartialEq for Env {
    fn eq(&self, other: &Self) -> bool {
        self.checksum == other.checksum
            && self.rng == other.rng
            && self.marker_hits == other.marker_hits
    }
}

impl Eq for Env {}

impl Env {
    /// Creates an environment with the given random seed.
    pub fn new(seed: u64) -> Self {
        // Splitmix64-style scramble so nearby seeds produce unrelated streams.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Env {
            checksum: 0,
            rng: z ^ (z >> 31),
            marker_hits: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Folds a value into the checksum (`cs = cs * 31 + v`, wrapping).
    pub fn checksum_push(&mut self, v: i64) {
        self.checksum = self.checksum.wrapping_mul(31).wrapping_add(v);
    }

    /// The accumulated checksum.
    pub fn checksum(&self) -> i64 {
        self.checksum
    }

    /// Next value of the 64-bit LCG (Knuth MMIX constants).
    pub fn next_random(&mut self) -> i64 {
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.rng >> 17) as i64
    }

    /// Records a dynamic hit of marker `id`, tagged with the hit ordinal.
    #[inline]
    pub fn hit_marker(&mut self, id: u32) {
        let n = match self.counts.iter_mut().find(|(m, _)| *m == id) {
            Some(entry) => {
                entry.1 += 1;
                entry.1
            }
            None => {
                self.counts.push((id, 1));
                1
            }
        };
        self.marker_hits.push((id, n));
    }

    /// Number of times marker `id` has fired so far.
    #[inline]
    pub fn marker_count(&self, id: u32) -> u64 {
        self.counts
            .iter()
            .find(|(m, _)| *m == id)
            .map_or(0, |&(_, c)| c)
    }

    /// All marker hits in order.
    pub fn marker_hits(&self) -> &[(u32, u64)] {
        &self.marker_hits
    }

    /// Captures the environment state for speculative execution (hardware
    /// checkpoint support: side effects inside an aborted atomic region must
    /// vanish).
    pub fn snapshot(&self) -> EnvSnapshot {
        EnvSnapshot {
            checksum: self.checksum,
            rng: self.rng,
            markers: self.marker_hits.len(),
        }
    }

    /// Rolls the environment back to a snapshot.
    pub fn restore(&mut self, s: &EnvSnapshot) {
        self.checksum = s.checksum;
        self.rng = s.rng;
        // Un-count each rolled-back hit so the tallies keep mirroring the log.
        while self.marker_hits.len() > s.markers {
            let (id, _) = self.marker_hits.pop().expect("len > markers");
            if let Some(entry) = self.counts.iter_mut().find(|(m, _)| *m == id) {
                entry.1 -= 1;
            }
        }
    }
}

/// A point-in-time capture of an [`Env`], used to roll back the observable
/// side effects of an aborted atomic region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnvSnapshot {
    checksum: i64,
    rng: u64,
    markers: usize,
}

impl Default for Env {
    fn default() -> Self {
        Env::new(0x5eed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_order_sensitive() {
        let mut a = Env::new(1);
        a.checksum_push(1);
        a.checksum_push(2);
        let mut b = Env::new(1);
        b.checksum_push(2);
        b.checksum_push(1);
        assert_ne!(a.checksum(), b.checksum());
    }

    #[test]
    fn rng_deterministic_per_seed() {
        let mut a = Env::new(42);
        let mut b = Env::new(42);
        let seq_a: Vec<i64> = (0..5).map(|_| a.next_random()).collect();
        let seq_b: Vec<i64> = (0..5).map(|_| b.next_random()).collect();
        assert_eq!(seq_a, seq_b);
        let mut c = Env::new(43);
        assert_ne!(seq_a[0], c.next_random());
    }

    #[test]
    fn markers_count() {
        let mut e = Env::new(1);
        e.hit_marker(7);
        e.hit_marker(7);
        e.hit_marker(3);
        assert_eq!(e.marker_count(7), 2);
        assert_eq!(e.marker_count(3), 1);
        assert_eq!(e.marker_hits().len(), 3);
    }

    #[test]
    fn restore_rolls_back_marker_tallies() {
        let mut e = Env::new(1);
        e.hit_marker(7);
        let snap = e.snapshot();
        e.hit_marker(7);
        e.hit_marker(3);
        assert_eq!(e.marker_count(7), 2);
        e.restore(&snap);
        assert_eq!(e.marker_count(7), 1);
        assert_eq!(e.marker_count(3), 0);
        // Ordinals resume from the rolled-back tally, exactly as if the
        // aborted hits never happened.
        e.hit_marker(7);
        assert_eq!(e.marker_hits(), &[(7, 1), (7, 2)]);
        // A fully rolled-back id compares equal to one never hit.
        let mut fresh = Env::new(1);
        fresh.hit_marker(7);
        fresh.hit_marker(7);
        assert_eq!(e, fresh);
    }
}
