//! A deterministic multiply-rotate hasher for the workspace's integer-keyed
//! maps — the one hasher every crate uses.
//!
//! The simulator's per-region counters, mispredicted-site tallies and
//! governor state, and the compiler's truly sparse tables (expression keys,
//! value maps of one replication) are all keyed by small integers or
//! integer tuples. `std`'s default SipHash is both needlessly strong for
//! trusted integer keys and randomly seeded — which makes map iteration
//! order vary run to run. This FxHash-style hasher is a few ALU ops per word
//! and fully deterministic, so identical runs produce identical map layouts.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using [`FxHasher`] (deterministic, cheap on integer keys).
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` using [`FxHasher`] (deterministic, cheap on integer keys).
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// The Firefox-lineage multiply-rotate hasher: each input word is folded in
/// with a rotate, xor, and multiply by a single odd constant.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// The multiplier (a 64-bit value derived from pi, as in rustc's FxHash).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_distinguishes_keys() {
        let h = |k: (u32, u32)| {
            let mut hasher = FxHasher::default();
            std::hash::Hash::hash(&k, &mut hasher);
            hasher.finish()
        };
        assert_eq!(h((1, 2)), h((1, 2)), "same key, same hash");
        assert_ne!(h((1, 2)), h((2, 1)), "order matters");
        assert_ne!(h((0, 0)), h((0, 1)));
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<(u32, usize), u64> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i as usize * 3), u64::from(i));
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m[&(i, i as usize * 3)], u64::from(i));
        }
    }

    #[test]
    fn odd_length_byte_input() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 0]);
        // Tail padding is zero-filled, so these collide by construction —
        // fine for the fixed-width integer keys this hasher serves.
        assert_eq!(a.finish(), b.finish());
    }
}
