//! Dense tables keyed by small ids (`BlockId`, `VReg`): the analyses index
//! vectors by id instead of hashing.

use std::marker::PhantomData;

use crate::instr::{BlockId, VReg};

/// An id that indexes a dense table.
pub trait DenseId: Copy {
    /// The table index of this id.
    fn index(self) -> usize;
    /// The id at table index `i`.
    fn from_index(i: usize) -> Self;
}

impl DenseId for BlockId {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }

    #[inline]
    fn from_index(i: usize) -> Self {
        BlockId(i as u32)
    }
}

impl DenseId for VReg {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }

    #[inline]
    fn from_index(i: usize) -> Self {
        VReg(i as u32)
    }
}

/// A set of ids stored as a bit vector. It grows on insert, so ids past its
/// initial capacity (blocks or values created after it) are fine; iteration
/// is in id order.
#[derive(Clone)]
pub struct IdSet<T> {
    words: Vec<u64>,
    len: usize,
    _id: PhantomData<T>,
}

/// A dense set of blocks.
pub type BlockSet = IdSet<BlockId>;

/// A dense set of values.
pub type VRegSet = IdSet<VReg>;

impl<T> IdSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        IdSet {
            words: Vec::new(),
            len: 0,
            _id: PhantomData,
        }
    }

    /// An empty set with room for ids below `n` without growing.
    pub fn with_capacity(n: usize) -> Self {
        IdSet {
            words: Vec::with_capacity(n.div_ceil(64)),
            len: 0,
            _id: PhantomData,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every member, keeping the storage.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// True if the two sets have no member in common.
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Adds every member of `other`; true if this set grew.
    pub fn union_with(&mut self, other: &Self) -> bool {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut grew = false;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            let new = *w | o;
            if new != *w {
                self.len += (new ^ *w).count_ones() as usize;
                *w = new;
                grew = true;
            }
        }
        grew
    }
}

impl<T: DenseId> IdSet<T> {
    /// Adds `id`; true if it was not already present.
    #[inline]
    pub fn insert(&mut self, id: T) -> bool {
        let (w, bit) = (id.index() / 64, 1u64 << (id.index() % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// True if `id` is a member.
    #[inline]
    pub fn contains(&self, id: T) -> bool {
        self.words
            .get(id.index() / 64)
            .is_some_and(|w| w & (1u64 << (id.index() % 64)) != 0)
    }

    /// Members in id order.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    T::from_index(i * 64 + bit)
                })
            })
        })
    }
}

impl<T> Default for IdSet<T> {
    fn default() -> Self {
        IdSet::new()
    }
}

impl<T> PartialEq for IdSet<T> {
    fn eq(&self, other: &Self) -> bool {
        let n = self.words.len().min(other.words.len());
        self.len == other.len && self.words[..n] == other.words[..n]
    }
}

impl<T> Eq for IdSet<T> {}

impl<T: DenseId + std::fmt::Debug> std::fmt::Debug for IdSet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<T: DenseId> FromIterator<T> for IdSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut s = IdSet::new();
        s.extend(iter);
        s
    }
}

impl<T: DenseId> Extend<T> for IdSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

/// Lists of items grouped by a dense key, stored flat: one allocation for
/// every list plus per-key offsets. Built by a stable counting sort in
/// O(keys + items), so each list keeps the order its items were given in.
#[derive(Debug, Clone)]
pub struct DenseLists<T> {
    /// `start[k]..start[k + 1]` is key `k`'s slice of `items`.
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> DenseLists<T> {
    /// Groups the `(key, item)` pairs by key; every key is below `n`.
    pub fn new<I>(n: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (usize, T)>,
        I::IntoIter: Clone,
    {
        let pairs = pairs.into_iter();
        let mut start = vec![0u32; n + 1];
        for (k, _) in pairs.clone() {
            start[k + 1] += 1;
        }
        for k in 0..n {
            start[k + 1] += start[k];
        }
        let mut items = match pairs.clone().next() {
            Some((_, fill)) => vec![fill; start[n] as usize],
            None => Vec::new(),
        };
        let mut next = start.clone();
        for (k, item) in pairs {
            items[next[k] as usize] = item;
            next[k] += 1;
        }
        DenseLists { start, items }
    }

    /// The list of key `k` (empty past the last key).
    #[inline]
    pub fn get(&self, k: usize) -> &[T] {
        match self.start.get(k + 1) {
            Some(&end) => &self.items[self.start[k] as usize..end as usize],
            None => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_iterate_in_order_and_clear() {
        let mut s = BlockSet::with_capacity(4);
        assert!(s.insert(BlockId(130)));
        assert!(s.insert(BlockId(3)));
        assert!(!s.insert(BlockId(3)));
        assert!(s.insert(BlockId(64)));
        assert_eq!(s.len(), 3);
        assert!(s.contains(BlockId(64)) && !s.contains(BlockId(65)));
        assert!(!s.contains(BlockId(10_000)), "past the storage is absent");
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![BlockId(3), BlockId(64), BlockId(130)]
        );
        s.clear();
        assert!(s.is_empty() && !s.contains(BlockId(3)));
    }

    #[test]
    fn lists_group_by_key_in_given_order() {
        let lists = DenseLists::new(4, [(2, 'a'), (0, 'b'), (2, 'c'), (3, 'd'), (2, 'e')]);
        assert_eq!(lists.get(0), ['b']);
        assert!(lists.get(1).is_empty());
        assert_eq!(lists.get(2), ['a', 'c', 'e']);
        assert_eq!(lists.get(3), ['d']);
        assert!(lists.get(4).is_empty() && lists.get(99).is_empty());
        let empty: DenseLists<char> = DenseLists::new(2, []);
        assert!(empty.get(0).is_empty());
    }

    #[test]
    fn union_counts_new_members() {
        let mut a: VRegSet = [VReg(1), VReg(2)].into_iter().collect();
        let b: VRegSet = [VReg(2), VReg(200)].into_iter().collect();
        assert!(!a.is_disjoint(&b));
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert!(a.is_disjoint(&[VReg(3), VReg(900)].into_iter().collect()));
        assert_eq!(a.len(), 3);
        let mut c = VRegSet::new();
        c.insert(VReg(500));
        assert_ne!(c, VRegSet::new());
        c.clear();
        assert_eq!(c, VRegSet::new(), "an emptied set equals a fresh one");
    }
}
