//! State deltas between a machine and the golden one, and the read watch
//! that tells when the golden run looks at them.
//!
//! [`crate::Sim::delta`] names the state a faulted child still differs in
//! when that state is only register values and per-set cache state. While
//! the golden machine neither reads one of those registers at issue nor
//! looks up one of those sets, the child evolves exactly like it outside
//! the delta, so the convoy can stop stepping it. [`crate::Sim::watch`]
//! arms the golden machine to note such reads;
//! [`crate::Sim::take_watch_hits`] reports them.

/// A set of small indices (physical registers, cache sets) stored as a
/// bitset of 64 indices per word. Equality is by content.
#[derive(Debug, Clone, Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Adds index `i`.
    pub fn insert(&mut self, i: usize) {
        let w = i / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (i % 64);
    }

    /// Whether index `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 != 0)
    }

    /// Whether the set holds no index.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether the two sets share an index.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Whether every index of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// Adds every index of `other`.
    pub fn union_with(&mut self, other: &BitSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// The indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            (0..64)
                .filter(move |b| w >> b & 1 != 0)
                .map(move |b| 64 * i + b)
        })
    }
}

impl PartialEq for BitSet {
    fn eq(&self, other: &BitSet) -> bool {
        self.is_subset(other) && other.is_subset(self)
    }
}

impl Eq for BitSet {}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> BitSet {
        let mut set = BitSet::default();
        for i in iter {
            set.insert(i);
        }
        set
    }
}

/// The state two machines at the same cycle differ in, when they agree on
/// everything else [`crate::Sim::state_eq`] compares: the allocated
/// physical registers whose values differ, and the L1I, L1D and L2 sets
/// whose per-set state (valid bits, the tag, dirty bit and data of valid
/// lines, LRU order) differs. Empty exactly when the machines are
/// `state_eq`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateDelta {
    /// Physical registers.
    pub regs: BitSet,
    /// Cache sets of L1I, L1D and L2, in that order.
    pub sets: [BitSet; 3],
}

impl StateDelta {
    fn parts(&self) -> impl Iterator<Item = &BitSet> {
        std::iter::once(&self.regs).chain(&self.sets)
    }

    /// Whether the delta names no register and no set.
    pub fn is_empty(&self) -> bool {
        self.parts().all(BitSet::is_empty)
    }

    /// Whether the two deltas share a register or a set.
    pub fn intersects(&self, other: &StateDelta) -> bool {
        self.parts()
            .zip(other.parts())
            .any(|(a, b)| a.intersects(b))
    }

    /// Adds every register and set of `other`.
    pub fn union_with(&mut self, other: &StateDelta) {
        self.regs.union_with(&other.regs);
        for (a, b) in self.sets.iter_mut().zip(&other.sets) {
            a.union_with(b);
        }
    }
}

/// Watched indices of one structure and those read since the hits were
/// last taken. Observational only: never compared, never inherited by a
/// fork.
#[derive(Debug, Clone)]
pub(crate) struct Watch {
    watched: BitSet,
    hits: BitSet,
}

impl Watch {
    /// A watch on `indices`, or `None` when there is nothing to watch (so
    /// an unwatched structure pays one emptiness test per read).
    pub(crate) fn on(indices: &BitSet) -> Option<Box<Watch>> {
        (!indices.is_empty()).then(|| {
            Box::new(Watch {
                watched: indices.clone(),
                hits: BitSet::default(),
            })
        })
    }

    /// Notes a read of index `i`.
    pub(crate) fn note(&mut self, i: usize) {
        if self.watched.contains(i) {
            self.hits.insert(i);
        }
    }

    /// The watched indices read since the last call.
    pub(crate) fn take_hits(&mut self) -> BitSet {
        std::mem::take(&mut self.hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_operations() {
        let a: BitSet = [3, 70, 200].into_iter().collect();
        let b: BitSet = [70].into_iter().collect();
        assert!(a.contains(200) && !a.contains(4) && !b.contains(200));
        assert!(b.is_subset(&a) && !a.is_subset(&b));
        assert!(a.intersects(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 70, 200]);
        let mut c = b.clone();
        c.union_with(&a);
        assert_eq!(c, a, "equality ignores word count");
        assert!(BitSet::default().is_empty());
        assert_eq!(
            BitSet::default(),
            [1].into_iter().filter(|_| false).collect()
        );
    }

    #[test]
    fn watch_notes_only_watched_indices() {
        assert!(Watch::on(&BitSet::default()).is_none());
        let mut w = Watch::on(&[5, 9].into_iter().collect()).unwrap();
        w.note(4);
        w.note(9);
        assert_eq!(w.take_hits(), [9].into_iter().collect());
        assert!(w.take_hits().is_empty(), "taking clears the hits");
    }

    #[test]
    fn delta_set_algebra_covers_every_part() {
        let mut a = StateDelta::default();
        assert!(a.is_empty());
        let mut b = StateDelta::default();
        b.sets[2].insert(7);
        assert!(!b.is_empty() && !a.intersects(&b));
        a.union_with(&b);
        a.regs.insert(1);
        assert!(a.intersects(&b) && a.sets[2].contains(7) && !b.regs.contains(1));
    }
}
