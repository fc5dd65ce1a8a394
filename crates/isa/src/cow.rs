//! Copy-on-write chunked storage for forked simulator state.
//!
//! The convoy engine forks thousands of short-lived children from one golden
//! simulator. A deep clone of every cache array (~1 MB for the A15 L2 data
//! array alone) and of guest memory (4 MiB) per fork dwarfs the work most
//! children actually do before re-converging. [`CowVec`] makes the fork
//! itself O(1): state lives in fixed-size chunks behind [`Rc`]s, the table
//! of chunk handles sits behind one more [`Rc`], and a clone bumps that one
//! refcount. The first write after a clone copies the table (one refcount
//! bump per chunk) and then materializes a private copy of just the written
//! chunk via [`Rc::make_mut`]; later writes to an owned chunk cost two
//! refcount checks.
//!
//! A new vector is built the same way: every full chunk points at one
//! shared allocation of the fill value, so construction allocates at most
//! two chunks (that one and a shorter tail) however long the vector is,
//! and a chunk is first allocated by its first write, exactly as after a
//! fork.
//!
//! Chunk-level `Rc` identity doubles as an implicit dirty-since-fork set:
//! a chunk is unchanged between a parent and a child if and only if the two
//! still point at the same allocation ([`Rc::ptr_eq`]). This composes
//! across forks taken at different times with no per-child bookkeeping —
//! a chunk the golden run writes *after* child A forked but *before* child B
//! forked ptr-differs for A and ptr-matches for B, exactly the right answer
//! for each. Equality checks exploit it as a fast path: a shared table, or a
//! shared chunk, is equal by construction and is never walked.
//!
//! The refcounts are not atomic, so a `CowVec` (and the machine built from
//! it) is `!Send`: a simulator stays on the thread that built it, and every
//! campaign worker builds its own.

use std::ops::Index;
use std::rc::Rc;

/// A fixed-length array stored as power-of-two-sized chunks behind `Rc`s,
/// with the chunk table itself behind an `Rc`.
///
/// Cloning is one refcount bump; writes copy the table once per clone and
/// at most one chunk each. Indexing uses a shift/mask pair so the hot
/// lookup paths pay no division. Not `Send`: clones share non-atomic
/// refcounts, so all of them live on one thread.
#[derive(Debug, Clone)]
pub struct CowVec<T> {
    table: Rc<[Rc<[T]>]>,
    shift: u32,
    mask: usize,
    len: usize,
}

impl<T: Clone> CowVec<T> {
    /// Builds a `CowVec` of `len` copies of `fill`, split into chunks of
    /// `chunk_len` elements (the last chunk may be shorter). Every full
    /// chunk shares one allocation of `fill` until its first write.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is not a power of two.
    pub fn new(len: usize, chunk_len: usize, fill: T) -> CowVec<T> {
        assert!(
            chunk_len.is_power_of_two(),
            "chunk_len must be a power of two"
        );
        let (full, tail) = (len / chunk_len, len % chunk_len);
        let mut table = Vec::with_capacity(len.div_ceil(chunk_len));
        if full > 0 {
            table.resize(
                full,
                Rc::from_iter(std::iter::repeat_n(fill.clone(), chunk_len)),
            );
        }
        if tail > 0 {
            table.push(Rc::from_iter(std::iter::repeat_n(fill, tail)));
        }
        CowVec {
            table: table.into(),
            shift: chunk_len.trailing_zeros(),
            mask: chunk_len - 1,
            len,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.table.len()
    }

    /// Shared reference to element `i`.
    pub fn get(&self, i: usize) -> &T {
        &self.table[i >> self.shift][i & self.mask]
    }

    /// A private copy of chunk `c`: copies the table if a clone still
    /// shares it, then the chunk if a clone still shares that.
    fn chunk_mut(&mut self, c: usize) -> &mut [T] {
        Rc::make_mut(&mut Rc::make_mut(&mut self.table)[c])
    }

    /// Writes element `i`, materializing a private copy of its chunk if the
    /// chunk is still shared with a fork sibling.
    pub fn set(&mut self, i: usize, value: T) {
        *self.get_mut(i) = value;
    }

    /// Mutable reference to element `i` (copy-on-write at chunk granularity).
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        let off = i & self.mask;
        &mut self.chunk_mut(i >> self.shift)[off]
    }

    /// Shared slice of `count` elements starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if the range crosses a chunk boundary; callers size chunks as
    /// a multiple of their natural record (e.g. a cache line) so contiguous
    /// records never straddle chunks.
    pub fn slice(&self, start: usize, count: usize) -> &[T] {
        let chunk = &self.table[start >> self.shift];
        let off = start & self.mask;
        assert!(off + count <= chunk.len(), "slice crosses a chunk boundary");
        &chunk[off..off + count]
    }

    /// Mutable slice of `count` elements starting at `start`
    /// (copy-on-write at chunk granularity).
    ///
    /// # Panics
    ///
    /// Panics if the range crosses a chunk boundary.
    pub fn slice_mut(&mut self, start: usize, count: usize) -> &mut [T] {
        let off = start & self.mask;
        let chunk = self.chunk_mut(start >> self.shift);
        assert!(off + count <= chunk.len(), "slice crosses a chunk boundary");
        &mut chunk[off..off + count]
    }

    /// Whether `other` still shares this vector's chunk table: a clone
    /// that neither side has written since.
    fn shares_table(&self, other: &CowVec<T>) -> bool {
        Rc::ptr_eq(&self.table, &other.table)
    }

    /// Number of chunks still physically shared with `other` (same
    /// allocation). A fork followed by no writes shares every chunk; each
    /// write since the fork unshares at most one.
    pub fn shared_chunk_count(&self, other: &CowVec<T>) -> usize {
        if self.shares_table(other) {
            return self.chunk_count();
        }
        self.table
            .iter()
            .zip(other.table.iter())
            .filter(|(a, b)| Rc::ptr_eq(a, b))
            .count()
    }

    /// Element ranges `[start, end)` of chunks that are neither
    /// pointer-shared with `other` nor content-equal — the only regions a
    /// semantic comparison still has to examine. Lazy, so a comparison
    /// that fails on the first range compares no further chunks.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths or chunking.
    pub fn differing_ranges<'v>(
        &'v self,
        other: &'v CowVec<T>,
    ) -> impl Iterator<Item = (usize, usize)> + 'v
    where
        T: PartialEq,
    {
        assert_eq!(self.len, other.len, "length mismatch");
        assert_eq!(self.shift, other.shift, "chunking mismatch");
        let chunk_len = self.mask + 1;
        let walked = if self.shares_table(other) {
            0
        } else {
            self.chunk_count()
        };
        self.table
            .iter()
            .zip(other.table.iter())
            .take(walked)
            .enumerate()
            .filter(|(_, (a, b))| !Rc::ptr_eq(a, b) && a != b)
            .map(move |(i, (a, _))| (i * chunk_len, i * chunk_len + a.len()))
    }
}

impl<T: Clone> Index<usize> for CowVec<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        self.get(i)
    }
}

/// Chunk-wise equality with pointer fast paths: a shared table, and chunks
/// still shared after a fork, are equal by construction and are not walked.
impl<T: Clone + PartialEq> PartialEq for CowVec<T> {
    fn eq(&self, other: &CowVec<T>) -> bool {
        self.len == other.len
            && self.shift == other.shift
            && (self.shares_table(other)
                || self
                    .table
                    .iter()
                    .zip(other.table.iter())
                    .all(|(a, b)| Rc::ptr_eq(a, b) || a == b))
    }
}

impl<T: Clone + Eq> Eq for CowVec<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distinct chunk allocations behind `v`'s table.
    fn chunk_allocations<T>(v: &CowVec<T>) -> usize {
        let mut ptrs: Vec<usize> = v
            .table
            .iter()
            .map(|c| Rc::as_ptr(c).cast::<T>() as usize)
            .collect();
        ptrs.sort_unstable();
        ptrs.dedup();
        ptrs.len()
    }

    #[test]
    fn new_allocates_at_most_a_fill_chunk_and_a_tail() {
        let even = CowVec::new(1 << 20, 4096, 0u8);
        assert_eq!(even.chunk_count(), 256);
        assert_eq!(chunk_allocations(&even), 1, "every chunk shares the fill");
        let ragged = CowVec::new(100, 16, 7u32);
        assert_eq!(ragged.chunk_count(), 7);
        assert_eq!(
            chunk_allocations(&ragged),
            2,
            "the shared fill and the tail"
        );
        assert_eq!(chunk_allocations(&CowVec::new(5, 16, 1u8)), 1);
        assert_eq!(chunk_allocations(&CowVec::<u8>::new(0, 16, 1)), 0);
    }

    #[test]
    fn a_first_write_to_a_new_vector_unshares_one_chunk() {
        let mut v = CowVec::new(1 << 16, 4096, 0u8);
        let fresh = CowVec::new(1 << 16, 4096, 0u8);
        v.set(5000, 9);
        assert_eq!(chunk_allocations(&v), 2, "the written chunk is private");
        assert_eq!((v[4999], v[5000], v[4096], v[8192]), (0, 9, 0, 0));
        v.set(5001, 1);
        assert_eq!(
            chunk_allocations(&v),
            2,
            "an owned chunk is written in place"
        );
        v.set(0, 3);
        assert_eq!(chunk_allocations(&v), 3);
        assert_eq!(
            v.differing_ranges(&fresh).collect::<Vec<_>>(),
            vec![(0, 4096), (4096, 8192)]
        );
        v.set(0, 0);
        v.set(5000, 0);
        v.set(5001, 0);
        assert_eq!(v, fresh, "content equality across fill and private chunks");
    }

    #[test]
    fn construction_and_indexing() {
        let v = CowVec::new(100, 16, 7u32);
        assert_eq!(v.len(), 100);
        assert_eq!(v.chunk_count(), 7); // 6×16 + 1×4
        assert_eq!(v[0], 7);
        assert_eq!(v[99], 7);
    }

    #[test]
    fn clone_shares_every_chunk_until_written() {
        let a = CowVec::new(100, 16, 0u8);
        let mut b = a.clone();
        assert_eq!(a.shared_chunk_count(&b), 7);
        b.set(33, 1);
        assert_eq!(a.shared_chunk_count(&b), 6, "one chunk unshared");
        assert_eq!(a[33], 0, "parent unaffected");
        assert_eq!(b[33], 1);
        // A second write to the same chunk allocates nothing further.
        b.set(34, 2);
        assert_eq!(a.shared_chunk_count(&b), 6);
    }

    #[test]
    fn equality_tracks_content_not_sharing() {
        let a = CowVec::new(40, 8, 0u64);
        let mut b = a.clone();
        assert_eq!(a, b);
        b.set(9, 5);
        assert_ne!(a, b);
        b.set(9, 0); // back to original content, chunk no longer shared
        assert_eq!(a.shared_chunk_count(&b), 4);
        assert_eq!(a, b, "content equality survives unsharing");
    }

    #[test]
    fn differing_ranges_reports_only_real_differences() {
        let a = CowVec::new(40, 8, 0u32);
        let mut b = a.clone();
        assert_eq!(a.differing_ranges(&b).count(), 0);
        b.set(9, 5); // chunk 1 differs
        b.set(17, 0); // chunk 2 rewritten with the same value: unshared, equal
        assert_eq!(a.differing_ranges(&b).collect::<Vec<_>>(), vec![(8, 16)]);
    }

    #[test]
    fn slices_stay_within_chunks() {
        let mut v = CowVec::new(64, 16, 0u8);
        v.slice_mut(16, 16).copy_from_slice(&[3; 16]);
        assert_eq!(v.slice(16, 16), &[3; 16]);
        assert_eq!(v[15], 0);
        assert_eq!(v[32], 0);
    }

    #[test]
    #[should_panic(expected = "crosses a chunk boundary")]
    fn cross_chunk_slice_panics() {
        let v = CowVec::new(64, 16, 0u8);
        let _ = v.slice(8, 16);
    }

    #[test]
    fn a_write_unshares_only_the_writers_table_and_one_chunk() {
        let a = CowVec::new(100, 16, 0u16);
        let b = a.clone();
        let mut c = a.clone();
        assert!(a.shares_table(&b) && a.shares_table(&c));
        c.set(40, 9);
        assert!(a.shares_table(&b), "the other two clones still share");
        assert!(!a.shares_table(&c) && !b.shares_table(&c));
        assert_eq!(a.shared_chunk_count(&c), a.chunk_count() - 1);
        assert_eq!(b.shared_chunk_count(&c), b.chunk_count() - 1);
        assert_eq!((a[40], b[40], c[40]), (0, 0, 9));
        // The table copy happens once per clone: a second chunk costs a
        // chunk, not another table.
        let table = Rc::as_ptr(&c.table);
        c.set(90, 1);
        assert_eq!(Rc::as_ptr(&c.table), table);
        assert_eq!(a.shared_chunk_count(&c), a.chunk_count() - 2);
    }

    #[test]
    fn differing_ranges_over_a_shared_table_is_empty() {
        let mut a = CowVec::new(64, 8, 0u8);
        a.set(3, 1);
        let b = a.clone();
        assert!(a.shares_table(&b));
        assert_eq!(a.differing_ranges(&b).count(), 0);
        assert_eq!(a, b);
        assert_eq!(a.shared_chunk_count(&b), a.chunk_count());
    }

    #[test]
    fn fork_then_drop_allocates_no_chunks() {
        let a = CowVec::new(1 << 20, 4096, 0u8);
        let b = a.clone();
        assert_eq!(a.shared_chunk_count(&b), a.chunk_count());
        drop(b);
        assert_eq!(a[0], 0);
    }
}
