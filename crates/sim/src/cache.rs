//! Set-associative write-back cache with bit-accurate, fault-injectable tag
//! and data arrays.
//!
//! Unlike a purely statistical cache model, lines hold **real data**: every
//! value that reaches the pipeline flows through these arrays, so a flipped
//! bit propagates (or dies on a clean eviction) exactly as it would in
//! hardware. Tags are stored at a fixed 32-bit physical-address width, so
//! flips in high tag bits turn a line into one that aliases an unmapped
//! address — a dirty writeback of such a line raises the same
//! out-of-system-map condition the paper's simulator reports as an Assert.

use crate::config::CacheGeometry;
use crate::delta::{BitSet, Watch};
use softerr_isa::CowVec;

/// Modeled physical address width (bits) used for tag sizing.
pub const PHYS_ADDR_BITS: u32 = 32;

/// Chunk size (elements) for the per-line metadata arrays.
const META_CHUNK: usize = 64;

/// Chunk size (bytes) for the data array; rounded up so a line never
/// straddles a chunk boundary.
const DATA_CHUNK: usize = 4096;

/// One set-associative cache level.
///
/// All arrays live in copy-on-write chunked storage ([`CowVec`]): a forked
/// child shares every chunk with its parent until one of them writes it, so
/// `Cache::clone()` costs refcount bumps instead of a megabyte `memcpy`, and
/// state comparisons skip still-shared chunks entirely.
#[derive(Debug, Clone)]
pub struct Cache {
    geom: CacheGeometry,
    tag_width: u32,
    /// `addr >> offset_bits & set_mask` is an address's set.
    offset_bits: u32,
    set_mask: u64,
    /// `addr >> tag_shift & tag_mask` is its tag.
    tag_shift: u32,
    tag_mask: u64,
    tags: CowVec<u64>,
    valid: CowVec<bool>,
    dirty: CowVec<bool>,
    lru: CowVec<u64>,
    data: CowVec<u8>,
    use_counter: u64,
    /// Statistics: demand hits / misses.
    pub hits: u64,
    /// Statistics: demand misses.
    pub misses: u64,
    /// Sets whose lookups are noted ([`Cache::watch`]). Not machine state:
    /// [`Cache::state_eq`] ignores it.
    watch: Option<Box<Watch>>,
}

impl Cache {
    /// Builds an empty (all-invalid) cache.
    pub fn new(geom: CacheGeometry) -> Cache {
        let lines = geom.lines();
        let tag_width = PHYS_ADDR_BITS - geom.set_bits() - geom.offset_bits();
        let data_chunk = DATA_CHUNK.max(geom.line_bytes as usize);
        Cache {
            geom,
            tag_width,
            offset_bits: geom.offset_bits(),
            set_mask: geom.sets() as u64 - 1,
            tag_shift: geom.offset_bits() + geom.set_bits(),
            tag_mask: (1u64 << tag_width) - 1,
            tags: CowVec::new(lines, META_CHUNK, 0),
            valid: CowVec::new(lines, META_CHUNK, false),
            dirty: CowVec::new(lines, META_CHUNK, false),
            lru: CowVec::new(lines, META_CHUNK, 0),
            data: CowVec::new(lines * geom.line_bytes as usize, data_chunk, 0),
            use_counter: 0,
            hits: 0,
            misses: 0,
            watch: None,
        }
    }

    /// Whether two caches hold identical execution-relevant state: valid
    /// bits, the tag, dirty bit and data of every *valid* line, and per-set
    /// LRU *ordering*. Hit/miss statistics never feed back into execution
    /// and are excluded.
    ///
    /// Tag, dirty bit and data of an invalid line are dead. Every reader
    /// checks `valid` first: [`Cache::lookup`] matches a tag only on a
    /// valid way, the write-back paths read the dirty bit, the stored tag
    /// and the line data only under `valid && dirty`, and every other data
    /// access is on a line [`Cache::lookup`] or [`Cache::fill`] just
    /// returned. Nothing but `fill` makes a line valid again after
    /// injection, and `fill` rewrites tag, valid, dirty, stamp and data.
    /// `valid` itself is compared exactly, so two caches that agree here
    /// agree on every line a future access can observe. Only chunks
    /// [`CowVec::differing_ranges`] reports are walked.
    ///
    /// The LRU comparison is deliberately relative, not stamp-for-stamp.
    /// `use_counter` is a global monotone clock and the raw `lru` stamps are
    /// samples of it, so a child whose transient miss pattern differed from
    /// the golden run carries permanently offset stamps even after its
    /// lines, data, and recency *order* fully re-converge. The only consumer
    /// of the stamps is [`Cache::victim`], which (a) prefers invalid ways by
    /// index — determined by `valid`, compared exactly — and (b) otherwise
    /// takes the minimum stamp in the set, first index winning ties. Two
    /// caches therefore behave identically iff every set's valid ways have
    /// the same pairwise stamp ordering (ties included); and because every
    /// future touch assigns a fresh set-maximal stamp in both machines, equal
    /// orderings evolve identically forever. Stamps of invalid ways are dead
    /// (rewritten by `fill` before `victim` can ever consult them) and are
    /// ignored.
    ///
    /// Every rule above is per set, so the comparison is a walk over the
    /// sets that differ ([`Cache::delta`]), stopped at the first.
    pub fn state_eq(&self, other: &Cache) -> bool {
        self.differing_sets(other).next().is_none()
    }

    /// The sets whose state differs from `other`'s under the
    /// [`Cache::state_eq`] rules: valid bits, the tag, dirty bit and data of
    /// valid lines, and LRU order. Empty exactly when `state_eq` holds.
    pub fn delta(&self, other: &Cache) -> BitSet {
        self.differing_sets(other).collect()
    }

    /// Differing sets, possibly repeated. Each array contributes only the
    /// lines or sets overlapping its genuinely differing chunks
    /// ([`CowVec::differing_ranges`]) and tests only its own field there;
    /// tag, dirty bit and data are compared for lines valid here, which
    /// covers every valid line once the valid bits agree. Lazy, so a
    /// caller that stops at the first set compares no further chunks.
    fn differing_sets<'c>(&'c self, other: &'c Cache) -> impl Iterator<Item = usize> + 'c {
        let valid = self
            .valid
            .differing_ranges(&other.valid)
            .flat_map(|(start, end)| start..end)
            .filter(|&line| self.valid[line] != other.valid[line]);
        let lines = valid
            .chain(self.differing_valid_lines(&self.tags, &other.tags, 1))
            .chain(self.differing_valid_lines(&self.dirty, &other.dirty, 1))
            .chain(self.differing_valid_lines(
                &self.data,
                &other.data,
                self.geom.line_bytes as usize,
            ));
        let ways = self.geom.ways;
        let lru = self
            .lru
            .differing_ranges(&other.lru)
            .flat_map(move |(start, end)| start / ways..=(end - 1) / ways)
            .filter(|&set| !self.set_order_eq(other, set));
        lines.map(move |line| line / ways).chain(lru)
    }

    /// Whether flipping data-array `bit` leaves [`Cache::state_eq`] against
    /// the unflipped cache true: exactly the bits of invalid lines.
    pub(crate) fn data_bit_is_dead(&self, bit: u64) -> bool {
        !self.valid[(bit / 8) as usize / self.geom.line_bytes as usize]
    }

    /// Whether flipping tag-array `bit` leaves [`Cache::state_eq`] true:
    /// the tag and dirty bits of an invalid line. A valid bit is never
    /// dead, since flipping it on resurrects a stale line.
    pub(crate) fn tag_bit_is_dead(&self, bit: u64) -> bool {
        let per_line = self.tag_width as u64 + 2;
        bit % per_line != self.tag_width as u64 && !self.valid[(bit / per_line) as usize]
    }

    /// Valid lines overlapping a genuinely differing chunk of a per-line
    /// array (`per_line` elements per line) whose content differs between
    /// `ours` and `theirs`.
    fn differing_valid_lines<'c, T: Clone + PartialEq>(
        &'c self,
        ours: &'c CowVec<T>,
        theirs: &'c CowVec<T>,
        per_line: usize,
    ) -> impl Iterator<Item = usize> + 'c {
        ours.differing_ranges(theirs)
            .flat_map(move |(start, end)| start / per_line..end.div_ceil(per_line))
            .filter(move |&line| {
                self.valid[line]
                    && ours.slice(line * per_line, per_line)
                        != theirs.slice(line * per_line, per_line)
            })
    }

    /// Whether one set's valid ways (valid here) have the same pairwise
    /// recency ordering in both caches.
    fn set_order_eq(&self, other: &Cache, set: usize) -> bool {
        let base = set * self.geom.ways;
        for i in 0..self.geom.ways {
            if !self.valid[base + i] {
                continue;
            }
            for j in (i + 1)..self.geom.ways {
                if !self.valid[base + j] {
                    continue;
                }
                let ours = self.lru[base + i].cmp(&self.lru[base + j]);
                let theirs = other.lru[base + i].cmp(&other.lru[base + j]);
                if ours != theirs {
                    return false;
                }
            }
        }
        true
    }

    /// Number of storage chunks (across all five arrays) still physically
    /// shared with `other` — the complement of what a fork has had to copy.
    pub fn shared_state_chunks(&self, other: &Cache) -> usize {
        self.tags.shared_chunk_count(&other.tags)
            + self.valid.shared_chunk_count(&other.valid)
            + self.dirty.shared_chunk_count(&other.dirty)
            + self.lru.shared_chunk_count(&other.lru)
            + self.data.shared_chunk_count(&other.data)
    }

    /// Total number of storage chunks across all five arrays.
    pub fn state_chunk_count(&self) -> usize {
        self.tags.chunk_count()
            + self.valid.chunk_count()
            + self.dirty.chunk_count()
            + self.lru.chunk_count()
            + self.data.chunk_count()
    }

    /// Geometry of this cache.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Width of a stored tag in bits.
    pub fn tag_width(&self) -> u32 {
        self.tag_width
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.offset_bits) & self.set_mask) as usize
    }

    fn tag_of(&self, addr: u64) -> u64 {
        (addr >> self.tag_shift) & self.tag_mask
    }

    /// Watches exactly the sets in `sets` (none when it is empty), dropping
    /// any earlier watch and its hits.
    pub(crate) fn watch(&mut self, sets: &BitSet) {
        self.watch = Watch::on(sets);
    }

    /// The watched sets [`Cache::lookup`] looked up since the watch was set
    /// or the hits were last taken.
    pub(crate) fn take_watch_hits(&mut self) -> BitSet {
        self.watch
            .as_deref_mut()
            .map(Watch::take_hits)
            .unwrap_or_default()
    }

    /// Looks up `addr`; on a hit returns the line index and refreshes LRU.
    ///
    /// Every access to a set starts here: a demand hit, a miss (before
    /// [`Cache::victim`], [`Cache::fill`] and the eviction on the same
    /// set), and an L1 write-back into L2. So this is where a watched set
    /// is noted as read.
    pub fn lookup(&mut self, addr: u64) -> Option<usize> {
        let set = self.set_of(addr);
        if let Some(w) = self.watch.as_deref_mut() {
            w.note(set);
        }
        let tag = self.tag_of(addr);
        for way in 0..self.geom.ways {
            let line = set * self.geom.ways + way;
            if self.valid[line] && self.tags[line] == tag {
                self.use_counter += 1;
                self.lru.set(line, self.use_counter);
                self.hits += 1;
                return Some(line);
            }
        }
        self.misses += 1;
        None
    }

    /// Chooses a victim line in `addr`'s set (an invalid way if any,
    /// otherwise least-recently used).
    pub fn victim(&self, addr: u64) -> usize {
        let set = self.set_of(addr);
        let base = set * self.geom.ways;
        for way in 0..self.geom.ways {
            if !self.valid[base + way] {
                return base + way;
            }
        }
        (0..self.geom.ways)
            .map(|w| base + w)
            .min_by_key(|&l| self.lru[l])
            .expect("cache has at least one way")
    }

    /// Whether the line is valid.
    pub fn is_valid(&self, line: usize) -> bool {
        self.valid[line]
    }

    /// Whether the line is dirty.
    pub fn is_dirty(&self, line: usize) -> bool {
        self.dirty[line]
    }

    /// Marks a line dirty (after a write hit).
    pub fn set_dirty(&mut self, line: usize, dirty: bool) {
        self.dirty.set(line, dirty);
    }

    /// The data bytes of a line.
    pub fn line_data(&self, line: usize) -> &[u8] {
        let lb = self.geom.line_bytes as usize;
        self.data.slice(line * lb, lb)
    }

    /// Mutable data bytes of a line.
    pub fn line_data_mut(&mut self, line: usize) -> &mut [u8] {
        let lb = self.geom.line_bytes as usize;
        self.data.slice_mut(line * lb, lb)
    }

    /// Installs a line for `addr` at `line` with the given contents.
    pub fn fill(&mut self, line: usize, addr: u64, contents: &[u8]) {
        self.install(line, addr).copy_from_slice(contents);
    }

    /// Installs a line for `addr` at `line` (tag, valid, clean, most
    /// recently used) and returns its data bytes, which the caller fills
    /// straight from the level below.
    pub(crate) fn install(&mut self, line: usize, addr: u64) -> &mut [u8] {
        self.tags.set(line, self.tag_of(addr));
        self.valid.set(line, true);
        self.dirty.set(line, false);
        self.use_counter += 1;
        self.lru.set(line, self.use_counter);
        self.line_data_mut(line)
    }

    /// Invalidates a line.
    pub fn invalidate(&mut self, line: usize) {
        self.valid.set(line, false);
        self.dirty.set(line, false);
    }

    /// Reconstructs the base address a line maps to from its (possibly
    /// corrupted) stored tag. The result may lie outside guest memory.
    pub fn reconstruct_addr(&self, line: usize) -> u64 {
        let set = (line / self.geom.ways) as u64;
        (self.tags[line] << self.tag_shift) | (set << self.offset_bits)
    }

    /// Total injectable bits in the data array.
    pub fn data_bits(&self) -> u64 {
        self.data.len() as u64 * 8
    }

    /// Total injectable bits in the tag array (tag + valid + dirty per line).
    pub fn tag_bits(&self) -> u64 {
        self.tags.len() as u64 * (self.tag_width as u64 + 2)
    }

    /// Flips one bit of the data array.
    pub fn flip_data_bit(&mut self, bit: u64) {
        assert!(bit < self.data_bits(), "data bit index out of range");
        *self.data.get_mut((bit / 8) as usize) ^= 1 << (bit % 8);
    }

    /// Flips one bit of the tag array (tag value, valid, or dirty bit).
    pub fn flip_tag_bit(&mut self, bit: u64) {
        assert!(bit < self.tag_bits(), "tag bit index out of range");
        let per_line = self.tag_width as u64 + 2;
        let line = (bit / per_line) as usize;
        let field = bit % per_line;
        if field < self.tag_width as u64 {
            *self.tags.get_mut(line) ^= 1 << field;
        } else if field == self.tag_width as u64 {
            let v = self.valid[line];
            self.valid.set(line, !v);
        } else {
            let d = self.dirty[line];
            self.dirty.set(line, !d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets × 2 ways × 64B = 512 B.
        Cache::new(CacheGeometry {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(c.lookup(0x1000).is_none());
        let v = c.victim(0x1000);
        c.fill(v, 0x1000, &[7u8; 64]);
        let line = c.lookup(0x1000).expect("hit after fill");
        assert_eq!(line, v);
        assert_eq!(c.line_data(line)[0], 7);
        assert_eq!((c.hits, c.misses), (1, 1));
    }

    #[test]
    fn lru_victim_selection() {
        let mut c = small();
        // Two lines mapping to the same set (set bits = bits 6..8).
        let a = 0x1000u64;
        let b = 0x2000u64; // same set 0, different tag
        let d = 0x3000u64;
        let va = c.victim(a);
        c.fill(va, a, &[1; 64]);
        let vb = c.victim(b);
        assert_ne!(va, vb, "invalid way preferred");
        c.fill(vb, b, &[2; 64]);
        // Touch a so b becomes LRU.
        c.lookup(a);
        let vd = c.victim(d);
        assert_eq!(vd, vb, "least-recently-used way evicted");
    }

    #[test]
    fn reconstruct_addr_roundtrip() {
        let mut c = small();
        for addr in [0x1000u64, 0x2f40, 0x10_0080] {
            let v = c.victim(addr);
            c.fill(v, addr, &[0; 64]);
            assert_eq!(c.reconstruct_addr(v), addr & !63);
        }
    }

    #[test]
    fn data_bit_flip_changes_exactly_one_bit() {
        let mut c = small();
        let v = c.victim(0x1000);
        c.fill(v, 0x1000, &[0; 64]);
        let bit = (v * 64 * 8) as u64 + 13;
        c.flip_data_bit(bit);
        assert_eq!(c.line_data(v)[1], 1 << 5);
        c.flip_data_bit(bit);
        assert_eq!(c.line_data(v)[1], 0);
    }

    #[test]
    fn tag_bit_flip_breaks_and_restores_hit() {
        let mut c = small();
        let v = c.victim(0x1000);
        c.fill(v, 0x1000, &[0; 64]);
        let per_line = c.tag_width() as u64 + 2;
        c.flip_tag_bit(v as u64 * per_line); // lowest tag bit
        assert!(c.lookup(0x1000).is_none(), "corrupted tag must miss");
        c.flip_tag_bit(v as u64 * per_line);
        assert!(c.lookup(0x1000).is_some());
    }

    #[test]
    fn valid_bit_flip_drops_line() {
        let mut c = small();
        let v = c.victim(0x1000);
        c.fill(v, 0x1000, &[0; 64]);
        let per_line = c.tag_width() as u64 + 2;
        c.flip_tag_bit(v as u64 * per_line + c.tag_width() as u64);
        assert!(!c.is_valid(v));
        assert!(c.lookup(0x1000).is_none());
    }

    #[test]
    fn tag_flip_can_alias_another_address() {
        let mut c = small();
        let v = c.victim(0x1000);
        c.fill(v, 0x1000, &[9; 64]);
        // Tag = addr >> 8 here (4 sets × 64 B lines); flipping stored-tag
        // bit 0 turns tag 0x10 into 0x11, i.e. the line aliases 0x1100.
        let per_line = c.tag_width() as u64 + 2;
        c.flip_tag_bit(v as u64 * per_line);
        assert_eq!(c.lookup(0x1100), Some(v), "aliased hit with stale data");
        assert_eq!(c.line_data(v)[0], 9);
    }

    #[test]
    fn state_eq_ignores_absolute_lru_stamps() {
        // Same recency *order*, different absolute stamps: a transient extra
        // miss elsewhere advanced one machine's use_counter further. The old
        // stamp-for-stamp comparison could never call these equal again.
        let mut a = small();
        let mut b = small();
        for addr in [0x1000u64, 0x2000, 0x1000] {
            let v = a.victim(addr);
            if a.lookup(addr).is_none() {
                a.fill(v, addr, &[0; 64]);
            }
        }
        // b performs the same accesses plus extra touches that only advance
        // the clock without changing order (re-hitting the same line).
        for addr in [0x1000u64, 0x2000, 0x1000, 0x1000, 0x1000] {
            let v = b.victim(addr);
            if b.lookup(addr).is_none() {
                b.fill(v, addr, &[0; 64]);
            }
        }
        assert!(a.state_eq(&b), "equal order must compare equal");
        assert!(b.state_eq(&a));
    }

    #[test]
    fn state_eq_rejects_different_lru_order() {
        let mut a = small();
        let mut b = small();
        for c in [&mut a, &mut b] {
            for addr in [0x1000u64, 0x2000] {
                let v = c.victim(addr);
                c.fill(v, addr, &[0; 64]);
            }
        }
        // Touch different lines so the recency order genuinely diverges.
        a.lookup(0x1000);
        b.lookup(0x2000);
        assert!(
            !a.state_eq(&b),
            "different victim choice must not compare equal"
        );
    }

    #[test]
    fn state_eq_ignores_stale_stamps_of_invalid_lines() {
        let mut a = small();
        let mut b = small();
        // Both fill the same line identically; a then re-hits it (advancing
        // only its stamp) before both invalidate. The stamps now disagree
        // but the line is dead: fill rewrites the stamp before victim can
        // ever consult it.
        for c in [&mut a, &mut b] {
            let v = c.victim(0x1000);
            c.fill(v, 0x1000, &[0; 64]);
        }
        a.lookup(0x1000);
        let la = a.lookup(0x1000).unwrap();
        a.invalidate(la);
        let lb = b.lookup(0x1000).unwrap();
        b.invalidate(lb);
        assert!(a.state_eq(&b) && b.state_eq(&a), "dead stamps are ignored");
    }

    #[test]
    fn state_eq_ignores_tag_dirty_and_data_of_invalid_lines() {
        let mut a = small();
        let v = a.victim(0x1000);
        a.fill(v, 0x1000, &[3; 64]);
        a.invalidate(v);
        let per_line = a.tag_width() as u64 + 2;
        let dead = 5usize; // never filled
        for line in [v, dead] {
            let mut b = a.clone();
            b.flip_tag_bit(line as u64 * per_line + 3);
            b.flip_tag_bit(line as u64 * per_line + b.tag_width() as u64 + 1);
            b.flip_data_bit((line * 64 * 8) as u64 + 17);
            assert!(!b.is_valid(line) && b.is_dirty(line));
            assert!(a.state_eq(&b) && b.state_eq(&a), "line {line} is dead");
        }
    }

    #[test]
    fn state_eq_sees_tag_dirty_and_data_of_valid_lines() {
        let mut a = small();
        let v = a.victim(0x1000);
        a.fill(v, 0x1000, &[3; 64]);
        let per_line = a.tag_width() as u64 + 2;
        let tag = v as u64 * per_line;
        for bit in [tag, tag + a.tag_width() as u64 + 1] {
            let mut b = a.clone();
            b.flip_tag_bit(bit);
            assert!(!a.state_eq(&b) && !b.state_eq(&a), "tag-array bit {bit}");
        }
        let mut b = a.clone();
        b.flip_data_bit((v * 64 * 8) as u64 + 63 * 8);
        assert!(!a.state_eq(&b) && !b.state_eq(&a), "last data byte");
    }

    #[test]
    fn state_eq_sees_every_valid_bit() {
        let mut a = small();
        let v = a.victim(0x1000);
        a.fill(v, 0x1000, &[0; 64]);
        let per_line = a.tag_width() as u64 + 2;
        // Clearing a live line's valid bit, or setting a dead line's (even
        // one whose tag, dirty bit and data all still read zero).
        for line in [v, 7] {
            let mut b = a.clone();
            b.flip_tag_bit(line as u64 * per_line + a.tag_width() as u64);
            assert_ne!(a.is_valid(line), b.is_valid(line));
            assert!(
                !a.state_eq(&b) && !b.state_eq(&a),
                "valid bit of line {line}"
            );
        }
    }

    #[test]
    fn delta_names_each_differing_set_once() {
        let mut a = small();
        for addr in [0x1000u64, 0x1040, 0x2040] {
            let v = a.victim(addr);
            a.fill(v, addr, &[1; 64]);
        }
        let per_line = a.tag_width() as u64 + 2;
        let line0 = a.lookup(0x1000).unwrap();
        let mut b = a.clone();
        assert!(b.delta(&a).is_empty());
        // Set 0: a tag and a data flip in its valid line. Set 1: the LRU
        // order of its two valid lines. Set 3: a valid bit. Set 2 (lines 4
        // and 5) stays invalid, so flips in its dead lines are no
        // difference.
        b.flip_tag_bit(line0 as u64 * per_line + 1);
        b.flip_data_bit(line0 as u64 * 64 * 8 + 5);
        b.lookup(0x1040);
        b.flip_data_bit(4 * 64 * 8 + 5);
        b.flip_tag_bit(5 * per_line + 2);
        b.flip_tag_bit(7 * per_line + b.tag_width() as u64);
        assert_eq!(b.delta(&a).iter().collect::<Vec<_>>(), vec![0, 1, 3]);
        assert!(!b.state_eq(&a) && !a.state_eq(&b));
    }

    #[test]
    fn watch_notes_looked_up_sets() {
        let mut c = small();
        let sets: BitSet = [1, 3].into_iter().collect();
        c.watch(&sets);
        c.lookup(0x1000); // set 0
        c.lookup(0x10c0); // set 3
        assert_eq!(c.take_watch_hits().iter().collect::<Vec<_>>(), vec![3]);
        let fork = c.clone();
        c.watch(&BitSet::default());
        c.lookup(0x1040);
        assert!(
            c.take_watch_hits().is_empty(),
            "an empty watch watches nothing"
        );
        assert!(fork.state_eq(&c), "the watch is not cache state");
    }

    #[test]
    fn clone_shares_all_chunks_until_written() {
        let mut a = small();
        let v = a.victim(0x1000);
        a.fill(v, 0x1000, &[5; 64]);
        let mut b = a.clone();
        assert_eq!(a.shared_state_chunks(&b), a.state_chunk_count());
        b.flip_data_bit((v * 64 * 8) as u64);
        assert_eq!(
            a.shared_state_chunks(&b),
            a.state_chunk_count() - 1,
            "a single flip unshares exactly one chunk"
        );
        assert!(!a.state_eq(&b));
        b.flip_data_bit((v * 64 * 8) as u64);
        assert!(a.state_eq(&b), "flip undone: equal again despite unsharing");
    }

    #[test]
    fn bit_counts_match_table_1_formulas() {
        let c = Cache::new(CacheGeometry {
            size_bytes: 32 * 1024,
            ways: 2,
            line_bytes: 64,
        });
        assert_eq!(c.data_bits(), 32 * 1024 * 8);
        // 512 lines × (18-bit tag + valid + dirty).
        assert_eq!(c.tag_width(), 32 - 8 - 6);
        assert_eq!(c.tag_bits(), 512 * 20);
    }
}
