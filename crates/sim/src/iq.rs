//! Issue queue with injectable **source** and **destination** fields (the
//! paper's two IQ injection targets).
//!
//! The source field of each entry holds the two source physical-register
//! tags plus their ready bits: a flipped tag stops the entry from matching
//! its producer's wakeup broadcast (deadlock → Timeout), and an entry that
//! does issue has its tags cross-checked against the rename payload
//! (mismatch → Assert) — reproducing the balanced Timeout/Assert behaviour
//! the paper reports for the IQ.

use crate::regs::PhysReg;

/// Injectable per-entry source field: `[src1:8][rdy1:1][src2:8][rdy2:1]`.
pub const SRC_BITS_PER_ENTRY: u64 = 18;

/// Injectable per-entry destination field: `[dest:8][valid:1]`.
pub const DEST_BITS_PER_ENTRY: u64 = 9;

/// Non-injectable payload of an IQ entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IqPayload {
    /// ROB slot of the instruction.
    pub rob_idx: usize,
    /// Sequence number (issue priority: oldest first).
    pub seq: u64,
    /// Whether the instruction reads a first source.
    pub has_src1: bool,
    /// Whether it reads a second source.
    pub has_src2: bool,
    /// Golden copies for cross-checking the injectable fields.
    pub golden_src1: PhysReg,
    /// Golden second source tag.
    pub golden_src2: PhysReg,
    /// Golden destination tag (0 when the uop writes no register).
    pub golden_dest: PhysReg,
}

/// The issue queue.
///
/// Per-slot flags (valid, the two source-ready bits, and payload
/// occupancy) are bitsets, so the per-cycle scans (wakeup, readiness,
/// free-slot search, squash) visit only the slots whose bits are set.
///
/// Deliberately **not** `PartialEq`: the only sound comparison is
/// [`IssueQueue::state_eq`], which excludes the dead fields of free slots.
/// A derived `==` would be stricter and silently misreport divergence.
#[derive(Debug, Clone)]
pub struct IssueQueue {
    n: usize,
    // Injectable source field.
    src1_tag: Vec<PhysReg>,
    src1_ready: SlotSet,
    src2_tag: Vec<PhysReg>,
    src2_ready: SlotSet,
    // Injectable destination field.
    dest_tag: Vec<PhysReg>,
    valid: SlotSet,
    /// Slots holding a dispatched instruction; `payload[s]` is meaningful
    /// only where this bit is set.
    held: SlotSet,
    payload: Vec<IqPayload>,
}

/// Payload placeholder for slots that hold no instruction.
const NO_PAYLOAD: IqPayload = IqPayload {
    rob_idx: 0,
    seq: 0,
    has_src1: false,
    has_src2: false,
    golden_src1: 0,
    golden_src2: 0,
    golden_dest: 0,
};

/// One bit per issue-queue slot, 64 slots per word.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SlotSet(Vec<u64>);

impl SlotSet {
    fn new(n: usize) -> SlotSet {
        SlotSet(vec![0; n.div_ceil(64)])
    }

    fn get(&self, slot: usize) -> bool {
        (self.0[slot / 64] >> (slot % 64)) & 1 != 0
    }

    fn set(&mut self, slot: usize, on: bool) {
        let bit = 1 << (slot % 64);
        if on {
            self.0[slot / 64] |= bit;
        } else {
            self.0[slot / 64] &= !bit;
        }
    }

    fn toggle(&mut self, slot: usize) {
        self.0[slot / 64] ^= 1 << (slot % 64);
    }
}

/// Slot indices of the set bits of `word`, the `w`-th word of a set.
fn slots_of(w: usize, mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            w * 64 + bit
        })
    })
}

impl IssueQueue {
    /// Creates an empty issue queue of `n` entries.
    pub fn new(n: usize) -> IssueQueue {
        IssueQueue {
            n,
            src1_tag: vec![0; n],
            src1_ready: SlotSet::new(n),
            src2_tag: vec![0; n],
            src2_ready: SlotSet::new(n),
            dest_tag: vec![0; n],
            valid: SlotSet::new(n),
            held: SlotSet::new(n),
            payload: vec![NO_PAYLOAD; n],
        }
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.n
    }

    /// Unusable entries: valid bit set or payload present. Dispatched
    /// entries, plus the ghosts and zombies an injected valid-bit flip
    /// creates.
    pub fn len(&self) -> usize {
        self.live_words().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.live_words().all(|w| w == 0)
    }

    /// Whether the queue is full.
    pub fn is_full(&self) -> bool {
        self.len() >= self.n
    }

    /// Whether a physically insertable slot exists. This can differ from
    /// `!is_full()` when an injected valid-bit flip creates a zombie entry
    /// (payload present but valid cleared): such slots are unusable until
    /// the program times out, and dispatch must stall rather than panic.
    pub fn has_free_slot(&self) -> bool {
        self.free_words().any(|w| w != 0)
    }

    /// Whether a slot is free: valid bit clear and no dispatched payload.
    /// Zombies (payload kept, valid cleared) and ghosts (valid set, no
    /// payload) are not free.
    fn is_free(&self, slot: usize) -> bool {
        !self.valid.get(slot) && !self.held.get(slot)
    }

    /// Words of the not-free slots (valid bit set or payload present).
    fn live_words(&self) -> impl Iterator<Item = u64> + '_ {
        self.valid.0.iter().zip(&self.held.0).map(|(v, h)| v | h)
    }

    /// Words of the free slots, with the bits past the last slot cleared.
    fn free_words(&self) -> impl Iterator<Item = u64> + '_ {
        let n = self.n;
        self.live_words().enumerate().map(move |(w, live)| {
            let in_range = match n - w * 64 {
                rest if rest >= 64 => !0,
                rest => (1 << rest) - 1,
            };
            !live & in_range
        })
    }

    /// Whether two issue queues hold execution-equivalent state: identical
    /// valid bits and payload occupancy, identical payloads, and identical
    /// source and destination fields in every slot that is not free.
    ///
    /// The src, dest and ready fields of a free slot are dead.
    /// [`IssueQueue::broadcast`] and [`IssueQueue::ready_entries`] skip
    /// slots whose valid bit is clear, the issue stage reads
    /// [`IssueQueue::stored_tags`] only for slots `ready_entries` returned,
    /// and [`IssueQueue::insert`] rewrites every field of the free slot it
    /// takes. Valid bits and occupancy are compared exactly, so both queues
    /// agree on which slots are free.
    pub fn state_eq(&self, other: &IssueQueue) -> bool {
        let ready_eq = |ours: &SlotSet, theirs: &SlotSet| {
            self.live_words()
                .zip(ours.0.iter().zip(&theirs.0))
                .all(|(live, (a, b))| (a ^ b) & live == 0)
        };
        self.n == other.n
            && self.valid == other.valid
            && self.held == other.held
            && ready_eq(&self.src1_ready, &other.src1_ready)
            && ready_eq(&self.src2_ready, &other.src2_ready)
            && self.live_words().enumerate().all(|(w, live)| {
                slots_of(w, live).all(|s| {
                    self.src1_tag[s] == other.src1_tag[s]
                        && self.src2_tag[s] == other.src2_tag[s]
                        && self.dest_tag[s] == other.dest_tag[s]
                        && (!self.held.get(s) || self.payload[s] == other.payload[s])
                })
            })
    }

    /// Whether flipping source-field `bit` leaves [`IssueQueue::state_eq`]
    /// against the unflipped queue true: every source bit (tags and ready
    /// bits) of a free slot is dead, every other one is compared.
    pub(crate) fn src_bit_is_dead(&self, bit: u64) -> bool {
        self.is_free((bit / SRC_BITS_PER_ENTRY) as usize)
    }

    /// Whether flipping destination-field `bit` leaves
    /// [`IssueQueue::state_eq`] true: the destination tag of a free slot is
    /// dead; the valid bit never is (flipping it creates a ghost or a
    /// zombie).
    pub(crate) fn dest_bit_is_dead(&self, bit: u64) -> bool {
        bit % DEST_BITS_PER_ENTRY < 8 && self.is_free((bit / DEST_BITS_PER_ENTRY) as usize)
    }

    /// Inserts an entry into the lowest free slot; returns the slot, or
    /// `None` when no insertable slot exists. Dispatch guards with
    /// [`IssueQueue::has_free_slot`], so `None` only happens when a fault
    /// corrupted the capacity bookkeeping; returning it (instead of
    /// panicking) lets the pipeline classify the run as an Assert even
    /// under `panic = "abort"`.
    pub fn insert(
        &mut self,
        payload: IqPayload,
        src1_ready: bool,
        src2_ready: bool,
    ) -> Option<usize> {
        let slot = self
            .free_words()
            .enumerate()
            .find_map(|(w, free)| slots_of(w, free).next())?;
        self.src1_tag[slot] = payload.golden_src1;
        self.src2_tag[slot] = payload.golden_src2;
        self.src1_ready.set(slot, src1_ready || !payload.has_src1);
        self.src2_ready.set(slot, src2_ready || !payload.has_src2);
        self.dest_tag[slot] = payload.golden_dest;
        self.valid.set(slot, true);
        self.held.set(slot, true);
        self.payload[slot] = payload;
        Some(slot)
    }

    /// Removes an entry (after issue or squash).
    pub fn remove(&mut self, slot: usize) {
        self.valid.set(slot, false);
        self.held.set(slot, false);
    }

    /// Wakeup broadcast: marks matching source tags ready.
    pub fn broadcast(&mut self, tag: PhysReg) {
        for (w, &valid) in self.valid.0.iter().enumerate() {
            for slot in slots_of(w, valid) {
                if self.src1_tag[slot] == tag {
                    self.src1_ready.set(slot, true);
                }
                if self.src2_tag[slot] == tag {
                    self.src2_ready.set(slot, true);
                }
            }
        }
    }

    /// Fills `ready` with the entries that are valid and fully ready,
    /// oldest (smallest seq) first. The caller owns the buffer so the issue
    /// stage can reuse one allocation every cycle.
    ///
    /// An entry whose injectable valid bit is set but whose payload is gone
    /// is reported so the pipeline can raise an Assert.
    pub fn ready_entries(&self, ready: &mut Vec<usize>) -> Result<(), &'static str> {
        ready.clear();
        for (w, &valid) in self.valid.0.iter().enumerate() {
            if valid & !self.held.0[w] != 0 {
                return Err("IQ entry valid without a dispatched instruction");
            }
            ready.extend(slots_of(
                w,
                valid & self.src1_ready.0[w] & self.src2_ready.0[w],
            ));
        }
        ready.sort_unstable_by_key(|&slot| (self.payload[slot].seq, slot));
        Ok(())
    }

    /// Reads the injectable fields of an entry:
    /// `(src1, src2, dest)` tags as currently stored.
    pub fn stored_tags(&self, slot: usize) -> (PhysReg, PhysReg, PhysReg) {
        (
            self.src1_tag[slot],
            self.src2_tag[slot],
            self.dest_tag[slot],
        )
    }

    /// Payload of an entry.
    pub fn payload(&self, slot: usize) -> Option<&IqPayload> {
        self.held.get(slot).then(|| &self.payload[slot])
    }

    /// Removes all entries with `seq > boundary` (mispredict squash).
    pub fn squash_younger(&mut self, boundary: u64) {
        for w in 0..self.held.0.len() {
            for slot in slots_of(w, self.held.0[w]) {
                if self.payload[slot].seq > boundary {
                    self.remove(slot);
                }
            }
        }
    }

    /// Injectable bits of the source field.
    pub fn src_bits(&self) -> u64 {
        self.n as u64 * SRC_BITS_PER_ENTRY
    }

    /// Injectable bits of the destination field.
    pub fn dest_bits(&self) -> u64 {
        self.n as u64 * DEST_BITS_PER_ENTRY
    }

    /// Flips a bit of the source field.
    pub fn flip_src_bit(&mut self, bit: u64) {
        assert!(bit < self.src_bits(), "IQ src bit out of range");
        let slot = (bit / SRC_BITS_PER_ENTRY) as usize;
        let off = bit % SRC_BITS_PER_ENTRY;
        match off {
            0..=7 => self.src1_tag[slot] ^= 1 << off,
            8 => self.src1_ready.toggle(slot),
            9..=16 => self.src2_tag[slot] ^= 1 << (off - 9),
            _ => self.src2_ready.toggle(slot),
        }
    }

    /// Flips a bit of the destination field. Flipping the valid bit of a
    /// dispatched entry makes a zombie (payload kept, valid cleared), and
    /// flipping it on a free slot makes a ghost (valid set, no payload);
    /// both stay unusable.
    pub fn flip_dest_bit(&mut self, bit: u64) {
        assert!(bit < self.dest_bits(), "IQ dest bit out of range");
        let slot = (bit / DEST_BITS_PER_ENTRY) as usize;
        let off = bit % DEST_BITS_PER_ENTRY;
        if off < 8 {
            self.dest_tag[slot] ^= 1 << off;
        } else {
            self.valid.toggle(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready_slots(iq: &IssueQueue) -> Result<Vec<usize>, &'static str> {
        let mut ready = Vec::new();
        iq.ready_entries(&mut ready).map(|()| ready)
    }

    fn payload(seq: u64, s1: PhysReg, s2: PhysReg, d: PhysReg) -> IqPayload {
        IqPayload {
            rob_idx: seq as usize,
            seq,
            has_src1: true,
            has_src2: true,
            golden_src1: s1,
            golden_src2: s2,
            golden_dest: d,
        }
    }

    #[test]
    fn wakeup_then_ready_oldest_first() {
        let mut iq = IssueQueue::new(4);
        iq.insert(payload(2, 10, 11, 20), false, false);
        iq.insert(payload(1, 10, 0, 21), false, true);
        assert!(ready_slots(&iq).unwrap().is_empty());
        iq.broadcast(10);
        let ready = ready_slots(&iq).unwrap();
        assert_eq!(ready.len(), 1, "entry 2 still waits on tag 11");
        assert_eq!(iq.payload(ready[0]).unwrap().seq, 1);
        iq.broadcast(11);
        let ready = ready_slots(&iq).unwrap();
        assert_eq!(
            (
                iq.payload(ready[0]).unwrap().seq,
                iq.payload(ready[1]).unwrap().seq
            ),
            (1, 2),
            "oldest first"
        );
    }

    #[test]
    fn flipped_src_tag_misses_broadcast() {
        let mut iq = IssueQueue::new(2);
        let slot = iq.insert(payload(1, 10, 0, 20), false, true).unwrap();
        iq.flip_src_bit(slot as u64 * SRC_BITS_PER_ENTRY); // tag 10 → 11
        iq.broadcast(10);
        assert!(ready_slots(&iq).unwrap().is_empty(), "wakeup missed");
        iq.broadcast(11);
        assert_eq!(
            ready_slots(&iq).unwrap().len(),
            1,
            "wrong producer wakes it"
        );
        let (s1, _, _) = iq.stored_tags(slot);
        assert_eq!(s1, 11, "cross-check against payload 10 must fail");
    }

    #[test]
    fn ready_bit_flip_makes_entry_issueable() {
        let mut iq = IssueQueue::new(2);
        let slot = iq.insert(payload(1, 10, 0, 20), false, true).unwrap();
        iq.flip_src_bit(slot as u64 * SRC_BITS_PER_ENTRY + 8);
        assert_eq!(ready_slots(&iq).unwrap(), vec![slot]);
    }

    #[test]
    fn ghost_valid_bit_detected() {
        let mut iq = IssueQueue::new(2);
        iq.flip_dest_bit(DEST_BITS_PER_ENTRY - 1); // valid bit of slot 0
        assert!(ready_slots(&iq).is_err());
    }

    #[test]
    fn squash_removes_younger_only() {
        let mut iq = IssueQueue::new(4);
        iq.insert(payload(1, 0, 0, 1), true, true).unwrap();
        iq.insert(payload(5, 0, 0, 2), true, true).unwrap();
        iq.insert(payload(9, 0, 0, 3), true, true).unwrap();
        iq.squash_younger(5);
        assert_eq!(iq.len(), 2);
        let seqs: Vec<u64> = ready_slots(&iq)
            .unwrap()
            .into_iter()
            .map(|s| iq.payload(s).unwrap().seq)
            .collect();
        assert_eq!(seqs, vec![1, 5]);
    }

    #[test]
    fn insert_on_full_queue_returns_none_instead_of_panicking() {
        let mut iq = IssueQueue::new(1);
        iq.insert(payload(1, 0, 0, 1), true, true).unwrap();
        assert_eq!(iq.insert(payload(2, 0, 0, 2), true, true), None);
    }

    #[test]
    fn state_eq_ignores_fields_of_free_slots() {
        let mut a = IssueQueue::new(4);
        let slot = a.insert(payload(1, 10, 11, 20), false, false).unwrap();
        a.remove(slot); // the slot is free again, its old tags linger
        for free in [slot, 3] {
            let mut b = a.clone();
            for bit in 0..SRC_BITS_PER_ENTRY {
                b.flip_src_bit(free as u64 * SRC_BITS_PER_ENTRY + bit);
            }
            for bit in 0..DEST_BITS_PER_ENTRY - 1 {
                b.flip_dest_bit(free as u64 * DEST_BITS_PER_ENTRY + bit);
            }
            assert!(a.state_eq(&b) && b.state_eq(&a), "slot {free} is free");
        }
    }

    #[test]
    fn state_eq_sees_fields_of_occupied_slots_and_valid_bits() {
        let mut a = IssueQueue::new(4);
        let slot = a.insert(payload(1, 10, 11, 20), false, false).unwrap();
        for bit in 0..SRC_BITS_PER_ENTRY {
            let mut b = a.clone();
            b.flip_src_bit(slot as u64 * SRC_BITS_PER_ENTRY + bit);
            assert!(!a.state_eq(&b) && !b.state_eq(&a), "src bit {bit}");
        }
        // Dest tag bits of the occupied slot, then the valid bit of the
        // occupied slot (a zombie) and of a free one (a ghost).
        for (s, bit) in (0..DEST_BITS_PER_ENTRY).map(|b| (slot, b)).chain([(3, 8)]) {
            let mut b = a.clone();
            b.flip_dest_bit(s as u64 * DEST_BITS_PER_ENTRY + bit);
            assert!(
                !a.state_eq(&b) && !b.state_eq(&a),
                "slot {s} dest bit {bit}"
            );
        }
    }

    #[test]
    fn capacity_tracking() {
        let mut iq = IssueQueue::new(2);
        let a = iq.insert(payload(1, 0, 0, 1), true, true).unwrap();
        iq.insert(payload(2, 0, 0, 2), true, true).unwrap();
        assert!(iq.is_full());
        iq.remove(a);
        assert!(!iq.is_full());
        assert_eq!(iq.len(), 1);
    }
}
