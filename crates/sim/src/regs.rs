//! Physical register file, rename maps, and the free list.
//!
//! The register *values* are a fault-injection target (the paper's RF
//! structure: 128×32 bit on the A15-like machine, 192×64 bit on the
//! A72-like one). Rename metadata (maps, free list, ready bits) is bookkeeping
//! the paper does not inject, but it *checks* consistency and raises
//! Assert-class failures when corrupted ROB fields feed it garbage.

use crate::delta::{BitSet, Watch};
use softerr_isa::CowVec;
use softerr_isa::Profile;

/// Physical register index.
pub type PhysReg = u8;

/// Chunk size (registers) for the copy-on-write value bank.
const VALUE_CHUNK: usize = 32;

/// Most architectural registers a profile has: the length of a
/// [`RenameCheckpoint`].
pub const MAX_ARCH_REGS: usize = 32;

/// A branch's copy of the speculative map, stored inline: entries past the
/// profile's register count stay zero.
pub type RenameCheckpoint = [PhysReg; MAX_ARCH_REGS];

/// Physical register file plus rename state.
///
/// Deliberately **not** `PartialEq`: the only sound comparison is
/// [`RegisterFile::state_eq`], which excludes the dead values of free
/// registers. A derived `==` would be stricter and silently misreport
/// divergence at any call site that reached for it.
///
/// The value bank lives in copy-on-write chunked storage so forked children
/// share it with the golden run until one of them writes a register.
#[derive(Debug, Clone)]
pub struct RegisterFile {
    profile: Profile,
    nphys: usize,
    values: CowVec<u64>,
    ready: Vec<bool>,
    /// Speculative (front-end) map, arch → phys.
    pub spec_map: Vec<PhysReg>,
    /// Architectural (retirement) map.
    pub arch_map: Vec<PhysReg>,
    free_list: Vec<PhysReg>,
    is_free: Vec<bool>,
    /// Registers whose reads at issue are noted ([`RegisterFile::watch`]).
    /// Not machine state: [`RegisterFile::state_eq`] ignores it.
    watch: Option<Box<Watch>>,
}

impl RegisterFile {
    /// Creates the rename state: phys 0 is the hardwired zero register,
    /// permanently mapped to arch reg 0.
    pub fn new(profile: Profile, nphys: usize) -> RegisterFile {
        assert!(nphys <= 256, "phys tags are stored in 8 bits");
        assert!(nphys > profile.nregs(), "need more phys than arch regs");
        assert!(
            profile.nregs() <= MAX_ARCH_REGS,
            "checkpoints hold 32 entries"
        );
        let nregs = profile.nregs();
        // arch reg i initially maps to phys i (phys 0 = zero).
        let spec_map: Vec<PhysReg> = (0..nregs as u8).collect();
        let free_list: Vec<PhysReg> = ((nregs as u8)..(nphys as u8)).rev().collect();
        let mut is_free = vec![false; nphys];
        for &r in &free_list {
            is_free[r as usize] = true;
        }
        RegisterFile {
            profile,
            nphys,
            values: CowVec::new(nphys, VALUE_CHUNK, 0),
            ready: vec![true; nphys],
            arch_map: spec_map.clone(),
            spec_map,
            free_list,
            is_free,
            watch: None,
        }
    }

    /// Number of physical registers.
    pub fn nphys(&self) -> usize {
        self.nphys
    }

    /// Whether a tag is architecturally valid for this file.
    pub fn tag_valid(&self, tag: PhysReg) -> bool {
        (tag as usize) < self.nphys
    }

    /// Reads a physical register (callers must have validated the tag).
    pub fn read(&self, tag: PhysReg) -> u64 {
        self.values[tag as usize]
    }

    /// Reads a source operand for an issuing instruction: the one place
    /// the pipeline reads register values. Notes the read when the
    /// register is watched.
    pub(crate) fn read_operand(&mut self, tag: PhysReg) -> u64 {
        if let Some(w) = self.watch.as_deref_mut() {
            w.note(tag as usize);
        }
        self.values[tag as usize]
    }

    /// Watches exactly the registers in `regs` (none when it is empty),
    /// dropping any earlier watch and its hits.
    pub(crate) fn watch(&mut self, regs: &BitSet) {
        self.watch = Watch::on(regs);
    }

    /// The watched registers [`RegisterFile::read_operand`] read since the
    /// watch was set or the hits were last taken.
    pub(crate) fn take_watch_hits(&mut self) -> BitSet {
        self.watch
            .as_deref_mut()
            .map(Watch::take_hits)
            .unwrap_or_default()
    }

    /// Writes a physical register, masking to the profile width. Writes to
    /// phys 0 (the zero register) are discarded.
    pub fn write(&mut self, tag: PhysReg, value: u64) {
        if tag != 0 {
            self.values.set(tag as usize, self.profile.mask(value));
        }
    }

    /// Whether a physical register's value is available.
    pub fn is_ready(&self, tag: PhysReg) -> bool {
        tag == 0 || self.ready[tag as usize]
    }

    /// Marks a register ready (at writeback).
    pub fn set_ready(&mut self, tag: PhysReg, ready: bool) {
        if tag != 0 {
            self.ready[tag as usize] = ready;
        }
    }

    /// Allocates a free physical register (`None` when exhausted).
    pub fn alloc(&mut self) -> Option<PhysReg> {
        let r = self.free_list.pop()?;
        self.is_free[r as usize] = false;
        self.ready[r as usize] = false;
        Some(r)
    }

    /// Returns a register to the free list.
    ///
    /// Freeing phys 0 or an already-free register indicates corrupted
    /// rename linkage; the caller turns the `Err` into an Assert outcome.
    pub fn free(&mut self, tag: PhysReg) -> Result<(), &'static str> {
        if tag == 0 {
            return Err("attempt to free the zero register");
        }
        if !self.tag_valid(tag) {
            return Err("attempt to free an out-of-range register");
        }
        if self.is_free[tag as usize] {
            return Err("double free of a physical register");
        }
        self.is_free[tag as usize] = true;
        self.free_list.push(tag);
        Ok(())
    }

    /// Snapshot of the speculative map (branch checkpoint).
    pub fn checkpoint(&self) -> RenameCheckpoint {
        let mut checkpoint = [0; MAX_ARCH_REGS];
        checkpoint[..self.spec_map.len()].copy_from_slice(&self.spec_map);
        checkpoint
    }

    /// Restores the speculative map from a checkpoint and rebuilds the free
    /// list from first principles: a register is allocated iff it is the
    /// architectural home of some register or the destination of a
    /// surviving in-flight instruction.
    pub fn recover(
        &mut self,
        checkpoint: &RenameCheckpoint,
        in_flight_dests: impl IntoIterator<Item = PhysReg>,
    ) {
        let nregs = self.spec_map.len();
        self.spec_map.copy_from_slice(&checkpoint[..nregs]);
        let mut allocated = [false; 256];
        let allocated = &mut allocated[..self.nphys];
        allocated[0] = true;
        for &r in &self.arch_map {
            allocated[r as usize] = true;
        }
        for r in in_flight_dests {
            if (r as usize) < self.nphys {
                allocated[r as usize] = true;
            }
        }
        self.free_list.clear();
        for r in (1..self.nphys).rev() {
            self.is_free[r] = !allocated[r];
            if !allocated[r] {
                self.free_list.push(r as PhysReg);
            }
        }
        self.is_free[0] = false;
    }

    /// Number of free registers.
    pub fn free_count(&self) -> usize {
        self.free_list.len()
    }

    /// Whether `tag` is currently on the free list (used by the residency
    /// tracker to close ACE intervals after a squash recovery).
    pub fn is_free_reg(&self, tag: PhysReg) -> bool {
        self.is_free[tag as usize]
    }

    /// Total injectable bits: every physical register at the profile width.
    pub fn bit_count(&self) -> u64 {
        self.nphys as u64 * self.profile.xlen() as u64
    }

    /// Flips one bit of one physical register value.
    pub fn flip_bit(&mut self, bit: u64) {
        assert!(bit < self.bit_count(), "RF bit index out of range");
        let xlen = self.profile.xlen() as u64;
        let reg = (bit / xlen) as usize;
        *self.values.get_mut(reg) ^= 1 << (bit % xlen);
    }

    /// Utilization statistic: registers currently allocated.
    pub fn allocated_count(&self) -> usize {
        self.nphys - self.free_list.len()
    }

    /// Whether two register files hold execution-equivalent state: identical
    /// rename metadata and identical values in every **allocated** register.
    ///
    /// The values of free registers are excluded because they are dead: the
    /// only value reads in the pipeline happen at issue, through source tags
    /// gated on the ready bits, and in-order commit guarantees no in-flight
    /// consumer still references a freed register. Before a free register's
    /// value can be observed again it must be re-allocated — which clears
    /// its ready bit — and rewritten at writeback. Two machines that agree
    /// on everything here (including the free list, so they allocate in the
    /// same order) therefore behave identically even if freed cells disagree.
    pub fn state_eq(&self, other: &RegisterFile) -> bool {
        self.metadata_eq(other) && self.differing_values(other).next().is_none()
    }

    /// The allocated registers whose values differ from `other`'s, when
    /// the two files agree on all rename metadata (`None` otherwise). Empty
    /// exactly when [`RegisterFile::state_eq`] holds: both run the same
    /// walk, and `state_eq` stops at its first register.
    pub fn delta(&self, other: &RegisterFile) -> Option<BitSet> {
        self.metadata_eq(other)
            .then(|| self.differing_values(other).collect())
    }

    fn metadata_eq(&self, other: &RegisterFile) -> bool {
        self.profile == other.profile
            && self.nphys == other.nphys
            && self.ready == other.ready
            && self.spec_map == other.spec_map
            && self.arch_map == other.arch_map
            && self.free_list == other.free_list
            && self.is_free == other.is_free
    }

    /// Allocated registers whose values differ, in ascending order. Value
    /// chunks still shared (or byte-identical) after a fork need no walk;
    /// only genuinely rewritten chunks are examined, with the
    /// free-register relaxation applied per cell.
    fn differing_values<'r>(&'r self, other: &'r RegisterFile) -> impl Iterator<Item = usize> + 'r {
        self.values
            .differing_ranges(&other.values)
            .flat_map(|(start, end)| start..end)
            .filter(|&reg| !self.is_free[reg] && self.values[reg] != other.values[reg])
    }

    /// Whether flipping value `bit` leaves [`RegisterFile::state_eq`]
    /// against the unflipped file true: any bit of a free register.
    pub(crate) fn bit_is_dead(&self, bit: u64) -> bool {
        self.is_free[(bit / self.profile.xlen() as u64) as usize]
    }

    /// Number of value-bank chunks still physically shared with `other`
    /// (the complement of what a fork has had to copy).
    pub fn shared_value_chunks(&self, other: &RegisterFile) -> usize {
        self.values.shared_chunk_count(&other.values)
    }

    /// Total number of value-bank chunks.
    pub fn value_chunk_count(&self) -> usize {
        self.values.chunk_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_maps_identity() {
        let rf = RegisterFile::new(Profile::A32, 128);
        assert_eq!(rf.spec_map.len(), 16);
        assert_eq!(rf.spec_map[5], 5);
        assert_eq!(rf.free_count(), 128 - 16);
        assert!(rf.is_ready(3));
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut rf = RegisterFile::new(Profile::A64, 192);
        let r = rf.alloc().unwrap();
        assert!(!rf.is_ready(r));
        assert_eq!(rf.free_count(), 192 - 32 - 1);
        rf.free(r).unwrap();
        assert_eq!(rf.free_count(), 192 - 32);
    }

    #[test]
    fn double_free_is_detected() {
        let mut rf = RegisterFile::new(Profile::A64, 192);
        let r = rf.alloc().unwrap();
        rf.free(r).unwrap();
        assert!(rf.free(r).is_err());
        assert!(rf.free(0).is_err());
    }

    #[test]
    fn zero_register_ignores_writes() {
        let mut rf = RegisterFile::new(Profile::A32, 128);
        rf.write(0, 99);
        assert_eq!(rf.read(0), 0);
    }

    #[test]
    fn writes_mask_to_profile_width() {
        let mut rf = RegisterFile::new(Profile::A32, 128);
        rf.write(5, 0x1_2345_6789);
        assert_eq!(rf.read(5), 0x2345_6789);
    }

    #[test]
    fn recovery_rebuilds_free_list() {
        let mut rf = RegisterFile::new(Profile::A32, 128);
        let cp = rf.checkpoint();
        let a = rf.alloc().unwrap();
        let b = rf.alloc().unwrap();
        let _c = rf.alloc().unwrap();
        // Squash everything after the checkpoint except `a` and `b`.
        rf.recover(&cp, [a, b]);
        assert_eq!(rf.free_count(), 128 - 16 - 2);
        // c is free again; allocating returns some register that is not a/b.
        let d = rf.alloc().unwrap();
        assert!(d != a && d != b);
    }

    #[test]
    fn delta_names_allocated_registers_and_watch_notes_operand_reads() {
        let mut a = RegisterFile::new(Profile::A32, 128);
        let mut b = a.clone();
        b.flip_bit(32 * 5); // allocated
        b.flip_bit(32 * 100); // free: dead
        let delta = b.delta(&a).expect("same rename state");
        assert_eq!(delta.iter().collect::<Vec<_>>(), vec![5]);
        assert!(!b.state_eq(&a));
        b.alloc();
        assert!(b.delta(&a).is_none(), "rename state differs");
        a.watch(&delta);
        a.read_operand(4);
        assert!(a.take_watch_hits().is_empty());
        a.read_operand(5);
        assert_eq!(a.take_watch_hits(), delta);
    }

    #[test]
    fn flip_bit_hits_the_right_register() {
        let mut rf = RegisterFile::new(Profile::A32, 128);
        assert_eq!(rf.bit_count(), 128 * 32);
        rf.flip_bit(32 * 7 + 4); // reg 7, bit 4
        assert_eq!(rf.read(7), 16);
        // The zero register cell can be corrupted too (it is a real cell).
        rf.flip_bit(1);
        assert_eq!(rf.read(0), 2);
    }
}
