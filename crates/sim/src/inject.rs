//! Fault-injection targets: the paper's 15 structure fields across 8
//! hardware components, with uniform bit addressing.

use crate::pipeline::Sim;
use crate::rob::RobField;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One injectable structure field (the unit of the paper's per-field AVF
/// analysis). Eight components, fifteen fields in total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Structure {
    /// L1 instruction cache — data array.
    L1IData,
    /// L1 instruction cache — tag array.
    L1ITag,
    /// L1 data cache — data array.
    L1DData,
    /// L1 data cache — tag array.
    L1DTag,
    /// L2 cache — data array.
    L2Data,
    /// L2 cache — tag array.
    L2Tag,
    /// Physical register file (values).
    RegFile,
    /// Load queue entries.
    LoadQueue,
    /// Store queue entries.
    StoreQueue,
    /// Issue queue — source field.
    IqSrc,
    /// Issue queue — destination field.
    IqDest,
    /// Reorder buffer — PC field.
    RobPc,
    /// Reorder buffer — destination field.
    RobDest,
    /// Reorder buffer — sequence field.
    RobSeq,
    /// Reorder buffer — flags field.
    RobFlags,
}

impl Structure {
    /// All fifteen fields, in the paper's presentation order.
    pub const ALL: [Structure; 15] = [
        Structure::L1IData,
        Structure::L1ITag,
        Structure::L1DData,
        Structure::L1DTag,
        Structure::L2Data,
        Structure::L2Tag,
        Structure::RegFile,
        Structure::LoadQueue,
        Structure::StoreQueue,
        Structure::IqSrc,
        Structure::IqDest,
        Structure::RobPc,
        Structure::RobDest,
        Structure::RobSeq,
        Structure::RobFlags,
    ];

    /// Short identifier (used in result tables).
    pub fn name(self) -> &'static str {
        match self {
            Structure::L1IData => "l1i.data",
            Structure::L1ITag => "l1i.tag",
            Structure::L1DData => "l1d.data",
            Structure::L1DTag => "l1d.tag",
            Structure::L2Data => "l2.data",
            Structure::L2Tag => "l2.tag",
            Structure::RegFile => "rf",
            Structure::LoadQueue => "lq",
            Structure::StoreQueue => "sq",
            Structure::IqSrc => "iq.src",
            Structure::IqDest => "iq.dest",
            Structure::RobPc => "rob.pc",
            Structure::RobDest => "rob.dest",
            Structure::RobSeq => "rob.seq",
            Structure::RobFlags => "rob.flags",
        }
    }

    /// Parses a structure from its short identifier.
    pub fn from_name(name: &str) -> Option<Structure> {
        Structure::ALL.iter().copied().find(|s| s.name() == name)
    }

    /// The hardware component this field belongs to (8 components).
    pub fn component(self) -> &'static str {
        match self {
            Structure::L1IData | Structure::L1ITag => "L1I",
            Structure::L1DData | Structure::L1DTag => "L1D",
            Structure::L2Data | Structure::L2Tag => "L2",
            Structure::RegFile => "RF",
            Structure::LoadQueue => "LQ",
            Structure::StoreQueue => "SQ",
            Structure::IqSrc | Structure::IqDest => "IQ",
            Structure::RobPc | Structure::RobDest | Structure::RobSeq | Structure::RobFlags => {
                "ROB"
            }
        }
    }
}

impl fmt::Display for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Sim {
    /// Number of injectable bits in a structure field on this machine.
    pub fn bit_count(&self, s: Structure) -> u64 {
        match s {
            Structure::L1IData => self.mem.l1i.data_bits(),
            Structure::L1ITag => self.mem.l1i.tag_bits(),
            Structure::L1DData => self.mem.l1d.data_bits(),
            Structure::L1DTag => self.mem.l1d.tag_bits(),
            Structure::L2Data => self.mem.l2.data_bits(),
            Structure::L2Tag => self.mem.l2.tag_bits(),
            Structure::RegFile => self.rf.bit_count(),
            Structure::LoadQueue => self.lq.bit_count(),
            Structure::StoreQueue => self.sq.bit_count(),
            Structure::IqSrc => self.iq.src_bits(),
            Structure::IqDest => self.iq.dest_bits(),
            Structure::RobPc => self.rob.field_bits(RobField::Pc),
            Structure::RobDest => self.rob.field_bits(RobField::Dest),
            Structure::RobSeq => self.rob.field_bits(RobField::Seq),
            Structure::RobFlags => self.rob.field_bits(RobField::Flags),
        }
    }

    /// Flips one bit of a structure field (the single-event upset).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= self.bit_count(s)`.
    pub fn flip_bit(&mut self, s: Structure, bit: u64) {
        match s {
            Structure::L1IData => self.mem.l1i.flip_data_bit(bit),
            Structure::L1ITag => self.mem.l1i.flip_tag_bit(bit),
            Structure::L1DData => self.mem.l1d.flip_data_bit(bit),
            Structure::L1DTag => self.mem.l1d.flip_tag_bit(bit),
            Structure::L2Data => self.mem.l2.flip_data_bit(bit),
            Structure::L2Tag => self.mem.l2.flip_tag_bit(bit),
            Structure::RegFile => self.rf.flip_bit(bit),
            Structure::LoadQueue => self.lq.flip_bit(bit),
            Structure::StoreQueue => self.sq.flip_bit(bit),
            Structure::IqSrc => self.iq.flip_src_bit(bit),
            Structure::IqDest => self.iq.flip_dest_bit(bit),
            Structure::RobPc => self.rob.flip_bit(RobField::Pc, bit),
            Structure::RobDest => self.rob.flip_bit(RobField::Dest, bit),
            Structure::RobSeq => self.rob.flip_bit(RobField::Seq, bit),
            Structure::RobFlags => self.rob.flip_bit(RobField::Flags, bit),
        }
    }

    /// Whether flipping `bit` of `s` leaves this machine [`Sim::state_eq`]
    /// to itself unflipped, so a fault there is Masked without simulating
    /// it: its future is this machine's future and no output differs yet.
    /// Each structure answers with the relaxation its own `state_eq`
    /// applies: the tag, dirty and data bits of an invalid cache line, the
    /// value of a free physical register, and the source and
    /// destination-tag bits of a free issue-queue slot. ROB, LQ and SQ
    /// compare exactly, so none of their bits is dead.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= self.bit_count(s)`.
    pub fn bit_is_dead(&self, s: Structure, bit: u64) -> bool {
        assert!(bit < self.bit_count(s), "{s} bit index out of range");
        match s {
            Structure::L1IData => self.mem.l1i.data_bit_is_dead(bit),
            Structure::L1ITag => self.mem.l1i.tag_bit_is_dead(bit),
            Structure::L1DData => self.mem.l1d.data_bit_is_dead(bit),
            Structure::L1DTag => self.mem.l1d.tag_bit_is_dead(bit),
            Structure::L2Data => self.mem.l2.data_bit_is_dead(bit),
            Structure::L2Tag => self.mem.l2.tag_bit_is_dead(bit),
            Structure::RegFile => self.rf.bit_is_dead(bit),
            Structure::IqSrc => self.iq.src_bit_is_dead(bit),
            Structure::IqDest => self.iq.dest_bit_is_dead(bit),
            Structure::LoadQueue
            | Structure::StoreQueue
            | Structure::RobPc
            | Structure::RobDest
            | Structure::RobSeq
            | Structure::RobFlags => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_fields_eight_components() {
        assert_eq!(Structure::ALL.len(), 15);
        let comps: std::collections::BTreeSet<&str> =
            Structure::ALL.iter().map(|s| s.component()).collect();
        assert_eq!(comps.len(), 8);
    }

    #[test]
    fn names_roundtrip() {
        for s in Structure::ALL {
            assert_eq!(Structure::from_name(s.name()), Some(s));
        }
        assert_eq!(Structure::from_name("nope"), None);
    }
}
