//! In-flight instruction payload (the non-injectable "golden" side of each
//! pipeline entry).
//!
//! Injectable structures (ROB fields, IQ fields, LQ/SQ fields) mirror parts
//! of this payload; at every use site the simulator cross-checks the
//! injectable copy against the payload and raises an Assert outcome on
//! mismatch — the same methodology GeFIN applies (a corrupted operand or
//! linkage field is an "unexpected microprocessor operation").

use crate::regs::{PhysReg, RenameCheckpoint};
use softerr_isa::{Instr, Trap};

/// Destination-register rename triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DestInfo {
    /// Architectural destination register.
    pub arch: u8,
    /// Newly allocated physical register.
    pub phys: PhysReg,
    /// Previous mapping of `arch` (freed at commit).
    pub old: PhysReg,
}

/// Execution state of an in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UopState {
    /// Waiting in the issue queue for its operands.
    InIq,
    /// Executing: `left` cycles remain.
    Executing {
        /// Remaining cycles.
        left: u64,
    },
    /// Load with a computed address waiting for memory ordering.
    WaitMemOrder,
    /// Load access in progress in the cache hierarchy.
    MemAccess {
        /// Remaining cycles.
        left: u64,
    },
    /// Finished executing, waiting for a writeback slot.
    WaitWriteback,
    /// Complete (result visible, ROB entry ready to commit).
    Done,
}

/// Coarse instruction kind (cached so the pipeline does not re-match the
/// instruction enum in every stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UopKind {
    /// Integer/branch/out/halt handled by an ALU-class unit.
    Alu,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Control transfer (conditional branch, jal, jalr).
    Branch,
    /// `out` instruction (architectural output at commit).
    Out,
    /// `halt` instruction.
    Halt,
    /// Carries a pre-decoded exception (invalid opcode / fetch fault).
    Poisoned,
}

/// One in-flight instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct Uop {
    /// Global sequence number (program order).
    pub seq: u64,
    /// Fetch PC.
    pub pc: u64,
    /// Decoded instruction (`None` for poisoned uops).
    pub instr: Option<Instr>,
    /// Kind cache.
    pub kind: UopKind,
    /// Exception pending delivery at commit.
    pub exception: Option<Trap>,
    /// Next PC the front end followed after this instruction.
    pub pred_next: u64,
    /// Resolved next PC (set at execute; `pc + 4` for non-control).
    pub actual_next: u64,
    /// Renamed first source.
    pub src1: Option<PhysReg>,
    /// Renamed second source.
    pub src2: Option<PhysReg>,
    /// Destination rename triple.
    pub dest: Option<DestInfo>,
    /// Speculative-map checkpoint (branches only).
    pub checkpoint: Option<RenameCheckpoint>,
    /// Execution state.
    pub state: UopState,
    /// First operand value (captured at issue).
    pub val1: u64,
    /// Second operand value (captured at issue).
    pub val2: u64,
    /// Result value (register result, store data, or `out` payload).
    pub result: u64,
    /// Effective address (loads/stores, set at AGU).
    pub mem_addr: u64,
    /// Access size in bytes (loads/stores).
    pub mem_size: u64,
    /// Load sign-extension flag.
    pub mem_signed: bool,
    /// Load/store queue slot.
    pub lsq_idx: Option<usize>,
    /// ROB slot (set at dispatch).
    pub rob_idx: usize,
    /// Destination tag as read from the issue queue at issue time (subject
    /// to injected faults, unlike `dest`).
    pub issued_dest_tag: PhysReg,
    /// Whether the AGU has produced `mem_addr`.
    pub addr_known: bool,
}

impl Uop {
    /// Creates a payload for a decoded (or poisoned) fetch.
    pub fn new(seq: u64, pc: u64, instr: Option<Instr>, exception: Option<Trap>) -> Uop {
        let kind = match (&instr, &exception) {
            (_, Some(_)) => UopKind::Poisoned,
            (Some(Instr::Load { .. }), _) => UopKind::Load,
            (Some(Instr::Store { .. }), _) => UopKind::Store,
            (
                Some(Instr::Branch { .. }) | Some(Instr::Jal { .. }) | Some(Instr::Jalr { .. }),
                _,
            ) => UopKind::Branch,
            (Some(Instr::Out { .. }), _) => UopKind::Out,
            (Some(Instr::Halt), _) => UopKind::Halt,
            (Some(_), _) => UopKind::Alu,
            (None, None) => unreachable!("uop with neither instruction nor exception"),
        };
        Uop {
            seq,
            pc,
            instr,
            kind,
            exception,
            pred_next: pc.wrapping_add(4),
            actual_next: pc.wrapping_add(4),
            src1: None,
            src2: None,
            dest: None,
            checkpoint: None,
            state: UopState::InIq,
            val1: 0,
            val2: 0,
            result: 0,
            mem_addr: 0,
            mem_size: 0,
            mem_signed: false,
            lsq_idx: None,
            rob_idx: usize::MAX,
            issued_dest_tag: 0,
            addr_known: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softerr_isa::{AluOp, MemWidth, Reg};

    #[test]
    fn kind_classification() {
        let mk = |i: Instr| Uop::new(0, 0x1000, Some(i), None).kind;
        assert_eq!(
            mk(Instr::Alu {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::A0,
                rs2: Reg::A0
            }),
            UopKind::Alu
        );
        assert_eq!(
            mk(Instr::Load {
                width: MemWidth::W,
                signed: true,
                rd: Reg::A0,
                base: Reg::SP,
                offset: 0
            }),
            UopKind::Load
        );
        assert_eq!(mk(Instr::Halt), UopKind::Halt);
        assert_eq!(
            mk(Instr::Jal {
                rd: Reg::RA,
                offset: 1
            }),
            UopKind::Branch
        );
        let poisoned = Uop::new(
            0,
            0x1000,
            None,
            Some(Trap::InvalidInstr {
                pc: 0x1000,
                word: 0,
            }),
        );
        assert_eq!(poisoned.kind, UopKind::Poisoned);
    }
}
