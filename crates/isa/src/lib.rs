//! # softerr-isa
//!
//! The instruction-set substrate for the softerr soft-error vulnerability
//! study: a compact load/store RISC ISA with a fixed 32-bit encoding, two
//! profiles standing in for the paper's Armv7 (Cortex-A15) and Armv8
//! (Cortex-A72) targets, a paged copy-on-write guest memory model (over
//! [`CowVec`], the chunked storage the simulator's arrays share), and an
//! architectural (functional) reference emulator used as the golden model
//! by the cycle-level simulator and the compiler test suites.
//!
//! The encoding is deliberately *sparse*: most random 32-bit words do not
//! decode to a valid instruction, so single-bit upsets in instruction-cache
//! lines frequently produce undefined-instruction faults, mirroring the
//! Crash-dominated behaviour the paper observes for L1I faults.
//!
//! ```
//! use softerr_isa::{AluOp, Emulator, Instr, Program, Profile, Reg};
//!
//! # fn main() -> Result<(), softerr_isa::Trap> {
//! let a0 = Reg::A0;
//! let code = vec![
//!     Instr::AluImm { op: AluOp::Add, rd: a0, rs1: Reg::ZERO, imm: 21 },
//!     Instr::Alu { op: AluOp::Add, rd: a0, rs1: a0, rs2: a0 },
//!     Instr::Out { rs1: a0 },
//!     Instr::Halt,
//! ];
//! let program = Program::from_instrs(Profile::A64, code);
//! let mut emu = Emulator::new(&program);
//! let outcome = emu.run(10_000)?;
//! assert_eq!(outcome.output, vec![42]);
//! # Ok(())
//! # }
//! ```
#![warn(missing_docs)]

mod cow;
mod disasm;
mod emu;
mod instr;
mod mem;
mod profile;
mod program;
mod reg;
mod trap;

pub use cow::CowVec;
pub use disasm::disassemble;
pub use emu::{Emulator, RunOutcome};
pub use instr::{
    decode, encode, eval_alu, eval_branch, AluOp, BranchCond, DecodeError, Instr, MemWidth, Opcode,
};
pub use mem::{MemFault, MemFaultKind, Memory, NULL_PAGE};
pub use profile::Profile;
pub use program::{Program, CODE_BASE, DATA_BASE, DEFAULT_MEM_SIZE};
pub use reg::Reg;
pub use trap::Trap;
