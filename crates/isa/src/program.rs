//! Loadable program images: code, initialized data, and the guest memory map.

use crate::{encode, Instr, Memory, Profile};
use serde::{Deserialize, Serialize};

/// Base address of the code segment.
pub const CODE_BASE: u64 = 0x1000;

/// Base address of the initialized-data (globals) segment.
pub const DATA_BASE: u64 = 0x0010_0000;

/// Default guest memory size (4 MiB): code below [`DATA_BASE`], globals and
/// heap above it, stack descending from the top.
pub const DEFAULT_MEM_SIZE: u64 = 4 * 1024 * 1024;

/// A complete loadable guest program.
///
/// Produced by the `softerr-cc` compiler (or hand-assembled in tests) and
/// consumed by both the reference [`Emulator`] and the cycle-level simulator.
///
/// [`Emulator`]: crate::Emulator
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Program {
    /// ISA profile the code was generated for.
    pub profile: Profile,
    /// Encoded instruction words, loaded at [`CODE_BASE`].
    pub code: Vec<u32>,
    /// Initialized global data, loaded at [`DATA_BASE`].
    pub data: Vec<u8>,
    /// Entry PC.
    pub entry: u64,
    /// Guest memory size in bytes.
    pub mem_size: u64,
    /// Static writeback demand masks: `(code index, demand mask)` pairs for
    /// instructions whose destination-register demand the compiler's
    /// bit-level analysis bounded below full width. A clear mask bit means
    /// a flip of that register bit after this instruction's writeback is
    /// provably unobservable. Instructions without an entry default to a
    /// full (all-demanded) mask; hand-assembled programs leave this empty.
    pub wb_masks: Vec<(u32, u64)>,
}

impl Program {
    /// Assembles a raw instruction sequence into a program with no data
    /// segment, entered at the first instruction.
    pub fn from_instrs(profile: Profile, instrs: Vec<Instr>) -> Program {
        Program {
            profile,
            code: instrs.into_iter().map(encode).collect(),
            data: Vec::new(),
            entry: CODE_BASE,
            mem_size: DEFAULT_MEM_SIZE,
            wb_masks: Vec::new(),
        }
    }

    /// Size of the code segment in bytes.
    pub fn code_bytes(&self) -> u64 {
        self.code.len() as u64 * 4
    }

    /// Initial stack pointer: the top of guest memory, 64-byte aligned with a
    /// small red zone.
    pub fn stack_top(&self) -> u64 {
        (self.mem_size - 64) & !63
    }

    /// Loads code and data into guest memory.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit the memory map (code overlapping
    /// [`DATA_BASE`], or data overlapping the stack region) — an image this
    /// malformed indicates a compiler bug, not a runtime condition.
    pub fn load_into(&self, mem: &mut Memory) {
        assert!(
            CODE_BASE + self.code_bytes() <= DATA_BASE,
            "code segment overflows into data segment"
        );
        assert!(
            DATA_BASE + self.data.len() as u64 <= self.stack_top() - 0x1_0000,
            "data segment overflows into stack region"
        );
        let mut code_bytes = Vec::with_capacity(self.code.len() * 4);
        for word in &self.code {
            code_bytes.extend_from_slice(&word.to_le_bytes());
        }
        mem.write_bytes(CODE_BASE, &code_bytes);
        if !self.data.is_empty() {
            mem.write_bytes(DATA_BASE, &self.data);
        }
    }

    /// Builds guest memory with the image loaded: only the pages the code
    /// and data occupy are allocated, and the rest share one zero page.
    pub fn build_memory(&self) -> Memory {
        let mut mem = Memory::new(self.mem_size);
        self.load_into(&mut mem);
        mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reg;

    #[test]
    fn from_instrs_assembles_at_code_base() {
        let p = Program::from_instrs(Profile::A64, vec![Instr::Halt]);
        assert_eq!(p.entry, CODE_BASE);
        assert_eq!(p.code_bytes(), 4);
        let mem = p.build_memory();
        assert_eq!(mem.fetch(CODE_BASE).unwrap(), encode(Instr::Halt));
    }

    #[test]
    fn data_lands_at_data_base() {
        let mut p = Program::from_instrs(Profile::A32, vec![Instr::Halt]);
        p.data = vec![1, 2, 3, 4];
        let mem = p.build_memory();
        assert_eq!(mem.read(DATA_BASE, 4).unwrap(), 0x0403_0201);
    }

    #[test]
    fn stack_top_is_aligned_and_inside_memory() {
        let p = Program::from_instrs(Profile::A64, vec![Instr::Halt]);
        assert_eq!(p.stack_top() % 64, 0);
        assert!(p.stack_top() < p.mem_size);
    }

    #[test]
    #[should_panic(expected = "code segment overflows")]
    fn oversized_code_panics() {
        let n = ((DATA_BASE - CODE_BASE) / 4 + 1) as usize;
        let p = Program {
            profile: Profile::A64,
            code: vec![encode(Instr::Out { rs1: Reg::A0 }); n],
            data: Vec::new(),
            entry: CODE_BASE,
            mem_size: DEFAULT_MEM_SIZE,
            wb_masks: Vec::new(),
        };
        let mut mem = Memory::new(p.mem_size);
        p.load_into(&mut mem);
    }
}
