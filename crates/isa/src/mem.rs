//! Flat guest memory with a protected null page and natural-alignment rules.

use crate::CowVec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Kind of guest memory fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemFaultKind {
    /// Access beyond the end of guest memory.
    OutOfRange,
    /// Access inside the unmapped null page (`0..0x1000`).
    NullPage,
    /// Address not naturally aligned for the access width.
    Misaligned,
}

/// A guest memory access fault.
///
/// In the study these faults model what an MMU/bus would raise on real
/// hardware; the fault-injection framework classifies a committed fault as a
/// **Crash** outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemFault {
    /// Faulting guest address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u64,
    /// Fault kind.
    pub kind: MemFaultKind,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory fault at {:#x} (size {}): {:?}",
            self.addr, self.size, self.kind
        )
    }
}

impl std::error::Error for MemFault {}

/// Size of the unmapped guard page at address zero.
pub const NULL_PAGE: u64 = 0x1000;

/// Size of a guest memory page: the unit [`Memory`] shares between clones
/// and copies on a write.
const PAGE_BYTES: usize = 4096;

/// Flat little-endian guest memory.
///
/// The first 4 KiB are unmapped so that null-pointer dereferences fault, as
/// they would under an OS; everything else is readable and writable.
///
/// The bytes are copy-on-write pages ([`CowVec`] chunks of 4 KiB): new
/// memory points every page at one shared zero page, cloning a `Memory`
/// shares every page, and the first write to a page after either copies
/// that page alone. So building a machine allocates only the pages its
/// program image occupies, forking one copies nothing, and a forked
/// child's write-back to memory copies one page. Equality is by content;
/// pages still shared are equal without being compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Memory {
    bytes: CowVec<u8>,
}

impl Memory {
    /// Creates `size` bytes of zeroed guest memory.
    pub fn new(size: u64) -> Memory {
        Memory {
            bytes: CowVec::new(size as usize, PAGE_BYTES, 0),
        }
    }

    /// Total guest memory size in bytes.
    pub fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn check(&self, addr: u64, size: u64) -> Result<usize, MemFault> {
        if addr < NULL_PAGE {
            return Err(MemFault {
                addr,
                size,
                kind: MemFaultKind::NullPage,
            });
        }
        if !addr.is_multiple_of(size) {
            return Err(MemFault {
                addr,
                size,
                kind: MemFaultKind::Misaligned,
            });
        }
        if addr.checked_add(size).is_none_or(|end| end > self.size()) {
            return Err(MemFault {
                addr,
                size,
                kind: MemFaultKind::OutOfRange,
            });
        }
        Ok(addr as usize)
    }

    /// Reads a naturally-aligned little-endian value of `size` bytes (1, 2, 4
    /// or 8), zero-extended to 64 bits.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] on misalignment, null-page access, or
    /// out-of-range access.
    pub fn read(&self, addr: u64, size: u64) -> Result<u64, MemFault> {
        let base = self.check(addr, size)?;
        let mut value = 0u64;
        for i in (0..size as usize).rev() {
            value = (value << 8) | u64::from(self.bytes[base + i]);
        }
        Ok(value)
    }

    /// Writes the low `size` bytes of `value` little-endian at `addr`.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] on misalignment, null-page access, or
    /// out-of-range access.
    pub fn write(&mut self, addr: u64, size: u64, value: u64) -> Result<(), MemFault> {
        let base = self.check(addr, size)?;
        for i in 0..size as usize {
            self.bytes.set(base + i, (value >> (8 * i)) as u8);
        }
        Ok(())
    }

    /// Fetches a 32-bit instruction word (4-byte aligned).
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] exactly as [`Memory::read`] would.
    pub fn fetch(&self, addr: u64) -> Result<u32, MemFault> {
        self.read(addr, 4).map(|v| v as u32)
    }

    /// Copies raw bytes into memory without alignment checks (used by the
    /// program loader and cache write-backs), one page at a time.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside guest memory — loader addresses are
    /// trusted.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let mut at = self.range_start(addr, data.len());
        let mut rest = data;
        while !rest.is_empty() {
            let n = rest.len().min(PAGE_BYTES - at % PAGE_BYTES);
            let (head, tail) = rest.split_at(n);
            self.bytes.slice_mut(at, n).copy_from_slice(head);
            (at, rest) = (at + n, tail);
        }
    }

    /// Fills `out` with the bytes at `addr..addr + out.len()` without
    /// alignment checks (cache line fills), one page at a time.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside guest memory.
    pub fn read_bytes(&self, addr: u64, out: &mut [u8]) {
        let mut at = self.range_start(addr, out.len());
        let mut rest = out;
        while !rest.is_empty() {
            let n = rest.len().min(PAGE_BYTES - at % PAGE_BYTES);
            let (head, tail) = rest.split_at_mut(n);
            head.copy_from_slice(self.bytes.slice(at, n));
            (at, rest) = (at + n, tail);
        }
    }

    /// The index of `addr`, asserting that `len` bytes from it lie inside
    /// guest memory.
    fn range_start(&self, addr: u64, len: usize) -> usize {
        assert!(
            addr.checked_add(len as u64)
                .is_some_and(|end| end <= self.size()),
            "byte range {addr:#x}+{len} outside guest memory"
        );
        addr as usize
    }

    /// Whether `addr..addr+len` lies entirely in mapped guest memory (above
    /// the null page and below the end).
    pub fn contains_range(&self, addr: u64, len: u64) -> bool {
        addr >= NULL_PAGE && addr.checked_add(len).is_some_and(|end| end <= self.size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut m = Memory::new(0x3000);
        for (size, val) in [
            (1, 0xAB),
            (2, 0xBEEF),
            (4, 0xDEAD_BEEF),
            (8, 0x0123_4567_89AB_CDEF),
        ] {
            m.write(0x2000, size, val).unwrap();
            assert_eq!(m.read(0x2000, size).unwrap(), val);
        }
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new(0x3000);
        m.write(0x2000, 4, 0x0403_0201).unwrap();
        assert_eq!(m.read(0x2000, 1).unwrap(), 0x01);
        assert_eq!(m.read(0x2003, 1).unwrap(), 0x04);
    }

    #[test]
    fn null_page_faults() {
        let mut m = Memory::new(0x3000);
        assert_eq!(m.read(0, 4).unwrap_err().kind, MemFaultKind::NullPage);
        assert_eq!(m.read(0xFFC, 4).unwrap_err().kind, MemFaultKind::NullPage);
        assert_eq!(m.write(8, 8, 1).unwrap_err().kind, MemFaultKind::NullPage);
        assert!(m.read(0x1000, 4).is_ok());
    }

    #[test]
    fn misaligned_faults() {
        let m = Memory::new(0x3000);
        assert_eq!(
            m.read(0x2001, 4).unwrap_err().kind,
            MemFaultKind::Misaligned
        );
        assert_eq!(
            m.read(0x2004, 8).unwrap_err().kind,
            MemFaultKind::Misaligned
        );
        assert!(m.read(0x2001, 1).is_ok(), "bytes have no alignment");
    }

    #[test]
    fn out_of_range_faults() {
        let m = Memory::new(0x3000);
        assert_eq!(
            m.read(0x3000, 4).unwrap_err().kind,
            MemFaultKind::OutOfRange
        );
        assert_eq!(
            m.read(0x2FFC, 8).unwrap_err().kind,
            MemFaultKind::Misaligned
        );
        assert!(m.read(0x2FF8, 8).is_ok(), "last aligned dword is in range");
        // u64::MAX - 7 is 8-aligned; its end overflows u64 → out of range.
        assert_eq!(
            m.read(u64::MAX - 7, 8).unwrap_err().kind,
            MemFaultKind::OutOfRange
        );
    }

    #[test]
    fn overflowing_address_faults_not_panics() {
        let m = Memory::new(0x3000);
        // Aligned address whose end overflows u64.
        assert_eq!(m.read(!7, 8).unwrap_err().kind, MemFaultKind::OutOfRange);
    }

    #[test]
    fn a_loader_write_crosses_pages() {
        let mut m = Memory::new(0x4000);
        let data: Vec<u8> = (0..=255).cycle().take(0x1800).collect();
        m.write_bytes(0x1c00, &data);
        let mut back = vec![0; data.len()];
        m.read_bytes(0x1c00, &mut back);
        assert_eq!(back, data);
        assert_eq!(m.read(0x1ff8, 8).unwrap(), 0xFFFE_FDFC_FBFA_F9F8);
        assert_eq!(m.read(0x2000, 1).unwrap(), 0x00);
        assert_eq!(m.read(0x1bf8, 8).unwrap(), 0, "bytes before the range");
        assert_eq!(m.read(0x3400, 8).unwrap(), 0, "bytes after the range");
    }

    #[test]
    fn a_write_through_one_clone_copies_one_page() {
        let mut a = Memory::new(0x8000);
        a.write_bytes(0x1000, &[1; 0x3000]);
        let mut b = a.clone();
        let pages = a.bytes.chunk_count();
        assert_eq!(a.bytes.shared_chunk_count(&b.bytes), pages);
        b.write(0x2ff8, 8, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(a.bytes.shared_chunk_count(&b.bytes), pages - 1);
        assert_eq!(a.read(0x2ff8, 8).unwrap(), 0x0101_0101_0101_0101);
        assert_eq!(b.read(0x2ff8, 8).unwrap(), 0x0102_0304_0506_0708);
        assert_ne!(a, b);
    }

    #[test]
    fn equality_is_by_content_across_shared_and_rewritten_pages() {
        let mut a = Memory::new(0x8000);
        a.write_bytes(0x2000, &[7; 16]);
        assert_eq!(a, a.clone(), "every page shared");
        let mut b = a.clone();
        b.write(0x2000, 1, 9).unwrap();
        b.write(0x5000, 4, 3).unwrap();
        assert_ne!(a, b);
        b.write(0x2000, 1, 7).unwrap();
        b.write(0x5000, 4, 0).unwrap();
        assert_eq!(
            a.bytes.shared_chunk_count(&b.bytes),
            a.bytes.chunk_count() - 2
        );
        assert_eq!(a, b, "pages rewritten to equal content");
        let mut fresh = Memory::new(0x8000);
        fresh.write_bytes(0x2000, &[7; 16]);
        assert_eq!(a, fresh, "separately built, equal content");
    }

    #[test]
    fn a_line_reads_at_the_end_of_a_page() {
        let mut m = Memory::new(0x3000);
        let line: Vec<u8> = (1..=64).collect();
        m.write_bytes(0x1fc0, &line);
        let mut out = [0u8; 64];
        m.read_bytes(0x1fc0, &mut out);
        assert_eq!(out.as_slice(), line.as_slice());
        m.read_bytes(0x2fc0, &mut out);
        assert_eq!(out, [0; 64], "the last line of memory");
    }

    #[test]
    #[should_panic(expected = "outside guest memory")]
    fn a_byte_range_past_the_end_panics() {
        Memory::new(0x3000).write_bytes(0x2fc0, &[0; 0x41]);
    }

    #[test]
    fn contains_range_matches_fault_rules() {
        let m = Memory::new(0x3000);
        assert!(m.contains_range(0x1000, 0x2000));
        assert!(!m.contains_range(0x800, 8));
        assert!(!m.contains_range(0x2FFF, 8));
        assert!(!m.contains_range(u64::MAX, 8));
    }
}
