//! Machine configurations (paper Table I).

use serde::{Deserialize, Serialize};
use softerr_isa::Profile;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheGeometry {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.size_bytes / (self.line_bytes * self.ways as u64)) as usize
    }

    /// Number of lines.
    pub fn lines(&self) -> usize {
        self.sets() * self.ways
    }

    /// log2(line size).
    pub fn offset_bits(&self) -> u32 {
        self.line_bytes.trailing_zeros()
    }

    /// log2(sets).
    pub fn set_bits(&self) -> u32 {
        (self.sets() as u64).trailing_zeros()
    }
}

/// A full machine configuration.
///
/// The two presets reproduce the paper's Table I:
/// [`MachineConfig::cortex_a15`] and [`MachineConfig::cortex_a72`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Human-readable name.
    pub name: String,
    /// ISA profile (A32 for the A15-like machine, A64 for the A72-like).
    pub profile: Profile,
    /// L1 instruction cache geometry.
    pub l1i: CacheGeometry,
    /// L1 data cache geometry.
    pub l1d: CacheGeometry,
    /// Unified L2 geometry.
    pub l2: CacheGeometry,
    /// Physical register file size.
    pub phys_regs: usize,
    /// Issue queue entries.
    pub iq_entries: usize,
    /// Load queue entries.
    pub lq_entries: usize,
    /// Store queue entries.
    pub sq_entries: usize,
    /// Reorder buffer entries.
    pub rob_entries: usize,
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions issued to execution per cycle.
    pub issue_width: usize,
    /// Results written back per cycle.
    pub writeback_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// L1 hit latency (cycles).
    pub l1_latency: u64,
    /// L2 hit latency (cycles).
    pub l2_latency: u64,
    /// Main-memory latency (cycles).
    pub mem_latency: u64,
    /// Raw transient-fault rate per bit (FIT/bit), from the paper's §VI.A.
    pub raw_fit_per_bit: f64,
    /// Clock frequency in GHz (used to convert cycles to wall time for FPE).
    pub freq_ghz: f64,
}

impl MachineConfig {
    /// The Cortex-A15-like configuration (Armv7-class, 32-bit).
    pub fn cortex_a15() -> MachineConfig {
        MachineConfig {
            name: "Cortex-A15-like".to_string(),
            profile: Profile::A32,
            l1i: CacheGeometry {
                size_bytes: 32 * 1024,
                ways: 2,
                line_bytes: 64,
            },
            l1d: CacheGeometry {
                size_bytes: 32 * 1024,
                ways: 2,
                line_bytes: 64,
            },
            l2: CacheGeometry {
                size_bytes: 1024 * 1024,
                ways: 8,
                line_bytes: 64,
            },
            phys_regs: 128,
            iq_entries: 32,
            lq_entries: 16,
            sq_entries: 16,
            rob_entries: 40,
            fetch_width: 3,
            issue_width: 6,
            writeback_width: 8,
            commit_width: 8,
            l1_latency: 2,
            l2_latency: 12,
            mem_latency: 80,
            raw_fit_per_bit: 2.59e-5,
            freq_ghz: 1.0,
        }
    }

    /// The Cortex-A72-like configuration (Armv8-class, 64-bit).
    pub fn cortex_a72() -> MachineConfig {
        MachineConfig {
            name: "Cortex-A72-like".to_string(),
            profile: Profile::A64,
            l1i: CacheGeometry {
                size_bytes: 48 * 1024,
                ways: 3,
                line_bytes: 64,
            },
            l1d: CacheGeometry {
                size_bytes: 32 * 1024,
                ways: 2,
                line_bytes: 64,
            },
            l2: CacheGeometry {
                size_bytes: 2 * 1024 * 1024,
                ways: 16,
                line_bytes: 64,
            },
            phys_regs: 192,
            iq_entries: 64,
            lq_entries: 16,
            sq_entries: 16,
            rob_entries: 128,
            fetch_width: 3,
            issue_width: 6,
            writeback_width: 8,
            commit_width: 8,
            l1_latency: 2,
            l2_latency: 12,
            mem_latency: 80,
            raw_fit_per_bit: 9.39e-6,
            freq_ghz: 1.0,
        }
    }

    /// Both paper configurations.
    pub fn paper_machines() -> Vec<MachineConfig> {
        vec![MachineConfig::cortex_a15(), MachineConfig::cortex_a72()]
    }

    /// Checks that the memory system can run these cache geometries: every
    /// level has at least one way, a power-of-two line size of at least 8
    /// bytes, a power-of-two set count and exactly `sets × ways ×
    /// line_bytes` bytes; and all levels share one line size, since L1 and
    /// L2 move whole lines between each other.
    ///
    /// # Errors
    ///
    /// A message naming the machine, the level and the offending sizes.
    pub fn validate(&self) -> Result<(), String> {
        let name = &self.name;
        for (level, g) in [("l1i", &self.l1i), ("l1d", &self.l1d), ("l2", &self.l2)] {
            // Aligned accesses of up to 8 bytes never straddle such lines.
            if !g.line_bytes.is_power_of_two() || g.line_bytes < 8 {
                return Err(format!(
                    "{name}: {level} line size {} B is not a power of two of at least 8 B",
                    g.line_bytes
                ));
            }
            if g.ways == 0 {
                return Err(format!("{name}: {level} has 0 ways"));
            }
            let sets = g
                .line_bytes
                .checked_mul(g.ways as u64)
                .map(|way| g.size_bytes / way);
            if !sets.is_some_and(|s| {
                s.is_power_of_two() && s * g.ways as u64 * g.line_bytes == g.size_bytes
            }) {
                return Err(format!(
                    "{name}: {level} of {} B with {} ways of {} B lines is not a power-of-two \
                     number of whole sets",
                    g.size_bytes, g.ways, g.line_bytes
                ));
            }
        }
        if self.l1i.line_bytes != self.l2.line_bytes || self.l1d.line_bytes != self.l2.line_bytes {
            return Err(format!(
                "{name}: line sizes differ across levels (l1i {} B, l1d {} B, l2 {} B); \
                 L1 and L2 exchange whole lines, so they must be equal",
                self.l1i.line_bytes, self.l1d.line_bytes, self.l2.line_bytes
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_math() {
        let g = CacheGeometry {
            size_bytes: 32 * 1024,
            ways: 2,
            line_bytes: 64,
        };
        assert_eq!(g.sets(), 256);
        assert_eq!(g.lines(), 512);
        assert_eq!(g.offset_bits(), 6);
        assert_eq!(g.set_bits(), 8);
    }

    #[test]
    fn a72_sets_non_power_of_two_ways() {
        // 48 KB, 3-way: 256 sets of 3 ways.
        let g = MachineConfig::cortex_a72().l1i;
        assert_eq!(g.sets(), 256);
        assert_eq!(g.lines(), 768);
    }

    #[test]
    fn presets_match_table_1() {
        let a15 = MachineConfig::cortex_a15();
        assert_eq!(a15.profile, Profile::A32);
        assert_eq!(a15.phys_regs, 128);
        assert_eq!(a15.rob_entries, 40);
        assert_eq!(a15.iq_entries, 32);
        let a72 = MachineConfig::cortex_a72();
        assert_eq!(a72.profile, Profile::A64);
        assert_eq!(a72.phys_regs, 192);
        assert_eq!(a72.rob_entries, 128);
        assert_eq!(a72.l2.size_bytes, 2 * 1024 * 1024);
        assert!(a72.raw_fit_per_bit < a15.raw_fit_per_bit);
    }

    #[test]
    fn presets_validate_and_unrunnable_geometries_do_not() {
        for machine in MachineConfig::paper_machines() {
            assert_eq!(machine.validate(), Ok(()), "{}", machine.name);
        }
        // L1 and L2 copy whole lines into each other.
        let mut m = MachineConfig::cortex_a15();
        m.l2.line_bytes = 128;
        let err = m.validate().unwrap_err();
        assert!(err.contains("64 B") && err.contains("128 B"), "{err}");
        let broken: [fn(&mut CacheGeometry); 5] = [
            |g| g.line_bytes = 48,
            |g| g.line_bytes = 4,
            |g| g.ways = 0,
            |g| g.size_bytes += 64,
            |g| g.size_bytes = 3 * 64 * 2,
        ];
        for (i, breaks) in broken.iter().enumerate() {
            let mut m = MachineConfig::cortex_a15();
            breaks(&mut m.l1d);
            assert!(m.validate().unwrap_err().contains("l1d"), "case {i}");
        }
        // Sizes a hostile peer might send must not overflow the check.
        let mut m = MachineConfig::cortex_a72();
        m.l2.line_bytes = 1 << 62;
        m.l2.ways = usize::MAX;
        assert!(m.validate().is_err());
    }
}
