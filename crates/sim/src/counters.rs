//! Microarchitectural event counters.
//!
//! The paper's AVF numbers only make sense next to the microarchitectural
//! behaviour that produced them (occupancy drives exposure, stalls drive
//! residency), so the simulator can optionally record a set of gem5-style
//! counters: committed instructions, stall cycles per pipeline end,
//! mispredict recovery, branch statistics, register-file port traffic,
//! cache hits and misses, and per-structure occupancy histograms.
//!
//! Counting follows the residency-tracker pattern: off by default, enabled
//! with [`crate::Sim::enable_counters`] before the first cycle, purely
//! observational (never feeds back into execution, excluded from
//! [`crate::Sim::state_eq`]), and costing one branch per cycle when
//! disabled so that injection campaigns keep their throughput.

/// Internal accumulation state, boxed inside the simulator when counting
/// is enabled.
#[derive(Debug, Clone)]
pub(crate) struct CounterState {
    /// Cycles where fetch delivered no micro-op into the decode queue.
    pub fetch_stall_cycles: u64,
    /// Cycles where the issue queue held work but nothing issued.
    pub issue_stall_cycles: u64,
    /// Cycles where the ROB held work but nothing committed.
    pub commit_stall_cycles: u64,
    /// Control-flow mispredictions, each recovered by one squash.
    pub mispredicts: u64,
    /// Renamed, un-committed micro-ops discarded by those recoveries.
    pub squashed_uops: u64,
    /// Committed control-flow micro-ops (conditional branches and jumps).
    pub branches: u64,
    /// Register-file read-port operations (source reads at issue).
    pub rf_reads: u64,
    /// Register-file write-port operations (results at writeback).
    pub rf_writes: u64,
    /// `counts[k]` = completed cycles that ended with exactly `k` entries
    /// occupied, per structure (regfile, ROB, IQ, LQ, SQ).
    pub occupancy: [Vec<u64>; 5],
}

impl CounterState {
    /// Zeroed counters for structures of the given capacities
    /// (regfile, ROB, IQ, LQ, SQ).
    pub fn new(capacities: [usize; 5]) -> CounterState {
        CounterState {
            fetch_stall_cycles: 0,
            issue_stall_cycles: 0,
            commit_stall_cycles: 0,
            mispredicts: 0,
            squashed_uops: 0,
            branches: 0,
            rf_reads: 0,
            rf_writes: 0,
            occupancy: capacities.map(|cap| vec![0; cap + 1]),
        }
    }
}

/// Cycle-occupancy histogram for one microarchitectural structure.
///
/// `counts[k]` is the number of completed cycles that ended with exactly
/// `k` of the structure's `capacity` entries occupied, so the counts sum
/// to the cycles executed while counting was enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyHistogram {
    /// Structure name (`"regfile"`, `"rob"`, `"iq"`, `"lq"`, `"sq"`).
    pub name: &'static str,
    /// Number of entries the structure holds.
    pub capacity: usize,
    /// Cycles observed at each occupancy level (`capacity + 1` buckets).
    pub counts: Vec<u64>,
}

impl OccupancyHistogram {
    /// Total cycles observed (the sum over all buckets).
    pub fn cycles(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean occupancy in entries, or 0.0 before any cycle completed.
    pub fn mean(&self) -> f64 {
        let cycles = self.cycles();
        if cycles == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(k, &n)| k as u64 * n)
            .sum();
        weighted as f64 / cycles as f64
    }

    /// Mean occupancy as a fraction of capacity (0.0 for a zero-capacity
    /// structure).
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            return 0.0;
        }
        self.mean() / self.capacity as f64
    }

    /// Smallest occupancy `k` such that at least `p` (in `[0, 1]`) of the
    /// observed cycles ended with `k` or fewer entries occupied.
    pub fn percentile(&self, p: f64) -> usize {
        let cycles = self.cycles();
        if cycles == 0 {
            return 0;
        }
        let threshold = (p.clamp(0.0, 1.0) * cycles as f64).ceil() as u64;
        let mut cumulative = 0u64;
        for (k, &n) in self.counts.iter().enumerate() {
            cumulative += n;
            if cumulative >= threshold {
                return k;
            }
        }
        self.capacity
    }

    /// Highest occupancy ever observed.
    pub fn peak(&self) -> usize {
        self.counts.iter().rposition(|&n| n > 0).unwrap_or_default()
    }
}

/// Snapshot of the microarchitectural counters, taken by
/// [`crate::Sim::counters`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimCounters {
    /// Cycles executed.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Cycles where fetch delivered no micro-op into the decode queue
    /// (I-cache miss, redirect penalty, queue backpressure, or program
    /// drain).
    pub fetch_stall_cycles: u64,
    /// Cycles where the issue queue held micro-ops but none issued
    /// (operands not ready, port limits, or a structural hazard).
    pub issue_stall_cycles: u64,
    /// Cycles where the ROB held micro-ops but none committed (head not
    /// yet done).
    pub commit_stall_cycles: u64,
    /// Renamed, un-committed micro-ops discarded by mispredict recovery.
    pub squashed_uops: u64,
    /// Committed control-flow micro-ops (conditional branches and jumps).
    pub branches: u64,
    /// Control-flow mispredictions detected at execute, each recovered by
    /// one pipeline squash.
    pub mispredicts: u64,
    /// Register-file read-port operations (source reads at issue).
    pub rf_reads: u64,
    /// Register-file write-port operations (results at writeback).
    pub rf_writes: u64,
    /// L1I (hits, misses).
    pub l1i: (u64, u64),
    /// L1D (hits, misses).
    pub l1d: (u64, u64),
    /// L2 (hits, misses).
    pub l2: (u64, u64),
    /// Per-structure occupancy histograms (regfile, ROB, IQ, LQ, SQ).
    pub occupancy: Vec<OccupancyHistogram>,
}

impl SimCounters {
    /// Committed instructions per cycle, or 0.0 before the first cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.committed as f64 / self.cycles as f64
    }

    /// Mispredictions per thousand committed branches, or 0.0 with no
    /// branches.
    pub fn mispredicts_per_kilo_branch(&self) -> f64 {
        if self.branches == 0 {
            return 0.0;
        }
        1000.0 * self.mispredicts as f64 / self.branches as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(counts: Vec<u64>) -> OccupancyHistogram {
        OccupancyHistogram {
            name: "rob",
            capacity: counts.len() - 1,
            counts,
        }
    }

    #[test]
    fn histogram_mean_and_peak() {
        // 2 cycles at 0, 3 cycles at 1, 5 cycles at 2.
        let h = hist(vec![2, 3, 5, 0]);
        assert_eq!(h.cycles(), 10);
        assert!((h.mean() - 1.3).abs() < 1e-12);
        assert_eq!(h.peak(), 2);
        assert!((h.utilization() - 1.3 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_percentiles() {
        let h = hist(vec![50, 25, 25]);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.percentile(0.75), 1);
        assert_eq!(h.percentile(1.0), 2);
    }

    #[test]
    fn empty_histogram_is_degenerate_not_panicking() {
        let h = hist(vec![0, 0]);
        assert_eq!(h.cycles(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.peak(), 0);
    }

    #[test]
    fn derived_rates() {
        let c = SimCounters {
            cycles: 200,
            committed: 100,
            fetch_stall_cycles: 0,
            issue_stall_cycles: 0,
            commit_stall_cycles: 0,
            squashed_uops: 0,
            branches: 40,
            mispredicts: 4,
            rf_reads: 0,
            rf_writes: 0,
            l1i: (0, 0),
            l1d: (0, 0),
            l2: (0, 0),
            occupancy: Vec::new(),
        };
        assert!((c.ipc() - 0.5).abs() < 1e-12);
        assert!((c.mispredicts_per_kilo_branch() - 100.0).abs() < 1e-12);
    }
}
