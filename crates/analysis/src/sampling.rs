//! Uniform vs. importance-sampling efficiency comparison (the
//! `repro sampling` table).
//!
//! An importance-sampled campaign draws fault sites only from the golden
//! run's live-and-demanded subpopulation and reweights its tallies by that
//! subpopulation's mass (Horvitz–Thompson), so it reaches the same 99%
//! confidence margin as a uniform campaign with roughly `weight²`× fewer
//! forked child simulations. This module holds the plain-data comparison
//! row and its table renderer; the campaigns themselves are run by the
//! harness (`repro sampling` walks the paper grid, one cell per row).

use softerr_telemetry::Table;

/// One (machine, workload, level) cell of the uniform-vs-importance
/// comparison, both campaigns run to the same target margin.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingCell {
    /// Machine name (e.g. `"Cortex-A15-like"`).
    pub machine: String,
    /// Workload name.
    pub workload: String,
    /// Optimization level (e.g. `"O2"`).
    pub level: String,
    /// AVF estimated by the uniform campaign.
    pub uniform_avf: f64,
    /// Achieved 99% error margin of the uniform campaign.
    pub uniform_margin: f64,
    /// Forked child simulations the uniform campaign paid for (faults not
    /// classified by a pruner).
    pub uniform_sims: u64,
    /// Horvitz–Thompson-reweighted AVF estimated by the importance
    /// campaign.
    pub importance_avf: f64,
    /// Achieved (reweighted) 99% error margin of the importance campaign.
    pub importance_margin: f64,
    /// Forked child simulations the importance campaign paid for.
    pub importance_sims: u64,
    /// The importance sampler's weight: the live-and-demanded fraction of
    /// the structure's `(bit × cycle)` population.
    pub weight: f64,
}

impl SamplingCell {
    /// Child-simulation savings factor of importance over uniform
    /// (`uniform_sims / importance_sims`); `None` when the importance
    /// campaign simulated nothing (empty live subpopulation).
    pub fn speedup(&self) -> Option<f64> {
        (self.importance_sims > 0).then(|| self.uniform_sims as f64 / self.importance_sims as f64)
    }

    /// Whether the two estimates agree within their combined margins —
    /// the same acceptance predicate an importance campaign under
    /// `prune = verify` enforces at campaign level.
    pub fn agrees(&self) -> bool {
        (self.uniform_avf - self.importance_avf).abs()
            <= self.uniform_margin + self.importance_margin
    }
}

/// Renders the comparison as the `repro sampling` table: one row per cell
/// with AVF ± margin and child-simulation counts for both samplers, the
/// per-cell savings factor, and the agreement verdict.
pub fn sampling_table(cells: &[SamplingCell]) -> Table {
    let mut t = Table::new(vec![
        "machine".into(),
        "workload".into(),
        "level".into(),
        "uniform AVF".into(),
        "sims".into(),
        "importance AVF".into(),
        "sims".into(),
        "weight".into(),
        "speedup".into(),
        "agree".into(),
    ]);
    for c in cells {
        t.row(vec![
            c.machine.clone(),
            c.workload.clone(),
            c.level.clone(),
            format!("{:.4} ±{:.4}", c.uniform_avf, c.uniform_margin),
            c.uniform_sims.to_string(),
            format!("{:.4} ±{:.4}", c.importance_avf, c.importance_margin),
            c.importance_sims.to_string(),
            format!("{:.4}", c.weight),
            match c.speedup() {
                Some(s) => format!("{s:.1}x"),
                None => "-".into(),
            },
            if c.agrees() { "yes" } else { "NO" }.into(),
        ]);
    }
    t
}

/// Mean child-simulation savings factor over all cells with a defined
/// speedup; `None` if no cell has one.
pub fn mean_sampling_speedup(cells: &[SamplingCell]) -> Option<f64> {
    let speedups: Vec<f64> = cells.iter().filter_map(SamplingCell::speedup).collect();
    (!speedups.is_empty()).then(|| speedups.iter().sum::<f64>() / speedups.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(u_sims: u64, i_sims: u64) -> SamplingCell {
        SamplingCell {
            machine: "Cortex-A15-like".into(),
            workload: "qsort".into(),
            level: "O2".into(),
            uniform_avf: 0.31,
            uniform_margin: 0.05,
            uniform_sims: u_sims,
            importance_avf: 0.29,
            importance_margin: 0.04,
            importance_sims: i_sims,
            weight: 0.2,
        }
    }

    #[test]
    fn speedup_and_agreement() {
        let c = cell(640, 32);
        assert_eq!(c.speedup(), Some(20.0));
        assert!(c.agrees());
        let mut far = cell(640, 32);
        far.importance_avf = 0.5;
        assert!(!far.agrees());
        let degenerate = cell(640, 0);
        assert_eq!(degenerate.speedup(), None);
        assert_eq!(
            mean_sampling_speedup(&[cell(640, 32), cell(100, 10)]),
            Some(15.0)
        );
        assert_eq!(mean_sampling_speedup(&[degenerate]), None);
    }

    #[test]
    fn table_has_one_row_per_cell() {
        let t = sampling_table(&[cell(640, 32), cell(100, 10)]);
        let text = t.to_string();
        assert_eq!(text.lines().count(), 2 + 2, "header + rule + two rows");
        assert!(text.contains("20.0x"));
        assert!(text.contains("yes"));
    }
}
