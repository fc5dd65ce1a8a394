//! A study of the (machines × workloads × levels × structures) grid: its
//! configuration, cell keys, errors and measured results, with the paper's
//! metrics over them. [`crate::Orchestrator`] runs it.

use serde::{Deserialize, Serialize};
use softerr_analysis::{weighted_avf, EccScheme, StructureMeasurement};
use softerr_cc::OptLevel;
use softerr_inject::{CampaignResult, FaultClass, SamplingPlan};
use softerr_sim::{MachineConfig, Structure};
use softerr_workloads::{Scale, Workload};
use std::fmt;
use std::path::Path;

/// Configuration of a characterization study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyConfig {
    /// Machines to evaluate (the paper uses both Table I configurations).
    pub machines: Vec<MachineConfig>,
    /// Benchmarks (the paper uses all eight).
    pub workloads: Vec<Workload>,
    /// Optimization levels (the paper uses O0–O3).
    pub levels: Vec<OptLevel>,
    /// Structure fields to inject into (the paper uses all fifteen).
    pub structures: Vec<Structure>,
    /// Input scale for the workloads.
    pub scale: Scale,
    /// Per-cell sampling plan: the sampling distribution, stopping rule,
    /// and prune policy every campaign in the grid runs under (see
    /// [`SamplingPlan`]). Replaces the former flat `injections` /
    /// `target_margin` / `prune` / `prune_static` knobs.
    pub plan: SamplingPlan,
    /// Campaign RNG seed.
    pub seed: u64,
    /// Worker threads per campaign.
    pub threads: usize,
    /// Golden-prefix checkpointing for each campaign (see
    /// [`softerr_inject::CampaignConfig::checkpoint`]). Results are
    /// identical either way; checkpointing is just faster.
    pub checkpoint: bool,
}

impl Default for StudyConfig {
    /// The full paper grid at a laptop-scale sample size.
    fn default() -> StudyConfig {
        StudyConfig {
            machines: MachineConfig::paper_machines(),
            workloads: Workload::ALL.to_vec(),
            levels: OptLevel::ALL.to_vec(),
            structures: Structure::ALL.to_vec(),
            scale: Scale::Tiny,
            plan: SamplingPlan::fixed(100),
            seed: 0x5EED,
            threads: 1,
            checkpoint: true,
        }
    }
}

impl StudyConfig {
    /// A fast smoke configuration: two contrasting workloads, two levels,
    /// all structures, few injections.
    pub fn quick(seed: u64) -> StudyConfig {
        StudyConfig {
            workloads: vec![Workload::Qsort, Workload::Sha],
            levels: vec![OptLevel::O0, OptLevel::O2],
            plan: SamplingPlan::fixed(24),
            seed,
            ..StudyConfig::default()
        }
    }

    /// The paper-scale configuration: 2,000 injections per cell over the
    /// `Full` input scale (1,920,000 runs — needs a large machine).
    pub fn paper(seed: u64) -> StudyConfig {
        StudyConfig {
            scale: Scale::Full,
            plan: SamplingPlan::fixed(2000),
            seed,
            ..StudyConfig::default()
        }
    }

    /// Total number of injection runs this configuration performs.
    pub fn total_injections(&self) -> u64 {
        self.machines.len() as u64
            * self.workloads.len() as u64
            * self.levels.len() as u64
            * self.structures.len() as u64
            * self.plan.injections()
    }

    /// Checks the configuration for degenerate values: every grid axis
    /// must be non-empty, `threads` non-zero, the sampling plan
    /// self-consistent (see [`SamplingPlan::validate`] — a margin target
    /// outside `(0, 1)` is rejected here rather than surfacing as a
    /// confusing downstream failure), and every machine's caches runnable
    /// (see [`MachineConfig::validate`]).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.machines.is_empty() {
            return Err("study has no machines: add at least one MachineConfig".to_string());
        }
        if self.workloads.is_empty() {
            return Err("study has no workloads: add at least one Workload".to_string());
        }
        if self.levels.is_empty() {
            return Err("study has no optimization levels: add at least one OptLevel".to_string());
        }
        if self.structures.is_empty() {
            return Err("study has no structures: add at least one Structure".to_string());
        }
        if self.threads == 0 {
            return Err(
                "threads must be at least 1 (0 worker threads can run nothing)".to_string(),
            );
        }
        self.plan.validate()?;
        self.machines.iter().try_for_each(MachineConfig::validate)
    }
}

/// Identifies one (machine, workload, level) cell of the study grid.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CellKey {
    /// Machine name (from [`MachineConfig::name`]).
    pub machine: String,
    /// Benchmark.
    pub workload: Workload,
    /// Optimization level.
    pub level: OptLevel,
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.machine, self.workload, self.level)
    }
}

/// Measured data of one cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// Fault-free execution time in cycles.
    pub golden_cycles: u64,
    /// Fault-free retired instruction count.
    pub golden_retired: u64,
    /// Static code size in instruction words.
    pub code_words: u64,
    /// One campaign result per structure.
    pub campaigns: Vec<CampaignResult>,
}

impl CellResult {
    /// The campaign for one structure.
    pub fn campaign(&self, s: Structure) -> Option<&CampaignResult> {
        self.campaigns.iter().find(|c| c.structure == s)
    }

    /// Converts the campaigns to analysis measurements.
    pub fn measurements(&self) -> Vec<StructureMeasurement> {
        self.campaigns
            .iter()
            .map(|c| StructureMeasurement {
                structure: c.structure,
                bits: c.bit_population,
                counts: c.counts,
            })
            .collect()
    }
}

/// Errors raised while running a study.
#[derive(Debug)]
pub enum StudyError {
    /// The configuration is degenerate (empty grid axis, zero threads, a
    /// cache geometry the simulator cannot run).
    Config(String),
    /// A workload failed to compile (compiler or workload bug).
    Compile(String),
    /// A fault-free run did not halt cleanly (simulator or workload bug).
    Golden(String),
    /// Result persistence failed.
    Io(std::io::Error),
    /// Result deserialization failed.
    Format(serde_json::Error),
    /// A budgeted sweep stopped before measuring every cell; completed
    /// cells are already persisted, so re-running resumes where it left
    /// off (see [`crate::Orchestrator::cell_budget`]).
    Incomplete {
        /// Cells measured (executed or store-served) before the budget ran out.
        completed: usize,
        /// Cells in the study grid.
        total: usize,
    },
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::Config(m) => write!(f, "invalid study configuration: {m}"),
            StudyError::Compile(m) => write!(f, "compilation failed: {m}"),
            StudyError::Golden(m) => write!(f, "golden run failed: {m}"),
            StudyError::Io(e) => write!(f, "i/o error: {e}"),
            StudyError::Format(e) => write!(f, "result format error: {e}"),
            StudyError::Incomplete { completed, total } => write!(
                f,
                "study incomplete: cell budget reached after {completed}/{total} cells \
                 (completed cells are persisted; re-run to resume)"
            ),
        }
    }
}

impl std::error::Error for StudyError {}

impl From<std::io::Error> for StudyError {
    fn from(e: std::io::Error) -> StudyError {
        StudyError::Io(e)
    }
}

impl From<serde_json::Error> for StudyError {
    fn from(e: serde_json::Error) -> StudyError {
        StudyError::Format(e)
    }
}

/// Complete measured results of a study, queryable and persistable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyResults {
    /// The configuration that produced these results.
    pub config: StudyConfig,
    /// All measured cells.
    pub cells: Vec<(CellKey, CellResult)>,
}

impl StudyResults {
    /// The machine names in the study, in configuration order.
    pub fn machine_names(&self) -> Vec<String> {
        self.config
            .machines
            .iter()
            .map(|m| m.name.clone())
            .collect()
    }

    /// The machine configuration by name.
    pub fn machine(&self, name: &str) -> Option<&MachineConfig> {
        self.config.machines.iter().find(|m| m.name == name)
    }

    /// Looks up one cell.
    pub fn cell(&self, machine: &str, workload: Workload, level: OptLevel) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|(k, _)| k.machine == machine && k.workload == workload && k.level == level)
            .map(|(_, c)| c)
    }

    /// AVF of one structure in one cell.
    pub fn avf(
        &self,
        machine: &str,
        workload: Workload,
        level: OptLevel,
        structure: Structure,
    ) -> f64 {
        self.cell(machine, workload, level)
            .and_then(|c| c.campaign(structure))
            .map_or(0.0, |c| c.avf())
    }

    /// Fraction of one fault class in one cell/structure.
    pub fn fraction(
        &self,
        machine: &str,
        workload: Workload,
        level: OptLevel,
        structure: Structure,
        class: FaultClass,
    ) -> f64 {
        self.cell(machine, workload, level)
            .and_then(|c| c.campaign(structure))
            .map_or(0.0, |c| c.fraction(class))
    }

    /// Execution-time-weighted AVF of a structure over all workloads
    /// (paper eq. 1; the rightmost "wAVF" bars of Figs. 2–8).
    pub fn weighted_avf(&self, machine: &str, level: OptLevel, structure: Structure) -> f64 {
        let items: Vec<(f64, u64)> = self
            .config
            .workloads
            .iter()
            .filter_map(|&w| {
                let cell = self.cell(machine, w, level)?;
                let avf = cell.campaign(structure)?.avf();
                Some((avf, cell.golden_cycles))
            })
            .collect();
        weighted_avf(&items)
    }

    /// Weighted per-class fraction of a structure over all workloads.
    pub fn weighted_fraction(
        &self,
        machine: &str,
        level: OptLevel,
        structure: Structure,
        class: FaultClass,
    ) -> f64 {
        let items: Vec<(f64, u64)> = self
            .config
            .workloads
            .iter()
            .filter_map(|&w| {
                let cell = self.cell(machine, w, level)?;
                let frac = cell.campaign(structure)?.fraction(class);
                Some((frac, cell.golden_cycles))
            })
            .collect();
        weighted_avf(&items)
    }

    /// CPU FIT rate for one cell under an ECC scheme (paper eq. 2 summed
    /// over structures; Figs. 10 and 12).
    pub fn cpu_fit(
        &self,
        machine: &str,
        workload: Workload,
        level: OptLevel,
        ecc: EccScheme,
    ) -> f64 {
        let Some(cfg) = self.machine(machine) else {
            return 0.0;
        };
        let Some(cell) = self.cell(machine, workload, level) else {
            return 0.0;
        };
        softerr_analysis::cpu_fit(&cell.measurements(), cfg.raw_fit_per_bit, ecc)
    }

    /// CPU FIT split by fault class for one cell (paper Fig. 10).
    pub fn cpu_fit_by_class(
        &self,
        machine: &str,
        workload: Workload,
        level: OptLevel,
        ecc: EccScheme,
    ) -> Vec<(FaultClass, f64)> {
        let Some(cfg) = self.machine(machine) else {
            return Vec::new();
        };
        let Some(cell) = self.cell(machine, workload, level) else {
            return Vec::new();
        };
        softerr_analysis::cpu_fit_by_class(&cell.measurements(), cfg.raw_fit_per_bit, ecc)
    }

    /// CPU FIT at one level aggregated over all workloads using weighted
    /// AVFs (paper Fig. 12).
    pub fn aggregate_cpu_fit(&self, machine: &str, level: OptLevel, ecc: EccScheme) -> f64 {
        let Some(cfg) = self.machine(machine) else {
            return 0.0;
        };
        self.config
            .structures
            .iter()
            .filter(|s| !ecc.protects(**s))
            .map(|&s| {
                let bits = self
                    .config
                    .workloads
                    .iter()
                    .find_map(|&w| {
                        self.cell(machine, w, level)
                            .and_then(|c| c.campaign(s))
                            .map(|c| c.bit_population)
                    })
                    .unwrap_or(0);
                softerr_analysis::fit_of_structure(
                    cfg.raw_fit_per_bit,
                    bits,
                    self.weighted_avf(machine, level, s),
                )
            })
            .sum()
    }

    /// Failures per execution for one cell (paper eq. 3, Fig. 11), using
    /// the machine's clock frequency to convert cycles to seconds.
    pub fn fpe(&self, machine: &str, workload: Workload, level: OptLevel, ecc: EccScheme) -> f64 {
        let Some(cfg) = self.machine(machine) else {
            return 0.0;
        };
        let Some(cell) = self.cell(machine, workload, level) else {
            return 0.0;
        };
        let seconds = cell.golden_cycles as f64 / (cfg.freq_ghz * 1e9);
        softerr_analysis::fpe(self.cpu_fit(machine, workload, level, ecc), seconds)
    }

    /// Golden execution time of one cell, in cycles.
    pub fn cycles(&self, machine: &str, workload: Workload, level: OptLevel) -> u64 {
        self.cell(machine, workload, level)
            .map_or(0, |c| c.golden_cycles)
    }

    /// Speedup of `level` relative to O0 for one cell (paper Fig. 1).
    pub fn speedup_vs_o0(&self, machine: &str, workload: Workload, level: OptLevel) -> f64 {
        let base = self.cycles(machine, workload, OptLevel::O0);
        let this = self.cycles(machine, workload, level);
        if this == 0 {
            return 0.0;
        }
        base as f64 / this as f64
    }

    /// Saves results as JSON.
    ///
    /// # Errors
    ///
    /// [`StudyError::Io`] / [`StudyError::Format`] on failure.
    pub fn save(&self, path: &Path) -> Result<(), StudyError> {
        let json = serde_json::to_string(self)?;
        std::fs::write(path, json)?;
        Ok(())
    }

    /// Loads previously saved results.
    ///
    /// # Errors
    ///
    /// [`StudyError::Io`] / [`StudyError::Format`] on failure.
    pub fn load(path: &Path) -> Result<StudyResults, StudyError> {
        let json = std::fs::read_to_string(path)?;
        Ok(serde_json::from_str(&json)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softerr_inject::PruneMode;

    #[test]
    fn config_cardinality() {
        let cfg = StudyConfig::default();
        assert_eq!(cfg.machines.len(), 2);
        assert_eq!(cfg.workloads.len(), 8);
        assert_eq!(cfg.levels.len(), 4);
        assert_eq!(cfg.structures.len(), 15);
        // 2 × 8 × 4 × 15 × n, the paper's 1,920,000 at n = 2000.
        assert_eq!(StudyConfig::paper(0).total_injections(), 1_920_000);
    }

    #[test]
    fn quick_config_is_small() {
        let cfg = StudyConfig::quick(1);
        assert!(cfg.total_injections() < 15_000);
    }

    #[test]
    fn builder_rejects_nonsense_plans() {
        use softerr_inject::SamplerKind;
        let cfg = StudyConfig {
            workloads: vec![Workload::Qsort],
            levels: vec![OptLevel::O0, OptLevel::O2],
            plan: SamplingPlan::fixed(50),
            seed: 7,
            ..StudyConfig::default()
        };
        assert!(cfg.validate().is_ok());
        // 2 machines × 1 workload × 2 levels × 15 structures × 50.
        assert_eq!(cfg.total_injections(), 2 * 2 * 15 * 50);
        let with_plan = |plan| StudyConfig {
            plan,
            ..StudyConfig::default()
        };
        assert!(StudyConfig {
            workloads: vec![],
            ..StudyConfig::default()
        }
        .validate()
        .is_err());
        assert!(with_plan(SamplingPlan::adaptive(0.0, 100))
            .validate()
            .is_err());
        for mode in [PruneMode::On, PruneMode::Verify] {
            assert!(with_plan(
                SamplingPlan::fixed(10)
                    .sampler(SamplerKind::Importance)
                    .prune(mode)
            )
            .validate()
            .is_ok());
        }
    }
}
