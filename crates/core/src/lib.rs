//! # softerr
//!
//! A full reproduction of *"Characterizing Soft Error Vulnerability of CPUs
//! Across Compiler Optimizations and Microarchitectures"* (IISWC 2021) as a
//! Rust library. This facade crate orchestrates the entire stack:
//!
//! 1. compile the eight MiBench-equivalent workloads ([`Workload`]) at each
//!    GCC-style optimization level ([`OptLevel`]) with the `softerr-cc`
//!    compiler,
//! 2. run them on the cycle-level out-of-order simulator (`softerr-sim`)
//!    configured as a Cortex-A15-like or Cortex-A72-like machine,
//! 3. inject statistically sampled single-bit transient faults into the
//!    fifteen structure fields of the paper ([`Structure`]) with
//!    `softerr-inject`,
//! 4. aggregate AVF / weighted-AVF / FIT / FPE with `softerr-analysis`.
//!
//! ```no_run
//! use softerr::{Orchestrator, StudyConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = StudyConfig::quick(42);
//! let results = Orchestrator::new(config).run()?;
//! for machine in results.machine_names() {
//!     for structure in softerr::Structure::ALL {
//!         let wavf = results.weighted_avf(&machine, softerr::OptLevel::O2, structure);
//!         println!("{machine} {structure}: wAVF = {wavf:.3}");
//!     }
//! }
//! # Ok(())
//! # }
//! ```
#![warn(missing_docs)]

mod sched;
pub mod serve;
mod store;
mod study;

pub use sched::{Orchestrator, SweepReport};
pub use serve::{run_worker, Coordinator, WorkerOptions, WorkerReport};
pub use store::{cell_config_hash, ResultStore};
pub use study::{CellKey, CellResult, StudyConfig, StudyError, StudyResults};

// Re-export the full vocabulary so downstream users need only this crate.
pub use softerr_analysis::{
    ace_estimate, cpu_fit, cpu_fit_by_class, fit_of_structure, forensics, fpe,
    mean_sampling_speedup, mean_static_uplift, profile, sampling_table,
    static_injected_rank_correlation, static_vuln_table, weighted_avf, AceEstimate, EccScheme,
    SamplingCell, StaticVulnCell, StructureAvf, StructureMeasurement,
};
pub use softerr_cc::{
    CompileError, Compiled, Compiler, OptLevel, PassConfig, StaticVulnMap, VerifyError,
};
pub use softerr_inject::{
    error_margin, fnv1a, ht_fraction, required_sample, weighted_error_margin,
    weighted_required_sample, CampaignConfig, CampaignOutput, CampaignResult, CampaignRun,
    ClassCounts, DivergenceSite, FaultClass, FaultRecord, FaultSpec, Golden, Injector,
    ProgressLine, PropagationSample, PropagationTrace, PruneMode, PrunePolicy, RunManifest,
    SamplerKind, SamplingPlan, StopRule, Z_90, Z_95, Z_99,
};
pub use softerr_isa::{disassemble, Emulator, Profile, Program};
pub use softerr_sim::{
    BitSet, LiveWindow, LivenessMap, MachineConfig, OccupancyHistogram, ResidencyReport, Sim,
    SimCounters, SimOutcome, SimStats, StateDelta, Structure, StructureLiveness,
    StructureResidency,
};
/// The structured event/telemetry facade (see [`mod@telemetry`]).
pub use softerr_telemetry as telemetry;
pub use softerr_telemetry::{
    event, set_tracing, span, take_trace, tracing_enabled, Level, Span, SpanRecord, Table, Trace,
};
pub use softerr_workloads::{Scale, Workload};
