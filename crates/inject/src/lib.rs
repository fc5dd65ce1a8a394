//! # softerr-inject
//!
//! The study's statistical fault-injection framework (the GeFIN
//! equivalent). A campaign samples single-bit transient faults uniformly
//! over (bit × cycle) — the statistical model of Leveugle et al. (DATE'09)
//! the paper follows — runs each fault to completion on the cycle-level
//! simulator, and classifies the outcome into the paper's five classes:
//!
//! * **Masked** — the run finished with output identical to the golden run,
//! * **SDC** — finished, but the output differs (silent data corruption),
//! * **Crash** — an architectural fault reached commit,
//! * **Timeout** — the run exceeded 2× the fault-free execution time,
//! * **Assert** — the simulator hit a state it cannot meaningfully
//!   continue from (corrupted linkage, out-of-map cache operation, …).
//!
//! The AVF of a structure is the non-masked fraction of its injections.
//!
//! Sampling is configured by a typed [`SamplingPlan`]: the sampling
//! distribution ([`SamplerKind`]), the stopping rule ([`StopRule`]), and
//! the prune policy ([`PrunePolicy`]). Importance sampling draws only from
//! the golden run's live-and-demanded subpopulation and reweights tallies
//! by its mass (Horvitz–Thompson), reaching the same confidence margin as
//! uniform sampling with far fewer simulated faults on sparse structures.
//!
//! ```
//! use softerr_cc::{Compiler, OptLevel};
//! use softerr_inject::{CampaignConfig, Injector, SamplingPlan};
//! use softerr_isa::Profile;
//! use softerr_sim::{MachineConfig, Structure};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = MachineConfig::cortex_a72();
//! let program = Compiler::new(Profile::A64, OptLevel::O1)
//!     .compile("void main() { int s = 0; for (int i = 0; i < 30; i = i + 1) s = s + i; out(s); }")?
//!     .program;
//! let injector = Injector::new(&cfg, &program)?;
//! let result = injector
//!     .run(
//!         Structure::RegFile,
//!         &CampaignConfig { plan: SamplingPlan::fixed(25), seed: 7, ..CampaignConfig::default() },
//!     )
//!     .execute()
//!     .result;
//! assert_eq!(result.total(), 25);
//! assert!(result.avf() >= 0.0 && result.avf() <= 1.0);
//! # Ok(())
//! # }
//! ```
#![warn(missing_docs)]

mod campaign;
mod manifest;
mod progress;
mod record;
mod sampler;
mod stats;

pub use campaign::{
    CampaignConfig, CampaignOutput, CampaignResult, CampaignRun, ClassCounts, FaultClass,
    FaultSpec, Golden, GoldenError, Injector, PruneMode,
};
pub use manifest::{fnv1a, RunManifest};
pub use progress::ProgressLine;
pub use record::{DivergenceSite, FaultRecord, PropagationSample, PropagationTrace};
pub use sampler::{PrunePolicy, SamplerKind, SamplingPlan, StopRule};
pub use stats::{
    error_margin, ht_fraction, required_sample, weighted_error_margin, weighted_required_sample,
    Z_90, Z_95, Z_99,
};
