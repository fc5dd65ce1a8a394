//! # softerr-sim
//!
//! A cycle-level out-of-order CPU simulator — the study's gem5 stand-in.
//! It models the full pipeline of a modern OoO core (fetch with branch
//! prediction, rename with checkpointed recovery, issue-queue scheduling,
//! load/store queues with forwarding and conservative disambiguation, a
//! write-back two-level cache hierarchy holding real data, and in-order
//! commit) for two machine configurations matching the paper's Table I:
//! a Cortex-A15-like Armv7-class core and a Cortex-A72-like Armv8-class
//! core.
//!
//! Every structure the paper injects faults into exposes bit-accurate
//! state: [`Structure::ALL`] lists the fifteen injectable fields, and
//! [`Sim::flip_bit`] performs a single-event upset. Architectural
//! semantics are byte-compatible with the [`softerr_isa::Emulator`]
//! reference (enforced by the differential test suite).
//!
//! ```
//! use softerr_cc::{Compiler, OptLevel};
//! use softerr_isa::Profile;
//! use softerr_sim::{MachineConfig, Sim, SimOutcome};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Compiler::new(Profile::A64, OptLevel::O2)
//!     .compile("void main() { out(6 * 7); }")?
//!     .program;
//! let mut sim = Sim::new(&MachineConfig::cortex_a72(), &program);
//! match sim.run(100_000) {
//!     SimOutcome::Halted { output, .. } => assert_eq!(output, vec![42]),
//!     other => panic!("unexpected outcome {other:?}"),
//! }
//! # Ok(())
//! # }
//! ```
#![warn(missing_docs)]

mod bpred;
mod cache;
mod config;
mod counters;
mod delta;
mod inject;
mod iq;
mod lsq;
mod memsys;
mod pipeline;
mod regs;
mod residency;
mod rob;
mod uop;

pub use cache::{Cache, PHYS_ADDR_BITS};
pub use config::{CacheGeometry, MachineConfig};
pub use counters::{OccupancyHistogram, SimCounters};
pub use delta::{BitSet, StateDelta};
pub use inject::Structure;
pub use memsys::{MemErr, MemorySystem};
pub use pipeline::{Sim, SimOutcome};
pub use residency::{
    LiveWindow, LivenessMap, ResidencyReport, StructureLiveness, StructureResidency,
};
pub use softerr_isa::CowVec;
