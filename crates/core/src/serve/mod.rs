//! Distributed campaign service: one coordinator, N untrusted worker
//! processes, the content-addressed [`crate::ResultStore`] as the shared
//! source of truth.
//!
//! The paper's full grid is 1,920,000 injection runs — hours of work that
//! scale-out across machines turns into minutes, *if* nothing about the
//! distribution can change the numbers. This module keeps that guarantee
//! structural rather than statistical:
//!
//! * cells are deterministic functions of the [`crate::StudyConfig`]
//!   (seeded per `(seed, structure)`, independent of thread count and of
//!   which process runs them),
//! * only the coordinator writes the store, after re-verifying each
//!   submission against its own plan (see [`Coordinator`]),
//! * the coordinator serves the scheduler's one lease board, and remote
//!   workers run the same worker loop as the in-process orchestrator; only
//!   the link differs (TCP frames here, direct calls there).
//!
//! So `serial == parallel == distributed` holds byte-for-byte, and
//! `tests/serve_equivalence.rs` asserts it end to end — including a
//! worker killed mid-study, whose leases are released and re-granted.
//!
//! See DESIGN.md §15 for the wire protocol and the lease state machine.

mod coordinator;
mod wire;
mod worker;

pub use coordinator::Coordinator;
pub use wire::{read_frame, write_frame, LeaseGrant, Request, Response, PROTOCOL_VERSION};
pub use worker::{run_worker, WorkerOptions, WorkerReport};
pub(crate) use worker::{work, Link};
