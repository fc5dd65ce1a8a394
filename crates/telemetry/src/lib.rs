//! # softerr-telemetry
//!
//! The study's shared observability substrate, sitting below every other
//! crate in the workspace so that the simulator, the injector, and the
//! benchmark harnesses all speak one event vocabulary:
//!
//! * a lightweight structured **event facade** ([`Event`], [`event!`]) with
//!   severity levels, dotted targets (`"inject.campaign"`), and pluggable
//!   sinks — a human-readable stderr sink by default, a JSONL sink for
//!   machine consumption, and a capture sink for tests. Emission is gated
//!   by a single relaxed atomic load, so disabled levels cost nothing and
//!   campaigns stay fast; `event!(to SINK; …)` also hands an event to an
//!   extra sink (a coordinator's progress log) whatever the level;
//! * a span-based **tracing layer** ([`span`], [`Span`], [`take_trace`])
//!   recording named, timed, thread-aware stages into per-thread ring
//!   buffers, exportable as Chrome trace-event JSON (Perfetto-loadable) or
//!   an aggregate table — also one relaxed atomic load when disabled;
//! * the plain-text [`Table`] used by every report the harnesses print.
//!
//! No external dependencies beyond the workspace's vendored stubs.
//!
//! ```
//! use softerr_telemetry::{event, Level};
//! // Emitted through the installed sink (stderr by default):
//! event!(Level::Warn, "example", { faults: 3_u64 }, "campaign saw {} odd faults", 3);
//! ```
#![warn(missing_docs)]

mod event;
mod report;
mod trace;

#[doc(hidden)]
pub use event::emit_event;
pub use event::{
    emit, enabled, install_sink, max_level, reset_sink, set_max_level, CaptureSink, Event,
    FieldValue, HumanSink, JsonlSink, Level, Sink,
};
pub use report::Table;
pub use trace::{set_tracing, span, take_trace, tracing_enabled, Span, SpanRecord, Trace};
