//! The structured event facade.
//!
//! Every warning or progress note the workspace used to push through ad-hoc
//! `eprintln!` goes through here instead: an [`Event`] carries a severity
//! [`Level`], a dotted `target` naming the emitting subsystem, a formatted
//! message, and typed key/value fields. Events flow to one installed
//! [`Sink`] — human-readable stderr by default, JSONL for machine
//! consumption, or an in-memory capture for tests.
//!
//! The facade is zero-cost when disabled: [`event!`](crate::event!) checks
//! [`enabled`] (one relaxed atomic load) before formatting anything, so
//! campaigns with telemetry off pay a branch per *suppressed* event and
//! nothing per cycle.

use serde::{Serialize, Value};
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, RwLock};

/// Event severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable problems (the campaign still tries to continue).
    Error = 1,
    /// Suspicious-but-handled situations (a caught simulator panic, …).
    Warn = 2,
    /// Progress notes and run manifests.
    Info = 3,
    /// Engine internals (convergence checks, convoy graduation, …).
    Debug = 4,
    /// Everything.
    Trace = 5,
}

impl Level {
    /// Lower-case display name (the JSONL `level` field).
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

/// A typed field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (pre-formatted payloads, structure names, …).
    Str(String),
}

macro_rules! field_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> FieldValue {
                FieldValue::$variant(v as $conv)
            }
        }
    )*};
}
field_from!(
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64, u64 => U64 as u64,
    usize => U64 as u64, i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64,
    i64 => I64 as i64, f64 => F64 as f64, f32 => F64 as f64,
);

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl Serialize for FieldValue {
    fn to_value(&self) -> Value {
        match self {
            FieldValue::U64(v) => Value::U64(*v),
            FieldValue::I64(v) => Value::I64(*v),
            FieldValue::F64(v) => Value::F64(*v),
            FieldValue::Bool(v) => Value::Bool(*v),
            FieldValue::Str(v) => Value::Str(v.clone()),
        }
    }
}

/// One structured event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Severity.
    pub level: Level,
    /// Dotted origin, e.g. `"inject.campaign"`.
    pub target: &'static str,
    /// Human-readable message.
    pub message: String,
    /// Structured key/value payload.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Serialize for Event {
    fn to_value(&self) -> Value {
        let fields = self
            .fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_value()))
            .collect();
        Value::Object(vec![
            ("level".to_string(), Value::Str(self.level.name().into())),
            ("target".to_string(), Value::Str(self.target.into())),
            ("message".to_string(), Value::Str(self.message.clone())),
            ("fields".to_string(), Value::Object(fields)),
        ])
    }
}

/// An event destination. Implementations must be thread-safe: campaign
/// workers emit concurrently.
pub trait Sink: Send + Sync {
    /// Consumes one event (already level-filtered by the facade).
    fn emit(&self, event: &Event);
}

/// `0` means "off"; otherwise the numeric value of the max enabled level.
/// Default: warnings and errors, matching the old raw-`eprintln!` behavior.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Warn as u8);

static SINK: RwLock<Option<Box<dyn Sink>>> = RwLock::new(None);

/// Whether events at `level` are currently emitted. One relaxed atomic
/// load — callers (and the [`event!`](crate::event!) macro) use this to
/// skip formatting entirely when the level is off.
#[inline]
pub fn enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Sets the maximum emitted level; `None` silences everything (`--quiet`).
pub fn set_max_level(level: Option<Level>) {
    MAX_LEVEL.store(level.map_or(0, |l| l as u8), Ordering::Relaxed);
}

/// The current maximum emitted level (`None` = everything off).
pub fn max_level() -> Option<Level> {
    match MAX_LEVEL.load(Ordering::Relaxed) {
        1 => Some(Level::Error),
        2 => Some(Level::Warn),
        3 => Some(Level::Info),
        4 => Some(Level::Debug),
        5 => Some(Level::Trace),
        _ => None,
    }
}

/// Installs the process-wide sink (replacing any previous one). Events
/// emitted with no installed sink go to a [`HumanSink`] on stderr.
pub fn install_sink(sink: Box<dyn Sink>) {
    *SINK.write().expect("telemetry sink lock poisoned") = Some(sink);
}

/// Removes any installed sink, restoring the default stderr behavior.
/// (Tests use this to un-install their capture sinks.)
pub fn reset_sink() {
    *SINK.write().expect("telemetry sink lock poisoned") = None;
}

/// Emits one event through the installed sink. Prefer the
/// [`event!`](crate::event!) macro, which checks [`enabled`] before
/// building the event at all.
pub fn emit(event: Event) {
    if !enabled(event.level) {
        return;
    }
    let guard = SINK.read().expect("telemetry sink lock poisoned");
    match guard.as_deref() {
        Some(sink) => sink.emit(&event),
        None => HumanSink.emit(&event),
    }
}

/// The [`event!`](crate::event!) macro's entry point: hands `event` to
/// `extra`, whatever the level, then to [`emit`].
#[doc(hidden)]
pub fn emit_event(extra: Option<&dyn Sink>, event: Event) {
    if let Some(sink) = extra {
        sink.emit(&event);
    }
    emit(event);
}

/// Emits a structured event.
///
/// ```
/// use softerr_telemetry::{event, JsonlSink, Level, Sink};
/// event!(Level::Warn, "inject.campaign", { slot: 7_usize, width: 1_u8 },
///        "simulator panicked on slot {}", 7);
/// event!(Level::Info, "bench.repro", {}, "study complete");
/// // `to SINK;` also hands the event to an extra `Option<&dyn Sink>`,
/// // whatever the process-wide level.
/// let log = JsonlSink::to_writer(Box::new(std::io::sink()));
/// event!(to Some(&log as &dyn Sink); Level::Debug, "study.sched", { lease: 3_u64 }, "granted");
/// ```
///
/// The field block takes `name: value` pairs where every value converts
/// via [`FieldValue::from`]. Nothing — not even the message — is formatted
/// unless the level is enabled or an extra sink is given.
#[macro_export]
macro_rules! event {
    (to $sink:expr; $level:expr, $target:expr, { $($key:ident : $val:expr),* $(,)? }, $($fmt:tt)+) => {{
        let level = $level;
        let sink: ::std::option::Option<&dyn $crate::Sink> = $sink;
        if sink.is_some() || $crate::enabled(level) {
            $crate::emit_event(sink, $crate::Event {
                level,
                target: $target,
                message: ::std::format!($($fmt)+),
                fields: ::std::vec![
                    $((::std::stringify!($key), $crate::FieldValue::from($val))),*
                ],
            });
        }
    }};
    ($level:expr, $target:expr, { $($key:ident : $val:expr),* $(,)? }, $($fmt:tt)+) => {
        $crate::event!(to ::std::option::Option::None; $level, $target, { $($key: $val),* }, $($fmt)+)
    };
}

/// Human-readable sink: `warning:`-style lines on stderr. Errors and
/// warnings carry a severity prefix; info and below print bare (they are
/// progress notes, not diagnostics).
#[derive(Debug, Default)]
pub struct HumanSink;

impl Sink for HumanSink {
    fn emit(&self, event: &Event) {
        let mut line = match event.level {
            Level::Error => format!("error: {}", event.message),
            Level::Warn => format!("warning: {}", event.message),
            _ => event.message.clone(),
        };
        if !event.fields.is_empty() {
            let rendered: Vec<String> = event
                .fields
                .iter()
                .map(|(k, v)| match v {
                    FieldValue::U64(x) => format!("{k}={x}"),
                    FieldValue::I64(x) => format!("{k}={x}"),
                    FieldValue::F64(x) => format!("{k}={x}"),
                    FieldValue::Bool(x) => format!("{k}={x}"),
                    FieldValue::Str(x) => format!("{k}={x}"),
                })
                .collect();
            line.push_str(&format!(" ({})", rendered.join(", ")));
        }
        eprintln!("{line}");
    }
}

/// JSONL sink: one JSON object per event
/// (`{"level":…,"target":…,"message":…,"fields":{…}}`) on a shared writer.
pub struct JsonlSink {
    writer: Mutex<Box<dyn Write + Send>>,
}

impl JsonlSink {
    /// JSONL to stderr (structured logging mode for the CLI bins).
    pub fn stderr() -> JsonlSink {
        JsonlSink::to_writer(Box::new(std::io::stderr()))
    }

    /// JSONL to an arbitrary writer (a file, a pipe, a test buffer).
    pub fn to_writer(writer: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink {
            writer: Mutex::new(writer),
        }
    }
}

impl Sink for JsonlSink {
    fn emit(&self, event: &Event) {
        let line = serde_json::to_string(event).unwrap_or_default();
        let mut w = self.writer.lock().expect("jsonl sink lock poisoned");
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
}

/// Test sink that records every event it sees.
#[derive(Debug, Default)]
pub struct CaptureSink {
    events: Mutex<Vec<Event>>,
}

impl CaptureSink {
    /// An empty capture.
    pub fn new() -> CaptureSink {
        CaptureSink::default()
    }

    /// Snapshot of everything captured so far.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .expect("capture sink lock poisoned")
            .clone()
    }
}

impl Sink for CaptureSink {
    fn emit(&self, event: &Event) {
        self.events
            .lock()
            .expect("capture sink lock poisoned")
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A capture sink shareable between the facade and the test body.
    struct SharedCapture(Arc<CaptureSink>);
    impl Sink for SharedCapture {
        fn emit(&self, event: &Event) {
            self.0.emit(event);
        }
    }

    /// The facade is process-global, so every test that touches it runs
    /// under this lock (Rust runs tests concurrently by default).
    static FACADE: Mutex<()> = Mutex::new(());

    fn with_capture(max: Option<Level>, body: impl FnOnce(&CaptureSink)) {
        let _guard = FACADE.lock().unwrap_or_else(|e| e.into_inner());
        let capture = Arc::new(CaptureSink::new());
        install_sink(Box::new(SharedCapture(capture.clone())));
        let old = max_level();
        set_max_level(max);
        body(&capture);
        set_max_level(old);
        reset_sink();
    }

    #[test]
    fn levels_gate_emission() {
        with_capture(Some(Level::Warn), |cap| {
            event!(Level::Error, "t", {}, "e");
            event!(Level::Warn, "t", {}, "w");
            event!(Level::Info, "t", {}, "i");
            let levels: Vec<Level> = cap.events().iter().map(|e| e.level).collect();
            assert_eq!(levels, vec![Level::Error, Level::Warn]);
        });
    }

    #[test]
    fn quiet_mode_silences_everything() {
        with_capture(None, |cap| {
            event!(Level::Error, "t", {}, "e");
            assert!(cap.events().is_empty());
            assert!(!enabled(Level::Error));
        });
    }

    #[test]
    fn fields_are_typed_and_named() {
        with_capture(Some(Level::Trace), |cap| {
            event!(
                Level::Debug,
                "inject.campaign",
                { slot: 9_usize, avf: 0.25_f64, structure: "rf" },
                "classified"
            );
            let ev = &cap.events()[0];
            assert_eq!(ev.target, "inject.campaign");
            assert_eq!(ev.fields[0], ("slot", FieldValue::U64(9)));
            assert_eq!(ev.fields[1], ("avf", FieldValue::F64(0.25)));
            assert_eq!(ev.fields[2], ("structure", FieldValue::Str("rf".into())));
        });
    }

    #[test]
    fn jsonl_sink_writes_one_object_per_line() {
        let ev = Event {
            level: Level::Warn,
            target: "inject.campaign",
            message: "simulator \"panicked\"".into(),
            fields: vec![("slot", FieldValue::U64(3))],
        };
        let line = serde_json::to_string(&ev).unwrap();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"level\":\"warn\""));
        assert!(line.contains("\"target\":\"inject.campaign\""));
        assert!(line.contains("\"slot\":3"));
        assert!(!line.contains('\n'), "JSONL events must be single lines");
    }

    #[test]
    fn an_extra_sink_sees_events_whatever_the_level() {
        with_capture(None, |cap| {
            let extra = CaptureSink::new();
            event!(to Some(&extra as &dyn Sink); Level::Debug, "t", { lease: 4_u64 }, "granted");
            event!(to None; Level::Debug, "t", {}, "dropped");
            assert!(
                cap.events().is_empty(),
                "the process-wide level still gates"
            );
            let seen = extra.events();
            assert_eq!(seen.len(), 1);
            assert_eq!(seen[0].fields, vec![("lease", FieldValue::U64(4))]);
        });
        with_capture(Some(Level::Info), |cap| {
            let extra = CaptureSink::new();
            event!(to Some(&extra as &dyn Sink); Level::Info, "t", {}, "both");
            assert_eq!((cap.events().len(), extra.events().len()), (1, 1));
        });
    }

    #[test]
    fn disabled_levels_cost_no_formatting() {
        // The macro must not evaluate its format arguments when disabled.
        with_capture(Some(Level::Error), |cap| {
            let mut evaluated = false;
            let mut probe = || {
                evaluated = true;
                0
            };
            event!(Level::Trace, "t", {}, "{}", probe());
            assert!(!evaluated);
            assert!(cap.events().is_empty());
        });
    }
}
