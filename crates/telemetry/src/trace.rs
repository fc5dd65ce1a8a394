//! Span-based tracing: where did the wall-clock time go?
//!
//! The [`event!`](crate::event!) facade answers *what happened*; this module
//! answers *how long each stage took*. A [`Span`] is an RAII guard around a
//! named region of work — entering creates it, dropping records it — with
//! typed key/value fields for counters the region wants to attribute
//! (forks, prune counts, cache hits). Recorded spans are drained into a
//! [`Trace`], exportable as Chrome trace-event JSON (loadable in Perfetto /
//! `chrome://tracing`) or summarized as an aggregate [`Table`].
//!
//! # Cost model
//!
//! Tracing follows the same discipline as the event facade: **one relaxed
//! atomic load when disabled**. [`span`] checks [`tracing_enabled`] before
//! touching the clock or allocating anything; a disabled span is a
//! two-word struct that drops without side effects. Campaign hot loops can
//! therefore stay instrumented permanently.
//!
//! # Recording without perturbing determinism
//!
//! Each thread records into its own fixed-capacity ring buffer
//! ([`ThreadBuf`]), registered once per thread under a mutex that is never
//! taken again on the hot path. Writes are single-owner (only the owning
//! thread appends), so recording takes no locks, allocates only the record
//! itself, and — critically — never blocks or reorders campaign worker
//! threads against each other. Simulation results cannot depend on tracing
//! because the recorder only *observes* wall-clock time; it feeds nothing
//! back into any scheduling or classification decision, and the engines'
//! verdicts are pure functions of the fault (a property the
//! `trace_equivalence` integration test pins).
//!
//! Draining ([`take_trace`]) uses a Dekker-style handshake: it disables
//! tracing with a sequentially-consistent store, then waits for each
//! buffer's `busy` flag before reading it. A writer marks `busy`,
//! *re-checks* the enable flag, and only then writes — so the drainer
//! observes either a completed record or no record, never a torn one.

use crate::event::FieldValue;
use crate::report::Table;
use serde::Value;
use std::cell::{Cell, OnceCell, UnsafeCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Per-thread ring capacity (records kept per thread; older records are
/// overwritten and counted in [`Trace::dropped`]).
const RING_CAP: usize = 1 << 16;

/// Master switch. Relaxed on the hot-path check, SeqCst in the
/// drain handshake.
static TRACING: AtomicBool = AtomicBool::new(false);

/// The process-wide time base: every span timestamp is nanoseconds since
/// this instant, so spans from different threads share one clock.
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Whether spans are currently being recorded: one relaxed atomic load,
/// mirroring [`crate::enabled`].
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Turns span recording on or off. Enabling also pins the process epoch so
/// the first span does not pay the `OnceLock` initialization.
pub fn set_tracing(on: bool) {
    if on {
        let _ = EPOCH.get_or_init(Instant::now);
    }
    TRACING.store(on, Ordering::SeqCst);
}

/// One recorded span: a named, timed region on one thread.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Static span name (e.g. `"campaign.classify"`).
    pub name: &'static str,
    /// Nanoseconds from the process trace epoch to span entry.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Recorder thread id (registration order, dense from 0).
    pub tid: u32,
    /// Nesting depth of the span on its thread at entry (0 = top level).
    pub depth: u32,
    /// Typed fields recorded on the span.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl SpanRecord {
    /// The span's field `key`, if recorded.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The span's field `key` as a string, if recorded as one.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        match self.field(key) {
            Some(FieldValue::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The span's field `key` as a u64, if recorded as one.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        match self.field(key) {
            Some(FieldValue::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Exclusive end timestamp (`start_ns + dur_ns`).
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }

    /// Whether `child` lies strictly inside this span on the same thread.
    pub fn contains(&self, child: &SpanRecord) -> bool {
        self.tid == child.tid && self.start_ns <= child.start_ns && child.end_ns() <= self.end_ns()
    }
}

/// One thread's span ring. Only the owning thread writes; [`take_trace`]
/// reads after the Dekker handshake described in the module docs.
struct ThreadBuf {
    tid: u32,
    /// Set (SeqCst) around every write; the drainer spins on it.
    busy: AtomicBool,
    /// Total records ever written by this thread (monotonic; the live
    /// window is the last `RING_CAP` of them).
    head: AtomicU64,
    slots: UnsafeCell<Vec<Option<SpanRecord>>>,
}

// SAFETY: `slots` is only written by the owning thread, and only between
// `busy = true` (SeqCst) and `busy = false` (Release) with the enable flag
// re-checked under `busy`; the drainer first disables tracing (SeqCst) and
// then waits for `busy == false` (SeqCst load) before touching `slots`, so
// reader and writer never overlap.
unsafe impl Sync for ThreadBuf {}

impl ThreadBuf {
    fn new(tid: u32) -> ThreadBuf {
        ThreadBuf {
            tid,
            busy: AtomicBool::new(false),
            head: AtomicU64::new(0),
            slots: UnsafeCell::new(vec![None; RING_CAP]),
        }
    }
}

/// All thread buffers ever registered (kept alive past thread exit so a
/// drain sees work from short-lived workers).
static REGISTRY: Mutex<Vec<Arc<ThreadBuf>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL_BUF: OnceCell<Arc<ThreadBuf>> = const { OnceCell::new() };
    /// Current span nesting depth on this thread.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn with_local_buf<R>(f: impl FnOnce(&ThreadBuf) -> R) -> R {
    LOCAL_BUF.with(|cell| {
        let buf = cell.get_or_init(|| {
            let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
            let buf = Arc::new(ThreadBuf::new(reg.len() as u32));
            reg.push(Arc::clone(&buf));
            buf
        });
        f(buf)
    })
}

/// Appends one record to the calling thread's ring (owner side of the
/// drain handshake).
fn record_span(rec: SpanRecord) {
    with_local_buf(|buf| {
        buf.busy.store(true, Ordering::SeqCst);
        // Re-check under `busy`: if a drain started after our fast-path
        // check, it has already disabled tracing and this write must not
        // race its read.
        if TRACING.load(Ordering::SeqCst) {
            let head = buf.head.load(Ordering::Relaxed);
            // SAFETY: single-owner write; see `unsafe impl Sync`.
            let slots = unsafe { &mut *buf.slots.get() };
            slots[(head as usize) % RING_CAP] = Some(rec);
            buf.head.store(head + 1, Ordering::Relaxed);
        }
        buf.busy.store(false, Ordering::Release);
    });
}

/// An RAII span guard: created by [`span`], recorded on drop.
///
/// When tracing is disabled the guard is inert — no clock read, no
/// allocation, nothing on drop.
#[must_use = "a span measures the region it is alive for; bind it to a variable"]
pub struct Span {
    name: &'static str,
    start_ns: u64,
    depth: u32,
    fields: Vec<(&'static str, FieldValue)>,
    armed: bool,
}

/// Enters a span named `name` on the current thread. The span ends (and is
/// recorded) when the returned guard drops.
///
/// ```
/// let mut sp = softerr_telemetry::span("campaign.sample");
/// sp.record("faults", 4096_u64);
/// // ... work ...
/// drop(sp);
/// ```
#[inline]
pub fn span(name: &'static str) -> Span {
    if !tracing_enabled() {
        return Span {
            name,
            start_ns: 0,
            depth: 0,
            fields: Vec::new(),
            armed: false,
        };
    }
    let depth = DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    Span {
        name,
        start_ns: now_ns(),
        depth,
        fields: Vec::new(),
        armed: true,
    }
}

impl Span {
    /// Attaches a typed field to the span (a no-op when tracing is off, so
    /// callers never pay for formatting or conversion).
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if self.armed {
            self.fields.push((key, value.into()));
        }
    }

    /// Whether this guard will record on drop (false when tracing was
    /// disabled at entry).
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Ends the span without recording it; spans entered inside it stay
    /// recorded. For a region whose kind is known only once it has run.
    pub fn discard(mut self) {
        if self.armed {
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            self.armed = false;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let end = now_ns();
        record_span(SpanRecord {
            name: self.name,
            start_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
            tid: with_local_buf(|b| b.tid),
            depth: self.depth,
            fields: std::mem::take(&mut self.fields),
        });
    }
}

/// A drained set of span records (see [`take_trace`]).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// All recorded spans, sorted by (start, tid, depth).
    pub spans: Vec<SpanRecord>,
    /// Records lost to ring overflow (oldest-first overwrite).
    pub dropped: u64,
}

/// Disables tracing and drains every thread's ring into one [`Trace`].
///
/// Spans still open when this runs are *not* included (they record on
/// drop); callers should drain only after the instrumented region has
/// fully exited. Tracing stays disabled afterwards — re-enable with
/// [`set_tracing`] to start a fresh recording.
pub fn take_trace() -> Trace {
    TRACING.store(false, Ordering::SeqCst);
    let reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let mut spans = Vec::new();
    let mut dropped = 0u64;
    for buf in reg.iter() {
        // Drain side of the handshake: wait out any in-flight write. The
        // writer re-checks the (now false) enable flag under `busy`, so
        // once `busy` reads false no further write can land.
        while buf.busy.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        let head = buf.head.load(Ordering::SeqCst);
        dropped += head.saturating_sub(RING_CAP as u64);
        // SAFETY: tracing is disabled and `busy` observed false; the
        // owning thread cannot write until tracing is re-enabled.
        let slots = unsafe { &mut *buf.slots.get() };
        for slot in slots.iter_mut() {
            if let Some(rec) = slot.take() {
                spans.push(rec);
            }
        }
        buf.head.store(0, Ordering::SeqCst);
    }
    drop(reg);
    spans.sort_by_key(|s| (s.start_ns, s.tid, s.depth));
    Trace { spans, dropped }
}

impl Trace {
    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the trace holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Renders the trace in Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` object form), loadable in Perfetto or
    /// `chrome://tracing`. Each span becomes one complete (`"ph":"X"`)
    /// event with microsecond timestamps; span fields land in `args`.
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                let args: Vec<(String, Value)> = s
                    .fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), field_value(v)))
                    .collect();
                Value::Object(vec![
                    ("name".to_string(), Value::Str(s.name.to_string())),
                    ("cat".to_string(), Value::Str("softerr".to_string())),
                    ("ph".to_string(), Value::Str("X".to_string())),
                    ("ts".to_string(), Value::F64(s.start_ns as f64 / 1_000.0)),
                    ("dur".to_string(), Value::F64(s.dur_ns as f64 / 1_000.0)),
                    ("pid".to_string(), Value::U64(1)),
                    ("tid".to_string(), Value::U64(u64::from(s.tid))),
                    ("args".to_string(), Value::Object(args)),
                ])
            })
            .collect();
        serde_json::to_string(&Value::Object(vec![(
            "traceEvents".to_string(),
            Value::Array(events),
        )]))
        .unwrap_or_default()
    }

    /// Aggregates the trace by span name: count, total/mean/max wall time,
    /// sorted by total descending. The quick textual answer to "where did
    /// the time go" when a full Perfetto round-trip is overkill.
    pub fn aggregate_table(&self) -> Table {
        struct Agg {
            count: u64,
            total_ns: u64,
            max_ns: u64,
        }
        let mut by_name: Vec<(&'static str, Agg)> = Vec::new();
        for s in &self.spans {
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, agg)) => {
                    agg.count += 1;
                    agg.total_ns += s.dur_ns;
                    agg.max_ns = agg.max_ns.max(s.dur_ns);
                }
                None => by_name.push((
                    s.name,
                    Agg {
                        count: 1,
                        total_ns: s.dur_ns,
                        max_ns: s.dur_ns,
                    },
                )),
            }
        }
        by_name.sort_by_key(|(_, agg)| std::cmp::Reverse(agg.total_ns));
        let mut table = Table::new(vec![
            "span".into(),
            "count".into(),
            "total_ms".into(),
            "mean_us".into(),
            "max_us".into(),
        ]);
        for (name, agg) in &by_name {
            table.row(vec![
                name.to_string(),
                agg.count.to_string(),
                format!("{:.3}", agg.total_ns as f64 / 1e6),
                format!("{:.1}", agg.total_ns as f64 / 1e3 / agg.count as f64),
                format!("{:.1}", agg.max_ns as f64 / 1e3),
            ]);
        }
        table
    }
}

fn field_value(v: &FieldValue) -> Value {
    match v {
        FieldValue::U64(x) => Value::U64(*x),
        FieldValue::I64(x) => Value::I64(*x),
        FieldValue::F64(x) => Value::F64(*x),
        FieldValue::Bool(x) => Value::Bool(*x),
        FieldValue::Str(x) => Value::Str(x.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing is process-global; tests that toggle it serialize here.
    static TRACE_LOCK: Mutex<()> = Mutex::new(());

    fn with_tracing(body: impl FnOnce()) -> Trace {
        let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        traced(body)
    }

    /// Runs `body` with tracing armed and drains the trace. The caller
    /// holds `TRACE_LOCK`.
    fn traced(body: impl FnOnce()) -> Trace {
        let _ = take_trace(); // clear leftovers from other tests
        set_tracing(true);
        body();
        take_trace()
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _ = take_trace();
        assert!(!tracing_enabled());
        let mut sp = span("never");
        assert!(!sp.is_armed());
        sp.record("unseen", 1_u64);
        drop(sp);
        let trace = take_trace();
        assert!(trace.is_empty());
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn spans_record_name_fields_and_duration() {
        let trace = with_tracing(|| {
            let mut sp = span("outer");
            sp.record("faults", 42_u64);
            sp.record("structure", "rf");
            std::thread::sleep(std::time::Duration::from_millis(2));
            drop(sp);
        });
        let outer = trace.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.u64_field("faults"), Some(42));
        assert_eq!(outer.str_field("structure"), Some("rf"));
        assert!(outer.dur_ns >= 1_000_000, "slept 2ms, dur {}", outer.dur_ns);
    }

    #[test]
    fn nested_spans_are_well_nested_with_depths() {
        let trace = with_tracing(|| {
            let outer = span("outer");
            {
                let inner = span("inner");
                drop(inner);
            }
            {
                let inner2 = span("inner");
                drop(inner2);
            }
            drop(outer);
        });
        let outer = trace.spans.iter().find(|s| s.name == "outer").unwrap();
        let inners: Vec<_> = trace.spans.iter().filter(|s| s.name == "inner").collect();
        assert_eq!(inners.len(), 2);
        for inner in inners {
            assert_eq!(inner.depth, outer.depth + 1);
            assert!(outer.contains(inner));
        }
    }

    #[test]
    fn threads_get_distinct_tids_and_all_spans_survive_thread_exit() {
        let trace = with_tracing(|| {
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        let _sp = span("worker");
                    });
                }
            });
        });
        let workers: Vec<_> = trace.spans.iter().filter(|s| s.name == "worker").collect();
        assert_eq!(workers.len(), 4);
        let mut tids: Vec<u32> = workers.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(
            tids.len(),
            4,
            "each worker thread records under its own tid"
        );
    }

    #[test]
    fn take_trace_disables_and_resets() {
        // Held through the asserts as well: they read the global switch and
        // drain the global buffer, which another test could re-arm.
        let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let trace = traced(|| {
            let _sp = span("once");
        });
        assert_eq!(trace.spans.iter().filter(|s| s.name == "once").count(), 1);
        assert!(!tracing_enabled(), "take_trace leaves tracing off");
        // A second drain sees an empty, reset state.
        let again = take_trace();
        assert!(again.is_empty());
    }

    #[test]
    fn chrome_json_is_loadable_shape() {
        let trace = with_tracing(|| {
            let mut sp = span("campaign.run");
            sp.record("structure", "rf");
            sp.record("injections", 7_u64);
            drop(sp);
        });
        let json = trace.to_chrome_json();
        let value: serde::Value =
            serde_json::from_str(&json).expect("chrome export parses as JSON");
        let serde::Value::Object(top) = &value else {
            panic!("top level must be an object");
        };
        let events = top
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents key");
        let serde::Value::Array(events) = events else {
            panic!("traceEvents must be an array");
        };
        assert!(!events.is_empty());
        let serde::Value::Object(ev) = &events[0] else {
            panic!("events must be objects");
        };
        let get = |k: &str| ev.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone());
        assert_eq!(get("ph"), Some(serde::Value::Str("X".into())));
        assert_eq!(get("pid"), Some(serde::Value::U64(1)));
        assert!(matches!(get("ts"), Some(serde::Value::F64(_))));
        assert!(matches!(get("dur"), Some(serde::Value::F64(_))));
        assert!(matches!(get("args"), Some(serde::Value::Object(_))));
    }

    #[test]
    fn aggregate_table_groups_by_name() {
        let trace = with_tracing(|| {
            for _ in 0..3 {
                let _sp = span("stage.a");
            }
            let _sp = span("stage.b");
        });
        let table = trace.aggregate_table();
        let text = table.to_string();
        assert!(text.contains("stage.a"));
        assert!(text.contains("stage.b"));
        let csv = table.to_csv();
        let a_row: Vec<&str> = csv
            .lines()
            .find(|l| l.starts_with("stage.a"))
            .unwrap()
            .split(',')
            .collect();
        assert_eq!(a_row[1], "3");
    }

    #[test]
    fn ring_overflow_counts_dropped_records() {
        let trace = with_tracing(|| {
            for _ in 0..(RING_CAP + 10) {
                let _sp = span("tiny");
            }
        });
        assert_eq!(trace.spans.len(), RING_CAP);
        assert_eq!(trace.dropped, 10);
    }
}
