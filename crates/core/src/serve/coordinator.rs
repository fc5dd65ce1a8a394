//! The `softerr-serve` coordinator: serves a study's lease board to worker
//! processes over TCP and owns the result store.
//!
//! The board, the plan and the accept path are the scheduler's (see
//! `crate::sched`); this module is the TCP side of it: an accept loop,
//! one handler thread per connection, the `Hello` handshake, and frames
//! in and out. Every request after the handshake is answered by the same
//! calls the in-process workers of [`crate::Orchestrator`] make directly.
//!
//! Trust model: workers are **untrusted processes**. No worker addresses
//! the store directly — every `Submit` is checked against the
//! coordinator's *own* plan: the hash must be one the coordinator
//! computed (a worker cannot invent cells or move results between
//! coordinates), the echoed key must match that hash's planned
//! coordinate, and the result's shape (one campaign per configured
//! structure, in order) must match the study. Only the coordinator writes
//! [`ResultStore`] cells, so a distributed store is byte-identical to a
//! serial one by construction.

use super::wire::{self, Request, Response, PROTOCOL_VERSION};
use crate::sched::{Sweep, SweepReport};
use crate::store::ResultStore;
use crate::study::{StudyConfig, StudyError};
use softerr_telemetry::{event, span, JsonlSink, Level};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Serves a [`StudyConfig`] to remote workers over TCP and assembles the
/// same [`SweepReport`] a local [`crate::Orchestrator`] would produce.
///
/// ```no_run
/// use softerr::{Coordinator, ResultStore, StudyConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let listener = std::net::TcpListener::bind("127.0.0.1:7077")?;
/// let report = Coordinator::new(
///     StudyConfig::quick(42),
///     ResultStore::open("target/softerr-store")?,
/// )
/// .serve(&listener)?;
/// println!("{} cells, {} executed remotely", report.cells, report.executed);
/// # Ok(())
/// # }
/// ```
pub struct Coordinator {
    config: StudyConfig,
    store: ResultStore,
    lease_ms: u64,
    max_inflight: usize,
    refresh: bool,
    progress_log: Option<PathBuf>,
}

impl Coordinator {
    /// A coordinator for `config` whose source of truth is `store`.
    /// Defaults: 60 s leases, at most 4 in-flight cells per worker, store
    /// reads enabled, no progress log.
    pub fn new(config: StudyConfig, store: ResultStore) -> Coordinator {
        Coordinator {
            config,
            store,
            lease_ms: 60_000,
            max_inflight: 4,
            refresh: false,
            progress_log: None,
        }
    }

    /// Sets the lease duration in milliseconds: how long a worker may sit
    /// on a granted cell before it becomes re-grantable. Also bounds the
    /// per-connection read timeout used to detect dead peers.
    pub fn lease_ms(mut self, ms: u64) -> Coordinator {
        self.lease_ms = ms.max(1);
        self
    }

    /// Caps the cells one worker may hold concurrently (backpressure: a
    /// fast `Lease`-looping worker cannot strip-mine the whole grid and
    /// then fail, stranding every cell until its leases expire).
    pub fn max_inflight(mut self, cells: usize) -> Coordinator {
        self.max_inflight = cells.max(1);
        self
    }

    /// When set, store *reads* are skipped (every cell re-executes) while
    /// completed cells are still written back — `--fresh` semantics.
    pub fn refresh(mut self, refresh: bool) -> Coordinator {
        self.refresh = refresh;
        self
    }

    /// Appends every `study.sched` event of the sweep to `path` as JSONL,
    /// whatever the process-wide level: one object per line, with the
    /// record kind in `fields.event` (`connected`, `store`, `leased`,
    /// `completed`, `rejected`, `disconnected`), plus the serve and
    /// completion summaries.
    pub fn progress_log(mut self, path: impl Into<PathBuf>) -> Coordinator {
        self.progress_log = Some(path.into());
        self
    }

    /// The study this coordinator serves.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// Serves the study on `listener` until every cell is complete.
    /// Blocks; returns the same report (modulo wall-clock `seconds`) a
    /// serial [`crate::Orchestrator`] run of the config would.
    ///
    /// # Errors
    ///
    /// * [`StudyError::Config`] for a degenerate grid or a machine the
    ///   simulator cannot run,
    /// * [`StudyError::Io`] when the listener fails or the store cannot
    ///   persist a verified cell.
    pub fn serve(&self, listener: &TcpListener) -> Result<SweepReport, StudyError> {
        let quiet = |_: &str| {};
        let mut sweep = Sweep::new(&self.config, Some(&self.store), self.lease_ms, &quiet)?;
        let total = sweep.plan.cells.len();
        let mut serve_sp = span("serve");
        serve_sp.record("cells", total as u64);
        sweep.max_inflight = self.max_inflight;
        if let Some(path) = &self.progress_log {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            sweep.log = Some(Box::new(JsonlSink::to_writer(Box::new(file))));
        }

        // Store hits never go on the wire.
        let store_hits = sweep.serve_stored(self.refresh);
        event!(
            to sweep.log.as_deref();
            Level::Info,
            "study.sched",
            {
                cells: total,
                store_hits: store_hits,
                lease_ms: self.lease_ms,
                max_inflight: self.max_inflight
            },
            "serving {total} cells ({store_hits} already in store) at {}",
            listener
                .local_addr()
                .map_or_else(|_| "<unknown>".to_string(), |a| a.to_string())
        );

        if !sweep.settled() {
            let local = listener.local_addr()?;
            let done_flag = AtomicBool::new(false);
            let mut accept_error: Option<std::io::Error> = None;
            std::thread::scope(|scope| {
                let mut conn_id = 0usize;
                loop {
                    if done_flag.load(Ordering::Acquire) {
                        break;
                    }
                    let stream = match listener.accept() {
                        Ok((stream, _)) => stream,
                        Err(e) => {
                            accept_error = Some(e);
                            done_flag.store(true, Ordering::Release);
                            break;
                        }
                    };
                    if done_flag.load(Ordering::Acquire) {
                        break; // the completion wake-up self-connection
                    }
                    conn_id += 1;
                    let ctx = ConnCtx {
                        coordinator: self,
                        sweep: &sweep,
                        done_flag: &done_flag,
                        local,
                        conn_id,
                    };
                    scope.spawn(move || ctx.handle(stream));
                }
            });
            if let Some(e) = accept_error {
                sweep.fail(StudyError::Io(e));
            }
        }
        sweep.finish()
    }
}

/// Everything one connection handler needs, bundled so the accept loop
/// can move a single value into the handler thread.
struct ConnCtx<'a> {
    coordinator: &'a Coordinator,
    sweep: &'a Sweep<'a>,
    done_flag: &'a AtomicBool,
    local: SocketAddr,
    conn_id: usize,
}

impl ConnCtx<'_> {
    /// Drives one worker connection to completion. Any transport error —
    /// EOF, timeout, garbage — releases the worker's leases and closes
    /// the connection; the study is unharmed because its cells return to
    /// `Pending`.
    fn handle(&self, mut stream: TcpStream) {
        // Every reply is one small frame the worker blocks on: send it
        // now rather than hold it for the ACK of the previous segment.
        let _ = stream.set_nodelay(true);
        // A peer that holds leases but goes silent for two lease periods
        // is dead; its cells are reclaimable anyway, so stop waiting.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(
            self.coordinator.lease_ms.saturating_mul(2).max(1_000),
        )));
        let Some(worker) = self.hello(&mut stream) else {
            return;
        };
        loop {
            let request: Request = match wire::read_frame(&mut stream) {
                Ok(request) => request,
                Err(e) => {
                    self.sweep.release(&worker, &e.to_string());
                    return;
                }
            };
            let bye = matches!(request, Request::Bye);
            let mut response = self.sweep.answer(&worker, request);
            if matches!(response, Response::Wait { .. }) {
                // A Lease with nothing grantable: answer it when the board
                // changes, so the worker blocks on the reply, not a sleep.
                response = self.sweep.hold();
            }
            if self.sweep.settled() && !self.done_flag.swap(true, Ordering::AcqRel) {
                // The accept loop blocks in `accept`; a throwaway
                // connection makes it re-check the done flag.
                let _ = TcpStream::connect(self.local);
            }
            let written = wire::write_frame(&mut stream, &response);
            if bye {
                return;
            }
            if written.is_err() {
                self.sweep.release(&worker, "write failed");
                return;
            }
        }
    }

    /// Performs the version handshake; returns the connection-unique
    /// worker name. The `Hello` is read under the 64 KiB cap, not
    /// `MAX_FRAME`: whoever connects is unknown until it has been
    /// welcomed, and each connection has a thread of its own.
    fn hello(&self, stream: &mut TcpStream) -> Option<String> {
        let request: Request = wire::read_frame_within(stream, wire::READ_CAP).ok()?;
        let reason = match request {
            Request::Hello { version, .. } if version != PROTOCOL_VERSION => format!(
                "protocol version mismatch: coordinator {PROTOCOL_VERSION}, worker {version}"
            ),
            Request::Hello { worker, .. } => {
                // Two workers may introduce themselves identically; the
                // connection id keeps lease accounting per-connection.
                let worker = format!("{worker}#{}", self.conn_id);
                event!(
                    to self.sweep.log.as_deref();
                    Level::Info,
                    "study.sched",
                    { event: "connected", worker: worker.as_str() },
                    "worker {worker} connected"
                );
                let welcome = Response::Welcome {
                    version: PROTOCOL_VERSION,
                    config: self.coordinator.config.clone(),
                    cells: self.sweep.plan.cells.len(),
                };
                wire::write_frame(stream, &welcome).ok()?;
                return Some(worker);
            }
            _ => "expected Hello".to_string(),
        };
        let _ = wire::write_frame(stream, &Response::Reject { reason });
        None
    }
}
