//! The cell-worker loop, and its remote face [`run_worker`].
//!
//! A worker is stateless and owns nothing: it loops lease → compile
//! (once per compile unit) → [`run_cell`] → submit until the board says
//! `Done`. The same loop serves both drivers; only its [`Link`] to the
//! board differs. A remote worker connects, learns the full
//! [`StudyConfig`] from the coordinator's `Welcome`, and speaks frames
//! over TCP; the in-process workers of [`crate::Orchestrator`] call the
//! board directly. All persistence happens on the board's side; a remote
//! worker that dies mid-lease loses only wall-clock time, never data,
//! because its cells are released on disconnect or re-leased after the
//! deadline.

use super::wire::{self, LeaseGrant, Request, Response, PROTOCOL_VERSION};
use crate::sched::{run_cell, CompileTable, Plan};
use crate::study::{StudyConfig, StudyError};
use softerr_cc::Compiler;
use softerr_telemetry::{event, span, Level};
use std::net::TcpStream;
use std::time::Duration;

/// Tuning and test knobs for [`run_worker`].
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Display name reported in the coordinator's telemetry (the
    /// coordinator appends a connection id to keep it unique).
    pub name: String,
    /// Cells requested per `Lease` round trip; the coordinator may grant
    /// fewer (its per-worker in-flight cap is the real backpressure).
    pub capacity: usize,
    /// Stop after completing this many cells (`None` = run to `Done`).
    pub max_cells: Option<usize>,
    /// Test hook simulating a worker crash: after this many cells have
    /// been *leased*, drop the connection without completing or
    /// returning them, leaving the coordinator to re-lease after the
    /// deadline.
    pub abandon_after: Option<usize>,
}

impl Default for WorkerOptions {
    fn default() -> WorkerOptions {
        WorkerOptions {
            name: "worker".to_string(),
            capacity: 1,
            max_cells: None,
            abandon_after: None,
        }
    }
}

/// What one [`run_worker`] invocation did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerReport {
    /// Cells executed and accepted by the coordinator.
    pub completed: usize,
    /// Submissions the coordinator rejected.
    pub rejected: usize,
    /// True when the worker dropped the connection via
    /// [`WorkerOptions::abandon_after`].
    pub abandoned: bool,
}

/// How a worker reaches the lease board: one request, one response.
pub(crate) trait Link {
    fn call(&mut self, request: Request) -> Result<Response, StudyError>;
}

impl Link for TcpStream {
    fn call(&mut self, request: Request) -> Result<Response, StudyError> {
        wire::write_frame(self, &request)?;
        Ok(wire::read_frame(self)?)
    }
}

/// Connects to a coordinator at `addr` (e.g. `127.0.0.1:7077`) and
/// executes leased cells until the study completes (or an option says to
/// stop earlier).
///
/// # Errors
///
/// * [`StudyError::Config`] when the coordinator rejects the handshake,
///   answers out of protocol, or serves a config this build cannot
///   execute (invalid grid or machine, a grant outside the plan, hash
///   disagreement — a worker double-checks every grant's hash against its
///   own [`crate::cell_config_hash`]),
/// * [`StudyError::Compile`] / [`StudyError::Golden`] when a cell's
///   program is broken,
/// * [`StudyError::Io`] for transport failures.
pub fn run_worker(addr: &str, opts: &WorkerOptions) -> Result<WorkerReport, StudyError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let config = hello(&mut stream, &opts.name)?;
    config.validate().map_err(StudyError::Config)?;
    let plan = Plan::new(&config);
    let report = work(&mut stream, &config, &plan, &plan.compile_table(), opts)?;
    if report.abandoned {
        return Ok(report);
    }
    wire::write_frame(&mut stream, &Request::Bye)?;
    // The acknowledgement is best-effort: a coordinator tearing down
    // right after the final cell may already be gone.
    let _ = wire::read_frame::<Response>(&mut stream);
    event!(
        Level::Info,
        "study.sched",
        { worker: opts.name.clone(), completed: report.completed, rejected: report.rejected },
        "worker {} done: {} cell(s) completed, {} rejected",
        opts.name,
        report.completed,
        report.rejected
    );
    Ok(report)
}

/// Handshake: `Hello` out, `Welcome` (with the study config) back.
fn hello(stream: &mut TcpStream, name: &str) -> Result<StudyConfig, StudyError> {
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
        worker: name.to_string(),
    };
    match stream.call(hello)? {
        Response::Welcome {
            version,
            config,
            cells,
        } => {
            if version != PROTOCOL_VERSION {
                return Err(StudyError::Config(format!(
                    "coordinator speaks protocol v{version}, this worker v{PROTOCOL_VERSION}"
                )));
            }
            event!(
                Level::Info,
                "study.sched",
                { worker: name.to_string(), cells: cells },
                "worker {name} joined a {cells}-cell study"
            );
            Ok(config)
        }
        Response::Reject { reason } => Err(StudyError::Config(format!(
            "coordinator rejected the handshake: {reason}"
        ))),
        other => Err(StudyError::Config(format!(
            "coordinator answered Hello with {other:?}"
        ))),
    }
}

/// The one cell-worker loop: leases cells over `link` and executes each
/// until the board answers `Done` or an option says to stop. `plan` and
/// `units` are this worker's view of `config`; in-process workers share
/// one compile table.
pub(crate) fn work(
    link: &mut impl Link,
    config: &StudyConfig,
    plan: &Plan,
    units: &CompileTable,
    opts: &WorkerOptions,
) -> Result<WorkerReport, StudyError> {
    let mut report = WorkerReport {
        completed: 0,
        rejected: 0,
        abandoned: false,
    };
    let mut leased_total = 0usize;
    loop {
        if opts.max_cells.is_some_and(|max| report.completed >= max) {
            break;
        }
        let want = opts.capacity.max(1);
        match link.call(Request::Lease { want })? {
            Response::Leases { grants } => {
                for grant in grants {
                    leased_total += 1;
                    if opts.abandon_after.is_some_and(|after| leased_total > after) {
                        // Simulated crash: vanish with the lease.
                        report.abandoned = true;
                        event!(
                            Level::Warn,
                            "study.sched",
                            { worker: opts.name.clone(), leased: leased_total },
                            "worker {} abandoning after {} lease(s) (test hook)",
                            opts.name,
                            leased_total - 1
                        );
                        return Ok(report);
                    }
                    execute_grant(link, config, plan, units, grant, &mut report)?;
                }
            }
            // `ms: 0` is "ask again now": the coordinator held this
            // Lease until the board changed.
            Response::Wait { ms } => {
                std::thread::sleep(Duration::from_millis(ms.min(2_000)));
            }
            Response::Done => break,
            other => {
                return Err(StudyError::Config(format!(
                    "coordinator answered Lease with {other:?}"
                )))
            }
        }
    }
    Ok(report)
}

/// Executes one granted cell and submits the result.
fn execute_grant(
    link: &mut impl Link,
    config: &StudyConfig,
    plan: &Plan,
    units: &CompileTable,
    grant: LeaseGrant,
    report: &mut WorkerReport,
) -> Result<(), StudyError> {
    let LeaseGrant {
        lease, key, hash, ..
    } = grant;
    // Defend against a confused (or hostile) coordinator: the grant must
    // name a planned cell under the hash this build derives for it, or
    // the executed cell would be stored under a key it does not answer to.
    let cell = plan.cells.iter().find(|c| c.key == key).ok_or_else(|| {
        StudyError::Config(format!(
            "grant names {key}, which is not a cell of the served config"
        ))
    })?;
    if cell.hash != hash {
        return Err(StudyError::Config(format!(
            "lease hash {hash} disagrees with locally derived {} for {key} \
             (version or config skew between worker and coordinator)",
            cell.hash
        )));
    }
    let machine = &config.machines[cell.machine];
    let mut cell_sp = span("cell");
    cell_sp.record("machine", key.machine.clone());
    cell_sp.record("workload", key.workload.to_string());
    cell_sp.record("level", key.level.to_string());
    cell_sp.record("hit", false);
    let compiled = {
        // Also covers waiting on another worker's in-flight compile of
        // the same unit.
        let _sp = span("cell.compile");
        units[cell.unit].get_or_init(|| {
            Compiler::new(machine.profile, key.level)
                .compile(&key.workload.source(config.scale))
                .map_err(|e| format!("{} at {}: {e}", key.workload, key.level))
        })
    };
    let compiled = compiled
        .as_ref()
        .map_err(|e| StudyError::Compile(e.clone()))?;
    let mut exec_sp = span("cell.execute");
    let result = run_cell(config, machine, compiled).map_err(|e| {
        StudyError::Golden(format!(
            "{} at {} on {}: {e}",
            key.workload, key.level, key.machine
        ))
    })?;
    exec_sp.record("campaigns", config.structures.len() as u64);
    drop(exec_sp);
    let cell_name = key.to_string();
    match link.call(Request::Submit {
        lease,
        hash,
        key,
        result,
    })? {
        Response::Accepted { .. } => report.completed += 1,
        Response::Rejected { reason, .. } => {
            report.rejected += 1;
            event!(
                Level::Warn,
                "study.sched",
                { cell: cell_name.clone(), reason: reason.clone() },
                "coordinator rejected {cell_name}: {reason}"
            );
        }
        other => {
            return Err(StudyError::Config(format!(
                "coordinator answered Submit with {other:?}"
            )))
        }
    }
    Ok(())
}
