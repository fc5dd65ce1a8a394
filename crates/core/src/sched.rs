//! The cell scheduler.
//!
//! A study is a grid of independent **cells** — one (machine, workload,
//! level) coordinate, each owning a compile, a fault-free golden run, and
//! one campaign per structure. A `Sweep` plans that grid once (`Plan`:
//! keys and content hashes, in `machines × workloads × levels` order),
//! serves every cell the optional content-addressed [`ResultStore`]
//! already holds, and leases the rest to cell workers through one
//! `LeaseBoard`. Every worker runs the same loop
//! (lease → compile → [`run_cell`] → submit); only the link to the board
//! differs:
//!
//! * [`Orchestrator::execute`] runs in-process workers that call the board
//!   directly — cell-level parallelism layered *on top of* the
//!   intra-campaign `threads` of [`CampaignConfig`];
//! * [`crate::Coordinator::serve`] answers remote workers' TCP frames with
//!   the same calls (see [`crate::serve`]).
//!
//! Completed cells are persisted to the store before they are reported,
//! making re-runs incremental (only missing or invalidated cells execute)
//! and killed studies resumable.
//!
//! **Determinism:** every driver is bit-identical to a serial run. Each
//! cell's campaigns derive their RNG streams from `(seed, structure)`
//! alone and share nothing with other cells, and results land in
//! plan-order slots regardless of completion order.
//! `tests/sched_equivalence.rs` and `tests/serve_equivalence.rs` assert
//! this rather than assuming it.

use crate::serve::{work, LeaseGrant, Link, Request, Response, WorkerOptions};
use crate::store::{cell_config_hash, ResultStore};
use crate::study::{CellKey, CellResult, StudyConfig, StudyError, StudyResults};
use softerr_cc::Compiled;
use softerr_inject::{CampaignConfig, CampaignResult, Injector};
use softerr_sim::MachineConfig;
use softerr_telemetry::{event, span, Level, Sink};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// The longest a remote `Lease` with nothing grantable is held
/// ([`Sweep::hold`]) before it is answered `Wait { ms: 0 }`; also the
/// retry delay in the `Wait` that [`Sweep::answer`] returns for such a
/// `Lease`, which the coordinator holds instead of sending.
const WAIT_MS: u64 = 100;

/// Runs one cell of `cfg` — golden run plus one campaign per structure —
/// on an already-compiled program. This is the single execution path every
/// cell worker shares, in process or remote, so the distributed study is
/// bit-identical to a serial one by construction (the equivalence tests
/// assert it anyway).
///
/// # Errors
///
/// The golden-run failure message when the fault-free execution does not
/// halt cleanly.
pub(crate) fn run_cell(
    cfg: &StudyConfig,
    machine: &MachineConfig,
    compiled: &Compiled,
) -> Result<CellResult, String> {
    // One golden run, recording liveness too when the plan reads it.
    let injector =
        Injector::for_plan(machine, &compiled.program, &cfg.plan).map_err(|e| e.to_string())?;
    let campaign_cfg = CampaignConfig {
        plan: cfg.plan,
        seed: cfg.seed,
        threads: cfg.threads,
        checkpoint: cfg.checkpoint,
    };
    // One golden convoy classifies every structure's faults.
    let campaigns: Vec<CampaignResult> = injector
        .run_all(&cfg.structures, &campaign_cfg)
        .execute_all()
        .into_iter()
        .map(|out| out.result)
        .collect();
    let golden = injector.golden();
    Ok(CellResult {
        golden_cycles: golden.cycles,
        golden_retired: golden.retired,
        code_words: compiled.stats.code_words as u64,
        campaigns,
    })
}

/// One planned cell: its grid coordinate and the content hash it is
/// stored under.
pub(crate) struct PlannedCell {
    pub(crate) key: CellKey,
    pub(crate) hash: String,
    /// Index into the study's machines.
    pub(crate) machine: usize,
}

/// The study grid in plan (= result) order, `machines × workloads ×
/// levels`: the one place that order is written down.
pub(crate) struct Plan {
    pub(crate) cells: Vec<PlannedCell>,
}

impl Plan {
    pub(crate) fn new(cfg: &StudyConfig) -> Plan {
        let mut cells = Vec::new();
        for (m, machine) in cfg.machines.iter().enumerate() {
            for &workload in &cfg.workloads {
                for &level in &cfg.levels {
                    cells.push(PlannedCell {
                        key: CellKey {
                            machine: machine.name.clone(),
                            workload,
                            level,
                        },
                        hash: cell_config_hash(cfg, machine, workload, level),
                        machine: m,
                    });
                }
            }
        }
        Plan { cells }
    }
}

/// Per-cell scheduling state. See DESIGN.md §15 for the transitions.
#[derive(Debug, Clone, PartialEq)]
enum CellState {
    /// Not yet granted to anyone (or reclaimed from a lost lease).
    Pending,
    /// Granted; past `deadline_ms` the cell is reclaimable.
    Leased {
        lease: u64,
        worker: String,
        deadline_ms: u64,
    },
    /// Verified, persisted, terminal.
    Done,
}

/// What a `Submit` did to the board.
#[derive(Debug, PartialEq, Eq)]
enum SubmitVerdict {
    /// First completion of the cell: persist and report it.
    Accept,
    /// The cell was already completed (store hit, or another worker beat
    /// this one after its lease expired). Acknowledge, discard payload.
    AlreadyDone,
}

/// The scheduler's state: lease bookkeeping over the planned cells plus
/// the plan-order results, the execution budget and the first failure.
/// Time is a parameter (`now_ms`, milliseconds since the sweep started)
/// rather than read from a wall clock, so expiry and re-lease logic is
/// unit-testable without sleeping.
#[derive(Debug)]
struct LeaseBoard {
    states: Vec<CellState>,
    /// Results of the `Done` cells, in plan order.
    slots: Vec<Option<CellResult>>,
    /// Lease lifetime; `u64::MAX` for leases that never expire.
    lease_ms: u64,
    next_lease: u64,
    done: usize,
    /// Cells accepted from workers (store hits excluded).
    executed: usize,
    /// Submissions refused by verification.
    rejected: usize,
    /// At most this many cells are executed ([`Orchestrator::cell_budget`]).
    budget: Option<usize>,
    /// The sweep's first failure: once set, nothing more is granted.
    error: Option<StudyError>,
}

impl LeaseBoard {
    fn new(cells: usize, lease_ms: u64) -> LeaseBoard {
        LeaseBoard {
            states: vec![CellState::Pending; cells],
            slots: (0..cells).map(|_| None).collect(),
            lease_ms,
            next_lease: 0,
            done: 0,
            executed: 0,
            rejected: 0,
            budget: None,
            error: None,
        }
    }

    /// Marks a cell complete outside the lease flow (store-served).
    fn mark_done(&mut self, idx: usize) {
        if self.states[idx] != CellState::Done {
            self.states[idx] = CellState::Done;
            self.done += 1;
        }
    }

    /// Returns expired leases to `Pending`. Called before every grant, so
    /// a dead worker's cells become grantable the next time any live
    /// worker asks for work.
    fn reclaim_expired(&mut self, now_ms: u64) {
        for state in &mut self.states {
            if let CellState::Leased { deadline_ms, .. } = state {
                if *deadline_ms <= now_ms {
                    *state = CellState::Pending;
                }
            }
        }
    }

    /// Cells currently leased to `worker` (the backpressure measure).
    fn inflight(&self, worker: &str) -> usize {
        self.states
            .iter()
            .filter(|s| matches!(s, CellState::Leased { worker: w, .. } if w == worker))
            .count()
    }

    /// Grants up to `want` pending cells (plan order) to `worker`,
    /// reclaiming expired leases first and never letting executed plus
    /// leased cells exceed the budget. Returns `(cell index, lease id,
    /// deadline)` triples.
    fn grant(&mut self, worker: &str, want: usize, now_ms: u64) -> Vec<(usize, u64, u64)> {
        self.reclaim_expired(now_ms);
        let mut want = want;
        if let Some(budget) = self.budget {
            let leased = self
                .states
                .iter()
                .filter(|s| matches!(s, CellState::Leased { .. }))
                .count();
            want = want.min(budget.saturating_sub(self.executed + leased));
        }
        let deadline_ms = now_ms.saturating_add(self.lease_ms);
        let mut grants = Vec::new();
        for (idx, state) in self.states.iter_mut().enumerate() {
            if grants.len() >= want {
                break;
            }
            if *state == CellState::Pending {
                let lease = self.next_lease;
                self.next_lease += 1;
                *state = CellState::Leased {
                    lease,
                    worker: worker.to_string(),
                    deadline_ms,
                };
                grants.push((idx, lease, deadline_ms));
            }
        }
        grants
    }

    /// Applies a (hash-verified) submission for cell `idx`. The lease id
    /// is not required to still be current: the payload is addressed by a
    /// content hash the scheduler computed itself, so a submission from
    /// an expired-and-re-granted lease is just the same deterministic
    /// result arriving from a different worker.
    fn submit(&mut self, idx: usize) -> SubmitVerdict {
        match self.states[idx] {
            CellState::Done => SubmitVerdict::AlreadyDone,
            CellState::Pending | CellState::Leased { .. } => {
                self.states[idx] = CellState::Done;
                self.done += 1;
                self.executed += 1;
                SubmitVerdict::Accept
            }
        }
    }

    /// Returns a disconnected worker's leases to `Pending` immediately,
    /// without waiting for their deadlines.
    fn release_worker(&mut self, worker: &str) -> usize {
        let mut released = 0;
        for state in &mut self.states {
            if matches!(state, CellState::Leased { worker: w, .. } if w == worker) {
                *state = CellState::Pending;
                released += 1;
            }
        }
        released
    }

    fn all_done(&self) -> bool {
        self.done == self.states.len()
    }

    /// Every cell done, or a failure recorded.
    fn settled(&self) -> bool {
        self.all_done() || self.error.is_some()
    }
}

/// One run of a study through the board, with everything both drivers do
/// around it: the store-hit pass, the answers to workers' requests (the
/// accept path verifies, saves, fills the slot and reports progress), and
/// the [`SweepReport`].
///
/// Each scheduler fact is one `study.sched` event, also handed to `log`
/// when there is one, with its kind in the `event` field: `store`,
/// `leased`, `completed`, `rejected` and `disconnected` here, `connected`
/// in the coordinator.
pub(crate) struct Sweep<'a> {
    config: &'a StudyConfig,
    pub(crate) plan: Plan,
    store: Option<&'a ResultStore>,
    board: Mutex<LeaseBoard>,
    /// Notified on every board change a held `Lease` may be waiting for:
    /// a submission accepted or rolled back, a release, a failure.
    changed: Condvar,
    /// Cells one worker may hold at once.
    pub(crate) max_inflight: usize,
    progress: &'a (dyn Fn(&str) + Sync),
    /// Receives every scheduler event whatever the process-wide level
    /// ([`crate::Coordinator::progress_log`]).
    pub(crate) log: Option<Box<dyn Sink>>,
    t0: Instant,
}

impl<'a> Sweep<'a> {
    /// Validates and plans `config`; leases last `lease_ms`.
    pub(crate) fn new(
        config: &'a StudyConfig,
        store: Option<&'a ResultStore>,
        lease_ms: u64,
        progress: &'a (dyn Fn(&str) + Sync),
    ) -> Result<Sweep<'a>, StudyError> {
        config.validate().map_err(StudyError::Config)?;
        let t0 = Instant::now();
        let mut plan_sp = span("sched.plan");
        let plan = Plan::new(config);
        plan_sp.record("cells", plan.cells.len() as u64);
        drop(plan_sp);
        Ok(Sweep {
            config,
            board: Mutex::new(LeaseBoard::new(plan.cells.len(), lease_ms)),
            changed: Condvar::new(),
            plan,
            store,
            max_inflight: usize::MAX,
            progress,
            log: None,
            t0,
        })
    }

    /// The store-hit pass: looks every cell up once (unless `refresh`)
    /// and completes the ones the store holds, so they never reach a
    /// worker. Returns the number served.
    pub(crate) fn serve_stored(&mut self, refresh: bool) -> usize {
        let Some(store) = self.store.filter(|_| !refresh) else {
            return 0;
        };
        let board = self.board.get_mut().expect("lease board");
        let total = self.plan.cells.len();
        for (idx, cell) in self.plan.cells.iter().enumerate() {
            let key = &cell.key;
            let mut cell_sp = span("cell");
            let found = {
                let _sp = span("cell.lookup");
                store.load(&cell.hash, key)
            };
            let Some(result) = found else {
                // A worker opens this cell's span when it executes it.
                cell_sp.discard();
                continue;
            };
            cell_sp.record("machine", key.machine.clone());
            cell_sp.record("workload", key.workload.to_string());
            cell_sp.record("level", key.level.to_string());
            cell_sp.record("hit", true);
            board.mark_done(idx);
            board.slots[idx] = Some(result);
            let d = board.done;
            event!(
                to self.log.as_deref();
                Level::Info,
                "study.sched",
                {
                    event: "store",
                    cell: key.to_string(),
                    done: d,
                    total: total,
                    hash: cell.hash.as_str()
                },
                "[{d}/{total}] {key} served from result store"
            );
            (self.progress)(&format!("[{d}/{total}] {key} (store)"));
        }
        board.done
    }

    /// Whether the sweep is over: every cell done, or a failure recorded.
    pub(crate) fn settled(&self) -> bool {
        self.board.lock().expect("lease board").settled()
    }

    /// Records a failure; the first one wins and stops all granting.
    pub(crate) fn fail(&self, error: StudyError) {
        let mut board = self.board.lock().expect("lease board");
        board.error.get_or_insert(error);
        self.changed.notify_all();
    }

    /// Answers one request from `worker`, whatever link carried it.
    pub(crate) fn answer(&self, worker: &str, request: Request) -> Response {
        match request {
            Request::Lease { want } => self.lease(worker, want),
            Request::Submit {
                lease,
                hash,
                key,
                result,
            } => self.submit(worker, lease, &hash, key, result),
            Request::Hello { .. } => Response::Reject {
                reason: "already greeted".to_string(),
            },
            Request::Bye => {
                self.release(worker, "bye");
                Response::Bye
            }
        }
    }

    /// Holds a remote `Lease` that [`Sweep::answer`] found nothing
    /// grantable for until the board changes (a submission accepted or
    /// rolled back, a release, a failure) or [`WAIT_MS`] pass; answers
    /// `Done` if the sweep has settled by then, else `Wait { ms: 0 }` (ask
    /// again now).
    ///
    /// A hold never grants: the next `Lease` decides, so a cell goes only
    /// to a peer still asking for it, and one that vanished without a FIN
    /// while its `Lease` was held is never handed a cell. A worker at its
    /// `max_inflight` cap is held again by that `Lease`, so it costs at
    /// most one round trip per board change and cannot spin on
    /// `Wait { ms: 0 }`.
    pub(crate) fn hold(&self) -> Response {
        let board = self.board.lock().expect("lease board");
        if board.settled() {
            return Response::Done;
        }
        let (board, _) = self
            .changed
            .wait_timeout(board, Duration::from_millis(WAIT_MS))
            .expect("lease board");
        if board.settled() {
            Response::Done
        } else {
            Response::Wait { ms: 0 }
        }
    }

    fn lease(&self, worker: &str, want: usize) -> Response {
        let granted = {
            let mut board = self.board.lock().expect("lease board");
            if board.settled() {
                return Response::Done;
            }
            let headroom = self.max_inflight.saturating_sub(board.inflight(worker));
            let now_ms = self.t0.elapsed().as_millis() as u64;
            board.grant(worker, want.min(headroom), now_ms)
        };
        if granted.is_empty() {
            return Response::Wait { ms: WAIT_MS };
        }
        let grants = granted
            .into_iter()
            .map(|(idx, lease, deadline_ms)| {
                let cell = &self.plan.cells[idx];
                event!(
                    to self.log.as_deref();
                    Level::Debug,
                    "study.sched",
                    {
                        event: "leased",
                        cell: cell.key.to_string(),
                        lease: lease,
                        worker: worker,
                        deadline_ms: deadline_ms
                    },
                    "leased {} to {worker} (lease {lease}, deadline {deadline_ms} ms)",
                    cell.key
                );
                LeaseGrant {
                    lease,
                    key: cell.key.clone(),
                    hash: cell.hash.clone(),
                    deadline_ms,
                }
            })
            .collect();
        Response::Leases { grants }
    }

    /// Checks a submission against the plan: the hash is the load-bearing
    /// check, since it must equal a scheduler-computed cell hash, so a
    /// worker can neither invent coordinates nor relabel one cell's result
    /// as another's. Returns the cell index.
    fn verify(&self, hash: &str, key: &CellKey, result: &CellResult) -> Result<usize, String> {
        let idx = self
            .plan
            .cells
            .iter()
            .position(|c| c.hash == hash)
            .ok_or_else(|| format!("hash {hash} is not a cell of this study"))?;
        let planned = &self.plan.cells[idx].key;
        if planned != key {
            return Err(format!(
                "key mismatch: hash {hash} plans {planned}, submission claims {key}"
            ));
        }
        let structures: Vec<_> = result.campaigns.iter().map(|c| c.structure).collect();
        if structures != self.config.structures {
            return Err(format!(
                "campaign structure list {structures:?} does not match the study"
            ));
        }
        Ok(idx)
    }

    /// The accept path: verify, persist, fill the slot, report.
    fn submit(
        &self,
        worker: &str,
        lease: u64,
        hash: &str,
        key: CellKey,
        result: CellResult,
    ) -> Response {
        let idx = match self.verify(hash, &key, &result) {
            Ok(idx) => idx,
            Err(reason) => {
                self.board.lock().expect("lease board").rejected += 1;
                return self.reject(worker, lease, reason);
            }
        };
        let mut board = self.board.lock().expect("lease board");
        if board.submit(idx) == SubmitVerdict::AlreadyDone {
            // A lost lease finished late; same deterministic bytes,
            // nothing to do.
            return Response::Accepted { lease };
        }
        // The cell is done, or its rollback below records a failure; either
        // may settle the sweep for a held `Lease` once the lock is dropped.
        self.changed.notify_all();
        // Persist before acknowledging, so a kill after the ack never
        // loses an accepted cell.
        if let Some(store) = self.store {
            let _sp = span("cell.store");
            if let Err(e) = store.save(hash, &key, &result) {
                board.states[idx] = CellState::Pending;
                board.done -= 1;
                board.executed -= 1;
                board.error.get_or_insert(e);
                drop(board);
                return self.reject(
                    worker,
                    lease,
                    "the result store failed to persist the cell".to_string(),
                );
            }
        }
        board.slots[idx] = Some(result);
        let d = board.done;
        drop(board);
        let total = self.plan.cells.len();
        let elapsed = self.t0.elapsed().as_secs_f64();
        let eta = elapsed / d as f64 * (total - d) as f64;
        event!(
            to self.log.as_deref();
            Level::Info,
            "study.sched",
            {
                event: "completed",
                cell: key.to_string(),
                lease: lease,
                worker: worker,
                done: d,
                total: total,
                elapsed_s: elapsed,
                eta_s: eta
            },
            "[{d}/{total}] {key} done by {worker} ({elapsed:.1}s elapsed, ETA {eta:.0}s)"
        );
        (self.progress)(&format!("[{d}/{total}] {key}"));
        Response::Accepted { lease }
    }

    fn reject(&self, worker: &str, lease: u64, reason: String) -> Response {
        event!(
            to self.log.as_deref();
            Level::Warn,
            "study.sched",
            { event: "rejected", worker: worker, lease: lease, reason: reason.as_str() },
            "rejected submission from {worker}: {reason}"
        );
        Response::Rejected { lease, reason }
    }

    /// Returns a departed worker's leases to the pool at once (a warning
    /// when it held any).
    pub(crate) fn release(&self, worker: &str, why: &str) {
        let released = self
            .board
            .lock()
            .expect("lease board")
            .release_worker(worker);
        self.changed.notify_all();
        event!(
            to self.log.as_deref();
            if released > 0 { Level::Warn } else { Level::Info },
            "study.sched",
            { event: "disconnected", worker: worker, released: released, why: why },
            "worker {worker} disconnected ({why}); {released} leased cell(s) returned to the pool"
        );
    }

    /// Assembles the report once no worker is left: the first failure if
    /// any, [`StudyError::Incomplete`] if the budget left cells pending,
    /// else the plan-order results.
    pub(crate) fn finish(self) -> Result<SweepReport, StudyError> {
        let board = self.board.into_inner().expect("lease board");
        if let Some(error) = board.error {
            return Err(error);
        }
        let total = self.plan.cells.len();
        let (executed, completed) = (board.executed, board.done);
        if !board.all_done() {
            event!(
                to self.log.as_deref();
                Level::Info,
                "study.sched",
                { completed: completed, total: total, executed: executed },
                "cell budget reached: {completed}/{total} cells persisted; re-run to resume"
            );
            return Err(StudyError::Incomplete { completed, total });
        }
        let store_hits = completed - executed;
        let results = StudyResults {
            config: self.config.clone(),
            cells: self
                .plan
                .cells
                .into_iter()
                .zip(board.slots)
                .map(|(cell, slot)| (cell.key, slot.expect("every cell completed")))
                .collect(),
        };
        let seconds = self.t0.elapsed().as_secs_f64();
        let (store_misses, store_writes) = self.store.map_or((0, 0), |s| (s.misses(), s.stores()));
        if let Some(store) = self.store {
            event!(
                to self.log.as_deref();
                Level::Info,
                "study.store",
                { hits: store.hits(), misses: store_misses, stores: store_writes },
                "result store: {} hit(s), {store_misses} miss(es), {store_writes} write(s)",
                store.hits()
            );
        }
        if executed == 0 && store_hits == total {
            event!(
                to self.log.as_deref();
                Level::Info,
                "study.sched",
                { cells: total, seconds: seconds },
                "all {total} cells served from result store (0 campaigns executed)"
            );
        } else {
            event!(
                to self.log.as_deref();
                Level::Info,
                "study.sched",
                {
                    executed: executed,
                    store_hits: store_hits,
                    rejected: board.rejected,
                    seconds: seconds
                },
                "study complete: {executed} cell(s) executed, {store_hits} served \
                 from store in {seconds:.1}s"
            );
        }
        Ok(SweepReport {
            results,
            executed,
            store_hits,
            store_misses,
            store_writes,
            cells: total,
            seconds,
        })
    }
}

/// An in-process worker's link to the board: direct calls.
struct Direct<'s, 'a> {
    sweep: &'s Sweep<'a>,
    name: &'s str,
}

impl Link for Direct<'_, '_> {
    fn call(&mut self, request: Request) -> Result<Response, StudyError> {
        Ok(match self.sweep.answer(self.name, request) {
            // In-process leases never expire and are never released, so
            // nothing grantable now means nothing more for this worker.
            Response::Wait { .. } => Response::Done,
            response => response,
        })
    }
}

/// What one sweep did, beyond the results ([`Orchestrator::execute`] and
/// [`crate::Coordinator::serve`] report alike).
#[derive(Debug)]
pub struct SweepReport {
    /// The complete study results (identical to a serial [`Orchestrator::run`]).
    pub results: StudyResults,
    /// Cells actually compiled/simulated/injected this invocation.
    pub executed: usize,
    /// Cells served from the result store this invocation.
    pub store_hits: usize,
    /// Store lookups that missed (cell absent, stale, or corrupted).
    pub store_misses: u64,
    /// Cells written back to the result store this invocation.
    pub store_writes: u64,
    /// Total cells in the plan.
    pub cells: usize,
    /// Wall-clock seconds of the sweep.
    pub seconds: f64,
}

/// Plans and executes a study as a pool of parallel cells.
///
/// ```no_run
/// use softerr::{Orchestrator, ResultStore, StudyConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let report = Orchestrator::new(StudyConfig::quick(42))
///     .cell_workers(0) // 0 = one per available core
///     .store(ResultStore::open("target/softerr-store")?)
///     .execute(&|msg| eprintln!("{msg}"))?;
/// println!(
///     "{} cells: {} executed, {} from store",
///     report.cells, report.executed, report.store_hits
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Orchestrator {
    config: StudyConfig,
    cell_workers: usize,
    store: Option<ResultStore>,
    refresh: bool,
    cell_budget: Option<usize>,
}

impl Orchestrator {
    /// An orchestrator for `config`, initially serial (one cell worker),
    /// store-less, and unbudgeted.
    pub fn new(config: StudyConfig) -> Orchestrator {
        Orchestrator {
            config,
            cell_workers: 1,
            store: None,
            refresh: false,
            cell_budget: None,
        }
    }

    /// Sets the number of concurrent cell workers. `0` asks the OS for the
    /// available parallelism. Results are bit-identical for every value.
    pub fn cell_workers(mut self, workers: usize) -> Orchestrator {
        self.cell_workers = if workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            workers
        };
        self
    }

    /// Attaches a content-addressed result store: completed cells persist
    /// there and later invocations are served from it.
    pub fn store(mut self, store: ResultStore) -> Orchestrator {
        self.store = Some(store);
        self
    }

    /// When set, store *reads* are skipped (every cell re-executes) while
    /// completed cells are still written back — `--fresh` semantics.
    pub fn refresh(mut self, refresh: bool) -> Orchestrator {
        self.refresh = refresh;
        self
    }

    /// Caps the number of cells *executed* (store hits are free) in one
    /// invocation. With a store attached this turns a long study into
    /// resumable slices: each invocation completes up to `budget` more
    /// cells and returns [`StudyError::Incomplete`] until the grid is
    /// fully persisted.
    pub fn cell_budget(mut self, budget: usize) -> Orchestrator {
        self.cell_budget = Some(budget);
        self
    }

    /// The configuration this orchestrator runs.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// The attached result store, if any (for hit/miss accounting).
    pub fn result_store(&self) -> Option<&ResultStore> {
        self.store.as_ref()
    }

    /// The cell keys in plan (= result) order.
    pub fn plan(&self) -> Vec<CellKey> {
        Plan::new(&self.config)
            .cells
            .into_iter()
            .map(|cell| cell.key)
            .collect()
    }

    /// Runs the study without a progress callback.
    ///
    /// # Errors
    ///
    /// As for [`Orchestrator::execute`].
    pub fn run(&self) -> Result<StudyResults, StudyError> {
        self.execute(&|_| {}).map(|report| report.results)
    }

    /// Runs the study, reporting each completed cell to `progress` (from
    /// whichever worker finished it; messages keep the serial
    /// `[done/total] machine/workload/level` shape, with ` (store)`
    /// appended for store-served cells). With one cell worker the worker
    /// runs on the calling thread; a sweep the store serves entirely
    /// starts none.
    ///
    /// # Errors
    ///
    /// * [`StudyError::Config`] for an empty grid axis or a machine the
    ///   simulator cannot run,
    /// * [`StudyError::Compile`] / [`StudyError::Golden`] when a cell's
    ///   program is broken,
    /// * [`StudyError::Io`] / [`StudyError::Format`] when the result store
    ///   cannot persist a cell,
    /// * [`StudyError::Incomplete`] when a [`Orchestrator::cell_budget`]
    ///   stopped the sweep before every cell was measured.
    pub fn execute(&self, progress: &(dyn Fn(&str) + Sync)) -> Result<SweepReport, StudyError> {
        // In-process leases never expire: a worker holds its cell until it
        // submits it or the sweep fails.
        let mut sweep = Sweep::new(&self.config, self.store.as_ref(), u64::MAX, progress)?;
        sweep.board.get_mut().expect("lease board").budget = self.cell_budget;
        let served = sweep.serve_stored(self.refresh);
        let total = sweep.plan.cells.len();
        let workers = self.cell_workers.min(total - served);
        event!(
            Level::Info,
            "study.sched",
            {
                cells: total,
                store_hits: served,
                workers: workers,
                injections: self.config.total_injections()
            },
            "planned {total} cells ({served} from the store) on {workers} worker(s) \
             ({} injections total)",
            self.config.total_injections()
        );
        let worker = |i: usize| {
            let opts = WorkerOptions {
                name: format!("cell-worker#{i}"),
                ..WorkerOptions::default()
            };
            let mut link = Direct {
                sweep: &sweep,
                name: &opts.name,
            };
            if let Err(e) = work(&mut link, &self.config, &sweep.plan, &opts) {
                sweep.fail(e);
            }
        };
        match workers {
            0 => {} // the store served every cell
            1 => worker(0),
            _ => std::thread::scope(|scope| {
                for i in 0..workers {
                    let worker = &worker;
                    scope.spawn(move || worker(i));
                }
            }),
        }
        sweep.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softerr_cc::OptLevel;
    use softerr_sim::Structure;
    use softerr_workloads::Workload;

    fn tiny_config() -> StudyConfig {
        StudyConfig {
            workloads: vec![Workload::Qsort],
            levels: vec![OptLevel::O0, OptLevel::O2],
            structures: vec![Structure::RegFile, Structure::RobPc],
            plan: softerr_inject::SamplingPlan::fixed(6),
            seed: 11,
            ..StudyConfig::default()
        }
    }

    #[test]
    fn plan_matches_serial_iteration_order() {
        let orch = Orchestrator::new(tiny_config());
        let keys = orch.plan();
        // 2 machines x 1 workload x 2 levels.
        assert_eq!(keys.len(), 4);
        assert_eq!(keys[0].machine, "Cortex-A15-like");
        assert_eq!(keys[0].level, OptLevel::O0);
        assert_eq!(keys[1].level, OptLevel::O2);
        assert_eq!(keys[2].machine, "Cortex-A72-like");
    }

    #[test]
    fn parallel_cells_match_serial_cells() {
        let cfg = tiny_config();
        let serial = Orchestrator::new(cfg.clone()).run().unwrap();
        let parallel = Orchestrator::new(cfg).cell_workers(4).run().unwrap();
        assert_eq!(serial, parallel, "cell parallelism must be bit-identical");
    }

    #[test]
    fn a_twin_machine_measures_like_the_original() {
        // A renamed copy of the A15 is another grid coordinate of the same
        // machine: its cells must produce identical measurements.
        let mut cfg = tiny_config();
        let mut clone = cfg.machines[0].clone();
        clone.name = "Cortex-A15-twin".into();
        cfg.machines.push(clone);
        let results = Orchestrator::new(cfg).run().unwrap();
        for level in [OptLevel::O0, OptLevel::O2] {
            let a = results.cell("Cortex-A15-like", Workload::Qsort, level);
            let b = results.cell("Cortex-A15-twin", Workload::Qsort, level);
            assert_eq!(a, b, "a twin machine must not change results");
        }
    }

    #[test]
    fn empty_axis_is_a_typed_error() {
        let cfg = StudyConfig {
            workloads: vec![],
            ..tiny_config()
        };
        match Orchestrator::new(cfg).run() {
            Err(StudyError::Config(msg)) => assert!(msg.contains("workload"), "{msg}"),
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn grants_are_plan_ordered_and_capped() {
        let mut board = LeaseBoard::new(5, 1_000);
        let grants = board.grant("w0", 3, 0);
        assert_eq!(
            grants.iter().map(|g| g.0).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(board.inflight("w0"), 3);
        // Distinct lease ids, shared deadline.
        assert_eq!(grants[0].1, 0);
        assert_eq!(grants[1].1, 1);
        assert_eq!(grants[0].2, 1_000);
        // A second worker gets the remainder.
        let grants = board.grant("w1", 10, 5);
        assert_eq!(grants.iter().map(|g| g.0).collect::<Vec<_>>(), vec![3, 4]);
        // Nothing left: an empty grant, not a panic.
        assert!(board.grant("w2", 1, 6).is_empty());
    }

    #[test]
    fn expired_leases_are_regranted_idempotently() {
        let mut board = LeaseBoard::new(2, 100);
        let first = board.grant("dead", 2, 0);
        assert_eq!(first.len(), 2);
        // Before the deadline nothing is reclaimable.
        assert!(board.grant("live", 2, 99).is_empty());
        // At/after the deadline both cells move to the live worker with
        // fresh lease ids.
        let second = board.grant("live", 2, 100);
        assert_eq!(second.len(), 2);
        assert_ne!(first[0].1, second[0].1, "re-grants mint new lease ids");
        assert_eq!(board.inflight("dead"), 0);
        assert_eq!(board.inflight("live"), 2);
        // The dead worker's late submission is still acknowledged once
        // the live worker already finished the cell.
        assert_eq!(board.submit(0), SubmitVerdict::Accept);
        assert_eq!(board.submit(0), SubmitVerdict::AlreadyDone);
        assert_eq!(board.done, 1);
    }

    #[test]
    fn release_worker_returns_cells_immediately() {
        let mut board = LeaseBoard::new(3, 1_000_000);
        board.grant("w0", 2, 0);
        board.grant("w1", 1, 0);
        assert_eq!(board.release_worker("w0"), 2);
        // Long before any deadline, the released cells are grantable.
        let grants = board.grant("w1", 3, 1);
        assert_eq!(grants.len(), 2);
        assert_eq!(board.inflight("w1"), 3);
        assert_eq!(board.release_worker("w0"), 0, "idempotent");
    }

    #[test]
    fn store_served_cells_never_enter_the_lease_pool() {
        let mut board = LeaseBoard::new(3, 1_000);
        board.mark_done(1);
        board.mark_done(1); // idempotent
        assert_eq!(board.done, 1);
        let grants = board.grant("w0", 3, 0);
        assert_eq!(
            grants.iter().map(|g| g.0).collect::<Vec<_>>(),
            vec![0, 2],
            "the store-served cell is skipped"
        );
        assert_eq!(board.submit(0), SubmitVerdict::Accept);
        assert_eq!(board.submit(2), SubmitVerdict::Accept);
        assert!(board.all_done());
    }

    #[test]
    fn the_budget_caps_executed_plus_leased_cells() {
        let mut board = LeaseBoard::new(4, u64::MAX);
        board.budget = Some(2);
        assert_eq!(board.grant("w0", 1, 0).len(), 1);
        assert_eq!(board.grant("w1", 3, 0).len(), 1, "one cell of room left");
        assert!(board.grant("w2", 1, 0).is_empty());
        board.submit(0);
        assert!(
            board.grant("w0", 1, 0).is_empty(),
            "an executed cell still counts against the budget"
        );
        assert_eq!(board.release_worker("w1"), 1);
        assert_eq!(board.grant("w2", 1, 0).len(), 1, "a released cell refunds");
    }

    #[test]
    fn an_in_process_worker_stops_when_nothing_is_pending() {
        let cfg = tiny_config();
        let sweep = Sweep::new(&cfg, None, u64::MAX, &|_| {}).unwrap();
        let mut a = Direct {
            sweep: &sweep,
            name: "a",
        };
        let grants = match a.call(Request::Lease { want: 4 }).unwrap() {
            Response::Leases { grants } => grants,
            other => panic!("expected grants, got {other:?}"),
        };
        assert_eq!(grants.len(), 4);
        // Every cell is leased and none is done: a remote worker is told
        // to wait, an in-process one to stop.
        assert_eq!(
            sweep.answer("b", Request::Lease { want: 1 }),
            Response::Wait { ms: WAIT_MS }
        );
        let mut b = Direct {
            sweep: &sweep,
            name: "b",
        };
        assert_eq!(b.call(Request::Lease { want: 1 }).unwrap(), Response::Done);
        assert!(!sweep.settled(), "the leased cells are still outstanding");
    }

    /// Holds on another thread while `change` runs on this one; returns
    /// the reply and whether it came before `WAIT_MS`. A change that lands
    /// while the hold waits wakes it; one that lands first leaves it to
    /// time out.
    fn hold_across(sweep: &Sweep, change: impl FnOnce()) -> (Response, bool) {
        std::thread::scope(|scope| {
            let held = scope.spawn(|| {
                let t = Instant::now();
                let reply = sweep.hold();
                (reply, t.elapsed() < Duration::from_millis(WAIT_MS))
            });
            std::thread::sleep(Duration::from_millis(20));
            change();
            held.join().expect("holding thread")
        })
    }

    #[test]
    fn a_held_lease_never_grants_and_wakes_on_a_board_change() {
        let cfg = tiny_config();
        let sweep = Sweep::new(&cfg, None, 60_000, &|_| {}).unwrap();
        let lease_all = |worker| match sweep.answer(worker, Request::Lease { want: 4 }) {
            Response::Leases { grants } => assert_eq!(grants.len(), 4),
            other => panic!("expected grants, got {other:?}"),
        };
        let pending = || {
            let board = sweep.board.lock().expect("lease board");
            board.states.iter().all(|s| *s == CellState::Pending)
        };

        // Nothing changes: ask again after WAIT_MS.
        lease_all("a");
        let t = Instant::now();
        assert_eq!(sweep.hold(), Response::Wait { ms: 0 });
        assert!(t.elapsed() >= Duration::from_millis(WAIT_MS));
        // The holder of every cell disconnects: ask again now. A release
        // that lands before the hold waits is retried, so only a release
        // that never wakes a hold fails every attempt.
        let woken = (0..5).any(|_| {
            let (reply, woken) = hold_across(&sweep, || sweep.release("a", "gone"));
            assert_eq!(reply, Response::Wait { ms: 0 });
            assert!(pending(), "a hold never grants");
            lease_all("a");
            woken
        });
        assert!(woken, "a release never woke the hold");
        // A failure settles the sweep: Done, and at once whether it lands
        // while the hold waits or before. Each attempt fails a fresh
        // sweep, so a stalled host is retried.
        let woken = (0..5).any(|_| {
            let sweep = Sweep::new(&cfg, None, 60_000, &|_| {}).unwrap();
            let (reply, woken) = hold_across(&sweep, || {
                sweep.fail(StudyError::Config("test".to_string()))
            });
            assert_eq!(reply, Response::Done);
            woken
        });
        assert!(woken, "a failure never woke the hold");
        // A settled sweep answers a hold at once.
        sweep.fail(StudyError::Config("test".to_string()));
        let t = Instant::now();
        assert_eq!(sweep.hold(), Response::Done);
        assert!(t.elapsed() < Duration::from_millis(WAIT_MS));
    }
}
