//! Cell-parallel study orchestration.
//!
//! A study is a grid of independent **cells** — one (machine, workload,
//! level) coordinate, each owning a compile, a fault-free golden run, and
//! one campaign per structure. [`Orchestrator`] plans that grid as a small
//! DAG: compile units (deduplicated per ISA profile × workload × level, so
//! machines sharing a profile never recompile the same program) feed the
//! cells, and a work-stealing pool of cell workers claims cells from a
//! shared index — cell-level parallelism layered *on top of* the
//! intra-campaign `threads` of [`CampaignConfig`](softerr_inject::CampaignConfig).
//!
//! Completed cells are persisted to an optional content-addressed
//! [`ResultStore`], making re-runs incremental (only missing or
//! invalidated cells execute) and killed studies resumable: on the next
//! invocation every already-stored cell is served from disk.
//!
//! **Determinism:** the parallel path is bit-identical to the serial one.
//! Each cell's campaigns derive their RNG streams from `(seed, structure)`
//! alone and share nothing with other cells, cells are written into
//! plan-order slots regardless of completion order, and compile sharing
//! only deduplicates byte-identical work. `tests/sched_equivalence.rs`
//! asserts this rather than assuming it.

use crate::store::{cell_config_hash, ResultStore};
use crate::study::{CellKey, CellResult, StudyConfig, StudyError, StudyResults};
use softerr_cc::{Compiled, Compiler, OptLevel};
use softerr_inject::{CampaignConfig, CampaignResult, Injector};
use softerr_isa::Profile;
use softerr_sim::MachineConfig;
use softerr_telemetry::{event, span, Level};
use softerr_workloads::Workload;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Runs one cell of `cfg` — golden run plus one campaign per structure —
/// on an already-compiled program. This is the single execution path every
/// driver shares: the in-process [`Orchestrator`] workers, and the remote
/// [`crate::serve::run_worker`] processes of the distributed campaign
/// service, so the distributed study is bit-identical to a serial one by
/// construction (the equivalence tests assert it anyway).
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
    let injector = Injector::new(machine, &compiled.program).map_err(|e| e.to_string())?;
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

/// One planned cell: a grid coordinate plus the compile unit it consumes
/// and the content hash it is stored under.
struct CellPlan<'c> {
    machine: &'c MachineConfig,
    workload: Workload,
    level: OptLevel,
    /// Index into the deduplicated compile-unit table.
    unit: usize,
    /// Content hash for [`ResultStore`] lookups.
    hash: String,
}

impl CellPlan<'_> {
    fn key(&self) -> CellKey {
        CellKey {
            machine: self.machine.name.clone(),
            workload: self.workload,
            level: self.level,
        }
    }
}

/// What one [`Orchestrator::execute`] invocation did, beyond the results.
#[derive(Debug)]
pub struct SweepReport {
    /// The complete study results (identical to a serial [`crate::Study::run`]).
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
    /// store-less, and unbudgeted — equivalent to [`crate::Study::run`].
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
        let mut keys = Vec::new();
        for machine in &self.config.machines {
            for &workload in &self.config.workloads {
                for &level in &self.config.levels {
                    keys.push(CellKey {
                        machine: machine.name.clone(),
                        workload,
                        level,
                    });
                }
            }
        }
        keys
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
    /// appended for store-served cells).
    ///
    /// # Errors
    ///
    /// * [`StudyError::Config`] for an empty grid axis,
    /// * [`StudyError::Compile`] / [`StudyError::Golden`] when a cell's
    ///   program is broken,
    /// * [`StudyError::Io`] / [`StudyError::Format`] when the result store
    ///   cannot persist a cell,
    /// * [`StudyError::Incomplete`] when a [`Orchestrator::cell_budget`]
    ///   stopped the sweep before every cell was measured.
    pub fn execute(&self, progress: &(dyn Fn(&str) + Sync)) -> Result<SweepReport, StudyError> {
        let cfg = &self.config;
        cfg.validate().map_err(StudyError::Config)?;
        let t0 = Instant::now();

        // Plan: deduplicated compile units + one CellPlan per coordinate.
        let mut plan_sp = span("sched.plan");
        let mut units: Vec<(Profile, Workload, OptLevel)> = Vec::new();
        let mut cells: Vec<CellPlan<'_>> = Vec::new();
        for machine in &cfg.machines {
            for &workload in &cfg.workloads {
                for &level in &cfg.levels {
                    let unit_key = (machine.profile, workload, level);
                    let unit = units
                        .iter()
                        .position(|u| *u == unit_key)
                        .unwrap_or_else(|| {
                            units.push(unit_key);
                            units.len() - 1
                        });
                    cells.push(CellPlan {
                        machine,
                        workload,
                        level,
                        unit,
                        hash: cell_config_hash(cfg, machine, workload, level),
                    });
                }
            }
        }
        let total = cells.len();
        let workers = self.cell_workers.clamp(1, total.max(1));
        plan_sp.record("cells", total as u64);
        plan_sp.record("compile_units", units.len() as u64);
        drop(plan_sp);
        event!(
            Level::Info,
            "study.sched",
            {
                cells: total,
                compile_units: units.len(),
                workers: workers,
                injections: cfg.total_injections()
            },
            "planned {total} cells over {} compile units on {workers} worker(s) \
             ({} injections total)",
            units.len(),
            cfg.total_injections()
        );

        let compiled: Vec<OnceLock<Result<Compiled, String>>> =
            (0..units.len()).map(|_| OnceLock::new()).collect();
        let slots: Vec<OnceLock<(CellKey, CellResult)>> =
            (0..total).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        let executed = AtomicUsize::new(0);
        let served = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let budget_hit = AtomicBool::new(false);
        let failure: Mutex<Option<StudyError>> = Mutex::new(None);

        let worker = || {
            loop {
                if failure.lock().expect("failure slot").is_some() {
                    break;
                }
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(plan) = cells.get(k) else {
                    break;
                };
                let key = plan.key();
                let mut cell_sp = span("cell");
                cell_sp.record("machine", plan.machine.name.clone());
                cell_sp.record("workload", plan.workload.to_string());
                cell_sp.record("level", plan.level.to_string());
                // 1. Result store: an identical already-measured cell is
                //    served from disk instead of re-executed.
                if !self.refresh {
                    let lookup = {
                        let _sp = span("cell.lookup");
                        self.store.as_ref().and_then(|s| s.load(&plan.hash, &key))
                    };
                    if let Some(result) = lookup {
                        cell_sp.record("hit", true);
                        served.fetch_add(1, Ordering::Relaxed);
                        let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                        event!(
                            Level::Info,
                            "study.sched",
                            { cell: key.to_string(), done: d, total: total, hash: plan.hash.clone() },
                            "[{d}/{total}] {key} served from result store"
                        );
                        let _ = slots[k].set((key.clone(), result));
                        progress(&format!("[{d}/{total}] {key} (store)"));
                        continue;
                    }
                }
                cell_sp.record("hit", false);
                // 2. Execution budget: leave the cell for a later
                //    invocation once this one's slice is spent.
                if let Some(budget) = self.cell_budget {
                    let claimed = executed.fetch_add(1, Ordering::Relaxed);
                    if claimed >= budget {
                        executed.fetch_sub(1, Ordering::Relaxed);
                        budget_hit.store(true, Ordering::Relaxed);
                        continue;
                    }
                } else {
                    executed.fetch_add(1, Ordering::Relaxed);
                }
                // 3. Compile (shared across machines with this profile;
                //    the span also covers waiting on another worker's
                //    in-flight compile of the same unit).
                let compiled = {
                    let _sp = span("cell.compile");
                    compiled[plan.unit].get_or_init(|| {
                        Compiler::new(plan.machine.profile, plan.level)
                            .compile(&plan.workload.source(cfg.scale))
                            .map_err(|e| format!("{} at {}: {e}", plan.workload, plan.level))
                    })
                };
                let compiled = match compiled {
                    Ok(compiled) => compiled,
                    Err(e) => {
                        fail(&failure, StudyError::Compile(e.clone()));
                        break;
                    }
                };
                // 4. Golden run + per-structure campaigns.
                let mut exec_sp = span("cell.execute");
                let result = match run_cell(cfg, plan.machine, compiled) {
                    Ok(result) => result,
                    Err(e) => {
                        fail(
                            &failure,
                            StudyError::Golden(format!(
                                "{} at {} on {}: {e}",
                                plan.workload, plan.level, plan.machine.name
                            )),
                        );
                        break;
                    }
                };
                exec_sp.record("campaigns", cfg.structures.len() as u64);
                drop(exec_sp);
                // 5. Persist before reporting, so a kill after this point
                //    never loses the cell.
                if let Some(store) = &self.store {
                    let _sp = span("cell.store");
                    if let Err(e) = store.save(&plan.hash, &key, &result) {
                        fail(&failure, e);
                        break;
                    }
                }
                let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                let elapsed = t0.elapsed().as_secs_f64();
                let eta = elapsed / d as f64 * (total - d) as f64;
                event!(
                    Level::Info,
                    "study.sched",
                    {
                        cell: key.to_string(),
                        done: d,
                        total: total,
                        elapsed_s: elapsed,
                        eta_s: eta
                    },
                    "[{d}/{total}] {key} done ({elapsed:.1}s elapsed, ETA {eta:.0}s)"
                );
                let _ = slots[k].set((key.clone(), result));
                progress(&format!("[{d}/{total}] {key}"));
            }
        };
        if workers <= 1 {
            worker();
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
                for handle in handles {
                    handle.join().expect("cell worker panicked");
                }
            });
        }

        if let Some(error) = failure.lock().expect("failure slot").take() {
            return Err(error);
        }
        let executed = executed.load(Ordering::Relaxed);
        let store_hits = served.load(Ordering::Relaxed);
        if budget_hit.load(Ordering::Relaxed) {
            let completed = done.load(Ordering::Relaxed);
            event!(
                Level::Info,
                "study.sched",
                { completed: completed, total: total, executed: executed },
                "cell budget reached: {completed}/{total} cells persisted; \
                 re-run to resume"
            );
            return Err(StudyError::Incomplete { completed, total });
        }
        let results = StudyResults {
            config: cfg.clone(),
            cells: slots
                .into_iter()
                .map(|slot| slot.into_inner().expect("every cell completed"))
                .collect(),
        };
        let seconds = t0.elapsed().as_secs_f64();
        let (store_misses, store_writes) = self
            .store
            .as_ref()
            .map_or((0, 0), |s| (s.misses(), s.stores()));
        if let Some(store) = &self.store {
            event!(
                Level::Info,
                "study.store",
                {
                    hits: store.hits(),
                    misses: store_misses,
                    stores: store_writes
                },
                "result store: {} hit(s), {store_misses} miss(es), {store_writes} write(s)",
                store.hits()
            );
        }
        if executed == 0 && store_hits == total {
            event!(
                Level::Info,
                "study.sched",
                { cells: total, seconds: seconds },
                "all {total} cells served from result store (0 campaigns executed)"
            );
        } else {
            event!(
                Level::Info,
                "study.sched",
                { executed: executed, store_hits: store_hits, seconds: seconds },
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

/// Records the sweep's first failure; later ones are dropped (workers stop
/// claiming as soon as one is set).
fn fail(slot: &Mutex<Option<StudyError>>, error: StudyError) {
    let mut slot = slot.lock().expect("failure slot");
    if slot.is_none() {
        *slot = Some(error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softerr_sim::Structure;

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
    fn compile_units_are_shared_per_profile() {
        // Two machines with different profiles: no sharing across them,
        // but a hypothetical same-profile pair would collapse. Assert the
        // plan's arithmetic instead of private state: 2 machines × 1
        // workload × 2 levels with distinct profiles = 4 units, and with a
        // duplicated machine the unit count must not grow.
        let mut cfg = tiny_config();
        let mut clone = cfg.machines[0].clone();
        clone.name = "Cortex-A15-twin".into();
        cfg.machines.push(clone);
        let orch = Orchestrator::new(cfg);
        let results = orch.run().unwrap();
        // The twin shares the A15's profile, so its cells reuse the same
        // compiled program and must produce identical measurements.
        for level in [OptLevel::O0, OptLevel::O2] {
            let a = results.cell("Cortex-A15-like", Workload::Qsort, level);
            let b = results.cell("Cortex-A15-twin", Workload::Qsort, level);
            assert_eq!(a, b, "shared compile units must not change results");
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
}
