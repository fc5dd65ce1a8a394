//! Scheduling determinism and resumability of the sweep orchestrator.
//!
//! 1. Cell-parallel execution must be **bit-identical** to serial
//!    execution — same cells, same order, same counts — on both paper
//!    machines, for arbitrary seeds (property-tested). Campaign RNG
//!    streams depend only on (seed, structure), cells share no mutable
//!    state, and results land in plan-order slots, so worker count and
//!    completion order must be unobservable in the results.
//! 2. A budgeted sweep that stops early ([`StudyError::Incomplete`]) must
//!    resume on re-run: cells persisted before the interruption are served
//!    from the result store (hit counters prove they did not re-execute),
//!    and the final results equal an uninterrupted run's. Every cell
//!    reports progress exactly once, store-served ones marked as such.

use proptest::prelude::*;
use softerr::{
    OptLevel, Orchestrator, ResultStore, SamplingPlan, Structure, StudyConfig, StudyError, Workload,
};
use std::sync::Mutex;

/// A grid small enough to property-test: both paper machines, one
/// workload, two levels, three contrasting structures.
fn small_config(seed: u64) -> StudyConfig {
    StudyConfig {
        workloads: vec![Workload::Qsort],
        levels: vec![OptLevel::O0, OptLevel::O2],
        structures: vec![Structure::RegFile, Structure::IqSrc, Structure::L1DData],
        plan: SamplingPlan::fixed(8),
        seed,
        ..StudyConfig::default()
    }
}

fn temp_store(tag: &str) -> ResultStore {
    let dir = std::env::temp_dir().join(format!("softerr-sched-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    ResultStore::open(dir).expect("store opens")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn parallel_study_is_bit_identical_to_serial(seed in any::<u64>()) {
        let serial = Orchestrator::new(small_config(seed))
            .run()
            .expect("serial study");
        for workers in [2usize, 5] {
            let parallel = Orchestrator::new(small_config(seed))
                .cell_workers(workers)
                .run()
                .expect("parallel study");
            prop_assert_eq!(
                &serial,
                &parallel,
                "{} cell workers diverged from serial at seed {}",
                workers,
                seed
            );
        }
    }
}

#[test]
fn budgeted_sweep_resumes_without_reexecuting_completed_cells() {
    let cfg = small_config(0xC0FFEE);
    let total = cfg.machines.len() * cfg.workloads.len() * cfg.levels.len();
    let uninterrupted = Orchestrator::new(cfg.clone()).run().expect("baseline");

    // First invocation: budget covers only part of the grid, so the sweep
    // stops early — but everything it measured is already on disk. Three
    // workers race for cells; the budget still holds.
    let store = temp_store("resume");
    let budget = 1;
    let progress = Progress::default();
    let first = Orchestrator::new(cfg.clone())
        .store(store)
        .cell_workers(3)
        .cell_budget(budget)
        .execute(&|m| progress.push(m));
    assert_eq!(
        progress.take(),
        (budget, 0),
        "one message per executed cell"
    );
    let store = match first {
        Err(StudyError::Incomplete {
            completed,
            total: t,
        }) => {
            assert_eq!(t, total);
            assert_eq!(completed, budget, "budget caps executed cells");
            temp_store_reopen("resume")
        }
        other => panic!("expected Incomplete, got {other:?}"),
    };
    assert_eq!(
        std::fs::read_dir(store.root().join("cells"))
            .unwrap()
            .count(),
        budget,
        "interrupted run persisted exactly its budget's worth of cells"
    );

    // Second invocation: same config, same store, no budget. The cells
    // from the first run must be served from the store, not re-executed.
    let resumed = Orchestrator::new(cfg.clone()).store(store);
    let report = resumed
        .execute(&|m| progress.push(m))
        .expect("resumed study completes");
    assert_eq!(
        progress.take(),
        (total, budget),
        "one message per cell, ` (store)` on exactly the store-served ones"
    );
    assert_eq!(
        report.store_hits, budget,
        "every previously-completed cell came from the store"
    );
    assert_eq!(
        report.executed,
        total - budget,
        "only the remaining cells executed"
    );
    let store = resumed.result_store().expect("store attached");
    assert_eq!(store.hits() as usize, budget);
    assert_eq!(report.results, uninterrupted, "resume is bit-identical");

    // Third invocation, fully warm: zero campaigns execute.
    let warm = Orchestrator::new(cfg)
        .store(temp_store_reopen("resume"))
        .cell_workers(3)
        .execute(&|m| progress.push(m))
        .expect("warm study");
    assert_eq!(progress.take(), (total, total));
    assert_eq!(warm.executed, 0, "a warm re-run executes no campaigns");
    assert_eq!(warm.store_hits, total);
    assert_eq!(warm.results, uninterrupted);

    std::fs::remove_dir_all(
        std::env::temp_dir().join(format!("softerr-sched-test-resume-{}", std::process::id())),
    )
    .ok();
}

/// Progress messages received, for checking that every cell reports
/// exactly once.
#[derive(Default)]
struct Progress(Mutex<Vec<String>>);

impl Progress {
    fn push(&self, message: &str) {
        self.0.lock().unwrap().push(message.to_string());
    }

    /// Drains the messages: (how many, how many marked ` (store)`).
    fn take(&self) -> (usize, usize) {
        let messages = std::mem::take(&mut *self.0.lock().unwrap());
        let stored = messages.iter().filter(|m| m.ends_with(" (store)")).count();
        (messages.len(), stored)
    }
}

/// Reopens the tagged store without wiping it (fresh counters, same disk).
fn temp_store_reopen(tag: &str) -> ResultStore {
    ResultStore::open(
        std::env::temp_dir().join(format!("softerr-sched-test-{tag}-{}", std::process::id())),
    )
    .expect("store reopens")
}

#[test]
fn store_is_invalidated_by_any_config_change() {
    // A store warmed at one configuration must not serve a different one:
    // change the seed and every cell re-executes.
    let store = temp_store("invalidate");
    let root = store.root().to_path_buf();
    let cold = Orchestrator::new(small_config(1))
        .store(store)
        .execute(&|_| {})
        .expect("cold run");
    assert_eq!(cold.store_hits, 0);

    let other_seed = Orchestrator::new(small_config(2))
        .store(ResultStore::open(&root).expect("reopen"))
        .execute(&|_| {})
        .expect("different-seed run");
    assert_eq!(
        other_seed.store_hits, 0,
        "a different seed must miss the store, not reuse stale cells"
    );
    assert_eq!(other_seed.executed, other_seed.cells);
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn refresh_reexecutes_but_still_persists() {
    // `--fresh` semantics: reads are skipped, writes still happen.
    let store = temp_store("refresh");
    let root = store.root().to_path_buf();
    Orchestrator::new(small_config(3))
        .store(store)
        .execute(&|_| {})
        .expect("warm-up run");

    let fresh = Orchestrator::new(small_config(3))
        .store(ResultStore::open(&root).expect("reopen"))
        .refresh(true)
        .execute(&|_| {})
        .expect("refresh run");
    assert_eq!(fresh.store_hits, 0, "refresh must not read the store");
    assert_eq!(
        fresh.executed, fresh.cells,
        "refresh re-executes every cell"
    );
    std::fs::remove_dir_all(root).ok();
}
