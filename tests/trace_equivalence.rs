//! Span tracing must be purely observational.
//!
//! 1. **Trace-on == trace-off, bit-identical.** A recorded campaign run
//!    with tracing armed must produce exactly the classes, per-fault
//!    records, and aggregate counts of an untraced run, on both paper
//!    machines — and a traced study must persist byte-identical result
//!    store files, with one profiler cell row per cell. Recording wall-clock spans reads the clock and a
//!    per-thread ring buffer; it must never touch engine state.
//! 2. **Well-nested per thread.** Under the in-process cell workers (2
//!    and 5 workers, property-tested over seeds) every thread's spans
//!    form a proper nesting: any two either nest (with strictly greater
//!    depth inside) or are disjoint in time. The profiler's self-time
//!    arithmetic ([`softerr::profile::stage_table`]) is only sound if
//!    this holds.
//!
//! Tracing is process-global state, so every test (and every proptest
//! case) holds one mutex while armed.

use proptest::prelude::*;
use softerr::{
    telemetry, CampaignConfig, Compiler, Injector, MachineConfig, OptLevel, Orchestrator,
    ResultStore, SamplingPlan, Structure, StudyConfig, Trace, Workload,
};
use std::sync::Mutex;

/// Serializes access to the process-global tracing switch.
static TRACING: Mutex<()> = Mutex::new(());

/// Runs `f` with tracing armed and returns its result plus the trace.
fn with_tracing<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    let _guard = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_tracing(true);
    let value = f();
    let trace = telemetry::take_trace();
    (value, trace)
}

#[test]
fn traced_campaigns_are_bit_identical_to_untraced_on_both_machines() {
    for machine in MachineConfig::paper_machines() {
        let compiled = Compiler::new(machine.profile, OptLevel::O1)
            .compile(&Workload::Qsort.source(softerr::Scale::Tiny))
            .expect("compile");
        let injector = Injector::new(&machine, &compiled.program).expect("golden");
        let cfg = CampaignConfig {
            plan: SamplingPlan::fixed(30),
            seed: 9,
            threads: 2,
            checkpoint: true,
        };
        let run = || {
            injector
                .run(Structure::RegFile, &cfg)
                .records(true)
                .execute()
        };
        let off = {
            let _guard = TRACING.lock().unwrap_or_else(|e| e.into_inner());
            assert!(!telemetry::tracing_enabled(), "stray tracing left armed");
            run()
        };
        let (on, trace) = with_tracing(run);
        assert!(
            !trace.is_empty(),
            "tracing was armed, spans must have been recorded"
        );
        assert_eq!(
            off.result, on.result,
            "aggregate classes diverged under tracing on {}",
            machine.name
        );
        assert_eq!(
            off.records, on.records,
            "per-fault records diverged under tracing on {}",
            machine.name
        );
    }
}

#[test]
fn traced_studies_persist_byte_identical_store_files() {
    let config = StudyConfig {
        workloads: vec![Workload::Qsort],
        levels: vec![OptLevel::O0, OptLevel::O2],
        structures: vec![Structure::RegFile, Structure::L1DData],
        plan: SamplingPlan::fixed(6),
        seed: 23,
        ..StudyConfig::default()
    };
    let dir = |tag: &str| {
        let d = std::env::temp_dir().join(format!("softerr-trace-eq-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    };
    let run_into = |root: &std::path::Path| {
        Orchestrator::new(config.clone())
            .cell_workers(2)
            .store(ResultStore::open(root).expect("store opens"))
            .run()
            .expect("study")
    };
    let (off_dir, on_dir) = (dir("off"), dir("on"));
    let off = {
        let _guard = TRACING.lock().unwrap_or_else(|e| e.into_inner());
        run_into(&off_dir)
    };
    let (on, trace) = with_tracing(|| run_into(&on_dir));
    assert_eq!(off, on, "study results diverged under tracing");
    // One `cell` span per cell, executed ones with their stages; a warm
    // re-run shows each as a store hit with its lookup.
    let cells = on.cells.len();
    assert_eq!(cell_rows(&trace), vec![("miss".to_string(), true); cells]);
    let (warm, trace) = with_tracing(|| run_into(&on_dir));
    assert_eq!(warm, on);
    assert_eq!(cell_rows(&trace), vec![("hit".to_string(), true); cells]);
    // The stores must hold the same cell files with the same bytes: the
    // hash keys ignore tracing, and the payloads are tracing-independent.
    let cells = |root: &std::path::Path| -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(root.join("cells"))
            .expect("cells dir")
            .map(|e| {
                let e = e.expect("dir entry");
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).expect("cell file"),
                )
            })
            .collect();
        files.sort();
        files
    };
    assert_eq!(
        cells(&off_dir),
        cells(&on_dir),
        "store files diverged under tracing"
    );
    std::fs::remove_dir_all(&off_dir).ok();
    std::fs::remove_dir_all(&on_dir).ok();
}

/// The `hit` column of each `cell` row of the profiler's cell table, and
/// whether the row's stages are the ones its kind runs: a lookup for a
/// hit; compile, execute and store write for a miss.
fn cell_rows(trace: &Trace) -> Vec<(String, bool)> {
    let csv = softerr::profile::cell_table(trace).to_csv();
    csv.lines()
        .skip(1)
        .map(|line| {
            let cols: Vec<&str> = line.split(',').collect();
            let ms: Vec<f64> = cols[2..6].iter().map(|c| c.parse().unwrap()).collect();
            let stages = if cols[1] == "hit" {
                ms[0] > 0.0 && ms[1..].iter().all(|&m| m == 0.0)
            } else {
                ms[1..].iter().all(|&m| m > 0.0)
            };
            (cols[1].to_string(), stages)
        })
        .collect()
}

/// Any two spans on one thread must nest (inner strictly deeper) or be
/// disjoint; a partial overlap means a guard escaped its scope.
fn assert_well_nested(trace: &Trace) {
    let mut tids: Vec<u32> = trace.spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let mut spans: Vec<_> = trace.spans.iter().filter(|s| s.tid == tid).collect();
        spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        for (i, outer) in spans.iter().enumerate() {
            for inner in &spans[i + 1..] {
                if inner.start_ns >= outer.end_ns() {
                    continue; // disjoint
                }
                assert!(
                    inner.end_ns() <= outer.end_ns(),
                    "spans overlap without nesting on tid {tid}: \
                     {} [{}, {}) vs {} [{}, {})",
                    outer.name,
                    outer.start_ns,
                    outer.end_ns(),
                    inner.name,
                    inner.start_ns,
                    inner.end_ns()
                );
                assert!(
                    inner.depth > outer.depth,
                    "nested span {} (depth {}) not deeper than {} (depth {}) on tid {tid}",
                    inner.name,
                    inner.depth,
                    outer.name,
                    outer.depth
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn spans_stay_well_nested_under_the_work_stealing_pool(seed in any::<u64>()) {
        let config = StudyConfig {
            workloads: vec![Workload::Qsort],
            levels: vec![OptLevel::O0, OptLevel::O2],
            structures: vec![Structure::RegFile, Structure::IqSrc],
            plan: SamplingPlan::fixed(6),
            seed,
            threads: 2,
            ..StudyConfig::default()
        };
        for workers in [2usize, 5] {
            let (result, trace) = with_tracing(|| {
                Orchestrator::new(config.clone())
                    .cell_workers(workers)
                    .run()
                    .expect("study")
            });
            prop_assert!(!result.cells.is_empty());
            prop_assert!(!trace.is_empty(), "study must have produced spans");
            assert_well_nested(&trace);
        }
    }
}
