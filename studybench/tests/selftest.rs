//! The benchmark at a tiny size: every workload runs, checks its outputs
//! and prints every metric `BENCHMARK.json` names with its unit, and
//! injected failures are counted as failed ops instead of aborting a run.

use serde::Value;
use softerr_studybench::layers::PER_LAYER;
use softerr_studybench::{run, BenchWorkload, Opts, Report, Sabotage, Size};
use std::sync::Mutex;

/// Span tracing is process-wide: runs must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(workload: BenchWorkload, trace: bool, sabotage: Sabotage) -> Report {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let opts = Opts {
        seed: 7,
        seconds: 0.01,
        trace,
        size: Size::Tiny,
        work_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("selftest-{}-{trace}-{sabotage:?}", workload.name())),
        sabotage,
    };
    run(workload, &opts).expect("the run completes")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(fields) => &fields.iter().find(|(k, _)| k == key).expect(key).1,
        other => panic!("expected an object holding {key}, got {other:?}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let bench: Value = serde_json::from_str(&json).expect("BENCHMARK.json parses");
    items(field(&bench, section))
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

fn printed(report: &Report) -> Vec<(String, String)> {
    let line: Value = serde_json::from_str(&report.to_json()).expect("result line parses");
    match field(&line, "metrics") {
        Value::Object(metrics) => metrics
            .iter()
            .map(|(name, m)| (name.clone(), text(field(m, "unit")).to_string()))
            .collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
fn every_workload_checks_its_outputs_and_prints_every_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    let layer_list: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(
        per_layer, layer_list,
        "BENCHMARK.json lists the traced run's metrics"
    );
    for workload in BenchWorkload::ALL {
        for trace in [false, true] {
            let report = tiny(workload, trace, Sabotage::None);
            let name = workload.name();
            assert!(report.correct(), "{name} (trace {trace}): {report:?}");
            assert_eq!(report.failed, 0, "{name}: digests agree across passes");
            assert!(!report.digest.is_empty(), "{name} records a digest");
            let expected = if trace { &per_layer } else { &end_to_end };
            assert_eq!(&printed(&report), expected, "{name} (trace {trace})");
            let ops = report.metrics.iter().find(|m| m.name == "ops_per_s");
            assert!(trace || ops.is_some_and(|m| m.value > 0.0), "{name}");
        }
    }
}

#[test]
fn benchmark_workloads_are_runnable() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    let bench: Value = serde_json::from_str(&json).expect("parses");
    for w in items(field(&bench, "workloads")) {
        let name = text(field(w, "name"));
        assert!(BenchWorkload::parse(name).is_some(), "{name} is a workload");
    }
}

#[test]
fn a_corrupted_warm_store_cell_is_a_failed_op() {
    let report = tiny(BenchWorkload::StoreRerender, false, Sabotage::CorruptCell);
    assert!(report.failed >= 1, "{report:?}");
    assert!(!report.correct());
}

#[test]
fn a_forged_submission_is_a_failed_op() {
    let report = tiny(BenchWorkload::ServeSmallCells, true, Sabotage::ForgedSubmit);
    assert_eq!(report.failed, 1, "{report:?}");
    let rejected = report
        .metrics
        .iter()
        .find(|m| m.name == "core.serve.rejected")
        .expect("rejections are reported");
    assert_eq!(rejected.value, 1.0);
}
