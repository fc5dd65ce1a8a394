//! Benchmark regression gate.
//!
//! Compares a freshly generated `BENCH_<group>.json` against the committed
//! baseline copy and fails (exit 1) if any benchmark id present in *both*
//! files regressed by more than the allowed fraction in `mean_ns`. Ids only
//! present on one side are reported but never fail the gate: new benchmarks
//! need a first run to gain a baseline, and retired ones should not haunt
//! the build.
//!
//! ```text
//! bench_gate <baseline.json> <current.json> [--max-regression 0.20]
//!            [--budget ID=FRAC]...
//! ```
//!
//! CI timing noise is real, so the threshold is a deliberate 20% by
//! default — loose enough to ignore scheduler jitter, tight enough to catch
//! "the fork deep-copies the machine again" class mistakes, which move the
//! needle by integer factors.
//!
//! `--budget ID=FRAC` (repeatable) tightens the threshold for one id, and
//! turns its presence into an assertion: a budgeted id missing from either
//! file fails the gate instead of being waved through as NEW/GONE. This is
//! how the telemetry overhead contract is enforced — the committed baseline
//! for `rf_campaign/checkpoint` predates span instrumentation, so holding
//! that id inside the 3% telemetry budget proves disabled tracing stays
//! effectively free on the checkpointed RegFile campaign.
//!
//! ```text
//! bench_gate --paired <runs.jsonl>
//! ```
//!
//! reports alternating study-benchmark runs of a base and a changed build
//! (`just studybench-ab`) instead; it gates nothing. Each line of the runs
//! file is `{"pair": N, "side": "base"|"change", "workload": W, "run": R}`,
//! with `R` the last stdout line of one studybench run. For every workload
//! and every end-to-end metric of `BENCHMARK.json` (read from the current
//! directory) it prints both sides' medians with quartiles, the median of
//! the per-pair ratios change / base, and the pairs the change won in the
//! metric's `better` direction (ties count for neither side); a metric
//! whose base interquartile range exceeds `bound` times the base median is
//! marked `unresolved`.

use serde::{obj_get, Deserialize, Value};
use std::process::ExitCode;

/// A `BENCH_<group>.json` file as written by the criterion shim.
#[derive(Deserialize)]
struct BenchFile {
    #[allow(dead_code)]
    group: String,
    benchmarks: Vec<Entry>,
}

/// One benchmark row; only `id` and `mean_ns` matter to the gate, and rows
/// without a throughput (`elements_per_sec`) are gated all the same.
#[derive(Deserialize)]
struct Entry {
    id: String,
    mean_ns: f64,
}

fn load(path: &str) -> Result<Vec<Entry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file: BenchFile = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(file.benchmarks)
}

/// Parses one `ID=FRAC` budget argument.
fn parse_budget(arg: &str) -> Option<(String, f64)> {
    let (id, frac) = arg.split_once('=')?;
    let frac: f64 = frac.parse().ok()?;
    if id.is_empty() || !frac.is_finite() || frac < 0.0 {
        return None;
    }
    Some((id.to_string(), frac))
}

/// Compares `current` against `baseline`, printing one verdict line per id.
/// Returns true when any shared id exceeds its threshold (the per-id budget
/// when one is set, `max_regression` otherwise) or any budgeted id is
/// missing from either side.
fn gate(
    baseline: &[Entry],
    current: &[Entry],
    max_regression: f64,
    budgets: &[(String, f64)],
) -> bool {
    let threshold = |id: &str| {
        budgets
            .iter()
            .find(|(b, _)| b == id)
            .map_or(max_regression, |&(_, frac)| frac)
    };
    let mut failed = false;
    for cur in current {
        let Some(base) = baseline.iter().find(|b| b.id == cur.id) else {
            println!(
                "NEW      {:<28} {:>12.1} ms (no baseline)",
                cur.id,
                cur.mean_ns / 1e6
            );
            continue;
        };
        let ratio = cur.mean_ns / base.mean_ns;
        let allowed = threshold(&cur.id);
        let verdict = if ratio > 1.0 + allowed {
            failed = true;
            "FAIL"
        } else if ratio < 1.0 {
            "FASTER"
        } else {
            "OK"
        };
        println!(
            "{:<8} {:<28} {:>12.1} ms -> {:>10.1} ms ({:+.1}%, budget {:.0}%)",
            verdict,
            cur.id,
            base.mean_ns / 1e6,
            cur.mean_ns / 1e6,
            (ratio - 1.0) * 100.0,
            allowed * 100.0
        );
    }
    for base in baseline {
        if !current.iter().any(|c| c.id == base.id) {
            println!("GONE     {:<28} (in baseline only)", base.id);
        }
    }
    // A budgeted id is a contract, not an opportunistic check: if either
    // side lost it (renamed, bench deleted), the assertion must not vanish
    // silently.
    for (id, _) in budgets {
        for (side, entries) in [("baseline", baseline), ("current", current)] {
            if !entries.iter().any(|e| &e.id == id) {
                eprintln!("bench_gate: budgeted id {id:?} missing from {side}");
                failed = true;
            }
        }
    }
    failed
}

/// An end-to-end metric of `BENCHMARK.json`.
#[derive(Deserialize)]
struct Metric {
    name: String,
    /// `higher` or `lower`.
    better: String,
    /// The fraction by which it may worsen before a change regresses.
    bound: f64,
}

/// The part of `BENCHMARK.json` the paired report reads.
#[derive(Deserialize)]
struct Benchmark {
    end_to_end: Vec<Metric>,
}

/// One studybench run of a paired runs file.
#[derive(Deserialize)]
struct Run {
    pair: u64,
    side: String,
    workload: String,
    run: Report,
}

/// The last stdout line of a studybench run.
#[derive(Deserialize)]
struct Report {
    correct: bool,
    failed: u64,
    /// `{name: {"value": v, "unit": u}}`.
    metrics: Value,
}

impl Report {
    fn metric(&self, name: &str) -> Option<f64> {
        let value = obj_get(&self.metrics, name).ok()?;
        f64::from_value(obj_get(value, "value").ok()?).ok()
    }
}

/// First quartile, median and third quartile, interpolated linearly
/// between the nearest ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Quartiles {
    q1: f64,
    median: f64,
    q3: f64,
}

fn quartiles(values: &[f64]) -> Quartiles {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    Quartiles {
        q1: at(0.25),
        median: at(0.5),
        q3: at(0.75),
    }
}

/// One workload's verdict on one metric.
#[derive(Debug, PartialEq)]
struct Row {
    workload: String,
    metric: String,
    base: Quartiles,
    change: Quartiles,
    /// Median over the pairs of change / base.
    ratio: f64,
    /// Pairs the change read better on.
    won: usize,
    pairs: usize,
    /// The base runs spread wider than the metric's bound.
    unresolved: bool,
}

/// Summarizes `runs` per workload (in order of first appearance) and per
/// metric, over the pairs that have both a base and a change run.
fn paired(runs: &[Run], metrics: &[Metric]) -> Vec<Row> {
    let mut workloads: Vec<&str> = Vec::new();
    for run in runs {
        if !workloads.contains(&run.workload.as_str()) {
            workloads.push(&run.workload);
        }
    }
    let mut rows = Vec::new();
    for workload in workloads {
        let of = |side: &'static str| {
            runs.iter()
                .filter(move |r| r.workload == workload && r.side == side)
        };
        let pairs: Vec<(&Report, &Report)> = of("base")
            .filter_map(|base| {
                let change = of("change").find(|c| c.pair == base.pair)?;
                Some((&base.run, &change.run))
            })
            .collect();
        for metric in metrics {
            let values: Vec<(f64, f64)> = pairs
                .iter()
                .filter_map(|(b, c)| Some((b.metric(&metric.name)?, c.metric(&metric.name)?)))
                .collect();
            if values.is_empty() {
                continue;
            }
            let higher = metric.better == "higher";
            let base = quartiles(&values.iter().map(|v| v.0).collect::<Vec<_>>());
            let ratios: Vec<f64> = values.iter().map(|(b, c)| c / b).collect();
            rows.push(Row {
                workload: workload.to_string(),
                metric: metric.name.clone(),
                base,
                change: quartiles(&values.iter().map(|v| v.1).collect::<Vec<_>>()),
                ratio: quartiles(&ratios).median,
                won: values
                    .iter()
                    .filter(|(b, c)| if higher { c > b } else { c < b })
                    .count(),
                pairs: values.len(),
                unresolved: base.q3 - base.q1 > metric.bound * base.median.abs(),
            });
        }
    }
    rows
}

/// `v` to four significant digits.
fn sig4(v: f64) -> String {
    let digits = if v == 0.0 {
        0
    } else {
        (3 - v.abs().log10().floor() as i32).max(0) as usize
    };
    format!("{v:.digits$}")
}

/// Reads a paired runs file, one [`Run`] per non-blank line.
fn load_runs(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

fn report_paired(path: &str) -> Result<(), String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let benchmark: Benchmark =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let runs = load_runs(path)?;
    let quart = |q: Quartiles| format!("{} [{}-{}]", sig4(q.median), sig4(q.q1), sig4(q.q3));
    println!(
        "{:<18} {:<12} {:>28} {:>28} {:>7} {:>6}",
        "workload", "metric", "base median [q1-q3]", "change median [q1-q3]", "ratio", "won"
    );
    for row in paired(&runs, &benchmark.end_to_end) {
        println!(
            "{:<18} {:<12} {:>28} {:>28} {:>7.3} {:>6}{}",
            row.workload,
            row.metric,
            quart(row.base),
            quart(row.change),
            row.ratio,
            format!("{}/{}", row.won, row.pairs),
            if row.unresolved { "  unresolved" } else { "" }
        );
    }
    for run in runs.iter().filter(|r| !r.run.correct || r.run.failed > 0) {
        println!(
            "{} pair {} {}: correct {}, {} failed op(s)",
            run.workload, run.pair, run.side, run.run.correct, run.run.failed
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--paired") {
        let [_, runs] = args.as_slice() else {
            eprintln!("usage: bench_gate --paired <runs.jsonl>");
            return ExitCode::FAILURE;
        };
        return match report_paired(runs) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bench_gate: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut max_regression = 0.20f64;
    let mut budgets: Vec<(String, f64)> = Vec::new();
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--max-regression" {
            let Some(v) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                eprintln!("bench_gate: --max-regression needs a numeric value");
                return ExitCode::FAILURE;
            };
            max_regression = v;
        } else if a == "--budget" {
            let Some(b) = it.next().and_then(|v| parse_budget(v)) else {
                eprintln!("bench_gate: --budget needs ID=FRAC (e.g. rf_campaign/checkpoint=0.03)");
                return ExitCode::FAILURE;
            };
            budgets.push(b);
        } else {
            files.push(a.clone());
        }
    }
    let [baseline_path, current_path] = files.as_slice() else {
        eprintln!(
            "usage: bench_gate <baseline.json> <current.json> \
             [--max-regression 0.20] [--budget ID=FRAC]..."
        );
        return ExitCode::FAILURE;
    };
    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("bench_gate: {err}");
            }
            return ExitCode::FAILURE;
        }
    };
    if gate(&baseline, &current, max_regression, &budgets) {
        eprintln!("bench_gate: at least one benchmark exceeded its regression budget");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, mean_ns: f64) -> Entry {
        Entry {
            id: id.to_string(),
            mean_ns,
        }
    }

    #[test]
    fn rows_without_a_throughput_load() {
        // `compile_speed` rows carry no `elements_per_sec`.
        let path =
            std::env::temp_dir().join(format!("bench_gate_rows_{}.json", std::process::id()));
        std::fs::write(
            &path,
            r#"{"group": "compile_speed", "benchmarks": [
                {"id": "rijndael/O0", "mean_ns": 681200.6, "iters": 5872}
            ]}"#,
        )
        .unwrap();
        let rows = load(path.to_str().unwrap());
        std::fs::remove_file(&path).ok();
        let rows = rows.expect("loads");
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].id.as_str(), rows[0].mean_ns),
            ("rijndael/O0", 681200.6)
        );
    }

    #[test]
    fn budget_arguments_parse_or_are_rejected() {
        assert_eq!(
            parse_budget("rf_campaign/checkpoint=0.03"),
            Some(("rf_campaign/checkpoint".to_string(), 0.03))
        );
        assert_eq!(parse_budget("id=0"), Some(("id".to_string(), 0.0)));
        assert_eq!(parse_budget("missing-frac"), None);
        assert_eq!(parse_budget("=0.1"), None);
        assert_eq!(parse_budget("id=notafloat"), None);
        assert_eq!(parse_budget("id=-0.5"), None);
        assert_eq!(parse_budget("id=inf"), None);
    }

    #[test]
    fn per_id_budget_overrides_the_global_threshold() {
        let baseline = [entry("a", 100.0), entry("b", 100.0)];
        // +10%: inside the 20% default, outside a 3% budget.
        let current = [entry("a", 110.0), entry("b", 110.0)];
        assert!(!gate(&baseline, &current, 0.20, &[]));
        assert!(gate(&baseline, &current, 0.20, &[("a".to_string(), 0.03)]));
        // Inside the budget passes.
        let current = [entry("a", 102.0), entry("b", 110.0)];
        assert!(!gate(&baseline, &current, 0.20, &[("a".to_string(), 0.03)]));
    }

    /// A runs-file line of `workload` with one metric value per name.
    fn run(pair: u64, side: &str, workload: &str, values: &[(&str, f64)]) -> String {
        let metrics: Vec<String> = values
            .iter()
            .map(|(name, v)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"s\"}}"))
            .collect();
        format!(
            "{{\"pair\": {pair}, \"side\": \"{side}\", \"workload\": \"{workload}\", \"run\": \
             {{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {{{}}}}}}}",
            metrics.join(", ")
        )
    }

    #[test]
    fn the_paired_report_summarizes_each_workload_and_metric() {
        let metrics = [
            Metric {
                name: "ops_per_s".into(),
                better: "higher".into(),
                bound: 0.25,
            },
            Metric {
                name: "setup_s".into(),
                better: "lower".into(),
                bound: 0.25,
            },
        ];
        // Four pairs on `fast`, sides alternating first; the change wins
        // ops_per_s in 3 of 4 (one tie) and setup_s, whose base spreads
        // wider than its bound, in 2. A base run without its change twin
        // and a second workload with other numbers are not mixed in.
        let ops = [(10.0, 20.0), (12.0, 18.0), (11.0, 11.0), (13.0, 26.0)];
        let setup = [(1.0, 0.5), (2.0, 3.0), (3.0, 2.0), (4.0, 5.0)];
        let mut lines = Vec::new();
        for (i, ((ob, oc), (sb, sc))) in ops.iter().zip(&setup).enumerate() {
            let pair = i as u64 + 1;
            let base = run(
                pair,
                "base",
                "fast",
                &[("ops_per_s", *ob), ("setup_s", *sb)],
            );
            let change = run(
                pair,
                "change",
                "fast",
                &[("ops_per_s", *oc), ("setup_s", *sc)],
            );
            if i % 2 == 0 {
                lines.extend([base, change]);
            } else {
                lines.extend([change, base]);
            }
        }
        lines.push(run(5, "base", "fast", &[("ops_per_s", 1000.0)]));
        lines.push(String::new());
        lines.push(run(1, "base", "slow", &[("ops_per_s", 1.0)]));
        lines.push(run(1, "change", "slow", &[("ops_per_s", 1.0)]));
        let path =
            std::env::temp_dir().join(format!("bench_gate_runs_{}.jsonl", std::process::id()));
        std::fs::write(&path, lines.join("\n")).unwrap();
        let runs = load_runs(path.to_str().unwrap());
        std::fs::remove_file(&path).ok();
        let runs = runs.expect("loads");
        assert_eq!(runs.len(), 11, "the blank line is skipped");
        let rows = paired(&runs, &metrics);
        let names: Vec<(&str, &str)> = rows
            .iter()
            .map(|r| (r.workload.as_str(), r.metric.as_str()))
            .collect();
        assert_eq!(
            names,
            [
                ("fast", "ops_per_s"),
                ("fast", "setup_s"),
                ("slow", "ops_per_s")
            ],
            "a metric no run of a workload reports gets no row"
        );
        let ops = &rows[0];
        assert_eq!(
            ops.base,
            Quartiles {
                q1: 10.75,
                median: 11.5,
                q3: 12.25
            }
        );
        assert_eq!(ops.change.median, 19.0);
        // Ratios 2.0, 1.5, 1.0, 2.0: median 1.75.
        assert_eq!(ops.ratio, 1.75);
        assert_eq!((ops.won, ops.pairs, ops.unresolved), (3, 4, false));
        let setup = &rows[1];
        assert_eq!(setup.base.median, 2.5);
        assert_eq!((setup.won, setup.pairs), (2, 4), "lower is better");
        assert!(setup.unresolved, "IQR 1.5 exceeds 0.25 x 2.5");
        assert_eq!((rows[2].won, rows[2].pairs, rows[2].ratio), (0, 1, 1.0));
    }

    #[test]
    fn missing_budgeted_id_fails_instead_of_passing_as_new_or_gone() {
        let with = [entry("a", 100.0)];
        let without: [Entry; 0] = [];
        // Unbudgeted ids on one side only never fail...
        assert!(!gate(&with, &without, 0.20, &[]));
        assert!(!gate(&without, &with, 0.20, &[]));
        // ...but a budgeted id must exist on both sides.
        let budget = [("a".to_string(), 0.03)];
        assert!(gate(&with, &without, 0.20, &budget));
        assert!(gate(&without, &with, 0.20, &budget));
    }
}
