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

use serde::Deserialize;
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
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
