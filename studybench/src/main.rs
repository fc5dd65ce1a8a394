//! Command line of the study benchmark.
//!
//! ```text
//! studybench --workload NAME --seed N --seconds S --trace 0|1
//! studybench --decompose uniform|importance [--seed N]
//! ```
//!
//! The first form prints one JSON object as its last line of standard
//! output: `{"correct", "attempted", "failed", "metrics"}`, with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The second runs the traced pipeline once over the full
//! 64-cell quick grid and prints a table of layers that sum to its wall
//! time.

use softerr_studybench::{grid, run, BenchWorkload, Opts, Sabotage, Size, DEFAULT_SEED};
use std::process::ExitCode;

const USAGE: &str =
    "usage: studybench --workload grid-uniform|grid-importance|serve-small-cells|store-rerender \
--seed N --seconds S --trace 0|1\n       studybench --decompose uniform|importance [--seed N]";

fn main() -> ExitCode {
    match main_inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("studybench: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn main_inner() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut decompose = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    BenchWorkload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--decompose" => decompose = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && f64::is_finite(seconds)) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let work_dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .join(format!("studybench-work-{}", std::process::id()));
    let opts = Opts {
        seed,
        seconds,
        trace,
        size: Size::Bench,
        work_dir,
        sabotage: Sabotage::None,
    };
    if let Some(plan) = decompose {
        let importance = match plan.as_str() {
            "uniform" => false,
            "importance" => true,
            other => {
                return Err(format!(
                    "--decompose takes uniform or importance, not {other}"
                ))
            }
        };
        println!("{}", grid::decompose(importance, &opts)?);
        return Ok(());
    }
    let workload = workload.ok_or("--workload is required")?;
    let report = run(workload, &opts)?;
    eprintln!(
        "{}: seed {seed}, {} ops, {} failed, digest {}",
        workload.name(),
        report.attempted,
        report.failed,
        report.digest
    );
    println!("{}", report.to_json());
    Ok(())
}
