//! The study benchmark: drives the softerr study through its public entry
//! points and reports end-to-end metrics (tracing off) or per-layer
//! metrics (a separate traced run). See `README.md` in this directory for
//! the workloads, the metric definitions and why each one was chosen.
//!
//! Every timed op repeats in interleaved passes within a run, and a
//! metric is computed from each op's *median* repeat: identical
//! deterministic work on a small shared host varies by up to 2x in wall
//! time, and the rare fast repeats that set a minimum come and go from
//! run to run, while the median stays put.

use softerr::{
    fnv1a, CampaignConfig, CellKey, Compiled, Compiler, Injector, MachineConfig, OptLevel,
    SamplingPlan, StudyConfig, StudyResults, Workload,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub mod grid;
pub mod layers;
pub mod rerender;
pub mod serve;

/// The seed used while the benchmark was written: [`REFERENCE_DIGESTS`]
/// hold its results. Claims should also be re-checked on other seeds.
pub const DEFAULT_SEED: u64 = 1;

/// Result digests of each workload at [`DEFAULT_SEED`] and [`Size::Bench`]:
/// simulated results are deterministic per seed, so a run at the default
/// seed must reproduce them exactly.
pub const REFERENCE_DIGESTS: [(&str, &str); 4] = [
    ("grid-uniform", "b323bd8a15809ce7"),
    ("grid-importance", "dd978a0786d28ccb"),
    ("serve-small-cells", "b0ca3eb854d1fb52"),
    ("store-rerender", "9296a1ea35f8f58f"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchWorkload {
    /// The paper's uniform-sampling method on a slice of the quick grid.
    GridUniform,
    /// Importance sampling with liveness and demand pruning, same slice.
    GridImportance,
    /// Many tiny cells served over loopback to two workers.
    ServeSmallCells,
    /// Warm-store re-render of the full paper grid's figures.
    StoreRerender,
}

impl BenchWorkload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [BenchWorkload; 4] = [
        BenchWorkload::GridUniform,
        BenchWorkload::GridImportance,
        BenchWorkload::ServeSmallCells,
        BenchWorkload::StoreRerender,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            BenchWorkload::GridUniform => "grid-uniform",
            BenchWorkload::GridImportance => "grid-importance",
            BenchWorkload::ServeSmallCells => "serve-small-cells",
            BenchWorkload::StoreRerender => "store-rerender",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<BenchWorkload> {
        BenchWorkload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's own, or a tiny one for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Bench,
    /// Few cells and structures, so a debug build finishes in seconds.
    Tiny,
}

/// Test-only faults the self-test injects to prove failures are counted
/// rather than fatal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sabotage {
    /// Run honestly.
    #[default]
    None,
    /// Corrupt one warm-store cell before the first re-render.
    CorruptCell,
    /// Have the traced wire worker send one forged submission.
    ForgedSubmit,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Measurement time budget.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a measured run.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Scratch directory; created, and removed again by [`run`].
    pub work_dir: PathBuf,
    /// Test-only failure injection.
    pub sabotage: Sabotage,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed: a mismatch, an error, a caught panic, a rejected
    /// submission or a re-granted lease.
    pub failed: u64,
    /// Digest of the run's results (equal across passes, or the run
    /// counted a failure).
    pub digest: String,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Whether every checked output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The last line the benchmark prints.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                    json_str(m.name),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Counts `n` ops, `bad` of which failed.
    pub(crate) fn ops(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Sets the run digest, or counts `n` failed ops when it differs from
    /// an earlier pass's.
    pub(crate) fn check_digest(&mut self, digest: String, n: u64) -> bool {
        if self.digest.is_empty() {
            self.digest = digest;
            true
        } else if self.digest != digest {
            eprintln!(
                "digest {digest} differs from the run's first {}",
                self.digest
            );
            self.failed += n;
            false
        } else {
            true
        }
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("strings serialize")
}

/// Runs one workload and returns its report. Hard set-up failures (no
/// scratch directory, a broken program) are errors; failed ops are
/// counted in the report instead.
///
/// # Errors
///
/// A description of a failure that leaves nothing to measure.
pub fn run(workload: BenchWorkload, opts: &Opts) -> Result<Report, String> {
    softerr::telemetry::set_max_level(Some(softerr::Level::Error));
    std::fs::create_dir_all(&opts.work_dir).map_err(|e| format!("work dir: {e}"))?;
    let result = match workload {
        BenchWorkload::GridUniform => grid::run(false, opts),
        BenchWorkload::GridImportance => grid::run(true, opts),
        BenchWorkload::ServeSmallCells => serve::run(opts),
        BenchWorkload::StoreRerender => rerender::run(opts),
    };
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    let mut report = result?;
    if opts.size == Size::Bench && opts.seed == DEFAULT_SEED {
        let expected = REFERENCE_DIGESTS
            .iter()
            .find(|(name, _)| *name == workload.name())
            .map(|(_, d)| *d)
            .unwrap_or("");
        if !expected.is_empty() && report.digest != expected {
            eprintln!(
                "digest {} differs from the reference {expected} recorded for seed {DEFAULT_SEED}",
                report.digest
            );
            report.failed = report.attempted;
        }
    }
    if !opts.trace {
        report.metrics.push(Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: peak_rss_mb(),
        });
    }
    Ok(report)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds this process has used so far (user + system).
pub(crate) fn process_cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in USER_HZ ticks (100 on Linux).
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            let rest = &stat[stat.rfind(')')? + 2..];
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = fields.get(11)?.parse().ok()?;
            let stime: f64 = fields.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Runs `f` and returns its result with the seconds it took.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Every repeat of each timed op, keyed `"<layer>/<op>"`. Metrics use
/// each op's median repeat.
#[derive(Debug, Default)]
pub(crate) struct Repeats(BTreeMap<String, Vec<f64>>);

impl Repeats {
    pub(crate) fn record(&mut self, key: String, secs: f64) {
        self.0.entry(key).or_default().push(secs);
    }

    /// Sum of the median repeats of the ops of `layer` whose key ends with
    /// `suffix`.
    fn sum_matching(&self, layer: &str, suffix: &str) -> f64 {
        let prefix = format!("{layer}/");
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix) && k.ends_with(suffix))
            .fold(0.0, |sum, (_, repeats)| sum + median(repeats))
    }

    /// Sum of the median repeats of every op of `layer`.
    pub(crate) fn sum(&self, layer: &str) -> f64 {
        self.sum_matching(layer, "")
    }

    /// Sum of the median repeats of the ops of `layer` whose key ends with
    /// `/suffix`.
    pub(crate) fn sum_suffix(&self, layer: &str, suffix: &str) -> f64 {
        self.sum_matching(layer, &format!("/{suffix}"))
    }

    /// Number of distinct ops recorded for `layer`.
    pub(crate) fn count(&self, layer: &str) -> usize {
        let prefix = format!("{layer}/");
        self.0.keys().filter(|k| k.starts_with(&prefix)).count()
    }
}

/// The median of `samples` (0 when empty).
pub(crate) fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// FNV-1a digest of a study's serialized results.
pub(crate) fn digest(results: &StudyResults) -> String {
    let json = serde_json::to_string(results).expect("results serialize");
    format!("{:016x}", fnv1a(json.as_bytes()))
}

/// The grid cells of `cfg` in plan order, with their machines.
pub(crate) fn cells(cfg: &StudyConfig) -> Vec<(&MachineConfig, CellKey)> {
    let mut cells = Vec::new();
    for machine in &cfg.machines {
        for &workload in &cfg.workloads {
            for &level in &cfg.levels {
                cells.push((
                    machine,
                    CellKey {
                        machine: machine.name.clone(),
                        workload,
                        level,
                    },
                ));
            }
        }
    }
    cells
}

/// Whether a plan builds the golden run's liveness map.
pub(crate) fn uses_liveness(plan: &SamplingPlan) -> bool {
    plan.sampler.is_importance() || plan.prune.any_on() || plan.prune.any_verify()
}

/// The campaign configuration every cell of `cfg` runs, as the
/// orchestrator derives it.
pub(crate) fn campaign_config(cfg: &StudyConfig) -> CampaignConfig {
    CampaignConfig {
        plan: cfg.plan,
        seed: cfg.seed,
        threads: cfg.threads,
        checkpoint: cfg.checkpoint,
    }
}

/// Compiles one cell's program.
pub(crate) fn compile(
    machine: &MachineConfig,
    workload: Workload,
    level: OptLevel,
    cfg: &StudyConfig,
) -> Result<Compiled, String> {
    Compiler::new(machine.profile, level)
        .compile(&workload.source(cfg.scale))
        .map_err(|e| format!("{workload} at {level}: {e}"))
}

/// One repetition of the fault-free preparation every study pays before
/// its first injection, each call timed into `setup`: `Compiler::compile`
/// per unit, the golden run (`Injector::new`) per cell, and
/// `Injector::liveness` where the plan samples or prunes by liveness.
/// Runs interleave repetitions with their passes, so `setup_s` (see
/// [`setup_seconds`]) is as robust to host slowdowns as the ops are.
pub(crate) fn prepare(cfg: &StudyConfig, setup: &mut Repeats) -> Result<(), String> {
    for (machine, key) in cells(cfg) {
        let (compiled, dt) = timed(|| compile(machine, key.workload, key.level, cfg));
        let compiled = compiled?;
        setup.record(format!("compile/{key}"), dt);
        let (injector, dt) = timed(|| Injector::new(machine, &compiled.program));
        let injector = injector.map_err(|e| format!("{key}: {e}"))?;
        setup.record(format!("golden/{key}"), dt);
        if uses_liveness(&cfg.plan) {
            let (_, dt) = timed(|| {
                std::hint::black_box(injector.liveness());
            });
            setup.record(format!("liveness/{key}"), dt);
        }
    }
    Ok(())
}

/// `setup_s`: the sum of each preparation call's median repetition.
pub(crate) fn setup_seconds(setup: &Repeats) -> f64 {
    setup.sum("compile") + setup.sum("golden") + setup.sum("liveness")
}

/// Whether a run that started at `start` should stop after the pass that
/// started at `pass_start`: at least two passes, and no pass that would
/// likely end past `seconds`.
pub(crate) fn out_of_time(start: Instant, pass_start: Instant, passes: u64, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    let next = (elapsed / passes as f64).min(pass_start.elapsed().as_secs_f64());
    passes >= 2 && elapsed + next > seconds
}

/// A fresh, empty directory under the run's scratch directory.
pub(crate) fn fresh_dir(opts: &Opts, name: &str) -> Result<PathBuf, String> {
    let dir = opts.work_dir.join(name);
    remove_dir(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

pub(crate) fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Total size of the regular files directly under `dir`.
pub(crate) fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Catches a panic in one op so it counts as a failure instead of
/// aborting the run.
pub(crate) fn guarded<T>(what: &str, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            Err(format!("{what} panicked: {msg}"))
        }
    }
}
