//! `grid-uniform` and `grid-importance`: the study itself, through
//! `Orchestrator::execute` with one cell worker, `threads: 1`,
//! checkpointing on and a store attached with `refresh(true)`, so every
//! pass executes and persists every cell.
//!
//! Both run the same slice of `StudyConfig::quick`: qsort at O0 and O2 on
//! both machines, all 15 structures. Four cells of 0.5-1 s each keep ops
//! short and passes many, and average the per-seed variation of child
//! simulation lengths over some 1000 faults. Under the importance plan
//! every cell holds one `l2.data` rejection-sampler call of seconds, which
//! is why `grid-importance` is not in `BENCHMARK.json` (see the README).

use crate::layers::{fill_pipeline, replicate_cell, timed_pipeline, Counts, Layers};
use crate::{
    cells, digest, dir_bytes, fresh_dir, guarded, out_of_time, prepare, setup_seconds, timed,
    Metric, Opts, Repeats, Report, Size,
};
use softerr::{
    CellKey, CellResult, MachineConfig, OptLevel, Orchestrator, PruneMode, ResultStore,
    SamplerKind, SamplingPlan, Structure, StudyConfig, StudyResults, Workload,
};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Set-up repetitions before each measured pass: a pass takes seconds and
/// one repetition tens of milliseconds, so several sample `setup_s` as
/// densely as the ops.
const SETUP_REPS: usize = 4;

/// The grid workloads' study configuration.
pub fn config(importance: bool, seed: u64, size: Size) -> StudyConfig {
    let plan = if importance {
        // EXPERIMENTS.md's importance configuration.
        SamplingPlan::adaptive(0.08, 25)
            .sampler(SamplerKind::Importance)
            .prune(PruneMode::On)
            .prune_static(PruneMode::On)
    } else {
        // The default plan at repro's `--scale quick` size.
        SamplingPlan::fixed(16)
    };
    let (machines, levels, structures) = match size {
        Size::Bench => (
            MachineConfig::paper_machines(),
            vec![OptLevel::O0, OptLevel::O2],
            Structure::ALL.to_vec(),
        ),
        Size::Tiny => (
            vec![MachineConfig::cortex_a15()],
            vec![OptLevel::O2],
            vec![Structure::RegFile, Structure::RobPc],
        ),
    };
    StudyConfig {
        machines,
        workloads: vec![Workload::Qsort],
        levels,
        structures,
        plan,
        threads: 1,
        checkpoint: true,
        ..StudyConfig::quick(seed)
    }
}

/// Runs a grid workload: interleaved passes until `opts.seconds`, each
/// [`SETUP_REPS`] set-up repetitions and an orchestrator pass (in a
/// traced run, an orchestrator pass and a replicated pass).
pub fn run(importance: bool, opts: &Opts) -> Result<Report, String> {
    let cfg = config(importance, opts.seed, opts.size);
    let n = cells(&cfg).len() as u64;
    let store_dir = fresh_dir(opts, "store")?;
    let traced_dir = fresh_dir(opts, "traced")?;
    let traced_store = ResultStore::open(&traced_dir).map_err(|e| e.to_string())?;

    let mut report = Report::default();
    let mut setup = Repeats::default();
    let mut op = Repeats::default();
    let mut traced = Repeats::default();
    let mut counts: Option<Counts> = None;
    let mut passes = 0u64;
    let start = Instant::now();
    loop {
        let pass_start = Instant::now();
        if !opts.trace {
            for _ in 0..SETUP_REPS {
                prepare(&cfg, &mut setup)?;
            }
        }
        report.ops(n, 0);
        let measured = match guarded("orchestrator pass", || orchestrator_pass(&cfg, &store_dir)) {
            Ok((results, times)) => {
                for (key, dt) in times {
                    op.record(format!("op/{key}"), dt);
                }
                report.check_digest(digest(&results), n);
                Some(results.cells)
            }
            Err(e) => {
                eprintln!("{e}");
                report.failed += n;
                None
            }
        };
        if opts.trace {
            let mut pass_counts = Counts::default();
            let replicated = guarded("replicated pass", || {
                replicate_study(&cfg, &traced_store, &mut traced, &mut pass_counts)
            });
            report.ops(n, 0);
            match replicated {
                Ok(out) if Some(&out) == measured.as_ref() => {}
                Ok(_) => {
                    eprintln!("replicated cells differ from the orchestrator's");
                    report.failed += n;
                }
                Err(e) => {
                    eprintln!("{e}");
                    report.failed += n;
                }
            }
            counts.get_or_insert(pass_counts);
        }
        passes += 1;
        if out_of_time(start, pass_start, passes, opts.seconds) {
            break;
        }
    }

    let op_s = op.sum("op");
    if !opts.trace {
        report.metrics = vec![
            Metric {
                name: "ops_per_s",
                unit: "1/s",
                value: if op_s > 0.0 { n as f64 / op_s } else { 0.0 },
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: setup_seconds(&setup),
            },
        ];
        return Ok(report);
    }
    let counts = counts.unwrap_or_default();
    let mut layers = Layers::default();
    fill_pipeline(&mut layers, &traced, &counts, &cfg);
    let save_s = traced.sum("save");
    layers.set("core.store.save_s", save_s);
    layers.set("core.store.saves", n as f64);
    layers.set(
        "core.store.save_bytes",
        dir_bytes(&traced_dir.join("cells")) as f64,
    );
    layers.set(
        "core.sched.unattributed_s",
        op_s - (timed_pipeline(&traced) + save_s),
    );
    if op_s > 0.0 {
        layers.set(
            "telemetry.trace_overhead",
            traced.sum("cell_traced") / op_s - 1.0,
        );
    }
    layers.set("telemetry.passes", passes as f64);
    report.metrics = layers.into_metrics();
    Ok(report)
}

/// Every cell of `cfg` through [`replicate_cell`] with tracing on, each
/// persisted to `store` with the save timed as `save/`; `cell_traced/`
/// gets each cell's traced wall time.
fn replicate_study(
    cfg: &StudyConfig,
    store: &ResultStore,
    timings: &mut Repeats,
    counts: &mut Counts,
) -> Result<Vec<(CellKey, CellResult)>, String> {
    let mut out = Vec::new();
    for (machine, key) in cells(cfg) {
        let (result, wall) = replicate_cell(cfg, machine, &key, timings, counts)?;
        let hash = softerr::cell_config_hash(cfg, machine, key.workload, key.level);
        let (saved, dt) = timed(|| store.save(&hash, &key, &result));
        saved.map_err(|e| e.to_string())?;
        timings.record(format!("save/{key}"), dt);
        timings.record(format!("cell_traced/{key}"), wall + dt);
        out.push((key, result));
    }
    Ok(out)
}

/// One measured pass: `Orchestrator::execute` over the whole slice. Each
/// cell is timed from outside, between consecutive progress callbacks
/// (the orchestrator reports a cell once it is persisted).
fn orchestrator_pass(
    cfg: &StudyConfig,
    store_dir: &Path,
) -> Result<(StudyResults, Vec<(CellKey, f64)>), String> {
    let store = ResultStore::open(store_dir).map_err(|e| e.to_string())?;
    let stamps = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let report = Orchestrator::new(cfg.clone())
        .cell_workers(1)
        .store(store)
        .refresh(true)
        .execute(&|_| stamps.lock().expect("stamps").push(Instant::now()))
        .map_err(|e| e.to_string())?;
    let stamps = stamps.into_inner().expect("stamps");
    if report.executed != report.cells || stamps.len() != report.cells {
        return Err(format!(
            "pass executed {} of {} cells",
            report.executed, report.cells
        ));
    }
    let mut prev = t0;
    let times = report
        .results
        .cells
        .iter()
        .zip(&stamps)
        .map(|((key, _), &t)| {
            let dt = t.duration_since(prev).as_secs_f64();
            prev = t;
            (key.clone(), dt)
        })
        .collect();
    Ok((report.results, times))
}

/// The one-shot decomposition: the traced pipeline once over the full
/// 64-cell quick grid (`repro --scale quick`), returning a table of layers
/// whose rows sum to the sweep's measured wall time (the golden-advance
/// probes run after each cell and are excluded from it).
pub fn decompose(importance: bool, opts: &Opts) -> Result<String, String> {
    std::fs::create_dir_all(&opts.work_dir).map_err(|e| e.to_string())?;
    softerr::telemetry::set_max_level(Some(softerr::Level::Error));
    let slice = config(importance, opts.seed, Size::Bench);
    let cfg = StudyConfig {
        plan: slice.plan,
        seed: opts.seed,
        threads: 1,
        checkpoint: true,
        ..StudyConfig::default()
    };
    let store = ResultStore::open(opts.work_dir.join("decompose")).map_err(|e| e.to_string())?;
    let mut timings = Repeats::default();
    let mut counts = Counts::default();
    let start = Instant::now();
    replicate_study(&cfg, &store, &mut timings, &mut counts)?;
    // The golden-advance probes run inside the loop but are not part of
    // the study.
    let wall = start.elapsed().as_secs_f64() - timings.sum("advance");
    crate::remove_dir(&opts.work_dir);

    let classify: Vec<(&str, f64)> = ["cache", "rf", "queues", "rob"]
        .iter()
        .map(|g| (*g, timings.sum(&format!("classify.{g}"))))
        .collect();
    let staged =
        timings.sum("sample") + timings.sum("prune") + classify.iter().map(|(_, v)| v).sum::<f64>();
    let mut rows = vec![
        ("cc: compile", timings.sum("compile")),
        ("sim: golden run", timings.sum("golden")),
        ("sim: liveness and masks", timings.sum("liveness")),
        ("inject: sampling", timings.sum("sample")),
        ("inject: pruning", timings.sum("prune")),
    ];
    for (group, secs) in &classify {
        rows.push((
            match *group {
                "cache" => "inject: convoy, cache arrays",
                "rf" => "inject: convoy, register file",
                "queues" => "inject: convoy, LQ/SQ/IQ",
                _ => "inject: convoy, ROB",
            },
            *secs,
        ));
    }
    rows.push((
        "inject: campaign outside stage spans",
        timings.sum("campaign") - staged,
    ));
    rows.push(("core.store: save", timings.sum("save")));
    let accounted: f64 = rows.iter().map(|(_, v)| v).sum();
    rows.push((
        "unattributed (benchmark loop, trace drains)",
        wall - accounted,
    ));

    let mut out = format!(
        "64-cell quick grid, {} plan, seed {}: {} cells, {} faults, wall {:.2} s\n\n\
         | layer | seconds | share |\n|---|---:|---:|\n",
        if importance { "importance" } else { "uniform" },
        opts.seed,
        counts.cells,
        counts.faults,
        wall
    );
    for (name, secs) in &rows {
        out += &format!("| {name} | {secs:.3} | {:.1}% |\n", 100.0 * secs / wall);
    }
    out += &format!("| **total (measured wall)** | **{wall:.3}** | 100.0% |\n");
    out += &format!(
        "\nGolden advance inside the convoy rows (one-fault probe at the last golden \
         cycle, times the structures per cell): {:.3} s. Convoy: {} forks, {} converged, \
         {} graduated.\n\n| structure | campaign s | sampling s | convoy s |\n|---|---:|---:|---:|\n",
        timings.sum("advance") * cfg.structures.len() as f64,
        counts.forks,
        counts.converged,
        counts.graduated
    );
    for s in &cfg.structures {
        let name = s.name();
        out += &format!(
            "| {name} | {:.3} | {:.3} | {:.3} |\n",
            timings.sum_suffix("campaign", name),
            timings.sum_suffix("sample", name),
            timings.sum_suffix(crate::layers::group(*s), name)
        );
    }
    Ok(out)
}
