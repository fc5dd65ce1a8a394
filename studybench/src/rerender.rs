//! `store-rerender`: a warm store holding every cell of the paper grid,
//! re-served through `Orchestrator::execute` (which must execute nothing)
//! and turned into the paper's aggregates: per-structure wAVF
//! (Figs. 2-9), `aggregate_cpu_fit` per ECC scheme (Figs. 10 and 12) and
//! FPE (Fig. 11). It is the read-side counterpart of `serve-small-cells`'
//! writes: the store's read path (file read, JSON parse, hash and key
//! check) and `analysis`.
//!
//! The cells are synthetic, generated from the seed: the figures only
//! need well-formed measurements, and simulating 64 cells would dominate
//! set-up.

use crate::layers::Layers;
use crate::{
    cells, digest, dir_bytes, fresh_dir, guarded, remove_dir, timed, Metric, Opts, Repeats, Report,
    Sabotage, Size,
};
use softerr::{
    cell_config_hash, CampaignResult, CellKey, CellResult, ClassCounts, EccScheme, OptLevel,
    Orchestrator, ResultStore, StudyConfig, StudyResults, Workload,
};
use std::path::Path;
use std::time::Instant;

/// Timed writes of the warm store (`setup_s`).
const SETUP_REPS: usize = 50;

/// The re-rendered study: the full paper grid (64 cells, 15 structures).
pub fn config(seed: u64, size: Size) -> StudyConfig {
    let mut cfg = StudyConfig {
        seed,
        ..StudyConfig::default()
    };
    if size == Size::Tiny {
        cfg.workloads = vec![Workload::Qsort, Workload::Sha];
        cfg.levels = vec![OptLevel::O0, OptLevel::O2];
    }
    cfg
}

/// SplitMix64: the synthetic cells' generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Well-formed synthetic measurements for every cell of `cfg`, a pure
/// function of its seed: per-machine structure sizes, and per cell a
/// golden run and one campaign of the plan's size per structure.
pub fn synthetic_cells(cfg: &StudyConfig) -> Vec<(CellKey, CellResult)> {
    let mut rng = SplitMix(cfg.seed);
    let n = cfg.plan.injections();
    let bits: Vec<Vec<u64>> = cfg
        .machines
        .iter()
        .map(|_| {
            cfg.structures
                .iter()
                .map(|_| 256 + rng.below(1 << 20))
                .collect()
        })
        .collect();
    cells(cfg)
        .into_iter()
        .map(|(machine, key)| {
            let m = cfg
                .machines
                .iter()
                .position(|c| c.name == machine.name)
                .expect("cell machine is in the config");
            let golden_cycles = 5_000 + rng.below(80_000);
            let campaigns = cfg
                .structures
                .iter()
                .zip(&bits[m])
                .map(|(&structure, &bit_population)| {
                    let sdc = rng.below(n / 4 + 1);
                    let crash = rng.below(n / 4 + 1);
                    let timeout = rng.below(3);
                    let assert_ = rng.below(3);
                    CampaignResult {
                        structure,
                        bit_population,
                        golden_cycles,
                        counts: ClassCounts {
                            masked: n - sdc - crash - timeout - assert_,
                            sdc,
                            crash,
                            timeout,
                            assert_,
                        },
                        weight: 1.0,
                        live_population: None,
                    }
                })
                .collect();
            let result = CellResult {
                golden_cycles,
                golden_retired: golden_cycles * (40 + rng.below(80)) / 100,
                code_words: 300 + rng.below(3_000),
                campaigns,
            };
            (key, result)
        })
        .collect()
}

/// The paper's aggregates over a study: per-structure wAVF for every
/// machine and level (Figs. 2-9), aggregate CPU FIT per ECC scheme
/// (Figs. 10 and 12) and FPE per cell and scheme (Fig. 11).
pub fn render(results: &StudyResults) -> Vec<f64> {
    let cfg = &results.config;
    let mut figures = Vec::new();
    for machine in results.machine_names() {
        for &level in &cfg.levels {
            for &s in &cfg.structures {
                figures.push(results.weighted_avf(&machine, level, s));
            }
            for ecc in EccScheme::ALL {
                figures.push(results.aggregate_cpu_fit(&machine, level, ecc));
                for &workload in &cfg.workloads {
                    figures.push(results.fpe(&machine, workload, level, ecc));
                }
            }
        }
    }
    figures
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Store counters of one re-render.
#[derive(Debug, Default)]
struct StoreCounts {
    misses: u64,
    read_errors: u64,
    quarantined: u64,
}

/// One op: re-serves every cell from the warm store through the
/// orchestrator (with an execution budget of zero, so a cell the store
/// cannot serve fails the op instead of being simulated) and renders the
/// figures. Fails unless every cell came from the store.
fn rerender(
    cfg: &StudyConfig,
    warm: &Path,
) -> Result<(StudyResults, Vec<f64>, StoreCounts), String> {
    let store = ResultStore::open(warm).map_err(|e| e.to_string())?;
    let orchestrator = Orchestrator::new(cfg.clone()).store(store).cell_budget(0);
    let served = orchestrator.execute(&|_| {});
    let store = orchestrator.result_store().expect("store attached");
    let counts = StoreCounts {
        misses: store.misses(),
        read_errors: store.read_errors(),
        quarantined: store.quarantined(),
    };
    let report = served.map_err(|e| format!("re-render: {e} ({counts:?})"))?;
    if report.executed != 0 || report.store_hits != report.cells || counts.misses != 0 {
        return Err(format!(
            "re-render executed {} cells, served {} of {} ({counts:?})",
            report.executed, report.store_hits, report.cells
        ));
    }
    let figures = render(&report.results);
    Ok((report.results, figures, counts))
}

/// Writes every generated cell into a store at `dir`, timing each save.
fn write_store(
    dir: &Path,
    generated: &[(CellKey, CellResult)],
    hashes: &[String],
    writes: &mut Repeats,
) -> Result<(), String> {
    let store = ResultStore::open(dir).map_err(|e| e.to_string())?;
    for ((key, result), hash) in generated.iter().zip(hashes) {
        let (saved, dt) = timed(|| store.save(hash, key, result));
        saved.map_err(|e| e.to_string())?;
        writes.record(format!("save/{key}"), dt);
    }
    Ok(())
}

/// Runs the re-render workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let cfg = config(opts.seed, opts.size);
    let generated = synthetic_cells(&cfg);
    let n = generated.len() as u64;
    let expected = StudyResults {
        config: cfg.clone(),
        cells: generated.clone(),
    };
    let expected_figures = render(&expected);
    let hashes: Vec<String> = cells(&cfg)
        .iter()
        .map(|(machine, key)| cell_config_hash(&cfg, machine, key.workload, key.level))
        .collect();

    // Set-up: write the warm store through `ResultStore::save`. After the
    // ops it is written `SETUP_REPS - 1` more times into a directory that
    // is removed after each copy, and `setup_s` sums each save's median
    // repeat. File-system stalls otherwise decide the figure: 64-cell
    // writes interleaved with the ops' reads took 29-43 ms, and a burst
    // of kept copies 9-37 ms from run to run; removed copies took 4-7 ms.
    let mut writes = Repeats::default();
    let warm = fresh_dir(opts, "warm")?;
    write_store(&warm, &generated, &hashes, &mut writes)?;
    if opts.sabotage == Sabotage::CorruptCell {
        let path = warm.join("cells").join(format!("{}.json", hashes[0]));
        std::fs::write(&path, "{\"corrupt").map_err(|e| e.to_string())?;
    }

    let mut report = Report {
        digest: digest(&expected),
        ..Report::default()
    };
    let mut op = Repeats::default();
    let mut traced = Repeats::default();
    let mut store_counts = StoreCounts::default();
    let mut load_bytes = 0u64;
    let mut passes = 0u64;
    let start = Instant::now();
    while passes < 2 || start.elapsed().as_secs_f64() < opts.seconds {
        let (out, dt) = timed(|| guarded("re-render", || rerender(&cfg, &warm)));
        report.ops(1, 0);
        match out {
            Ok((results, figures, counts)) => {
                op.record("op/render".to_string(), dt);
                store_counts.read_errors += counts.read_errors;
                store_counts.quarantined += counts.quarantined;
                if results != expected || !same_bits(&figures, &expected_figures) {
                    eprintln!("re-rendered figures differ from the generated cells'");
                    report.failed += 1;
                }
            }
            Err(e) => {
                if report.failed == 0 {
                    eprintln!("{e}");
                }
                report.failed += 1;
            }
        }
        if opts.trace {
            // The same op with span tracing on, for the overhead figure.
            softerr::set_tracing(true);
            let (out, dt) = timed(|| guarded("traced re-render", || rerender(&cfg, &warm)));
            drop(softerr::take_trace());
            if out.is_ok() {
                op.record("op_traced/render".to_string(), dt);
            }
            // Each layer timed from outside: one load per cell, then the
            // figures.
            let store = ResultStore::open(&warm).map_err(|e| e.to_string())?;
            let mut loaded = Vec::with_capacity(generated.len());
            load_bytes = 0;
            for ((key, _), hash) in generated.iter().zip(&hashes) {
                let (cell, dt) = timed(|| store.load(hash, key));
                traced.record(format!("load/{key}"), dt);
                load_bytes += std::fs::metadata(warm.join("cells").join(format!("{hash}.json")))
                    .map_or(0, |m| m.len());
                if let Some(cell) = cell {
                    loaded.push((key.clone(), cell));
                }
            }
            let results = StudyResults {
                config: cfg.clone(),
                cells: loaded,
            };
            let (figures, dt) = timed(|| render(&results));
            traced.record("render/all".to_string(), dt);
            report.ops(
                1,
                u64::from(results != expected || !same_bits(&figures, &expected_figures)),
            );
        }
        passes += 1;
    }
    for _ in 1..SETUP_REPS {
        let dir = fresh_dir(opts, "setup")?;
        write_store(&dir, &generated, &hashes, &mut writes)?;
        remove_dir(&dir);
    }

    if !opts.trace {
        let op_s = op.sum("op");
        report.metrics = vec![
            Metric {
                name: "ops_per_s",
                unit: "1/s",
                value: if op_s > 0.0 { 1.0 / op_s } else { 0.0 },
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: writes.sum("save"),
            },
        ];
        return Ok(report);
    }
    let mut layers = Layers::default();
    let (op_s, load_s, render_s) = (op.sum("op"), traced.sum("load"), traced.sum("render"));
    layers.set("core.sched.cells", n as f64);
    layers.set("core.sched.unattributed_s", op_s - load_s - render_s);
    layers.set("core.store.save_s", writes.sum("save"));
    layers.set("core.store.saves", n as f64);
    layers.set(
        "core.store.save_bytes",
        dir_bytes(&warm.join("cells")) as f64,
    );
    layers.set("core.store.load_s", load_s);
    layers.set("core.store.loads", n as f64);
    layers.set("core.store.load_bytes", load_bytes as f64);
    layers.set("core.store.misses", store_counts.misses as f64);
    layers.set("core.store.read_errors", store_counts.read_errors as f64);
    layers.set("core.store.quarantined", store_counts.quarantined as f64);
    layers.set("analysis.render_s", render_s);
    layers.set("analysis.cells", n as f64);
    if op_s > 0.0 {
        layers.set("telemetry.trace_overhead", op.sum("op_traced") / op_s - 1.0);
    }
    layers.set("telemetry.passes", passes as f64);
    report.metrics = layers.into_metrics();
    Ok(report)
}
