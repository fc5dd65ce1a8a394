//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p softerr-bench --bin repro -- all --scale quick
//! cargo run --release -p softerr-bench --bin repro -- fig5 --injections 200
//! ```
//!
//! Completed study cells are persisted in a content-addressed result store
//! under `--results` (keyed by the full cell configuration), so individual
//! figures re-render instantly after the first run and a killed study
//! resumes from the cells it already finished.

use softerr::{
    ace_estimate, telemetry, weighted_avf, AceEstimate, Coordinator, EccScheme, FaultClass,
    MachineConfig, OptLevel, Orchestrator, PassConfig, PruneMode, PrunePolicy, ResultStore,
    SamplerKind, SamplingPlan, Scale, StopRule, Structure, StudyConfig, StudyResults, Table,
    Workload,
};
use softerr::{event, Level};
use std::io::Write;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        return;
    }
    let command = args[0].clone();
    if command == "serve" {
        // `serve` has its own flags on top of the generic options, so it
        // parses before the strict Options::parse sees them.
        serve_cmd(&args[1..]);
        return;
    }
    let opts = Options::parse(&args[1..]);
    // Progress events are part of repro's normal chatter; `--quiet` drops
    // them back to silence and `--log-json` reroutes them as JSONL.
    if opts.quiet {
        telemetry::set_max_level(None);
    } else {
        telemetry::set_max_level(Some(Level::Info));
    }
    if opts.log_json {
        telemetry::install_sink(Box::new(telemetry::JsonlSink::stderr()));
    }
    match command.as_str() {
        "table1" => table1(),
        "fig1" => fig1(&opts),
        "fig9" => fig9(&opts),
        "fig10" => fig10(&opts),
        "fig11" => fig11(&opts),
        "fig12" => fig12(&opts),
        "ablation-opt" => ablation_opt(&opts),
        "ablation-size" => ablation_size(&opts),
        "mbu" => mbu(&opts),
        "ace" => ace_sweep(&opts),
        "vuln" => vuln(&opts),
        "sampling" => sampling(&opts),
        "metrics" => metrics(&opts),
        "profile" => profile_cmd(&opts),
        "all" => {
            table1();
            fig1(&opts);
            for (_, title, structures) in AVF_FIGURES {
                avf_figure(&opts, title, structures);
            }
            fig9(&opts);
            fig10(&opts);
            fig11(&opts);
            fig12(&opts);
        }
        other => match AVF_FIGURES.iter().find(|(name, ..)| *name == other) {
            Some((_, title, structures)) => avf_figure(&opts, title, structures),
            None => {
                eprintln!("unknown command `{other}`\n");
                usage();
                std::process::exit(1);
            }
        },
    }
}

/// The per-structure AVF figures (paper Figs 2-8): command, title and the
/// structures each plots.
const AVF_FIGURES: [(&str, &str, &[Structure]); 7] = [
    (
        "fig2",
        "Fig 2: L1 Instruction Cache AVF",
        &[Structure::L1IData, Structure::L1ITag],
    ),
    (
        "fig3",
        "Fig 3: L1 Data Cache AVF",
        &[Structure::L1DData, Structure::L1DTag],
    ),
    (
        "fig4",
        "Fig 4: L2 Cache AVF",
        &[Structure::L2Data, Structure::L2Tag],
    ),
    (
        "fig5",
        "Fig 5: Physical Register File AVF",
        &[Structure::RegFile],
    ),
    (
        "fig6",
        "Fig 6: Load Queue and Store Queue AVF",
        &[Structure::LoadQueue, Structure::StoreQueue],
    ),
    (
        "fig7",
        "Fig 7: Issue Queue AVF (source field)",
        &[Structure::IqSrc, Structure::IqDest],
    ),
    (
        "fig8",
        "Fig 8: Reorder Buffer AVF (PC field)",
        &[
            Structure::RobPc,
            Structure::RobDest,
            Structure::RobSeq,
            Structure::RobFlags,
        ],
    ),
];

fn usage() {
    eprintln!("repro — regenerate the paper's tables and figures\n");
    eprintln!("commands:");
    eprintln!("  table1           machine configurations (paper Table I)");
    eprintln!("  fig1             relative performance of O0-O3");
    eprintln!("  fig2..fig8       per-structure AVF (L1I, L1D, L2, RF, LQ/SQ, IQ, ROB)");
    eprintln!("  fig9             weighted-AVF delta of O1/O2/O3 vs O0 per structure");
    eprintln!("  fig10            per-benchmark CPU FIT split by fault class");
    eprintln!("  fig11            failures-per-execution normalized to O0");
    eprintln!("  fig12            CPU FIT under ECC configurations");
    eprintln!("  ablation-opt     single-pass ablations of O2 (perf + RF AVF)");
    eprintln!("  ablation-size    ROB/IQ size sweep (perf + ROB AVF)");
    eprintln!("  mbu              multi-bit-upset extension (1/2/4-bit bursts)");
    eprintln!("  ace              static ACE/bit-liveness AVF sweep (no injections)");
    eprintln!("  vuln             static bit-demand masked fraction vs injected RF AVF,");
    eprintln!("                   with liveness-only vs +static prune rates per cell");
    eprintln!("  sampling         uniform vs importance sampling at equal target margin:");
    eprintln!("                   AVF +/- margin and forked child sims per grid cell");
    eprintln!("  metrics          golden-run microarchitectural counters sweep");
    eprintln!("  profile          stage-attribution wall-time profile of the full study grid");
    eprintln!("                   (8 workloads x O0-O3 x both machines; --trace FILE exports");
    eprintln!("                   the span timeline as Chrome trace-event JSON)");
    eprintln!("  serve            coordinate the study grid for remote `campaign worker`");
    eprintln!("                   processes (--listen ADDR, --spawn-workers N to fork local");
    eprintln!("                   workers, --check-serial to assert bit-identity with a");
    eprintln!("                   serial run, --progress-log FILE for forensics JSONL)");
    eprintln!("  all              everything above (except ablations/mbu/ace/vuln/metrics)\n");
    eprintln!("options:");
    eprintln!("  --scale quick|default|paper   campaign size (default: quick)");
    eprintln!("  --injections N                override injections per cell");
    eprintln!("  --seed N                      campaign seed (default 20240704)");
    eprintln!("  --threads N                   worker threads per campaign (default 1)");
    eprintln!("  --jobs N                      concurrent study cells (default 1; 0 = all cores)");
    eprintln!("  --prune off|on|verify         skip provably-masked faults via golden-run");
    eprintln!("                                liveness (verify, on either prune stage, then");
    eprintln!("                                re-classifies every fault on the fresh engine");
    eprintln!("                                and, under importance sampling, cross-checks");
    eprintln!("                                the AVF against a uniform campaign)");
    eprintln!("  --prune-static off|on|verify  additionally skip faults the compiler's static");
    eprintln!("                                bit-demand analysis proves masked");
    eprintln!("  --target-margin F             adaptive sampling: draw until the 99% error");
    eprintln!("                                margin is <= F (overrides --injections)");
    eprintln!("  --sampler KIND                uniform|importance: draw from");
    eprintln!("                                the full population or the live subpopulation");
    eprintln!("                                (Horvitz-Thompson-reweighted estimates)");
    eprintln!("  --results DIR                 result-store root (default target/softerr-store)");
    eprintln!("  --fresh                       ignore stored results (re-execute every cell)");
    eprintln!("  --estimate ace                print static ACE AVF beside injected (figs 2-8)");
    eprintln!("  --trace FILE                  (profile) export spans as Chrome trace-event JSON");
    eprintln!("  --quiet                       suppress progress/warning events");
    eprintln!("  --log-json                    emit progress/warning events as JSONL on stderr");
}

#[derive(Debug, Clone)]
struct Options {
    scale: Scale,
    injections: u64,
    seed: u64,
    threads: usize,
    jobs: usize,
    prune: PruneMode,
    prune_static: PruneMode,
    target_margin: Option<f64>,
    sampler: SamplerKind,
    results_dir: PathBuf,
    fresh: bool,
    estimate_ace: bool,
    trace: Option<PathBuf>,
    quiet: bool,
    log_json: bool,
}

impl Options {
    fn parse(args: &[String]) -> Options {
        let mut opts = Options {
            scale: Scale::Tiny,
            injections: 16,
            seed: 20_240_704,
            threads: 1,
            jobs: 1,
            prune: PruneMode::Off,
            prune_static: PruneMode::Off,
            target_margin: None,
            sampler: SamplerKind::Uniform,
            results_dir: PathBuf::from("target/softerr-store"),
            fresh: false,
            estimate_ace: false,
            trace: None,
            quiet: false,
            log_json: false,
        };
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].clone();
            let mut next = || -> String {
                i += 1;
                or_exit(args.get(i).ok_or("missing value"), &flag).clone()
            };
            match flag.as_str() {
                "--scale" => match next().as_str() {
                    "quick" => {
                        opts.scale = Scale::Tiny;
                        opts.injections = 16;
                    }
                    "default" => {
                        opts.scale = Scale::Tiny;
                        opts.injections = 100;
                    }
                    "paper" => {
                        opts.scale = Scale::Full;
                        opts.injections = 2000;
                    }
                    other => {
                        eprintln!("unknown scale `{other}`");
                        std::process::exit(1);
                    }
                },
                "--injections" => opts.injections = or_exit(next().parse(), &flag),
                "--seed" => opts.seed = or_exit(next().parse(), &flag),
                "--threads" => opts.threads = or_exit(next().parse(), &flag),
                "--jobs" => opts.jobs = or_exit(next().parse(), &flag),
                "--prune" => opts.prune = or_exit(next().parse(), &flag),
                "--prune-static" => opts.prune_static = or_exit(next().parse(), &flag),
                "--target-margin" => {
                    let target: f64 = or_exit(next().parse(), &flag);
                    if !(target > 0.0 && target < 1.0) {
                        eprintln!("--target-margin must be in (0, 1), got {target}");
                        std::process::exit(1);
                    }
                    opts.target_margin = Some(target);
                }
                "--sampler" => opts.sampler = or_exit(next().parse(), &flag),
                "--results" => opts.results_dir = PathBuf::from(next()),
                "--trace" => opts.trace = Some(PathBuf::from(next())),
                "--fresh" => opts.fresh = true,
                "--quiet" => opts.quiet = true,
                "--log-json" => opts.log_json = true,
                "--estimate" => match next().as_str() {
                    "ace" => opts.estimate_ace = true,
                    other => {
                        eprintln!("unknown estimator `{other}` (ace)");
                        std::process::exit(1);
                    }
                },
                other => {
                    eprintln!("unknown option `{other}`");
                    std::process::exit(1);
                }
            }
            i += 1;
        }
        opts
    }

    /// The sampling plan every campaign in this invocation runs under,
    /// with `min_injections` as the floor some commands impose on the
    /// fixed count (or adaptive batch size).
    fn plan(&self, min_injections: u64) -> SamplingPlan {
        let n = self.injections.max(min_injections);
        let plan = SamplingPlan {
            sampler: self.sampler,
            stop: match self.target_margin {
                Some(target) => StopRule::TargetMargin { target, batch: n },
                None => StopRule::FixedN(n),
            },
            prune: PrunePolicy {
                liveness: self.prune,
                demand: self.prune_static,
            },
        };
        or_exit(plan.validate(), "invalid sampling configuration");
        plan
    }
}

/// The value of `result`, or, when it failed, `error: {what}: {e}` on
/// stderr and exit code 1: a bad flag value or an invalid study is the
/// caller's mistake, not a bug to panic over.
fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>, what: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {what}: {e}");
        std::process::exit(1)
    })
}

/// Runs (or re-serves from the result store) the full study grid.
///
/// Every completed (machine, workload, level) cell is persisted in the
/// content-addressed store under `--results`, keyed by the full cell
/// configuration, so a second invocation with the same parameters executes
/// zero campaigns and a killed study resumes from its completed cells.
/// `--fresh` skips store *reads* (every cell re-executes and overwrites).
fn study(opts: &Options) -> StudyResults {
    let config = study_config(opts);
    let store = or_exit(ResultStore::open(&opts.results_dir), "result store");
    event!(
        Level::Info,
        "repro.study",
        { injections: config.total_injections(), store: store.root().display().to_string() },
        "running study: {} injections total (result store: {})",
        config.total_injections(),
        store.root().display()
    );
    let study = Orchestrator::new(config)
        .cell_workers(opts.jobs)
        .store(store)
        .refresh(opts.fresh)
        .run();
    or_exit(study, "study")
}

/// The full paper grid the generic options describe (shared by the local
/// `study()` runner and the distributed `serve` command, so a distributed
/// run answers for exactly the study a local one would), checked before
/// anything runs.
fn study_config(opts: &Options) -> StudyConfig {
    let config = StudyConfig {
        scale: opts.scale,
        plan: opts.plan(1),
        seed: opts.seed,
        threads: opts.threads,
        ..StudyConfig::default()
    };
    or_exit(config.validate(), "invalid study configuration");
    config
}

// ---------------------------------------------------------------- serve --

/// `repro serve` — coordinate the study grid for `campaign worker`
/// processes. With `--spawn-workers N` the coordinator forks N local
/// workers (the sibling `campaign` binary); with `--check-serial` it
/// re-runs the study serially afterwards and asserts the distributed
/// store cells and results are bit-identical.
fn serve_cmd(args: &[String]) {
    let mut listen = "127.0.0.1:0".to_string();
    let mut spawn_workers = 0usize;
    let mut check_serial = false;
    let mut progress_log: Option<PathBuf> = None;
    let mut lease_ms = 60_000u64;
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let mut next = || -> String {
            i += 1;
            or_exit(args.get(i).ok_or("missing value"), &flag).clone()
        };
        match flag.as_str() {
            "--listen" => listen = next(),
            "--spawn-workers" => spawn_workers = or_exit(next().parse(), &flag),
            "--lease-ms" => lease_ms = or_exit(next().parse(), &flag),
            "--progress-log" => progress_log = Some(PathBuf::from(next())),
            "--check-serial" => check_serial = true,
            _ => rest.push(flag),
        }
        i += 1;
    }
    let opts = Options::parse(&rest);
    if opts.quiet {
        telemetry::set_max_level(None);
    } else {
        telemetry::set_max_level(Some(Level::Info));
    }
    if opts.log_json {
        telemetry::install_sink(Box::new(telemetry::JsonlSink::stderr()));
    }
    let config = study_config(&opts);
    let store = or_exit(ResultStore::open(&opts.results_dir), "result store");
    let listener = or_exit(
        std::net::TcpListener::bind(&listen),
        &format!("--listen {listen}"),
    );
    let addr = listener.local_addr().expect("listener address");
    println!(
        "coordinating {} cells ({} injections total) on {addr}",
        config.machines.len() * config.workloads.len() * config.levels.len(),
        config.total_injections()
    );

    let mut children = Vec::new();
    if spawn_workers > 0 {
        let campaign = std::env::current_exe()
            .expect("own path")
            .with_file_name("campaign");
        for i in 0..spawn_workers {
            let child = std::process::Command::new(&campaign)
                .args([
                    "worker",
                    "--connect",
                    &addr.to_string(),
                    "--name",
                    &format!("local{i}"),
                    "--quiet",
                ])
                .spawn()
                .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", campaign.display()));
            children.push(child);
        }
        println!("spawned {spawn_workers} local worker(s)");
    }

    let mut coordinator = Coordinator::new(config.clone(), store)
        .lease_ms(lease_ms)
        .refresh(opts.fresh);
    if let Some(path) = &progress_log {
        coordinator = coordinator.progress_log(path);
    }
    let report = or_exit(coordinator.serve(&listener), "distributed study");
    for mut child in children {
        let _ = child.wait();
    }
    println!(
        "distributed study complete: {}/{} cell(s) executed by workers, {} from store, {:.1}s",
        report.executed, report.cells, report.store_hits, report.seconds
    );

    if check_serial {
        let serial_dir =
            std::env::temp_dir().join(format!("softerr-serve-check-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&serial_dir);
        let serial_store = ResultStore::open(&serial_dir).expect("serial check store opens");
        let serial = Orchestrator::new(config.clone())
            .store(serial_store)
            .run()
            .expect("serial check run failed");
        assert_eq!(
            serial, report.results,
            "distributed results diverge from the serial run"
        );
        // Compare the raw store bytes cell by cell: the distributed store
        // must be indistinguishable from one a serial run wrote.
        let mut compared = 0;
        for (key, _) in &serial.cells {
            let machine = serial.machine(&key.machine).expect("planned machine");
            let hash = softerr::cell_config_hash(&config, machine, key.workload, key.level);
            let name = format!("cells/{hash}.json");
            let dist = std::fs::read(opts.results_dir.join(&name))
                .unwrap_or_else(|e| panic!("distributed cell {name} unreadable: {e}"));
            let ser = std::fs::read(serial_dir.join(&name))
                .unwrap_or_else(|e| panic!("serial cell {name} unreadable: {e}"));
            assert_eq!(
                dist, ser,
                "store cell {name} differs between distributed and serial runs"
            );
            compared += 1;
        }
        let _ = std::fs::remove_dir_all(&serial_dir);
        println!("serve-check passed: {compared} store cell(s) bit-identical to a serial run");
    }
}

const MACHINE_SHORT: [(&str, &str); 2] = [("Cortex-A15-like", "A15"), ("Cortex-A72-like", "A72")];

fn short_name(machine: &str) -> &str {
    MACHINE_SHORT
        .iter()
        .find(|(long, _)| *long == machine)
        .map(|(_, s)| *s)
        .unwrap_or(machine)
}

// ------------------------------------------------------------- Table I --

fn table1() {
    println!("== Table I: microprocessor configurations ==\n");
    let mut t = Table::new(vec![
        "parameter".into(),
        "Cortex-A15-like".into(),
        "Cortex-A72-like".into(),
    ]);
    let (a, b) = (MachineConfig::cortex_a15(), MachineConfig::cortex_a72());
    let kb = |bytes: u64| format!("{} KB", bytes / 1024);
    t.row(vec![
        "ISA profile".into(),
        a.profile.to_string(),
        b.profile.to_string(),
    ]);
    t.row(vec![
        "L1 D-cache".into(),
        format!("{} ({}-way)", kb(a.l1d.size_bytes), a.l1d.ways),
        format!("{} ({}-way)", kb(b.l1d.size_bytes), b.l1d.ways),
    ]);
    t.row(vec![
        "L1 I-cache".into(),
        format!("{} ({}-way)", kb(a.l1i.size_bytes), a.l1i.ways),
        format!("{} ({}-way)", kb(b.l1i.size_bytes), b.l1i.ways),
    ]);
    t.row(vec![
        "L2 cache".into(),
        format!("{} ({}-way)", kb(a.l2.size_bytes), a.l2.ways),
        format!("{} ({}-way)", kb(b.l2.size_bytes), b.l2.ways),
    ]);
    t.row(vec![
        "physical registers".into(),
        format!("{} x {}-bit", a.phys_regs, a.profile.xlen()),
        format!("{} x {}-bit", b.phys_regs, b.profile.xlen()),
    ]);
    t.row(vec![
        "issue queue".into(),
        format!("{} entries", a.iq_entries),
        format!("{} entries", b.iq_entries),
    ]);
    t.row(vec![
        "LQ / SQ".into(),
        format!("{} / {}", a.lq_entries, a.sq_entries),
        format!("{} / {}", b.lq_entries, b.sq_entries),
    ]);
    t.row(vec![
        "reorder buffer".into(),
        format!("{} entries", a.rob_entries),
        format!("{} entries", b.rob_entries),
    ]);
    t.row(vec![
        "fetch/exec/writeback".into(),
        format!("{}/{}/{}", a.fetch_width, a.issue_width, a.writeback_width),
        format!("{}/{}/{}", b.fetch_width, b.issue_width, b.writeback_width),
    ]);
    t.row(vec![
        "raw FIT/bit".into(),
        format!("{:.2e}", a.raw_fit_per_bit),
        format!("{:.2e}", b.raw_fit_per_bit),
    ]);
    println!("{t}");
}

// --------------------------------------------------------------- Fig 1 --

fn fig1(opts: &Options) {
    let results = study(opts);
    println!("== Fig 1: relative performance among optimization levels ==");
    println!("(speedup over O0, from fault-free cycle counts)\n");
    for machine in results.machine_names() {
        println!("-- {machine}");
        let mut t = Table::new(vec![
            "benchmark".into(),
            "O0".into(),
            "O1".into(),
            "O2".into(),
            "O3".into(),
        ]);
        for w in Workload::ALL {
            let mut row = vec![w.name().to_string()];
            for level in OptLevel::ALL {
                row.push(format!("{:.2}", results.speedup_vs_o0(&machine, w, level)));
            }
            t.row(row);
        }
        println!("{t}");
    }
}

// ---------------------------------------------------------- Figs 2 – 8 --

fn machine_config(name: &str) -> MachineConfig {
    MachineConfig::paper_machines()
        .into_iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("unknown machine `{name}`"))
}

/// One golden ACE run per (machine, workload, level): `result[machine]` is
/// indexed `[workload][level]` in `Workload::ALL` / `OptLevel::ALL` order.
fn static_estimates(opts: &Options, machines: &[String]) -> Vec<(String, Vec<Vec<AceEstimate>>)> {
    use softerr::Compiler;
    machines
        .iter()
        .map(|name| {
            let cfg = machine_config(name);
            let per_workload = Workload::ALL
                .iter()
                .map(|w| {
                    OptLevel::ALL
                        .iter()
                        .map(|&level| {
                            let compiled = Compiler::new(cfg.profile, level)
                                .compile(&w.source(opts.scale))
                                .expect("workload must compile");
                            ace_estimate(&cfg, &compiled.program, 4_000_000_000)
                                .expect("ACE golden run must halt cleanly")
                        })
                        .collect()
                })
                .collect();
            (name.clone(), per_workload)
        })
        .collect()
}

fn avf_figure(opts: &Options, title: &str, structures: &[Structure]) {
    let results = study(opts);
    println!("== {title} ==");
    println!("(per-benchmark AVF with the wAVF aggregate; fault-class split of wAVF below)\n");
    let statics = if opts.estimate_ace {
        let machines = results.machine_names();
        event!(
            Level::Info,
            "repro.ace",
            { runs: machines.len() * 32 },
            "(running {} ACE golden runs for --estimate ace)",
            machines.len() * 32
        );
        Some(static_estimates(opts, &machines))
    } else {
        None
    };
    for structure in structures {
        for machine in results.machine_names() {
            println!(
                "-- {} — {} ({})",
                short_name(&machine),
                structure,
                structure.component()
            );
            let mut t = Table::new(vec![
                "benchmark".into(),
                "O0".into(),
                "O1".into(),
                "O2".into(),
                "O3".into(),
            ]);
            for w in Workload::ALL {
                let mut row = vec![w.name().to_string()];
                for level in OptLevel::ALL {
                    row.push(format!(
                        "{:.3}",
                        results.avf(&machine, w, level, *structure)
                    ));
                }
                t.row(row);
            }
            let mut wavf_row = vec!["wAVF".to_string()];
            for level in OptLevel::ALL {
                wavf_row.push(format!(
                    "{:.3}",
                    results.weighted_avf(&machine, level, *structure)
                ));
            }
            t.row(wavf_row);
            println!("{t}");
            // Fault-class split of the weighted AVF.
            let mut ct = Table::new(vec![
                "class".into(),
                "O0".into(),
                "O1".into(),
                "O2".into(),
                "O3".into(),
            ]);
            for class in [
                FaultClass::Sdc,
                FaultClass::Crash,
                FaultClass::Timeout,
                FaultClass::Assert,
            ] {
                let mut row = vec![class.name().to_string()];
                for level in OptLevel::ALL {
                    row.push(format!(
                        "{:.3}",
                        results.weighted_fraction(&machine, level, *structure, class)
                    ));
                }
                ct.row(row);
            }
            println!("{ct}");
            // Static ACE estimate next to the injected table above.
            if let Some(statics) = &statics {
                let (_, per_workload) = statics
                    .iter()
                    .find(|(name, _)| *name == machine)
                    .expect("estimates cover every machine");
                println!(
                    "-- {} — {} static ACE AVF (bit-liveness, no injections)",
                    short_name(&machine),
                    structure
                );
                let mut st = Table::new(vec![
                    "benchmark".into(),
                    "O0".into(),
                    "O1".into(),
                    "O2".into(),
                    "O3".into(),
                ]);
                for (w, levels) in Workload::ALL.iter().zip(per_workload) {
                    let mut row = vec![w.name().to_string()];
                    for est in levels {
                        row.push(format!("{:.3}", est.avf(*structure)));
                    }
                    st.row(row);
                }
                let mut wavf_row = vec!["wAVF".to_string()];
                for li in 0..OptLevel::ALL.len() {
                    let samples: Vec<(f64, u64)> = per_workload
                        .iter()
                        .map(|levels| (levels[li].avf(*structure), levels[li].cycles))
                        .collect();
                    wavf_row.push(format!("{:.3}", weighted_avf(&samples)));
                }
                st.row(wavf_row);
                println!("{st}");
            }
        }
    }
}

// ----------------------------------------------------------- static ACE --

fn ace_sweep(opts: &Options) {
    println!("== Static ACE/bit-liveness AVF (one golden run per cell, no injections) ==");
    println!("(cycle-weighted over the eight benchmarks, the wAVF analogue of figs 2-8;");
    println!(" entry-granular upper bound that ignores fault-to-crash conversion)\n");
    let machines: Vec<String> = MachineConfig::paper_machines()
        .into_iter()
        .map(|m| m.name)
        .collect();
    let statics = static_estimates(opts, &machines);
    for (machine, per_workload) in &statics {
        println!("-- {machine}");
        let mut t = Table::new(vec![
            "structure".into(),
            "O0".into(),
            "O1".into(),
            "O2".into(),
            "O3".into(),
        ]);
        for structure in Structure::ALL {
            let mut row = vec![structure.name().to_string()];
            for li in 0..OptLevel::ALL.len() {
                let samples: Vec<(f64, u64)> = per_workload
                    .iter()
                    .map(|levels| (levels[li].avf(structure), levels[li].cycles))
                    .collect();
                row.push(format!("{:.3}", weighted_avf(&samples)));
            }
            t.row(row);
        }
        println!("{t}");
    }
}

// --------------------------------------------------------- static vuln --

/// Static bit-demand masked fraction vs. injected RF AVF, per (machine,
/// workload, level) cell, plus the prune-rate uplift the static masks buy
/// over dynamic liveness pruning alone.
///
/// Every cell runs one RF campaign with both pruners enabled and records
/// on; the per-fault `pruned`/`pruned_static` flags attribute each skipped
/// fault to exactly one stage, so the liveness-only rate and the composed
/// rate come out of a single run (and the tallies are bit-identical to an
/// unpruned campaign — see `tests/static_vuln.rs`).
fn vuln(opts: &Options) {
    use softerr::{CampaignConfig, Compiler, Injector, StaticVulnCell};
    println!("== Static bit vulnerability vs injected RF AVF ==");
    println!("(static masked = fraction of def-site destination bits the compiler's");
    println!(" backward demand analysis proves unobservable; prune rates are the");
    println!(" fraction of sampled RF faults classified without simulation)\n");
    let mut cells = Vec::new();
    for machine in MachineConfig::paper_machines() {
        for w in Workload::ALL {
            for level in OptLevel::ALL {
                let compiled = Compiler::new(machine.profile, level)
                    .compile(&w.source(opts.scale))
                    .expect("workload must compile");
                let plan = opts
                    .plan(40)
                    .prune(PruneMode::On)
                    .prune_static(PruneMode::On);
                let injector =
                    Injector::for_plan(&machine, &compiled.program, &plan).expect("golden");
                let out = injector
                    .run(
                        Structure::RegFile,
                        &CampaignConfig {
                            plan,
                            seed: opts.seed,
                            threads: opts.threads,
                            ..CampaignConfig::default()
                        },
                    )
                    .records(true)
                    .execute();
                let records = out.records.as_deref().unwrap_or(&[]);
                let n = records.len().max(1) as f64;
                let dyn_n = records.iter().filter(|r| r.pruned).count() as f64;
                let static_n = records.iter().filter(|r| r.pruned_static).count() as f64;
                event!(
                    Level::Info,
                    "repro.vuln",
                    { machine: machine.name.clone(), workload: w.name(), level: level.to_string() },
                    "(vuln cell {}/{}/{} done)",
                    machine.name,
                    w.name(),
                    level
                );
                cells.push(StaticVulnCell {
                    machine: machine.name.clone(),
                    workload: w.name().to_string(),
                    level: level.to_string(),
                    static_masked: compiled.vuln.masked_fraction(),
                    injected_avf: out.result.avf(),
                    prune_rate_liveness: dyn_n / n,
                    prune_rate_static: (dyn_n + static_n) / n,
                });
            }
        }
    }
    println!("{}", softerr::static_vuln_table(&cells));
    println!(
        "mean prune-rate uplift from static masks: {:+.4}",
        softerr::mean_static_uplift(&cells)
    );
    match softerr::static_injected_rank_correlation(&cells) {
        Some(rho) => println!(
            "Spearman rank correlation, static masked fraction vs measured \
             masked fraction (1 - AVF): {rho:.3}"
        ),
        None => println!("(too few distinct cells for a rank correlation)"),
    }
}

// -------------------------------------------------------------- metrics --

/// Golden-run microarchitectural counter sweep: every (machine, benchmark,
/// opt level) cell runs fault-free once with `Sim` counters enabled.
///
/// Stall percentages are cycles in which the stage made no forward progress;
/// occupancy is the time-average fill of the structure relative to capacity.
fn metrics(opts: &Options) {
    use softerr::{Compiler, Sim};
    println!("== Golden-run microarchitectural counters ==");
    println!(
        "({} scale, fault-free; stalls as % of cycles, occupancy as mean fill)\n",
        opts.scale
    );
    for machine in MachineConfig::paper_machines() {
        println!("-- {}", machine.name);
        let mut t = Table::new(vec![
            "benchmark".into(),
            "level".into(),
            "cycles".into(),
            "IPC".into(),
            "fetch st%".into(),
            "issue st%".into(),
            "commit st%".into(),
            "mpred/kbr".into(),
            "rf occ".into(),
            "rob occ".into(),
            "iq occ".into(),
        ]);
        for w in Workload::ALL {
            for level in OptLevel::ALL {
                let compiled = Compiler::new(machine.profile, level)
                    .compile(&w.source(opts.scale))
                    .expect("workload must compile");
                let mut sim = Sim::new(&machine, &compiled.program);
                sim.enable_counters();
                sim.run(4_000_000_000);
                let c = sim.counters().expect("counters were enabled");
                let pct = |n: u64| format!("{:.1}", 100.0 * n as f64 / c.cycles.max(1) as f64);
                let occ = |name: &str| {
                    c.occupancy
                        .iter()
                        .find(|h| h.name == name)
                        .map(|h| format!("{:.1}%", 100.0 * h.utilization()))
                        .unwrap_or_else(|| "-".into())
                };
                t.row(vec![
                    w.name().to_string(),
                    level.to_string(),
                    c.cycles.to_string(),
                    format!("{:.2}", c.ipc()),
                    pct(c.fetch_stall_cycles),
                    pct(c.issue_stall_cycles),
                    pct(c.commit_stall_cycles),
                    format!("{:.1}", c.mispredicts_per_kilo_branch()),
                    occ("regfile"),
                    occ("rob"),
                    occ("iq"),
                ]);
            }
        }
        println!("{t}");
    }
}

// -------------------------------------------------------------- profile --

/// Stage-attribution profile of the full study grid: the 8 workloads at
/// O0–O3 on both paper machines run with span tracing armed, and the
/// trace is rolled into per-cell, per-stage, and per-worker wall-time
/// tables. Store reads are skipped (a store-served cell executes no
/// campaign and would profile as a pure lookup), but completed cells are
/// still written back.
fn profile_cmd(opts: &Options) {
    // Created before the study runs, so an unwritable path fails at once.
    let trace_out = opts.trace.as_ref().map(|path| {
        let what = format!("--trace {}", path.display());
        (path, or_exit(std::fs::File::create(path), &what), what)
    });
    println!("== Stage-attribution profile (8 workloads x O0-O3 x both machines) ==");
    println!("(store reads skipped so every cell executes; span tracing armed)\n");
    telemetry::set_tracing(true);
    let mut fresh_opts = opts.clone();
    fresh_opts.fresh = true;
    let _ = study(&fresh_opts);
    let trace = telemetry::take_trace();
    if let Some((path, mut file, what)) = trace_out {
        or_exit(file.write_all(trace.to_chrome_json().as_bytes()), &what);
        println!(
            "({} span(s) exported to {}; open in Perfetto or chrome://tracing)",
            trace.len(),
            path.display()
        );
    }
    if trace.dropped > 0 {
        println!(
            "(warning: {} span(s) lost to ring overflow; stage sums undercount)",
            trace.dropped
        );
    }
    println!("\ncell lifecycle (store lookup / compile / execute / store write):");
    println!("{}", softerr::profile::cell_table(&trace));
    println!("stage attribution (self wall-time per campaign stage):");
    println!("{}", softerr::profile::stage_table(&trace));
    println!("engine workers:");
    println!("{}", softerr::profile::worker_table(&trace));
    println!("span aggregate:");
    println!("{}", trace.aggregate_table());
}

// --------------------------------------------------------------- Fig 9 --

fn fig9(opts: &Options) {
    let results = study(opts);
    println!("== Fig 9: weighted-AVF difference of O1/O2/O3 relative to O0 ==");
    println!("(positive = optimized code is MORE vulnerable in that structure)\n");
    for machine in results.machine_names() {
        println!("-- {machine}");
        let mut t = Table::new(vec![
            "structure".into(),
            "O1-O0".into(),
            "O2-O0".into(),
            "O3-O0".into(),
        ]);
        for structure in Structure::ALL {
            let base = results.weighted_avf(&machine, OptLevel::O0, structure);
            let mut row = vec![structure.name().to_string()];
            for level in [OptLevel::O1, OptLevel::O2, OptLevel::O3] {
                let delta = results.weighted_avf(&machine, level, structure) - base;
                row.push(format!("{delta:+.3}"));
            }
            t.row(row);
        }
        println!("{t}");
    }
}

// -------------------------------------------------------------- Fig 10 --

fn fig10(opts: &Options) {
    let results = study(opts);
    println!("== Fig 10: CPU FIT rates per benchmark, split by fault class ==");
    println!("(failures per 10^9 device-hours, unprotected design)\n");
    for machine in results.machine_names() {
        println!("-- {machine}");
        let mut t = Table::new(vec![
            "benchmark/level".into(),
            "SDC".into(),
            "Crash".into(),
            "Timeout".into(),
            "Assert".into(),
            "total".into(),
        ]);
        for w in Workload::ALL {
            for level in OptLevel::ALL {
                let split = results.cpu_fit_by_class(&machine, w, level, EccScheme::None);
                let total: f64 = split.iter().map(|(_, f)| f).sum();
                t.row(vec![
                    format!("{}/{}", w.name(), level),
                    format!("{:.2}", split[0].1),
                    format!("{:.2}", split[1].1),
                    format!("{:.2}", split[2].1),
                    format!("{:.2}", split[3].1),
                    format!("{total:.2}"),
                ]);
            }
        }
        println!("{t}");
    }
}

// -------------------------------------------------------------- Fig 11 --

fn fig11(opts: &Options) {
    let results = study(opts);
    println!("== Fig 11: failures per execution (FPE), normalized to O0 ==");
    println!("(< 1 means the speedup pays back the added vulnerability)\n");
    for machine in results.machine_names() {
        println!("-- {machine}");
        let mut t = Table::new(vec![
            "benchmark".into(),
            "O1/O0".into(),
            "O2/O0".into(),
            "O3/O0".into(),
        ]);
        for w in Workload::ALL {
            let base = results.fpe(&machine, w, OptLevel::O0, EccScheme::None);
            let mut row = vec![w.name().to_string()];
            for level in [OptLevel::O1, OptLevel::O2, OptLevel::O3] {
                let v = results.fpe(&machine, w, level, EccScheme::None);
                row.push(if base > 0.0 {
                    format!("{:.2}", v / base)
                } else {
                    "n/a".to_string()
                });
            }
            t.row(row);
        }
        println!("{t}");
    }
}

// -------------------------------------------------------------- Fig 12 --

fn fig12(opts: &Options) {
    let results = study(opts);
    println!("== Fig 12: CPU FIT per optimization level under ECC schemes ==");
    println!("(weighted over all benchmarks; failures per 10^9 device-hours)\n");
    for machine in results.machine_names() {
        println!("-- {machine}");
        let mut t = Table::new(vec![
            "ECC scheme".into(),
            "O0".into(),
            "O1".into(),
            "O2".into(),
            "O3".into(),
            "best level".into(),
        ]);
        for ecc in EccScheme::ALL {
            let fits: Vec<f64> = OptLevel::ALL
                .iter()
                .map(|&l| results.aggregate_cpu_fit(&machine, l, ecc))
                .collect();
            let best = OptLevel::ALL
                .iter()
                .zip(&fits)
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(l, _)| l.to_string())
                .unwrap_or_default();
            t.row(vec![
                ecc.to_string(),
                format!("{:.3}", fits[0]),
                format!("{:.3}", fits[1]),
                format!("{:.3}", fits[2]),
                format!("{:.3}", fits[3]),
                best,
            ]);
        }
        println!("{t}");
    }
}

// ----------------------------------------------------------- ablations --

fn ablation_opt(opts: &Options) {
    use softerr::{CampaignConfig, Compiler, Injector};
    println!("== Ablation: single-pass removals from O2 (the paper's future work) ==\n");
    let machine = MachineConfig::cortex_a72();
    let w = Workload::Gsm;
    let source = w.source(opts.scale);
    let passes = [
        "(full O2)",
        "cse",
        "licm",
        "schedule",
        "strength-reduce",
        "mem2reg",
    ];
    let mut t = Table::new(vec![
        "O2 without".into(),
        "cycles".into(),
        "code words".into(),
        "RF AVF".into(),
    ]);
    for pass in passes {
        let cfg = if pass == "(full O2)" {
            PassConfig::for_level(OptLevel::O2)
        } else {
            PassConfig::for_level(OptLevel::O2).without(pass)
        };
        let compiled = Compiler::with_passes(machine.profile, cfg)
            .compile(&source)
            .expect("compile");
        let plan = opts.plan(50);
        let injector = Injector::for_plan(&machine, &compiled.program, &plan).expect("golden");
        let campaign = injector
            .run(
                Structure::RegFile,
                &CampaignConfig {
                    plan,
                    seed: opts.seed,
                    threads: opts.threads,
                    ..CampaignConfig::default()
                },
            )
            .execute()
            .result;
        t.row(vec![
            pass.to_string(),
            injector.golden().cycles.to_string(),
            compiled.stats.code_words.to_string(),
            format!("{:.3}", campaign.avf()),
        ]);
    }
    println!("{t}");
}

fn mbu(opts: &Options) {
    use softerr::{CampaignConfig, Compiler, Injector};
    println!("== Extension: multi-bit upsets (adjacent-bit bursts, cf. IISWC'19 MBU study) ==\n");
    let machine = MachineConfig::cortex_a72();
    let w = Workload::Sha;
    let compiled = Compiler::new(machine.profile, OptLevel::O2)
        .compile(&w.source(opts.scale))
        .expect("compile");
    let plan = opts.plan(60);
    let injector = Injector::for_plan(&machine, &compiled.program, &plan).expect("golden");
    let mut t = Table::new(vec![
        "structure".into(),
        "1-bit AVF".into(),
        "2-bit AVF".into(),
        "4-bit AVF".into(),
    ]);
    for s in [
        Structure::L1IData,
        Structure::L1DData,
        Structure::RegFile,
        Structure::IqSrc,
    ] {
        let mut row = vec![s.name().to_string()];
        for width in [1u8, 2, 4] {
            let c = injector
                .run(
                    s,
                    &CampaignConfig {
                        plan,
                        seed: opts.seed,
                        threads: opts.threads,
                        ..CampaignConfig::default()
                    },
                )
                .burst_width(width)
                .execute()
                .result;
            row.push(format!("{:.3}", c.avf()));
        }
        t.row(row);
    }
    println!("{t}");
    println!("Wider bursts strictly contain the single-bit flip at the same");
    println!("site, so AVF grows monotonically with burst width.");
}

fn ablation_size(opts: &Options) {
    use softerr::{CampaignConfig, Compiler, Injector};
    println!("== Ablation: ROB size sweep (A72-like, gsm at O2) ==\n");
    let w = Workload::Gsm;
    let mut t = Table::new(vec![
        "ROB entries".into(),
        "cycles".into(),
        "ROB-PC AVF".into(),
    ]);
    for rob in [32usize, 64, 128, 192] {
        let mut machine = MachineConfig::cortex_a72();
        machine.rob_entries = rob;
        machine.name = format!("A72-rob{rob}");
        let compiled = Compiler::new(machine.profile, OptLevel::O2)
            .compile(&w.source(opts.scale))
            .expect("compile");
        let plan = opts.plan(50);
        let injector = Injector::for_plan(&machine, &compiled.program, &plan).expect("golden");
        let campaign = injector
            .run(
                Structure::RobPc,
                &CampaignConfig {
                    plan,
                    seed: opts.seed,
                    threads: opts.threads,
                    ..CampaignConfig::default()
                },
            )
            .execute()
            .result;
        t.row(vec![
            rob.to_string(),
            injector.golden().cycles.to_string(),
            format!("{:.3}", campaign.avf()),
        ]);
    }
    println!("{t}");
    println!("A smaller ROB runs fuller, so a larger fraction of its bits is");
    println!("architecturally live at any instant — per-bit AVF falls as the");
    println!("structure grows, one of the capacity effects behind the paper's");
    println!("A15-vs-A72 contrasts.");
}

// ----------------------------------------------------------- sampling --

/// `repro sampling` — uniform vs importance sampling at the same target
/// margin, across the full (machine, workload, level) paper grid.
///
/// Each cell runs two adaptive L1I-data campaigns to the same 99% target
/// margin: one drawing uniformly over the full `(bit × cycle)` population
/// and one drawing only from the golden run's live-and-demanded
/// subpopulation with Horvitz–Thompson-reweighted estimates. The table
/// reports AVF ± achieved margin and the forked-child-simulation cost of
/// each, the importance weight, the per-cell savings factor, and whether
/// the two estimates agree within their combined margins (the same
/// predicate `--sampler importance --prune verify` enforces).
fn sampling(opts: &Options) {
    use softerr::{CampaignConfig, Compiler, Injector, SamplingCell};
    let structure = Structure::L1IData;
    let target = opts.target_margin.unwrap_or(0.08);
    let batch = opts.injections.max(25);
    let mut plan = opts.plan(25);
    plan.stop = StopRule::TargetMargin { target, batch };
    let uni_plan = plan.sampler(SamplerKind::Uniform);
    let imp_plan = plan.sampler(SamplerKind::Importance);
    println!("== Sampling efficiency: uniform vs importance at a {target} margin (99%) ==");
    println!(
        "(structure {}; both campaigns grow in batches of {batch} until the achieved",
        structure.name()
    );
    println!(" margin reaches the target; sims = forked child simulations paid for)\n");
    let mut cells = Vec::new();
    for machine in MachineConfig::paper_machines() {
        for w in Workload::ALL {
            for level in OptLevel::ALL {
                let compiled = Compiler::new(machine.profile, level)
                    .compile(&w.source(opts.scale))
                    .expect("workload must compile");
                // The importance plan reads liveness; the uniform one
                // runs on the same golden run.
                let injector =
                    Injector::for_plan(&machine, &compiled.program, &imp_plan).expect("golden");
                let base = CampaignConfig {
                    plan: uni_plan,
                    seed: opts.seed,
                    threads: opts.threads,
                    ..CampaignConfig::default()
                };
                let uni = injector.run(structure, &base).execute();
                let imp = injector
                    .run(
                        structure,
                        &CampaignConfig {
                            plan: imp_plan,
                            ..base
                        },
                    )
                    .execute();
                event!(
                    Level::Info,
                    "repro.sampling",
                    { machine: machine.name.clone(), workload: w.name(), level: level.to_string() },
                    "(sampling cell {}/{}/{} done: {} vs {} sims)",
                    machine.name,
                    w.name(),
                    level,
                    uni.simulated,
                    imp.simulated
                );
                cells.push(SamplingCell {
                    machine: machine.name.clone(),
                    workload: w.name().to_string(),
                    level: level.to_string(),
                    uniform_avf: uni.result.avf(),
                    uniform_margin: uni.result.margin_99(),
                    uniform_sims: uni.simulated,
                    importance_avf: imp.result.avf(),
                    importance_margin: imp.result.margin_99(),
                    importance_sims: imp.simulated,
                    weight: imp.result.weight,
                });
            }
        }
    }
    println!("{}", softerr::sampling_table(&cells));
    let agree = cells.iter().filter(|c| c.agrees()).count();
    println!(
        "{agree}/{} cells agree within combined margins",
        cells.len()
    );
    if let Some(mean) = softerr::mean_sampling_speedup(&cells) {
        println!("mean child-simulation savings of importance sampling: {mean:.1}x");
    }
}
