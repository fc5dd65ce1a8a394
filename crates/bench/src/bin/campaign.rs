//! `campaign` — run a single fault-injection campaign with explicit
//! parameters (the command-line face of `softerr_inject::Injector`).
//!
//! ```text
//! cargo run --release -p softerr-bench --bin campaign -- \
//!     --machine a72 --workload sha --level O2 --structure rf -n 500
//! ```
//!
//! The `worker` subcommand instead joins a distributed study (see
//! `repro serve`): it connects to a coordinator, receives the full study
//! configuration over the wire, and executes leased cells until told the
//! grid is complete:
//!
//! ```text
//! campaign worker --connect 127.0.0.1:7077 [--capacity N] [--name S]
//! ```
//!
//! Observability flags:
//!
//! * `--records FILE` — stream one JSONL `FaultRecord` per injection to
//!   `FILE` (first line is the run manifest), and print forensic summary
//!   tables;
//! * `--trace FILE` — record stage spans and export them as Chrome
//!   trace-event JSON (load `FILE` in Perfetto / `chrome://tracing`), plus
//!   a plain aggregate table on stdout;
//! * `--profile` — record stage spans and print the stage-attribution
//!   wall-time table (per structure) and the engine worker-counter table;
//! * `--propagation EVERY[/ONE_IN]` — trace how corruption spreads: a
//!   deterministic 1-in-`ONE_IN` (default 8) subset of forked faults
//!   snapshots its diverging components every `EVERY` cycles, and the
//!   aggregated component × time-since-injection heatmap is printed (and
//!   the timelines ride `--records` lines when both are given);
//! * `--metrics` — run the golden execution once more with the simulator's
//!   microarchitectural counters enabled and print them next to the AVF
//!   table;
//! * `--sampler uniform|importance` — sampling distribution: `importance`
//!   draws only live-and-demanded fault sites and reweights the estimates
//!   (Horvitz–Thompson);
//! * `--prune verify` / `--prune-static verify` — prune as `on`, then
//!   re-classify every fault on the fresh engine and panic on the first
//!   disagreement; under `--sampler importance` also re-run a uniform
//!   campaign to the same achieved margin and panic unless the two AVF
//!   estimates agree;
//! * `--quiet` — suppress warning events and the progress line;
//! * `--log-json` — emit warning events as JSONL on stderr instead of
//!   human-readable text.

use softerr::{
    ace_estimate, telemetry, CampaignConfig, Compiler, FaultRecord, Injector, MachineConfig,
    OptLevel, ProgressLine, PruneMode, PrunePolicy, RunManifest, SamplerKind, SamplingPlan, Scale,
    Sim, StopRule, Structure, Table, Workload,
};
use std::fs::File;
use std::io::{BufWriter, Write};

struct Args {
    machine: MachineConfig,
    workload: Workload,
    level: OptLevel,
    structures: Vec<Structure>,
    scale: Scale,
    injections: u64,
    seed: u64,
    threads: usize,
    prune: PruneMode,
    prune_static: PruneMode,
    target_margin: Option<f64>,
    sampler: SamplerKind,
    estimate_ace: bool,
    records: Option<String>,
    trace: Option<String>,
    profile: bool,
    /// `(every, one_in)` propagation sampling.
    propagation: Option<(u64, u64)>,
    metrics: bool,
    quiet: bool,
    log_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        machine: MachineConfig::cortex_a72(),
        workload: Workload::Qsort,
        level: OptLevel::O2,
        structures: Structure::ALL.to_vec(),
        scale: Scale::Tiny,
        injections: 200,
        seed: 1,
        threads: 1,
        prune: PruneMode::Off,
        prune_static: PruneMode::Off,
        target_margin: None,
        sampler: SamplerKind::Uniform,
        estimate_ace: false,
        records: None,
        trace: None,
        profile: false,
        propagation: None,
        metrics: false,
        quiet: false,
        log_json: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].clone();
        i += 1;
        // Value-less switches first; everything else consumes a value.
        match flag.as_str() {
            "--metrics" => {
                args.metrics = true;
                continue;
            }
            "--quiet" => {
                args.quiet = true;
                continue;
            }
            "--log-json" => {
                args.log_json = true;
                continue;
            }
            "--profile" => {
                args.profile = true;
                continue;
            }
            _ => {}
        }
        let value = argv
            .get(i)
            .ok_or_else(|| format!("missing value for {flag}"))?
            .clone();
        i += 1;
        match flag.as_str() {
            "--machine" => {
                args.machine = match value.as_str() {
                    "a15" => MachineConfig::cortex_a15(),
                    "a72" => MachineConfig::cortex_a72(),
                    other => return Err(format!("unknown machine `{other}` (a15|a72)")),
                }
            }
            "--workload" => {
                args.workload = Workload::from_name(&value)
                    .ok_or_else(|| format!("unknown workload `{value}`"))?
            }
            "--level" => args.level = value.parse()?,
            "--structure" => {
                args.structures = vec![Structure::from_name(&value)
                    .ok_or_else(|| format!("unknown structure `{value}`"))?]
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "full" => Scale::Full,
                    other => return Err(format!("unknown scale `{other}`")),
                }
            }
            "-n" | "--injections" => {
                args.injections = value.parse().map_err(|_| "bad injection count")?
            }
            "--seed" => args.seed = value.parse().map_err(|_| "bad seed")?,
            "--threads" => args.threads = value.parse().map_err(|_| "bad thread count")?,
            "--estimate" => match value.as_str() {
                "ace" => args.estimate_ace = true,
                other => return Err(format!("unknown estimator `{other}` (ace)")),
            },
            "--prune" => args.prune = value.parse()?,
            "--prune-static" => args.prune_static = value.parse()?,
            "--target-margin" => {
                let target: f64 = value.parse().map_err(|_| "bad target margin")?;
                if !(target > 0.0 && target < 1.0) {
                    return Err(format!(
                        "--target-margin must be in (0, 1), got {target} \
                         (the paper's figure is 0.0288)"
                    ));
                }
                args.target_margin = Some(target);
            }
            "--sampler" => args.sampler = value.parse()?,
            "--records" => args.records = Some(value),
            "--trace" => args.trace = Some(value),
            "--propagation" => {
                let (every, one_in) = match value.split_once('/') {
                    Some((e, o)) => (
                        e.parse().map_err(|_| "bad propagation period")?,
                        o.parse().map_err(|_| "bad propagation subset")?,
                    ),
                    None => (value.parse().map_err(|_| "bad propagation period")?, 8),
                };
                if every == 0 || one_in == 0 {
                    return Err("--propagation EVERY/ONE_IN must both be nonzero".to_string());
                }
                args.propagation = Some((every, one_in));
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(args)
}

/// The value of `result`, or, when it failed, `error: {what}: {e}` on
/// stderr and exit code 1: an output path the caller named may be
/// unwritable, which is not a bug to panic over.
fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>, what: std::fmt::Arguments) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {what}: {e}");
        std::process::exit(1)
    })
}

/// Golden-run counter report: one row per headline counter, then the
/// per-structure occupancy histogram summary.
fn metrics_tables(machine: &MachineConfig, program: &softerr::Program) -> (Table, Table) {
    let mut sim = Sim::new(machine, program);
    sim.enable_counters();
    sim.run(4_000_000_000);
    let c = sim.counters().expect("counters were enabled");
    let mut headline = Table::new(vec!["counter".into(), "value".into()]);
    headline.row(vec!["cycles".into(), c.cycles.to_string()]);
    headline.row(vec![
        "committed instructions".into(),
        c.committed.to_string(),
    ]);
    headline.row(vec!["IPC".into(), format!("{:.3}", c.ipc())]);
    headline.row(vec![
        "fetch stall cycles".into(),
        c.fetch_stall_cycles.to_string(),
    ]);
    headline.row(vec![
        "issue stall cycles".into(),
        c.issue_stall_cycles.to_string(),
    ]);
    headline.row(vec![
        "commit stall cycles".into(),
        c.commit_stall_cycles.to_string(),
    ]);
    headline.row(vec!["branches committed".into(), c.branches.to_string()]);
    headline.row(vec!["mispredicts".into(), c.mispredicts.to_string()]);
    headline.row(vec![
        "mispredicts / kilo-branch".into(),
        format!("{:.1}", c.mispredicts_per_kilo_branch()),
    ]);
    headline.row(vec!["squashed uops".into(), c.squashed_uops.to_string()]);
    let mut occupancy = Table::new(vec![
        "structure".into(),
        "capacity".into(),
        "mean".into(),
        "p50".into(),
        "p99".into(),
        "peak".into(),
        "utilization".into(),
    ]);
    for h in &c.occupancy {
        occupancy.row(vec![
            h.name.to_string(),
            h.capacity.to_string(),
            format!("{:.2}", h.mean()),
            h.percentile(0.5).to_string(),
            h.percentile(0.99).to_string(),
            h.peak().to_string(),
            format!("{:.1}%", 100.0 * h.utilization()),
        ]);
    }
    (headline, occupancy)
}

/// Parses and runs `campaign worker --connect HOST:PORT ...`, exiting
/// the process with the worker's status.
fn worker_main(argv: &[String]) -> ! {
    let mut opts = softerr::WorkerOptions::default();
    let mut connect: Option<String> = None;
    let mut quiet = false;
    let mut log_json = false;
    let mut i = 0;
    let result: Result<(), String> = (|| {
        while i < argv.len() {
            let flag = argv[i].clone();
            i += 1;
            match flag.as_str() {
                "--quiet" => {
                    quiet = true;
                    continue;
                }
                "--log-json" => {
                    log_json = true;
                    continue;
                }
                _ => {}
            }
            let value = argv
                .get(i)
                .ok_or_else(|| format!("missing value for {flag}"))?
                .clone();
            i += 1;
            match flag.as_str() {
                "--connect" => connect = Some(value),
                "--name" => opts.name = value,
                "--capacity" => {
                    opts.capacity = value.parse().map_err(|_| "bad --capacity")?;
                }
                other => return Err(format!("unknown worker option `{other}`")),
            }
        }
        Ok(())
    })();
    let addr = match (result, connect) {
        (Ok(()), Some(addr)) => addr,
        (Err(e), _) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: campaign worker --connect HOST:PORT [--name S] [--capacity N]\n\
                 \x20                    [--quiet] [--log-json]"
            );
            std::process::exit(1);
        }
        (Ok(()), None) => {
            eprintln!("error: worker mode needs --connect HOST:PORT");
            std::process::exit(1);
        }
    };
    if quiet {
        telemetry::set_max_level(None);
    }
    if log_json {
        telemetry::install_sink(Box::new(telemetry::JsonlSink::stderr()));
    }
    match softerr::run_worker(&addr, &opts) {
        Ok(report) => {
            println!(
                "worker {}: {} cell(s) completed, {} rejected",
                opts.name, report.completed, report.rejected
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("worker {} failed: {e}", opts.name);
            std::process::exit(1);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("worker") {
        worker_main(&argv[1..]);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: campaign [--machine a15|a72] [--workload NAME] [--level O0..O3]\n\
                 \x20              [--structure NAME] [--scale tiny|small|full]\n\
                 \x20              [-n COUNT] [--seed N] [--threads N]\n\
                 \x20              [--prune off|on|verify] [--prune-static off|on|verify]\n\
                 \x20              [--target-margin F] [--sampler uniform|importance]\n\
                 \x20              [--estimate ace] [--records FILE] [--trace FILE] [--profile]\n\
                 \x20              [--propagation EVERY[/ONE_IN]] [--metrics] [--quiet]\n\
                 \x20              [--log-json]"
            );
            std::process::exit(1);
        }
    };
    if args.quiet {
        telemetry::set_max_level(None);
    }
    if args.log_json {
        telemetry::install_sink(Box::new(telemetry::JsonlSink::stderr()));
    }
    // Arm before the compile so `cc.*` spans land in the trace too.
    if args.trace.is_some() || args.profile {
        telemetry::set_tracing(true);
    }

    let plan = SamplingPlan {
        sampler: args.sampler,
        stop: match args.target_margin {
            Some(target) => StopRule::TargetMargin {
                target,
                batch: args.injections,
            },
            None => StopRule::FixedN(args.injections),
        },
        prune: PrunePolicy {
            liveness: args.prune,
            demand: args.prune_static,
        },
    };
    if let Err(e) = plan.validate() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    let campaign_cfg = CampaignConfig {
        plan,
        seed: args.seed,
        threads: args.threads,
        ..CampaignConfig::default()
    };
    let mut manifest = RunManifest::new(&args.machine.name, &args.machine, &campaign_cfg);
    manifest.workload = args.workload.to_string();
    manifest.level = args.level.to_string();
    manifest.scale = args.scale.to_string();

    // Output files are created before any work, so an unwritable path
    // fails at once rather than after the campaign.
    let mut records_out = args.records.as_deref().map(|path| {
        let file = or_exit(File::create(path), format_args!("--records {path}"));
        let mut file = BufWriter::new(file);
        let header = serde_json::to_string(&manifest).expect("manifest serializes");
        or_exit(writeln!(file, "{header}"), format_args!("--records {path}"));
        (path, file)
    });
    let trace_out = args.trace.as_deref().map(|path| {
        let file = or_exit(File::create(path), format_args!("--trace {path}"));
        (path, file)
    });

    let compiled = Compiler::new(args.machine.profile, args.level)
        .compile(&args.workload.source(args.scale))
        .expect("workload must compile");
    let injector = Injector::for_plan(&args.machine, &compiled.program, &plan).expect("golden run");
    let golden = injector.golden();
    println!("manifest: {manifest}");
    println!(
        "{} / {} / {} ({} scale): {} cycles, {} instructions fault-free\n",
        args.machine.name, args.workload, args.level, args.scale, golden.cycles, golden.retired
    );

    // One extra golden run with residency tracking; no injections needed.
    let ace = args.estimate_ace.then(|| {
        ace_estimate(&args.machine, &compiled.program, 4_000_000_000)
            .expect("ACE golden run must halt cleanly")
    });

    let mut header = vec![
        "structure".to_string(),
        "bits".into(),
        "AVF".into(),
        "±99%".into(),
        "n".into(),
        "sims".into(),
    ];
    if args.sampler.is_importance() {
        header.push("weight".into());
    }
    if ace.is_some() {
        header.push("static AVF".into());
    }
    header.extend([
        "SDC".into(),
        "Crash".into(),
        "Timeout".into(),
        "Assert".into(),
    ]);
    let mut table = Table::new(header);
    let mut all_records: Vec<FaultRecord> = Vec::new();
    for &s in &args.structures {
        let progress = (!args.quiet).then(|| ProgressLine::new(s.name(), args.injections));
        let mut run = injector.run(s, &campaign_cfg);
        if let Some(p) = progress.as_ref() {
            run = run.observer(p);
        }
        if let Some((every, one_in)) = args.propagation {
            run = run.propagation(every, one_in);
        }
        // Propagation heatmaps fold over in-memory records, so either flag
        // runs the recording engine; only `--records` also streams them.
        let output = if records_out.is_some() || args.propagation.is_some() {
            run.records(true).execute()
        } else {
            run.execute()
        };
        if let Some(records) = output.records {
            if let Some((path, file)) = records_out.as_mut() {
                for record in &records {
                    let line = serde_json::to_string(record).expect("record serializes");
                    or_exit(writeln!(file, "{line}"), format_args!("--records {path}"));
                }
            }
            all_records.extend(records);
        }
        let (result, simulated) = (output.result, output.simulated);
        if let Some(p) = progress.as_ref() {
            p.finish();
        }
        let mut row = vec![
            s.name().to_string(),
            result.bit_population.to_string(),
            format!("{:.4}", result.avf()),
            format!("{:.4}", result.margin_99()),
            result.total().to_string(),
            simulated.to_string(),
        ];
        if args.sampler.is_importance() {
            row.push(format!("{:.4}", result.weight));
        }
        if let Some(est) = &ace {
            row.push(format!("{:.4}", est.avf(s)));
        }
        row.extend([
            result.counts.sdc.to_string(),
            result.counts.crash.to_string(),
            result.counts.timeout.to_string(),
            result.counts.assert_.to_string(),
        ]);
        table.row(row);
    }
    if let Some((path, file)) = records_out.as_mut() {
        or_exit(file.flush(), format_args!("--records {path}"));
    }
    println!("{table}");
    match args.target_margin {
        Some(target) => println!(
            "(adaptive sampling to a {target} margin at 99% in batches of {}; \
             {} bit x cycle sampling via Leveugle)",
            args.injections, args.sampler,
        ),
        None => println!(
            "({} injections per structure; {} bit x cycle sampling; margin at 99% via Leveugle)",
            args.injections, args.sampler,
        ),
    }
    if args.sampler.is_importance() {
        println!(
            "(sampler={}: faults drawn from the live-and-demanded subpopulation only; \
             AVF and margins Horvitz-Thompson-reweighted by each structure's weight)",
            args.sampler,
        );
    }
    if args.prune != PruneMode::Off {
        println!(
            "(prune={}: faults outside every golden-run live window classify as Masked \
             without simulating)",
            args.prune,
        );
    }
    if args.prune_static != PruneMode::Off {
        println!(
            "(prune_static={}: faults in statically-dead bits of every covering RF window \
             classify as Masked without simulating)",
            args.prune_static,
        );
    }
    if plan.prune.any_verify() {
        println!(
            "(verified: every fault re-classified on the fresh engine with nothing pruned{}; \
             sims counts the unpruned faults only)",
            if args.sampler.is_importance() {
                ", and the AVF cross-checked against a uniform campaign at the achieved margin"
            } else {
                ""
            }
        );
    }
    if ace.is_some() {
        println!(
            "(static AVF: entry-granular ACE bit-liveness from one golden run — an upper-bound\n\
             \x20estimate that ignores fault-to-crash conversion; see EXPERIMENTS.md)"
        );
    }
    if !all_records.is_empty() {
        println!("\ndetection latency (cycles from injection to verdict):");
        println!("{}", softerr::forensics::latency_table(&all_records));
        println!("first-divergence census:");
        println!("{}", softerr::forensics::divergence_table(&all_records));
        if let Some(path) = args.records.as_deref() {
            println!("({} records streamed to {path})", all_records.len());
        }
    }
    if let Some((every, _)) = args.propagation {
        let traced = all_records
            .iter()
            .filter(|r| r.propagation.is_some())
            .count();
        println!(
            "\npropagation heatmap ({traced} traced fault(s); snapshots every {every} cycles; \
             columns are cycles since injection):"
        );
        println!(
            "{}",
            softerr::forensics::propagation_heatmap(&all_records, every)
        );
    }
    if args.metrics {
        let (headline, occupancy) = metrics_tables(&args.machine, &compiled.program);
        println!("\ngolden-run microarchitectural counters:");
        println!("{headline}");
        println!("occupancy histograms:");
        println!("{occupancy}");
    }
    if args.trace.is_some() || args.profile {
        let trace = telemetry::take_trace();
        if let Some((path, mut file)) = trace_out {
            or_exit(
                file.write_all(trace.to_chrome_json().as_bytes()),
                format_args!("--trace {path}"),
            );
            println!(
                "\n({} span(s) exported to {path}; open in Perfetto or chrome://tracing)",
                trace.len()
            );
            if trace.dropped > 0 {
                println!("(warning: {} span(s) lost to ring overflow)", trace.dropped);
            }
            println!("\nspan aggregate:");
            println!("{}", trace.aggregate_table());
        }
        if args.profile {
            println!("\nstage attribution (self wall-time per campaign stage):");
            println!("{}", softerr::profile::stage_table(&trace));
            println!("engine workers:");
            println!("{}", softerr::profile::worker_table(&trace));
        }
    }
}
