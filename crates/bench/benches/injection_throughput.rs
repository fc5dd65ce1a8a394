//! Criterion benchmark: end-to-end fault injections per second.
//!
//! Two groups:
//!
//! * `injection_throughput` — the default RegFile campaign (100 uniformly
//!   sampled faults) with the fresh per-fault engine versus the
//!   golden-prefix checkpointing engine, versus checkpointing plus
//!   liveness pruning. The checkpointing engine simulates the fault-free
//!   prefix once and forks a child per fault, so its advantage grows with
//!   the golden run length; the pruned variant additionally classifies
//!   faults outside every live window as Masked without forking a child
//!   at all. This trio is the headline before/after number for the
//!   campaign engine. The `l1d_campaign` rows compare the fresh engine
//!   with the copy-on-write convoy on an `l1d.data` campaign, where each
//!   fork previously deep-copied the full cache tag+data arrays and now
//!   shares every chunk with the golden simulator until somebody writes
//!   it.
//! * `single_injection` — the unit cost of one from-scratch injection
//!   (golden positioning + flip + run-to-outcome) across structures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use softerr::{
    CampaignConfig, Compiler, FaultSpec, Injector, MachineConfig, OptLevel, PruneMode, SamplerKind,
    SamplingPlan, Scale, Structure, Workload,
};

fn bench_campaign(c: &mut Criterion) {
    let machine = MachineConfig::cortex_a15();
    let compiled = Compiler::new(machine.profile, OptLevel::O1)
        .compile(&Workload::Qsort.source(Scale::Tiny))
        .expect("compile");
    let injector = Injector::new(&machine, &compiled.program).expect("golden");

    let mut group = c.benchmark_group("injection_throughput");
    let base = CampaignConfig::default();
    group.throughput(Throughput::Elements(base.plan.injections()));
    // The pruned variant pays the one-off liveness golden run up front so
    // the measured loop sees only the steady-state campaign cost.
    injector.liveness();
    for (label, checkpoint, prune, prune_static) in [
        ("fresh", false, PruneMode::Off, PruneMode::Off),
        ("checkpoint", true, PruneMode::Off, PruneMode::Off),
        ("pruned", true, PruneMode::On, PruneMode::Off),
        // Liveness pruning with the compiler's static bit-demand masks
        // composed on top: faults inside live windows whose bits every
        // covering writeback provably never demands are also skipped.
        ("static-pruned", true, PruneMode::On, PruneMode::On),
    ] {
        group.bench_with_input(
            BenchmarkId::new("rf_campaign", label),
            &(checkpoint, prune, prune_static),
            |b, &(checkpoint, prune, prune_static)| {
                let cfg = CampaignConfig {
                    checkpoint,
                    plan: base.plan.prune(prune).prune_static(prune_static),
                    ..base
                };
                b.iter(|| injector.run(Structure::RegFile, &cfg).execute().result)
            },
        );
    }
    // Cache campaign: the case COW forking exists for. Every fork used to
    // deep-copy ~100 KB of L1 arrays plus the 1 MB L2 data array.
    for (label, checkpoint) in [("fresh", false), ("cow", true)] {
        group.bench_with_input(
            BenchmarkId::new("l1d_campaign", label),
            &checkpoint,
            |b, &checkpoint| {
                let cfg = CampaignConfig { checkpoint, ..base };
                b.iter(|| injector.run(Structure::L1DData, &cfg).execute().result)
            },
        );
    }
    // Equal-margin sampling comparison: both campaigns grow in batches
    // until the achieved 99% margin reaches the same target on the L1I
    // data array, whose live-and-demanded subpopulation is a tiny slice
    // of the full `(bit x cycle)` population. The uniform row must keep
    // buying batches until the raw binomial margin closes; the importance
    // row draws only live-and-demanded sites and its Horvitz-Thompson
    // margin scales by the weight, so it stops after far fewer forked
    // children. The mean-time ratio of these two rows is the headline
    // child-simulation savings of importance sampling.
    for (label, sampler) in [
        ("uniform", SamplerKind::Uniform),
        ("importance", SamplerKind::Importance),
    ] {
        group.bench_with_input(
            BenchmarkId::new("l1i_campaign", label),
            &sampler,
            |b, &sampler| {
                let cfg = CampaignConfig {
                    plan: SamplingPlan::adaptive(0.08, 25).sampler(sampler),
                    ..base
                };
                b.iter(|| injector.run(Structure::L1IData, &cfg).execute().result)
            },
        );
    }
    group.finish();
    write_profile(&injector, &base);
}

/// One traced checkpointed RegFile campaign (outside any measured loop),
/// whose stage-attribution table lands next to the benchmark rows as
/// `BENCH_injection_throughput.profile.txt`. The numbers explain what the
/// `rf_campaign/checkpoint` row is made of; they are never gated.
fn write_profile(injector: &Injector, base: &CampaignConfig) {
    softerr::telemetry::set_tracing(true);
    let cfg = CampaignConfig {
        checkpoint: true,
        ..*base
    };
    injector.run(Structure::RegFile, &cfg).execute();
    let trace = softerr::telemetry::take_trace();
    let text = format!(
        "stage attribution (rf_campaign/checkpoint, {} spans)\n\n{}\n{}",
        trace.len(),
        softerr::profile::stage_table(&trace),
        trace.aggregate_table(),
    );
    let path = workspace_root().join("BENCH_injection_throughput.profile.txt");
    match std::fs::write(&path, text) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// The outermost ancestor directory holding a `Cargo.toml` (same rule as
/// the criterion shim uses to place `BENCH_<group>.json`).
fn workspace_root() -> std::path::PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
    let mut root = cwd.clone();
    for dir in cwd.ancestors() {
        if dir.join("Cargo.toml").exists() {
            root = dir.to_path_buf();
        }
    }
    root
}

fn bench_single(c: &mut Criterion) {
    let machine = MachineConfig::cortex_a15();
    let compiled = Compiler::new(machine.profile, OptLevel::O1)
        .compile(&Workload::Qsort.source(Scale::Tiny))
        .expect("compile");
    let injector = Injector::new(&machine, &compiled.program).expect("golden");
    let mid = injector.golden().cycles / 2;

    let mut group = c.benchmark_group("single_injection");
    for structure in [Structure::RegFile, Structure::L1DData, Structure::RobPc] {
        group.bench_with_input(
            BenchmarkId::new("qsort_o1", structure.name()),
            &structure,
            |b, &s| {
                let mut bit = 0u64;
                let bits = injector.bit_count(s);
                b.iter(|| {
                    bit = (bit + 127) % bits;
                    injector.inject(FaultSpec {
                        structure: s,
                        bit,
                        cycle: mid,
                    })
                })
            },
        );
    }
    group.finish();
}

criterion_group! {name = benches; config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(4)).warm_up_time(std::time::Duration::from_secs(1)); targets = bench_campaign, bench_single}
criterion_main!(benches);
