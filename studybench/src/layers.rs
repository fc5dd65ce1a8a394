//! Per-layer metrics of the traced run, named after the repository's
//! modules (`cc`, `sim`, `inject`, `core.sched`, `core.store`,
//! `core.serve`, `analysis`, `telemetry`).
//!
//! Every layer is timed from outside, around the public call that enters
//! it. Inside `CampaignRun::execute` the traced run reads the stage spans
//! and `campaign.worker` counters the program already records, through
//! `set_tracing` and `take_trace`; it adds no instrumentation to the
//! program.

use crate::{campaign_config, compile, timed, uses_liveness, Metric, Repeats};
use softerr::{
    CampaignConfig, CellKey, CellResult, FaultSpec, Injector, MachineConfig, SamplingPlan,
    Structure, StudyConfig, Trace,
};
use std::collections::BTreeMap;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// traced run prints all of them; a layer a workload does not exercise
/// reads 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("cc.compile_s", "s"),
    ("cc.units", "count"),
    ("sim.golden_s", "s"),
    ("sim.golden_runs", "count"),
    ("sim.golden_cycles", "cycles"),
    ("sim.cycles_per_s", "cycles/s"),
    ("sim.liveness_s", "s"),
    ("sim.liveness_runs", "count"),
    ("inject.campaign_s", "s"),
    ("inject.sample_s", "s"),
    ("inject.faults", "count"),
    ("inject.draws_per_fault", "draws/fault"),
    ("inject.prune_s", "s"),
    ("inject.simulated", "count"),
    ("inject.simulated_share", "fraction"),
    ("inject.classify_s.cache", "s"),
    ("inject.classify_s.rf", "s"),
    ("inject.classify_s.queues", "s"),
    ("inject.classify_s.rob", "s"),
    ("inject.golden_advance_s", "s"),
    ("inject.convoy.forks", "count"),
    ("inject.convoy.converged", "count"),
    ("inject.convoy.graduated", "count"),
    ("inject.convoy.converged_cycles", "cycles"),
    ("inject.convoy.ran_cycles", "cycles"),
    ("inject.convoy.converged_share", "fraction"),
    ("core.sched.cells", "count"),
    ("core.sched.unattributed_s", "s"),
    ("core.store.save_s", "s"),
    ("core.store.saves", "count"),
    ("core.store.save_bytes", "bytes"),
    ("core.store.load_s", "s"),
    ("core.store.loads", "count"),
    ("core.store.load_bytes", "bytes"),
    ("core.store.misses", "count"),
    ("core.store.read_errors", "count"),
    ("core.store.quarantined", "count"),
    ("core.serve.lease_rtt_s", "s"),
    ("core.serve.lease_rtt_tail_s", "s"),
    ("core.serve.lease_rtt_tail_pct", "%"),
    ("core.serve.lease_rtt_samples", "count"),
    ("core.serve.submit_rtt_s", "s"),
    ("core.serve.submit_rtt_tail_s", "s"),
    ("core.serve.submit_rtt_tail_pct", "%"),
    ("core.serve.submit_rtt_samples", "count"),
    ("core.serve.frames", "count"),
    ("core.serve.frame_bytes", "bytes"),
    ("core.serve.waits", "count"),
    ("core.serve.rejected", "count"),
    ("core.serve.releases", "count"),
    ("core.serve.busy_share", "fraction"),
    ("analysis.render_s", "s"),
    ("analysis.cells", "count"),
    ("telemetry.trace_overhead", "fraction"),
    ("telemetry.spans", "count"),
    ("telemetry.passes", "count"),
];

/// Per-layer values being assembled for one traced run.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets `name` (which must be one of [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Every [`PER_LAYER`] metric, unset ones as 0.
    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: self.0.get(name).copied().unwrap_or(0.0),
            })
            .collect()
    }
}

/// Deterministic work counts of one replicated pass.
#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct Counts {
    pub cells: u64,
    pub golden_cycles: u64,
    pub liveness_runs: u64,
    pub faults: u64,
    pub simulated: u64,
    /// Expected sampler draws: faults / weight, per campaign.
    pub draws: f64,
    pub forks: u64,
    pub converged: u64,
    pub graduated: u64,
    pub converged_cycles: u64,
    pub ran_cycles: u64,
    pub spans: u64,
}

/// The structure group a campaign's classify time is charged to.
pub(crate) fn group(s: Structure) -> &'static str {
    match s {
        Structure::L1IData
        | Structure::L1ITag
        | Structure::L1DData
        | Structure::L1DTag
        | Structure::L2Data
        | Structure::L2Tag => "classify.cache",
        Structure::RegFile => "classify.rf",
        Structure::LoadQueue | Structure::StoreQueue | Structure::IqSrc | Structure::IqDest => {
            "classify.queues"
        }
        Structure::RobPc | Structure::RobDest | Structure::RobSeq | Structure::RobFlags => {
            "classify.rob"
        }
    }
}

/// Executes one cell through the calls `run_cell` makes, timing each from
/// outside into `timings` (`compile/`, `golden/`, `liveness/`,
/// `campaign/`), with span tracing on. It also records each campaign's
/// `sample/`, `prune/` and `classify.*/` stage spans, and `advance/`: a
/// preset one-fault campaign at the last golden cycle, run after the
/// cell. Returns the cell and its wall time, which excludes that probe.
/// Span tracing is process-wide, so only one thread may trace at a time.
pub(crate) fn replicate_cell(
    cfg: &StudyConfig,
    machine: &MachineConfig,
    key: &CellKey,
    timings: &mut Repeats,
    counts: &mut Counts,
) -> Result<(CellResult, f64), String> {
    let campaign_cfg = campaign_config(cfg);
    let cell = key.to_string();
    let (compiled, t_compile) = timed(|| compile(machine, key.workload, key.level, cfg));
    let compiled = compiled?;
    timings.record(format!("compile/{cell}"), t_compile);
    let (injector, t_golden) = timed(|| Injector::new(machine, &compiled.program));
    let injector = injector.map_err(|e| format!("{key}: {e}"))?;
    timings.record(format!("golden/{cell}"), t_golden);
    let mut wall = t_compile + t_golden;
    if uses_liveness(&cfg.plan) {
        let (_, dt) = timed(|| {
            std::hint::black_box(injector.liveness());
        });
        timings.record(format!("liveness/{cell}"), dt);
        counts.liveness_runs += 1;
        wall += dt;
    }
    let mut campaigns = Vec::with_capacity(cfg.structures.len());
    for &s in &cfg.structures {
        let id = format!("{cell}/{}", s.name());
        softerr::set_tracing(true);
        let (out, dt) = timed(|| injector.run(s, &campaign_cfg).execute());
        timings.record(format!("campaign/{id}"), dt);
        let (_, dt_drain) = timed(|| absorb(&softerr::take_trace(), &id, s, timings, counts));
        wall += dt + dt_drain;
        counts.faults += out.result.total();
        counts.simulated += out.simulated;
        if out.result.weight > 0.0 {
            counts.draws += out.result.total() as f64 / out.result.weight;
        }
        campaigns.push(out.result);
    }
    counts.cells += 1;
    counts.golden_cycles += injector.golden().cycles;
    if let Some(&s) = cfg.structures.first() {
        timings.record(format!("advance/{cell}"), golden_advance(&injector, s));
    }
    let golden = injector.golden();
    Ok((
        CellResult {
            golden_cycles: golden.cycles,
            golden_retired: golden.retired,
            code_words: compiled.stats.code_words as u64,
            campaigns,
        },
        wall,
    ))
}

/// Host seconds of the golden prefix a campaign re-simulates: a preset
/// one-fault campaign at the last golden cycle, so the convoy advances the
/// whole golden run and forks a single child that ends at once.
fn golden_advance(injector: &Injector<'_>, structure: Structure) -> f64 {
    let fault = [FaultSpec {
        structure,
        bit: 0,
        cycle: injector.golden().cycles.saturating_sub(1),
    }];
    let cfg = CampaignConfig {
        plan: SamplingPlan::fixed(1),
        ..CampaignConfig::default()
    };
    timed(|| injector.run(structure, &cfg).faults(&fault).execute()).1
}

/// Charges one campaign's stage spans to `timings` and its
/// `campaign.worker` counters to `counts`.
fn absorb(trace: &Trace, id: &str, s: Structure, timings: &mut Repeats, counts: &mut Counts) {
    let (mut sample, mut prune, mut classify) = (0u64, 0u64, 0u64);
    for span in &trace.spans {
        match span.name {
            "campaign.sample" => sample += span.dur_ns,
            "campaign.prune" => prune += span.dur_ns,
            "campaign.classify" => classify += span.dur_ns,
            "campaign.worker" => {
                let field = |k: &str| span.u64_field(k).unwrap_or(0);
                counts.forks += field("forks");
                counts.converged += field("converged");
                counts.graduated += field("graduated");
                counts.converged_cycles += field("converged_cycles");
                counts.ran_cycles += field("ran_cycles");
            }
            _ => {}
        }
    }
    counts.spans += trace.spans.len() as u64;
    if !trace.spans.is_empty() {
        timings.record(format!("sample/{id}"), sample as f64 * 1e-9);
        timings.record(format!("prune/{id}"), prune as f64 * 1e-9);
        timings.record(format!("{}/{id}", group(s)), classify as f64 * 1e-9);
    }
}

/// Fills the `cc`, `sim` and `inject` layers from a replicated run.
pub(crate) fn fill_pipeline(
    layers: &mut Layers,
    timings: &Repeats,
    counts: &Counts,
    cfg: &StudyConfig,
) {
    let golden_s = timings.sum("golden");
    layers.set("cc.compile_s", timings.sum("compile"));
    layers.set("cc.units", timings.count("compile") as f64);
    layers.set("sim.golden_s", golden_s);
    layers.set("sim.golden_runs", counts.cells as f64);
    layers.set("sim.golden_cycles", counts.golden_cycles as f64);
    if golden_s > 0.0 {
        layers.set("sim.cycles_per_s", counts.golden_cycles as f64 / golden_s);
    }
    layers.set("sim.liveness_s", timings.sum("liveness"));
    layers.set("sim.liveness_runs", counts.liveness_runs as f64);
    layers.set("inject.campaign_s", timings.sum("campaign"));
    layers.set("inject.sample_s", timings.sum("sample"));
    layers.set("inject.faults", counts.faults as f64);
    if counts.faults > 0 {
        layers.set(
            "inject.draws_per_fault",
            counts.draws / counts.faults as f64,
        );
        layers.set(
            "inject.simulated_share",
            counts.simulated as f64 / counts.faults as f64,
        );
    }
    layers.set("inject.prune_s", timings.sum("prune"));
    layers.set("inject.simulated", counts.simulated as f64);
    for (metric, layer) in [
        ("inject.classify_s.cache", "classify.cache"),
        ("inject.classify_s.rf", "classify.rf"),
        ("inject.classify_s.queues", "classify.queues"),
        ("inject.classify_s.rob", "classify.rob"),
    ] {
        layers.set(metric, timings.sum(layer));
    }
    layers.set(
        "inject.golden_advance_s",
        timings.sum("advance") * cfg.structures.len() as f64,
    );
    layers.set("inject.convoy.forks", counts.forks as f64);
    layers.set("inject.convoy.converged", counts.converged as f64);
    layers.set("inject.convoy.graduated", counts.graduated as f64);
    layers.set(
        "inject.convoy.converged_cycles",
        counts.converged_cycles as f64,
    );
    layers.set("inject.convoy.ran_cycles", counts.ran_cycles as f64);
    if counts.forks > 0 {
        layers.set(
            "inject.convoy.converged_share",
            counts.converged as f64 / counts.forks as f64,
        );
    }
    layers.set("core.sched.cells", counts.cells as f64);
    layers.set("telemetry.spans", counts.spans as f64);
}

/// Seconds of the calls a replicated cell timed: compile, golden run,
/// liveness, campaigns.
pub(crate) fn timed_pipeline(timings: &Repeats) -> f64 {
    timings.sum("compile")
        + timings.sum("golden")
        + timings.sum("liveness")
        + timings.sum("campaign")
}

/// The median and the highest whole percentile with at least ten samples
/// beyond it, of `samples` (seconds). Returns `(median, tail, pct)`.
pub(crate) fn median_and_tail(samples: &mut [f64]) -> (f64, f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let median = crate::median(samples);
    if n <= 10 {
        return (median, samples[n - 1], 100.0);
    }
    // Largest p with at least 10 samples strictly above rank ceil(p% * n).
    let mut pct = 99u64;
    while pct > 50 && n - (pct as usize * n).div_ceil(100) < 10 {
        pct -= 1;
    }
    let rank = (pct as usize * n).div_ceil(100).max(1);
    (median, samples[rank - 1], pct as f64)
}
