//! Fault specification, single-run execution, and campaign orchestration.

use crate::progress::CampaignObserver;
use crate::record::{DivergenceSite, FaultRecord, PropagationSample, PropagationTrace};
use crate::sampler::{PrunePolicy, SamplerKind, SamplingPlan, StopRule};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use softerr_isa::Program;
use softerr_sim::{LivenessMap, MachineConfig, Sim, SimOutcome, StateDelta, Structure};
use softerr_telemetry::{event, span, Level, Span};
use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// One single-bit transient fault: flip `bit` of `structure` at `cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Target structure field.
    pub structure: Structure,
    /// Bit index within the structure (`0..bit_count`).
    pub bit: u64,
    /// Injection cycle (`0..golden_cycles`).
    pub cycle: u64,
}

/// Outcome class of one injection (the paper's classification).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FaultClass {
    /// No architecturally visible deviation.
    Masked,
    /// Silent data corruption: wrong output, no other indication.
    Sdc,
    /// Process/kernel crash (architectural fault at commit).
    Crash,
    /// Exceeded 2× the fault-free execution time.
    Timeout,
    /// Simulator assertion (unhandled microarchitectural state).
    Assert,
}

impl FaultClass {
    /// All classes, masked first.
    pub const ALL: [FaultClass; 5] = [
        FaultClass::Masked,
        FaultClass::Sdc,
        FaultClass::Crash,
        FaultClass::Timeout,
        FaultClass::Assert,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Masked => "Masked",
            FaultClass::Sdc => "SDC",
            FaultClass::Crash => "Crash",
            FaultClass::Timeout => "Timeout",
            FaultClass::Assert => "Assert",
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-class injection counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassCounts {
    /// Masked runs.
    pub masked: u64,
    /// Silent data corruptions.
    pub sdc: u64,
    /// Crashes.
    pub crash: u64,
    /// Timeouts.
    pub timeout: u64,
    /// Asserts.
    pub assert_: u64,
}

impl ClassCounts {
    /// Adds one outcome.
    pub fn record(&mut self, class: FaultClass) {
        match class {
            FaultClass::Masked => self.masked += 1,
            FaultClass::Sdc => self.sdc += 1,
            FaultClass::Crash => self.crash += 1,
            FaultClass::Timeout => self.timeout += 1,
            FaultClass::Assert => self.assert_ += 1,
        }
    }

    /// Count of one class.
    pub fn get(&self, class: FaultClass) -> u64 {
        match class {
            FaultClass::Masked => self.masked,
            FaultClass::Sdc => self.sdc,
            FaultClass::Crash => self.crash,
            FaultClass::Timeout => self.timeout,
            FaultClass::Assert => self.assert_,
        }
    }

    /// Total injections.
    pub fn total(&self) -> u64 {
        self.masked + self.sdc + self.crash + self.timeout + self.assert_
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &ClassCounts) {
        self.masked += other.masked;
        self.sdc += other.sdc;
        self.crash += other.crash;
        self.timeout += other.timeout;
        self.assert_ += other.assert_;
    }
}

/// Fault-free reference execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Golden {
    /// Execution time in cycles.
    pub cycles: u64,
    /// Retired instruction count.
    pub retired: u64,
    /// Program output.
    pub output: Vec<u64>,
}

/// The golden run failed (the program itself is broken).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenError(pub String);

impl fmt::Display for GoldenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "golden run failed: {}", self.0)
    }
}

impl std::error::Error for GoldenError {}

/// Liveness-based pre-simulation pruning policy.
///
/// The golden run's [`softerr_sim::LivenessMap`] knows, per structure, the
/// exact (bit, cycle) windows in which a flip could still be observed. A
/// fault outside every window is Masked by construction; pruning classifies
/// it on the spot instead of forking a child simulator for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PruneMode {
    /// Simulate every sampled fault (the baseline engines).
    #[default]
    Off,
    /// Classify faults landing outside every live window as Masked without
    /// simulating them. Class tallies are bit-identical to `Off`.
    On,
    /// Prune exactly as `On`, then re-classify every fault of the campaign
    /// on the fresh engine with nothing pruned and panic on the first class
    /// that differs — the regression net for the prune stages and the
    /// convoy's shortcuts alike. Under importance sampling the AVF is also
    /// cross-checked against a uniform campaign at the achieved margin.
    Verify,
}

impl PruneMode {
    /// Lower-case CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            PruneMode::Off => "off",
            PruneMode::On => "on",
            PruneMode::Verify => "verify",
        }
    }
}

impl fmt::Display for PruneMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for PruneMode {
    type Err = String;

    fn from_str(s: &str) -> Result<PruneMode, String> {
        match s {
            "off" => Ok(PruneMode::Off),
            "on" => Ok(PruneMode::On),
            "verify" => Ok(PruneMode::Verify),
            other => Err(format!("unknown prune mode '{other}' (off|on|verify)")),
        }
    }
}

/// Campaign parameters.
///
/// The sampling half — how many faults, which distribution, when to stop,
/// and what to prune — lives in the typed [`SamplingPlan`] (the flat
/// `injections` / `target_margin` / `prune` / `prune_static` fields it
/// replaced are gone; see the README migration table).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// What to sample, when to stop, and what to prune. The default plan
    /// (`SamplingPlan::fixed(100)`, uniform, no pruning) keeps the bundled
    /// experiments fast; the paper samples 2,000 per structure to reach its
    /// reported confidence margins — use `SamplingPlan::fixed(2000)` to
    /// match.
    pub plan: SamplingPlan,
    /// RNG seed (campaigns are fully reproducible).
    pub seed: u64,
    /// Worker threads (1 = sequential).
    pub threads: usize,
    /// Golden-prefix checkpointing. When enabled (the default), the engine
    /// sorts sampled faults by cycle, advances a single fault-free simulator
    /// once, and forks a child at each fault cycle instead of re-simulating
    /// the prefix from cycle 0 per injection. Children run in lockstep with
    /// the golden simulator and are classified the moment they either end or
    /// re-converge to the golden state. Classification is bit-identical to
    /// the fresh per-fault path (`checkpoint: false`).
    pub checkpoint: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            plan: SamplingPlan::fixed(100),
            seed: 0xB17F11B5,
            threads: 1,
            checkpoint: true,
        }
    }
}

/// Aggregated result of a campaign on one structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Target structure.
    pub structure: Structure,
    /// Injectable bit population of the structure.
    pub bit_population: u64,
    /// Golden execution time (cycles) the faults were sampled over.
    pub golden_cycles: u64,
    /// Per-class tallies.
    pub counts: ClassCounts,
    /// Horvitz–Thompson weight of every sample: the probability mass of
    /// the subpopulation the faults were drawn from. 1.0 under uniform
    /// sampling; the live fraction under importance sampling. Every
    /// derived statistic ([`CampaignResult::avf`],
    /// [`CampaignResult::fraction`], [`CampaignResult::margin_99`])
    /// reweights by it.
    pub weight: f64,
    /// Size of the sampled subpopulation under importance sampling
    /// (`None` = the full `bit_population × golden_cycles` population).
    pub live_population: Option<u64>,
}

impl CampaignResult {
    /// Total injections.
    pub fn total(&self) -> u64 {
        self.counts.total()
    }

    /// Architectural vulnerability factor: the non-masked fraction of the
    /// full population. Under importance sampling every unsampled site is
    /// Masked by construction, so the sample's non-masked fraction is
    /// reweighted by the live mass (Horvitz–Thompson).
    pub fn avf(&self) -> f64 {
        let n = self.total();
        if n == 0 {
            return 0.0;
        }
        self.weight * (1.0 - self.counts.masked as f64 / n as f64)
    }

    /// Full-population fraction of a class. Non-Masked classes reweight
    /// the sample proportion by the sampled mass; Masked additionally
    /// absorbs the entire unsampled (provably masked) remainder, so the
    /// five fractions still sum to 1. With `weight = 1.0` both formulas
    /// reduce bit-identically to the plain sample proportions.
    pub fn fraction(&self, class: FaultClass) -> f64 {
        let n = self.total();
        if n == 0 {
            return 0.0;
        }
        if class == FaultClass::Masked {
            if self.weight == 1.0 {
                self.counts.masked as f64 / n as f64
            } else {
                1.0 - self.avf()
            }
        } else {
            crate::stats::ht_fraction(self.counts.get(class), n, self.weight)
        }
    }

    /// Error margin of the AVF estimate at 99% confidence (Leveugle;
    /// reweighted over the live subpopulation for importance-sampled
    /// campaigns).
    pub fn margin_99(&self) -> f64 {
        let population = self.live_population.unwrap_or_else(|| {
            self.bit_population
                .saturating_mul(self.golden_cycles.max(1))
        });
        crate::stats::weighted_error_margin(
            self.total(),
            population,
            self.weight,
            crate::stats::Z_99,
        )
    }
}

/// Fault injector bound to one (machine, program) pair.
///
/// Holds the golden reference; every injection constructs a fresh simulator
/// so faults cannot leak between runs.
#[derive(Debug)]
pub struct Injector<'a> {
    cfg: &'a MachineConfig,
    program: &'a Program,
    golden: Golden,
    /// Per-structure injectable-bit populations, captured once at
    /// construction: machine geometry, not simulation state, so no caller
    /// should ever pay a full `Sim` allocation just to read a size.
    bit_counts: [u64; Structure::ALL.len()],
    /// Golden-run liveness windows: recorded by the golden run itself when
    /// the injector was built for a plan that reads them
    /// ([`Injector::for_plan`]), else built lazily by one extra
    /// instrumented golden execution the first time a campaign prunes (or
    /// verifies).
    liveness: OnceLock<LivenessMap>,
    /// Per-structure vulnerable-site counts (the importance sampler's
    /// population), counted once on first use.
    vulnerable_sites: [OnceLock<u64>; Structure::ALL.len()],
}

/// What one fault-free execution of the program yields.
struct GoldenRun {
    golden: Golden,
    bit_counts: [u64; Structure::ALL.len()],
    /// The run's liveness map, when it was recorded.
    liveness: Option<LivenessMap>,
}

/// Position of `structure` in [`Structure::ALL`], the index of every
/// per-structure array an [`Injector`] keeps.
fn structure_index(structure: Structure) -> usize {
    Structure::ALL
        .iter()
        .position(|&s| s == structure)
        .expect("Structure::ALL is exhaustive")
}

/// Runs the fault-free program to its halt under a `stage` span. With
/// `liveness` set, the run records the liveness map, its register-file
/// windows bounded by the program's static demand masks (attached under a
/// nested `campaign.masks` span); without it, the simulator carries no
/// instrumentation at all.
fn golden_run(
    cfg: &MachineConfig,
    program: &Program,
    liveness: bool,
    stage: &'static str,
) -> Result<GoldenRun, GoldenError> {
    let mut sp = span(stage);
    let mut sim = Sim::new(cfg, program);
    let bit_counts = Structure::ALL.map(|s| sim.bit_count(s));
    if liveness {
        sim.enable_liveness();
        let _mask_sp = span("campaign.masks");
        sim.attach_static_masks(program);
    }
    match sim.run(4_000_000_000) {
        SimOutcome::Halted {
            cycles,
            retired,
            output,
        } => {
            sp.record("cycles", cycles);
            Ok(GoldenRun {
                golden: Golden {
                    cycles,
                    retired,
                    output,
                },
                bit_counts,
                liveness: liveness.then(|| {
                    sim.liveness_map()
                        .expect("liveness instrumentation was enabled")
                }),
            })
        }
        other => Err(GoldenError(format!("{other:?}"))),
    }
}

impl<'a> Injector<'a> {
    /// Runs the golden execution and prepares the injector. The golden run
    /// records no liveness; [`Injector::liveness`] builds it on demand.
    ///
    /// # Errors
    ///
    /// [`GoldenError`] if the fault-free program does not halt cleanly.
    pub fn new(cfg: &'a MachineConfig, program: &'a Program) -> Result<Injector<'a>, GoldenError> {
        Injector::with_golden_run(cfg, program, false)
    }

    /// Like [`Injector::new`], but when campaigns under `plan` read the
    /// golden run's liveness ([`SamplingPlan::reads_liveness`]) the one
    /// golden run records it as well, instead of [`Injector::liveness`]
    /// running the program a second time. Equal to [`Injector::new`]
    /// followed by [`Injector::liveness`] in every answer.
    ///
    /// # Errors
    ///
    /// [`GoldenError`] if the fault-free program does not halt cleanly.
    pub fn for_plan(
        cfg: &'a MachineConfig,
        program: &'a Program,
        plan: &SamplingPlan,
    ) -> Result<Injector<'a>, GoldenError> {
        Injector::with_golden_run(cfg, program, plan.reads_liveness())
    }

    fn with_golden_run(
        cfg: &'a MachineConfig,
        program: &'a Program,
        liveness: bool,
    ) -> Result<Injector<'a>, GoldenError> {
        let run = golden_run(cfg, program, liveness, "campaign.golden")?;
        Ok(Injector {
            cfg,
            program,
            golden: run.golden,
            bit_counts: run.bit_counts,
            liveness: run.liveness.map_or_else(OnceLock::new, OnceLock::from),
            vulnerable_sites: [const { OnceLock::new() }; Structure::ALL.len()],
        })
    }

    /// The golden reference run.
    pub fn golden(&self) -> &Golden {
        &self.golden
    }

    /// Number of injectable bits of `structure` on this machine (cached at
    /// construction — this used to allocate a throwaway `Sim` per call,
    /// which dominated the pruning filter once COW forking made the convoy
    /// itself cheap).
    pub fn bit_count(&self, structure: Structure) -> u64 {
        self.bit_counts[structure_index(structure)]
    }

    /// Per-structure live windows of the golden run: recorded by the
    /// golden run itself when the injector was built with
    /// [`Injector::for_plan`] for a plan that reads them, else built on
    /// first use by one extra instrumented golden execution, and cached for
    /// the injector's lifetime.
    ///
    /// # Panics
    ///
    /// If the instrumented execution does not repeat the golden run (the
    /// instrumentation must only observe).
    pub fn liveness(&self) -> &LivenessMap {
        self.liveness.get_or_init(|| {
            let run = golden_run(self.cfg, self.program, true, "campaign.liveness")
                .unwrap_or_else(|e| panic!("instrumented golden run: {e}"));
            assert_eq!(
                run.golden, self.golden,
                "the instrumented golden run must halt like the golden run"
            );
            run.liveness.expect("liveness was recorded")
        })
    }

    /// Number of `(bit, cycle)` sites of `structure` the golden run's
    /// liveness cannot prove masked (the importance sampler's population),
    /// counted once per structure and cached. Structures the map does not
    /// track count every site.
    pub(crate) fn vulnerable_sites(&self, structure: Structure) -> u64 {
        *self.vulnerable_sites[structure_index(structure)].get_or_init(|| {
            let bits = self.bit_count(structure);
            if bits == 0 {
                return 0;
            }
            let cycles = self.golden.cycles.max(1);
            let total = bits.saturating_mul(cycles);
            self.liveness()
                .vulnerable_site_count(structure, cycles)
                .unwrap_or(total)
                .min(total)
        })
    }

    /// True when every bit of the `width`-bit burst at `fault` lands
    /// outside all of the golden run's live windows: the flip can never be
    /// observed, so the fault is Masked by construction and a campaign may
    /// classify it without simulating.
    fn prunable(&self, fault: FaultSpec, width: u8) -> bool {
        let bits = self.bit_count(fault.structure);
        if bits == 0 {
            // Nothing to flip; the engines classify this Masked themselves.
            return false;
        }
        let map = self.liveness();
        (0..u64::from(width.max(1)))
            .all(|k| !map.is_ace(fault.structure, (fault.bit + k) % bits, fault.cycle))
    }

    /// True when every bit of the burst is provably unobservable once the
    /// per-window static demand masks are taken into account: the bit is
    /// either outside all danger windows (the [`Injector::prunable`] case)
    /// or inside windows whose writing instructions the compiler proved
    /// never demand it. Always true where `prunable` is true, so static
    /// pruning is a strict refinement of liveness pruning.
    fn prunable_static(&self, fault: FaultSpec, width: u8) -> bool {
        let bits = self.bit_count(fault.structure);
        if bits == 0 {
            return false;
        }
        let map = self.liveness();
        (0..u64::from(width.max(1)))
            .all(|k| !map.is_vulnerable(fault.structure, (fault.bit + k) % bits, fault.cycle))
    }

    /// Executes one single-bit injection and classifies the outcome.
    pub fn inject(&self, fault: FaultSpec) -> FaultClass {
        self.inject_burst(fault, 1)
    }

    /// Executes a multi-bit-upset injection: `width` *adjacent* bits are
    /// flipped at the fault cycle (width 1 is the paper's single-event
    /// upset; larger widths model the MBU bursts of the authors' companion
    /// IISWC'19 study). Bits past the end of the structure wrap around.
    ///
    /// A simulator panic during the faulted run is caught and classified as
    /// [`FaultClass::Assert`] (with a warning event) instead of aborting
    /// the campaign: a flipped bit driving the model into a state it refuses
    /// to handle is exactly what the paper's Assert class records.
    pub fn inject_burst(&self, fault: FaultSpec, width: u8) -> FaultClass {
        self.inject_outcome(fault, width).class
    }

    /// Fresh-path injection with forensic context (the end cycle; the fresh
    /// path has no golden simulator alongside to diff, so no divergence
    /// site).
    fn inject_outcome(&self, fault: FaultSpec, width: u8) -> Outcome {
        match catch_unwind(AssertUnwindSafe(|| self.inject_outcome_inner(fault, width))) {
            Ok(outcome) => outcome,
            Err(_) => {
                event!(
                    Level::Warn,
                    "inject.fresh",
                    { bit: fault.bit, cycle: fault.cycle, width: width },
                    "simulator panicked on {:?} (width {}); classifying as Assert",
                    fault,
                    width
                );
                Outcome {
                    class: FaultClass::Assert,
                    end_cycle: fault.cycle,
                    ..Outcome::masked_at(fault.cycle)
                }
            }
        }
    }

    fn inject_outcome_inner(&self, fault: FaultSpec, width: u8) -> Outcome {
        let mut sim = Sim::new(self.cfg, self.program);
        if let Some(early) = sim.run_to_cycle(fault.cycle) {
            // The golden run ended before the injection cycle (can only
            // happen with out-of-range cycles): the fault lands after the
            // program finished and is architecturally masked.
            return match early {
                SimOutcome::Halted { cycles, .. } => Outcome::masked_at(cycles),
                other => {
                    event!(
                        Level::Warn,
                        "inject.fresh",
                        { bit: fault.bit, cycle: fault.cycle },
                        "fault-free prefix of {:?} ended abnormally ({:?}); \
                         classifying as Assert",
                        fault,
                        other
                    );
                    Outcome {
                        class: FaultClass::Assert,
                        ..Outcome::masked_at(sim.cycle())
                    }
                }
            };
        }
        if !apply_burst(&mut sim, fault, width) {
            return Outcome::masked_at(fault.cycle);
        }
        let end = sim.run(2 * self.golden.cycles);
        Outcome {
            class: self.classify_end(&end),
            ..Outcome::masked_at(end_cycles(&end))
        }
    }

    /// Maps a terminal faulted-run outcome to the paper's classes.
    fn classify_end(&self, end: &SimOutcome) -> FaultClass {
        match end {
            SimOutcome::Halted { output, .. } => {
                if *output == self.golden.output {
                    FaultClass::Masked
                } else {
                    FaultClass::Sdc
                }
            }
            SimOutcome::Crash { .. } => FaultClass::Crash,
            SimOutcome::Assert { .. } => FaultClass::Assert,
            SimOutcome::CycleLimit { .. } => FaultClass::Timeout,
        }
    }

    /// Starts configuring a campaign on one structure: the one-structure
    /// case of [`Injector::run_all`].
    ///
    /// The returned [`CampaignRun`] builder selects the optional extras the
    /// old `campaign_*` method family hard-coded into separate entry
    /// points: a live [`CampaignObserver`], forensic [`FaultRecord`]
    /// capture, a multi-bit burst width, and an explicit pre-sampled fault
    /// list. Call [`CampaignRun::execute`] to run it.
    ///
    /// ```ignore
    /// let out = injector
    ///     .run(Structure::RegFile, &cfg)
    ///     .observer(&progress)
    ///     .records(true)
    ///     .execute();
    /// ```
    pub fn run<'r>(&'r self, structure: Structure, cfg: &CampaignConfig) -> CampaignRun<'r, 'a> {
        self.run_all(&[structure], cfg)
    }

    /// Starts configuring one campaign per structure, all classified by a
    /// single golden convoy: each structure is sampled, weighted and pruned
    /// on its own (same RNG streams as [`Injector::run`]), the survivors of
    /// every structure are classified in one pass that advances the golden
    /// simulator once, and outcomes are split back per structure. Call
    /// [`CampaignRun::execute_all`] to run it; per-fault classes equal
    /// those of separate one-structure runs.
    pub fn run_all<'r>(
        &'r self,
        structures: &[Structure],
        cfg: &CampaignConfig,
    ) -> CampaignRun<'r, 'a> {
        CampaignRun {
            injector: self,
            structures: structures.to_vec(),
            cfg: *cfg,
            faults: None,
            observer: None,
            record: false,
            burst_width: 1,
            propagation: None,
        }
    }

    /// Samples `n` distinct faults for a structure uniformly over
    /// (bit × cycle), reproducibly from `seed`.
    ///
    /// Draws are deduplicated (collisions are redrawn, preserving draw
    /// order): the error-margin statistics apply a finite-population
    /// correction that assumes sampling *without* replacement, so injecting
    /// the same (bit, cycle) twice would overstate the campaign's
    /// confidence. When `n` exceeds the structure's (bit × cycle)
    /// population the sample is the full census. Because rejected draws
    /// depend only on earlier draws, a smaller sample is always a prefix of
    /// a larger one from the same seed.
    ///
    /// A structure with no injectable bits on this machine (e.g. a queue
    /// configured with zero entries) yields an empty sample instead of
    /// panicking on the empty bit range.
    pub fn sample_faults(&self, structure: Structure, n: u64, seed: u64) -> Vec<FaultSpec> {
        let bits = self.bit_count(structure);
        if bits == 0 {
            return Vec::new();
        }
        let cycles = self.golden.cycles.max(1);
        let population = bits.saturating_mul(cycles);
        let n = n.min(population);
        // Mix the structure into the seed so different structures draw
        // independent samples from the same campaign seed.
        let mut rng =
            SmallRng::seed_from_u64(seed ^ (structure as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut seen: HashSet<(u64, u64)> = HashSet::with_capacity(n as usize);
        let mut faults = Vec::with_capacity(n as usize);
        while (faults.len() as u64) < n {
            let bit = rng.gen_range(0..bits);
            let cycle = rng.gen_range(0..cycles);
            if seen.insert((bit, cycle)) {
                faults.push(FaultSpec {
                    structure,
                    bit,
                    cycle,
                });
            }
        }
        faults
    }

    /// Rejection-samples `n` distinct faults from the live-and-demanded
    /// subpopulation: the exact RNG stream of [`Injector::sample_faults`],
    /// but only draws the golden run's liveness model cannot prove masked
    /// are kept. On a structure whose every site is live the accepted
    /// sample is bit-identical to the uniform one. Deduplicated,
    /// prefix-stable, and capped at the subpopulation size like the
    /// uniform sampler.
    pub fn sample_importance(&self, structure: Structure, n: u64, seed: u64) -> Vec<FaultSpec> {
        let bits = self.bit_count(structure);
        if bits == 0 {
            return Vec::new();
        }
        let cycles = self.golden.cycles.max(1);
        let map = self.liveness();
        let n = n.min(self.vulnerable_sites(structure));
        let mut rng =
            SmallRng::seed_from_u64(seed ^ (structure as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut seen: HashSet<(u64, u64)> = HashSet::with_capacity(n as usize);
        let mut faults = Vec::with_capacity(n as usize);
        while (faults.len() as u64) < n {
            let bit = rng.gen_range(0..bits);
            let cycle = rng.gen_range(0..cycles);
            if map.is_vulnerable(structure, bit, cycle) && seen.insert((bit, cycle)) {
                faults.push(FaultSpec {
                    structure,
                    bit,
                    cycle,
                });
            }
        }
        faults
    }

    /// Samples faults per the config's [`SamplingPlan`]: a fixed count, or
    /// just enough to reach a target margin.
    fn sample_plan(&self, structure: Structure, cfg: &CampaignConfig) -> Vec<FaultSpec> {
        let sampler = cfg.plan.sampler;
        let n = match cfg.plan.stop {
            StopRule::FixedN(n) => n,
            StopRule::TargetMargin { target, batch } => {
                self.adaptive_size(structure, target, batch.max(1), sampler)
            }
        };
        sampler.sample(self, structure, n, cfg.seed)
    }

    /// How many faults push the worst-case AVF error margin at 99%
    /// confidence down to `target`, growing in batches of `batch`. The
    /// size depends only on the sampler's population and weight and the
    /// target, and both samplers are prefix-stable, so the adaptive sample
    /// equals a fixed-size sample of the same count. Under an importance
    /// sampler the margin is the reweighted one over the live
    /// subpopulation, which is what makes sparse structures stop
    /// ~`weight²`× earlier.
    fn adaptive_size(
        &self,
        structure: Structure,
        target: f64,
        batch: u64,
        sampler: SamplerKind,
    ) -> u64 {
        if self.bit_count(structure) == 0 {
            return 0;
        }
        let population = sampler.population(self, structure);
        let weight = sampler.weight(self, structure);
        // Jump straight to the analytic sample size, rounded up to whole
        // batches, then let the margin check absorb any rounding slack.
        let need =
            crate::stats::weighted_required_sample(target, population, weight, crate::stats::Z_99);
        let mut n = need.div_ceil(batch).saturating_mul(batch).min(population);
        while crate::stats::weighted_error_margin(n, population, weight, crate::stats::Z_99)
            > target
            && n < population
        {
            n = n.saturating_add(batch).min(population);
        }
        event!(
            Level::Info,
            "inject.adaptive",
            { structure: format!("{structure:?}"), n: n, population: population, target: target },
            "adaptive sampling: {} faults reach a {:.4} margin over a population of {}",
            n,
            target,
            population
        );
        n
    }
}

/// A configured-but-not-yet-executed campaign on one structure
/// ([`Injector::run`]) or on several over one golden convoy
/// ([`Injector::run_all`]).
///
/// Defaults: single-bit upsets, faults sampled from the config's
/// `(injections, seed)`, no observer, no forensic records. Each builder
/// method opts into one extra; [`CampaignRun::execute`] (one structure) or
/// [`CampaignRun::execute_all`] runs the campaign on the engine selected
/// by the config (`checkpoint`, `threads`). Classification is
/// bit-identical across every combination of extras — observers and
/// records never perturb the engine's verdicts.
#[must_use = "a CampaignRun does nothing until `.execute()` is called"]
pub struct CampaignRun<'r, 'a> {
    injector: &'r Injector<'a>,
    structures: Vec<Structure>,
    cfg: CampaignConfig,
    faults: Option<&'r [FaultSpec]>,
    observer: Option<&'r dyn CampaignObserver>,
    record: bool,
    burst_width: u8,
    /// `(every, one_in)` propagation sampling, see [`CampaignRun::propagation`].
    propagation: Option<(u64, u64)>,
}

/// One structure's share of a run, between sampling and classification.
struct Planned<'r> {
    structure: Structure,
    faults: Cow<'r, [FaultSpec]>,
    weight: f64,
    live_population: Option<u64>,
    /// (liveness-pruned, static-pruned) per fault, mutually exclusive;
    /// empty when nothing is pruned.
    pruned: Vec<(bool, bool)>,
}

impl Planned<'_> {
    fn is_pruned(&self, i: usize) -> bool {
        self.pruned.get(i).is_some_and(|&(d, s)| d || s)
    }

    /// The faults the engine must classify, in sample order.
    fn survivors(&self) -> impl Iterator<Item = FaultSpec> + '_ {
        self.faults
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.is_pruned(i))
            .map(|(_, &f)| f)
    }
}

/// The most faults the uniform cross-check of an importance campaign in
/// verify mode draws: twice the largest sample `just verify-check` draws
/// there (100,425 faults, A15 qsort O2 `l1i.data`).
const VERIFY_UNIFORM_CAP: u64 = 200_000;

impl<'r, 'a> CampaignRun<'r, 'a> {
    /// Streams every per-fault classification to `observer` as it is made
    /// (e.g. a [`crate::ProgressLine`]).
    pub fn observer(mut self, observer: &'r dyn CampaignObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Captures one forensic [`FaultRecord`] per fault (verdict cycle,
    /// first-divergence site). Recording always runs the checkpointed
    /// convoy engine — the golden simulator it forks children from doubles
    /// as the divergence reference — and classes stay identical to the
    /// engine the config selects.
    pub fn records(mut self, record: bool) -> Self {
        self.record = record;
        self
    }

    /// Flips `width` adjacent bits per injection instead of one (the MBU
    /// extension; width 1 is the paper's single-event upset).
    pub fn burst_width(mut self, width: u8) -> Self {
        self.burst_width = width;
        self
    }

    /// Classifies exactly `faults` (in input order) instead of sampling
    /// from the config's `(injections, seed)`. The aggregate result is
    /// attributed to the run's structure even if the list mixes targets.
    /// Only for one-structure runs ([`Injector::run`]).
    pub fn faults(mut self, faults: &'r [FaultSpec]) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Opt-in propagation tracing: a deterministic 1-in-`one_in` subset of
    /// the faults that actually fork a convoy child additionally snapshots
    /// the diverging-component set every `every` cycles after injection,
    /// attached to the [`FaultRecord`] as a [`PropagationTrace`]. Implies
    /// nothing unless [`CampaignRun::records`] is also enabled (the
    /// timeline rides the record).
    ///
    /// Selection hashes the fault spec itself, so whether a given fault is
    /// traced does not depend on thread count or which other faults were
    /// sampled. Sampling is read-only on both simulators and never changes
    /// classes or the other record fields; the timeline's *length* is
    /// best-effort (it ends early if the child graduates off the convoy).
    pub fn propagation(mut self, every: u64, one_in: u64) -> Self {
        self.propagation = Some((every.max(1), one_in.max(1)));
        self
    }

    /// Executes a one-structure run ([`Injector::run`]).
    ///
    /// # Panics
    ///
    /// Panics on a run over several structures; use
    /// [`CampaignRun::execute_all`] for those.
    pub fn execute(self) -> CampaignOutput {
        assert_eq!(
            self.structures.len(),
            1,
            "execute() runs one structure; use execute_all()"
        );
        self.execute_all().pop().expect("one output per structure")
    }

    /// Executes the run: one [`CampaignOutput`] per structure, in the
    /// order [`Injector::run_all`] was given: each structure is sampled and
    /// pruned on its own, the union of survivors is classified in one
    /// convoy, and outcomes are split back and tallied per structure.
    ///
    /// # Panics
    ///
    /// Panics when a preset fault list ([`CampaignRun::faults`]) is given
    /// to a run over several structures, and under `prune = verify` when a
    /// campaign disagrees with its oracle ([`PruneMode::Verify`]).
    pub fn execute_all(self) -> Vec<CampaignOutput> {
        assert!(
            self.faults.is_none() || self.structures.len() == 1,
            "a preset fault list needs a one-structure run"
        );
        let mut cell = span("campaign.cell");
        cell.record("structures", self.structures.len());
        // A one-structure run charges all of its stages to the structure;
        // a shared convoy's classify stage belongs to no one structure.
        if let [structure] = self.structures[..] {
            cell.record("structure", structure.name());
        }
        let planned: Vec<Planned> = self.structures.iter().map(|&s| self.plan(s)).collect();
        if let Some(observer) = self.observer {
            observer.faults_planned(planned.iter().map(|p| p.faults.len() as u64).sum());
        }
        let survivors: Vec<FaultSpec> = planned.iter().flat_map(Planned::survivors).collect();
        let mut outcomes = self.classify(&survivors).into_iter();
        planned
            .into_iter()
            .map(|p| {
                let n = p.survivors().count();
                self.finish(p, outcomes.by_ref().take(n).collect())
            })
            .collect()
    }

    /// Samples, weights and prunes one structure (its `campaign.run` span).
    fn plan(&self, structure: Structure) -> Planned<'r> {
        let mut root = span("campaign.run");
        root.record("structure", structure.name());
        // Preset fault lists are the caller's own census — no sampling
        // distribution applies, so they always carry unit weight.
        let importance = self.faults.is_none() && self.cfg.plan.sampler.is_importance();
        let faults = match self.faults {
            Some(faults) => Cow::Borrowed(faults),
            None => {
                let mut sp = span("campaign.sample");
                let sampled = self.injector.sample_plan(structure, &self.cfg);
                sp.record("faults", sampled.len());
                Cow::Owned(sampled)
            }
        };
        root.record("injections", faults.len());
        let (weight, live_population) = if importance {
            let sampler = SamplerKind::Importance;
            (
                sampler.weight(self.injector, structure),
                Some(sampler.population(self.injector, structure)),
            )
        } else {
            (1.0, None)
        };
        let pruned = if self.cfg.plan.prune == PrunePolicy::default() {
            Vec::new()
        } else {
            self.prune(&faults)
        };
        Planned {
            structure,
            faults,
            weight,
            live_population,
            pruned,
        }
    }

    /// `prune` and/or `prune_static` set to `on` or `verify`: flags the
    /// faults a pruner proves Masked, so only the rest reach the engine. A
    /// fault both stages could prune is attributed to the dynamic liveness
    /// pruner (the cheaper proof).
    fn prune(&self, faults: &[FaultSpec]) -> Vec<(bool, bool)> {
        let mut sp = span("campaign.prune");
        let dyn_on = self.cfg.plan.prune.liveness != PruneMode::Off;
        let static_on = self.cfg.plan.prune.demand != PruneMode::Off;
        let flags: Vec<(bool, bool)> = faults
            .iter()
            .map(|&f| {
                let d = dyn_on && self.injector.prunable(f, self.burst_width);
                let s = !d && static_on && self.injector.prunable_static(f, self.burst_width);
                (d, s)
            })
            .collect();
        let dyn_n = flags.iter().filter(|&&(d, _)| d).count();
        let static_n = flags.iter().filter(|&&(_, s)| s).count();
        sp.record("pruned", dyn_n);
        sp.record("pruned_static", static_n);
        sp.record("survivors", faults.len() - dyn_n - static_n);
        drop(sp);
        if let Some(&first) = faults.first() {
            event!(
                Level::Info,
                "inject.prune",
                {
                    structure: format!("{:?}", first.structure),
                    pruned: dyn_n,
                    pruned_static: static_n,
                    total: faults.len(),
                    width: self.burst_width
                },
                "pruned {}/{} sampled faults as provably masked ({} by liveness, {} statically)",
                dyn_n + static_n,
                faults.len(),
                dyn_n,
                static_n
            );
        }
        flags
    }

    /// The engine shared by the class-only and recorded paths: classifies
    /// every fault, notifying the observer per verdict, and (in `record`
    /// mode, which forces the convoy engine) capturing forensic context.
    /// Faults may mix structures; the convoy advances one golden simulator
    /// across all of them in cycle order.
    fn classify(&self, faults: &[FaultSpec]) -> Vec<Outcome> {
        let convoy = self.record || self.cfg.checkpoint;
        let mut sp = span("campaign.classify");
        sp.record("faults", faults.len());
        sp.record("engine", if convoy { "convoy" } else { "fresh" });
        sp.record("threads", self.cfg.threads);
        let mut order: Vec<usize> = (0..faults.len()).collect();
        if convoy {
            // Stable, so same-cycle faults keep their sample order.
            order.sort_by_key(|&i| faults[i].cycle);
        }
        let next = AtomicUsize::new(0);
        let engine = Engine {
            inj: self.injector,
            faults,
            order: &order,
            next: &next,
            width: self.burst_width,
            record: self.record,
            observer: self.observer,
            propagation: self.propagation,
        };
        let run_worker = || {
            if convoy {
                engine.convoy_worker()
            } else {
                engine.fresh_worker()
            }
        };
        let parts: Vec<Vec<(usize, Outcome)>> = if self.cfg.threads <= 1 {
            vec![run_worker()]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.cfg.threads)
                    .map(|_| scope.spawn(run_worker))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("injection worker panicked"))
                    .collect()
            })
        };
        let mut outcomes = vec![Outcome::masked_at(0); faults.len()];
        for (slot, outcome) in parts.into_iter().flatten() {
            outcomes[slot] = outcome;
        }
        outcomes
    }

    /// Scatters one structure's engine outcomes and pruned verdicts back
    /// into sample order, tallies it, and verifies it under
    /// `prune = verify`.
    fn finish(&self, p: Planned<'_>, survivor_outcomes: Vec<Outcome>) -> CampaignOutput {
        let mut survivor_it = survivor_outcomes.into_iter();
        let outcomes: Vec<Outcome> = (0..p.faults.len())
            .map(|i| match p.pruned.get(i) {
                Some(&(d, s)) if d || s => {
                    if let Some(observer) = self.observer {
                        observer.fault_classified(FaultClass::Masked);
                    }
                    let cycle = p.faults[i].cycle;
                    if d {
                        Outcome::pruned_at(cycle)
                    } else {
                        Outcome::pruned_static_at(cycle)
                    }
                }
                _ => survivor_it.next().expect("one engine outcome per survivor"),
            })
            .collect();
        let mut counts = ClassCounts::default();
        let mut simulated = 0u64;
        for outcome in &outcomes {
            counts.record(outcome.class);
            if !outcome.pruned && !outcome.pruned_static {
                simulated += 1;
            }
        }
        let classes: Vec<FaultClass> = outcomes.iter().map(|o| o.class).collect();
        let records = self.record.then(|| {
            outcomes
                .into_iter()
                .zip(p.faults.iter())
                .map(|(outcome, &spec)| FaultRecord {
                    spec,
                    class: outcome.class,
                    end_cycle: outcome.end_cycle,
                    golden_cycles: self.injector.golden.cycles,
                    first_divergence: outcome.divergence,
                    pruned: outcome.pruned,
                    pruned_static: outcome.pruned_static,
                    weight: p.weight,
                    propagation: outcome.propagation,
                })
                .collect()
        });
        let output = CampaignOutput {
            result: CampaignResult {
                structure: p.structure,
                bit_population: self.injector.bit_count(p.structure),
                golden_cycles: self.injector.golden.cycles,
                counts,
                weight: p.weight,
                live_population: p.live_population,
            },
            classes,
            records,
            simulated,
        };
        if self.cfg.plan.prune.any_verify() {
            self.verify(&p.faults, &output);
        }
        output
    }

    /// `prune = verify` on either stage: re-classifies `faults` (the
    /// structure's whole sample, in `output`'s order) on the fresh engine
    /// with nothing pruned and panics on the first fault whose class
    /// differs from the campaign's, so neither an unsound prune window or
    /// demand mask nor a wrong convoy shortcut can return tainted tallies.
    /// An importance campaign over a non-empty live subpopulation is then
    /// held to a uniform, unpruned campaign at its achieved margin: the two
    /// AVF estimates must agree within their combined 99% margins. (An
    /// empty subpopulation proved AVF = 0 exactly, and a zero margin would
    /// ask for a census.)
    fn verify(&self, faults: &[FaultSpec], output: &CampaignOutput) {
        let result = &output.result;
        let structure = result.structure;
        let mut sp = span("campaign.verify");
        sp.record("structure", structure.name());
        sp.record("faults", faults.len());
        let unpruned = SamplingPlan {
            prune: PrunePolicy::default(),
            ..self.cfg.plan
        };
        let fresh = CampaignConfig {
            plan: unpruned,
            checkpoint: false,
            ..self.cfg
        };
        let oracle = self
            .injector
            .run(structure, &fresh)
            .faults(faults)
            .burst_width(self.burst_width)
            .execute();
        for ((fault, &class), &expected) in faults.iter().zip(&output.classes).zip(&oracle.classes)
        {
            assert!(
                class == expected,
                "verification failed: {fault:?} (width {}) classified {class} by the \
                 campaign but {expected} by the fresh engine",
                self.burst_width
            );
        }
        let margin = result.margin_99();
        if !(result.live_population.is_some_and(|n| n > 0) && margin.is_finite() && margin > 0.0) {
            return;
        }
        // Sized to the achieved margin, but a tight margin on a huge
        // structure would ask for a census: the cap only widens the uniform
        // margin, which the comparison below adds in.
        let batch = self.cfg.plan.injections().max(1);
        let n = self
            .injector
            .adaptive_size(structure, margin, batch, SamplerKind::Uniform)
            .min(VERIFY_UNIFORM_CAP);
        sp.record("uniform_faults", n);
        let uniform_cfg = CampaignConfig {
            plan: SamplingPlan {
                sampler: SamplerKind::Uniform,
                stop: StopRule::FixedN(n),
                ..unpruned
            },
            ..self.cfg
        };
        let uniform = self
            .injector
            .run(structure, &uniform_cfg)
            .burst_width(self.burst_width)
            .execute()
            .result;
        let (avf_i, avf_u) = (result.avf(), uniform.avf());
        let combined = margin + uniform.margin_99();
        sp.record("delta", format!("{:.6}", (avf_i - avf_u).abs()));
        assert!(
            (avf_i - avf_u).abs() <= combined,
            "sampling verification failed on {structure:?}: importance AVF {avf_i:.4} \
             (±{margin:.4}) vs uniform AVF {avf_u:.4} differ beyond the combined 99% \
             margin {combined:.4}"
        );
    }
}

/// Everything one executed campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignOutput {
    /// Aggregate per-class tallies and structure metadata.
    pub result: CampaignResult,
    /// One class per fault, in sample (or [`CampaignRun::faults`] input)
    /// order.
    pub classes: Vec<FaultClass>,
    /// One forensic record per fault in the same order, when
    /// [`CampaignRun::records`] was enabled.
    pub records: Option<Vec<FaultRecord>>,
    /// Faults that actually reached a simulation engine (everything a
    /// pruner did not classify on the spot) — the forked-child-simulation
    /// cost the sampling-efficiency tables compare.
    pub simulated: u64,
}

/// Classification outcome plus forensic context for one fault.
#[derive(Debug, Clone)]
struct Outcome {
    class: FaultClass,
    /// Cycle the verdict was decided at.
    end_cycle: u64,
    /// First-divergence site (recorded-mode convoy forks only).
    divergence: Option<DivergenceSite>,
    /// Verdict produced by the liveness pruner, without simulation.
    pruned: bool,
    /// Verdict produced by the static bit-demand pruner, without
    /// simulation (never set together with `pruned`).
    pruned_static: bool,
    /// Propagation timeline (opt-in recorded-convoy mode only).
    propagation: Option<PropagationTrace>,
}

impl Outcome {
    /// A Masked verdict decided at `cycle` without any state divergence.
    fn masked_at(cycle: u64) -> Outcome {
        Outcome {
            class: FaultClass::Masked,
            end_cycle: cycle,
            divergence: None,
            pruned: false,
            pruned_static: false,
            propagation: None,
        }
    }

    /// A Masked verdict the liveness pruner issued without simulating.
    fn pruned_at(cycle: u64) -> Outcome {
        Outcome {
            pruned: true,
            ..Outcome::masked_at(cycle)
        }
    }

    /// A Masked verdict the static bit-demand pruner issued without
    /// simulating.
    fn pruned_static_at(cycle: u64) -> Outcome {
        Outcome {
            pruned_static: true,
            ..Outcome::masked_at(cycle)
        }
    }
}

/// Terminal cycle of a simulation outcome.
fn end_cycles(end: &SimOutcome) -> u64 {
    match end {
        SimOutcome::Halted { cycles, .. }
        | SimOutcome::Crash { cycles, .. }
        | SimOutcome::Assert { cycles, .. }
        | SimOutcome::CycleLimit { cycles } => *cycles,
    }
}

/// One `CampaignRun::classify` invocation's shared context; worker threads run
/// its `convoy_worker`/`fresh_worker` against the common claim index.
struct Engine<'e, 'a> {
    inj: &'e Injector<'a>,
    faults: &'e [FaultSpec],
    /// Fault indices in claim order (cycle-sorted for the convoy engine).
    order: &'e [usize],
    /// Work-stealing claim index shared by every worker.
    next: &'e AtomicUsize,
    width: u8,
    /// Capture end cycles and first-divergence sites (forensics mode).
    record: bool,
    observer: Option<&'e dyn CampaignObserver>,
    /// `(every, one_in)` propagation sampling for a deterministic subset
    /// of recorded convoy children.
    propagation: Option<(u64, u64)>,
}

/// Per-worker counters rolled into the worker's `campaign.worker` span so
/// the profiler can attribute convoy behavior (forks, convergence,
/// graduation) without per-fork spans on the hot path. Plain integer
/// increments — negligible next to a single simulated cycle — so they are
/// maintained unconditionally.
#[derive(Debug, Default)]
struct WorkerStats {
    /// Faults this worker claimed.
    claimed: u64,
    /// Fresh (from-cycle-0) simulations.
    fresh: u64,
    /// Convoy children forked.
    forks: u64,
    /// Faults classified Masked without riding the convoy (flip landed in
    /// dead state or past the program end).
    masked_nofork: u64,
    /// Children classified by proven re-convergence to the golden state
    /// (not counting parked verdicts).
    converged: u64,
    /// Children that reached their own end (halt/crash/assert/timeout)
    /// while on the convoy.
    ended: u64,
    /// Children run to their own end off the convoy: graduated past
    /// `MAX_CONVOY`, or still riding unparked when the golden run halted
    /// (not counting parked verdicts).
    graduated: u64,
    /// Children filed while parked when the golden run halted: they still
    /// differed from it only in state it never read again.
    parked: u64,
    /// Children filed as Timeout at a fixed point of the cycle transition
    /// (a deadlock) while on the convoy, instead of being simulated to the
    /// cycle budget.
    fixed_points: u64,
    /// Children whose forked simulator panicked (Assert).
    asserts: u64,
    /// Post-injection cycles simulated by children that converged.
    converged_cycles: u64,
    /// Post-injection cycles simulated by children that ran to an end, to
    /// a fixed point or to a parked verdict. Only simulated cycles count:
    /// not those a fixed point skips, nor those a child spends parked.
    ran_cycles: u64,
}

impl WorkerStats {
    fn record_into(&self, sp: &mut Span) {
        sp.record("claimed", self.claimed);
        sp.record("fresh", self.fresh);
        sp.record("forks", self.forks);
        sp.record("masked_nofork", self.masked_nofork);
        sp.record("converged", self.converged);
        sp.record("ended", self.ended);
        sp.record("graduated", self.graduated);
        sp.record("parked", self.parked);
        sp.record("fixed_points", self.fixed_points);
        sp.record("asserts", self.asserts);
        sp.record("converged_cycles", self.converged_cycles);
        sp.record("ran_cycles", self.ran_cycles);
    }
}

impl Engine<'_, '_> {
    /// Files a verdict: notifies the observer and appends to `results`.
    fn push(&self, results: &mut Vec<(usize, Outcome)>, slot: usize, outcome: Outcome) {
        if let Some(observer) = self.observer {
            observer.fault_classified(outcome.class);
        }
        results.push((slot, outcome));
    }

    /// Fresh-path worker: every claimed fault re-simulates from cycle 0.
    fn fresh_worker(&self) -> Vec<(usize, Outcome)> {
        let mut sp = span("campaign.worker");
        let mut stats = WorkerStats::default();
        let mut results = Vec::new();
        loop {
            let k = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(&slot) = self.order.get(k) else {
                break;
            };
            stats.claimed += 1;
            stats.fresh += 1;
            let outcome = self.inj.inject_outcome(self.faults[slot], self.width);
            self.push(&mut results, slot, outcome);
        }
        stats.record_into(&mut sp);
        results
    }

    /// Checkpointing worker: advances one golden simulator across its
    /// (cycle-sorted) claimed faults and forks a child per fault, so the
    /// fault-free prefix is simulated once instead of once per injection.
    ///
    /// Forked children travel in a *convoy*: they advance in lockstep with
    /// the golden simulator and are periodically compared against it with
    /// [`Sim::state_eq`]. A child whose state re-converges to the golden
    /// state is classified on the spot — by determinism its remaining run is
    /// the golden run, so it halts with the golden suffix appended to its
    /// own output; the fault is Masked exactly when the output prefixes
    /// match, and an SDC otherwise. Checks back off exponentially so
    /// children that stay diverged spend their time simulating, not
    /// comparing.
    ///
    /// Two kinds of fault are decided without simulating them to the end.
    /// A fault whose every flipped bit is dead in the golden state
    /// ([`Sim::bit_is_dead`]: a free physical register, an invalid cache
    /// line, a free issue-queue slot) would leave its child state-equal to
    /// the golden run with equal output — identical future — so it is
    /// Masked before any fork. A child on the convoy that stops changing
    /// ([`Sim::is_fixed_point`], probed at a convergence check only when it
    /// retired nothing since its previous check) would spin until the cycle
    /// budget, so it is filed as that Timeout.
    ///
    /// A child that still differs from the golden machine only in register
    /// values and per-set cache state ([`Sim::delta`]) is *parked* at a
    /// failed check: it stops stepping while the golden run advances, and
    /// the golden simulator watches that state ([`Sim::watch`]). Until the
    /// golden run reads it, the child would have mirrored the golden run
    /// outside its delta, so when the golden run reads it the child is
    /// unparked and stepped through the cycles it skipped, and when the
    /// golden run halts first the child would have halted with it: Masked
    /// if its output matched at parking, an SDC otherwise.
    ///
    /// In `record` mode each fork is additionally diffed against the golden
    /// simulator at the injection cycle ([`Sim::state_divergence`]) to name
    /// the first corrupted component; a fork that is state-equal all the
    /// same (a burst wide enough to flip one bit twice) is Masked on the
    /// spot.
    fn convoy_worker(&self) -> Vec<(usize, Outcome)> {
        let mut sp = span("campaign.worker");
        let mut stats = WorkerStats::default();
        let inj = self.inj;
        let mut results = Vec::new();
        let mut golden = Sim::new(inj.cfg, inj.program);
        let mut golden_done = false;
        let mut convoy: Vec<Child> = Vec::new();
        loop {
            let k = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(&slot) = self.order.get(k) else {
                break;
            };
            stats.claimed += 1;
            let fault = self.faults[slot];
            if fault.cycle > inj.golden.cycles {
                // The program halts before the fault lands: masked, exactly
                // as the fresh path's early-halt case.
                stats.masked_nofork += 1;
                self.push(&mut results, slot, Outcome::masked_at(fault.cycle));
                continue;
            }
            if !golden_done {
                golden_done = self.advance_convoy(
                    &mut golden,
                    fault.cycle,
                    &mut convoy,
                    &mut results,
                    &mut stats,
                );
            }
            if golden_done && golden.cycle() < fault.cycle {
                // Defensive: the golden simulator ended before the recorded
                // golden cycle count (a simulator bug, not a reachable state
                // today). Fall back to a from-scratch run for exactness.
                stats.fresh += 1;
                let outcome = inj.inject_outcome(fault, self.width);
                self.push(&mut results, slot, outcome);
                continue;
            }
            if burst_is_dead(&golden, fault, self.width) {
                stats.masked_nofork += 1;
                self.push(&mut results, slot, Outcome::masked_at(fault.cycle));
                continue;
            }
            // COW fork: shares every cache/RF storage chunk with the golden
            // simulator; only chunks either side writes afterwards are
            // copied, so a child that re-converges quickly never pays for
            // the arrays it didn't touch.
            let mut sim = golden.fork();
            apply_burst(&mut sim, fault, self.width);
            let divergence = if self.record {
                match sim.state_divergence(&golden) {
                    Some(component) => Some(DivergenceSite {
                        cycle: fault.cycle,
                        pc: sim.fetch_pc(),
                        component: component.to_string(),
                    }),
                    None => {
                        stats.masked_nofork += 1;
                        self.push(&mut results, slot, Outcome::masked_at(fault.cycle));
                        continue;
                    }
                }
            } else {
                None
            };
            stats.forks += 1;
            let prop = self.propagation_capture(fault).map(|mut capture| {
                // Seed the timeline with the state of the world at the
                // injection cycle itself.
                capture.samples.push(PropagationSample {
                    cycle: fault.cycle,
                    components: component_names(&sim.divergent_components(&golden)),
                });
                capture
            });
            convoy.push(Child {
                slot,
                retired_at_check: sim.retired(),
                sim,
                born: fault.cycle,
                next_check: fault.cycle + FIRST_CHECK_INTERVAL,
                interval: FIRST_CHECK_INTERVAL,
                divergence,
                prop,
                parked: None,
            });
            if convoy.iter().filter(|c| c.parked.is_none()).count() > MAX_CONVOY {
                // Bound memory: graduate the oldest live child and run it to
                // its own end off-convoy. Parking has its own bound.
                let oldest = convoy.remove(
                    convoy
                        .iter()
                        .position(|c| c.parked.is_none())
                        .expect("the convoy has live children"),
                );
                let (slot, outcome) = self.finish_child(oldest, &mut stats);
                self.push(&mut results, slot, outcome);
            }
        }
        // No faults left to fork: run the golden simulator out so remaining
        // children can still converge, then finish survivors independently.
        while !golden_done && !convoy.is_empty() {
            let target = convoy.iter().map(|c| c.next_stop()).min().unwrap();
            golden_done =
                self.advance_convoy(&mut golden, target, &mut convoy, &mut results, &mut stats);
        }
        for child in convoy {
            let (slot, outcome) = self.finish_child(child, &mut stats);
            self.push(&mut results, slot, outcome);
        }
        stats.record_into(&mut sp);
        results
    }

    /// The propagation capture for `fault`, when this engine opted in
    /// (recorded mode only) and the fault falls in the deterministic
    /// 1-in-`one_in` subset. Selection hashes the fault spec alone, so it
    /// is independent of convoy composition and thread count.
    fn propagation_capture(&self, fault: FaultSpec) -> Option<PropCapture> {
        let (every, one_in) = self.propagation?;
        if !self.record {
            return None;
        }
        let mut bytes = [0u8; 17];
        bytes[0] = fault.structure as u8;
        bytes[1..9].copy_from_slice(&fault.bit.to_le_bytes());
        bytes[9..17].copy_from_slice(&fault.cycle.to_le_bytes());
        crate::fnv1a(&bytes)
            .is_multiple_of(one_in)
            .then(|| PropCapture {
                every,
                next: fault.cycle + every,
                samples: Vec::new(),
            })
    }

    /// Advances the golden simulator to `target` cycles, co-advancing convoy
    /// children in lockstep and classifying any that end or converge on the
    /// way. Returns `true` once the golden run has ended.
    fn advance_convoy(
        &self,
        golden: &mut Sim,
        target: u64,
        convoy: &mut Vec<Child>,
        results: &mut Vec<(usize, Outcome)>,
        stats: &mut WorkerStats,
    ) -> bool {
        while golden.cycle() < target {
            // Stop at the earliest pending convergence check *or*
            // propagation sample across the convoy.
            let stop = convoy
                .iter()
                .map(|c| c.next_stop())
                .min()
                .unwrap_or(u64::MAX)
                .clamp(golden.cycle() + 1, target);
            let halted = golden.run_to_cycle(stop).is_some();
            self.lockstep_children(golden, convoy, results, halted, stats);
            if halted {
                return true;
            }
        }
        false
    }

    /// Advances every live convoy child to the golden simulator's current
    /// cycle, classifying children that reach their own end, panic, or
    /// (when the golden run is still live) re-converge to the golden state.
    ///
    /// Parked children whose delta the golden run read during this advance
    /// are unparked first, so they step through the cycles they skipped.
    /// The others keep their check schedule without stepping, and are filed
    /// when the golden run has halted. A child is parked at a failed check
    /// when it has a delta, takes no propagation samples, and fewer than
    /// `MAX_CONVOY` children are parked.
    fn lockstep_children(
        &self,
        golden: &mut Sim,
        convoy: &mut Vec<Child>,
        results: &mut Vec<(usize, Outcome)>,
        golden_halted: bool,
        stats: &mut WorkerStats,
    ) {
        let cycle = golden.cycle();
        let hits = golden.take_watch_hits();
        let mut rewatch = false;
        if !hits.is_empty() {
            for child in convoy.iter_mut() {
                if child
                    .parked
                    .as_ref()
                    .is_some_and(|p| p.delta.intersects(&hits))
                {
                    child.parked = None;
                    rewatch = true;
                }
            }
        }
        let mut parked = convoy.iter().filter(|c| c.parked.is_some()).count();
        convoy.retain_mut(|child| {
            if let Some(p) = &child.parked {
                if golden_halted {
                    // The golden run halted without reading the child's
                    // delta, so the child halts with it: output = its
                    // prefix at parking ++ the golden suffix since. This
                    // is the record of a converged child.
                    stats.parked += 1;
                    stats.ran_cycles += child.sim.cycle().saturating_sub(child.born);
                    let outcome = Outcome {
                        class: if p.output_eq {
                            FaultClass::Masked
                        } else {
                            FaultClass::Sdc
                        },
                        end_cycle: self.inj.golden.cycles,
                        divergence: child.divergence.take(),
                        ..Outcome::masked_at(0)
                    };
                    self.push(results, child.slot, outcome);
                    return false;
                }
                if child.next_check <= cycle {
                    // The check lockstep would make fails (the delta is
                    // not empty) and finds no fixed point (the golden run
                    // halts). The child retires what the golden run does.
                    child.retired_at_check =
                        child.sim.retired() + golden.retired() - p.golden_retired;
                    child.back_off(cycle);
                }
                return true;
            }
            let end = match catch_unwind(AssertUnwindSafe(|| child.sim.run_to_cycle(cycle))) {
                Ok(end) => end,
                Err(_) => {
                    event!(
                        Level::Warn,
                        "inject.convoy",
                        { slot: child.slot },
                        "simulator panicked on forked injection (slot {}); \
                         classifying as Assert",
                        child.slot
                    );
                    stats.asserts += 1;
                    stats.ran_cycles += child.sim.cycle().saturating_sub(child.born);
                    // The child's own cycle counter, not the convoy's stop
                    // cycle: the stop schedule depends on which other faults
                    // share the convoy, and records must be a pure function
                    // of the fault itself (pruning changes convoy
                    // membership; record streams must not notice).
                    let outcome = Outcome {
                        class: FaultClass::Assert,
                        end_cycle: child.sim.cycle(),
                        divergence: child.divergence.take(),
                        propagation: child.take_propagation(None),
                        ..Outcome::masked_at(0)
                    };
                    self.push(results, child.slot, outcome);
                    return false;
                }
            };
            if let Some(end) = end {
                stats.ended += 1;
                stats.ran_cycles += end_cycles(&end).saturating_sub(child.born);
                let outcome = Outcome {
                    class: self.inj.classify_end(&end),
                    end_cycle: end_cycles(&end),
                    divergence: child.divergence.take(),
                    propagation: child.take_propagation(None),
                    ..Outcome::masked_at(0)
                };
                self.push(results, child.slot, outcome);
                return false;
            }
            // Propagation sample due at this stop: snapshot the full
            // diverging-component set. Read-only on both simulators.
            if let Some(prop) = &mut child.prop {
                if prop.next <= cycle {
                    prop.samples.push(PropagationSample {
                        cycle,
                        components: component_names(&child.sim.divergent_components(golden)),
                    });
                    // Stay on the injection-aligned grid even if a stop
                    // overshot (defensive; stops land exactly today).
                    prop.next += prop.every;
                    while prop.next <= cycle {
                        prop.next += prop.every;
                    }
                }
            }
            if !golden_halted && child.next_check <= cycle {
                if child.sim.state_eq(golden) {
                    // Converged: the child's future is the golden future, so
                    // it will halt with output = own-prefix ++ golden-suffix.
                    // Masked exactly when the prefixes agree.
                    let class = if child.sim.output() == golden.output() {
                        FaultClass::Masked
                    } else {
                        FaultClass::Sdc
                    };
                    stats.converged += 1;
                    stats.converged_cycles += cycle.saturating_sub(child.born);
                    // A converged child provably halts exactly when the
                    // golden run does, so record that terminal cycle rather
                    // than the (convoy-membership-dependent) cycle the check
                    // happened to run at — the same verdict a graduated
                    // child reaches by simulating to its own halt.
                    let outcome = Outcome {
                        class,
                        end_cycle: self.inj.golden.cycles,
                        divergence: child.divergence.take(),
                        propagation: child.take_propagation(Some(cycle)),
                        ..Outcome::masked_at(0)
                    };
                    self.push(results, child.slot, outcome);
                    return false;
                }
                // A child that retired nothing since its previous check may
                // be deadlocked. At a fixed point it would spin to the
                // Timeout budget, so file the record a run to that budget
                // makes (as in `finish_child`) now. Children sampling a
                // propagation timeline keep riding: their samples are part
                // of the record.
                if child.prop.is_none()
                    && child.sim.retired() == child.retired_at_check
                    && probe_fixed_point(&child.sim)
                {
                    stats.fixed_points += 1;
                    stats.ran_cycles += cycle.saturating_sub(child.born);
                    let outcome = Outcome {
                        class: FaultClass::Timeout,
                        end_cycle: 2 * self.inj.golden.cycles,
                        divergence: child.divergence.take(),
                        ..Outcome::masked_at(0)
                    };
                    self.push(results, child.slot, outcome);
                    return false;
                }
                child.retired_at_check = child.sim.retired();
                child.back_off(cycle);
                if child.prop.is_none() && parked < MAX_CONVOY {
                    if let Some(delta) = child.sim.delta(golden) {
                        child.parked = Some(Parked {
                            delta,
                            golden_retired: golden.retired(),
                            output_eq: child.sim.output() == golden.output(),
                        });
                        parked += 1;
                        rewatch = true;
                    }
                }
            }
            true
        });
        if rewatch {
            let mut watched = StateDelta::default();
            for p in convoy.iter().filter_map(|c| c.parked.as_ref()) {
                watched.union_with(&p.delta);
            }
            golden.watch(&watched);
        }
    }

    /// Runs a child that outlived the convoy to its own terminal outcome,
    /// under the same 2× golden-time budget as the fresh path.
    fn finish_child(&self, mut child: Child, stats: &mut WorkerStats) -> (usize, Outcome) {
        debug_assert!(child.parked.is_none(), "parked children never graduate");
        stats.graduated += 1;
        let budget = 2 * self.inj.golden.cycles;
        let propagation = child.take_propagation(None);
        let outcome = match catch_unwind(AssertUnwindSafe(|| child.sim.run(budget))) {
            Ok(end) => {
                stats.ran_cycles += end_cycles(&end).saturating_sub(child.born);
                Outcome {
                    class: self.inj.classify_end(&end),
                    end_cycle: end_cycles(&end),
                    divergence: child.divergence,
                    propagation,
                    ..Outcome::masked_at(0)
                }
            }
            Err(_) => {
                event!(
                    Level::Warn,
                    "inject.convoy",
                    { slot: child.slot },
                    "simulator panicked on forked injection (slot {}); \
                     classifying as Assert",
                    child.slot
                );
                stats.asserts += 1;
                stats.ran_cycles += child.sim.cycle().saturating_sub(child.born);
                Outcome {
                    class: FaultClass::Assert,
                    end_cycle: child.sim.cycle(),
                    divergence: child.divergence,
                    propagation,
                    ..Outcome::masked_at(0)
                }
            }
        };
        (child.slot, outcome)
    }
}

/// First convergence check happens this many cycles after the fork.
const FIRST_CHECK_INTERVAL: u64 = 16;

/// Cap on the exponential back-off between convergence checks.
const MAX_CHECK_INTERVAL: u64 = 4096;

/// Convoy size bound; the oldest live child graduates beyond this. At most
/// as many children again may be parked.
const MAX_CONVOY: usize = 8;

/// One forked, faulted simulation riding a convoy.
struct Child {
    /// Index of the fault in the caller's fault list.
    slot: usize,
    /// The faulted simulator, kept in lockstep with the golden one.
    sim: Sim,
    /// Injection cycle (for attributing post-injection child cycles).
    born: u64,
    /// The child's retired count at its previous convergence check (at the
    /// fork before the first): a deadlock retires nothing in between.
    retired_at_check: u64,
    /// Golden cycle at which to next test convergence.
    next_check: u64,
    /// Current back-off interval between convergence checks.
    interval: u64,
    /// First-divergence site captured at the fork (recorded mode only),
    /// carried until the child is classified.
    divergence: Option<DivergenceSite>,
    /// In-flight propagation timeline (opt-in sampled subset only).
    prop: Option<PropCapture>,
    /// Set while the child is parked: not stepped, because it differs from
    /// the golden machine only in state the golden run has not read since.
    parked: Option<Parked>,
}

/// What a parked child needs to resume or to be filed.
struct Parked {
    /// The state the child differs in ([`Sim::delta`] at parking).
    delta: StateDelta,
    /// The golden retired count at parking; the child retires as many as
    /// the golden run while parked.
    golden_retired: u64,
    /// Whether the child's output equalled the golden output at parking.
    output_eq: bool,
}

impl Child {
    /// Doubles the check interval (up to the cap) after a failed check at
    /// `cycle`.
    fn back_off(&mut self, cycle: u64) {
        self.interval = (self.interval * 2).min(MAX_CHECK_INTERVAL);
        self.next_check = cycle + self.interval;
    }

    /// The next golden cycle at which the convoy must pause for this
    /// child: its convergence check or its propagation sample, whichever
    /// comes first.
    fn next_stop(&self) -> u64 {
        match &self.prop {
            Some(prop) => self.next_check.min(prop.next),
            None => self.next_check,
        }
    }

    /// Seals the child's propagation timeline (if it was tracing one) with
    /// the convergence verdict cycle, when the convoy proved one.
    fn take_propagation(&mut self, converged_at: Option<u64>) -> Option<PropagationTrace> {
        self.prop.take().map(|capture| PropagationTrace {
            every: capture.every,
            samples: capture.samples,
            converged_at,
        })
    }
}

/// A propagation timeline being captured for one convoy child.
struct PropCapture {
    /// Sampling period in cycles.
    every: u64,
    /// Next golden cycle to sample at (injection-aligned grid).
    next: u64,
    samples: Vec<PropagationSample>,
}

/// Owned names for a diverging-component set (records outlive the
/// simulators the `&'static str` probes came from only by convention;
/// serialized records need owned strings anyway).
fn component_names(components: &[&'static str]) -> Vec<String> {
    components.iter().map(|c| c.to_string()).collect()
}

/// The bits a fault flips: `width` adjacent bits of its structure,
/// wrapping at the end. Empty when the structure has no injectable bits on
/// this machine, instead of taking `% 0`.
fn burst_bits(sim: &Sim, fault: FaultSpec, width: u8) -> impl Iterator<Item = u64> {
    let bits = sim.bit_count(fault.structure);
    let width = if bits == 0 {
        0
    } else {
        u64::from(width.max(1))
    };
    (0..width).map(move |k| (fault.bit + k) % bits)
}

/// Flips the fault's burst ([`burst_bits`]). Returns `false` when it
/// flipped nothing.
fn apply_burst(sim: &mut Sim, fault: FaultSpec, width: u8) -> bool {
    for bit in burst_bits(sim, fault, width) {
        sim.flip_bit(fault.structure, bit);
    }
    sim.bit_count(fault.structure) > 0
}

/// Whether every bit of the fault's burst is dead in `golden`
/// ([`Sim::bit_is_dead`]), so the faulted machine would be state-equal to
/// the golden one and the fault is Masked without a fork. Dead bits stay
/// dead when their neighbors flip: no dead bit is a validity or occupancy
/// flag.
fn burst_is_dead(golden: &Sim, fault: FaultSpec, width: u8) -> bool {
    burst_bits(golden, fault, width).all(|bit| golden.bit_is_dead(fault.structure, bit))
}

/// [`Sim::is_fixed_point`], with a panic while stepping the probe's fork
/// read as "not a fixed point": the child then takes that same step itself
/// and is classified as the Assert it panics into.
fn probe_fixed_point(sim: &Sim) -> bool {
    catch_unwind(AssertUnwindSafe(|| sim.is_fixed_point())).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use softerr_cc::{Compiler, OptLevel};

    fn setup() -> (MachineConfig, Program) {
        let cfg = MachineConfig::cortex_a15();
        let program = Compiler::new(cfg.profile, OptLevel::O1)
            .compile(
                "int tab[16];
                 void main() {
                     for (int i = 0; i < 16; i = i + 1) tab[i] = i * 3;
                     int s = 0;
                     for (int i = 0; i < 16; i = i + 1) s = s + tab[i];
                     out(s);
                 }",
            )
            .unwrap()
            .program;
        (cfg, program)
    }

    #[test]
    fn golden_run_is_recorded() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        assert_eq!(inj.golden().output, vec![360]);
        assert!(inj.golden().cycles > 0);
    }

    #[test]
    fn fused_golden_run_equals_the_golden_run_plus_the_lazy_liveness_run() {
        use softerr_workloads::{Scale, Workload};
        let reads = SamplingPlan::fixed(2)
            .sampler(SamplerKind::Importance)
            .prune_static(PruneMode::On);
        assert!(reads.reads_liveness());
        assert!(!SamplingPlan::fixed(2).reads_liveness());
        for cfg in MachineConfig::paper_machines() {
            let program = Compiler::new(cfg.profile, OptLevel::O2)
                .compile(&Workload::Qsort.source(Scale::Tiny))
                .unwrap()
                .program;
            let plain = Injector::new(&cfg, &program).unwrap();
            assert!(plain.liveness.get().is_none(), "new records no liveness");
            let fused = Injector::for_plan(&cfg, &program, &reads).unwrap();
            assert!(fused.liveness.get().is_some(), "recorded by the golden run");
            assert_eq!(fused.golden(), plain.golden(), "{}", cfg.name);
            assert_eq!(fused.bit_counts, plain.bit_counts, "{}", cfg.name);
            assert!(fused.liveness() == plain.liveness(), "{}: map", cfg.name);
            for s in Structure::ALL {
                assert_eq!(fused.vulnerable_sites(s), plain.vulnerable_sites(s));
            }
            // A plan that reads no liveness builds none up front.
            let uniform = Injector::for_plan(&cfg, &program, &SamplingPlan::fixed(2)).unwrap();
            assert!(uniform.liveness.get().is_none());
        }
    }

    #[test]
    fn fault_sampling_is_reproducible_and_in_range() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let a = inj.sample_faults(Structure::RegFile, 50, 42);
        let b = inj.sample_faults(Structure::RegFile, 50, 42);
        assert_eq!(a, b);
        let bits = inj.bit_count(Structure::RegFile);
        for f in &a {
            assert!(f.bit < bits);
            assert!(f.cycle < inj.golden().cycles);
        }
        let c = inj.sample_faults(Structure::RegFile, 50, 43);
        assert_ne!(a, c, "different seeds draw different faults");
        let d = inj.sample_faults(Structure::IqSrc, 50, 42);
        assert!(
            a.iter().zip(&d).any(|(x, y)| x.cycle != y.cycle),
            "different structures draw independent samples"
        );
    }

    #[test]
    fn campaign_counts_sum_and_avf_bounds() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let r = inj
            .run(
                Structure::RegFile,
                &CampaignConfig {
                    plan: SamplingPlan::fixed(40),
                    seed: 1,
                    threads: 1,
                    checkpoint: true,
                },
            )
            .execute()
            .result;
        assert_eq!(r.total(), 40);
        assert!((0.0..=1.0).contains(&r.avf()));
        let frac_sum: f64 = FaultClass::ALL.iter().map(|c| r.fraction(*c)).sum();
        assert!((frac_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn campaigns_are_deterministic() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let cc = CampaignConfig {
            plan: SamplingPlan::fixed(30),
            seed: 99,
            threads: 1,
            checkpoint: true,
        };
        let a = inj.run(Structure::IqSrc, &cc).execute().result;
        let b = inj.run(Structure::IqSrc, &cc).execute().result;
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_campaign_matches_sequential() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let seq = inj
            .run(
                Structure::L1DData,
                &CampaignConfig {
                    plan: SamplingPlan::fixed(24),
                    seed: 5,
                    threads: 1,
                    checkpoint: true,
                },
            )
            .execute()
            .result;
        let par = inj
            .run(
                Structure::L1DData,
                &CampaignConfig {
                    plan: SamplingPlan::fixed(24),
                    seed: 5,
                    threads: 3,
                    checkpoint: true,
                },
            )
            .execute()
            .result;
        assert_eq!(seq.counts, par.counts);
    }

    #[test]
    fn lsq_campaign_outcomes_are_assert_or_masked() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        for s in [Structure::LoadQueue, Structure::StoreQueue] {
            let r = inj
                .run(
                    s,
                    &CampaignConfig {
                        plan: SamplingPlan::fixed(50),
                        seed: 3,
                        threads: 1,
                        checkpoint: true,
                    },
                )
                .execute()
                .result;
            assert_eq!(r.counts.sdc, 0, "{s}: paper reports no SDCs");
            assert_eq!(r.counts.crash, 0, "{s}: paper reports no crashes");
        }
    }

    #[test]
    fn injection_after_program_end_is_masked() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let class = inj.inject(FaultSpec {
            structure: Structure::RegFile,
            bit: 5,
            cycle: inj.golden().cycles * 10,
        });
        assert_eq!(class, FaultClass::Masked);
    }

    #[test]
    fn burst_width_one_equals_single_bit() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let f = FaultSpec {
            structure: Structure::RegFile,
            bit: 100,
            cycle: 20,
        };
        assert_eq!(inj.inject(f), inj.inject_burst(f, 1));
    }

    #[test]
    fn wider_bursts_are_at_least_as_vulnerable_on_average() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let cc = CampaignConfig {
            plan: SamplingPlan::fixed(60),
            seed: 77,
            threads: 1,
            checkpoint: true,
        };
        let single = inj
            .run(Structure::L1IData, &cc)
            .burst_width(1)
            .execute()
            .result;
        let quad = inj
            .run(Structure::L1IData, &cc)
            .burst_width(4)
            .execute()
            .result;
        // Same fault sites: a 4-bit burst strictly contains the 1-bit flip,
        // so it can only add ways to fail.
        assert!(
            quad.avf() >= single.avf(),
            "{} < {}",
            quad.avf(),
            single.avf()
        );
    }

    #[test]
    fn burst_wraps_at_structure_end_without_panicking() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let bits = inj.bit_count(Structure::LoadQueue);
        let f = FaultSpec {
            structure: Structure::LoadQueue,
            bit: bits - 1,
            cycle: 10,
        };
        let _ = inj.inject_burst(f, 4);
    }

    #[test]
    fn checkpointed_classes_match_fresh_per_fault() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let fresh_cfg = CampaignConfig {
            plan: SamplingPlan::fixed(25),
            seed: 21,
            threads: 1,
            checkpoint: false,
        };
        let ckpt_cfg = CampaignConfig {
            checkpoint: true,
            ..fresh_cfg
        };
        for s in [Structure::RegFile, Structure::L1DData, Structure::RobFlags] {
            let faults = inj.sample_faults(s, fresh_cfg.plan.injections(), fresh_cfg.seed);
            let fresh = inj.run(s, &fresh_cfg).faults(&faults).execute().classes;
            let ckpt = inj.run(s, &ckpt_cfg).faults(&faults).execute().classes;
            assert_eq!(
                fresh, ckpt,
                "{s}: fork-from-checkpoint must be bit-identical"
            );
        }
    }

    #[test]
    fn parallel_checkpointed_campaign_matches_sequential() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let seq = inj
            .run(
                Structure::IqDest,
                &CampaignConfig {
                    plan: SamplingPlan::fixed(24),
                    seed: 8,
                    threads: 1,
                    checkpoint: true,
                },
            )
            .execute()
            .result;
        let par = inj
            .run(
                Structure::IqDest,
                &CampaignConfig {
                    plan: SamplingPlan::fixed(24),
                    seed: 8,
                    threads: 3,
                    checkpoint: true,
                },
            )
            .execute()
            .result;
        assert_eq!(seq.counts, par.counts);
    }

    #[test]
    fn zero_bit_structure_samples_nothing_and_injects_masked() {
        // A machine with no load queue: the LoadQueue structure has zero
        // injectable bits. Sampling must not panic on the empty bit range,
        // and a direct injection must classify as Masked (nothing to flip).
        let mut cfg = MachineConfig::cortex_a15();
        cfg.lq_entries = 0;
        // Store-only workload (never reads memory), so no load ever needs a
        // queue slot.
        let program = Compiler::new(cfg.profile, OptLevel::O1)
            .compile(
                "int tab[8];
                 void main() {
                     int s = 0;
                     for (int i = 0; i < 8; i = i + 1) {
                         tab[i] = i * 2;
                         s = s + i;
                     }
                     out(s);
                 }",
            )
            .unwrap()
            .program;
        let inj = Injector::new(&cfg, &program).unwrap();
        assert_eq!(inj.bit_count(Structure::LoadQueue), 0);
        assert!(inj.sample_faults(Structure::LoadQueue, 20, 7).is_empty());
        for checkpoint in [false, true] {
            let r = inj
                .run(
                    Structure::LoadQueue,
                    &CampaignConfig {
                        plan: SamplingPlan::fixed(20),
                        seed: 7,
                        threads: 1,
                        checkpoint,
                    },
                )
                .execute()
                .result;
            assert_eq!(r.total(), 0, "no injectable bits means an empty campaign");
        }
        let f = FaultSpec {
            structure: Structure::LoadQueue,
            bit: 0,
            cycle: 1,
        };
        assert_eq!(inj.inject(f), FaultClass::Masked);
    }

    #[test]
    fn recorded_classes_match_classify_all_with_forensics() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let cc = CampaignConfig {
            plan: SamplingPlan::fixed(30),
            seed: 11,
            threads: 1,
            checkpoint: true,
        };
        for s in [Structure::RegFile, Structure::RobPc] {
            let faults = inj.sample_faults(s, cc.plan.injections(), cc.seed);
            let classes = inj.run(s, &cc).faults(&faults).execute().classes;
            let records = inj
                .run(s, &cc)
                .faults(&faults)
                .records(true)
                .execute()
                .records
                .expect("records were requested");
            assert_eq!(records.len(), faults.len());
            for ((record, class), fault) in records.iter().zip(&classes).zip(&faults) {
                assert_eq!(
                    record.class, *class,
                    "{s}: classes must be engine-identical"
                );
                assert_eq!(record.spec, *fault, "records keep sample order");
                assert_eq!(record.golden_cycles, inj.golden().cycles);
                assert!(record.end_cycle >= record.spec.cycle);
                if record.class != FaultClass::Masked {
                    let site = record
                        .first_divergence
                        .as_ref()
                        .expect("non-masked faults diverge at the fork");
                    assert_eq!(site.cycle, record.spec.cycle);
                    assert!(!site.component.is_empty());
                }
            }
        }
    }

    #[test]
    fn propagation_tracing_never_perturbs_classes_or_base_records() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let cc = CampaignConfig {
            plan: SamplingPlan::fixed(40),
            seed: 21,
            threads: 1,
            checkpoint: true,
        };
        for s in [Structure::RegFile, Structure::RobPc] {
            let faults = inj.sample_faults(s, cc.plan.injections(), cc.seed);
            let plain = inj
                .run(s, &cc)
                .faults(&faults)
                .records(true)
                .execute()
                .records
                .unwrap();
            let traced = inj
                .run(s, &cc)
                .faults(&faults)
                .records(true)
                .propagation(16, 1)
                .execute()
                .records
                .unwrap();
            assert_eq!(plain.len(), traced.len());
            for (p, t) in plain.iter().zip(&traced) {
                // Everything except the opt-in timeline is bit-identical.
                let mut t_base = t.clone();
                t_base.propagation = None;
                assert_eq!(p, &t_base, "{s}: propagation must ride along inertly");
            }
        }
    }

    #[test]
    fn propagation_timelines_sample_on_the_injection_grid() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let cc = CampaignConfig {
            plan: SamplingPlan::fixed(40),
            seed: 21,
            threads: 1,
            checkpoint: true,
        };
        let every = 16;
        let records = inj
            .run(Structure::RegFile, &cc)
            .records(true)
            .propagation(every, 1) // every fault that forks
            .execute()
            .records
            .unwrap();
        let traced: Vec<_> = records.iter().filter(|r| r.propagation.is_some()).collect();
        assert!(
            !traced.is_empty(),
            "one-in-one sampling must trace every forked child"
        );
        for record in traced {
            let prop = record.propagation.as_ref().unwrap();
            assert_eq!(prop.every, every);
            assert!(!prop.samples.is_empty(), "seed sample at injection");
            assert_eq!(prop.samples[0].cycle, record.spec.cycle);
            assert!(
                !prop.samples[0].components.is_empty(),
                "a forked child diverges at injection by construction"
            );
            for sample in &prop.samples[1..] {
                assert_eq!(
                    (sample.cycle - record.spec.cycle) % every,
                    0,
                    "samples stay on the injection-aligned grid"
                );
                for c in &sample.components {
                    assert!(
                        softerr_sim::Sim::DIVERGENCE_COMPONENTS.contains(&c.as_str()),
                        "unknown component {c}"
                    );
                }
            }
            let cycles: Vec<u64> = prop.samples.iter().map(|s| s.cycle).collect();
            let mut sorted = cycles.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(cycles, sorted, "samples are strictly increasing");
            if let Some(at) = prop.converged_at {
                assert_eq!(record.end_cycle, inj.golden().cycles);
                assert!(at >= record.spec.cycle);
            }
        }
        // Masked-without-forking faults never carry a timeline.
        for record in &records {
            if record.first_divergence.is_none() {
                assert!(record.propagation.is_none());
            }
        }
    }

    #[test]
    fn propagation_subset_selection_is_a_pure_function_of_the_fault() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let faults = inj.sample_faults(Structure::RegFile, 80, 7);
        let run = |threads: usize| {
            let cc = CampaignConfig {
                plan: SamplingPlan::fixed(80),
                seed: 7,
                threads,
                checkpoint: true,
            };
            inj.run(Structure::RegFile, &cc)
                .faults(&faults)
                .records(true)
                .propagation(32, 2)
                .execute()
                .records
                .unwrap()
                .iter()
                .map(|r| r.propagation.is_some())
                .collect::<Vec<bool>>()
        };
        let selected = run(1);
        assert_eq!(
            selected,
            run(3),
            "which faults are traced must not depend on thread count"
        );
        assert!(selected.iter().any(|&s| s), "1-in-2 selects someone here");
        assert!(selected.iter().any(|&s| !s), "and skips someone");
    }

    #[test]
    fn recording_ignores_checkpoint_flag_and_matches_fresh() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let cc = CampaignConfig {
            plan: SamplingPlan::fixed(20),
            seed: 33,
            threads: 1,
            checkpoint: false,
        };
        let faults = inj.sample_faults(Structure::RegFile, cc.plan.injections(), cc.seed);
        let fresh = inj
            .run(Structure::RegFile, &cc)
            .faults(&faults)
            .execute()
            .classes;
        // Recording always runs the convoy engine; classes must still match
        // the fresh per-fault path the config asked for.
        let records = inj
            .run(Structure::RegFile, &cc)
            .faults(&faults)
            .records(true)
            .execute()
            .records
            .expect("records were requested");
        let recorded: Vec<FaultClass> = records.iter().map(|r| r.class).collect();
        assert_eq!(fresh, recorded);
    }

    #[test]
    fn observer_sees_every_classification() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let cc = CampaignConfig {
            plan: SamplingPlan::fixed(30),
            seed: 2,
            threads: 2,
            checkpoint: true,
        };
        let progress = crate::ProgressLine::with_activity("test", cc.plan.injections(), false);
        let out = inj
            .run(Structure::RegFile, &cc)
            .records(true)
            .observer(&progress)
            .execute();
        let (result, records) = (out.result, out.records.expect("records were requested"));
        let (done, counts) = progress.snapshot();
        assert_eq!(done, result.total());
        assert_eq!(counts, result.counts, "observer tallies match the result");
        assert_eq!(records.len() as u64, result.total());
        let observed = inj
            .run(Structure::RegFile, &cc)
            .observer(&crate::ProgressLine::with_activity(
                "test",
                cc.plan.injections(),
                false,
            ))
            .execute()
            .result;
        assert_eq!(observed, result, "observed and forensic runs agree");
    }

    #[test]
    fn observer_learns_the_planned_fault_count() {
        // Adaptive sampling grows past its batch: the progress total must
        // follow the faults actually drawn, not the batch size.
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let cc = CampaignConfig {
            plan: SamplingPlan::adaptive(0.1, 25),
            seed: 3,
            ..CampaignConfig::default()
        };
        let progress = crate::ProgressLine::with_activity("rf", 25, false);
        let result = inj
            .run(Structure::RegFile, &cc)
            .observer(&progress)
            .execute()
            .result;
        assert!(result.total() > 25, "the campaign grew past one batch");
        assert_eq!(progress.total(), result.total());
        assert_eq!(progress.snapshot().0, result.total());
    }

    #[test]
    fn sampling_never_repeats_a_fault_site() {
        // Small population: a single-entry load queue (32 injectable bits
        // on A32) over a few hundred golden cycles. Sampling with
        // replacement would collide here with near-certainty, and the
        // finite-population-corrected error margin assumes it never does.
        let mut cfg = MachineConfig::cortex_a15();
        cfg.lq_entries = 1;
        let program = Compiler::new(cfg.profile, OptLevel::O1)
            .compile(
                "int tab[8];
                 void main() {
                     int s = 0;
                     for (int i = 0; i < 8; i = i + 1) { tab[i] = i; s = s + tab[i]; }
                     out(s);
                 }",
            )
            .unwrap()
            .program;
        let inj = Injector::new(&cfg, &program).unwrap();
        let population = inj.bit_count(Structure::LoadQueue) * inj.golden().cycles;
        assert!(population > 0);
        let sample = inj.sample_faults(Structure::LoadQueue, population + 100, 42);
        assert_eq!(
            sample.len() as u64,
            population,
            "over-asking yields the full census, not duplicates"
        );
        let mut seen = std::collections::HashSet::new();
        for f in &sample {
            assert!(
                seen.insert((f.bit, f.cycle)),
                "duplicate draw at bit {} cycle {}",
                f.bit,
                f.cycle
            );
        }
    }

    #[test]
    fn sampling_is_prefix_stable() {
        // The adaptive sampler depends on this: a grown sample must extend,
        // not reshuffle, the smaller one drawn from the same seed.
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let small = inj.sample_faults(Structure::RegFile, 30, 9);
        let big = inj.sample_faults(Structure::RegFile, 90, 9);
        assert_eq!(&big[..30], &small[..]);
    }

    #[test]
    fn pruned_campaign_matches_unpruned_and_flags_pruned_records() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let base = CampaignConfig {
            plan: SamplingPlan::fixed(60),
            seed: 13,
            ..CampaignConfig::default()
        };
        let on = CampaignConfig {
            plan: base.plan.prune(PruneMode::On),
            ..base
        };
        for s in [Structure::RegFile, Structure::L1DData, Structure::IqDest] {
            let off_out = inj.run(s, &base).records(true).execute();
            let on_out = inj.run(s, &on).records(true).execute();
            assert_eq!(off_out.result, on_out.result, "{s}: tallies must match");
            assert_eq!(off_out.classes, on_out.classes, "{s}: classes must match");
            let (off_recs, on_recs) = (off_out.records.unwrap(), on_out.records.unwrap());
            for (a, b) in off_recs.iter().zip(&on_recs) {
                if b.class != FaultClass::Masked {
                    assert_eq!(a, b, "{s}: non-masked records must be engine-invariant");
                    assert!(!b.pruned, "only Masked verdicts can come from the pruner");
                }
            }
            if s == Structure::RegFile {
                assert!(
                    on_recs.iter().any(|r| r.pruned),
                    "a RegFile campaign lands some faults in dead bit-cycles"
                );
            }
        }
    }

    #[test]
    fn verify_mode_agrees_with_unpruned_and_does_not_panic() {
        // Verify prunes exactly as On, then checks every fault against the
        // fresh engine: its output is the On campaign's, prune provenance
        // included, and its tallies still equal the unpruned ones.
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let base = CampaignConfig {
            plan: SamplingPlan::fixed(40),
            seed: 4,
            ..CampaignConfig::default()
        };
        let with = |mode| CampaignConfig {
            plan: base.plan.prune(mode),
            ..base
        };
        for s in [
            Structure::RegFile,
            Structure::LoadQueue,
            Structure::RobFlags,
            Structure::L1DTag,
        ] {
            let on = inj.run(s, &with(PruneMode::On)).records(true).execute();
            let v = inj.run(s, &with(PruneMode::Verify)).records(true).execute();
            assert_eq!(v.result, on.result, "{s}: verify tallies like on");
            assert_eq!(v.classes, on.classes, "{s}: verify classifies like on");
            assert_eq!(v.records, on.records, "{s}: verify records like on");
            assert_eq!(
                v.simulated, on.simulated,
                "{s}: the oracle run is not counted"
            );
            assert_eq!(v.result, inj.run(s, &base).execute().result, "{s}");
            if s == Structure::RegFile {
                assert!(v.records.unwrap().iter().any(|r| r.pruned), "{s}");
            }
        }
    }

    #[test]
    fn verify_on_one_stage_leaves_the_other_pruning() {
        // `prune = on` with `prune_static = verify` prunes with both stages
        // (and verifies the lot), exactly like `on` with `on`.
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let base = CampaignConfig {
            plan: SamplingPlan::fixed(60).prune(PruneMode::On),
            seed: 13,
            ..CampaignConfig::default()
        };
        let verify = CampaignConfig {
            plan: base.plan.prune_static(PruneMode::Verify),
            ..base
        };
        let on = CampaignConfig {
            plan: base.plan.prune_static(PruneMode::On),
            ..base
        };
        let s = Structure::RegFile;
        let v = inj.run(s, &verify).records(true).execute();
        let o = inj.run(s, &on).records(true).execute();
        assert_eq!(v.records, o.records);
        assert_eq!(v.simulated, o.simulated);
        let records = v.records.unwrap();
        assert!(
            records.iter().any(|r| r.pruned),
            "the liveness stage still prunes"
        );
    }

    #[test]
    #[should_panic(expected = "by the fresh engine")]
    fn verify_panics_on_a_class_the_fresh_engine_disagrees_with() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let cc = CampaignConfig {
            plan: SamplingPlan::fixed(20).prune(PruneMode::Verify),
            seed: 5,
            ..CampaignConfig::default()
        };
        let faults = inj.sample_faults(Structure::RegFile, 20, 5);
        let run = || inj.run(Structure::RegFile, &cc).faults(&faults);
        let mut out = run().execute();
        out.classes[0] = if out.classes[0] == FaultClass::Masked {
            FaultClass::Sdc
        } else {
            FaultClass::Masked
        };
        run().verify(&faults, &out);
    }

    #[test]
    fn static_pruned_campaign_matches_unpruned_and_flags_static_records() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let base = CampaignConfig {
            plan: SamplingPlan::fixed(60),
            seed: 13,
            ..CampaignConfig::default()
        };
        let static_only = CampaignConfig {
            plan: base.plan.prune_static(PruneMode::On),
            ..base
        };
        let both = CampaignConfig {
            plan: base.plan.prune(PruneMode::On).prune_static(PruneMode::On),
            ..base
        };
        for s in [Structure::RegFile, Structure::L1DData] {
            let off_out = inj.run(s, &base).records(true).execute();
            let st_out = inj.run(s, &static_only).records(true).execute();
            let both_out = inj.run(s, &both).records(true).execute();
            assert_eq!(off_out.result, st_out.result, "{s}: tallies must match");
            assert_eq!(off_out.result, both_out.result, "{s}: tallies must match");
            assert_eq!(off_out.classes, st_out.classes, "{s}: classes must match");
            assert_eq!(off_out.classes, both_out.classes, "{s}: classes must match");
            let st_recs = st_out.records.unwrap();
            let both_recs = both_out.records.unwrap();
            for r in st_recs.iter().chain(&both_recs) {
                assert!(
                    !(r.pruned && r.pruned_static),
                    "{s}: prune attribution must be exclusive"
                );
                if r.pruned || r.pruned_static {
                    assert_eq!(r.class, FaultClass::Masked);
                }
            }
            // Static pruning subsumes liveness pruning, so everything the
            // dynamic stage would prune is pruned here too (attributed to
            // the static stage in a static-only campaign).
            let dyn_recs = inj
                .run(
                    s,
                    &CampaignConfig {
                        plan: base.plan.prune(PruneMode::On),
                        ..base
                    },
                )
                .records(true)
                .execute()
                .records
                .unwrap();
            let dyn_n = dyn_recs.iter().filter(|r| r.pruned).count();
            let st_n = st_recs.iter().filter(|r| r.pruned_static).count();
            assert!(st_n >= dyn_n, "{s}: static pruning must refine liveness");
            if s == Structure::RegFile {
                assert!(st_n > 0, "a RegFile campaign lands some prunable faults");
            }
        }
    }

    #[test]
    fn static_verify_mode_agrees_with_unpruned_and_does_not_panic() {
        // The demand stage's Verify likewise prunes exactly as its On.
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let base = CampaignConfig {
            plan: SamplingPlan::fixed(40),
            seed: 4,
            ..CampaignConfig::default()
        };
        let with = |mode| CampaignConfig {
            plan: base.plan.prune_static(mode),
            ..base
        };
        for s in [Structure::RegFile, Structure::RobFlags, Structure::L1DTag] {
            let on = inj.run(s, &with(PruneMode::On)).records(true).execute();
            let v = inj.run(s, &with(PruneMode::Verify)).records(true).execute();
            assert_eq!(v.result, on.result, "{s}: static verify tallies like on");
            assert_eq!(
                v.classes, on.classes,
                "{s}: static verify classifies like on"
            );
            assert_eq!(v.records, on.records, "{s}: static verify records like on");
            assert_eq!(
                v.simulated, on.simulated,
                "{s}: the oracle run is not counted"
            );
            assert_eq!(v.result, inj.run(s, &base).execute().result, "{s}");
            if s == Structure::RegFile {
                assert!(v.records.unwrap().iter().any(|r| r.pruned_static), "{s}");
            }
        }
    }

    #[test]
    fn adaptive_sampling_stops_at_the_target_margin() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let cc = CampaignConfig {
            plan: SamplingPlan::adaptive(0.15, 25),
            seed: 6,
            ..CampaignConfig::default()
        };
        let r = inj.run(Structure::RegFile, &cc).execute().result;
        assert!(
            r.margin_99() <= 0.15,
            "margin {} misses the target",
            r.margin_99()
        );
        let population = r.bit_population * r.golden_cycles;
        assert!(r.total() > 0 && r.total() < population);
        // Deterministic: the same target settles on the same sample.
        let again = inj.run(Structure::RegFile, &cc).execute().result;
        assert_eq!(r, again);
        // A tighter target draws more faults.
        let tighter = CampaignConfig {
            plan: SamplingPlan::adaptive(0.08, 25),
            ..cc
        };
        let t = inj.run(Structure::RegFile, &tighter).execute().result;
        assert!(t.total() > r.total());
        assert!(t.margin_99() <= 0.08);
    }

    #[test]
    fn ghost_iq_valid_bit_asserts_instead_of_panicking() {
        // Satellite: a tag fault that corrupts capacity bookkeeping must end
        // in a SimOutcome::Assert *return*, not a panic — under
        // `panic = "abort"` a panicking child would take the whole campaign
        // down with it. Setting the dest-field valid bit of an empty issue
        // queue slot fabricates a ghost entry with no dispatched
        // instruction; the issue stage must refuse it gracefully. No
        // catch_unwind here on purpose: a panic fails the test.
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let mut sim = Sim::new(&cfg, &program);
        assert!(sim.run_to_cycle(20).is_none(), "program runs past cycle 20");
        let bpe = sim.bit_count(Structure::IqDest) / cfg.iq_entries as u64;
        let ghost_valid_bit = (cfg.iq_entries as u64 - 1) * bpe + (bpe - 1);
        sim.flip_bit(Structure::IqDest, ghost_valid_bit);
        let end = sim.run(2 * inj.golden().cycles);
        assert!(
            matches!(end, SimOutcome::Assert { .. }),
            "ghost IQ entry must classify as Assert, got {end:?}"
        );
        // And the campaign path agrees (the fault is never prunable: valid
        // bits of empty slots are exactly where ghosts come from).
        let fault = FaultSpec {
            structure: Structure::IqDest,
            bit: ghost_valid_bit,
            cycle: 20,
        };
        assert_eq!(inj.inject(fault), FaultClass::Assert);
        assert!(!inj.prunable(fault, 1), "ghost sites must never be pruned");
    }

    #[test]
    fn prune_mode_round_trips_through_str() {
        for mode in [PruneMode::Off, PruneMode::On, PruneMode::Verify] {
            assert_eq!(mode.name().parse::<PruneMode>().unwrap(), mode);
        }
        assert!("sometimes".parse::<PruneMode>().is_err());
    }

    #[test]
    fn class_counts_merge() {
        let mut a = ClassCounts::default();
        a.record(FaultClass::Masked);
        a.record(FaultClass::Sdc);
        let mut b = ClassCounts::default();
        b.record(FaultClass::Assert);
        b.record(FaultClass::Assert);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.get(FaultClass::Assert), 2);
    }

    #[test]
    fn importance_sampling_draws_only_live_sites_and_is_prefix_stable() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let s = Structure::RegFile;
        let a = inj.sample_importance(s, 40, 9);
        let b = inj.sample_importance(s, 40, 9);
        assert_eq!(a, b, "seed-keyed and reproducible");
        let big = inj.sample_importance(s, 80, 9);
        assert_eq!(&big[..40], &a[..], "prefix-stable for adaptive growth");
        let mut seen = std::collections::HashSet::new();
        for f in &big {
            assert!(
                inj.liveness().is_vulnerable(s, f.bit, f.cycle),
                "importance sampling must only draw live-and-demanded sites"
            );
            assert!(seen.insert((f.bit, f.cycle)), "no repeated sites");
        }
        // The drawn sites differ from uniform's (RegFile has dead sites the
        // pruner proves masked, which uniform happily draws).
        let uniform = inj.sample_faults(s, 80, 9);
        assert!(
            uniform
                .iter()
                .any(|f| !inj.liveness().is_vulnerable(s, f.bit, f.cycle)),
            "uniform draws some provably-dead sites on RegFile"
        );
        // Over-asking caps at the live population, not the full one.
        let live = SamplerKind::Importance.population(&inj, s);
        assert!(live > 0 && live < SamplerKind::Uniform.population(&inj, s));
        let census = inj.sample_importance(s, live + 1000, 9);
        assert_eq!(census.len() as u64, live);
    }

    #[test]
    fn importance_campaign_reweights_and_agrees_with_uniform() {
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let s = Structure::RegFile;
        let uni_cfg = CampaignConfig {
            plan: SamplingPlan::adaptive(0.12, 25),
            seed: 10,
            ..CampaignConfig::default()
        };
        let imp_cfg = CampaignConfig {
            plan: uni_cfg.plan.sampler(SamplerKind::Importance),
            ..uni_cfg
        };
        let uni = inj.run(s, &uni_cfg).execute();
        let imp = inj.run(s, &imp_cfg).records(true).execute();
        let (u, i) = (&uni.result, &imp.result);
        assert_eq!(u.weight, 1.0);
        assert_eq!(u.live_population, None);
        assert!(i.weight > 0.0 && i.weight < 1.0, "RegFile has dead sites");
        assert_eq!(
            i.live_population,
            Some(SamplerKind::Importance.population(&inj, s))
        );
        // Same margin target, fewer forked children: the whole point.
        assert!(i.margin_99() <= 0.12, "importance margin {}", i.margin_99());
        assert!(u.margin_99() <= 0.12, "uniform margin {}", u.margin_99());
        assert!(
            imp.simulated < uni.simulated,
            "importance simulated {} >= uniform {}",
            imp.simulated,
            uni.simulated
        );
        // Estimates agree within combined 99% margins.
        assert!(
            (i.avf() - u.avf()).abs() <= i.margin_99() + u.margin_99(),
            "importance AVF {} vs uniform {} beyond combined margins",
            i.avf(),
            u.avf()
        );
        // Every record carries the structure's live-mass weight, and the
        // five reweighted fractions still sum to 1.
        for r in imp.records.as_ref().unwrap() {
            assert_eq!(r.weight, i.weight);
        }
        let frac_sum: f64 = FaultClass::ALL.iter().map(|c| i.fraction(*c)).sum();
        assert!((frac_sum - 1.0).abs() < 1e-9, "fractions sum to {frac_sum}");
    }

    #[test]
    fn importance_verify_campaign_cross_checks_against_uniform() {
        // Importance sampling with either prune stage on verify is a valid
        // plan: every drawn fault is re-classified on the fresh engine and
        // the AVF is held to a uniform campaign at the achieved margin. An
        // importance sample holds no prunable fault, so the result is the
        // plain importance campaign's.
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let plain = SamplingPlan::adaptive(0.15, 25).sampler(SamplerKind::Importance);
        let run = |s, plan| {
            let cc = CampaignConfig {
                plan,
                seed: 12,
                ..CampaignConfig::default()
            };
            inj.run(s, &cc).execute()
        };
        for s in [Structure::RegFile, Structure::RobFlags] {
            let expected = run(s, plain);
            for verify in [
                plain.prune(PruneMode::Verify),
                plain.prune_static(PruneMode::Verify),
            ] {
                assert!(verify.validate().is_ok(), "{verify:?}");
                let out = run(s, verify);
                assert_eq!(out.result, expected.result, "{s}: {verify:?}");
                assert_eq!(out.classes, expected.classes, "{s}: {verify:?}");
            }
        }
    }

    #[test]
    fn importance_verify_on_a_huge_structure_caps_its_uniform_sample() {
        // A short program's L2 data array: a few live sites among millions,
        // so three importance draws reach a margin that only a census of the
        // uniform population would match, and sizing the cross-check to it
        // reserved terabytes and aborted. The cross-check now draws at most
        // VERIFY_UNIFORM_CAP faults and still agrees.
        let (cfg, program) = setup();
        let s = Structure::L2Data;
        let plan = SamplingPlan::fixed(3).sampler(SamplerKind::Importance);
        let inj = Injector::for_plan(&cfg, &program, &plan).unwrap();
        let run = |plan| {
            let cc = CampaignConfig {
                plan,
                seed: 4,
                ..CampaignConfig::default()
            };
            inj.run(s, &cc).execute()
        };
        let plain = run(plan);
        let census = inj.adaptive_size(s, plain.result.margin_99(), 3, SamplerKind::Uniform);
        assert!(census > 1_000 * VERIFY_UNIFORM_CAP, "{census}");
        let verified = run(plan.prune(PruneMode::Verify));
        assert_eq!(verified.result, plain.result);
        assert_eq!(verified.classes, plain.classes);
    }

    #[test]
    fn preset_fault_lists_always_carry_unit_weight() {
        // A caller-supplied fault list is the caller's own census — no
        // sampling distribution applies, even under an importance plan.
        let (cfg, program) = setup();
        let inj = Injector::new(&cfg, &program).unwrap();
        let faults = inj.sample_importance(Structure::RegFile, 20, 3);
        let out = inj
            .run(
                Structure::RegFile,
                &CampaignConfig {
                    plan: SamplingPlan::fixed(20).sampler(SamplerKind::Importance),
                    seed: 3,
                    ..CampaignConfig::default()
                },
            )
            .faults(&faults)
            .records(true)
            .execute();
        assert_eq!(out.result.weight, 1.0);
        assert_eq!(out.result.live_population, None);
        assert!(out.records.unwrap().iter().all(|r| r.weight == 1.0));
    }
}
