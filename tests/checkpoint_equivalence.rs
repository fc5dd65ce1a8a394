//! Property test: the golden-prefix checkpointing engine must classify every
//! fault exactly as the fresh from-cycle-0 engine does, on both paper
//! machines, for arbitrary (structure, bit, cycle) faults — including cycles
//! past the end of the program and batches that put several forked children
//! in flight at once. Directed tests pin the convoy's fixed-point Timeout
//! verdict on faults that deadlock the pipeline, and its parked verdicts:
//! children that differ from the golden run only in state it does not read
//! again are filed at its halt, and children whose state it does read are
//! unparked and stepped on, each with the record a run to its own end
//! produces.

use proptest::prelude::*;
use softerr::{
    span, telemetry, CampaignConfig, Compiler, DivergenceSite, FaultClass, FaultRecord, FaultSpec,
    Injector, MachineConfig, OptLevel, Program, SamplingPlan, Scale, Sim, SimOutcome, Structure,
    Workload,
};
use std::sync::{Mutex, OnceLock};

/// Small mixed workload: ALU loops, memory traffic, and data-dependent
/// branches, so every structure class sees live state.
const SOURCE: &str = "
    int tab[24];
    void main() {
        for (int i = 0; i < 24; i = i + 1) tab[i] = i * 5 - 7;
        int acc = 0;
        for (int i = 0; i < 24; i = i + 1) {
            if (tab[i] > 20) acc = acc + tab[i];
            else acc = acc - 1;
        }
        out(acc);
    }";

fn machines() -> &'static Vec<(MachineConfig, Program)> {
    static CELL: OnceLock<Vec<(MachineConfig, Program)>> = OnceLock::new();
    CELL.get_or_init(|| {
        MachineConfig::paper_machines()
            .into_iter()
            .map(|m| {
                let program = Compiler::new(m.profile, OptLevel::O2)
                    .compile(SOURCE)
                    .expect("workload compiles")
                    .program;
                (m, program)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn checkpointed_classification_matches_fresh(
        raw in proptest::collection::vec((0usize..15, any::<u64>(), any::<u64>()), 1..6),
    ) {
        for (machine, program) in machines() {
            let injector = Injector::new(machine, program).expect("golden run");
            let cycles = injector.golden().cycles;
            let faults: Vec<FaultSpec> = raw
                .iter()
                .map(|&(s, bit, cycle)| {
                    let structure = Structure::ALL[s];
                    FaultSpec {
                        structure,
                        bit: bit % injector.bit_count(structure),
                        // Bias into the live range but keep past-the-end
                        // cycles reachable (fresh path masks those).
                        cycle: cycle % (cycles + cycles / 4 + 1),
                    }
                })
                .collect();
            let fresh_cfg = CampaignConfig { checkpoint: false, ..CampaignConfig::default() };
            let ckpt_cfg = CampaignConfig { checkpoint: true, ..CampaignConfig::default() };
            // The nominal structure only labels the result; the explicit
            // fault list drives classification.
            let s = faults[0].structure;
            let fresh = injector.run(s, &fresh_cfg).faults(&faults).execute().classes;
            let ckpt = injector.run(s, &ckpt_cfg).faults(&faults).execute().classes;
            prop_assert_eq!(
                &fresh, &ckpt,
                "divergence on {} for faults {:?}", machine.name, faults
            );
        }
    }
}

/// IqSrc flips that lose a wakeup tag deadlock the pipeline: qsort at O0 on
/// the A15 draws five of them at seed 1. Each freezes at a fixed point a
/// few dozen cycles after injection, and the convoy files it there as the
/// Timeout a run to the 2× golden-time budget reaches: the fresh engine's
/// class, and in record mode the record that run produces, whether the
/// fault rides with the others, alone, or graduates off a full convoy.
#[test]
fn deadlocked_iq_faults_time_out_at_their_fixed_point() {
    let machine = MachineConfig::cortex_a15();
    let program = Compiler::new(machine.profile, OptLevel::O0)
        .compile(&Workload::Qsort.source(Scale::Tiny))
        .expect("qsort compiles")
        .program;
    let injector = Injector::new(&machine, &program).expect("golden run");
    let golden_cycles = injector.golden().cycles;
    let cfg = CampaignConfig {
        plan: SamplingPlan::fixed(16),
        seed: 1,
        checkpoint: true,
        ..CampaignConfig::default()
    };
    let fresh_cfg = CampaignConfig {
        checkpoint: false,
        ..cfg
    };
    let convoy = injector.run(Structure::IqSrc, &cfg).records(true).execute();
    let fresh = injector.run(Structure::IqSrc, &fresh_cfg).execute();
    assert_eq!(fresh.classes, convoy.classes, "convoy and fresh verdicts");
    let records = convoy.records.expect("records were requested");
    let deadlocks: Vec<&FaultRecord> = records
        .iter()
        .filter(|r| r.class == FaultClass::Timeout)
        .collect();
    assert_eq!(deadlocks.len(), 5, "IqSrc Timeouts at seed 1");
    for record in deadlocks {
        let spec = record.spec;
        let mut sim = Sim::new(&machine, &program);
        assert!(sim.run_to_cycle(spec.cycle).is_none());
        let pc = sim.fetch_pc();
        sim.flip_bit(spec.structure, spec.bit);
        let born = sim.cycle();
        while !sim.is_fixed_point() {
            assert!(sim.run_to_cycle(sim.cycle() + 1).is_none());
            assert!(sim.cycle() < born + 256, "{spec:?} freezes soon");
        }
        let expected = FaultRecord {
            spec,
            class: FaultClass::Timeout,
            end_cycle: 2 * golden_cycles,
            golden_cycles,
            first_divergence: Some(DivergenceSite {
                cycle: spec.cycle,
                pc,
                component: "iq".to_string(),
            }),
            pruned: false,
            pruned_static: false,
            weight: 1.0,
            propagation: None,
        };
        assert_eq!(*record, expected);
        let rerun = |faults: &[FaultSpec]| {
            injector
                .run(Structure::IqSrc, &cfg)
                .faults(faults)
                .records(true)
                .execute()
                .records
                .expect("records were requested")
        };
        assert_eq!(rerun(&[spec]), vec![expected.clone()], "{spec:?} alone");
        // Ten same-cycle copies overflow the eight-child convoy, so the
        // first two graduate and run out the budget off the convoy while
        // the other eight meet their fixed point on the convoy.
        let crowd = vec![spec; 10];
        assert_eq!(rerun(&crowd), vec![expected; 10], "{spec:?} crowded");
    }
}

/// Qsort on the A15 at `level`: the cells whose seed-1 RF and L1D tag-array
/// campaigns hold children that park.
fn a15_qsort(level: OptLevel) -> (MachineConfig, Program) {
    let machine = MachineConfig::cortex_a15();
    let program = Compiler::new(machine.profile, level)
        .compile(&Workload::Qsort.source(Scale::Tiny))
        .expect("qsort compiles")
        .program;
    (machine, program)
}

/// What the convoy's first convergence check, 16 cycles after `spec`
/// lands, finds: `None` when the child cannot park there (it converged,
/// ended, or differs in more than register values and cache sets),
/// otherwise whether the golden run reads the child's delta before it
/// halts.
fn first_check_park(machine: &MachineConfig, program: &Program, spec: FaultSpec) -> Option<bool> {
    let mut golden = Sim::new(machine, program);
    if golden.run_to_cycle(spec.cycle).is_some() {
        return None;
    }
    let mut child = golden.fork();
    child.flip_bit(spec.structure, spec.bit);
    let check = spec.cycle + 16;
    if golden.run_to_cycle(check).is_some() || child.run_to_cycle(check).is_some() {
        return None;
    }
    let delta = child.delta(&golden).filter(|d| !d.is_empty())?;
    golden.watch(&delta);
    golden.run(u64::MAX);
    Some(!golden.take_watch_hits().is_empty())
}

/// The record of `spec` simulated from cycle 0 to its own end under the
/// 2× golden-time budget: what the convoy must file, however it decides.
fn own_end_record(
    machine: &MachineConfig,
    program: &Program,
    injector: &Injector<'_>,
    spec: FaultSpec,
) -> FaultRecord {
    let golden = injector.golden();
    let mut sim = Sim::new(machine, program);
    assert!(sim.run_to_cycle(spec.cycle).is_none());
    let pristine = sim.fork();
    let pc = sim.fetch_pc();
    sim.flip_bit(spec.structure, spec.bit);
    let component = sim.state_divergence(&pristine).expect("a live flip");
    let (class, end_cycle) = match sim.run(2 * golden.cycles) {
        SimOutcome::Halted { cycles, output, .. } if output == golden.output => {
            (FaultClass::Masked, cycles)
        }
        SimOutcome::Halted { cycles, .. } => (FaultClass::Sdc, cycles),
        SimOutcome::Crash { cycles, .. } => (FaultClass::Crash, cycles),
        SimOutcome::Assert { cycles, .. } => (FaultClass::Assert, cycles),
        SimOutcome::CycleLimit { cycles } => (FaultClass::Timeout, cycles),
    };
    FaultRecord {
        spec,
        class,
        end_cycle,
        golden_cycles: golden.cycles,
        first_divergence: Some(DivergenceSite {
            cycle: spec.cycle,
            pc,
            component: component.to_string(),
        }),
        pruned: false,
        pruned_static: false,
        weight: 1.0,
        propagation: None,
    }
}

/// Serializes arming the process-global tracing switch.
static TRACING: Mutex<()> = Mutex::new(());

/// The convoy's record of `spec` run alone, and the `parked` counter of
/// the worker that filed it. One worker thread runs on this thread, so
/// its span is told from other tests' spans by thread id.
fn alone_with_parked(
    injector: &Injector<'_>,
    cfg: &CampaignConfig,
    spec: FaultSpec,
) -> (FaultRecord, u64) {
    let _guard = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_tracing(true);
    drop(span("test.here"));
    let out = injector
        .run(spec.structure, cfg)
        .faults(&[spec])
        .records(true)
        .execute();
    let trace = telemetry::take_trace();
    telemetry::set_tracing(false);
    let here = trace
        .spans
        .iter()
        .find(|s| s.name == "test.here")
        .expect("marker span")
        .tid;
    let parked = trace
        .spans
        .iter()
        .filter(|s| s.name == "campaign.worker" && s.tid == here)
        .map(|s| s.u64_field("parked").unwrap_or(0))
        .sum();
    let mut records = out.records.expect("records were requested");
    (records.remove(0), parked)
}

/// RF flips in registers no later instruction reads, and L1D tag-array
/// flips in sets nothing touches again, never re-converge yet end Masked.
/// The convoy parks them at their first check and files them when the
/// golden run halts: the fresh engine's classes, and the records a run to
/// their own end produces, in the seed-1 campaigns and alone. qsort at O2
/// and O0 on the A15 has both kinds at seed 1.
#[test]
fn children_parked_to_the_halt_match_fresh() {
    let mut found = Vec::new();
    for level in [OptLevel::O2, OptLevel::O0] {
        let (machine, program) = a15_qsort(level);
        let injector = Injector::new(&machine, &program).expect("golden run");
        let cfg = CampaignConfig {
            plan: SamplingPlan::fixed(16),
            seed: 1,
            threads: 1,
            checkpoint: true,
        };
        let fresh_cfg = CampaignConfig {
            checkpoint: false,
            ..cfg
        };
        for s in [Structure::RegFile, Structure::L1DTag] {
            let convoy = injector.run(s, &cfg).records(true).execute();
            let fresh = injector.run(s, &fresh_cfg).execute();
            assert_eq!(convoy.classes, fresh.classes, "{level} {s}");
            for record in convoy.records.expect("records were requested") {
                let spec = record.spec;
                if first_check_park(&machine, &program, spec) != Some(false) {
                    continue;
                }
                let expected = own_end_record(&machine, &program, &injector, spec);
                assert_eq!(record, expected, "{level} {spec:?}");
                let (alone, parked) = alone_with_parked(&injector, &cfg, spec);
                assert_eq!(alone, expected, "{level} {spec:?} alone");
                assert_eq!(parked, 1, "{level} {spec:?} is filed parked");
                found.push((level, s));
            }
        }
    }
    for level in [OptLevel::O2, OptLevel::O0] {
        for s in [Structure::RegFile, Structure::L1DTag] {
            assert!(
                found.contains(&(level, s)),
                "{level} {s} has a child parked to the halt"
            );
        }
    }
}

/// A child parked at its first check whose delta the golden run reads
/// later is unparked, stepped through the cycles it skipped, and then
/// classified as if it had never stopped: the fresh engine's class and the
/// record of a run to its own end. The seed-1 RF campaign of qsort at O2
/// on the A15 has such children.
#[test]
fn children_unparked_by_a_golden_read_match_fresh() {
    let (machine, program) = a15_qsort(OptLevel::O2);
    let injector = Injector::new(&machine, &program).expect("golden run");
    let cfg = CampaignConfig {
        plan: SamplingPlan::fixed(16),
        seed: 1,
        threads: 1,
        checkpoint: true,
    };
    let fresh_cfg = CampaignConfig {
        checkpoint: false,
        ..cfg
    };
    let convoy = injector
        .run(Structure::RegFile, &cfg)
        .records(true)
        .execute();
    let records = convoy.records.expect("records were requested");
    let unparked: Vec<FaultSpec> = records
        .iter()
        .map(|r| r.spec)
        .filter(|&spec| first_check_park(&machine, &program, spec) == Some(true))
        .collect();
    assert!(!unparked.is_empty(), "some child parks and is unparked");
    let fresh = injector
        .run(Structure::RegFile, &fresh_cfg)
        .faults(&unparked)
        .execute();
    let ckpt = injector
        .run(Structure::RegFile, &cfg)
        .faults(&unparked)
        .execute();
    assert_eq!(fresh.classes, ckpt.classes);
    for spec in unparked {
        let expected = own_end_record(&machine, &program, &injector, spec);
        assert!(records.contains(&expected), "{spec:?} in the campaign");
        let (alone, _) = alone_with_parked(&injector, &cfg, spec);
        assert_eq!(alone, expected, "{spec:?} alone");
    }
}

/// A table is written, one entry is output, then only registers change
/// until the halt.
const WRONG_OUTPUT_SOURCE: &str = "
    int tab[64];
    void main() {
        for (int i = 0; i < 64; i = i + 1) tab[i] = 1000 + i;
        out(tab[3]);
        int s = 0;
        for (int i = 0; i < 400; i = i + 1) s = s + i * 3;
        out(s);
    }";

/// Flipping `tab[3]` in the L1D as soon as it is written: the child parks
/// with only that set differing, is unparked by the stores to the rest of
/// the line, outputs the wrong entry, and then differs only in a set the
/// golden run never reads again. It is filed parked at the halt as the SDC
/// a run to its own end is, with the fresh engine's class.
#[test]
fn a_child_parked_after_a_wrong_output_is_an_sdc() {
    let machine = MachineConfig::cortex_a15();
    for level in [OptLevel::O0, OptLevel::O2] {
        let program = Compiler::new(machine.profile, level)
            .compile(WRONG_OUTPUT_SOURCE)
            .expect("compiles")
            .program;
        let injector = Injector::new(&machine, &program).expect("golden run");
        let mut sim = Sim::new(&machine, &program);
        let entry = 1003u32.to_le_bytes();
        let line_bytes = sim.mem.l1d.geometry().line_bytes as usize;
        let spec = loop {
            assert!(sim.run_to_cycle(sim.cycle() + 1).is_none());
            let l1d = &sim.mem.l1d;
            let found = (0..l1d.geometry().lines())
                .filter(|&line| l1d.is_valid(line))
                .find_map(|line| {
                    let data = l1d.line_data(line);
                    (0..line_bytes)
                        .step_by(4)
                        .find(|&at| data[at..at + 4] == entry)
                        .map(|at| line * line_bytes + at)
                });
            if let Some(byte) = found {
                break FaultSpec {
                    structure: Structure::L1DData,
                    bit: 8 * byte as u64,
                    cycle: sim.cycle(),
                };
            }
        };
        let cfg = CampaignConfig {
            plan: SamplingPlan::fixed(1),
            seed: 1,
            threads: 1,
            checkpoint: true,
        };
        let fresh_cfg = CampaignConfig {
            checkpoint: false,
            ..cfg
        };
        let fresh = injector
            .run(spec.structure, &fresh_cfg)
            .faults(&[spec])
            .execute();
        assert_eq!(fresh.classes, vec![FaultClass::Sdc], "{level}");
        let expected = own_end_record(&machine, &program, &injector, spec);
        let (alone, parked) = alone_with_parked(&injector, &cfg, spec);
        assert_eq!(alone, expected, "{level} {spec:?}");
        assert_eq!(parked, 1, "{level} {spec:?} is filed parked");
    }
}
