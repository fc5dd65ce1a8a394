//! Property test: the golden-prefix checkpointing engine must classify every
//! fault exactly as the fresh from-cycle-0 engine does, on both paper
//! machines, for arbitrary (structure, bit, cycle) faults — including cycles
//! past the end of the program and batches that put several forked children
//! in flight at once. A directed test pins the convoy's fixed-point Timeout
//! verdict on faults that deadlock the pipeline.

use proptest::prelude::*;
use softerr::{
    CampaignConfig, Compiler, DivergenceSite, FaultClass, FaultRecord, FaultSpec, Injector,
    MachineConfig, OptLevel, Program, SamplingPlan, Scale, Sim, Structure, Workload,
};
use std::sync::OnceLock;

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
