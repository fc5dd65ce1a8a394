//! Cross-crate end-to-end assertions: the compiler, reference emulator,
//! cycle-level simulator, and injector agree with each other on real
//! workloads, and the paper's central qualitative effects emerge from the
//! stack.

use softerr::{
    CampaignConfig, Compiler, Emulator, FaultClass, Injector, MachineConfig, OptLevel,
    SamplingPlan, Scale, Sim, SimOutcome, Structure, Workload,
};

#[test]
fn emulator_sim_and_injector_golden_all_agree() {
    let machine = MachineConfig::cortex_a72();
    let compiled = Compiler::new(machine.profile, OptLevel::O3)
        .compile(&Workload::Patricia.source(Scale::Tiny))
        .unwrap();

    let emu_out = Emulator::new(&compiled.program).run(1_000_000_000).unwrap();

    let mut sim = Sim::new(&machine, &compiled.program);
    let SimOutcome::Halted {
        retired,
        output,
        cycles,
    } = sim.run(1_000_000_000)
    else {
        panic!("sim did not halt");
    };
    assert_eq!(output, emu_out.output);
    assert_eq!(retired, emu_out.retired);

    let injector = Injector::new(&machine, &compiled.program).unwrap();
    assert_eq!(injector.golden().cycles, cycles);
    assert_eq!(injector.golden().output, emu_out.output);
}

#[test]
fn register_pressure_rises_with_optimization() {
    // The paper's §IV.E mechanism: optimized code uses the register file
    // harder ("higher read and write operations"). Measure read-port
    // traffic per cycle; O1 exceeds O0 on every workload and machine.
    for machine in MachineConfig::paper_machines() {
        for w in [Workload::Blowfish, Workload::Dijkstra, Workload::Sha] {
            let reads_per_cycle = |level: OptLevel| {
                let compiled = Compiler::new(machine.profile, level)
                    .compile(&w.source(Scale::Tiny))
                    .unwrap();
                let mut sim = Sim::new(&machine, &compiled.program);
                sim.enable_counters();
                let SimOutcome::Halted { cycles, .. } = sim.run(1_000_000_000) else {
                    panic!("did not halt")
                };
                let c = sim.counters().expect("counters enabled");
                c.rf_reads as f64 / cycles as f64
            };
            let o0 = reads_per_cycle(OptLevel::O0);
            let o1 = reads_per_cycle(OptLevel::O1);
            assert!(
                o1 > o0,
                "{}/{w}: O1 RF reads/cycle ({o1:.2}) should exceed O0 ({o0:.2})",
                machine.name
            );
        }
    }
}

#[test]
fn icache_faults_crash_dcache_faults_corrupt() {
    // Paper Figs. 2–3: L1I is Crash-dominated, L1D is SDC-dominated,
    // among the non-masked outcomes.
    let machine = MachineConfig::cortex_a15();
    let compiled = Compiler::new(machine.profile, OptLevel::O1)
        .compile(&Workload::Sha.source(Scale::Tiny))
        .unwrap();
    let injector = Injector::new(&machine, &compiled.program).unwrap();
    let cfg = CampaignConfig {
        plan: SamplingPlan::fixed(400),
        seed: 5,
        threads: 1,
        checkpoint: true,
    };

    let l1i = injector.run(Structure::L1IData, &cfg).execute().result;
    if l1i.avf() > 0.02 {
        assert!(
            l1i.fraction(FaultClass::Crash) > l1i.fraction(FaultClass::Sdc),
            "L1I: crashes ({}) should dominate SDCs ({})",
            l1i.counts.crash,
            l1i.counts.sdc
        );
    }

    let l1d = injector.run(Structure::L1DData, &cfg).execute().result;
    if l1d.avf() > 0.02 {
        assert!(
            l1d.fraction(FaultClass::Sdc) >= l1d.fraction(FaultClass::Crash),
            "L1D: SDCs ({}) should dominate crashes ({})",
            l1d.counts.sdc,
            l1d.counts.crash
        );
    }
}

#[test]
fn rob_and_lsq_fail_only_via_assert() {
    // Paper Figs. 6 and 8: ROB and LQ/SQ failures are Assert-class (plus
    // timeouts from lost DONE flags); no silent corruption, no crashes.
    let machine = MachineConfig::cortex_a72();
    let compiled = Compiler::new(machine.profile, OptLevel::O2)
        .compile(&Workload::Gsm.source(Scale::Tiny))
        .unwrap();
    let injector = Injector::new(&machine, &compiled.program).unwrap();
    let cfg = CampaignConfig {
        plan: SamplingPlan::fixed(250),
        seed: 11,
        threads: 1,
        checkpoint: true,
    };
    for s in [
        Structure::LoadQueue,
        Structure::StoreQueue,
        Structure::RobPc,
        Structure::RobDest,
        Structure::RobSeq,
    ] {
        let c = injector.run(s, &cfg).execute().result;
        assert_eq!(c.counts.sdc, 0, "{s} must not produce SDC");
        assert_eq!(c.counts.crash, 0, "{s} must not produce crashes");
    }
}

#[test]
fn unused_hardware_has_low_avf() {
    // A tiny program leaves most of the L2 untouched: its AVF must be far
    // below that of the register file, which is constantly live.
    let machine = MachineConfig::cortex_a72();
    let compiled = Compiler::new(machine.profile, OptLevel::O1)
        .compile(&Workload::Fft.source(Scale::Tiny))
        .unwrap();
    let injector = Injector::new(&machine, &compiled.program).unwrap();
    let cfg = CampaignConfig {
        plan: SamplingPlan::fixed(300),
        seed: 21,
        threads: 1,
        checkpoint: true,
    };
    let l2 = injector.run(Structure::L2Data, &cfg).execute().result;
    assert!(
        l2.avf() < 0.10,
        "a 2 MiB L2 under a tiny workload should be mostly masked, got {}",
        l2.avf()
    );
}

#[test]
fn timeout_class_is_reachable_via_iq() {
    let machine = MachineConfig::cortex_a15();
    let compiled = Compiler::new(machine.profile, OptLevel::O1)
        .compile(&Workload::Qsort.source(Scale::Tiny))
        .unwrap();
    let injector = Injector::new(&machine, &compiled.program).unwrap();
    let c = injector
        .run(
            Structure::IqSrc,
            &CampaignConfig {
                plan: SamplingPlan::fixed(400),
                seed: 31,
                threads: 1,
                checkpoint: true,
            },
        )
        .execute()
        .result;
    assert!(
        c.counts.timeout > 0,
        "IQ source-tag corruption should deadlock at least once: {:?}",
        c.counts
    );
}
