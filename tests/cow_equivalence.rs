//! Property and directed tests for copy-on-write simulator forking.
//!
//! The convoy engine now forks children with [`Sim::fork`] — chunked,
//! `Arc`-shared cache arrays and register-file value bank — instead of deep
//! clones. The properties here prove the COW path is invisible in results
//! (classes, tallies, and fault records are a pure function of the fault,
//! regardless of fork sharing, convoy composition, or pruning), and the
//! directed tests pin the two behaviors the refactor exists to deliver:
//! O(1) fork cost, and early convergence classification for children whose
//! transient extra miss previously kept the old stamp-exact cache equality
//! false forever. A cell-level property covers the one golden convoy a
//! study cell shares across all 15 structures, and directed probes pin
//! that flips in dead state (invalid cache lines, free issue-queue slots)
//! are not divergence.

use proptest::prelude::*;
use softerr::{
    CampaignConfig, Compiler, FaultClass, Injector, MachineConfig, OptLevel, Program, PruneMode,
    SamplerKind, SamplingPlan, Scale, Sim, SimOutcome, Structure, Workload,
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

/// Workload for the re-convergence test. Two properties matter: the
/// multi-cycle divider keeps the back end busy, so the transient fetch
/// bubble from one extra I-cache miss is absorbed instead of rippling to
/// the halt cycle; and the data-dependent branch mispredicts occasionally,
/// whose squash recovery rebuilds the rename free list from first
/// principles in both machines — re-canonicalizing the allocation rotation
/// the bubble phase-shifted, which is what lets the child's state close the
/// last gap with the golden run.
const DIV_SOURCE: &str = "
    int tab[32];
    void main() {
        for (int i = 0; i < 32; i = i + 1) tab[i] = (i * 7919) / (i + 3);
        int acc = 1;
        for (int i = 1; i < 96; i = i + 1) {
            acc = acc + (tab[i % 32] / i);
            if (acc > 600) acc = acc - 599;
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

fn div_machines() -> &'static Vec<(MachineConfig, Program)> {
    static CELL: OnceLock<Vec<(MachineConfig, Program)>> = OnceLock::new();
    CELL.get_or_init(|| {
        MachineConfig::paper_machines()
            .into_iter()
            .map(|m| {
                let program = Compiler::new(m.profile, OptLevel::O2)
                    .compile(DIV_SOURCE)
                    .expect("workload compiles")
                    .program;
                (m, program)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// COW-forked convoy campaigns classify every fault exactly as the
    /// fresh from-cycle-0 engine, over random seeds, all 15 structures,
    /// both paper machines, prune on and off.
    #[test]
    fn cow_convoy_matches_fresh(
        seed in any::<u64>(),
        s in 0usize..15,
        prune_on in any::<bool>(),
    ) {
        let structure = Structure::ALL[s];
        for (machine, program) in machines() {
            let injector = Injector::new(machine, program).expect("golden run");
            let fresh_cfg = CampaignConfig {
                plan: SamplingPlan::fixed(40),
                seed,
                checkpoint: false,
                ..CampaignConfig::default()
            };
            let cow_cfg = CampaignConfig {
                checkpoint: true,
                plan: fresh_cfg
                    .plan
                    .prune(if prune_on { PruneMode::On } else { PruneMode::Off }),
                ..fresh_cfg
            };
            let fresh = injector.run(structure, &fresh_cfg).execute();
            let cow = injector.run(structure, &cow_cfg).execute();
            prop_assert_eq!(
                &fresh.result, &cow.result,
                "{}/{}: COW convoy changed the class tallies (seed {})",
                machine.name, structure, seed
            );
            prop_assert_eq!(
                &fresh.classes, &cow.classes,
                "{}/{}: COW convoy changed a per-fault verdict (seed {})",
                machine.name, structure, seed
            );
        }
    }

    /// Fault records must be a pure function of the fault itself: changing
    /// the convoy composition (thread count) and the pruning mode changes
    /// which children share which chunks with which golden epoch, and none
    /// of it may show through to the record stream.
    #[test]
    fn cow_records_are_pure_functions_of_the_fault(
        seed in any::<u64>(),
        s in 0usize..15,
    ) {
        let structure = Structure::ALL[s];
        for (machine, program) in machines() {
            let injector = Injector::new(machine, program).expect("golden run");
            let base =
                CampaignConfig { plan: SamplingPlan::fixed(40), seed, ..CampaignConfig::default() };
            let wide =
                CampaignConfig { threads: 4, plan: base.plan.prune(PruneMode::On), ..base };
            let a = injector.run(structure, &base).records(true).execute();
            let b = injector.run(structure, &wide).records(true).execute();
            let ra = a.records.expect("records were requested");
            let rb = b.records.expect("records were requested");
            prop_assert_eq!(ra.len(), rb.len());
            for (x, y) in ra.iter().zip(&rb) {
                if y.class != FaultClass::Masked {
                    prop_assert_eq!(
                        x, y,
                        "{}/{}: non-masked record depends on convoy shape (seed {})",
                        machine.name, structure, seed
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// One convoy per cell: a run over all 15 structures, the way a study
    /// cell executes, classifies every fault exactly as a separate
    /// fresh-engine run of its structure, over random seeds, both paper
    /// machines, prune on and off, and uniform and importance samplers.
    #[test]
    fn one_convoy_cell_matches_fresh_per_structure(
        seed in any::<u64>(),
        prune_on in any::<bool>(),
        importance in any::<bool>(),
    ) {
        let sampler = if importance { SamplerKind::Importance } else { SamplerKind::Uniform };
        for (machine, program) in machines() {
            let injector = Injector::new(machine, program).expect("golden run");
            let fresh_cfg = CampaignConfig {
                plan: SamplingPlan::fixed(6).sampler(sampler),
                seed,
                checkpoint: false,
                ..CampaignConfig::default()
            };
            let cell_cfg = CampaignConfig {
                checkpoint: true,
                plan: fresh_cfg
                    .plan
                    .prune(if prune_on { PruneMode::On } else { PruneMode::Off }),
                ..fresh_cfg
            };
            let cell = injector.run_all(&Structure::ALL, &cell_cfg).execute_all();
            prop_assert_eq!(cell.len(), Structure::ALL.len());
            for (out, &structure) in cell.iter().zip(Structure::ALL.iter()) {
                let fresh = injector.run(structure, &fresh_cfg).execute();
                prop_assert_eq!(
                    &fresh.result, &out.result,
                    "{}/{}: the shared convoy changed the class tallies (seed {})",
                    machine.name, structure, seed
                );
                prop_assert_eq!(
                    &fresh.classes, &out.classes,
                    "{}/{}: the shared convoy changed a per-fault verdict (seed {})",
                    machine.name, structure, seed
                );
            }
        }
    }
}

/// A fork shares every storage chunk with its parent — O(1) cost — and each
/// post-fork write unshares exactly one chunk.
#[test]
fn fork_is_o1_and_unshares_per_write() {
    for (machine, program) in machines() {
        let mut golden = Sim::new(machine, program);
        assert!(
            golden.run_to_cycle(500).is_none(),
            "workload outlives 500 cycles"
        );
        let mut child = golden.fork();
        assert!(child.state_eq(&golden), "fork starts state-equal");
        for (ours, theirs) in [
            (&child.mem.l1i, &golden.mem.l1i),
            (&child.mem.l1d, &golden.mem.l1d),
            (&child.mem.l2, &golden.mem.l2),
        ] {
            assert_eq!(
                ours.shared_state_chunks(theirs),
                ours.state_chunk_count(),
                "{}: fork must share every cache chunk",
                machine.name
            );
        }
        assert_eq!(
            child.rf.shared_value_chunks(&golden.rf),
            child.rf.value_chunk_count(),
            "{}: fork must share the whole RF value bank",
            machine.name
        );
        // One data-bit flip materializes exactly one chunk of one array.
        child.flip_bit(Structure::L1DData, 0);
        assert_eq!(
            child.mem.l1d.shared_state_chunks(&golden.mem.l1d),
            child.mem.l1d.state_chunk_count() - 1,
            "{}: one write must unshare exactly one chunk",
            machine.name
        );
        child.flip_bit(Structure::RegFile, 0);
        assert_eq!(
            child.rf.shared_value_chunks(&golden.rf),
            child.rf.value_chunk_count() - 1,
            "{}: one RF write must unshare exactly one value chunk",
            machine.name
        );
        // The untouched hierarchy levels still share everything.
        assert_eq!(
            child.mem.l2.shared_state_chunks(&golden.mem.l2),
            child.mem.l2.state_chunk_count(),
            "{}: untouched L2 stays fully shared",
            machine.name
        );
    }
}

/// The bug the relative-LRU equality fixes, end to end: a child whose fault
/// costs it one transient extra I-cache miss re-converges to the golden
/// state and is classified by convergence (Masked, mid-run) instead of
/// simulating to completion. Under the old stamp-exact comparison the extra
/// miss advanced `use_counter` past the golden value forever, so `state_eq`
/// could never return true again.
#[test]
fn transient_extra_miss_child_is_classified_by_convergence() {
    for (machine, program) in div_machines() {
        let total = {
            let mut probe = Sim::new(machine, program);
            match probe.run(200_000) {
                SimOutcome::Halted { cycles, .. } => cycles,
                other => panic!("{}: workload must halt, got {other:?}", machine.name),
            }
        };
        let mut converged = false;
        'search: for start in [total / 4, total / 2, (3 * total) / 4] {
            let mut golden = Sim::new(machine, program);
            assert!(golden.run_to_cycle(start).is_none());
            let per_line = golden.mem.l1i.tag_width() as u64 + 2;
            let lines = golden.mem.l1i.geometry().lines();
            for line in 0..lines {
                if !golden.mem.l1i.is_valid(line) {
                    continue;
                }
                // Knock the line's valid bit off: the next fetch of it takes
                // one extra miss, refills the identical contents, and leaves
                // only a recency-order and timing transient behind.
                let mut runner = golden.fork();
                let mut child = golden.fork();
                child.flip_bit(
                    Structure::L1ITag,
                    line as u64 * per_line + golden.mem.l1i.tag_width() as u64,
                );
                while runner.cycle() < total - 1 {
                    let stop = (runner.cycle() + 8).min(total - 1);
                    if runner.run_to_cycle(stop).is_some() || child.run_to_cycle(stop).is_some() {
                        break; // someone halted early: not this candidate
                    }
                    let extra_miss = child.mem.l1i.misses > runner.mem.l1i.misses;
                    if extra_miss && child.state_eq(&runner) {
                        // Converged mid-run with the extra miss on record:
                        // the convoy classifies this child on the spot.
                        assert_eq!(
                            child.output(),
                            runner.output(),
                            "{}: clean I-side fault must be Masked",
                            machine.name
                        );
                        assert!(
                            runner.cycle() < total - 1,
                            "{}: convergence must beat running to completion",
                            machine.name
                        );
                        converged = true;
                        break 'search;
                    }
                }
            }
        }
        assert!(
            converged,
            "{}: no transiently-missing child re-converged — the relative-LRU \
             equality fix is not observable",
            machine.name
        );
    }
}

/// Golden-record pin for the forensics contract: the component names
/// `Sim::state_divergence` can report, in probe order. PR 3's persisted
/// `DivergenceSite.component` values depend on these strings.
#[test]
fn divergence_component_names_are_pinned() {
    const PINNED: [&str; 19] = [
        "cycle",
        "fetch.pc",
        "fetch.seq",
        "fetch.stall",
        "exec.divider",
        "exec.in_flight",
        "exec.wb_ready",
        "rf",
        "rob",
        "iq",
        "lq",
        "sq",
        "decode_q",
        "uops",
        "bpred",
        "mem.l1i",
        "mem.l1d",
        "mem.l2",
        "mem",
    ];
    assert_eq!(Sim::DIVERGENCE_COMPONENTS, PINNED);

    // Live probes: freshly corrupted structures report the pinned names.
    let (machine, program) = &machines()[0];
    let mut golden = Sim::new(machine, program);
    assert!(golden.run_to_cycle(300).is_none());
    let mut child = golden.fork();
    child.flip_bit(Structure::L1DData, 0);
    assert_eq!(child.state_divergence(&golden), Some("mem.l1d"));
    // Tag bit 0 of the first L1I line that is valid at cycle 300.
    let l1i = &golden.mem.l1i;
    let per_line = l1i.tag_width() as u64 + 2;
    let live = (0..l1i.geometry().lines())
        .find(|&line| l1i.is_valid(line))
        .expect("the I-cache holds code by cycle 300");
    let mut child = golden.fork();
    child.flip_bit(Structure::L1ITag, live as u64 * per_line);
    assert_eq!(child.state_divergence(&golden), Some("mem.l1i"));
    let mut child = golden.fork();
    assert!(child.run_to_cycle(301).is_none());
    assert_eq!(child.state_divergence(&golden), Some("cycle"));

    // The walk itself: 32 cycles after an `iq.src` flip on A72 sha at O2,
    // the child differs on both sides of `rf`. `state_divergence` names the
    // first component in probe order; `divergent_components` lists every
    // one, in that order.
    let machine = MachineConfig::cortex_a72();
    let program = Compiler::new(machine.profile, OptLevel::O2)
        .compile(&Workload::Sha.source(Scale::Tiny))
        .expect("sha compiles")
        .program;
    let mut golden = Sim::new(&machine, &program);
    assert!(golden.run_to_cycle(15_968).is_none());
    let mut child = golden.fork();
    child.flip_bit(Structure::IqSrc, 132);
    assert_eq!(child.divergent_components(&golden), ["iq"]);
    assert!(golden.run_to_cycle(16_000).is_none());
    assert!(child.run_to_cycle(16_000).is_none());
    assert_eq!(
        child.divergent_components(&golden),
        [
            "exec.in_flight",
            "rf",
            "rob",
            "iq",
            "lq",
            "sq",
            "uops",
            "mem.l1d"
        ]
    );
    assert_eq!(child.state_divergence(&golden), Some("exec.in_flight"));
}

/// Dead state is not divergence: a flip in the tag, dirty bit or data of
/// an invalid cache line, or in the fields of a free issue-queue slot, is
/// rewritten before anything can read it, so the probe reports `None`
/// (and a recorded campaign classifies the fault Masked at the fork).
#[test]
fn flips_in_dead_lines_and_free_slots_report_no_divergence() {
    for (machine, program) in machines() {
        let mut golden = Sim::new(machine, program);
        assert!(golden.run_to_cycle(300).is_none());
        for (structure_tag, structure_data, cache) in [
            (Structure::L1ITag, Structure::L1IData, &golden.mem.l1i),
            (Structure::L1DTag, Structure::L1DData, &golden.mem.l1d),
            (Structure::L2Tag, Structure::L2Data, &golden.mem.l2),
        ] {
            let per_line = cache.tag_width() as u64 + 2;
            let line_bits = cache.geometry().line_bytes * 8;
            let dead = (0..cache.geometry().lines())
                .find(|&line| !cache.is_valid(line))
                .expect("some line is still invalid at cycle 300") as u64;
            for (structure, bit) in [
                (structure_tag, dead * per_line),
                (
                    structure_tag,
                    dead * per_line + cache.tag_width() as u64 - 1,
                ),
                // The dirty bit (the valid bit, one below it, is live).
                (
                    structure_tag,
                    dead * per_line + cache.tag_width() as u64 + 1,
                ),
                (structure_data, dead * line_bits),
                (structure_data, dead * line_bits + line_bits - 1),
            ] {
                let mut child = golden.fork();
                child.flip_bit(structure, bit);
                assert_eq!(
                    child.state_divergence(&golden),
                    None,
                    "{}: {structure} bit {bit} lies in invalid line {dead}",
                    machine.name
                );
            }
            // Setting the dead line's valid bit resurrects it: divergence.
            let mut child = golden.fork();
            child.flip_bit(structure_tag, dead * per_line + cache.tag_width() as u64);
            assert!(child.state_divergence(&golden).is_some());
        }
        let entries = golden.iq.capacity() as u64;
        let (src, dest) = (
            golden.bit_count(Structure::IqSrc) / entries,
            golden.bit_count(Structure::IqDest) / entries,
        );
        let free = (0..golden.iq.capacity())
            .find(|&slot| golden.iq.payload(slot).is_none())
            .expect("some IQ slot is free at cycle 300") as u64;
        // Source tags and ready bits, and the destination tag (the dest
        // field's last bit is the valid bit).
        for (structure, bit) in [
            (Structure::IqSrc, free * src),
            (Structure::IqSrc, free * src + 8),
            (Structure::IqSrc, free * src + src - 1),
            (Structure::IqDest, free * dest),
            (Structure::IqDest, free * dest + dest - 2),
        ] {
            let mut child = golden.fork();
            child.flip_bit(structure, bit);
            assert_eq!(
                child.state_divergence(&golden),
                None,
                "{}: {structure} bit {bit} lies in free IQ slot {free}",
                machine.name
            );
        }
        // The free slot's valid bit makes a ghost entry: divergence.
        let mut child = golden.fork();
        child.flip_bit(Structure::IqDest, free * dest + dest - 1);
        assert_eq!(child.state_divergence(&golden), Some("iq"));
    }
}
