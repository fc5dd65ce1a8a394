//! The two predicates an injection campaign uses to decide a fault without
//! simulating it, checked against the simulation they stand in for:
//!
//! * [`Sim::bit_is_dead`] must equal "fork, flip the bit, compare with
//!   [`Sim::state_eq`]" on every structure, both ways round, so the
//!   per-structure dead-bit rules cannot drift from the relaxations their
//!   `state_eq` applies;
//! * [`Sim::is_fixed_point`] must never fire on a running fault-free
//!   machine, which always makes progress;
//! * [`Sim::delta`] must be empty exactly when [`Sim::state_eq`] holds, and
//!   while the golden machine's watch ([`Sim::watch`]) sees no read, a
//!   faulted child stepped alongside it must stay inside its delta, apart
//!   from registers that were free (dead) when the watch was set and are
//!   now allocated but not yet written: the argument that lets the convoy
//!   stop stepping a parked child.

use proptest::prelude::*;
use softerr_cc::{Compiler, OptLevel};
use softerr_isa::Program;
use softerr_sim::{Cache, MachineConfig, Sim, SimOutcome, StateDelta, Structure};
use softerr_workloads::{Scale, Workload};
use std::sync::OnceLock;

/// Qsort at O1 on each paper machine, with its golden cycle count.
fn machines() -> &'static Vec<(MachineConfig, Program, u64)> {
    static CELL: OnceLock<Vec<(MachineConfig, Program, u64)>> = OnceLock::new();
    CELL.get_or_init(|| {
        MachineConfig::paper_machines()
            .into_iter()
            .map(|m| {
                let program = Compiler::new(m.profile, OptLevel::O1)
                    .compile(&Workload::Qsort.source(Scale::Tiny))
                    .expect("qsort compiles")
                    .program;
                let cycles = match Sim::new(&m, &program).run(u64::MAX) {
                    SimOutcome::Halted { cycles, .. } => cycles,
                    other => panic!("golden run ended {other:?}"),
                };
                (m, program, cycles)
            })
            .collect()
    })
}

/// The cache behind a cache structure, and whether the structure is its
/// tag array.
fn cache_of(sim: &Sim, s: Structure) -> Option<(&Cache, bool)> {
    match s {
        Structure::L1IData => Some((&sim.mem.l1i, false)),
        Structure::L1ITag => Some((&sim.mem.l1i, true)),
        Structure::L1DData => Some((&sim.mem.l1d, false)),
        Structure::L1DTag => Some((&sim.mem.l1d, true)),
        Structure::L2Data => Some((&sim.mem.l2, false)),
        Structure::L2Tag => Some((&sim.mem.l2, true)),
        _ => None,
    }
}

/// Bits worth probing in `s`: `random` draws spread over the structure,
/// plus, in a cache, the first and last tag, valid, dirty and data bits of
/// the first valid and the first invalid line (uniform draws over a
/// megabyte array rarely land in its few valid lines).
fn probe_bits(sim: &Sim, s: Structure, random: &[u64]) -> Vec<u64> {
    let bits = sim.bit_count(s);
    let mut probes: Vec<u64> = random.iter().map(|r| r % bits).collect();
    if let Some((cache, tag)) = cache_of(sim, s) {
        let lines = cache.geometry().lines();
        let per_line = if tag {
            cache.tag_width() as u64 + 2
        } else {
            cache.geometry().line_bytes * 8
        };
        for valid in [true, false] {
            if let Some(line) = (0..lines).find(|&l| cache.is_valid(l) == valid) {
                let base = line as u64 * per_line;
                probes.extend([base, base + per_line - 2, base + per_line - 1]);
            }
        }
    }
    probes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bit_is_dead_equals_flip_then_state_eq(
        a72 in any::<bool>(),
        at in 0.0f64..1.0,
        random in prop::collection::vec(any::<u64>(), 24),
    ) {
        let (machine, program, cycles) = &machines()[usize::from(a72)];
        let mut golden = Sim::new(machine, program);
        let cycle = (at * *cycles as f64) as u64;
        prop_assert!(golden.run_to_cycle(cycle).is_none());
        for s in Structure::ALL {
            for bit in probe_bits(&golden, s, &random) {
                let mut child = golden.fork();
                child.flip_bit(s, bit);
                prop_assert_eq!(
                    golden.bit_is_dead(s, bit),
                    child.state_eq(&golden) && golden.state_eq(&child),
                    "{} at cycle {}: {} bit {}",
                    machine.name, cycle, s, bit
                );
            }
        }
    }
}

/// Whether `child`'s delta against `golden` is empty exactly when the two
/// are `state_eq`.
fn delta_matches_state_eq(child: &Sim, golden: &Sim) -> bool {
    child.delta(golden).is_some_and(|d| d.is_empty()) == child.state_eq(golden)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn unread_deltas_only_shrink_in_lockstep(
        a72 in any::<bool>(),
        // Early enough that the warm-up never reaches the halt.
        at in 0.0f64..0.9,
        random in prop::collection::vec(any::<u64>(), 2),
        warm in 0u64..48,
        n in 1u64..300,
    ) {
        let (machine, program, cycles) = &machines()[usize::from(a72)];
        let mut start = Sim::new(machine, program);
        let cycle = (at * *cycles as f64) as u64;
        prop_assert!(start.run_to_cycle(cycle).is_none());
        let mut parked = 0;
        for s in Structure::ALL {
            for bit in probe_bits(&start, s, &random) {
                let mut golden = start.fork();
                let mut child = golden.fork();
                child.flip_bit(s, bit);
                prop_assert!(delta_matches_state_eq(&child, &golden), "{} {} bit {}", machine.name, s, bit);
                // A few lockstep cycles first, so the child is seen both at
                // the flip and after it spread.
                let mut live = golden.run_to_cycle(cycle + warm).is_none()
                    && child.run_to_cycle(cycle + warm).is_none();
                let Some(delta) = child.delta(&golden).filter(|_| live) else {
                    continue;
                };
                prop_assert!(delta_matches_state_eq(&child, &golden));
                parked += usize::from(!delta.is_empty());
                golden.watch(&delta);
                let free: Vec<bool> = (0..golden.rf.nphys())
                    .map(|r| golden.rf.is_free_reg(r as u8))
                    .collect();
                for _ in 0..n {
                    let next = golden.cycle() + 1;
                    live = golden.run_to_cycle(next).is_none() && child.run_to_cycle(next).is_none();
                    if !live || !golden.take_watch_hits().is_empty() {
                        break;
                    }
                    let now = child.delta(&golden);
                    // Allocation does not rewrite a register; the writeback
                    // that does comes before any read.
                    let inside = |d: &StateDelta| {
                        d.sets.iter().zip(&delta.sets).all(|(a, b)| a.is_subset(b))
                            && d.regs.iter().all(|r| {
                                delta.regs.contains(r)
                                    || (free[r] && !golden.rf.is_ready(r as u8))
                            })
                    };
                    prop_assert!(
                        now.as_ref().is_some_and(inside),
                        "{} {} bit {} at cycle {}: {:?} left {:?}",
                        machine.name, s, bit, golden.cycle(), now, delta
                    );
                    prop_assert!(delta_matches_state_eq(&child, &golden));
                }
            }
        }
        prop_assert!(parked > 0, "some probe leaves a non-empty delta");
    }
}

/// A forked machine carries no watch: hits are the golden run's alone.
#[test]
fn forks_do_not_inherit_the_watch() {
    let (machine, program, _) = &machines()[0];
    let mut golden = Sim::new(machine, program);
    let mut all = StateDelta::default();
    for reg in 0..machine.phys_regs {
        all.regs.insert(reg);
    }
    golden.watch(&all);
    let mut child = golden.fork();
    assert!(golden.run_to_cycle(200).is_none() && child.run_to_cycle(200).is_none());
    assert!(
        !golden.take_watch_hits().regs.is_empty(),
        "the golden run reads registers"
    );
    assert!(child.take_watch_hits().is_empty());
    assert!(child.state_eq(&golden), "the watch is not machine state");
}

/// A fault-free run retires, fetches or counts down something every cycle
/// until it halts, so it is never at a fixed point.
#[test]
fn golden_runs_are_never_at_a_fixed_point() {
    for (machine, program, cycles) in machines() {
        let mut sim = Sim::new(machine, program);
        let mut probes = 0;
        while sim.cycle() + 97 < *cycles {
            assert!(sim.run_to_cycle(sim.cycle() + 97).is_none());
            assert!(
                !sim.is_fixed_point(),
                "{} at cycle {}",
                machine.name,
                sim.cycle()
            );
            probes += 1;
        }
        assert!(probes > 10, "{}: {probes} probes", machine.name);
    }
}
