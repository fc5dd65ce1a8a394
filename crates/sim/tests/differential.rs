//! Differential validation of the cycle-level simulator against the
//! architectural reference emulator: for every workload, optimization
//! level, and machine, fault-free simulation must produce the same program
//! output and retire the same number of instructions.

use softerr_cc::{Compiler, OptLevel};
use softerr_isa::Emulator;
use softerr_sim::{MachineConfig, Sim, SimOutcome, SimStats};
use softerr_workloads::{Scale, Workload};

/// The paper machines, plus an A72 whose 100-entry issue queue spans two
/// bitset words, so the queue's multi-word paths see every workload
/// (blowfish at O2 and O3 fills it past 64 entries).
fn machines() -> Vec<MachineConfig> {
    let mut machines = MachineConfig::paper_machines();
    machines.push(MachineConfig {
        name: "A72 (100-entry IQ)".to_string(),
        iq_entries: 100,
        ..MachineConfig::cortex_a72()
    });
    machines
}

fn check_program(cfg: &MachineConfig, src: &str, level: OptLevel, what: &str) {
    let compiled = Compiler::new(cfg.profile, level)
        .compile(src)
        .unwrap_or_else(|e| panic!("{what}: compile failed: {e}"));
    let mut emu = Emulator::new(&compiled.program);
    let golden = emu.run(2_000_000_000).expect("emulator trapped");
    assert!(golden.completed, "{what}: emulator did not finish");

    let mut sim = Sim::new(cfg, &compiled.program);
    match sim.run(2_000_000_000) {
        SimOutcome::Halted {
            retired,
            output,
            cycles,
        } => {
            assert_eq!(output, golden.output, "{what}: output mismatch");
            assert_eq!(retired, golden.retired, "{what}: retired-count mismatch");
            assert!(cycles > 0);
        }
        other => panic!("{what}: simulator ended abnormally: {other:?}"),
    }
}

#[test]
fn simple_programs_match_emulator() {
    let cases = [
        "void main() { out(1 + 2 * 3); }",
        "void main() { int s = 0; for (int i = 0; i < 100; i = i + 1) s = s + i; out(s); }",
        "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
         void main() { out(fib(10)); }",
        // Store-to-load forwarding and memory traffic.
        "int g[64];
         void main() {
             for (int i = 0; i < 64; i = i + 1) g[i] = i * i;
             int s = 0;
             for (int i = 0; i < 64; i = i + 1) s = s + g[i];
             out(s);
         }",
        // Data-dependent branches (mispredict exercise).
        "void main() {
             int s = 0;
             for (int i = 0; i < 200; i = i + 1) {
                 if ((i * 7) % 3 == 0) s = s + i; else s = s - 1;
             }
             out(s);
         }",
        // u32 semantics through the pipeline.
        "void main() {
             u32 h = 0x89ABCDEF;
             for (int i = 0; i < 30; i = i + 1) h = (h << 3) ^ (h >> 5) ^ i;
             out(h);
         }",
        // Division (non-pipelined unit) and remainders.
        "void main() {
             int s = 0;
             for (int i = 1; i < 50; i = i + 1) s = s + 10000 / i + 10000 % i;
             out(s);
         }",
    ];
    for cfg in machines() {
        for (k, src) in cases.iter().enumerate() {
            for level in [OptLevel::O0, OptLevel::O2] {
                check_program(
                    &cfg,
                    src,
                    level,
                    &format!("case {k} on {} {level}", cfg.name),
                );
            }
        }
    }
}

#[test]
fn all_workloads_match_emulator_at_all_levels() {
    for cfg in machines() {
        for w in Workload::ALL {
            for level in OptLevel::ALL {
                check_program(
                    &cfg,
                    &w.source(Scale::Tiny),
                    level,
                    &format!("{w} on {} at {level}", cfg.name),
                );
            }
        }
    }
}

#[test]
fn deterministic_across_runs() {
    let cfg = MachineConfig::cortex_a72();
    let compiled = Compiler::new(cfg.profile, OptLevel::O2)
        .compile(&Workload::Qsort.source(Scale::Tiny))
        .unwrap();
    let run = || {
        let mut sim = Sim::new(&cfg, &compiled.program);
        let out = sim.run(100_000_000);
        (out, sim.stats())
    };
    let (o1, s1) = run();
    let (o2, s2) = run();
    assert_eq!(o1, o2);
    assert_eq!(s1, s2, "cycle-exact determinism is required for injection");
}

#[test]
fn sim_collects_meaningful_stats() {
    let cfg = MachineConfig::cortex_a15();
    let compiled = Compiler::new(cfg.profile, OptLevel::O1)
        .compile(&Workload::Dijkstra.source(Scale::Tiny))
        .unwrap();
    let mut sim = Sim::new(&cfg, &compiled.program);
    let out = sim.run(100_000_000);
    assert!(matches!(out, SimOutcome::Halted { .. }));
    let stats = sim.stats();
    assert!(
        stats.cycles > stats.retired / 6,
        "IPC cannot exceed machine width"
    );
    assert!(stats.l1i.0 > 0, "I-cache must see hits");
    assert!(stats.l1d.1 > 0, "cold D-misses must occur");
    assert!(stats.rob_occupancy_sum > 0);
}

#[test]
fn optimized_code_is_faster_in_cycles() {
    // The headline performance effect (paper Fig. 1): O2 beats O0 in wall
    // cycles on both machines for every workload.
    for cfg in machines() {
        for w in [Workload::Qsort, Workload::Sha, Workload::Dijkstra] {
            let src = w.source(Scale::Tiny);
            let cycles = |level: OptLevel| {
                let compiled = Compiler::new(cfg.profile, level).compile(&src).unwrap();
                let mut sim = Sim::new(&cfg, &compiled.program);
                match sim.run(2_000_000_000) {
                    SimOutcome::Halted { cycles, .. } => cycles,
                    other => panic!("{other:?}"),
                }
            };
            let (c0, c2) = (cycles(OptLevel::O0), cycles(OptLevel::O2));
            assert!(
                c2 < c0,
                "{w} on {}: O2 ({c2}) should beat O0 ({c0})",
                cfg.name
            );
        }
    }
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `counters()` of a pinned run: stall cycles, squash and branch counts,
/// and an FNV hash of every occupancy histogram's buckets.
#[derive(Debug, PartialEq)]
struct PinnedCounters {
    fetch_stall_cycles: u64,
    issue_stall_cycles: u64,
    commit_stall_cycles: u64,
    squashes: u64,
    squashed_uops: u64,
    branches: u64,
    mispredicts: u64,
    occupancy_fnv: u64,
}

/// Fault-free runs of the `grid-uniform` benchmark cells (qsort at O0 and
/// O2) and of the `sim_throughput` program (fft at O1) on both paper
/// machines, pinned field for field: the simulated statistics must not
/// move when the simulator's storage or speed changes.
#[test]
fn pinned_statistics_do_not_move() {
    #[rustfmt::skip]
    let pinned: [(Workload, OptLevel, &str, u64, SimStats, PinnedCounters); 6] = [
        (Workload::Qsort, OptLevel::O0, "Cortex-A15-like", 0xa61b_153b_940b_a0c4,
         SimStats { cycles: 11280, retired: 14635, mispredicts: 236, l1i: (19996, 15), l1d: (5480, 17), l2: (0, 32), rf_occupancy_sum: 382246, rf_reads: 20992, rf_writes: 13168, rob_occupancy_sum: 262147, iq_occupancy_sum: 99230, lq_occupancy_sum: 72408, sq_occupancy_sum: 19706 },
         PinnedCounters { fetch_stall_cycles: 2581, issue_stall_cycles: 813, commit_stall_cycles: 3722, squashes: 236, squashed_uops: 4564, branches: 2212, mispredicts: 236, occupancy_fnv: 0x9ed8_99c4_ecc9_6dd7 }),
        (Workload::Qsort, OptLevel::O0, "Cortex-A72-like", 0xa61b_153b_940b_a0c4,
         SimStats { cycles: 11504, retired: 14827, mispredicts: 236, l1i: (21389, 16), l1d: (5538, 20), l2: (0, 36), rf_occupancy_sum: 696482, rf_reads: 21857, rf_writes: 13805, rob_occupancy_sum: 410615, iq_occupancy_sum: 156583, lq_occupancy_sum: 94969, sq_occupancy_sum: 28856 },
         PinnedCounters { fetch_stall_cycles: 2967, issue_stall_cycles: 670, commit_stall_cycles: 3699, squashes: 236, squashed_uops: 5756, branches: 2212, mispredicts: 236, occupancy_fnv: 0x3e7b_3b08_79e6_b88b }),
        (Workload::Qsort, OptLevel::O2, "Cortex-A15-like", 0xa61b_153b_940b_a0c4,
         SimStats { cycles: 7908, retired: 12037, mispredicts: 218, l1i: (15574, 14), l1d: (4713, 17), l2: (0, 31), rf_occupancy_sum: 210077, rf_reads: 15394, rf_writes: 9248, rob_occupancy_sum: 116406, iq_occupancy_sum: 42821, lq_occupancy_sum: 30751, sq_occupancy_sum: 11541 },
         PinnedCounters { fetch_stall_cycles: 1690, issue_stall_cycles: 48, commit_stall_cycles: 1983, squashes: 218, squashed_uops: 2972, branches: 2282, mispredicts: 218, occupancy_fnv: 0x8930_9c6b_9282_2b6f }),
        (Workload::Qsort, OptLevel::O2, "Cortex-A72-like", 0xa61b_153b_940b_a0c4,
         SimStats { cycles: 7001, retired: 10158, mispredicts: 215, l1i: (12243, 12), l1d: (2714, 23), l2: (0, 35), rf_occupancy_sum: 346845, rf_reads: 12727, rf_writes: 7281, rob_occupancy_sum: 156978, iq_occupancy_sum: 51975, lq_occupancy_sum: 14670, sq_occupancy_sum: 9973 },
         PinnedCounters { fetch_stall_cycles: 1705, issue_stall_cycles: 77, commit_stall_cycles: 1659, squashes: 215, squashed_uops: 1608, branches: 2282, mispredicts: 215, occupancy_fnv: 0x696e_261d_84e0_87e3 }),
        (Workload::Fft, OptLevel::O1, "Cortex-A15-like", 0x956b_0eb5_af66_e9ad,
         SimStats { cycles: 10745, retired: 15438, mispredicts: 87, l1i: (17271, 25), l1d: (3444, 10), l2: (0, 35), rf_occupancy_sum: 417388, rf_reads: 21337, rf_writes: 14462, rob_occupancy_sum: 268806, iq_occupancy_sum: 99428, lq_occupancy_sum: 52779, sq_occupancy_sum: 13100 },
         PinnedCounters { fetch_stall_cycles: 3676, issue_stall_cycles: 1112, commit_stall_cycles: 3530, squashes: 87, squashed_uops: 1527, branches: 846, mispredicts: 87, occupancy_fnv: 0x5dea_5f26_0dae_0e9e }),
        (Workload::Fft, OptLevel::O1, "Cortex-A72-like", 0x956b_0eb5_af66_e9ad,
         SimStats { cycles: 7850, retired: 13714, mispredicts: 87, l1i: (14323, 23), l1d: (1460, 16), l2: (0, 39), rf_occupancy_sum: 475394, rf_reads: 18470, rf_writes: 12416, rob_occupancy_sum: 246776, iq_occupancy_sum: 72738, lq_occupancy_sum: 14806, sq_occupancy_sum: 9943 },
         PinnedCounters { fetch_stall_cycles: 2717, issue_stall_cycles: 359, commit_stall_cycles: 2129, squashes: 87, squashed_uops: 390, branches: 846, mispredicts: 87, occupancy_fnv: 0x33f5_073a_e65a_021f }),
    ];
    for (workload, level, machine, output_fnv, stats, counters) in pinned {
        let cfg = MachineConfig::paper_machines()
            .into_iter()
            .find(|m| m.name == machine)
            .expect("a paper machine");
        let what = format!("{workload} at {level} on {machine}");
        let compiled = Compiler::new(cfg.profile, level)
            .compile(&workload.source(Scale::Tiny))
            .unwrap();
        // Once on the plain stepping path, once with counters on.
        let mut plain = Sim::new(&cfg, &compiled.program);
        let mut counted = Sim::new(&cfg, &compiled.program);
        counted.enable_counters();
        for sim in [&mut plain, &mut counted] {
            let SimOutcome::Halted { output, .. } = sim.run(1_000_000_000) else {
                panic!("{what}: did not halt");
            };
            assert_eq!(fnv(output), output_fnv, "{what}: output");
            assert_eq!(sim.stats(), stats, "{what}: statistics");
        }
        let c = counted.counters().expect("counters enabled");
        let got = PinnedCounters {
            fetch_stall_cycles: c.fetch_stall_cycles,
            issue_stall_cycles: c.issue_stall_cycles,
            commit_stall_cycles: c.commit_stall_cycles,
            squashes: c.squashes,
            squashed_uops: c.squashed_uops,
            branches: c.branches,
            mispredicts: c.mispredicts,
            occupancy_fnv: fnv(c.occupancy.iter().flat_map(|h| h.counts.iter().copied())),
        };
        assert_eq!(got, counters, "{what}: counters");
    }
}
