//! Differential validation of the cycle-level simulator against the
//! architectural reference emulator: for every workload, optimization
//! level, and machine, fault-free simulation must produce the same program
//! output and retire the same number of instructions.

use softerr_cc::{Compiler, OptLevel};
use softerr_isa::Emulator;
use softerr_sim::{MachineConfig, Sim, SimOutcome, Structure};
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
        sim.enable_counters();
        let out = sim.run(100_000_000);
        (out, sim.counters())
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
    sim.enable_counters();
    let out = sim.run(100_000_000);
    assert!(matches!(out, SimOutcome::Halted { .. }));
    let c = sim.counters().expect("counters enabled");
    assert!(
        c.cycles > c.committed / 6,
        "IPC cannot exceed machine width"
    );
    assert!(c.l1i.0 > 0, "I-cache must see hits");
    assert!(c.l1d.1 > 0, "cold D-misses must occur");
    assert!(c.occupancy[1].mean() > 0.0, "the ROB must hold work");
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

/// `counters()` of a pinned run: cycles, retired instructions,
/// mispredicts, cache (hits, misses), register-file port traffic, each
/// structure's occupancy summed over cycles (the histogram's weighted sum),
/// stall cycles, squashed micro-ops and branches, and an FNV hash of every
/// occupancy histogram's buckets.
#[derive(Debug, PartialEq)]
struct PinnedCounters {
    cycles: u64,
    committed: u64,
    mispredicts: u64,
    l1i: (u64, u64),
    l1d: (u64, u64),
    l2: (u64, u64),
    rf_reads: u64,
    rf_writes: u64,
    /// Regfile, ROB, IQ, LQ, SQ.
    occupancy_sums: [u64; 5],
    fetch_stall_cycles: u64,
    issue_stall_cycles: u64,
    commit_stall_cycles: u64,
    squashed_uops: u64,
    branches: u64,
    occupancy_fnv: u64,
}

/// Fault-free runs of the `grid-uniform` benchmark cells (qsort at O0 and
/// O2) and of the `sim_throughput` program (fft at O1) on both paper
/// machines, pinned field for field: the simulated statistics must not
/// move when the simulator's storage or speed changes. The plain stepping
/// path, which counts nothing, must run the counted run's machine.
#[test]
fn pinned_statistics_do_not_move() {
    #[rustfmt::skip]
    let pinned: [(Workload, OptLevel, &str, u64, PinnedCounters); 6] = [
        (Workload::Qsort, OptLevel::O0, "Cortex-A15-like", 0xa61b_153b_940b_a0c4,
         PinnedCounters { cycles: 11280, committed: 14635, mispredicts: 236, l1i: (19996, 15), l1d: (5480, 17), l2: (0, 32), rf_reads: 20992, rf_writes: 13168, occupancy_sums: [382246, 262147, 99230, 72408, 19706], fetch_stall_cycles: 2581, issue_stall_cycles: 813, commit_stall_cycles: 3722, squashed_uops: 4564, branches: 2212, occupancy_fnv: 0x9ed8_99c4_ecc9_6dd7 }),
        (Workload::Qsort, OptLevel::O0, "Cortex-A72-like", 0xa61b_153b_940b_a0c4,
         PinnedCounters { cycles: 11504, committed: 14827, mispredicts: 236, l1i: (21389, 16), l1d: (5538, 20), l2: (0, 36), rf_reads: 21857, rf_writes: 13805, occupancy_sums: [696482, 410615, 156583, 94969, 28856], fetch_stall_cycles: 2967, issue_stall_cycles: 670, commit_stall_cycles: 3699, squashed_uops: 5756, branches: 2212, occupancy_fnv: 0x3e7b_3b08_79e6_b88b }),
        (Workload::Qsort, OptLevel::O2, "Cortex-A15-like", 0xa61b_153b_940b_a0c4,
         PinnedCounters { cycles: 7908, committed: 12037, mispredicts: 218, l1i: (15574, 14), l1d: (4713, 17), l2: (0, 31), rf_reads: 15394, rf_writes: 9248, occupancy_sums: [210077, 116406, 42821, 30751, 11541], fetch_stall_cycles: 1690, issue_stall_cycles: 48, commit_stall_cycles: 1983, squashed_uops: 2972, branches: 2282, occupancy_fnv: 0x8930_9c6b_9282_2b6f }),
        (Workload::Qsort, OptLevel::O2, "Cortex-A72-like", 0xa61b_153b_940b_a0c4,
         PinnedCounters { cycles: 7001, committed: 10158, mispredicts: 215, l1i: (12243, 12), l1d: (2714, 23), l2: (0, 35), rf_reads: 12727, rf_writes: 7281, occupancy_sums: [346845, 156978, 51975, 14670, 9973], fetch_stall_cycles: 1705, issue_stall_cycles: 77, commit_stall_cycles: 1659, squashed_uops: 1608, branches: 2282, occupancy_fnv: 0x696e_261d_84e0_87e3 }),
        (Workload::Fft, OptLevel::O1, "Cortex-A15-like", 0x956b_0eb5_af66_e9ad,
         PinnedCounters { cycles: 10745, committed: 15438, mispredicts: 87, l1i: (17271, 25), l1d: (3444, 10), l2: (0, 35), rf_reads: 21337, rf_writes: 14462, occupancy_sums: [417388, 268806, 99428, 52779, 13100], fetch_stall_cycles: 3676, issue_stall_cycles: 1112, commit_stall_cycles: 3530, squashed_uops: 1527, branches: 846, occupancy_fnv: 0x5dea_5f26_0dae_0e9e }),
        (Workload::Fft, OptLevel::O1, "Cortex-A72-like", 0x956b_0eb5_af66_e9ad,
         PinnedCounters { cycles: 7850, committed: 13714, mispredicts: 87, l1i: (14323, 23), l1d: (1460, 16), l2: (0, 39), rf_reads: 18470, rf_writes: 12416, occupancy_sums: [475394, 246776, 72738, 14806, 9943], fetch_stall_cycles: 2717, issue_stall_cycles: 359, commit_stall_cycles: 2129, squashed_uops: 390, branches: 846, occupancy_fnv: 0x33f5_073a_e65a_021f }),
    ];
    for (workload, level, machine, output_fnv, counters) in pinned {
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
        }
        assert_eq!(
            (plain.cycle(), plain.retired()),
            (counted.cycle(), counted.retired()),
            "{what}: cycles and retired"
        );
        let hits_and_misses = |sim: &Sim| {
            [&sim.mem.l1i, &sim.mem.l1d, &sim.mem.l2].map(|cache| (cache.hits, cache.misses))
        };
        assert_eq!(
            hits_and_misses(&plain),
            hits_and_misses(&counted),
            "{what}: cache hits and misses"
        );
        assert!(plain.state_eq(&counted), "{what}: machine state");
        let c = counted.counters().expect("counters enabled");
        let got = PinnedCounters {
            cycles: c.cycles,
            committed: c.committed,
            mispredicts: c.mispredicts,
            l1i: c.l1i,
            l1d: c.l1d,
            l2: c.l2,
            rf_reads: c.rf_reads,
            rf_writes: c.rf_writes,
            occupancy_sums: std::array::from_fn(|i| {
                let counts = &c.occupancy[i].counts;
                (0..counts.len() as u64)
                    .zip(counts)
                    .map(|(k, n)| k * n)
                    .sum()
            }),
            fetch_stall_cycles: c.fetch_stall_cycles,
            issue_stall_cycles: c.issue_stall_cycles,
            commit_stall_cycles: c.commit_stall_cycles,
            squashed_uops: c.squashed_uops,
            branches: c.branches,
            occupancy_fnv: fnv(c.occupancy.iter().flat_map(|h| h.counts.iter().copied())),
        };
        assert_eq!(got, counters, "{what}: counters");
    }
}

/// Entries of `structure` on `cfg`: the index range
/// [`softerr_sim::StructureLiveness::entry_windows`] answers for.
fn entries(cfg: &MachineConfig, structure: Structure) -> usize {
    match structure {
        Structure::L1IData | Structure::L1ITag => cfg.l1i.lines(),
        Structure::L1DData | Structure::L1DTag => cfg.l1d.lines(),
        Structure::L2Data | Structure::L2Tag => cfg.l2.lines(),
        Structure::RegFile => cfg.phys_regs,
        Structure::LoadQueue => cfg.lq_entries,
        Structure::StoreQueue => cfg.sq_entries,
        Structure::IqSrc | Structure::IqDest => cfg.iq_entries,
        Structure::RobPc | Structure::RobDest | Structure::RobSeq | Structure::RobFlags => {
            cfg.rob_entries
        }
    }
}

/// Liveness outputs of one pinned run, one slot per [`Structure::ALL`]
/// entry: an FNV hash of every entry's danger windows (entry index, window
/// count, then each window's bounds), the exact vulnerable-site count over
/// the run, and the residency report's live-bit-cycles.
#[derive(Debug, PartialEq)]
struct PinnedLiveness {
    windows_fnv: [u64; 15],
    sites: [u64; 15],
    live_bit_cycles: [u64; 15],
}

/// The liveness map, site counts and residency totals of the pinned runs
/// of [`pinned_statistics_do_not_move`], recorded with static masks
/// attached as campaigns record them: how the windows are stored may
/// change, what they say may not.
#[test]
fn pinned_liveness_does_not_move() {
    #[rustfmt::skip]
    let pinned: [(Workload, OptLevel, &str, PinnedLiveness); 6] = [
        (Workload::Qsort, OptLevel::O0, "Cortex-A15-like", PinnedLiveness {
            windows_fnv: [0xee89ff4aa75c4cdd, 0x055ceae2fe1b6023, 0x8b9e4aced020fea9, 0xebb27cd982c52be5, 0xf359ceb578c82e49, 0x06ceabab79859977, 0x440662f008313f04, 0xb3c4c04195d2c020, 0x1a020f77d8447ec2, 0xf1c5ba371d8bd878, 0xf1c5ba371d8bd878, 0x2bd014dbe758fbba, 0x2bd014dbe758fbba, 0x2bd014dbe758fbba, 0x2bd014dbe758fbba],
            sites: [51195392, 8234929, 53036032, 8367131, 16384, 189065280, 2212096, 2484352, 679680, 1913490, 1211400, 8877824, 5826072, 4438912, 2219456],
            live_bit_cycles: [51187712, 1999520, 53027328, 2071380, 0, 0, 1791840, 1881152, 567904, 1634346, 817173, 6919168, 3477180, 3459584, 1729792] }),
        (Workload::Qsort, OptLevel::O0, "Cortex-A72-like", PinnedLiveness {
            windows_fnv: [0xad25e9d982231254, 0x5cfbcbe15335c171, 0x95ddb4292ea2b294, 0x0b601c1f107c7a76, 0x8f0d19350baae8b9, 0x8e011f76353e7d7a, 0x0ca7bcc5390ed35a, 0x0202e23be108276c, 0x842e738021c6ef83, 0xde7376b6845f7db5, 0xde7376b6845f7db5, 0x6c94e2d278e1c83c, 0x6c94e2d278e1c83c, 0x6c94e2d278e1c83c, 0x6c94e2d278e1c83c],
            sites: [57773056, 11458364, 69030400, 9102017, 18432, 381876976, 5761634, 6386688, 1954176, 2951640, 2048096, 27516864, 9028971, 6879216, 3439608],
            live_bit_cycles: [57764864, 2256440, 69020160, 2696100, 0, 0, 4890112, 4814080, 1588544, 2514222, 1257111, 21712960, 5685225, 5428240, 2714120] }),
        (Workload::Qsort, OptLevel::O2, "Cortex-A15-like", PinnedLiveness {
            windows_fnv: [0x8456bed3776528d6, 0x2fb1576219d47ba4, 0xacd1e196388dfd85, 0x74d03a243ace0091, 0xa49fef34f4335568, 0xca9202a32bcfed1c, 0xa2114a082734e51a, 0xe9aa5c19678d70c1, 0xe784e32b9ec85604, 0xd1c7fb4cc6b77cb5, 0xd1c7fb4cc6b77cb5, 0xa2bfd809aeabc45b, 0xa2bfd809aeabc45b, 0xa2bfd809aeabc45b, 0xa2bfd809aeabc45b],
            sites: [32709120, 5641799, 36076544, 5804154, 15872, 132384176, 1694795, 1136384, 415008, 843984, 628160, 4185536, 2746758, 2092768, 1046384],
            live_bit_cycles: [32701952, 1277420, 36067840, 1408900, 0, 0, 1401632, 835616, 348640, 710856, 355428, 3348800, 1577772, 1674400, 837200] }),
        (Workload::Qsort, OptLevel::O2, "Cortex-A72-like", PinnedLiveness {
            windows_fnv: [0x11ab2c7ee0eb9cd4, 0x13720e29adee0021, 0x1b1c4b48ed8b3551, 0x79290423d7a91ad0, 0x82422bbc9bdaa12c, 0x7aa8b4bd373ae6cc, 0xfce89477f40d719b, 0x8d5d89335f41dce3, 0xe2fdcc3abc3023ff, 0xd5d98ed0a0474b63, 0xd5d98ed0a0474b63, 0x9e0674eee02f36fc, 0x9e0674eee02f36fc, 0x9e0674eee02f36fc, 0x9e0674eee02f36fc],
            sites: [26599936, 6671941, 41874944, 5657602, 17920, 232245200, 5219259, 1056192, 710016, 993942, 889816, 10755264, 3529071, 2688816, 1344408],
            live_bit_cycles: [26593792, 1038820, 41863168, 1635280, 0, 0, 4760896, 901184, 633216, 914130, 457065, 9755392, 2515842, 2438848, 1219424] }),
        (Workload::Fft, OptLevel::O1, "Cortex-A15-like", PinnedLiveness {
            windows_fnv: [0x11aabab2bb1f760e, 0xd42a8473a9019b11, 0xd96d182dc5b1f076, 0x431c79c571da73bf, 0x1011d58bde5fc9e0, 0x6a204d04c4ea9c1b, 0x9fb771f9be9f55ce, 0x91cbc8d94dc86f97, 0x122a3299ea6513d4, 0xde41c2b13e36ab6c, 0xde41c2b13e36ab6c, 0x45ea9f6d2a627939, 0x45ea9f6d2a627939, 0x45ea9f6d2a627939, 0x45ea9f6d2a627939],
            sites: [64642048, 9332296, 37749760, 7280467, 17920, 180770192, 2705980, 1785376, 443552, 1897866, 1187336, 9035200, 5929350, 4517600, 2258800],
            live_bit_cycles: [64629248, 2524580, 37744640, 1474400, 0, 0, 2247008, 1527616, 410048, 1706634, 853317, 8076960, 4820781, 4038480, 2019240] }),
        (Workload::Fft, OptLevel::O1, "Cortex-A72-like", PinnedLiveness {
            windows_fnv: [0xf1e9845356e092bb, 0x88b5ac9679719925, 0x880750057911ecc4, 0x63e6e62bb57eeeae, 0xff8bc19a3f1b4528, 0x67cfd9fc59500786, 0x314b5185a23cf8f7, 0x84cc3935700c473f, 0x7896a9d23c957d75, 0x1836071c44f61031, 0x1836071c44f61031, 0x2c4e38d6a2a1da58, 0x2c4e38d6a2a1da58, 0x2c4e38d6a2a1da58, 0x2c4e38d6a2a1da58],
            sites: [38652928, 8472580, 44862464, 5892429, 19968, 260864176, 6343644, 1011520, 667392, 1365300, 1109200, 16675904, 5471781, 4168976, 2084488],
            live_bit_cycles: [38641152, 1509420, 44854272, 1752120, 0, 0, 5562240, 947072, 636352, 1302948, 651474, 15755968, 4699170, 3938992, 1969496] }),
    ];
    for (workload, level, machine, want) in pinned {
        let cfg = MachineConfig::paper_machines()
            .into_iter()
            .find(|m| m.name == machine)
            .expect("a paper machine");
        let what = format!("{workload} at {level} on {machine}");
        let compiled = Compiler::new(cfg.profile, level)
            .compile(&workload.source(Scale::Tiny))
            .unwrap();
        let mut sim = Sim::new(&cfg, &compiled.program);
        sim.enable_liveness();
        sim.attach_static_masks(&compiled.program);
        let SimOutcome::Halted { cycles, .. } = sim.run(1_000_000_000) else {
            panic!("{what}: did not halt");
        };
        let map = sim.liveness_map().expect("liveness enabled");
        let report = sim.residency_report().expect("residency enabled");
        let mut got = PinnedLiveness {
            windows_fnv: [0; 15],
            sites: [0; 15],
            live_bit_cycles: [0; 15],
        };
        for (i, &s) in Structure::ALL.iter().enumerate() {
            let sl = map.structure(s).expect("every structure is tracked");
            got.windows_fnv[i] = fnv((0..entries(&cfg, s)).flat_map(|e| {
                let ws = sl.entry_windows(e);
                [e as u64, ws.len() as u64]
                    .into_iter()
                    .chain(ws.iter().flat_map(|w| [w.start, w.end]))
                    .collect::<Vec<u64>>()
            }));
            got.sites[i] = sl.vulnerable_site_count(cycles);
            assert_eq!(report.structures[i].structure, s, "{what}: report order");
            got.live_bit_cycles[i] = report.structures[i].live_bit_cycles;
        }
        assert_eq!(got, want, "{what}: liveness");
    }
}
