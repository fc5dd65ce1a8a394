//! Differential validation of the cycle-level simulator against the
//! architectural reference emulator: for every workload, optimization
//! level, and machine, fault-free simulation must produce the same program
//! output and retire the same number of instructions.

use softerr_cc::{Compiler, OptLevel};
use softerr_isa::Emulator;
use softerr_sim::{MachineConfig, Sim, SimOutcome};
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
