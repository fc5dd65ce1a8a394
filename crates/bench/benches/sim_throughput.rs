//! Criterion benchmark: simulated cycles per second of the cycle-level
//! out-of-order model, per machine configuration (the substrate cost of
//! the whole study), plain (`fft_o1`) and instrumented for liveness the way
//! a cell whose plan reads liveness runs its golden program
//! (`fft_o1_liveness`: `Sim::new`, `enable_liveness`,
//! `attach_static_masks`, the run and `liveness_map`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use softerr::{Compiler, MachineConfig, OptLevel, Scale, Sim, SimOutcome, Workload};

fn bench_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_throughput");
    for machine in MachineConfig::paper_machines() {
        let compiled = Compiler::new(machine.profile, OptLevel::O1)
            .compile(&Workload::Fft.source(Scale::Tiny))
            .expect("compile");
        // Calibrate the cycle count once.
        let mut probe = Sim::new(&machine, &compiled.program);
        let SimOutcome::Halted { cycles, .. } = probe.run(1_000_000_000) else {
            panic!("probe failed");
        };
        group.throughput(Throughput::Elements(cycles));
        group.bench_with_input(
            BenchmarkId::new("fft_o1", &machine.name),
            &machine,
            |b, m| {
                b.iter(|| {
                    let mut sim = Sim::new(m, &compiled.program);
                    match sim.run(1_000_000_000) {
                        SimOutcome::Halted { cycles, .. } => cycles,
                        other => panic!("{other:?}"),
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("fft_o1_liveness", &machine.name),
            &machine,
            |b, m| {
                b.iter(|| {
                    let mut sim = Sim::new(m, &compiled.program);
                    sim.enable_liveness();
                    sim.attach_static_masks(&compiled.program);
                    match sim.run(1_000_000_000) {
                        SimOutcome::Halted { .. } => sim.liveness_map().expect("liveness on"),
                        other => panic!("{other:?}"),
                    }
                })
            },
        );
    }
    group.finish();
}

criterion_group! {name = benches; config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(4)).warm_up_time(std::time::Duration::from_secs(1)); targets = bench_sim}
criterion_main!(benches);
