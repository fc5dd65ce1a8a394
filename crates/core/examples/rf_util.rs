//! Compares RF utilization metrics and RF AVF across levels (diagnostic).
use softerr::{CampaignConfig, Injector, SamplingPlan};
use softerr::{Compiler, OptLevel};
use softerr::{MachineConfig, Sim, SimOutcome, Structure};
use softerr::{Scale, Workload};

fn main() {
    for w in [
        Workload::Blowfish,
        Workload::Dijkstra,
        Workload::Sha,
        Workload::Qsort,
    ] {
        for cfg in MachineConfig::paper_machines() {
            print!("{:9} {:16}", w.name(), cfg.name);
            for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
                let c = Compiler::new(cfg.profile, level)
                    .compile(&w.source(Scale::Tiny))
                    .unwrap();
                let mut sim = Sim::new(&cfg, &c.program);
                sim.enable_counters();
                let SimOutcome::Halted { cycles, .. } = sim.run(1_000_000_000) else {
                    panic!()
                };
                let st = sim.counters().expect("counters enabled");
                let inj = Injector::new(&cfg, &c.program).unwrap();
                let camp = inj
                    .run(
                        Structure::RegFile,
                        &CampaignConfig {
                            plan: SamplingPlan::fixed(250),
                            seed: 9,
                            ..CampaignConfig::default()
                        },
                    )
                    .execute()
                    .result;
                print!(
                    "  {level}: rd/c {:.2} avf {:.3}",
                    st.rf_reads as f64 / cycles as f64,
                    camp.avf()
                );
            }
            println!();
        }
    }
}
