//! Shows how ECC protection choices change the CPU failure rate across
//! optimization levels — a miniature of the paper's Fig. 12 analysis.
//!
//! ```sh
//! cargo run --release -p softerr --example ecc_tradeoff
//! ```

use softerr::{EccScheme, OptLevel, Orchestrator, SamplingPlan, StudyConfig, Table, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A one-workload study keeps this example fast; the `repro` harness in
    // softerr-bench runs the full grid.
    let config = StudyConfig {
        workloads: vec![Workload::Rijndael],
        plan: SamplingPlan::fixed(80),
        seed: 2024,
        ..StudyConfig::default()
    };
    println!("running {} injections...\n", config.total_injections());
    let results = Orchestrator::new(config).run()?;

    for machine in results.machine_names() {
        println!("== {machine}");
        let mut table = Table::new(vec![
            "ECC scheme".into(),
            "O0".into(),
            "O1".into(),
            "O2".into(),
            "O3".into(),
        ]);
        for ecc in EccScheme::ALL {
            let mut row = vec![ecc.to_string()];
            for level in OptLevel::ALL {
                row.push(format!(
                    "{:.2}",
                    results.cpu_fit(&machine, Workload::Rijndael, level, ecc)
                ));
            }
            table.row(row);
        }
        println!("{table}");
    }
    println!("FIT rates in failures per 10^9 device-hours; lower is better.");
    println!("With ECC on L1D+L2, the large cache arrays stop contributing");
    println!("and the pipeline structures dominate the failure rate.");
    Ok(())
}
