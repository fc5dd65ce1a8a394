//! Equivalence net for the `SamplerKind` / `SamplingPlan` redesign.
//!
//! Three properties, on both paper machines, for arbitrary seeds:
//!
//! 1. **Uniform is the historical path** — a campaign run under the
//!    default uniform plan produces class tallies, per-fault verdicts, and
//!    records bit-identical across 1-, 2-, and 5-worker pools; the drawn
//!    sample is exactly [`SamplerKind::sample`]'s output and a prefix of
//!    any larger sample from the same seed; every record carries weight 1.0
//!    and serializes *without* a `weight` key, so uniform JSONL output is
//!    byte-identical to the pre-redesign format.
//! 2. **Importance agrees with uniform** — on liveness-tracked structures,
//!    the Horvitz–Thompson-reweighted AVF estimate lands within the two
//!    campaigns' combined 99% margins of the uniform estimate.
//! 3. **Weights are pure functions of the golden run** — every importance
//!    record carries the same weight, equal to the sampler's
//!    live-and-demanded population fraction, regardless of thread count.

use proptest::prelude::*;
use softerr::{
    CampaignConfig, Compiler, Injector, MachineConfig, OptLevel, Program, SamplerKind,
    SamplingPlan, Scale, Structure, Workload,
};
use std::sync::OnceLock;

fn machines() -> &'static Vec<(MachineConfig, Program)> {
    static CELL: OnceLock<Vec<(MachineConfig, Program)>> = OnceLock::new();
    CELL.get_or_init(|| {
        MachineConfig::paper_machines()
            .into_iter()
            .map(|m| {
                let program = Compiler::new(m.profile, OptLevel::O1)
                    .compile(&Workload::Qsort.source(Scale::Tiny))
                    .expect("workload compiles")
                    .program;
                (m, program)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn uniform_plan_is_bit_identical_across_pools(
        seed in any::<u64>(),
        s in 0usize..15,
        n in 1u64..60,
    ) {
        let structure = Structure::ALL[s];
        for (machine, program) in machines() {
            let injector = Injector::new(machine, program).expect("golden run");
            // The plan's drawn sample is exactly the raw sampler's output,
            // and a smaller sample is a prefix of a larger one.
            let uniform = SamplerKind::Uniform;
            let sample = uniform.sample(&injector, structure, n, seed);
            prop_assert_eq!(&sample, &injector.sample_faults(structure, n, seed));
            let half = uniform.sample(&injector, structure, n / 2, seed);
            prop_assert_eq!(&sample[..half.len()], half.as_slice());
            prop_assert_eq!(uniform.weight(&injector, structure), 1.0);

            let cfg = CampaignConfig {
                plan: SamplingPlan::fixed(n),
                seed,
                ..CampaignConfig::default()
            };
            let base = injector.run(structure, &cfg).records(true).execute();
            for threads in [2usize, 5] {
                let pooled = injector
                    .run(structure, &CampaignConfig { threads, ..cfg })
                    .records(true)
                    .execute();
                prop_assert_eq!(&base.result, &pooled.result);
                prop_assert_eq!(&base.classes, &pooled.classes);
                prop_assert_eq!(&base.records, &pooled.records);
            }
            for record in base.records.as_deref().expect("records were requested") {
                prop_assert_eq!(record.weight, 1.0);
                let json = serde_json::to_string(record).expect("serialize");
                prop_assert!(
                    !json.contains("\"weight\""),
                    "uniform record must serialize without a weight key: {}",
                    json
                );
            }
        }
    }

    /// The reweighted importance estimate must agree with the uniform one
    /// within the two campaigns' combined 99% margins, on both a dense
    /// structure (the register file) and a sparse one (the L1I data array).
    #[test]
    fn importance_estimate_agrees_with_uniform(seed in any::<u64>()) {
        for (machine, program) in machines() {
            let injector = Injector::new(machine, program).expect("golden run");
            for structure in [Structure::RegFile, Structure::L1IData] {
                let uniform_cfg = CampaignConfig {
                    plan: SamplingPlan::adaptive(0.12, 25),
                    seed,
                    ..CampaignConfig::default()
                };
                let importance_cfg = CampaignConfig {
                    plan: uniform_cfg.plan.sampler(SamplerKind::Importance),
                    ..uniform_cfg
                };
                let uniform = injector.run(structure, &uniform_cfg).execute().result;
                let importance = injector.run(structure, &importance_cfg).execute().result;
                let diff = (uniform.avf() - importance.avf()).abs();
                let allowed = uniform.margin_99() + importance.margin_99();
                prop_assert!(
                    diff <= allowed,
                    "{}/{}: importance AVF {:.4} vs uniform {:.4} differ by {:.4} > {:.4} (seed {})",
                    machine.name, structure, importance.avf(), uniform.avf(), diff, allowed, seed
                );
            }
        }
    }

    /// Importance weights depend only on the golden run: every record in a
    /// campaign carries the sampler's population fraction, identically
    /// across thread pools.
    #[test]
    fn importance_weights_are_thread_independent(seed in any::<u64>()) {
        for (machine, program) in machines() {
            let injector = Injector::new(machine, program).expect("golden run");
            let structure = Structure::RegFile;
            let expected = SamplerKind::Importance.weight(&injector, structure);
            let mut runs = Vec::new();
            for threads in [1usize, 2, 5] {
                let cfg = CampaignConfig {
                    plan: SamplingPlan::fixed(40).sampler(SamplerKind::Importance),
                    seed,
                    threads,
                    ..CampaignConfig::default()
                };
                let out = injector.run(structure, &cfg).records(true).execute();
                prop_assert_eq!(out.result.weight, expected);
                for record in out.records.as_deref().expect("records were requested") {
                    prop_assert_eq!(
                        record.weight, expected,
                        "{}: record weight must equal the sampler weight (seed {})",
                        machine.name, seed
                    );
                }
                runs.push(out);
            }
            for pooled in &runs[1..] {
                prop_assert_eq!(&runs[0].result, &pooled.result);
                prop_assert_eq!(&runs[0].records, &pooled.records);
            }
        }
    }
}
