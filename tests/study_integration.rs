//! Integration tests of the full study pipeline through the `softerr`
//! facade: grid execution, metric invariants, and result persistence.

use softerr::{
    EccScheme, FaultClass, OptLevel, Orchestrator, SamplingPlan, Scale, Structure, StudyConfig,
    StudyResults, Workload,
};
use std::sync::Mutex;

/// One shared study for the whole test binary (campaigns are expensive).
fn small_study() -> &'static StudyResults {
    use std::sync::OnceLock;
    static RESULTS: OnceLock<StudyResults> = OnceLock::new();
    RESULTS.get_or_init(|| {
        let config = StudyConfig {
            workloads: vec![Workload::Qsort, Workload::Fft],
            levels: vec![OptLevel::O0, OptLevel::O2],
            scale: Scale::Tiny,
            plan: SamplingPlan::fixed(30),
            seed: 1234,
            threads: 1,
            ..StudyConfig::default()
        };
        Orchestrator::new(config).run().expect("study failed")
    })
}

#[test]
fn study_produces_full_grid() {
    let results = small_study();
    assert_eq!(
        results.cells.len(),
        2 * 2 * 2,
        "machines × workloads × levels"
    );
    for (key, cell) in &results.cells {
        assert_eq!(cell.campaigns.len(), 15, "{key}: all structures measured");
        assert!(cell.golden_cycles > 0);
        assert!(cell.golden_retired > 0);
        assert!(cell.code_words > 0);
        for c in &cell.campaigns {
            assert_eq!(c.total(), 30, "{key}/{}", c.structure);
            assert!(c.bit_population > 0);
        }
    }
}

#[test]
fn avf_and_fractions_are_consistent() {
    let results = small_study();
    for machine in results.machine_names() {
        for &workload in &[Workload::Qsort, Workload::Fft] {
            for level in [OptLevel::O0, OptLevel::O2] {
                for structure in Structure::ALL {
                    let avf = results.avf(&machine, workload, level, structure);
                    assert!((0.0..=1.0).contains(&avf));
                    let nonmasked: f64 = [
                        FaultClass::Sdc,
                        FaultClass::Crash,
                        FaultClass::Timeout,
                        FaultClass::Assert,
                    ]
                    .iter()
                    .map(|&c| results.fraction(&machine, workload, level, structure, c))
                    .sum();
                    assert!(
                        (avf - nonmasked).abs() < 1e-9,
                        "AVF must equal the non-masked fraction"
                    );
                }
            }
        }
    }
}

#[test]
fn weighted_avf_lies_between_extremes() {
    let results = small_study();
    for machine in results.machine_names() {
        for structure in Structure::ALL {
            let a = results.avf(&machine, Workload::Qsort, OptLevel::O2, structure);
            let b = results.avf(&machine, Workload::Fft, OptLevel::O2, structure);
            let w = results.weighted_avf(&machine, OptLevel::O2, structure);
            let (lo, hi) = (a.min(b), a.max(b));
            assert!(
                w >= lo - 1e-9 && w <= hi + 1e-9,
                "{machine}/{structure}: wAVF {w} outside [{lo}, {hi}]"
            );
        }
    }
}

#[test]
fn ecc_monotonically_reduces_fit() {
    let results = small_study();
    for machine in results.machine_names() {
        for level in [OptLevel::O0, OptLevel::O2] {
            let unprot = results.aggregate_cpu_fit(&machine, level, EccScheme::None);
            let l2 = results.aggregate_cpu_fit(&machine, level, EccScheme::L2Only);
            let both = results.aggregate_cpu_fit(&machine, level, EccScheme::L1dAndL2);
            assert!(unprot >= l2, "{machine}/{level}: L2 ECC must not raise FIT");
            assert!(l2 >= both, "{machine}/{level}: more ECC must not raise FIT");
        }
    }
}

#[test]
fn fpe_decreases_for_equal_fit_but_faster_runs() {
    let results = small_study();
    // O2 is faster than O0; if its FIT were identical, FPE must be lower.
    // We verify the definitional relation FPE = FIT × t rather than the
    // noisy measured comparison.
    for machine in results.machine_names() {
        let fit = results.cpu_fit(&machine, Workload::Qsort, OptLevel::O2, EccScheme::None);
        let fpe = results.fpe(&machine, Workload::Qsort, OptLevel::O2, EccScheme::None);
        let cfg = results.machine(&machine).unwrap();
        let secs =
            results.cycles(&machine, Workload::Qsort, OptLevel::O2) as f64 / (cfg.freq_ghz * 1e9);
        let expect = fit * (secs / 3600.0) / 1e9;
        assert!((fpe - expect).abs() <= f64::EPSILON.max(expect * 1e-12));
    }
}

#[test]
fn optimization_speeds_up_every_cell() {
    let results = small_study();
    for machine in results.machine_names() {
        for &w in &[Workload::Qsort, Workload::Fft] {
            assert!(
                results.speedup_vs_o0(&machine, w, OptLevel::O2) > 1.0,
                "{machine}/{w}: O2 must be faster than O0"
            );
        }
    }
}

#[test]
fn save_load_roundtrip() {
    let results = small_study();
    let dir = std::env::temp_dir().join("softerr_test_results");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("study.json");
    results.save(&path).unwrap();
    let loaded = StudyResults::load(&path).unwrap();
    assert_eq!(results, &loaded);
    std::fs::remove_file(&path).ok();
}

#[test]
fn studies_are_reproducible() {
    let mk = || {
        let config = StudyConfig {
            workloads: vec![Workload::Fft],
            levels: vec![OptLevel::O1],
            structures: vec![Structure::RegFile, Structure::IqSrc],
            plan: SamplingPlan::fixed(20),
            seed: 777,
            ..StudyConfig::default()
        };
        Orchestrator::new(config).run().unwrap()
    };
    assert_eq!(mk(), mk());
}

#[test]
fn progress_callback_reports_each_cell() {
    let config = StudyConfig {
        workloads: vec![Workload::Patricia],
        levels: vec![OptLevel::O0],
        structures: vec![Structure::RegFile],
        plan: SamplingPlan::fixed(5),
        seed: 3,
        ..StudyConfig::default()
    };
    let messages = Mutex::new(Vec::new());
    Orchestrator::new(config)
        .execute(&|m| messages.lock().unwrap().push(m.to_string()))
        .unwrap();
    let messages = messages.into_inner().unwrap();
    assert_eq!(messages.len(), 2, "one message per (machine × cell)");
    assert!(messages[0].contains("patricia"));
}
