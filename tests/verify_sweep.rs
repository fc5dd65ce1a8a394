//! The IR verifier sweep: every workload × every optimization level ×
//! both target profiles compiles with the IR verifier re-checking the
//! module after **every** pass application, plus the post-regalloc
//! allocation check (`Compiler::with_verify`, whatever the build).
//!
//! This is the correctness net over the 13 optimization passes: a pass
//! that breaks an invariant (use before def, dangling branch target,
//! clobbered live range, ...) fails here with a diagnostic naming the
//! pass, the function, and the block.
//!
//! The same sweep hosts the dead-computation lint check: `cc.lint`
//! warnings (defs and stores the static bit-demand analysis proves fully
//! dead after O2/O3) are captured per compile and asserted to fire only at
//! the levels the lint is armed for.

use softerr::telemetry::{install_sink, reset_sink, CaptureSink, Event, Sink};
use softerr::{Compiler, OptLevel, Profile, Scale, Workload};
use std::sync::{Arc, Mutex};

/// The telemetry sink is process-global, so the lint-capture test must not
/// overlap with the other compiles in this binary: both tests serialize on
/// this lock.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn verifier_accepts_all_workloads_at_all_levels() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for profile in [Profile::A32, Profile::A64] {
        for workload in Workload::ALL {
            for scale in [Scale::Tiny, Scale::Small] {
                let src = workload.source(scale);
                for level in OptLevel::ALL {
                    Compiler::new(profile, level)
                        .with_verify(true)
                        .compile(&src)
                        .unwrap_or_else(|e| {
                            panic!("{}/{profile}/{level}/{scale:?}: {e}", workload.name())
                        });
                }
            }
        }
    }
}

/// Forwards to a shared capture so the test body can read what the
/// process-global sink saw.
struct SharedCapture(Arc<CaptureSink>);

impl Sink for SharedCapture {
    fn emit(&self, event: &Event) {
        self.0.emit(event);
    }
}

/// The dead-computation lint: `cc.lint` warnings fire at O2/O3 (where a
/// surviving dead def or store means a pass left work on the table) and
/// never below (O0/O1 deliberately keep dead code, so linting there would
/// be all noise). Several shift/mask-heavy workloads are known to carry
/// dead high-half computations through the O2 pipeline, so the sweep also
/// pins down that the lint actually fires somewhere.
#[test]
fn dead_computation_lint_fires_at_o2_and_above_only() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let capture = Arc::new(CaptureSink::new());
    install_sink(Box::new(SharedCapture(Arc::clone(&capture))));
    let mut fired_high = 0usize;
    for profile in [Profile::A32, Profile::A64] {
        for workload in Workload::ALL {
            let src = workload.source(Scale::Tiny);
            for level in OptLevel::ALL {
                let before = capture.events().len();
                Compiler::new(profile, level)
                    .compile(&src)
                    .unwrap_or_else(|e| panic!("{}/{profile}/{level}: {e}", workload.name()));
                let lints: Vec<Event> = capture.events()[before..]
                    .iter()
                    .filter(|e| e.target == "cc.lint")
                    .cloned()
                    .collect();
                if level < OptLevel::O2 {
                    assert!(
                        lints.is_empty(),
                        "{}/{profile}/{level}: the dead-computation lint must stay \
                         silent below O2, got: {}",
                        workload.name(),
                        lints[0].message
                    );
                } else {
                    fired_high += lints.len();
                    for lint in &lints {
                        assert!(
                            lint.message.contains("dead computation survives")
                                || lint.message.contains("dead store survives"),
                            "unexpected cc.lint message: {}",
                            lint.message
                        );
                    }
                }
            }
        }
    }
    reset_sink();
    assert!(
        fired_high > 0,
        "no workload tripped the dead-computation lint at O2/O3 — the lint \
         sweep is vacuous"
    );
}
