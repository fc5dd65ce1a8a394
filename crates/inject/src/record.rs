//! Per-fault provenance records.
//!
//! A campaign's aggregate [`crate::CampaignResult`] answers *how often* a
//! structure's faults matter; the per-fault [`FaultRecord`] answers *how*
//! each one mattered: when the outcome was decided, how long the fault
//! stayed latent, and — for faults that corrupted execution — where the
//! microarchitectural state first diverged from the fault-free run.

use crate::campaign::{FaultClass, FaultSpec};
use serde::{Deserialize, Serialize, Value};

/// Where a faulted run's state first differed from the golden run.
///
/// Captured at the injection cycle by diffing the forked simulator against
/// the golden one it was cloned from, so `component` names the structure
/// the flip actually corrupted (a flip into dead state is provably masked
/// and produces no site at all).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DivergenceSite {
    /// Cycle at which the divergence was first observed (the injection
    /// cycle).
    pub cycle: u64,
    /// Program counter the front end was fetching from at that cycle.
    pub pc: u64,
    /// First differing simulator component in the engine's cheapest-first
    /// comparison order (e.g. `"rf"`, `"rob"`, `"mem.l1d"`).
    pub component: String,
}

/// One snapshot of the diverging-component set, taken a fixed number of
/// cycles after injection by a propagation-traced convoy child.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PropagationSample {
    /// Golden cycle the snapshot was taken at.
    pub cycle: u64,
    /// Every simulator component differing from the golden run at that
    /// cycle, in [`softerr_sim::Sim::DIVERGENCE_COMPONENTS`] probe order.
    /// An empty set means the child had (transiently) re-converged.
    pub components: Vec<String>,
}

/// Opt-in per-fault propagation timeline: how the set of corrupted
/// components evolved after injection.
///
/// Captured by the convoy engine for a deterministically sampled subset of
/// non-pruned faults (see `CampaignRun::propagation`). Sampling is purely
/// observational — it reads the child and golden simulators and mutates
/// neither, so enabling it never changes classes or the other record
/// fields. The timeline itself is best-effort observability: it ends when
/// the child converges, halts, or graduates off the convoy, so its length
/// (unlike everything else in a [`FaultRecord`]) may depend on convoy
/// composition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PropagationTrace {
    /// Sampling period in cycles.
    pub every: u64,
    /// Snapshots in cycle order, starting at the injection cycle.
    pub samples: Vec<PropagationSample>,
    /// Golden cycle at which the child was proven re-converged, when the
    /// convoy classified it that way.
    pub converged_at: Option<u64>,
}

impl PropagationTrace {
    /// Peak number of simultaneously diverging components.
    pub fn peak_components(&self) -> usize {
        self.samples
            .iter()
            .map(|s| s.components.len())
            .max()
            .unwrap_or(0)
    }
}

/// Full forensic record of one injection.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// The injected fault.
    pub spec: FaultSpec,
    /// Outcome class.
    pub class: FaultClass,
    /// The faulted run's terminal cycle. A run the convoy engine proved
    /// converged back to the golden state necessarily halts exactly when
    /// the golden run does, so its record carries the golden cycle count;
    /// faults that land after the program ends (or flip nothing, or are
    /// pruned as provably dead) are decided at the injection cycle itself.
    /// This makes the field a pure function of the fault — independent of
    /// engine choice, thread count, and which other faults were sampled.
    pub end_cycle: u64,
    /// Golden (fault-free) execution time in cycles, for normalizing.
    pub golden_cycles: u64,
    /// First point where microarchitectural state diverged from the golden
    /// run, or `None` for faults that never corrupted live state.
    pub first_divergence: Option<DivergenceSite>,
    /// Verdict provenance: `true` when the liveness pruner classified the
    /// fault as Masked without simulating it (`prune = on` or `verify`
    /// campaigns; verify mode prunes exactly as `on` and checks the
    /// verdicts against the fresh engine afterwards).
    pub pruned: bool,
    /// Verdict provenance: `true` when the compiler's static bit-demand
    /// analysis classified the fault as Masked without simulating it
    /// (`prune_static = on` or `verify` campaigns). Mutually exclusive with
    /// `pruned` — a fault both stages could prune is attributed to the
    /// dynamic liveness pruner.
    pub pruned_static: bool,
    /// Horvitz–Thompson weight of the fault's campaign sample: 1.0 under
    /// uniform sampling, the structure's live-site fraction under
    /// importance sampling. A pure function of the fault's structure and
    /// the golden run — independent of thread count and of which other
    /// faults were sampled.
    pub weight: f64,
    /// Time-resolved propagation timeline, for faults selected by an
    /// opt-in `CampaignRun::propagation` campaign (`None` otherwise).
    pub propagation: Option<PropagationTrace>,
}

// Hand-written (rather than derived) so `propagation: None` is *omitted*
// from the JSON object instead of serialized as `null`, and so the unit
// `weight` of every uniform-sampled record is omitted too: record streams
// from campaigns that never opted into propagation tracing or importance
// sampling stay byte-identical to the pre-propagation format, and old
// JSONL files parse unchanged (an absent `weight` reads back as 1.0).
impl Serialize for FaultRecord {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("spec".to_string(), self.spec.to_value()),
            ("class".to_string(), self.class.to_value()),
            ("end_cycle".to_string(), self.end_cycle.to_value()),
            ("golden_cycles".to_string(), self.golden_cycles.to_value()),
            (
                "first_divergence".to_string(),
                self.first_divergence.to_value(),
            ),
            ("pruned".to_string(), self.pruned.to_value()),
            ("pruned_static".to_string(), self.pruned_static.to_value()),
        ];
        if self.weight != 1.0 {
            fields.push(("weight".to_string(), self.weight.to_value()));
        }
        if let Some(propagation) = &self.propagation {
            fields.push(("propagation".to_string(), propagation.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for FaultRecord {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        Ok(FaultRecord {
            spec: Deserialize::from_value(serde::obj_get(v, "spec")?)?,
            class: Deserialize::from_value(serde::obj_get(v, "class")?)?,
            end_cycle: Deserialize::from_value(serde::obj_get(v, "end_cycle")?)?,
            golden_cycles: Deserialize::from_value(serde::obj_get(v, "golden_cycles")?)?,
            first_divergence: Deserialize::from_value(serde::obj_get(v, "first_divergence")?)?,
            pruned: Deserialize::from_value(serde::obj_get(v, "pruned")?)?,
            pruned_static: Deserialize::from_value(serde::obj_get(v, "pruned_static")?)?,
            weight: match serde::obj_get(v, "weight") {
                Ok(w) => Deserialize::from_value(w)?,
                Err(_) => 1.0,
            },
            propagation: match serde::obj_get(v, "propagation") {
                Ok(p) => Some(Deserialize::from_value(p)?),
                Err(_) => None,
            },
        })
    }
}

impl FaultRecord {
    /// Cycles from injection to the outcome being decided — the detection
    /// latency for Crash/Assert faults, and the time-to-verdict for the
    /// other classes.
    pub fn detect_latency_cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.spec.cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softerr_sim::Structure;

    fn record(cycle: u64, end_cycle: u64) -> FaultRecord {
        FaultRecord {
            spec: FaultSpec {
                structure: Structure::RegFile,
                bit: 17,
                cycle,
            },
            class: FaultClass::Sdc,
            end_cycle,
            golden_cycles: 500,
            first_divergence: Some(DivergenceSite {
                cycle,
                pc: 0x40,
                component: "rf".to_string(),
            }),
            pruned: false,
            pruned_static: false,
            weight: 1.0,
            propagation: None,
        }
    }

    #[test]
    fn latency_is_end_minus_injection() {
        assert_eq!(record(100, 350).detect_latency_cycles(), 250);
        // Degenerate records (decided at the injection cycle) have zero
        // latency, never an underflow.
        assert_eq!(record(100, 100).detect_latency_cycles(), 0);
        assert_eq!(record(100, 90).detect_latency_cycles(), 0);
    }

    #[test]
    fn records_roundtrip_through_json() {
        let r = record(42, 99);
        let json = serde_json::to_string(&r).unwrap();
        let back: FaultRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        let mut bare = record(1, 2);
        bare.first_divergence = None;
        bare.pruned = true;
        bare.pruned_static = false;
        let json = serde_json::to_string(&bare).unwrap();
        let back: FaultRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, bare);
    }

    #[test]
    fn unit_weight_is_omitted_and_absent_weight_reads_back_as_one() {
        let plain = record(10, 20);
        let json = serde_json::to_string(&plain).unwrap();
        assert!(
            !json.contains("weight"),
            "uniform records keep the pre-weight JSONL format: {json}"
        );
        let back: FaultRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.weight, 1.0, "absent weight defaults to 1.0");

        let mut weighted = record(10, 20);
        weighted.weight = 0.03125;
        let json = serde_json::to_string(&weighted).unwrap();
        assert!(json.contains("weight"), "non-unit weight is serialized");
        let back: FaultRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, weighted);
    }

    #[test]
    fn propagation_is_omitted_when_absent_and_roundtrips_when_present() {
        let plain = record(10, 20);
        let json = serde_json::to_string(&plain).unwrap();
        assert!(
            !json.contains("propagation"),
            "non-propagation records keep the pre-propagation JSONL format: {json}"
        );

        let mut traced = record(10, 20);
        traced.propagation = Some(PropagationTrace {
            every: 32,
            samples: vec![
                PropagationSample {
                    cycle: 10,
                    components: vec!["rf".into()],
                },
                PropagationSample {
                    cycle: 42,
                    components: vec!["rf".into(), "rob".into()],
                },
                PropagationSample {
                    cycle: 74,
                    components: vec![],
                },
            ],
            converged_at: Some(80),
        });
        assert_eq!(traced.propagation.as_ref().unwrap().peak_components(), 2);
        let json = serde_json::to_string(&traced).unwrap();
        let back: FaultRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, traced);
        // And a pre-propagation line (no such key) still parses.
        let old_json = serde_json::to_string(&plain).unwrap();
        let old: FaultRecord = serde_json::from_str(&old_json).unwrap();
        assert_eq!(old.propagation, None);
    }
}
