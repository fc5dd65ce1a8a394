//! Sampling strategy, stopping rule, and prune policy — the typed
//! [`SamplingPlan`] that replaced the flat `injections` / `target_margin` /
//! `prune` / `prune_static` knobs on `CampaignConfig`.
//!
//! Two sampler kinds exist. [`SamplerKind::Uniform`] draws `(bit, cycle)`
//! sites uniformly over the full structure population — the historical
//! behavior, bit-identical to the pre-plan code path.
//! [`SamplerKind::Importance`] inverts the prune filter: instead of drawing
//! uniformly and discarding the 40–99% of sites that the golden run's
//! liveness windows (intersected with static writeback demand masks where
//! available) prove masked, it draws only from the live-and-demanded
//! subpopulation and attaches a Horvitz–Thompson weight equal to that
//! subpopulation's mass. Every forked child simulation is then informative,
//! and the reweighted estimator in [`crate::stats`] reaches the same
//! Leveugle-style confidence margin with ~`weight`× fewer samples.
//!
//! Both kinds are deterministic, seed-keyed, and prefix-stable: a smaller
//! sample is always a prefix of a larger one from the same seed, and the
//! drawn set never depends on thread count.

use crate::campaign::{FaultSpec, Injector, PruneMode};
use serde::{Deserialize, Serialize};
use softerr_sim::Structure;
use std::fmt;

/// Which sampling distribution a campaign draws its fault sites from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SamplerKind {
    /// Uniform over the full `(bit × cycle)` population (the paper's
    /// methodology and the historical default).
    #[default]
    Uniform,
    /// Uniform over the live-and-demanded subpopulation only, with tallies
    /// reweighted by the subpopulation mass (Horvitz–Thompson): rejection
    /// sampling against [`softerr_sim::LivenessMap::is_vulnerable`] on the
    /// uniform RNG stream, so on a structure whose every site is live the
    /// drawn sample is bit-identical to the uniform one.
    Importance,
}

impl SamplerKind {
    /// Lower-case CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            SamplerKind::Uniform => "uniform",
            SamplerKind::Importance => "importance",
        }
    }

    /// Whether this kind draws from the live subpopulation.
    pub fn is_importance(self) -> bool {
        self != SamplerKind::Uniform
    }

    /// Number of distinct fault sites this kind can draw for `structure`
    /// (the finite-population-correction denominator): every
    /// `(bit, cycle)` site, or the vulnerable ones.
    pub fn population(self, injector: &Injector<'_>, structure: Structure) -> u64 {
        match self {
            SamplerKind::Uniform => injector
                .bit_count(structure)
                .saturating_mul(injector.golden().cycles.max(1)),
            SamplerKind::Importance => injector.vulnerable_sites(structure),
        }
    }

    /// Horvitz–Thompson weight attached to every drawn fault: the
    /// probability mass of the sampled subpopulation (1.0 for uniform; the
    /// exact vulnerable fraction for importance, 1.0 on an empty
    /// structure). A pure function of the injector's golden run.
    pub fn weight(self, injector: &Injector<'_>, structure: Structure) -> f64 {
        match self {
            SamplerKind::Uniform => 1.0,
            SamplerKind::Importance => {
                let total = SamplerKind::Uniform.population(injector, structure);
                if total == 0 {
                    return 1.0;
                }
                self.population(injector, structure) as f64 / total as f64
            }
        }
    }

    /// Draws `n` distinct faults (capped at the population), reproducibly
    /// from `seed`; `sample(n)` is a prefix of `sample(n + k)`.
    pub fn sample(
        self,
        injector: &Injector<'_>,
        structure: Structure,
        n: u64,
        seed: u64,
    ) -> Vec<FaultSpec> {
        match self {
            SamplerKind::Uniform => injector.sample_faults(structure, n, seed),
            SamplerKind::Importance => injector.sample_importance(structure, n, seed),
        }
    }
}

impl fmt::Display for SamplerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SamplerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<SamplerKind, String> {
        match s {
            "uniform" => Ok(SamplerKind::Uniform),
            "importance" => Ok(SamplerKind::Importance),
            other => Err(format!("unknown sampler '{other}' (uniform|importance)")),
        }
    }
}

/// When a campaign stops drawing faults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StopRule {
    /// Inject exactly this many faults (capped at the sampler's
    /// population). The historical `injections` knob.
    FixedN(u64),
    /// Keep drawing in batches of `batch` until the worst-case AVF error
    /// margin at 99% confidence drops to `target` (the historical
    /// `target_margin` + `injections`-as-batch pair). Under an importance
    /// sampler the margin is the reweighted one, so sparse structures stop
    /// after ~`weight²`× fewer draws.
    TargetMargin {
        /// Margin to reach, e.g. the paper's `0.0288`.
        target: f64,
        /// Sample-growth granularity (0 is treated as 1).
        batch: u64,
    },
}

impl Default for StopRule {
    fn default() -> StopRule {
        StopRule::FixedN(100)
    }
}

/// Pre-simulation prune policy: which proof stages may classify faults as
/// Masked without forking a child simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct PrunePolicy {
    /// Dynamic liveness-window pruning (the historical `prune` knob).
    pub liveness: PruneMode,
    /// Static bit-demand pruning on top (the historical `prune_static`
    /// knob); a strict refinement of the liveness stage.
    pub demand: PruneMode,
}

impl PrunePolicy {
    /// Any stage set to [`PruneMode::Verify`]?
    pub fn any_verify(self) -> bool {
        self.liveness == PruneMode::Verify || self.demand == PruneMode::Verify
    }

    /// Any stage set to [`PruneMode::On`]?
    pub fn any_on(self) -> bool {
        self.liveness == PruneMode::On || self.demand == PruneMode::On
    }
}

/// What to sample, when to stop, and what to prune — the complete sampling
/// half of a [`crate::CampaignConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SamplingPlan {
    /// Sampling distribution.
    pub sampler: SamplerKind,
    /// Stopping rule.
    pub stop: StopRule,
    /// Prune policy.
    pub prune: PrunePolicy,
}

impl SamplingPlan {
    /// Uniform plan injecting exactly `n` faults (the old
    /// `injections: n`).
    pub fn fixed(n: u64) -> SamplingPlan {
        SamplingPlan {
            stop: StopRule::FixedN(n),
            ..SamplingPlan::default()
        }
    }

    /// Uniform plan growing in batches of `batch` until the 99% margin
    /// reaches `target` (the old `target_margin: Some(target)` with
    /// `injections: batch`).
    pub fn adaptive(target: f64, batch: u64) -> SamplingPlan {
        SamplingPlan {
            stop: StopRule::TargetMargin { target, batch },
            ..SamplingPlan::default()
        }
    }

    /// Replaces the sampler kind.
    #[must_use]
    pub fn sampler(mut self, sampler: SamplerKind) -> SamplingPlan {
        self.sampler = sampler;
        self
    }

    /// Replaces the liveness-prune stage (the old `prune` field).
    #[must_use]
    pub fn prune(mut self, mode: PruneMode) -> SamplingPlan {
        self.prune.liveness = mode;
        self
    }

    /// Replaces the static demand-prune stage (the old `prune_static`
    /// field).
    #[must_use]
    pub fn prune_static(mut self, mode: PruneMode) -> SamplingPlan {
        self.prune.demand = mode;
        self
    }

    /// Nominal injection count: the fixed `n`, or the batch size under a
    /// margin target (what the old `injections` field meant in each mode).
    pub fn injections(&self) -> u64 {
        match self.stop {
            StopRule::FixedN(n) => n,
            StopRule::TargetMargin { batch, .. } => batch,
        }
    }

    /// Whether campaigns under this plan read the golden run's liveness
    /// map: the importance sampler draws from it, and liveness or demand
    /// pruning (`on` or `verify`) queries it.
    pub fn reads_liveness(&self) -> bool {
        self.sampler.is_importance() || self.prune.any_on() || self.prune.any_verify()
    }

    /// The margin target, if this plan stops on one.
    pub fn target_margin(&self) -> Option<f64> {
        match self.stop {
            StopRule::FixedN(_) => None,
            StopRule::TargetMargin { target, .. } => Some(target),
        }
    }

    /// Rejects nonsense plans with a human-readable reason: a margin target
    /// must be in `(0, 1)` — zero margin means a full census and is always
    /// a configuration mistake. Every sampler combines with every prune
    /// policy; under `prune = verify` the campaign re-classifies each of its
    /// faults on the fresh engine, whichever sampler drew them.
    pub fn validate(&self) -> Result<(), String> {
        if let StopRule::TargetMargin { target, .. } = self.stop {
            if !target.is_finite() || target <= 0.0 || target >= 1.0 {
                return Err(format!("target margin must be in (0, 1), got {target}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_kind_round_trips_through_str() {
        for kind in [SamplerKind::Uniform, SamplerKind::Importance] {
            assert_eq!(kind.name().parse::<SamplerKind>().unwrap(), kind);
        }
        // Verification is `prune = verify`, not a sampler of its own.
        for name in ["gaussian", "verify"] {
            assert!(name.parse::<SamplerKind>().is_err(), "{name}");
        }
    }

    #[test]
    fn plan_constructors_mirror_the_old_flat_knobs() {
        let fixed = SamplingPlan::fixed(2000);
        assert_eq!(fixed.injections(), 2000);
        assert_eq!(fixed.target_margin(), None);
        assert_eq!(fixed.sampler, SamplerKind::Uniform);
        let adaptive = SamplingPlan::adaptive(0.0288, 100);
        assert_eq!(adaptive.injections(), 100);
        assert_eq!(adaptive.target_margin(), Some(0.0288));
        let pruned = SamplingPlan::fixed(10)
            .prune(PruneMode::On)
            .prune_static(PruneMode::Verify);
        assert_eq!(pruned.prune.liveness, PruneMode::On);
        assert_eq!(pruned.prune.demand, PruneMode::Verify);
        assert!(pruned.prune.any_on() && pruned.prune.any_verify());
    }

    #[test]
    fn validate_rejects_nonsense_plans() {
        assert!(SamplingPlan::fixed(100).validate().is_ok());
        assert!(SamplingPlan::adaptive(0.05, 100)
            .sampler(SamplerKind::Importance)
            .prune(PruneMode::On)
            .validate()
            .is_ok());
        // Zero, one, and non-finite margin targets are configuration bugs.
        for target in [0.0, 1.0, -0.1, f64::NAN, f64::INFINITY] {
            assert!(
                SamplingPlan::adaptive(target, 100).validate().is_err(),
                "target {target} must be rejected"
            );
        }
        // Verify checks every fault against the fresh engine, so it
        // combines with either sampler on either stage.
        for sampler in [SamplerKind::Uniform, SamplerKind::Importance] {
            for plan in [
                SamplingPlan::fixed(10)
                    .sampler(sampler)
                    .prune(PruneMode::Verify),
                SamplingPlan::adaptive(0.1, 25)
                    .sampler(sampler)
                    .prune_static(PruneMode::Verify),
            ] {
                assert!(plan.validate().is_ok(), "{plan:?} must be accepted");
            }
        }
    }

    #[test]
    fn plan_round_trips_through_serde() {
        for plan in [
            SamplingPlan::default(),
            SamplingPlan::fixed(2000)
                .sampler(SamplerKind::Importance)
                .prune(PruneMode::On),
            SamplingPlan::adaptive(0.0288, 250)
                .sampler(SamplerKind::Importance)
                .prune_static(PruneMode::Verify),
        ] {
            let json = serde_json::to_string(&plan).expect("serialize");
            let back: SamplingPlan = serde_json::from_str(&json).expect("roundtrip");
            assert_eq!(back, plan);
        }
    }
}
