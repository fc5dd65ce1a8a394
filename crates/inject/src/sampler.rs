//! Sampling strategy, stopping rule, and prune policy — the typed
//! [`SamplingPlan`] that replaced the flat `injections` / `target_margin` /
//! `prune` / `prune_static` knobs on `CampaignConfig`.
//!
//! Two samplers implement the [`Sampler`] trait. [`UniformSampler`] draws
//! `(bit, cycle)` sites uniformly over the full structure population — the
//! historical behavior, bit-identical to the pre-plan code path.
//! [`ImportanceSampler`] inverts the prune filter: instead of drawing
//! uniformly and discarding the 40–99% of sites that the golden run's
//! liveness windows (intersected with static writeback demand masks where
//! available) prove masked, it draws only from the live-and-demanded
//! subpopulation and attaches a Horvitz–Thompson weight equal to that
//! subpopulation's mass. Every forked child simulation is then informative,
//! and the reweighted estimator in [`crate::stats`] reaches the same
//! Leveugle-style confidence margin with ~`weight`× fewer samples.
//!
//! Both samplers are deterministic, seed-keyed, and prefix-stable: a
//! smaller sample is always a prefix of a larger one from the same seed,
//! and the drawn set never depends on thread count.

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
    /// reweighted by the subpopulation mass (Horvitz–Thompson).
    Importance,
    /// [`SamplerKind::Importance`], plus an equivalence net in the style of
    /// `prune = verify`: after the importance campaign, a uniform campaign
    /// is run to the same achieved margin and the run panics unless the two
    /// AVF estimates agree within their combined margins.
    ImportanceVerify,
}

impl SamplerKind {
    /// Lower-case CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            SamplerKind::Uniform => "uniform",
            SamplerKind::Importance => "importance",
            SamplerKind::ImportanceVerify => "importance/verify",
        }
    }

    /// The sampler implementing this kind (verify mode draws exactly like
    /// plain importance; the cross-check lives in the campaign runner).
    pub fn sampler(self) -> &'static dyn Sampler {
        match self {
            SamplerKind::Uniform => &UniformSampler,
            SamplerKind::Importance | SamplerKind::ImportanceVerify => &ImportanceSampler,
        }
    }

    /// Whether this kind draws from the live subpopulation.
    pub fn is_importance(self) -> bool {
        self != SamplerKind::Uniform
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
            "importance/verify" | "importance-verify" => Ok(SamplerKind::ImportanceVerify),
            other => Err(format!(
                "unknown sampler '{other}' (uniform|importance|importance/verify)"
            )),
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

    /// Rejects nonsense plans with a human-readable reason.
    ///
    /// An importance sampler cannot be combined with `prune = verify` in
    /// either stage: verify mode asserts that *prunable* faults simulate as
    /// Masked, but an importance sampler never draws a prunable fault, so
    /// the net would vacuously pass while pretending to check something. A
    /// margin target must be in `(0, 1)` — zero margin means a full census
    /// and is always a configuration mistake.
    pub fn validate(&self) -> Result<(), String> {
        if let StopRule::TargetMargin { target, .. } = self.stop {
            if !target.is_finite() || target <= 0.0 || target >= 1.0 {
                return Err(format!("target margin must be in (0, 1), got {target}"));
            }
        }
        if self.sampler.is_importance() && self.prune.any_verify() {
            return Err(format!(
                "sampler '{}' cannot be combined with prune = verify: importance \
                 sampling never draws a prunable fault, so the verification \
                 would be vacuous",
                self.sampler
            ));
        }
        Ok(())
    }
}

/// A deterministic, seed-keyed, prefix-stable fault-site sampler.
///
/// `sample(n)` must be a prefix of `sample(n + k)` from the same seed, and
/// both `population` and `weight` must be pure functions of the injector's
/// golden run — never of thread count or of previously drawn samples.
pub trait Sampler: Sync {
    /// Lower-case display name.
    fn name(&self) -> &'static str;

    /// Number of distinct fault sites this sampler can draw for
    /// `structure` (the finite-population-correction denominator).
    fn population(&self, injector: &Injector<'_>, structure: Structure) -> u64;

    /// Horvitz–Thompson weight attached to every drawn fault: the
    /// probability mass of the sampled subpopulation (1.0 for uniform).
    fn weight(&self, injector: &Injector<'_>, structure: Structure) -> f64;

    /// Draws `n` distinct faults (capped at the population), reproducibly
    /// from `seed`.
    fn sample(
        &self,
        injector: &Injector<'_>,
        structure: Structure,
        n: u64,
        seed: u64,
    ) -> Vec<FaultSpec>;
}

/// Uniform sampling over the full `(bit × cycle)` population — bit-identical
/// to the pre-[`SamplingPlan`] campaign path.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformSampler;

impl Sampler for UniformSampler {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn population(&self, injector: &Injector<'_>, structure: Structure) -> u64 {
        injector
            .bit_count(structure)
            .saturating_mul(injector.golden().cycles.max(1))
    }

    fn weight(&self, _injector: &Injector<'_>, _structure: Structure) -> f64 {
        1.0
    }

    fn sample(
        &self,
        injector: &Injector<'_>,
        structure: Structure,
        n: u64,
        seed: u64,
    ) -> Vec<FaultSpec> {
        injector.sample_faults(structure, n, seed)
    }
}

/// Importance sampling over the live-and-demanded subpopulation: rejection
/// sampling against [`softerr_sim::LivenessMap::is_vulnerable`] on the same
/// RNG stream the uniform sampler uses, so on a structure whose every site
/// is live the drawn sample is bit-identical to [`UniformSampler`]'s.
///
/// The weight is `vulnerable sites / total sites`, computed exactly by
/// [`softerr_sim::StructureLiveness::vulnerable_site_count`] once per
/// injector and structure; untracked structures fall back to weight 1.0
/// (everything conservative-live).
#[derive(Debug, Clone, Copy, Default)]
pub struct ImportanceSampler;

impl Sampler for ImportanceSampler {
    fn name(&self) -> &'static str {
        "importance"
    }

    fn population(&self, injector: &Injector<'_>, structure: Structure) -> u64 {
        injector.vulnerable_sites(structure)
    }

    fn weight(&self, injector: &Injector<'_>, structure: Structure) -> f64 {
        let total = UniformSampler.population(injector, structure);
        if total == 0 {
            return 1.0;
        }
        self.population(injector, structure) as f64 / total as f64
    }

    fn sample(
        &self,
        injector: &Injector<'_>,
        structure: Structure,
        n: u64,
        seed: u64,
    ) -> Vec<FaultSpec> {
        injector.sample_importance(structure, n, seed)
    }
}

/// Builds the [`crate::CampaignConfig`]'s effective batch size for adaptive
/// growth (shared by the campaign runner and the verify cross-check).
pub(crate) fn stop_batch(plan: &SamplingPlan) -> u64 {
    plan.injections().max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_kind_round_trips_through_str() {
        for kind in [
            SamplerKind::Uniform,
            SamplerKind::Importance,
            SamplerKind::ImportanceVerify,
        ] {
            assert_eq!(kind.name().parse::<SamplerKind>().unwrap(), kind);
        }
        assert_eq!(
            "importance-verify".parse::<SamplerKind>().unwrap(),
            SamplerKind::ImportanceVerify
        );
        assert!("gaussian".parse::<SamplerKind>().is_err());
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
        // Importance + prune verify is vacuous and must be rejected.
        for sampler in [SamplerKind::Importance, SamplerKind::ImportanceVerify] {
            for plan in [
                SamplingPlan::fixed(10)
                    .sampler(sampler)
                    .prune(PruneMode::Verify),
                SamplingPlan::fixed(10)
                    .sampler(sampler)
                    .prune_static(PruneMode::Verify),
            ] {
                assert!(plan.validate().is_err(), "{plan:?} must be rejected");
            }
        }
        // ...but uniform + verify stays the regression net it always was.
        assert!(SamplingPlan::fixed(10)
            .prune(PruneMode::Verify)
            .validate()
            .is_ok());
    }

    #[test]
    fn plan_round_trips_through_serde() {
        for plan in [
            SamplingPlan::default(),
            SamplingPlan::fixed(2000)
                .sampler(SamplerKind::Importance)
                .prune(PruneMode::On),
            SamplingPlan::adaptive(0.0288, 250).sampler(SamplerKind::ImportanceVerify),
        ] {
            let json = serde_json::to_string(&plan).expect("serialize");
            let back: SamplingPlan = serde_json::from_str(&json).expect("roundtrip");
            assert_eq!(back, plan);
        }
    }
}
