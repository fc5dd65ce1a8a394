//! Run manifests: the provenance header every campaign artifact carries.
//!
//! A result without its sampling parameters cannot be reproduced or
//! compared, so reports and record streams embed a [`RunManifest`]
//! capturing the seed, machine, workload, optimization level, and a hash
//! of the full configuration. In a `--records` JSONL stream the manifest
//! is the first line; in text reports it prints as a one-line header.

use crate::campaign::{CampaignConfig, PruneMode};
use serde::{Deserialize, Serialize};
use softerr_sim::MachineConfig;
use std::fmt;

/// Provenance of one campaign or repro invocation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Campaign RNG seed.
    pub seed: u64,
    /// Injections per structure (the fixed count, or the adaptive batch
    /// size under a margin target).
    pub injections: u64,
    /// Sampling distribution the campaign drew from (`"uniform"` or
    /// `"importance"`; verification is the `prune` fields' `"verify"`).
    pub sampler: String,
    /// Stopping rule: `"fixed"` or the margin target as
    /// `"margin=<target>"`.
    pub stop: String,
    /// Worker threads.
    pub threads: u64,
    /// Whether golden-prefix checkpointing was enabled.
    pub checkpoint: bool,
    /// Liveness-based pruning mode the campaign ran under.
    pub prune: PruneMode,
    /// Static bit-demand pruning mode the campaign ran under.
    pub prune_static: PruneMode,
    /// Machine profile name (e.g. `"cortex-a15"`).
    pub machine: String,
    /// ISA profile (e.g. `"A32"`).
    pub profile: String,
    /// Workload name, or `"-"` when not applicable.
    pub workload: String,
    /// Optimization level, or `"-"` when not applicable.
    pub level: String,
    /// Workload scale, or `"-"` when not applicable.
    pub scale: String,
    /// FNV-1a hash (hex) of the machine + campaign configuration, for
    /// quickly telling two runs' configurations apart. Not stable across
    /// crate versions — compare only alongside `version`.
    pub config_hash: String,
    /// Crate version that produced the artifact.
    pub version: String,
}

impl RunManifest {
    /// Builds a manifest for a campaign on `machine` (named `machine_name`)
    /// with the given parameters. Workload, level, and scale default to
    /// `"-"`; harnesses that know them fill the fields in directly.
    pub fn new(machine_name: &str, machine: &MachineConfig, cfg: &CampaignConfig) -> RunManifest {
        RunManifest {
            seed: cfg.seed,
            injections: cfg.plan.injections(),
            sampler: cfg.plan.sampler.name().to_string(),
            stop: match cfg.plan.target_margin() {
                Some(target) => format!("margin={target}"),
                None => "fixed".to_string(),
            },
            threads: cfg.threads as u64,
            checkpoint: cfg.checkpoint,
            prune: cfg.plan.prune.liveness,
            prune_static: cfg.plan.prune.demand,
            machine: machine_name.to_string(),
            profile: format!("{:?}", machine.profile),
            workload: "-".to_string(),
            level: "-".to_string(),
            scale: "-".to_string(),
            config_hash: format!("{:016x}", fnv1a(format!("{machine:?}|{cfg:?}").as_bytes())),
            version: env!("CARGO_PKG_VERSION").to_string(),
        }
    }
}

impl fmt::Display for RunManifest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "machine={} profile={} workload={} level={} scale={} \
             injections={} sampler={} stop={} seed={} threads={} \
             checkpoint={} prune={} prune_static={} config={} v{}",
            self.machine,
            self.profile,
            self.workload,
            self.level,
            self.scale,
            self.injections,
            self.sampler,
            self.stop,
            self.seed,
            self.threads,
            self.checkpoint,
            self.prune,
            self.prune_static,
            self.config_hash,
            self.version,
        )
    }
}

/// 64-bit FNV-1a over a byte string — the hash behind every `config_hash`
/// in this crate and the content-addressed study result store in
/// `softerr-core`. Deterministic across runs and platforms; not stable
/// across crate versions (callers fold the version into the hashed bytes).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{SamplerKind, SamplingPlan};

    #[test]
    fn hash_separates_configurations() {
        let machine = MachineConfig::cortex_a15();
        let cfg = CampaignConfig::default();
        let a = RunManifest::new("cortex-a15", &machine, &cfg);
        let b = RunManifest::new(
            "cortex-a15",
            &machine,
            &CampaignConfig {
                seed: cfg.seed + 1,
                ..cfg
            },
        );
        assert_ne!(a.config_hash, b.config_hash);
        let st = RunManifest::new(
            "cortex-a15",
            &machine,
            &CampaignConfig {
                plan: cfg.plan.prune_static(PruneMode::On),
                ..cfg
            },
        );
        assert_ne!(
            a.config_hash, st.config_hash,
            "prune_static must be part of the configuration identity"
        );
        let imp = RunManifest::new(
            "cortex-a15",
            &machine,
            &CampaignConfig {
                plan: cfg.plan.sampler(SamplerKind::Importance),
                ..cfg
            },
        );
        assert_ne!(
            a.config_hash, imp.config_hash,
            "the sampler kind must be part of the configuration identity"
        );
        let adaptive = RunManifest::new(
            "cortex-a15",
            &machine,
            &CampaignConfig {
                plan: SamplingPlan::adaptive(0.05, cfg.plan.injections()),
                ..cfg
            },
        );
        assert_ne!(
            a.config_hash, adaptive.config_hash,
            "the stop rule must be part of the configuration identity"
        );
        assert_eq!(imp.sampler, "importance");
        assert_eq!(adaptive.stop, "margin=0.05");
        assert_eq!(
            a.config_hash,
            RunManifest::new("cortex-a15", &machine, &cfg).config_hash,
            "hash is deterministic"
        );
        let a72 = RunManifest::new("cortex-a72", &MachineConfig::cortex_a72(), &cfg);
        assert_ne!(a.config_hash, a72.config_hash);
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        let mut m = RunManifest::new(
            "cortex-a72",
            &MachineConfig::cortex_a72(),
            &CampaignConfig::default(),
        );
        m.workload = "qsort".to_string();
        m.level = "O2".to_string();
        m.scale = "small".to_string();
        let json = serde_json::to_string(&m).unwrap();
        let back: RunManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn display_is_one_line_with_every_field() {
        let m = RunManifest::new(
            "cortex-a15",
            &MachineConfig::cortex_a15(),
            &CampaignConfig::default(),
        );
        let line = m.to_string();
        assert_eq!(line.lines().count(), 1);
        for needle in [
            "machine=cortex-a15",
            "seed=",
            "config=",
            "workload=-",
            "prune_static=",
            "sampler=uniform",
            "stop=fixed",
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
    }
}
