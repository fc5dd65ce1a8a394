//! Content-addressed on-disk store of completed study cells.
//!
//! Every (machine, workload, level) cell of a study is persisted as one
//! JSON file named by the FNV-1a hash of the *full* configuration that
//! produced it — machine geometry, workload, optimization level, input
//! scale, the full sampling plan (sampler kind, stopping rule, prune
//! policy), seed, checkpointing mode, structure list, and crate version.
//! Because the key is derived from content, a re-run with
//! any parameter changed misses the store and re-executes, while an
//! identical re-run (or a study killed halfway and restarted) is served
//! from disk without re-simulating a single fault. This replaces the old
//! whole-study JSON cache that was keyed by `(scale, injections, seed)`
//! only and silently served stale figures when anything else changed.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/cells/<16-hex-hash>.json   one StoredCell per completed cell
//! <root>/cells/quarantine/          hash-mismatched / unparsable entries
//! ```
//!
//! Loads verify the embedded hash and cell key against the request; a
//! mismatch (corrupted, renamed, or version-skewed file) is reported on
//! the `study.store` telemetry target, moved aside into `cells/quarantine/`
//! so it cannot re-warn on every later lookup, and treated as a miss,
//! never served. A read that fails for any reason *other* than the file
//! being absent (permissions, I/O) is **not** a plain miss: it is counted
//! separately ([`ResultStore::read_errors`]) and warned about, because
//! silently re-running a cell that is actually on disk burns hours of
//! injections.
//!
//! The store is safe for concurrent writers across *processes*, not just
//! threads: every save writes through a tmp path unique to the writer
//! (pid + per-process counter) before the atomic rename, so two workers
//! saving the same cell can never interleave their write bodies into a
//! torn file. When both rename, the last one wins — benign, because the
//! content-addressed key guarantees both wrote identical bytes.

use crate::study::{CellKey, CellResult, StudyConfig, StudyError};
use serde::{Deserialize, Serialize};
use softerr_cc::OptLevel;
use softerr_inject::fnv1a;
use softerr_sim::MachineConfig;
use softerr_telemetry::{event, Level};
use softerr_workloads::Workload;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Content hash (16 hex digits) of one study cell's full configuration:
/// everything that can change the cell's measured result, plus the crate
/// version so stores never leak across incompatible builds. Worker-thread
/// count and the engine (`checkpoint`) are deliberately excluded —
/// campaigns are bit-identical across thread counts and between the
/// checkpointed convoy and the fresh engine, so a store written with
/// `--threads 8` serves a single-threaded re-run and vice versa.
pub fn cell_config_hash(
    config: &StudyConfig,
    machine: &MachineConfig,
    workload: Workload,
    level: OptLevel,
) -> String {
    let canonical = format!(
        "v{}|machine={:?}|workload={}|level={}|scale={}|sampler={:?}|stop={:?}|prune={:?}|seed={}|structures={:?}",
        env!("CARGO_PKG_VERSION"),
        machine,
        workload,
        level,
        config.scale,
        config.plan.sampler,
        config.plan.stop,
        config.plan.prune,
        config.seed,
        config.structures,
    );
    format!("{:016x}", fnv1a(canonical.as_bytes()))
}

/// On-disk representation of one completed cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct StoredCell {
    /// Crate version that wrote the file (informational; the version is
    /// also folded into the hash, so skew shows up as a plain miss).
    version: String,
    /// The content hash the file claims to be stored under.
    config_hash: String,
    /// The grid coordinate of the cell.
    key: CellKey,
    /// The measured cell.
    result: CellResult,
}

/// A content-addressed directory of completed study cells with hit/miss
/// accounting. Thread-safe: the orchestrator's cell workers load and save
/// concurrently through a shared reference.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    read_errors: AtomicU64,
    quarantined: AtomicU64,
}

/// Makes concurrent saves from the same process distinguishable; combined
/// with the pid this yields a tmp path no other writer (thread *or*
/// process) can be using.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl ResultStore {
    /// Opens (creating if necessary) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// [`StudyError::Io`] if the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<ResultStore, StudyError> {
        let root = root.into();
        std::fs::create_dir_all(root.join("cells"))?;
        Ok(ResultStore {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn cell_path(&self, hash: &str) -> PathBuf {
        self.root.join("cells").join(format!("{hash}.json"))
    }

    /// Moves a corrupted or mislabeled entry into `cells/quarantine/` (so
    /// it cannot re-warn on every later lookup) under a writer-unique name.
    /// The directory is created lazily — a healthy store never has one.
    fn quarantine(&self, path: &Path, reason: &str) {
        let dir = self.root.join("cells").join("quarantine");
        if let Err(e) = std::fs::create_dir_all(&dir) {
            event!(
                Level::Warn,
                "study.store",
                { path: path.display().to_string() },
                "cannot create quarantine directory for {} ({e}); leaving the bad entry in place",
                path.display()
            );
            return;
        }
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "cell".to_string());
        let dest = dir.join(format!(
            "{name}.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        // A concurrent process may have quarantined (or overwritten) the
        // entry first; a NotFound rename is then the desired end state.
        match std::fs::rename(path, &dest) {
            Ok(()) => {
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                event!(
                    Level::Warn,
                    "study.store",
                    {
                        path: path.display().to_string(),
                        quarantined: dest.display().to_string()
                    },
                    "{reason}; quarantined {} to {} and re-running the cell",
                    path.display(),
                    dest.display()
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => event!(
                Level::Warn,
                "study.store",
                { path: path.display().to_string() },
                "{reason}; quarantine of {} failed ({e}); re-running the cell",
                path.display()
            ),
        }
    }

    /// Loads the cell stored under `hash`, verifying that the file really
    /// holds that hash and `key`. A mismatch or parse failure is reported
    /// via `event!`, quarantined, and counted as a miss — a stale or
    /// corrupted entry is never silently served. An absent file is a plain
    /// miss; any *other* read failure (permissions, I/O) is additionally
    /// counted in [`ResultStore::read_errors`] and warned about, since it
    /// means a cell that may well be on disk is about to re-run.
    pub fn load(&self, hash: &str, key: &CellKey) -> Option<CellResult> {
        let path = self.cell_path(hash);
        let json = match std::fs::read_to_string(&path) {
            Ok(json) => json,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(e) => {
                event!(
                    Level::Warn,
                    "study.store",
                    { path: path.display().to_string(), kind: format!("{:?}", e.kind()) },
                    "result store read error at {} ({e}): this is NOT a plain miss — the \
                     cell may exist but could not be read; re-running it",
                    path.display()
                );
                self.read_errors.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let stored: StoredCell = match serde_json::from_str(&json) {
            Ok(stored) => stored,
            Err(e) => {
                self.quarantine(&path, &format!("unreadable cell in result store ({e})"));
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        if stored.config_hash != hash || stored.key != *key {
            self.quarantine(
                &path,
                &format!(
                    "result store hash mismatch (expected {hash}, file claims {} for {})",
                    stored.config_hash, stored.key
                ),
            );
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(stored.result)
    }

    /// Persists one completed cell under `hash`. The write goes through a
    /// temporary file unique to this writer (pid + per-process sequence
    /// number) and an atomic rename, so a killed study never leaves a
    /// half-written cell behind and concurrent saves of the same cell from
    /// different processes can never tear each other's bodies. If two
    /// writers race the final rename, the last one wins — benign, because
    /// the content-addressed key means both hold identical bytes.
    ///
    /// # Errors
    ///
    /// [`StudyError::Io`] / [`StudyError::Format`] on failure.
    pub fn save(&self, hash: &str, key: &CellKey, result: &CellResult) -> Result<(), StudyError> {
        let stored = StoredCell {
            version: env!("CARGO_PKG_VERSION").to_string(),
            config_hash: hash.to_string(),
            key: key.clone(),
            result: result.clone(),
        };
        let path = self.cell_path(hash);
        let tmp = self.root.join("cells").join(format!(
            "{hash}.json.tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, serde_json::to_string(&stored)?)?;
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        self.stores.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Cells served from disk so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found no valid entry.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cells written to disk so far.
    pub fn stores(&self) -> u64 {
        self.stores.load(Ordering::Relaxed)
    }

    /// Reads that failed for a reason other than the file being absent
    /// (each also counts as a miss; see [`ResultStore::load`]).
    pub fn read_errors(&self) -> u64 {
        self.read_errors.load(Ordering::Relaxed)
    }

    /// Corrupted or hash-mismatched entries moved to `cells/quarantine/`
    /// by this store handle.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softerr_inject::{CampaignResult, ClassCounts, SamplerKind, SamplingPlan};
    use softerr_sim::Structure;

    fn temp_store(tag: &str) -> ResultStore {
        let dir =
            std::env::temp_dir().join(format!("softerr-store-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ResultStore::open(dir).unwrap()
    }

    fn sample_cell() -> (CellKey, CellResult) {
        (
            CellKey {
                machine: "Cortex-A15-like".into(),
                workload: Workload::Qsort,
                level: OptLevel::O2,
            },
            CellResult {
                golden_cycles: 1234,
                golden_retired: 567,
                code_words: 89,
                campaigns: vec![CampaignResult {
                    structure: Structure::RegFile,
                    bit_population: 2048,
                    golden_cycles: 1234,
                    counts: ClassCounts {
                        masked: 9,
                        sdc: 1,
                        ..ClassCounts::default()
                    },
                    weight: 1.0,
                    live_population: None,
                }],
            },
        )
    }

    #[test]
    fn hash_covers_every_result_determining_parameter() {
        let base = StudyConfig::default();
        let machine = MachineConfig::cortex_a15();
        let h = |cfg: &StudyConfig| cell_config_hash(cfg, &machine, Workload::Sha, OptLevel::O1);
        let baseline = h(&base);
        assert_eq!(baseline, h(&base.clone()), "hash is deterministic");
        let mut c = base.clone();
        c.plan = SamplingPlan::fixed(c.plan.injections() + 1);
        assert_ne!(baseline, h(&c), "injections are keyed");
        let mut c = base.clone();
        c.plan = base.plan.sampler(SamplerKind::Importance);
        assert_ne!(baseline, h(&c), "sampler kind is keyed");
        let mut c = base.clone();
        c.plan = base.plan.prune(softerr_inject::PruneMode::Verify);
        assert_ne!(
            h(&StudyConfig {
                plan: base.plan.prune(softerr_inject::PruneMode::On),
                ..base.clone()
            }),
            h(&c),
            "verified cells key separately from unverified ones"
        );
        let mut c = base.clone();
        c.seed += 1;
        assert_ne!(baseline, h(&c), "seed is keyed");
        let mut c = base.clone();
        c.plan = base.plan.prune(softerr_inject::PruneMode::On);
        assert_ne!(baseline, h(&c), "prune mode is keyed");
        let mut c = base.clone();
        c.plan = base.plan.prune_static(softerr_inject::PruneMode::On);
        assert_ne!(baseline, h(&c), "static prune mode is keyed");
        let mut c = base.clone();
        c.plan = SamplingPlan::adaptive(0.0288, base.plan.injections());
        assert_ne!(baseline, h(&c), "adaptive-sampling target is keyed");
        let mut c = base.clone();
        c.plan = SamplingPlan::adaptive(0.05, base.plan.injections());
        assert_ne!(
            h(&StudyConfig {
                plan: SamplingPlan::adaptive(0.0288, base.plan.injections()),
                ..base.clone()
            }),
            h(&c),
            "different targets key differently"
        );
        let mut c = base.clone();
        c.scale = softerr_workloads::Scale::Full;
        assert_ne!(baseline, h(&c), "scale is keyed");
        let mut c = base.clone();
        c.structures.pop();
        assert_ne!(baseline, h(&c), "structure list is keyed");
        let mut c = base.clone();
        c.threads += 7;
        assert_eq!(
            baseline,
            h(&c),
            "thread count must NOT be keyed: campaigns are thread-count-invariant"
        );
        let mut c = base.clone();
        c.checkpoint = !c.checkpoint;
        assert_eq!(
            baseline,
            h(&c),
            "checkpoint mode must NOT be keyed: the convoy and the fresh engine agree"
        );
        assert_ne!(
            cell_config_hash(
                &base,
                &MachineConfig::cortex_a72(),
                Workload::Sha,
                OptLevel::O1
            ),
            baseline,
            "machine is keyed"
        );
        assert_ne!(
            cell_config_hash(&base, &machine, Workload::Fft, OptLevel::O1),
            baseline,
            "workload is keyed"
        );
        assert_ne!(
            cell_config_hash(&base, &machine, Workload::Sha, OptLevel::O3),
            baseline,
            "level is keyed"
        );
    }

    #[test]
    fn save_load_roundtrip_counts_hits() {
        let store = temp_store("roundtrip");
        let (key, result) = sample_cell();
        let hash = "00deadbeef00cafe";
        assert!(store.load(hash, &key).is_none());
        assert_eq!(store.misses(), 1);
        store.save(hash, &key, &result).unwrap();
        assert_eq!(store.stores(), 1);
        let loaded = store.load(hash, &key).expect("stored cell loads");
        assert_eq!(loaded, result);
        assert_eq!(store.hits(), 1);
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn mismatched_hash_is_a_miss_and_is_quarantined() {
        let store = temp_store("mismatch");
        let (key, result) = sample_cell();
        store.save("1111111111111111", &key, &result).unwrap();
        // Simulate a renamed/corrupted entry: the file exists under the
        // requested name but claims a different hash inside.
        std::fs::rename(
            store.root().join("cells/1111111111111111.json"),
            store.root().join("cells/2222222222222222.json"),
        )
        .unwrap();
        assert!(
            store.load("2222222222222222", &key).is_none(),
            "a hash-mismatched entry must never be served"
        );
        assert_eq!(store.hits(), 0);
        assert_eq!(store.misses(), 1);
        assert_eq!(store.quarantined(), 1);
        assert!(
            !store.root().join("cells/2222222222222222.json").exists(),
            "the mislabeled entry must be moved aside, not left to re-warn forever"
        );
        assert_eq!(
            std::fs::read_dir(store.root().join("cells/quarantine"))
                .unwrap()
                .count(),
            1,
            "quarantine holds the moved entry"
        );
        // The second lookup is a plain miss: the bad file is gone.
        assert!(store.load("2222222222222222", &key).is_none());
        assert_eq!(store.quarantined(), 1, "no double quarantine");
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn unparsable_entry_is_a_miss_and_is_quarantined() {
        let store = temp_store("corrupt");
        let (key, _) = sample_cell();
        std::fs::write(
            store.root().join("cells/3333333333333333.json"),
            "{not json",
        )
        .unwrap();
        assert!(store.load("3333333333333333", &key).is_none());
        assert_eq!(store.misses(), 1);
        assert_eq!(store.quarantined(), 1);
        assert!(!store.root().join("cells/3333333333333333.json").exists());
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn deeply_nested_entry_is_a_miss_and_is_quarantined() {
        let store = temp_store("nested");
        let (key, _) = sample_cell();
        let path = store.root().join("cells/4444444444444444.json");
        std::fs::write(&path, vec![b'['; 1 << 20]).unwrap();
        assert!(store.load("4444444444444444", &key).is_none());
        assert_eq!(store.misses(), 1);
        assert_eq!(store.quarantined(), 1);
        assert!(!path.exists());
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn absent_cell_is_a_plain_miss_not_a_read_error() {
        let store = temp_store("absent");
        let (key, _) = sample_cell();
        assert!(store.load("4444444444444444", &key).is_none());
        assert_eq!(store.misses(), 1);
        assert_eq!(store.read_errors(), 0, "NotFound is the normal cold path");
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn unreadable_cell_counts_as_a_read_error_not_a_plain_miss() {
        let store = temp_store("readerr");
        let (key, _) = sample_cell();
        // A directory where the cell file should be: read_to_string fails
        // with a non-NotFound kind, the shape of a permissions/IO failure.
        std::fs::create_dir(store.root().join("cells/5555555555555555.json")).unwrap();
        assert!(store.load("5555555555555555", &key).is_none());
        assert_eq!(store.misses(), 1, "still treated as a miss (cell re-runs)");
        assert_eq!(
            store.read_errors(),
            1,
            "but surfaced as a real error, not silently conflated with absence"
        );
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn concurrent_same_cell_saves_never_tear() {
        // Many threads save the same cell simultaneously; every writer
        // goes through its own tmp path, so the final file must always be
        // a complete, verifiable copy and no tmp litter can remain.
        let store = temp_store("race");
        let (key, result) = sample_cell();
        let hash = "6666666666666666";
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        store.save(hash, &key, &result).unwrap();
                    }
                });
            }
        });
        assert_eq!(store.stores(), 200);
        let loaded = store.load(hash, &key).expect("racing saves never tear");
        assert_eq!(loaded, result);
        assert_eq!(store.quarantined(), 0);
        let litter: Vec<String> = std::fs::read_dir(store.root().join("cells"))
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp"))
            .collect();
        assert!(litter.is_empty(), "tmp litter left behind: {litter:?}");
        std::fs::remove_dir_all(store.root()).ok();
    }
}
