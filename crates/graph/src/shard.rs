//! Sharded graph store: one durable shard per home, plus a manifest.
//!
//! The batch store ([`crate::store`]) serializes a whole corpus into one
//! envelope — fine for experiments, useless for millions of homes where a
//! single rule change would rewrite gigabytes. [`ShardedStore`] splits the
//! corpus by home: each home's graphs live in their own compact GLINTDUR
//! envelope (`shard-<home>.glint`), and a bare-JSON `MANIFEST.json` records
//! the live shard set with a per-shard payload CRC.
//!
//! Failure containment is per shard: a flipped bit or torn write in one
//! shard file surfaces as a typed [`ShardError`] for that home only —
//! [`ShardedStore::load_all`] still returns every other home's data. The
//! manifest CRC additionally catches *stale* shards (an old generation
//! renamed into place), which the envelope's internal checksum cannot see.
//!
//! Three fail-point sites cover the mutation surface: [`SITE_SHARD_SAVE`]
//! (shard envelope + manifest writes), [`SITE_SHARD_LOAD`] (shard reads),
//! and [`SITE_SHARD_COMPACT`] (orphan sweep + manifest rewrite).

use crate::dataset::GraphDataset;
use glint_failpoint::durable::{self, DurableError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Envelope kind tag for shard payloads.
pub const SHARD_KIND: &str = "glint-shard";
/// Current shard payload format version.
pub const SHARD_VERSION: u32 = 1;
/// Manifest file name inside the store directory.
pub const MANIFEST_FILE: &str = "MANIFEST.json";
/// Current manifest format version (the manifest's `glint_shard_manifest`
/// field).
pub const MANIFEST_VERSION: u64 = 1;
/// Fail-point site hit by shard and manifest writes in [`ShardedStore::save_shard`]
/// and [`ShardedStore::remove_shard`].
pub const SITE_SHARD_SAVE: &str = "shard.save";
/// Fail-point site hit by [`ShardedStore::load_shard`] / [`ShardedStore::load_all`].
pub const SITE_SHARD_LOAD: &str = "shard.load";
/// Fail-point site hit by [`ShardedStore::compact`].
pub const SITE_SHARD_COMPACT: &str = "shard.compact";

/// Why a shard operation failed. Every variant names the damage precisely;
/// none of them poisons the rest of the store.
#[derive(Debug)]
pub enum ShardError {
    /// Filesystem failure (including injected faults).
    Io(std::io::Error),
    /// Shard envelope failure: truncation, checksum, kind, version.
    Envelope(DurableError),
    /// The shard payload verified but does not decode to a dataset.
    Decode(String),
    /// The shard decoded but holds a structurally invalid graph.
    InvalidGraph {
        home: u64,
        index: usize,
        reason: String,
    },
    /// The store directory has no readable manifest.
    ManifestMissing(PathBuf),
    /// The manifest file exists but is not a valid shard manifest.
    ManifestCorrupt(String),
    /// No shard is registered for this home.
    UnknownShard(u64),
    /// The shard file verified internally but is a different generation
    /// than the manifest records (e.g. an old file restored into place).
    StaleShard {
        home: u64,
        expected_crc: u32,
        actual_crc: u32,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard io error: {e}"),
            ShardError::Envelope(e) => write!(f, "shard envelope error: {e}"),
            ShardError::Decode(why) => write!(f, "shard decode error: {why}"),
            ShardError::InvalidGraph {
                home,
                index,
                reason,
            } => write!(f, "shard for home {home}: graph {index} is invalid: {reason}"),
            ShardError::ManifestMissing(dir) => {
                write!(f, "no shard manifest in {}", dir.display())
            }
            ShardError::ManifestCorrupt(why) => write!(f, "shard manifest is corrupt: {why}"),
            ShardError::UnknownShard(home) => write!(f, "no shard registered for home {home}"),
            ShardError::StaleShard {
                home,
                expected_crc,
                actual_crc,
            } => write!(
                f,
                "shard for home {home} is stale: manifest records payload crc {expected_crc:08x}, file holds {actual_crc:08x}"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

impl From<DurableError> for ShardError {
    fn from(e: DurableError) -> Self {
        match e {
            DurableError::Io(io) => ShardError::Io(io),
            other => ShardError::Envelope(other),
        }
    }
}

/// One live shard as recorded by the manifest.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShardEntry {
    /// Shard key: the simulated home (tenant) this shard belongs to.
    pub home: u64,
    /// File name inside the store directory.
    pub file: String,
    /// CRC-32 of the shard's JSON payload — the generation fingerprint.
    pub crc32: u32,
    /// Number of graphs in the shard.
    pub graphs: usize,
    /// Platforms present in the shard (the home/platform shard axis).
    pub platforms: Vec<String>,
}

/// The manifest: format version + the live shard set, sorted by home.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Always [`MANIFEST_VERSION`]; [`ShardedStore::open`] refuses any
    /// other value.
    pub glint_shard_manifest: u64,
    pub entries: Vec<ShardEntry>,
}

impl Default for Manifest {
    fn default() -> Self {
        Self {
            glint_shard_manifest: MANIFEST_VERSION,
            entries: Vec::new(),
        }
    }
}

/// Result of a whole-store sweep: per-home datasets that loaded cleanly,
/// plus the confined damage report for the rest.
#[derive(Debug, Default)]
pub struct ShardSweep {
    pub loaded: BTreeMap<u64, GraphDataset>,
    pub damaged: Vec<(u64, ShardError)>,
}

/// What [`ShardedStore::compact`] did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Manifest entries whose files verified.
    pub live: usize,
    /// Shard files present on disk but absent from the manifest, removed.
    pub removed_orphans: usize,
    /// Leftover temp files from interrupted writes, removed.
    pub removed_temps: usize,
    /// Entries whose files are damaged or missing (kept in the manifest so
    /// the owner can repair or re-save them; compaction never drops data).
    pub damaged: Vec<u64>,
}

fn shard_file_name(home: u64) -> String {
    format!("shard-{home}.glint")
}

/// A directory of per-home graph shards with a manifest.
#[derive(Debug)]
pub struct ShardedStore {
    dir: PathBuf,
    manifest: Manifest,
}

impl ShardedStore {
    /// Create an empty store (fresh manifest) at `dir`, creating the
    /// directory if needed. Refuses to clobber an existing manifest.
    pub fn create(dir: impl AsRef<Path>) -> Result<Self, ShardError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        if dir.join(MANIFEST_FILE).exists() {
            return Err(ShardError::ManifestCorrupt(format!(
                "{} already holds a manifest; open it instead",
                dir.display()
            )));
        }
        let store = Self {
            dir,
            manifest: Manifest::default(),
        };
        store.write_manifest(SITE_SHARD_SAVE)?;
        Ok(store)
    }

    /// Open an existing store by reading its manifest.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, ShardError> {
        let dir = dir.as_ref().to_path_buf();
        let manifest_path = dir.join(MANIFEST_FILE);
        let bytes = match std::fs::read(&manifest_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(ShardError::ManifestMissing(dir));
            }
            Err(e) => return Err(e.into()),
        };
        let manifest: Manifest = serde_json::from_slice(&bytes)
            .map_err(|e| ShardError::ManifestCorrupt(format!("parse: {e}")))?;
        if manifest.glint_shard_manifest != MANIFEST_VERSION {
            return Err(ShardError::ManifestCorrupt(format!(
                "manifest version {} is not the supported {MANIFEST_VERSION}",
                manifest.glint_shard_manifest
            )));
        }
        Ok(Self { dir, manifest })
    }

    /// Open if a manifest exists, otherwise create a fresh store.
    pub fn open_or_create(dir: impl AsRef<Path>) -> Result<Self, ShardError> {
        let dir = dir.as_ref();
        if dir.join(MANIFEST_FILE).exists() {
            Self::open(dir)
        } else {
            Self::create(dir)
        }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Homes with a live shard, ascending.
    pub fn homes(&self) -> Vec<u64> {
        self.manifest.entries.iter().map(|e| e.home).collect()
    }

    pub fn len(&self) -> usize {
        self.manifest.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.manifest.entries.is_empty()
    }

    /// Manifest entry for a home, if registered.
    pub fn entry(&self, home: u64) -> Option<&ShardEntry> {
        self.manifest.entries.iter().find(|e| e.home == home)
    }

    fn write_manifest(&self, site: &str) -> Result<(), ShardError> {
        let json = serde_json::to_vec(&self.manifest)
            .map_err(|e| ShardError::Decode(format!("serialize manifest: {e}")))?;
        // the manifest is a bare JSON file: the envelope's atomic write
        // without its header
        durable::write_atomic(site, &self.dir.join(MANIFEST_FILE), &json)?;
        Ok(())
    }

    /// Write (or replace) one home's shard, then update the manifest. Both
    /// writes are atomic and hit [`SITE_SHARD_SAVE`]; a fault between them
    /// leaves the shard newer than the manifest, which the next
    /// [`Self::load_shard`] reports as [`ShardError::StaleShard`] — the
    /// recovery is simply to re-save the shard.
    pub fn save_shard(&mut self, home: u64, dataset: &GraphDataset) -> Result<(), ShardError> {
        let payload = serde_json::to_vec(dataset)
            .map_err(|e| ShardError::Decode(format!("serialize: {e}")))?;
        let file = shard_file_name(home);
        durable::write_durable(
            SITE_SHARD_SAVE,
            self.dir.join(&file),
            SHARD_KIND,
            SHARD_VERSION,
            &payload,
        )?;
        let mut platforms: Vec<String> = dataset
            .iter()
            .flat_map(|g| g.platforms())
            .map(|p| format!("{p:?}"))
            .collect();
        platforms.sort_unstable();
        platforms.dedup();
        let entry = ShardEntry {
            home,
            file,
            crc32: durable::crc32(&payload),
            graphs: dataset.len(),
            platforms,
        };
        match self
            .manifest
            .entries
            .binary_search_by_key(&home, |e| e.home)
        {
            Ok(i) => self.manifest.entries[i] = entry,
            Err(i) => self.manifest.entries.insert(i, entry),
        }
        self.write_manifest(SITE_SHARD_SAVE)
    }

    /// Load and verify one home's shard. Hits [`SITE_SHARD_LOAD`].
    pub fn load_shard(&self, home: u64) -> Result<GraphDataset, ShardError> {
        glint_failpoint::trigger(SITE_SHARD_LOAD)?;
        let Some(entry) = self.entry(home) else {
            return Err(ShardError::UnknownShard(home));
        };
        let (_version, payload) =
            durable::read_durable(self.dir.join(&entry.file), SHARD_KIND, SHARD_VERSION)?;
        let actual_crc = durable::crc32(&payload);
        if actual_crc != entry.crc32 {
            return Err(ShardError::StaleShard {
                home,
                expected_crc: entry.crc32,
                actual_crc,
            });
        }
        let dataset: GraphDataset = serde_json::from_slice(&payload)
            .map_err(|e| ShardError::Decode(format!("parse: {e}")))?;
        for (index, graph) in dataset.graphs().iter().enumerate() {
            if let Err(reason) = graph.validate() {
                return Err(ShardError::InvalidGraph {
                    home,
                    index,
                    reason,
                });
            }
        }
        Ok(dataset)
    }

    /// Load every registered shard. Damage stays confined: a corrupt,
    /// truncated, stale, or missing shard contributes a typed error for its
    /// home while every healthy shard still loads.
    pub fn load_all(&self) -> ShardSweep {
        let mut sweep = ShardSweep::default();
        for entry in &self.manifest.entries {
            match self.load_shard(entry.home) {
                Ok(ds) => {
                    sweep.loaded.insert(entry.home, ds);
                }
                Err(e) => sweep.damaged.push((entry.home, e)),
            }
        }
        sweep
    }

    /// Drop a home's shard: delete the file and update the manifest.
    /// Returns whether the home had a shard. Hits [`SITE_SHARD_SAVE`] (the
    /// manifest rewrite is the durable step; file deletion is best-effort
    /// and re-run by [`Self::compact`] as an orphan sweep).
    pub fn remove_shard(&mut self, home: u64) -> Result<bool, ShardError> {
        let Ok(i) = self
            .manifest
            .entries
            .binary_search_by_key(&home, |e| e.home)
        else {
            return Ok(false);
        };
        let entry = self.manifest.entries.remove(i);
        let result = self.write_manifest(SITE_SHARD_SAVE);
        if let Err(e) = result {
            // roll the in-memory view back so state matches the disk manifest
            self.manifest.entries.insert(i, entry);
            return Err(e);
        }
        let _ = std::fs::remove_file(self.dir.join(&entry.file));
        Ok(true)
    }

    /// Compact the store: sweep orphan shard files and interrupted-write
    /// temp files, re-verify every live entry, and rewrite the manifest.
    /// Damaged entries are reported, never silently dropped. Hits
    /// [`SITE_SHARD_COMPACT`].
    pub fn compact(&mut self) -> Result<CompactReport, ShardError> {
        glint_failpoint::trigger(SITE_SHARD_COMPACT)?;
        let mut report = CompactReport::default();
        let live: BTreeMap<String, u64> = self
            .manifest
            .entries
            .iter()
            .map(|e| (e.file.clone(), e.home))
            .collect();
        for dir_entry in std::fs::read_dir(&self.dir)? {
            let dir_entry = dir_entry?;
            let name = dir_entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".glint-tmp") {
                std::fs::remove_file(dir_entry.path())?;
                report.removed_temps += 1;
            } else if name.starts_with("shard-")
                && name.ends_with(".glint")
                && !live.contains_key(&name)
            {
                std::fs::remove_file(dir_entry.path())?;
                report.removed_orphans += 1;
            }
        }
        for entry in &self.manifest.entries {
            match self.load_shard(entry.home) {
                Ok(_) => report.live += 1,
                Err(_) => report.damaged.push(entry.home),
            }
        }
        self.write_manifest(SITE_SHARD_COMPACT)?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeKind, GraphLabel, InteractionGraph, Node};
    use glint_rules::{Platform, RuleId};

    fn sample_dataset(rule_id: u32) -> GraphDataset {
        let mut g = InteractionGraph::new(vec![
            Node {
                rule_id: RuleId(rule_id),
                platform: Platform::Ifttt,
                features: vec![1.0, 2.0],
            },
            Node {
                rule_id: RuleId(rule_id + 1),
                platform: Platform::Alexa,
                features: vec![3.0],
            },
        ]);
        g.add_edge(0, 1, EdgeKind::ActionTrigger);
        let mut ds = GraphDataset::new();
        ds.push(g.with_label(GraphLabel::Normal));
        ds
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("glint_shard_tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_and_manifest_bookkeeping() {
        let dir = tmp_dir("round_trip");
        let mut store = ShardedStore::create(&dir).unwrap();
        store.save_shard(3, &sample_dataset(30)).unwrap();
        store.save_shard(1, &sample_dataset(10)).unwrap();
        assert_eq!(store.homes(), vec![1, 3], "manifest sorted by home");
        let reopened = ShardedStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        let ds = reopened.load_shard(3).unwrap();
        assert_eq!(ds.graphs()[0], sample_dataset(30).graphs()[0]);
        assert!(matches!(
            reopened.load_shard(99),
            Err(ShardError::UnknownShard(99))
        ));
    }

    #[test]
    fn resave_replaces_generation() {
        let dir = tmp_dir("resave");
        let mut store = ShardedStore::create(&dir).unwrap();
        store.save_shard(7, &sample_dataset(1)).unwrap();
        let first_crc = store.entry(7).unwrap().crc32;
        store.save_shard(7, &sample_dataset(5)).unwrap();
        assert_ne!(store.entry(7).unwrap().crc32, first_crc);
        assert_eq!(store.len(), 1, "resave must not duplicate the entry");
        let ds = store.load_shard(7).unwrap();
        assert_eq!(ds.graphs()[0].node(0).rule_id, RuleId(5));
    }

    #[test]
    fn remove_then_compact_sweeps_the_file() {
        let dir = tmp_dir("remove");
        let mut store = ShardedStore::create(&dir).unwrap();
        store.save_shard(1, &sample_dataset(1)).unwrap();
        store.save_shard(2, &sample_dataset(3)).unwrap();
        assert!(store.remove_shard(1).unwrap());
        assert!(!store.remove_shard(1).unwrap(), "idempotent remove");
        assert_eq!(store.homes(), vec![2]);
        // leave an orphan behind by writing a file the manifest never saw
        std::fs::write(dir.join("shard-42.glint"), b"junk").unwrap();
        let report = store.compact().unwrap();
        assert_eq!(report.live, 1);
        assert_eq!(report.removed_orphans, 1);
        assert!(report.damaged.is_empty());
        assert!(!dir.join("shard-42.glint").exists());
    }

    #[test]
    fn stale_shard_detected_by_manifest_crc() {
        let dir = tmp_dir("stale");
        let mut store = ShardedStore::create(&dir).unwrap();
        store.save_shard(4, &sample_dataset(1)).unwrap();
        let old_bytes = std::fs::read(dir.join(shard_file_name(4))).unwrap();
        store.save_shard(4, &sample_dataset(9)).unwrap();
        // restore the previous generation behind the manifest's back
        std::fs::write(dir.join(shard_file_name(4)), old_bytes).unwrap();
        assert!(matches!(
            store.load_shard(4),
            Err(ShardError::StaleShard { home: 4, .. })
        ));
    }

    #[test]
    fn open_missing_and_corrupt_manifests_are_typed() {
        let dir = tmp_dir("manifests");
        assert!(matches!(
            ShardedStore::open(&dir),
            Err(ShardError::ManifestMissing(_))
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), b"]] not json").unwrap();
        assert!(matches!(
            ShardedStore::open(&dir),
            Err(ShardError::ManifestCorrupt(_))
        ));
        std::fs::write(
            dir.join(MANIFEST_FILE),
            b"{\"glint_shard_manifest\":99,\"entries\":[]}",
        )
        .unwrap();
        assert!(matches!(
            ShardedStore::open(&dir),
            Err(ShardError::ManifestCorrupt(_))
        ));
    }
}
