//! The filesystem tier: a directory of immutable archives shared by any
//! number of processes, written once via atomic rename and thereafter
//! mapped read-only.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use archrel_markov::SolvePlan;

use crate::error::StoreError;
use crate::format::{decode_bundle, decode_plan, encode_bundle, encode_plan, FORMAT_VERSION};
use crate::mapped::map_file;

/// Environment variable naming the shared artifact directory. Empty means
/// unset (the store stays off).
pub const ENV_ARTIFACT_DIR: &str = "ARCHREL_ARTIFACT_DIR";
/// Environment variable selecting the [`ArtifactMode`]; defaults to
/// `readwrite` when [`ENV_ARTIFACT_DIR`] is set.
pub const ENV_ARTIFACT_MODE: &str = "ARCHREL_ARTIFACT_MODE";

/// How the evaluation pipeline uses the artifact directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactMode {
    /// The store is inert: no reads, no writes.
    Off,
    /// Load archived artifacts, never write new ones — the safe mode for
    /// many processes sharing one warmed directory.
    Read,
    /// Load archived artifacts and publish freshly compiled ones.
    ReadWrite,
}

impl ArtifactMode {
    /// Parses `off` / `read` / `readwrite` (case-sensitive, matching the
    /// other `ARCHREL_*` variables).
    pub fn parse(s: &str) -> Option<ArtifactMode> {
        match s {
            "off" => Some(ArtifactMode::Off),
            "read" => Some(ArtifactMode::Read),
            "readwrite" => Some(ArtifactMode::ReadWrite),
            _ => None,
        }
    }

    /// Whether this mode loads archives.
    pub fn reads(self) -> bool {
        !matches!(self, ArtifactMode::Off)
    }

    /// Whether this mode publishes archives.
    pub fn writes(self) -> bool {
        matches!(self, ArtifactMode::ReadWrite)
    }
}

/// Counter snapshot of one store's traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Archives loaded and validated successfully.
    pub hits: u64,
    /// Lookups that found no archive on disk.
    pub misses: u64,
    /// Archives present but rejected by validation (corrupt, wrong
    /// version, wrong build, hostile framing, …).
    pub validate_rejects: u64,
    /// Archives published by this store.
    pub writes: u64,
}

/// A shared directory of compiled-plan and program-bundle archives.
///
/// All methods take `&self`; the store is safe to share across threads
/// (`Arc<ArtifactStore>`) and across processes pointed at the same
/// directory. Publication goes through a process-unique temp file followed
/// by [`fs::rename`], so concurrent readers only ever observe complete
/// archives — never a torn write.
pub struct ArtifactStore {
    dir: PathBuf,
    mode: ArtifactMode,
    hits: AtomicU64,
    misses: AtomicU64,
    validate_rejects: AtomicU64,
    writes: AtomicU64,
    /// Bundles already loaded or published this run, to skip repeat disk
    /// traffic for the same assembly digest.
    bundles: Mutex<HashMap<u64, Vec<u64>>>,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("dir", &self.dir)
            .field("mode", &self.mode)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ArtifactStore {
    /// Opens (and in a writing mode, creates) the artifact directory.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when a writing mode cannot create the directory.
    pub fn open(dir: impl Into<PathBuf>, mode: ArtifactMode) -> Result<ArtifactStore, StoreError> {
        let dir = dir.into();
        if mode.writes() {
            fs::create_dir_all(&dir)?;
        }
        Ok(ArtifactStore {
            dir,
            mode,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            validate_rejects: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            bundles: Mutex::new(HashMap::new()),
        })
    }

    /// Builds a store from `ARCHREL_ARTIFACT_DIR` / `ARCHREL_ARTIFACT_MODE`,
    /// or `None` when the directory variable is unset or empty.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized mode value, or when a non-`off` mode is
    /// requested without a directory — misconfiguration is a hard error,
    /// matching the other `ARCHREL_*` variables.
    pub fn from_env() -> Option<Arc<ArtifactStore>> {
        let dir = std::env::var(ENV_ARTIFACT_DIR)
            .ok()
            .filter(|v| !v.is_empty());
        let mode = std::env::var(ENV_ARTIFACT_MODE)
            .ok()
            .filter(|v| !v.is_empty())
            .map(|v| {
                ArtifactMode::parse(&v).unwrap_or_else(|| {
                    panic!("{ENV_ARTIFACT_MODE} must be off, read, or readwrite, got {v:?}")
                })
            });
        match (dir, mode) {
            (Some(dir), mode) => {
                let mode = mode.unwrap_or(ArtifactMode::ReadWrite);
                if mode == ArtifactMode::Off {
                    return None;
                }
                let store = ArtifactStore::open(&dir, mode)
                    .unwrap_or_else(|e| panic!("{ENV_ARTIFACT_DIR}={dir:?} cannot be opened: {e}"));
                Some(Arc::new(store))
            }
            (None, Some(mode)) if mode != ArtifactMode::Off => {
                panic!("{ENV_ARTIFACT_MODE} requires {ENV_ARTIFACT_DIR} to be set")
            }
            (None, _) => None,
        }
    }

    /// Read-only boot path for long-running daemons: opens an *existing*
    /// artifact directory in [`ArtifactMode::Read`], so archived plans
    /// satisfy cache misses but nothing a client uploads can ever be
    /// published back. Returns `None` when the directory does not exist —
    /// a daemon booting against an empty store simply runs cold.
    pub fn open_read_only(dir: impl Into<PathBuf>) -> Option<Arc<ArtifactStore>> {
        let dir = dir.into();
        if !dir.is_dir() {
            return None;
        }
        ArtifactStore::open(dir, ArtifactMode::Read)
            .ok()
            .map(Arc::new)
    }

    /// The directory this store reads from and publishes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured mode.
    pub fn mode(&self) -> ArtifactMode {
        self.mode
    }

    /// Path of the archive for a plan fingerprint. Public so corruption
    /// tests can damage archives in place.
    pub fn plan_path(&self, fingerprint: u64) -> PathBuf {
        self.dir
            .join(format!("plan-{fingerprint:016x}.v{FORMAT_VERSION}.arst"))
    }

    /// Path of the archive for a program-bundle digest.
    pub fn bundle_path(&self, digest: u64) -> PathBuf {
        self.dir
            .join(format!("bundle-{digest:016x}.v{FORMAT_VERSION}.arst"))
    }

    fn open_backing(&self, path: &Path) -> Result<crate::mapped::Backing, StoreError> {
        let file = fs::File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| StoreError::BadSection {
            section: 0,
            reason: "file too large for this platform",
        })?;
        Ok(map_file(&file, len)?)
    }

    /// Loads and fully validates the archived plan for `fingerprint`.
    ///
    /// This is the typed entry point used by tests; the evaluation pipeline
    /// goes through [`ArtifactStore::load_plan`], which folds errors into
    /// counters.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] (not-found included) or any validation variant.
    pub fn read_plan(&self, fingerprint: u64) -> Result<SolvePlan, StoreError> {
        let backing = self.open_backing(&self.plan_path(fingerprint))?;
        decode_plan(backing, fingerprint)
    }

    /// Counter-folding load: `Some(plan)` on a validated hit, `None` on
    /// miss or rejection (the caller falls back to fresh compilation).
    pub fn load_plan(&self, fingerprint: u64) -> Option<SolvePlan> {
        if !self.mode.reads() {
            return None;
        }
        match self.read_plan(fingerprint) {
            Ok(plan) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(plan)
            }
            Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(_) => {
                self.validate_rejects.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn publish(&self, path: &Path, bytes: &[u8]) -> Result<bool, StoreError> {
        if path.exists() {
            return Ok(false);
        }
        // The temp-name counter is process-global, not per-store: two
        // stores opened on the same directory in one process must never
        // share a temp file, or concurrent publications could tear.
        static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, bytes)?;
        match fs::rename(&tmp, path) {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                Ok(true)
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e.into())
            }
        }
    }

    /// Publishes a compiled plan; returns `false` when the mode does not
    /// write or an archive for this fingerprint already exists.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the temp write or rename fails.
    pub fn store_plan(&self, plan: &SolvePlan) -> Result<bool, StoreError> {
        if !self.mode.writes() {
            return Ok(false);
        }
        self.publish(&self.plan_path(plan.fingerprint()), &encode_plan(plan))
    }

    /// Loads the plan fingerprints pinned by the program bundle `digest`,
    /// or `None` on miss/rejection. Results are memoized per digest.
    pub fn load_bundle(&self, digest: u64) -> Option<Vec<u64>> {
        if !self.mode.reads() {
            return None;
        }
        if let Some(fps) = self.bundles.lock().unwrap().get(&digest) {
            return Some(fps.clone());
        }
        let result = self
            .open_backing(&self.bundle_path(digest))
            .and_then(|b| decode_bundle(b, digest));
        match result {
            Ok(fps) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.bundles.lock().unwrap().insert(digest, fps.clone());
                Some(fps)
            }
            Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(_) => {
                self.validate_rejects.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Publishes a program bundle; deduplicated per digest per store.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the temp write or rename fails.
    pub fn store_bundle(&self, digest: u64, fingerprints: &[u64]) -> Result<bool, StoreError> {
        if !self.mode.writes() {
            return Ok(false);
        }
        {
            let mut seen = self.bundles.lock().unwrap();
            if seen.contains_key(&digest) {
                return Ok(false);
            }
            seen.insert(digest, fingerprints.to_vec());
        }
        self.publish(
            &self.bundle_path(digest),
            &encode_bundle(digest, fingerprints),
        )
    }

    /// Current counter values.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            validate_rejects: self.validate_rejects.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archrel_markov::DtmcBuilder;
    use std::sync::atomic::AtomicU32;

    static TEMP_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_store_dir() -> PathBuf {
        std::env::temp_dir().join(format!(
            "archrel-store-unit-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_plan() -> (SolvePlan, Vec<f64>) {
        let chain = DtmcBuilder::new()
            .transition("s", "a", 0.7)
            .transition("s", "fail", 0.3)
            .transition("a", "end", 0.95)
            .transition("a", "fail", 0.05)
            .build()
            .unwrap();
        let plan = SolvePlan::compile(&chain, &"s", &"end").unwrap().unwrap();
        let params = plan.parameters(&chain).unwrap();
        (plan, params)
    }

    #[test]
    fn store_round_trip_counts_miss_write_hit() {
        let dir = temp_store_dir();
        let store = ArtifactStore::open(&dir, ArtifactMode::ReadWrite).unwrap();
        let (plan, params) = sample_plan();

        assert!(store.load_plan(plan.fingerprint()).is_none());
        assert!(store.store_plan(&plan).unwrap());
        // Second publish is a no-op: the archive already exists.
        assert!(!store.store_plan(&plan).unwrap());
        let loaded = store.load_plan(plan.fingerprint()).unwrap();
        assert!(loaded.is_zero_copy());
        assert_eq!(
            loaded.evaluate(&params).unwrap().to_bits(),
            plan.evaluate(&params).unwrap().to_bits()
        );
        assert_eq!(
            store.stats(),
            StoreStats {
                hits: 1,
                misses: 1,
                validate_rejects: 0,
                writes: 1,
            }
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_mode_never_writes() {
        let dir = temp_store_dir();
        fs::create_dir_all(&dir).unwrap();
        let store = ArtifactStore::open(&dir, ArtifactMode::Read).unwrap();
        let (plan, _) = sample_plan();
        assert!(!store.store_plan(&plan).unwrap());
        assert!(!store.plan_path(plan.fingerprint()).exists());
        assert!(!store.store_bundle(1, &[2, 3]).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_archive_is_rejected_and_counted() {
        let dir = temp_store_dir();
        let store = ArtifactStore::open(&dir, ArtifactMode::ReadWrite).unwrap();
        let (plan, _) = sample_plan();
        store.store_plan(&plan).unwrap();

        let path = store.plan_path(plan.fingerprint());
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        assert!(store.load_plan(plan.fingerprint()).is_none());
        assert_eq!(store.stats().validate_rejects, 1);
        assert!(matches!(
            store.read_plan(plan.fingerprint()),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bundles_round_trip_and_memoize() {
        let dir = temp_store_dir();
        let store = ArtifactStore::open(&dir, ArtifactMode::ReadWrite).unwrap();
        let fps = vec![10u64, 20, 30];
        assert!(store.load_bundle(42).is_none());
        assert!(store.store_bundle(42, &fps).unwrap());
        assert!(!store.store_bundle(42, &fps).unwrap());
        assert_eq!(store.load_bundle(42).unwrap(), fps);

        // A second store over the same directory reads it from disk.
        let other = ArtifactStore::open(&dir, ArtifactMode::Read).unwrap();
        assert_eq!(other.load_bundle(42).unwrap(), fps);
        assert_eq!(other.stats().hits, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(ArtifactMode::parse("off"), Some(ArtifactMode::Off));
        assert_eq!(ArtifactMode::parse("read"), Some(ArtifactMode::Read));
        assert_eq!(
            ArtifactMode::parse("readwrite"),
            Some(ArtifactMode::ReadWrite)
        );
        assert_eq!(ArtifactMode::parse("ReadWrite"), None);
        assert!(!ArtifactMode::Off.reads());
        assert!(ArtifactMode::Read.reads() && !ArtifactMode::Read.writes());
        assert!(ArtifactMode::ReadWrite.writes());
    }
}
