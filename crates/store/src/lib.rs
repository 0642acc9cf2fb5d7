//! # crisp-store
//!
//! A crash-safe, content-addressed result store for sweep cells. Each
//! entry is one cell's result payload, keyed by a 128-bit FNV-1a hash of
//! the cell's canonical key material (spec fingerprint, workload id,
//! result-schema version, binary semver — assembled by the harness) and
//! stored under `objects/<hh>/<32-hex-key>.cell` in a versioned,
//! CRC-checked container (see [`entry`]).
//!
//! Robustness invariants:
//!
//! - **publication is atomic** — tmp + fsync + rename + directory sync;
//!   a SIGKILL mid-write leaves debris, never a torn entry under a real
//!   name;
//! - **corruption is quarantined, never served** — any integrity failure
//!   on read moves the entry to `quarantine/` and reports a miss, so the
//!   cell is transparently re-simulated;
//! - **concurrent sweeps coordinate, not conflict** — per-cell lock
//!   files held through kernel file locks ([`lock`]) serialize
//!   simulation of one cell across processes; the kernel releases a lock
//!   when its holder's process ends, and atomic publication keeps even a
//!   lost lock benign.
//!
//! Layout under the store root:
//!
//! ```text
//! store/
//!   objects/<hh>/<key>.cell    entries (hh = first two hex digits)
//!   objects/<hh>/<key>.touch   advisory access stamps (hits, last use)
//!   quarantine/                corrupt entries, preserved for forensics
//!   locks/<key>.lock           per-cell lock files (kept after release)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod entry;
pub mod hash;
pub mod lock;

pub use entry::{decode_entry, encode_entry, read_entry, write_entry, CellEntry, STORE_VERSION};
pub use hash::{fnv1a128, key_hex, parse_key};
pub use lock::{try_lock, CellLock};

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, SystemTime};

/// Writes `bytes` to `path` atomically — the one crash-safe write the
/// workspace's on-disk formats share (store entries and the daemon's job
/// records). The bytes are assembled under a `.tmp` name unique to the
/// call, `sync_data`'d, renamed over `path`, and the parent
/// directory is `sync_all`'d so the rename itself is durable. A SIGKILL
/// at any point leaves either the previous file or an orphaned `.tmp` —
/// never a torn file under the real name. Two writers of the same path,
/// in two processes or two threads of one, never clobber each other's
/// half-written bytes; the loser's rename just republishes its own
/// complete content.
///
/// # Errors
///
/// [`StoreError::Io`] naming the failed step and the path it touched.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    use std::io::Write as _;
    let tmp = tmp_path(path);
    let mut file = std::fs::File::create(&tmp).map_err(|e| StoreError::io(&tmp, "create", &e))?;
    file.write_all(bytes)
        .map_err(|e| StoreError::io(&tmp, "write", &e))?;
    file.sync_data()
        .map_err(|e| StoreError::io(&tmp, "fsync", &e))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| StoreError::io(path, "rename", &e))?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// The temp name [`write_atomic`] assembles under: `<name>.tmp.<pid>.<n>`,
/// where `n` counts this process's calls.
fn tmp_path(path: &Path) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}.{seq}", std::process::id()));
    path.with_file_name(name)
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`, as the entry container
/// uses it.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Why a store operation failed or an entry was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem failure (create, read, write, fsync, rename, scan).
    Io {
        /// The path involved.
        path: PathBuf,
        /// The OS error, contextualised.
        message: String,
    },
    /// The file ends before (or extends past) its declared content.
    Torn {
        /// The entry path.
        path: PathBuf,
        /// Where the truncation or overrun was detected.
        detail: String,
    },
    /// The file does not start with the entry magic.
    BadMagic {
        /// The entry path.
        path: PathBuf,
    },
    /// The file uses a different container format version.
    VersionMismatch {
        /// The entry path.
        path: PathBuf,
        /// Version found in the file.
        found: u64,
        /// Version this build writes and reads.
        expected: u64,
    },
    /// The entry's recorded key does not match its content address —
    /// a renamed file or drifted addressing, not bit rot.
    KeyMismatch {
        /// The entry path.
        path: PathBuf,
        /// Key recorded inside the file.
        found: u128,
        /// Key derived from the file's address.
        expected: u128,
    },
    /// The header region failed its CRC — bit-level corruption.
    HeaderCrc {
        /// The entry path.
        path: PathBuf,
    },
    /// The payload failed its CRC — bit-level corruption.
    PayloadCrc {
        /// The entry path.
        path: PathBuf,
    },
}

impl StoreError {
    pub(crate) fn io(path: &Path, what: &str, e: &std::io::Error) -> StoreError {
        StoreError::Io {
            path: path.to_path_buf(),
            message: format!("{what} failed: {e}"),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, message } => {
                write!(f, "store {}: {message}", path.display())
            }
            StoreError::Torn { path, detail } => {
                write!(f, "store entry {} is torn ({detail})", path.display())
            }
            StoreError::BadMagic { path } => {
                write!(f, "store entry {}: not a cell entry", path.display())
            }
            StoreError::VersionMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "store entry {}: container version {found}, this build reads {expected}",
                path.display()
            ),
            StoreError::KeyMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "store entry {}: recorded key {found:032x} does not match its address \
                 {expected:032x}",
                path.display()
            ),
            StoreError::HeaderCrc { path } => {
                write!(f, "store entry {}: header failed its CRC", path.display())
            }
            StoreError::PayloadCrc { path } => {
                write!(f, "store entry {}: payload failed its CRC", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Result of probing the store for a key.
#[derive(Debug)]
pub enum Lookup {
    /// A verified entry was found.
    Hit(CellEntry),
    /// No entry exists for the key.
    Miss,
    /// An entry existed but failed verification; it has been moved to
    /// `quarantine/` (best-effort) and the caller must re-simulate.
    Quarantined {
        /// The integrity failure that condemned it.
        error: Box<StoreError>,
        /// Where the corpse went, if the move succeeded.
        moved_to: Option<PathBuf>,
    },
}

/// Aggregate store health, as reported by `crisp cache stats`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Verified-format entries present (every `*.cell` file).
    pub entries: usize,
    /// Total bytes across entries.
    pub bytes: u64,
    /// Sum of recorded hit counts (advisory sidecars).
    pub hits: u64,
    /// Files sitting in `quarantine/`.
    pub quarantined: usize,
    /// Orphaned `*.tmp.*` debris from interrupted writers.
    pub debris: usize,
}

/// Result of a full-store scrub (`crisp cache verify`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Entries examined.
    pub checked: usize,
    /// Entries that verified clean.
    pub ok: usize,
    /// Entries that failed and were quarantined: (original path, error).
    pub quarantined: Vec<(PathBuf, String)>,
}

/// Age/occupancy policy for [`Store::gc`].
#[derive(Clone, Copy, Debug, Default)]
pub struct GcPolicy {
    /// Evict entries whose last access (or creation) is older than this.
    pub max_age: Option<Duration>,
    /// After age eviction, keep at most this many entries, evicting the
    /// least recently used beyond it.
    pub max_entries: Option<usize>,
}

/// What [`Store::gc`] did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries examined.
    pub scanned: usize,
    /// Entries removed.
    pub evicted: usize,
    /// Bytes reclaimed.
    pub reclaimed_bytes: u64,
}

/// A content-addressed result store rooted at one directory.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
}

fn unix_secs() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

impl Store {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the store directories cannot be created.
    pub fn open(root: &Path) -> Result<Store, StoreError> {
        for sub in ["objects", "quarantine", "locks"] {
            let dir = root.join(sub);
            std::fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, "create", &e))?;
        }
        Ok(Store {
            root: root.to_path_buf(),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Cheap existence probe: whether an entry file for `key` is
    /// present, *without* reading or verifying it. Admission planning
    /// (e.g. counting warm cells for a submitted job) uses this; anything
    /// that serves payloads must go through [`Store::lookup`], which
    /// verifies integrity and quarantines corruption.
    pub fn contains(&self, key: u128) -> bool {
        self.entry_path(key).is_file()
    }

    /// Where an entry for `key` lives (whether or not it exists).
    pub fn entry_path(&self, key: u128) -> PathBuf {
        let hex = key_hex(key);
        self.root
            .join("objects")
            .join(&hex[..2])
            .join(format!("{hex}.cell"))
    }

    fn touch_path(entry: &Path) -> PathBuf {
        entry.with_extension("touch")
    }

    /// Where corrupt entries are preserved.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    fn lock_path(&self, key: u128) -> PathBuf {
        self.root
            .join("locks")
            .join(format!("{}.lock", key_hex(key)))
    }

    /// Takes the per-cell lock for `key` without waiting (see [`lock`]):
    /// `None` while another holder has it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] (see [`try_lock`]).
    pub fn try_lock(&self, key: u128) -> Result<Option<CellLock>, StoreError> {
        try_lock(&self.lock_path(key))
    }

    /// Probes the store for `key`, verifying any entry found and
    /// quarantining corruption.
    ///
    /// # Errors
    ///
    /// Only [`StoreError::Io`] for filesystem failures other than
    /// not-found; integrity failures become [`Lookup::Quarantined`].
    pub fn lookup(&self, key: u128) -> Result<Lookup, StoreError> {
        let path = self.entry_path(key);
        match read_entry(&path, Some(key)) {
            Ok(entry) => {
                self.touch(&path);
                Ok(Lookup::Hit(entry))
            }
            Err(e @ StoreError::Io { .. }) => {
                if path.exists() {
                    Err(e)
                } else {
                    Ok(Lookup::Miss)
                }
            }
            Err(error) => {
                let moved_to = self.quarantine(&path);
                Ok(Lookup::Quarantined {
                    error: Box::new(error),
                    moved_to,
                })
            }
        }
    }

    /// Publishes `payload` under `key` atomically. Overwrites any
    /// existing entry (identical content for honest callers, a repaired
    /// entry after quarantine).
    ///
    /// # Errors
    ///
    /// Only [`StoreError::Io`].
    pub fn publish(&self, key: u128, spec: &str, payload: &[f64]) -> Result<(), StoreError> {
        let path = self.entry_path(key);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| StoreError::io(dir, "create", &e))?;
        }
        write_entry(
            &path,
            &CellEntry {
                key,
                created_unix: unix_secs(),
                spec: spec.to_string(),
                payload: payload.to_vec(),
            },
        )
    }

    /// Removes the entry for `key`; returns whether one existed.
    pub fn evict(&self, key: u128) -> bool {
        self.remove_entry(key, &self.entry_path(key))
    }

    /// Deletes an entry file with its access stamp and its key's lock
    /// file. A process that holds the lock keeps it on the unlinked file,
    /// so at worst one other process computes the same bytes again.
    fn remove_entry(&self, key: u128, path: &Path) -> bool {
        let _ = std::fs::remove_file(Self::touch_path(path));
        let _ = std::fs::remove_file(self.lock_path(key));
        std::fs::remove_file(path).is_ok()
    }

    /// Bumps the advisory access stamp for an entry: hit count plus
    /// last-use time, feeding `gc`'s recency order and `stats`' hit
    /// totals. Best-effort and unsynchronized — losing a count under a
    /// concurrent-sweep race costs nothing but GC-ordering precision.
    fn touch(&self, entry: &Path) {
        let path = Self::touch_path(entry);
        let hits = std::fs::read_to_string(&path)
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("hits=").and_then(|v| v.parse::<u64>().ok()))
            })
            .unwrap_or(0);
        let _ = std::fs::write(
            &path,
            format!("hits={}\nlast_unix={}\n", hits + 1, unix_secs()),
        );
    }

    /// Every entry file currently in `objects/`, with its address key.
    fn scan_entries(&self) -> Result<Vec<(u128, PathBuf)>, StoreError> {
        let objects = self.root.join("objects");
        let mut found = Vec::new();
        let shards =
            std::fs::read_dir(&objects).map_err(|e| StoreError::io(&objects, "scan", &e))?;
        for shard in shards {
            let shard = shard.map_err(|e| StoreError::io(&objects, "scan", &e))?;
            if !shard.path().is_dir() {
                continue;
            }
            let entries = std::fs::read_dir(shard.path())
                .map_err(|e| StoreError::io(&shard.path(), "scan", &e))?;
            for f in entries {
                let f = f.map_err(|e| StoreError::io(&shard.path(), "scan", &e))?;
                let path = f.path();
                let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                    continue;
                };
                if let Some(key) = name
                    .strip_suffix(".cell")
                    .filter(|stem| stem.len() == 32)
                    .and_then(parse_key)
                {
                    found.push((key, path));
                }
            }
        }
        found.sort_unstable();
        Ok(found)
    }

    /// Counts orphaned writer debris (`*.tmp.*`) under `objects/`.
    fn count_debris(&self) -> usize {
        let mut n = 0;
        let Ok(shards) = std::fs::read_dir(self.root.join("objects")) else {
            return 0;
        };
        for shard in shards.flatten() {
            let Ok(entries) = std::fs::read_dir(shard.path()) else {
                continue;
            };
            n += entries
                .flatten()
                .filter(|f| f.file_name().to_string_lossy().contains(".tmp."))
                .count();
        }
        n
    }

    /// Aggregate counts for `crisp cache stats`.
    ///
    /// # Errors
    ///
    /// Only [`StoreError::Io`] if the store cannot be scanned.
    pub fn stats(&self) -> Result<StoreStats, StoreError> {
        let mut stats = StoreStats::default();
        for (_, path) in self.scan_entries()? {
            stats.entries += 1;
            if let Ok(m) = std::fs::metadata(&path) {
                stats.bytes += m.len();
            }
            if let Ok(s) = std::fs::read_to_string(Self::touch_path(&path)) {
                stats.hits += s
                    .lines()
                    .find_map(|l| l.strip_prefix("hits=").and_then(|v| v.parse::<u64>().ok()))
                    .unwrap_or(0);
            }
        }
        stats.quarantined = std::fs::read_dir(self.quarantine_dir())
            .map(|d| d.flatten().count())
            .unwrap_or(0);
        stats.debris = self.count_debris();
        Ok(stats)
    }

    /// Full-store scrub: reads and verifies every entry, quarantining
    /// failures (`crisp cache verify`).
    ///
    /// # Errors
    ///
    /// Only [`StoreError::Io`] if the store cannot be scanned; per-entry
    /// failures are reported in the [`ScrubReport`], not raised.
    pub fn verify(&self) -> Result<ScrubReport, StoreError> {
        let mut report = ScrubReport::default();
        for (key, path) in self.scan_entries()? {
            report.checked += 1;
            match read_entry(&path, Some(key)) {
                Ok(_) => report.ok += 1,
                Err(error) => {
                    self.quarantine(&path);
                    report.quarantined.push((path, error.to_string()));
                }
            }
        }
        Ok(report)
    }

    /// Evicts by age and/or occupancy (`crisp cache gc`). Recency is the
    /// advisory last-use stamp, falling back to the entry's mtime.
    ///
    /// # Errors
    ///
    /// Only [`StoreError::Io`] if the store cannot be scanned.
    pub fn gc(&self, policy: GcPolicy) -> Result<GcReport, StoreError> {
        let now = unix_secs();
        let mut report = GcReport::default();
        // (last-use, key, path, bytes), oldest first after the sort.
        let mut survivors: Vec<(u64, u128, PathBuf, u64)> = Vec::new();
        for (key, path) in self.scan_entries()? {
            report.scanned += 1;
            let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            let last_use = std::fs::read_to_string(Self::touch_path(&path))
                .ok()
                .and_then(|s| {
                    s.lines().find_map(|l| {
                        l.strip_prefix("last_unix=")
                            .and_then(|v| v.parse::<u64>().ok())
                    })
                })
                .or_else(|| {
                    std::fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| t.duration_since(SystemTime::UNIX_EPOCH).ok())
                        .map(|d| d.as_secs())
                })
                .unwrap_or(0);
            survivors.push((last_use, key, path, bytes));
        }
        survivors.sort_unstable_by_key(|(last_use, key, ..)| (*last_use, *key));
        let evict_one = |key: u128, path: &Path, bytes: u64, report: &mut GcReport| {
            if self.remove_entry(key, path) {
                report.evicted += 1;
                report.reclaimed_bytes += bytes;
            }
        };
        if let Some(max_age) = policy.max_age {
            let cutoff = now.saturating_sub(max_age.as_secs());
            survivors.retain(|(last_use, key, path, bytes)| {
                if *last_use < cutoff {
                    evict_one(*key, path, *bytes, &mut report);
                    false
                } else {
                    true
                }
            });
        }
        if let Some(max_entries) = policy.max_entries {
            while survivors.len() > max_entries {
                let (_, key, path, bytes) = survivors.remove(0);
                evict_one(key, &path, bytes, &mut report);
            }
        }
        Ok(report)
    }

    /// Moves a condemned entry into `quarantine/` under a unique name,
    /// preserving the bytes for forensics. Best-effort: a concurrent
    /// process may have moved it first.
    fn quarantine(&self, path: &Path) -> Option<PathBuf> {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(format!(".{}.{}", std::process::id(), unix_secs()));
        let dest = self.quarantine_dir().join(name);
        let _ = std::fs::remove_file(Self::touch_path(path));
        std::fs::rename(path, &dest).ok().map(|()| dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> (PathBuf, Store) {
        let dir = std::env::temp_dir().join(format!("crisp-store-lib-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir).unwrap();
        (dir, store)
    }

    /// The names of [`write_atomic`] temp files left in `dir`.
    pub(crate) fn tmp_debris(dir: &Path) -> Vec<std::ffi::OsString> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp."))
            .collect()
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn concurrent_writers_of_one_path_never_share_a_temp_file() {
        let dir = std::env::temp_dir().join("crisp-store-lib-concurrent-writes");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("record.json");
        let payload = |t: usize, i: usize| format!("writer {t} call {i}").into_bytes();
        std::thread::scope(|s| {
            for t in 0..8 {
                let (path, payload) = (&path, &payload);
                s.spawn(move || {
                    for i in 0..25 {
                        write_atomic(path, &payload(t, i)).unwrap();
                    }
                });
            }
        });
        let last = std::fs::read(&path).unwrap();
        assert!((0..8).any(|t| (0..25).any(|i| payload(t, i) == last)));
        let debris = tmp_debris(&dir);
        assert!(debris.is_empty(), "temp files left behind: {debris:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn publish_then_lookup_hits_with_the_exact_payload() {
        let (dir, store) = temp_store("roundtrip");
        let key = fnv1a128(b"cell-a");
        assert!(matches!(store.lookup(key).unwrap(), Lookup::Miss));
        let payload = [1.5, -2.25, 1.0 / 3.0];
        store.publish(key, "cell-a spec", &payload).unwrap();
        match store.lookup(key).unwrap() {
            Lookup::Hit(entry) => {
                assert_eq!(entry.payload, payload);
                assert_eq!(entry.spec, "cell-a spec");
                assert_eq!(entry.key, key);
            }
            other => panic!("expected a hit, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn contains_probes_existence_without_verification() {
        let (dir, store) = temp_store("contains");
        let key = fnv1a128(b"cell-probe");
        assert!(!store.contains(key));
        store.publish(key, "cell-probe spec", &[1.0]).unwrap();
        assert!(store.contains(key));
        // contains() is a pure stat — even a corrupted entry still
        // "exists"; only lookup() decides whether it is servable.
        std::fs::write(store.entry_path(key), b"garbage").unwrap();
        assert!(store.contains(key));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_quarantined_then_reads_as_miss() {
        let (dir, store) = temp_store("quarantine");
        let key = fnv1a128(b"cell-b");
        store.publish(key, "cell-b spec", &[4.0, 5.0]).unwrap();
        let path = store.entry_path(key);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 20;
        bytes[last] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        match store.lookup(key).unwrap() {
            Lookup::Quarantined { moved_to, .. } => {
                let corpse = moved_to.expect("quarantine move succeeds");
                assert!(corpse.starts_with(store.quarantine_dir()));
                assert!(corpse.exists(), "bytes preserved for forensics");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert!(matches!(store.lookup(key).unwrap(), Lookup::Miss));
        // Re-publication repairs the slot.
        store.publish(key, "cell-b spec", &[4.0, 5.0]).unwrap();
        assert!(matches!(store.lookup(key).unwrap(), Lookup::Hit(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_scrubs_the_whole_store() {
        let (dir, store) = temp_store("verify");
        for i in 0..5u64 {
            store
                .publish(
                    fnv1a128(&i.to_le_bytes()),
                    &format!("cell-{i}"),
                    &[i as f64],
                )
                .unwrap();
        }
        let bad_key = fnv1a128(&2u64.to_le_bytes());
        let victim = store.entry_path(bad_key);
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();

        let report = store.verify().unwrap();
        assert_eq!(report.checked, 5);
        assert_eq!(report.ok, 4);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].0, victim);
        // The scrub already moved the corpse: a second scrub is clean.
        let report = store.verify().unwrap();
        assert_eq!((report.checked, report.ok), (4, 4));
        assert!(report.quarantined.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_count_entries_hits_and_quarantine() {
        let (dir, store) = temp_store("stats");
        let key = fnv1a128(b"hot-cell");
        store.publish(key, "hot", &[1.0]).unwrap();
        for _ in 0..3 {
            assert!(matches!(store.lookup(key).unwrap(), Lookup::Hit(_)));
        }
        std::fs::write(store.quarantine_dir().join("corpse"), b"x").unwrap();
        let stats = store.stats().unwrap();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.quarantined, 1);
        assert!(stats.bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_evicts_by_occupancy_in_recency_order() {
        let (dir, store) = temp_store("gc");
        let keys: Vec<u128> = (0..4u64).map(|i| fnv1a128(&i.to_le_bytes())).collect();
        for (i, key) in keys.iter().enumerate() {
            store
                .publish(*key, &format!("cell-{i}"), &[i as f64])
                .unwrap();
        }
        // Touch two entries so they are the most recently used; fake the
        // other two as ancient so recency order is deterministic.
        for key in &keys[..2] {
            assert!(matches!(store.lookup(*key).unwrap(), Lookup::Hit(_)));
        }
        for key in &keys[2..] {
            let touch = Store::touch_path(&store.entry_path(*key));
            std::fs::write(&touch, "hits=1\nlast_unix=1\n").unwrap();
        }
        let report = store
            .gc(GcPolicy {
                max_age: None,
                max_entries: Some(2),
            })
            .unwrap();
        assert_eq!(report.scanned, 4);
        assert_eq!(report.evicted, 2);
        assert!(report.reclaimed_bytes > 0);
        for key in &keys[..2] {
            assert!(matches!(store.lookup(*key).unwrap(), Lookup::Hit(_)));
        }
        for key in &keys[2..] {
            assert!(matches!(store.lookup(*key).unwrap(), Lookup::Miss));
        }
        // Age-based: everything accessed before "now - 0s" goes.
        let report = store
            .gc(GcPolicy {
                max_age: Some(Duration::from_secs(0)),
                max_entries: None,
            })
            .unwrap();
        assert_eq!(report.scanned, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn evict_removes_exactly_one_key() {
        let (dir, store) = temp_store("evict");
        let a = fnv1a128(b"a");
        let b = fnv1a128(b"b");
        store.publish(a, "a", &[1.0]).unwrap();
        store.publish(b, "b", &[2.0]).unwrap();
        drop(store.try_lock(a).unwrap());
        drop(store.try_lock(b).unwrap());
        assert!(store.evict(a));
        // The lock file goes with its entry.
        assert!(!store.lock_path(a).exists());
        assert!(store.lock_path(b).exists());
        assert!(!store.evict(a), "second evict finds nothing");
        assert!(matches!(store.lookup(a).unwrap(), Lookup::Miss));
        assert!(matches!(store.lookup(b).unwrap(), Lookup::Hit(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_cell_lock_round_trips_through_the_store() {
        let (dir, store) = temp_store("lock");
        let key = fnv1a128(b"locked-cell");
        let guard = store.try_lock(key).unwrap().expect("a fresh lock is free");
        assert!(store.lock_path(key).is_file());
        assert!(store.try_lock(key).unwrap().is_none(), "held by `guard`");
        drop(guard);
        assert!(store.try_lock(key).unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
