//! Advisory per-cell lock files with stale-lease recovery.
//!
//! Concurrent sweep processes sharing one store coordinate through lock
//! files created with `O_EXCL`: whoever creates `locks/<key>.lock` owns
//! the right to simulate that cell; everyone else waits and re-probes the
//! store when the lock clears (the holder usually published the result).
//!
//! Leases recover from dead holders without human intervention:
//!
//! - **dead-PID detection** — the lock records its holder's PID; on Linux
//!   a holder whose `/proc/<pid>` is gone is dead, and its lock is stolen
//!   immediately (a SIGKILLed sweep never wedges the store);
//! - **age fallback** — a lock older than `stale_after` is stolen even if
//!   the PID cannot be judged (non-Linux hosts, unreadable lock file, or
//!   PID reuse), bounding the damage of any detection gap.
//!
//! Stealing renames the lock to a process-unique debris name before
//! unlinking, so two stealers cannot both think they removed it and race
//! a third process's fresh lock.
//!
//! The locks are an *optimization*, never a correctness boundary: entry
//! publication is an atomic rename of deterministic content, so the worst
//! outcome of a lost or stolen lock is one duplicated simulation whose
//! result bytes are identical.

use crate::StoreError;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime};

/// How lock acquisition waits and when it declares a holder dead.
#[derive(Clone, Debug)]
pub struct LockOptions {
    /// Age beyond which a lock is stolen regardless of its holder's PID
    /// state — the fallback for hosts where liveness cannot be checked.
    pub stale_after: Duration,
    /// Poll interval while waiting for a held lock.
    pub poll: Duration,
    /// Give up waiting after this long (`None` = wait until the lock is
    /// released or its holder dies; safe because dead holders are stolen).
    pub wait_timeout: Option<Duration>,
}

impl Default for LockOptions {
    fn default() -> LockOptions {
        LockOptions {
            stale_after: Duration::from_secs(600),
            poll: Duration::from_millis(20),
            wait_timeout: None,
        }
    }
}

/// Distinguishes this process's acquisitions so release never unlinks a
/// lock stolen and re-created by someone else.
static ACQUIRE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A held cell lock; released (best-effort) on drop.
#[derive(Debug)]
pub struct CellLock {
    path: PathBuf,
    token: String,
}

impl CellLock {
    /// The lock file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for CellLock {
    fn drop(&mut self) {
        // Unlink only if the file still carries our token: if the lease
        // was stolen (we out-slept `stale_after` on a host without PID
        // checks), the lock now belongs to someone else.
        if let Ok(content) = std::fs::read_to_string(&self.path) {
            if content.contains(&self.token) {
                let _ = std::fs::remove_file(&self.path);
            }
        }
    }
}

fn unix_secs() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// The holder's PID from a lock file's `pid=` line.
fn holder_pid(content: &str) -> Option<u32> {
    content
        .lines()
        .find_map(|l| l.strip_prefix("pid="))
        .and_then(|p| p.trim().parse().ok())
}

/// Whether the lock at `path` is held by a dead or expired owner.
fn holder_is_stale(path: &Path, opts: &LockOptions) -> bool {
    // PID liveness: authoritative where /proc exists.
    if cfg!(target_os = "linux") {
        if let Ok(content) = std::fs::read_to_string(path) {
            if let Some(pid) = holder_pid(&content) {
                return !Path::new(&format!("/proc/{pid}")).exists();
            }
        }
    }
    // Age fallback: mtime survives even when the content is unreadable.
    match std::fs::metadata(path).and_then(|m| m.modified()) {
        Ok(modified) => modified
            .elapsed()
            .map(|age| age > opts.stale_after)
            .unwrap_or(false),
        // Vanished between polls — the next create_new attempt decides.
        Err(_) => false,
    }
}

/// Removes a stale lock via rename-to-debris, so concurrent stealers
/// cannot double-unlink across a third process's fresh acquisition.
fn steal(path: &Path) {
    let seq = ACQUIRE_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut debris = path.file_name().unwrap_or_default().to_os_string();
    debris.push(format!(".stale.{}.{}", std::process::id(), seq));
    let debris = path.with_file_name(debris);
    if std::fs::rename(path, &debris).is_ok() {
        let _ = std::fs::remove_file(&debris);
    }
}

/// Acquires the lock file at `path`, waiting out (or stealing from) any
/// current holder per `opts`.
///
/// # Errors
///
/// [`StoreError::LockTimeout`] when `wait_timeout` elapses first, or
/// [`StoreError::Io`] when the lock file cannot be created at all (e.g.
/// the locks directory is missing).
pub fn acquire(path: &Path, opts: &LockOptions) -> Result<CellLock, StoreError> {
    let started = Instant::now();
    let token = format!(
        "token={}-{}",
        std::process::id(),
        ACQUIRE_SEQ.fetch_add(1, Ordering::Relaxed)
    );
    loop {
        match OpenOptions::new().write(true).create_new(true).open(path) {
            Ok(mut file) => {
                // Lock metadata is advisory (liveness + forensics). It
                // goes out in one write, so a crash leaves either an empty
                // lock, which the age fallback reclaims, or one whose
                // `pid=` line parses; never a bare `pid=`.
                let meta = format!(
                    "pid={}\n{token}\nacquired_unix={}\n",
                    std::process::id(),
                    unix_secs()
                );
                let _ = file.write_all(meta.as_bytes());
                let _ = file.sync_data();
                return Ok(CellLock {
                    path: path.to_path_buf(),
                    token,
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                if holder_is_stale(path, opts) {
                    steal(path);
                    continue;
                }
                if let Some(limit) = opts.wait_timeout {
                    if started.elapsed() >= limit {
                        return Err(StoreError::LockTimeout {
                            path: path.to_path_buf(),
                            waited_ms: u64::try_from(started.elapsed().as_millis())
                                .unwrap_or(u64::MAX),
                        });
                    }
                }
                std::thread::sleep(opts.poll);
            }
            Err(e) => return Err(StoreError::io(path, "create lock", &e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("crisp-store-lock-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fast_opts() -> LockOptions {
        LockOptions {
            stale_after: Duration::from_secs(600),
            poll: Duration::from_millis(2),
            wait_timeout: Some(Duration::from_millis(60)),
        }
    }

    #[test]
    fn acquire_release_acquire_succeeds() {
        let dir = temp_dir("basic");
        let path = dir.join("cell.lock");
        let guard = acquire(&path, &fast_opts()).unwrap();
        assert!(path.exists());
        drop(guard);
        assert!(!path.exists(), "drop releases the lock");
        let _again = acquire(&path, &fast_opts()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_acquired_lock_names_this_process() {
        let dir = temp_dir("pid-line");
        let path = dir.join("cell.lock");
        let guard = acquire(&path, &fast_opts()).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            holder_pid(&content),
            Some(std::process::id()),
            "{content:?}"
        );
        drop(guard);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_held_lock_blocks_until_timeout() {
        let dir = temp_dir("held");
        let path = dir.join("cell.lock");
        let _guard = acquire(&path, &fast_opts()).unwrap();
        let err = acquire(&path, &fast_opts()).unwrap_err();
        assert!(matches!(err, StoreError::LockTimeout { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_dead_holders_lock_is_stolen() {
        let dir = temp_dir("dead-pid");
        let path = dir.join("cell.lock");
        // A PID from a process that cannot exist: PIDs are bounded by
        // /proc/sys/kernel/pid_max (<= 2^22 by default, always < 2^31).
        std::fs::write(&path, "pid=2147000001\ntoken=ghost\n").unwrap();
        if !cfg!(target_os = "linux") {
            return; // liveness detection is /proc-based
        }
        let guard = acquire(&path, &fast_opts()).expect("steal from a dead holder");
        drop(guard);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_aged_unreadable_lock_is_stolen() {
        let dir = temp_dir("aged");
        let path = dir.join("cell.lock");
        std::fs::write(&path, "gibberish, no pid line").unwrap();
        let opts = LockOptions {
            stale_after: Duration::from_millis(0),
            ..fast_opts()
        };
        // mtime age > 0ms after the sleep below, so the age fallback fires.
        std::thread::sleep(Duration::from_millis(5));
        let guard = acquire(&path, &opts).expect("steal by age");
        drop(guard);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn release_leaves_a_stolen_and_replaced_lock_alone() {
        let dir = temp_dir("stolen");
        let path = dir.join("cell.lock");
        let guard = acquire(&path, &fast_opts()).unwrap();
        // Simulate a steal + re-acquisition by another process.
        std::fs::write(&path, "pid=1\ntoken=1-0\n").unwrap();
        drop(guard);
        assert!(path.exists(), "release must not unlink someone else's lock");
        std::fs::remove_dir_all(&dir).ok();
    }
}
