//! Per-cell lock files, held through the kernel's file locks.
//!
//! Concurrent sweep processes sharing one store coordinate through
//! `locks/<key>.lock`: whoever holds the kernel lock on that file
//! ([`std::fs::File::try_lock`]) owns the right to simulate the cell;
//! everyone else retries until it is free and re-probes the store (the
//! holder usually published the result).
//!
//! The kernel releases the lock when its [`CellLock`] drops or its
//! process ends, so a SIGKILLed sweep never wedges the store. Lock files
//! are never unlinked on release: if a file another process has open
//! were unlinked, the next locker would create a new file, and two
//! processes would each hold "the" lock.
//!
//! The locks are an *optimization*, never a correctness boundary: entry
//! publication is an atomic rename of deterministic content, so the worst
//! outcome of a lost lock is one duplicated simulation whose result bytes
//! are identical.

use crate::StoreError;
use std::fs::{File, OpenOptions, TryLockError};
use std::path::Path;

/// A held lock, released when dropped or when its process ends.
#[derive(Debug)]
pub struct CellLock {
    _file: File,
}

/// Takes the lock on the file at `path`, creating the file if needed,
/// without waiting: `None` while another holder has it.
///
/// # Errors
///
/// [`StoreError::Io`] when the file cannot be opened (e.g. its directory
/// is missing) or locked for a reason other than another holder.
pub fn try_lock(path: &Path) -> Result<Option<CellLock>, StoreError> {
    let file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(path)
        .map_err(|e| StoreError::io(path, "open lock", &e))?;
    match file.try_lock() {
        Ok(()) => Ok(Some(CellLock { _file: file })),
        Err(TryLockError::WouldBlock) => Ok(None),
        Err(TryLockError::Error(e)) => Err(StoreError::io(path, "lock", &e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("crisp-store-lock-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn a_held_lock_refuses_a_second_open() {
        let dir = temp_dir("held");
        let path = dir.join("cell.lock");
        let _guard = try_lock(&path).unwrap().expect("a fresh lock is free");
        assert!(try_lock(&path).unwrap().is_none(), "held by `_guard`");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn acquire_release_acquire_succeeds() {
        let dir = temp_dir("basic");
        let path = dir.join("cell.lock");
        let guard = try_lock(&path).unwrap().expect("a fresh lock is free");
        drop(guard);
        assert!(path.exists(), "release leaves the lock file in place");
        assert!(try_lock(&path).unwrap().is_some(), "drop releases the lock");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_leftover_lock_file_without_a_holder_is_taken_at_once() {
        let dir = temp_dir("leftover");
        let path = dir.join("cell.lock");
        // A dead holder's file: its contents do not matter.
        std::fs::write(&path, "left over").unwrap();
        assert!(try_lock(&path).unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_missing_lock_directory_is_an_io_error() {
        let dir = temp_dir("missing");
        let err = try_lock(&dir.join("absent").join("cell.lock")).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
