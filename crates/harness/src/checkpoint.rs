//! The on-disk checkpoint container for mid-run simulator snapshots.
//!
//! A checkpoint file wraps one [`crisp_sim::SimSnapshot`] in a versioned,
//! integrity-checked binary envelope, mirroring the journal's philosophy
//! (no external dependencies, torn-tail tolerance) for binary state:
//!
//! ```text
//! magic "CRSPCKPT"           8 bytes
//! format version             u64 LE
//! spec fingerprint (low)     u64 LE   FNV-1a 128 of the cell's spec string
//! spec fingerprint (high)    u64 LE
//! snapshot cycle             u64 LE
//! section count              u64 LE
//! per section:
//!   name length (bytes)      u64 LE
//!   name bytes               zero-padded to an 8-byte boundary
//!   payload length (words)   u64 LE
//!   payload CRC-32           u64 LE   (IEEE, low 32 bits)
//!   payload words            u64 LE each
//! end marker "CRSPDONE"      8 bytes
//! ```
//!
//! Writes are atomic ([`crisp_store::write_atomic`]): the file is
//! assembled under a `.tmp` name, fsync'd, then renamed over the final
//! path, so a SIGKILL mid-write leaves either the previous checkpoint or
//! a `.tmp` orphan — never a half-written file under the real name.
//! Reads verify, in order: magic, version, spec fingerprint, per-section
//! CRC, and the end marker; a file cut short at any byte is reported as
//! [`CheckpointError::Torn`], never mis-decoded.

use crisp_sim::SimSnapshot;
use crisp_store::{fnv1a128, StoreError};
use std::fs;
use std::path::{Path, PathBuf};

pub use crisp_store::crc32;

/// Checkpoint container format version, bumped on incompatible changes.
///
/// Version history:
///
/// - v1 — a single 64-bit FNV-1a spec fingerprint;
/// - v2 — a 128-bit fingerprint stored as two u64 words (low, high);
/// - v3 — `SimResult`'s snapshot words lose the `pipeview` section (the
///   pipeline viewer renders from the flight recorder);
/// - v4 — the `engine` section loses the age-matrix words (select orders
///   the ready slots by sequence number).
///
/// Only the current version is read; any other is a
/// [`CheckpointError::VersionMismatch`].
pub const CHECKPOINT_VERSION: u64 = 4;

const MAGIC: &[u8; 8] = b"CRSPCKPT";
const END_MARKER: &[u8; 8] = b"CRSPDONE";

/// Why a checkpoint could not be written or read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (create, write, fsync, rename, read, scan).
    Io {
        /// The path involved.
        path: PathBuf,
        /// The OS error, contextualised.
        message: String,
    },
    /// The file ends before the declared content (a torn or truncated
    /// write — e.g. a crash that beat the rename).
    Torn {
        /// The checkpoint path.
        path: PathBuf,
        /// Where the truncation was detected.
        detail: String,
    },
    /// The file does not start with the checkpoint magic.
    BadMagic {
        /// The checkpoint path.
        path: PathBuf,
    },
    /// The file uses a different container format version.
    VersionMismatch {
        /// The checkpoint path.
        path: PathBuf,
        /// Version found in the file.
        found: u64,
        /// Version this build writes and reads.
        expected: u64,
    },
    /// The file was written for a different cell/config spec — restoring
    /// it would resume the wrong experiment.
    FingerprintMismatch {
        /// The checkpoint path.
        path: PathBuf,
        /// Fingerprint found in the file.
        found: u128,
        /// Fingerprint of the spec attempting the restore.
        expected: u128,
    },
    /// A section's payload failed its CRC — bit rot or partial overwrite.
    SectionCrc {
        /// The checkpoint path.
        path: PathBuf,
        /// The corrupted section's name.
        section: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "checkpoint {}: {message}", path.display())
            }
            CheckpointError::Torn { path, detail } => write!(
                f,
                "checkpoint {} is torn ({detail}); discard it and resume from an older one",
                path.display()
            ),
            CheckpointError::BadMagic { path } => {
                write!(f, "checkpoint {}: not a checkpoint file", path.display())
            }
            CheckpointError::VersionMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "checkpoint {}: format version {found}, this build reads {expected}",
                path.display()
            ),
            CheckpointError::FingerprintMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "checkpoint {}: spec fingerprint {found:032x} does not match the running \
                 cell's {expected:032x} — it belongs to a different configuration",
                path.display()
            ),
            CheckpointError::SectionCrc { path, section } => write!(
                f,
                "checkpoint {}: section '{section}' failed its CRC check",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

fn io_err(path: &Path, what: &str, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.to_path_buf(),
        message: format!("{what} failed: {e}"),
    }
}

fn encode(spec_fingerprint: u128, snapshot: &SimSnapshot) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&(spec_fingerprint as u64).to_le_bytes());
    out.extend_from_slice(&((spec_fingerprint >> 64) as u64).to_le_bytes());
    out.extend_from_slice(&snapshot.cycle.to_le_bytes());
    out.extend_from_slice(&(snapshot.sections.len() as u64).to_le_bytes());
    for (name, words) in &snapshot.sections {
        out.extend_from_slice(&(name.len() as u64).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        while out.len() % 8 != 0 {
            out.push(0);
        }
        out.extend_from_slice(&(words.len() as u64).to_le_bytes());
        let mut payload = Vec::with_capacity(words.len() * 8);
        for w in words {
            payload.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&u64::from(crc32(&payload)).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out.extend_from_slice(END_MARKER);
    out
}

/// Writes `snapshot` to `path` atomically ([`crisp_store::write_atomic`]),
/// stamped with the FNV-1a fingerprint of `spec`.
///
/// # Errors
///
/// Only [`CheckpointError::Io`] — encoding cannot fail.
pub fn write_checkpoint(
    path: &Path,
    spec: &str,
    snapshot: &SimSnapshot,
) -> Result<(), CheckpointError> {
    let bytes = encode(fnv1a128(spec.as_bytes()), snapshot);
    crisp_store::write_atomic(path, &bytes).map_err(|e| match e {
        StoreError::Io { path, message } => CheckpointError::Io { path, message },
        other => CheckpointError::Io {
            path: path.to_path_buf(),
            message: other.to_string(),
        },
    })
}

struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    path: &'a Path,
}

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CheckpointError> {
        if self.bytes.len() - self.pos < n {
            return Err(CheckpointError::Torn {
                path: self.path.to_path_buf(),
                detail: format!(
                    "file ends at byte {} while reading {what}",
                    self.bytes.len()
                ),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u64(&mut self, what: &str) -> Result<u64, CheckpointError> {
        let s = self.take(8, what)?;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }
}

/// Reads and fully verifies the checkpoint at `path`, requiring it to
/// carry the fingerprint of `spec`.
///
/// # Errors
///
/// Every integrity failure is typed: [`CheckpointError::Torn`] for
/// truncation, [`CheckpointError::BadMagic`] /
/// [`CheckpointError::VersionMismatch`] /
/// [`CheckpointError::FingerprintMismatch`] for envelope mismatches, and
/// [`CheckpointError::SectionCrc`] for payload corruption.
pub fn read_checkpoint(path: &Path, spec: &str) -> Result<SimSnapshot, CheckpointError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, "read", e))?;
    let mut r = ByteReader {
        bytes: &bytes,
        pos: 0,
        path,
    };
    let magic = r.take(8, "magic")?;
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let found = r.u64("version")?;
    if found != CHECKPOINT_VERSION {
        return Err(CheckpointError::VersionMismatch {
            path: path.to_path_buf(),
            found,
            expected: CHECKPOINT_VERSION,
        });
    }
    let lo = r.u64("fingerprint (low)")?;
    let hi = r.u64("fingerprint (high)")?;
    let fingerprint = (u128::from(hi) << 64) | u128::from(lo);
    let expected = fnv1a128(spec.as_bytes());
    if fingerprint != expected {
        return Err(CheckpointError::FingerprintMismatch {
            path: path.to_path_buf(),
            found: fingerprint,
            expected,
        });
    }
    let cycle = r.u64("cycle")?;
    let n_sections = r.u64("section count")? as usize;
    let mut sections = Vec::new();
    for i in 0..n_sections {
        let name_len = r.u64("section name length")? as usize;
        let name_bytes = r.take(name_len, "section name")?;
        let name = String::from_utf8(name_bytes.to_vec()).map_err(|_| CheckpointError::Torn {
            path: path.to_path_buf(),
            detail: format!("section {i} name is not UTF-8"),
        })?;
        let pad = (8 - name_len % 8) % 8;
        r.take(pad, "section name padding")?;
        let n_words = r.u64("section word count")? as usize;
        let stored_crc = r.u64("section crc")?;
        let payload = r.take(
            n_words
                .checked_mul(8)
                .ok_or_else(|| CheckpointError::Torn {
                    path: path.to_path_buf(),
                    detail: format!("section '{name}' declares an absurd length"),
                })?,
            "section payload",
        )?;
        if u64::from(crc32(payload)) != stored_crc {
            return Err(CheckpointError::SectionCrc {
                path: path.to_path_buf(),
                section: name,
            });
        }
        let words = payload
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        sections.push((name, words));
    }
    let end = r.take(8, "end marker")?;
    if end != END_MARKER {
        return Err(CheckpointError::Torn {
            path: path.to_path_buf(),
            detail: "end marker missing or corrupt".to_string(),
        });
    }
    Ok(SimSnapshot { cycle, sections })
}

/// File name for job `job_id`'s checkpoint at `cycle`, filesystem-safe.
pub fn checkpoint_file_name(job_id: &str, cycle: u64) -> String {
    let safe: String = job_id
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("{safe}-{cycle:020}.ckpt")
}

/// Scans `dir` for checkpoints of `job_id` and returns the valid one with
/// the highest cycle, silently skipping torn, corrupt, mismatched or
/// orphaned `.tmp` files — exactly the debris a crash leaves behind.
///
/// # Errors
///
/// Only [`CheckpointError::Io`] if the directory itself cannot be read;
/// a missing directory yields `Ok(None)`.
pub fn newest_valid_checkpoint(
    dir: &Path,
    job_id: &str,
    spec: &str,
) -> Result<Option<(PathBuf, SimSnapshot)>, CheckpointError> {
    let prefix = checkpoint_file_name(job_id, 0);
    let prefix = &prefix[..prefix.len() - "00000000000000000000.ckpt".len()];
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(dir, "scan", e)),
    };
    let mut best: Option<(PathBuf, SimSnapshot)> = None;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, "scan", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.starts_with(prefix) || !name.ends_with(".ckpt") {
            continue;
        }
        let path = entry.path();
        let Ok(snapshot) = read_checkpoint(&path, spec) else {
            continue;
        };
        if best.as_ref().is_none_or(|(_, b)| snapshot.cycle > b.cycle) {
            best = Some((path, snapshot));
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> SimSnapshot {
        SimSnapshot {
            cycle: 12_345,
            sections: vec![
                ("engine".to_string(), vec![1, 2, 3, u64::MAX, 0]),
                ("mem".to_string(), vec![]),
                ("bpu".to_string(), vec![42; 100]),
                ("stats".to_string(), vec![7, 8, 9]),
            ],
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("crisp-harness-ckpt-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn checkpoints_round_trip_exactly() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("cell.ckpt");
        let snap = sample_snapshot();
        write_checkpoint(&path, "fig7/mcf v1", &snap).unwrap();
        let read = read_checkpoint(&path, "fig7/mcf v1").unwrap();
        assert_eq!(read, snap);
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["cell.ckpt"], "tmp file must be renamed away");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_point_reads_as_torn_or_typed() {
        let dir = temp_dir("torn");
        let path = dir.join("cell.ckpt");
        let snap = sample_snapshot();
        write_checkpoint(&path, "spec", &snap).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Cut the file at a spread of byte positions: every prefix must
        // fail with a *typed* error, never panic or mis-decode.
        for cut in [
            0,
            7,
            8,
            15,
            23,
            31,
            39,
            40,
            55,
            full.len() - 9,
            full.len() - 1,
        ] {
            let cut_path = dir.join(format!("cut-{cut}.ckpt"));
            std::fs::write(&cut_path, &full[..cut]).unwrap();
            let err = read_checkpoint(&cut_path, "spec").unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Torn { .. } | CheckpointError::BadMagic { .. }
                ),
                "cut at {cut}: unexpected error {err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn envelope_mismatches_are_typed() {
        let dir = temp_dir("envelope");
        let path = dir.join("cell.ckpt");
        write_checkpoint(&path, "spec-a", &sample_snapshot()).unwrap();

        // Wrong spec: fingerprint mismatch.
        let err = read_checkpoint(&path, "spec-b").unwrap_err();
        assert!(
            matches!(err, CheckpointError::FingerprintMismatch { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("different configuration"));

        // A bumped version byte, the previous version's file, and a v1
        // file (whose 64-bit fingerprint is no longer read).
        for found in [99, CHECKPOINT_VERSION - 1, 1] {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[8] = found as u8;
            let vpath = dir.join("versioned.ckpt");
            std::fs::write(&vpath, &bytes).unwrap();
            let err = read_checkpoint(&vpath, "spec-a").unwrap_err();
            assert_eq!(
                err,
                CheckpointError::VersionMismatch {
                    path: vpath,
                    found,
                    expected: CHECKPOINT_VERSION
                }
            );
        }

        // Alien file.
        let apath = dir.join("alien.ckpt");
        std::fs::write(&apath, b"not a checkpoint at all").unwrap();
        let err = read_checkpoint(&apath, "spec-a").unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn payload_corruption_fails_the_section_crc() {
        let dir = temp_dir("crc");
        let path = dir.join("cell.ckpt");
        write_checkpoint(&path, "spec", &sample_snapshot()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit inside the first section's payload (header is
        // 6 u64s = 48 bytes; 'engine' name + pad = 8; len + crc = 16).
        let payload_start = 48 + 8 + 16;
        bytes[payload_start] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_checkpoint(&path, "spec").unwrap_err();
        assert_eq!(
            err,
            CheckpointError::SectionCrc {
                path: path.clone(),
                section: "engine".to_string()
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn newest_valid_checkpoint_survives_crash_debris() {
        let dir = temp_dir("newest");
        let spec = "fig1/chase v1";
        let job = "fig1/chase";
        // Three generations of checkpoints...
        for cycle in [100u64, 500, 900] {
            let snap = SimSnapshot {
                cycle,
                sections: vec![("engine".to_string(), vec![cycle])],
            };
            write_checkpoint(&dir.join(checkpoint_file_name(job, cycle)), spec, &snap).unwrap();
        }
        // ...plus a crash's debris: a torn newer file under the real name
        // and an orphaned tmp from a write the rename never finished.
        let torn = dir.join(checkpoint_file_name(job, 1300));
        let good = std::fs::read(dir.join(checkpoint_file_name(job, 900))).unwrap();
        std::fs::write(&torn, &good[..good.len() / 2]).unwrap();
        std::fs::write(
            dir.join(format!("{}.tmp", checkpoint_file_name(job, 1700))),
            b"partial",
        )
        .unwrap();
        // And a checkpoint from a *different* job that must not match.
        write_checkpoint(
            &dir.join(checkpoint_file_name("fig1/other", 9999)),
            "fig1/other v1",
            &SimSnapshot {
                cycle: 9999,
                sections: vec![],
            },
        )
        .unwrap();

        let (path, snap) = newest_valid_checkpoint(&dir, job, spec).unwrap().unwrap();
        assert_eq!(snap.cycle, 900, "picked {}", path.display());

        // A different spec invalidates everything.
        assert_eq!(newest_valid_checkpoint(&dir, job, "v2").unwrap(), None);
        // A missing directory is not an error.
        assert_eq!(
            newest_valid_checkpoint(&dir.join("absent"), job, spec).unwrap(),
            None
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
