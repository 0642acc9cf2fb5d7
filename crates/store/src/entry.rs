//! The on-disk cell-entry container and its codec.
//!
//! One store entry wraps one cell's result payload in a versioned,
//! integrity-checked binary envelope (magic, version, CRCs, end marker,
//! typed torn errors, atomic tmp+fsync+rename writes):
//!
//! ```text
//! magic "CRSPCELL"           8 bytes
//! format version             u64 LE
//! key (low half)             u64 LE   128-bit content-address key
//! key (high half)            u64 LE
//! created (unix seconds)     u64 LE
//! spec length (bytes)        u64 LE
//! spec bytes                 zero-padded to an 8-byte boundary
//! payload length (f64 count) u64 LE
//! header CRC-32              u64 LE   over every byte after the magic
//! payload f64 bit patterns   u64 LE each
//! payload CRC-32             u64 LE   over the payload bytes
//! end marker "CRSPDEND"      8 bytes
//! ```
//!
//! Every byte of the file is covered by a check: the magic and end marker
//! by direct comparison, the header (including the human-readable spec
//! and both key halves) by the header CRC, and the payload by its own
//! CRC. A single bit flipped at *any* offset is detected on read and
//! reported as a typed [`StoreError`] — never mis-decoded, never served.

use crate::StoreError;
use crate::{crc32, write_atomic};
use std::fs;
use std::path::Path;

/// Entry container format version, bumped on incompatible changes.
pub const STORE_VERSION: u64 = 1;

const MAGIC: &[u8; 8] = b"CRSPCELL";
const END_MARKER: &[u8; 8] = b"CRSPDEND";

/// One decoded store entry: a cell's result payload plus its identity.
#[derive(Clone, Debug, PartialEq)]
pub struct CellEntry {
    /// 128-bit content-address key (hash of the canonical key material).
    pub key: u128,
    /// Unix seconds when the entry was published (for age-based GC).
    pub created_unix: u64,
    /// Human-readable key material (cell spec, schema, binary version) —
    /// lets `verify` and post-mortems name what a hash stands for.
    pub spec: String,
    /// The cell's result vector, bit-exact.
    pub payload: Vec<f64>,
}

/// Encodes an entry into its container bytes.
pub fn encode_entry(entry: &CellEntry) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&STORE_VERSION.to_le_bytes());
    out.extend_from_slice(&(entry.key as u64).to_le_bytes());
    out.extend_from_slice(&((entry.key >> 64) as u64).to_le_bytes());
    out.extend_from_slice(&entry.created_unix.to_le_bytes());
    out.extend_from_slice(&(entry.spec.len() as u64).to_le_bytes());
    out.extend_from_slice(entry.spec.as_bytes());
    while out.len() % 8 != 0 {
        out.push(0);
    }
    out.extend_from_slice(&(entry.payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&u64::from(crc32(&out[8..])).to_le_bytes());
    let mut payload = Vec::with_capacity(entry.payload.len() * 8);
    for x in &entry.payload {
        payload.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&payload);
    out.extend_from_slice(&u64::from(crc32(&payload)).to_le_bytes());
    out.extend_from_slice(END_MARKER);
    out
}

struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    path: &'a Path,
}

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        if self.bytes.len() - self.pos < n {
            return Err(StoreError::Torn {
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

    fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        let s = self.take(8, what)?;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }
}

/// Decodes and fully verifies an entry's container bytes. When
/// `expected_key` is given, the decoded key must match it (a mismatch
/// means the file was renamed or the store's addressing drifted).
///
/// # Errors
///
/// Every integrity failure is typed: [`StoreError::Torn`] for truncation
/// or trailing garbage, [`StoreError::BadMagic`] /
/// [`StoreError::VersionMismatch`] for envelope mismatches,
/// [`StoreError::HeaderCrc`] / [`StoreError::PayloadCrc`] for bit-level
/// corruption, and [`StoreError::KeyMismatch`] for a mis-addressed file.
pub fn decode_entry(
    bytes: &[u8],
    path: &Path,
    expected_key: Option<u128>,
) -> Result<CellEntry, StoreError> {
    let mut r = ByteReader {
        bytes,
        pos: 0,
        path,
    };
    let magic = r.take(8, "magic")?;
    if magic != MAGIC {
        return Err(StoreError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let version = r.u64("version")?;
    if version != STORE_VERSION {
        return Err(StoreError::VersionMismatch {
            path: path.to_path_buf(),
            found: version,
            expected: STORE_VERSION,
        });
    }
    let key_lo = r.u64("key (low half)")?;
    let key_hi = r.u64("key (high half)")?;
    let key = (u128::from(key_hi) << 64) | u128::from(key_lo);
    let created_unix = r.u64("created stamp")?;
    let spec_len = r.u64("spec length")? as usize;
    let spec_bytes = r.take(spec_len, "spec")?;
    let pad = (8 - spec_len % 8) % 8;
    r.take(pad, "spec padding")?;
    let payload_len = r.u64("payload length")?;
    let header_end = r.pos;
    let stored_header_crc = r.u64("header crc")?;
    if u64::from(crc32(&bytes[8..header_end])) != stored_header_crc {
        return Err(StoreError::HeaderCrc {
            path: path.to_path_buf(),
        });
    }
    // Only now that the header checksums clean do its fields mean
    // anything — spec UTF-8 or key mismatches past this point are real
    // addressing errors, not corruption.
    let spec = String::from_utf8(spec_bytes.to_vec()).map_err(|_| StoreError::Torn {
        path: path.to_path_buf(),
        detail: "spec is not UTF-8".to_string(),
    })?;
    if let Some(expected) = expected_key {
        if key != expected {
            return Err(StoreError::KeyMismatch {
                path: path.to_path_buf(),
                found: key,
                expected,
            });
        }
    }
    let payload_bytes = r.take(
        (payload_len as usize)
            .checked_mul(8)
            .ok_or_else(|| StoreError::Torn {
                path: path.to_path_buf(),
                detail: "payload declares an absurd length".to_string(),
            })?,
        "payload",
    )?;
    let stored_payload_crc = r.u64("payload crc")?;
    if u64::from(crc32(payload_bytes)) != stored_payload_crc {
        return Err(StoreError::PayloadCrc {
            path: path.to_path_buf(),
        });
    }
    let end = r.take(8, "end marker")?;
    if end != END_MARKER {
        return Err(StoreError::Torn {
            path: path.to_path_buf(),
            detail: "end marker missing or corrupt".to_string(),
        });
    }
    if r.pos != bytes.len() {
        return Err(StoreError::Torn {
            path: path.to_path_buf(),
            detail: format!(
                "{} trailing bytes after the end marker",
                bytes.len() - r.pos
            ),
        });
    }
    let payload = payload_bytes
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
        .collect();
    Ok(CellEntry {
        key,
        created_unix,
        spec,
        payload,
    })
}

/// Reads and fully verifies the entry at `path` (see [`decode_entry`]).
///
/// # Errors
///
/// [`StoreError::Io`] if the file cannot be read, else any decode error.
pub fn read_entry(path: &Path, expected_key: Option<u128>) -> Result<CellEntry, StoreError> {
    let bytes = fs::read(path).map_err(|e| StoreError::io(path, "read", &e))?;
    decode_entry(&bytes, path, expected_key)
}

/// Writes `entry` to `path` atomically (see [`write_atomic`]): a SIGKILL
/// at any point leaves either the previous entry or an orphaned `.tmp` —
/// never a torn file under the real name.
///
/// # Errors
///
/// Only [`StoreError::Io`] — encoding cannot fail.
pub fn write_entry(path: &Path, entry: &CellEntry) -> Result<(), StoreError> {
    write_atomic(path, &encode_entry(entry))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry() -> CellEntry {
        CellEntry {
            key: 0xdead_beef_0123_4567_89ab_cdef_fedc_ba98,
            created_unix: 1_754_000_000,
            spec: "fig1/pointer_chase scale=Fast cells-v1".to_string(),
            payload: vec![1.25, -0.5, f64::MIN_POSITIVE, 1.0 / 3.0, 8.4e300],
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("crisp-store-entry-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn entries_round_trip_exactly() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("cell.cell");
        let entry = sample_entry();
        write_entry(&path, &entry).unwrap();
        assert_eq!(read_entry(&path, Some(entry.key)).unwrap(), entry);
        assert_eq!(read_entry(&path, None).unwrap(), entry);
        assert!(
            !crate::tmp_path(&path).exists(),
            "tmp file must be renamed away on success"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_payload_and_empty_spec_round_trip() {
        let entry = CellEntry {
            key: 1,
            created_unix: 0,
            spec: String::new(),
            payload: vec![],
        };
        let bytes = encode_entry(&entry);
        assert_eq!(
            decode_entry(&bytes, Path::new("x"), Some(1)).unwrap(),
            entry
        );
    }

    #[test]
    fn a_flip_of_any_single_bit_is_detected() {
        let entry = sample_entry();
        let bytes = encode_entry(&entry);
        let path = Path::new("flipped.cell");
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                let res = decode_entry(&corrupt, path, Some(entry.key));
                assert!(
                    res.is_err(),
                    "flip at byte {byte} bit {bit} decoded as {res:?}"
                );
            }
        }
    }

    #[test]
    fn every_truncation_point_is_typed() {
        let bytes = encode_entry(&sample_entry());
        let path = Path::new("cut.cell");
        for cut in 0..bytes.len() {
            let err = decode_entry(&bytes[..cut], path, None).unwrap_err();
            assert!(
                matches!(err, StoreError::Torn { .. } | StoreError::BadMagic { .. }),
                "cut at {cut}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn key_and_version_mismatches_are_typed() {
        let entry = sample_entry();
        let bytes = encode_entry(&entry);
        let path = Path::new("cell.cell");
        assert!(matches!(
            decode_entry(&bytes, path, Some(entry.key ^ 1)).unwrap_err(),
            StoreError::KeyMismatch { .. }
        ));
        let mut versioned = bytes.clone();
        versioned[8] = 99;
        // The version check fires before the header CRC: a future format
        // must be reported as such, not as corruption.
        assert!(matches!(
            decode_entry(&versioned, path, None).unwrap_err(),
            StoreError::VersionMismatch { found: 99, .. }
        ));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            decode_entry(&trailing, path, None).unwrap_err(),
            StoreError::Torn { .. }
        ));
    }
}
