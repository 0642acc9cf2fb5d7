//! The daemon's on-disk job registry — what crash recovery reads.
//!
//! Layout under the data directory:
//!
//! ```text
//! jobs/<32-hex job id>/request.json   admitted submission (atomic write)
//! jobs/<32-hex job id>/run.jsonl      the sweep's crisp-harness manifest
//! jobs/<32-hex job id>/result.json    final result (atomic write)
//! jobs/<32-hex job id>/spans.jsonl    cross-process span log (append-only)
//! ```
//!
//! A job directory with a `request.json` but no `result.json` is, by
//! definition, incomplete: on restart the daemon re-queues it (in
//! admission order, via the persisted sequence number) and resumes its
//! sweep through the supervisor's `--resume` path against `run.jsonl`.
//! Both JSON files are written atomically (tmp + fsync + rename), so a
//! SIGKILL at any instant leaves either the old state or the new —
//! never a torn file.

use crate::api::SubmitRequest;
use crisp_obs::json::{parse, Value};
use crisp_store::{key_hex, write_atomic};
use std::path::{Path, PathBuf};

/// One admitted job as persisted in `request.json`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobRecord {
    /// 128-bit job id: the FNV-1a fingerprint of the job's canonical
    /// cell set (which makes submission idempotent).
    pub id: u128,
    /// Admission order, for fair FIFO recovery.
    pub seq: u64,
    /// The submission, canonicalized.
    pub request: SubmitRequest,
    /// The sweep spec string the manifest header records.
    pub spec: String,
    /// Store keys of every cell in the job.
    pub cells: Vec<u128>,
}

impl JobRecord {
    fn encode(&self) -> String {
        Value::Obj(vec![
            ("v".to_string(), Value::Num(1.0)),
            ("id".to_string(), Value::Str(key_hex(self.id))),
            ("seq".to_string(), Value::Num(self.seq as f64)),
            ("request".to_string(), self.request.to_value()),
            ("spec".to_string(), Value::Str(self.spec.clone())),
            (
                "cells".to_string(),
                Value::Arr(self.cells.iter().map(|&k| Value::Str(key_hex(k))).collect()),
            ),
        ])
        .encode()
    }

    fn decode(text: &str) -> Option<JobRecord> {
        let v = parse(text).ok()?;
        if v.get("v")?.as_u64()? != 1 {
            return None;
        }
        Some(JobRecord {
            id: u128::from_str_radix(v.get("id")?.as_str()?, 16).ok()?,
            seq: v.get("seq")?.as_u64()?,
            request: SubmitRequest::from_value(v.get("request")?).ok()?,
            spec: v.get("spec")?.as_str()?.to_string(),
            cells: v
                .get("cells")?
                .as_arr()?
                .iter()
                .map(|k| u128::from_str_radix(k.as_str()?, 16).ok())
                .collect::<Option<Vec<u128>>>()?,
        })
    }
}

/// The registry rooted at `<data>/jobs`.
#[derive(Debug)]
pub struct Registry {
    root: PathBuf,
}

impl Registry {
    /// Opens (creating if needed) the registry under `data_dir`.
    ///
    /// # Errors
    ///
    /// A one-line message if the directory cannot be created.
    pub fn open(data_dir: &Path) -> Result<Registry, String> {
        let root = data_dir.join("jobs");
        std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        Ok(Registry { root })
    }

    /// A job's directory (which may not exist yet).
    pub fn job_dir(&self, id: u128) -> PathBuf {
        self.root.join(key_hex(id))
    }

    /// Where a job's sweep manifest lives.
    pub fn manifest_path(&self, id: u128) -> PathBuf {
        self.job_dir(id).join("run.jsonl")
    }

    /// Where a job's live event stream (NDJSON, append-only) lives —
    /// what `GET /jobs/<id>/events` tails.
    pub fn events_path(&self, id: u128) -> PathBuf {
        self.job_dir(id).join("events.jsonl")
    }

    /// Where a job's span log lives — what `crisp obs spans` renders.
    /// Every layer (daemon, supervisor, stages) appends via
    /// `crisp_harness::spanlog`.
    pub fn spans_path(&self, id: u128) -> PathBuf {
        self.job_dir(id).join("spans.jsonl")
    }

    fn request_path(&self, id: u128) -> PathBuf {
        self.job_dir(id).join("request.json")
    }

    fn result_path(&self, id: u128) -> PathBuf {
        self.job_dir(id).join("result.json")
    }

    /// Whether a job has been admitted (its `request.json` exists).
    pub fn is_admitted(&self, id: u128) -> bool {
        self.request_path(id).is_file()
    }

    /// Whether a job has a final result.
    pub fn has_result(&self, id: u128) -> bool {
        self.result_path(id).is_file()
    }

    /// Persists an admitted job (atomic; fsyncs file and directory).
    ///
    /// # Errors
    ///
    /// A one-line message on any filesystem failure.
    pub fn persist(&self, record: &JobRecord) -> Result<(), String> {
        let dir = self.job_dir(record.id);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        write_atomic(&self.request_path(record.id), record.encode().as_bytes())
            .map_err(|e| e.to_string())
    }

    /// Loads one job record, if present and well-formed.
    pub fn load(&self, id: u128) -> Option<JobRecord> {
        let text = std::fs::read_to_string(self.request_path(id)).ok()?;
        JobRecord::decode(&text)
    }

    /// Persists a job's final result document (atomic).
    ///
    /// # Errors
    ///
    /// A one-line message on any filesystem failure.
    pub fn write_result(&self, id: u128, result: &Value) -> Result<(), String> {
        write_atomic(&self.result_path(id), result.encode().as_bytes()).map_err(|e| e.to_string())
    }

    /// Loads a job's final result document.
    pub fn load_result(&self, id: u128) -> Option<Value> {
        let text = std::fs::read_to_string(self.result_path(id)).ok()?;
        parse(&text).ok()
    }

    /// Every admitted-but-unfinished job, in admission order — the
    /// crash-recovery work list. Unreadable or torn records are skipped
    /// (they never had a durable admission acknowledged).
    pub fn recover(&self) -> Vec<JobRecord> {
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let mut incomplete: Vec<JobRecord> = entries
            .filter_map(|e| {
                let name = e.ok()?.file_name();
                let id = u128::from_str_radix(name.to_str()?, 16).ok()?;
                if self.has_result(id) {
                    return None;
                }
                self.load(id)
            })
            .collect();
        incomplete.sort_by_key(|r| r.seq);
        incomplete
    }

    /// The next admission sequence number (one past the largest
    /// persisted), so recovery and new admissions keep a total order.
    pub fn next_seq(&self) -> u64 {
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return 0;
        };
        entries
            .filter_map(|e| {
                let name = e.ok()?.file_name();
                let id = u128::from_str_radix(name.to_str()?, 16).ok()?;
                Some(self.load(id)?.seq + 1)
            })
            .max()
            .unwrap_or(0)
    }

    /// `(admitted, finished)` job counts, for `/stats`.
    pub fn counts(&self) -> (usize, usize) {
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return (0, 0);
        };
        let mut admitted = 0;
        let mut finished = 0;
        for e in entries.flatten() {
            if let Some(id) = e
                .file_name()
                .to_str()
                .and_then(|n| u128::from_str_radix(n, 16).ok())
            {
                if self.is_admitted(id) {
                    admitted += 1;
                    if self.has_result(id) {
                        finished += 1;
                    }
                }
            }
        }
        (admitted, finished)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_registry(tag: &str) -> (PathBuf, Registry) {
        let dir = std::env::temp_dir().join(format!("crisp-serve-registry-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        let reg = Registry::open(&dir).unwrap();
        (dir, reg)
    }

    fn record(id: u128, seq: u64) -> JobRecord {
        JobRecord {
            id,
            seq,
            request: SubmitRequest {
                targets: vec!["fig1".into()],
                workloads: Some(vec!["mcf".into()]),
                scale: "tiny".into(),
                prefetcher: None,
            },
            spec: format!("spec-{seq}"),
            cells: vec![id ^ 1, id ^ 2],
        }
    }

    #[test]
    fn records_round_trip_and_recovery_orders_by_seq() {
        let (dir, reg) = temp_registry("roundtrip");
        let (a, b) = (record(0xaa, 1), record(0xbb, 0));
        reg.persist(&a).unwrap();
        reg.persist(&b).unwrap();
        assert_eq!(reg.load(0xaa), Some(a.clone()));
        assert!(reg.is_admitted(0xaa) && !reg.has_result(0xaa));
        assert_eq!(reg.next_seq(), 2);

        let recovered = reg.recover();
        assert_eq!(
            recovered,
            vec![b, a.clone()],
            "admission order, not dir order"
        );

        // A finished job leaves the recovery list.
        reg.write_result(a.id, &Value::Obj(vec![("ok".into(), Value::Bool(true))]))
            .unwrap();
        assert!(reg.has_result(a.id));
        assert_eq!(
            reg.load_result(a.id).unwrap().get("ok"),
            Some(&Value::Bool(true))
        );
        assert_eq!(reg.recover().len(), 1);
        assert_eq!(reg.counts(), (2, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_records_and_alien_directories_are_skipped() {
        let (dir, reg) = temp_registry("torn");
        reg.persist(&record(0xcc, 0)).unwrap();
        // A torn request.json (no durable admission) and an alien dir.
        let torn = reg.job_dir(0xdd);
        std::fs::create_dir_all(&torn).unwrap();
        std::fs::write(torn.join("request.json"), b"{\"v\":1,\"id\":\"no").unwrap();
        std::fs::create_dir_all(dir.join("jobs").join("not-a-job-id")).unwrap();
        let recovered = reg.recover();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].id, 0xcc);
        std::fs::remove_dir_all(&dir).ok();
    }
}
