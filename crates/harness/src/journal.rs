//! The append-only JSONL run manifest.
//!
//! One line per event, flushed *and fsync'd* per record so the manifest
//! survives a SIGKILL with at most one torn trailing line. The first line
//! is a sweep header carrying the sweep's spec string (scale, targets);
//! every later line is a job-attempt record. Loading tolerates a torn
//! tail — any line that does not parse is counted and skipped, never
//! fatal — which is exactly what `--resume` needs after a crash.

use crate::class::FailureClass;
use crisp_obs::json::{parse, Value};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Journal format version, bumped on incompatible record changes.
///
/// Version history:
///
/// - v1 — 64-bit spec fingerprints (16 hex digits in `hash`);
/// - v2 — 128-bit fingerprints (32 hex digits) and an optional `cached`
///   field on `ok` records naming the store entry a payload came from.
///
/// Lines of any other version are skipped by the tolerant loader.
pub const JOURNAL_VERSION: u64 = 2;

/// FNV-1a 64-bit hash — seeds span ids and the `crisp watch` reconnect
/// jitter.
pub fn fnv1a64(data: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The first line of every manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepHeader {
    /// Human-readable sweep spec (scale, targets, workload filter).
    pub spec: String,
    /// Number of jobs in the sweep.
    pub jobs: usize,
}

/// One job attempt's outcome.
#[derive(Clone, Debug, PartialEq)]
pub enum AttemptOutcome {
    /// The attempt completed; `payload` is the cell's result vector.
    Ok {
        /// Figure-specific result values (layout documented per cell).
        payload: Vec<f64>,
        /// When the payload was served from the result store instead of
        /// simulated, the store key it came from — provenance for audits
        /// and the cache hit-rate accounting. `None` for computed cells.
        cached: Option<u128>,
    },
    /// The attempt failed.
    Fail {
        /// Failure classification (groups the taxonomy footer).
        class: FailureClass,
        /// The error message, single line.
        error: String,
        /// Structured failure payload — deadlock-report fields, the panic
        /// message, the last published progress — so DEGRADED tables can cite
        /// *why* a cell is missing. `None` when the failure carries no
        /// structure beyond `error`.
        detail: Option<Value>,
    },
}

/// One journal line: job identity plus one attempt's outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct AttemptRecord {
    /// Job id, e.g. `fig7/mcf`.
    pub job: String,
    /// FNV-1a 128-bit hash of the job's spec string.
    pub hash: u128,
    /// 1-based attempt number.
    pub attempt: u32,
    /// What happened.
    pub outcome: AttemptOutcome,
}

impl AttemptRecord {
    /// Encodes the record as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut pairs = vec![
            ("v".to_string(), Value::Num(JOURNAL_VERSION as f64)),
            ("kind".to_string(), Value::Str("attempt".into())),
            ("job".to_string(), Value::Str(self.job.clone())),
            (
                "hash".to_string(),
                Value::Str(format!("{:032x}", self.hash)),
            ),
            ("attempt".to_string(), Value::Num(f64::from(self.attempt))),
        ];
        match &self.outcome {
            AttemptOutcome::Ok { payload, cached } => {
                pairs.push(("outcome".into(), Value::Str("ok".into())));
                pairs.push((
                    "payload".into(),
                    Value::Arr(payload.iter().map(|&x| Value::Num(x)).collect()),
                ));
                if let Some(key) = cached {
                    pairs.push(("cached".into(), Value::Str(format!("{key:032x}"))));
                }
            }
            AttemptOutcome::Fail {
                class,
                error,
                detail,
            } => {
                pairs.push(("outcome".into(), Value::Str("fail".into())));
                pairs.push(("class".into(), Value::Str(class.name().into())));
                pairs.push(("error".into(), Value::Str(error.clone())));
                if let Some(d) = detail {
                    pairs.push(("detail".into(), d.clone()));
                }
            }
        }
        Value::Obj(pairs).encode()
    }

    /// Decodes one JSON line; `None` for anything malformed or from a
    /// different journal version (the tolerant-load contract).
    pub fn decode(line: &str) -> Option<AttemptRecord> {
        let v = parse(line).ok()?;
        if v.get("v")?.as_u64()? != JOURNAL_VERSION || v.get("kind")?.as_str()? != "attempt" {
            return None;
        }
        let job = v.get("job")?.as_str()?.to_string();
        let hash = u128::from_str_radix(v.get("hash")?.as_str()?, 16).ok()?;
        let attempt = u32::try_from(v.get("attempt")?.as_u64()?).ok()?;
        let outcome = match v.get("outcome")?.as_str()? {
            "ok" => AttemptOutcome::Ok {
                payload: v
                    .get("payload")?
                    .as_arr()?
                    .iter()
                    .map(|x| x.as_f64())
                    .collect::<Option<Vec<f64>>>()?,
                cached: match v.get("cached") {
                    Some(key) => Some(u128::from_str_radix(key.as_str()?, 16).ok()?),
                    None => None,
                },
            },
            "fail" => AttemptOutcome::Fail {
                class: FailureClass::from_name(v.get("class")?.as_str()?)?,
                error: v.get("error")?.as_str()?.to_string(),
                detail: v.get("detail").cloned(),
            },
            _ => return None,
        };
        Some(AttemptRecord {
            job,
            hash,
            attempt,
            outcome,
        })
    }
}

/// A heartbeat line: the last observed progress of a running job, written
/// by the supervisor's monitor thread between attempt records. Progress
/// records are advisory — they never affect resume decisions — but they
/// let a post-mortem reader see how far a cell got before it timed out,
/// deadlocked or was SIGKILLed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgressRecord {
    /// Job id, e.g. `fig7/mcf`.
    pub job: String,
    /// Simulated cycles elapsed at the last beacon publish.
    pub cycles: u64,
    /// Instructions retired at the last beacon publish.
    pub instrs: u64,
    /// Wall-clock milliseconds since the attempt started.
    pub wall_ms: u64,
}

impl ProgressRecord {
    /// Encodes the record as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        Value::Obj(vec![
            ("v".into(), Value::Num(JOURNAL_VERSION as f64)),
            ("kind".into(), Value::Str("progress".into())),
            ("job".into(), Value::Str(self.job.clone())),
            ("cycles".into(), Value::Num(self.cycles as f64)),
            ("instrs".into(), Value::Num(self.instrs as f64)),
            ("wall_ms".into(), Value::Num(self.wall_ms as f64)),
        ])
        .encode()
    }

    /// Decodes one JSON line; `None` for anything malformed or of a
    /// different kind/version.
    pub fn decode(line: &str) -> Option<ProgressRecord> {
        let v = parse(line).ok()?;
        if v.get("v")?.as_u64()? != JOURNAL_VERSION || v.get("kind")?.as_str()? != "progress" {
            return None;
        }
        Some(ProgressRecord {
            job: v.get("job")?.as_str()?.to_string(),
            cycles: v.get("cycles")?.as_u64()?,
            instrs: v.get("instrs")?.as_u64()?,
            wall_ms: v.get("wall_ms")?.as_u64()?,
        })
    }
}

fn encode_header(h: &SweepHeader) -> String {
    Value::Obj(vec![
        ("v".into(), Value::Num(JOURNAL_VERSION as f64)),
        ("kind".into(), Value::Str("sweep".into())),
        ("spec".into(), Value::Str(h.spec.clone())),
        ("jobs".into(), Value::Num(h.jobs as f64)),
    ])
    .encode()
}

fn decode_header(line: &str) -> Option<SweepHeader> {
    let v = parse(line).ok()?;
    if v.get("v")?.as_u64()? != JOURNAL_VERSION || v.get("kind")?.as_str()? != "sweep" {
        return None;
    }
    Some(SweepHeader {
        spec: v.get("spec")?.as_str()?.to_string(),
        jobs: v.get("jobs")?.as_u64()? as usize,
    })
}

/// I/O or consistency failure of the journal itself (not of a job).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalError {
    /// The manifest path involved.
    pub path: PathBuf,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "manifest {}: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for JournalError {}

/// Result of appending one record (see [`Journal::append`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppendStatus {
    /// The record is durably on disk.
    Written,
    /// The configured crash point fired: a torn fragment of the record was
    /// written instead, and the journal accepts no further records — the
    /// process behaves as if SIGKILLed mid-write.
    Crashed,
}

/// Append-only, fsync-per-record journal writer.
///
/// Append I/O failures (disk full, short writes) are *contained*: the
/// journal rolls the file back to the last durably-written record
/// boundary and returns a typed [`JournalError`], so a later append can
/// succeed and the manifest never accumulates torn interior lines. The
/// supervisor treats such an error as degrading the affected cell, not
/// as fatal to the sweep — mirroring the store's warn-and-continue
/// policy.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    records: usize,
    crash_after: Option<usize>,
    crashed: bool,
    /// Byte offset of the end of the last cleanly written record; the
    /// rollback target after a failed or injected-failure append.
    clean_len: u64,
    /// Remaining injected append failures (test hook).
    fail_next: usize,
    /// Appends that failed (injected or real) since the journal opened.
    write_failures: usize,
}

impl Journal {
    /// Creates (truncating) a manifest and writes the sweep header.
    pub fn create(path: &Path, header: &SweepHeader) -> Result<Journal, JournalError> {
        let file = File::create(path).map_err(|e| JournalError {
            path: path.to_path_buf(),
            message: format!("create failed: {e}"),
        })?;
        let mut j = Journal {
            file,
            path: path.to_path_buf(),
            records: 0,
            crash_after: None,
            crashed: false,
            clean_len: 0,
            fail_next: 0,
            write_failures: 0,
        };
        j.write_line(&encode_header(header))?;
        Ok(j)
    }

    /// Opens an existing manifest for appending (resume).
    ///
    /// If the file ends in a torn line (a crash mid-write leaves a
    /// fragment with no trailing newline), a newline is appended first so
    /// new records cannot glue onto the fragment and corrupt themselves;
    /// the isolated fragment stays behind as one skipped line for the
    /// tolerant loader.
    pub fn open_append(path: &Path) -> Result<Journal, JournalError> {
        let io = |e: std::io::Error, what: &str| JournalError {
            path: path.to_path_buf(),
            message: format!("{what} failed: {e}"),
        };
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(path)
            .map_err(|e| io(e, "open for append"))?;
        let mut len = file.metadata().map_err(|e| io(e, "stat"))?.len();
        if len > 0 {
            let mut last = [0u8; 1];
            file.seek(SeekFrom::Start(len - 1))
                .and_then(|_| std::io::Read::read_exact(&mut file, &mut last))
                .map_err(|e| io(e, "read tail"))?;
            if last[0] != b'\n' {
                file.write_all(b"\n")
                    .and_then(|()| file.sync_data())
                    .map_err(|e| io(e, "torn-tail repair"))?;
                len += 1;
            }
        }
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            records: 0,
            crash_after: None,
            crashed: false,
            clean_len: len,
            fail_next: 0,
            write_failures: 0,
        })
    }

    /// Arms the deterministic crash point: the `n`-th appended attempt
    /// record is torn mid-line and the journal then refuses all writes.
    /// Test hook standing in for a SIGKILL.
    pub fn crash_after_records(&mut self, n: usize) {
        self.crash_after = Some(n);
    }

    /// Whether the crash point has fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Arms the injected-I/O-failure hook: the next `k` attempt-record
    /// appends fail like a short write on a full disk (partial bytes hit
    /// the file, then an error), after which the journal recovers. Unlike
    /// [`Journal::crash_after_records`] the journal keeps accepting
    /// records afterwards — this models a *transient* ENOSPC, not a dead
    /// process.
    pub fn fail_appends(&mut self, k: usize) {
        self.fail_next = k;
    }

    /// How many appends have failed (injected or real) since opening.
    pub fn write_failures(&self) -> usize {
        self.write_failures
    }

    /// Appends one attempt record, fsync'd before returning.
    ///
    /// # Errors
    ///
    /// On an I/O failure the file is rolled back to the previous record
    /// boundary and a typed [`JournalError`] is returned; the journal
    /// stays usable for later appends.
    pub fn append(&mut self, rec: &AttemptRecord) -> Result<AppendStatus, JournalError> {
        if self.crashed {
            return Ok(AppendStatus::Crashed);
        }
        let line = rec.encode();
        self.records += 1;
        if self.crash_after.is_some_and(|n| self.records > n) {
            // Tear the record: write roughly half the line, no newline.
            let torn = &line[..line.len() / 2];
            let _ = self.file.write_all(torn.as_bytes());
            let _ = self.file.sync_data();
            self.crashed = true;
            return Ok(AppendStatus::Crashed);
        }
        if self.fail_next > 0 {
            self.fail_next -= 1;
            // Model a short write: part of the line lands, then ENOSPC.
            let _ = self.file.write_all(&line.as_bytes()[..line.len() / 2]);
            self.write_failures += 1;
            self.rollback();
            return Err(JournalError {
                path: self.path.clone(),
                message: "write failed: injected ENOSPC (short write)".into(),
            });
        }
        self.write_line(&line)?;
        Ok(AppendStatus::Written)
    }

    /// Appends one heartbeat record, fsync'd before returning. Progress
    /// lines do not count toward the attempt-record crash point (the
    /// crash hook models "the n-th *attempt* tears"), but a journal that
    /// has already crashed drops them like everything else.
    pub fn append_progress(&mut self, rec: &ProgressRecord) -> Result<AppendStatus, JournalError> {
        if self.crashed {
            return Ok(AppendStatus::Crashed);
        }
        self.write_line(&rec.encode())?;
        Ok(AppendStatus::Written)
    }

    fn write_line(&mut self, line: &str) -> Result<(), JournalError> {
        let result = self
            .file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.write_all(b"\n"))
            .and_then(|()| self.file.sync_data());
        match result {
            Ok(()) => {
                self.clean_len += line.len() as u64 + 1;
                Ok(())
            }
            Err(e) => {
                self.write_failures += 1;
                self.rollback();
                Err(JournalError {
                    path: self.path.clone(),
                    message: format!("write failed: {e}"),
                })
            }
        }
    }

    /// Best-effort truncation back to the last record boundary after a
    /// failed append, so a partial line never sits in the middle of the
    /// manifest. For `O_APPEND` files the seek is a no-op on writes
    /// (harmless); for created files it keeps the cursor off a hole.
    fn rollback(&mut self) {
        let _ = self.file.set_len(self.clean_len);
        let _ = self.file.seek(SeekFrom::Start(self.clean_len));
        let _ = self.file.sync_data();
    }
}

/// Everything a resume needs from an existing manifest.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ManifestSummary {
    /// The sweep header, if the first line parsed as one.
    pub header: Option<SweepHeader>,
    /// Final `Ok` record per job id: `(spec hash, payload, attempt)`.
    /// Completed jobs are final — resume never re-runs them.
    pub completed: BTreeMap<String, (u128, Vec<f64>, u32)>,
    /// Highest failed attempt seen per job id (jobs with a later `Ok` are
    /// removed). Resume re-runs failed jobs.
    pub failed_attempts: BTreeMap<String, u32>,
    /// Last heartbeat per job id — how far each cell had gotten when the
    /// manifest stopped growing. Advisory; never drives resume decisions.
    pub progress: BTreeMap<String, ProgressRecord>,
    /// Attempt records parsed.
    pub records: usize,
    /// Malformed lines skipped (a crash leaves at most one torn tail).
    pub skipped_lines: usize,
}

/// Loads a manifest, tolerating a torn tail.
///
/// # Errors
///
/// Fails only if the file cannot be read at all — parse problems are
/// per-line and reported via [`ManifestSummary::skipped_lines`].
pub fn load_manifest(path: &Path) -> Result<ManifestSummary, JournalError> {
    let text = std::fs::read_to_string(path).map_err(|e| JournalError {
        path: path.to_path_buf(),
        message: format!("read failed: {e}"),
    })?;
    let mut summary = ManifestSummary::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if i == 0 {
            if let Some(h) = decode_header(line) {
                summary.header = Some(h);
                continue;
            }
        }
        match AttemptRecord::decode(line) {
            Some(rec) => {
                summary.records += 1;
                match rec.outcome {
                    AttemptOutcome::Ok { payload, .. } => {
                        summary.failed_attempts.remove(&rec.job);
                        summary
                            .completed
                            .insert(rec.job, (rec.hash, payload, rec.attempt));
                    }
                    AttemptOutcome::Fail { .. } => {
                        if !summary.completed.contains_key(&rec.job) {
                            let e = summary.failed_attempts.entry(rec.job).or_insert(0);
                            *e = (*e).max(rec.attempt);
                        }
                    }
                }
            }
            None => match ProgressRecord::decode(line) {
                Some(p) => {
                    summary.progress.insert(p.job.clone(), p);
                }
                None => summary.skipped_lines += 1,
            },
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_rec(job: &str, attempt: u32, payload: Vec<f64>) -> AttemptRecord {
        AttemptRecord {
            job: job.into(),
            hash: u128::from(fnv1a64(job)),
            attempt,
            outcome: AttemptOutcome::Ok {
                payload,
                cached: None,
            },
        }
    }

    fn fail_rec(job: &str, attempt: u32, class: FailureClass) -> AttemptRecord {
        AttemptRecord {
            job: job.into(),
            hash: u128::from(fnv1a64(job)),
            attempt,
            outcome: AttemptOutcome::Fail {
                class,
                error: "boom".into(),
                detail: None,
            },
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn records_round_trip_through_the_serializer() {
        let recs = [
            ok_rec("fig7/mcf", 2, vec![8.4, -0.5, 1.0 / 3.0]),
            fail_rec("fig9/lbm", 1, FailureClass::Deadlock),
            ok_rec("ablations/namd", 1, vec![]),
        ];
        for r in recs {
            assert_eq!(AttemptRecord::decode(&r.encode()), Some(r.clone()), "{r:?}");
        }
    }

    #[test]
    fn structured_failure_detail_round_trips() {
        let detail = Value::Obj(vec![
            ("kind".into(), Value::Str("deadlock".into())),
            ("cycle".into(), Value::Num(5e6)),
            ("stalled_for".into(), Value::Num(2e6)),
        ]);
        let rec = AttemptRecord {
            job: "fig7/lbm".into(),
            hash: u128::from(fnv1a64("fig7/lbm")),
            attempt: 1,
            outcome: AttemptOutcome::Fail {
                class: FailureClass::Deadlock,
                error: "simulator deadlock at cycle 5000000".into(),
                detail: Some(detail.clone()),
            },
        };
        let decoded = AttemptRecord::decode(&rec.encode()).expect("round trip");
        assert_eq!(decoded, rec);
        let AttemptOutcome::Fail {
            detail: Some(d), ..
        } = decoded.outcome
        else {
            panic!("detail lost");
        };
        assert_eq!(d.get("kind").unwrap().as_str(), Some("deadlock"));
        assert_eq!(d.get("cycle").unwrap().as_u64(), Some(5_000_000));
    }

    #[test]
    fn journal_writes_and_manifest_loads() {
        let dir = std::env::temp_dir().join("crisp-harness-journal-basic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let header = SweepHeader {
            spec: "test sweep".into(),
            jobs: 2,
        };
        let mut j = Journal::create(&path, &header).unwrap();
        assert_eq!(
            j.append(&fail_rec("a", 1, FailureClass::Timeout)).unwrap(),
            AppendStatus::Written
        );
        assert_eq!(
            j.append(&ok_rec("a", 2, vec![1.5])).unwrap(),
            AppendStatus::Written
        );
        assert_eq!(
            j.append(&fail_rec("b", 1, FailureClass::Panic)).unwrap(),
            AppendStatus::Written
        );
        drop(j);

        let m = load_manifest(&path).unwrap();
        assert_eq!(m.header, Some(header));
        assert_eq!(m.records, 3);
        assert_eq!(m.skipped_lines, 0);
        assert_eq!(
            m.completed.get("a"),
            Some(&(u128::from(fnv1a64("a")), vec![1.5], 2))
        );
        assert_eq!(m.failed_attempts.get("b"), Some(&1));
        assert!(!m.failed_attempts.contains_key("a"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_point_tears_the_tail_and_load_tolerates_it() {
        let dir = std::env::temp_dir().join("crisp-harness-journal-crash");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let header = SweepHeader {
            spec: "crash sweep".into(),
            jobs: 3,
        };
        let mut j = Journal::create(&path, &header).unwrap();
        j.crash_after_records(1);
        assert_eq!(
            j.append(&ok_rec("a", 1, vec![2.0])).unwrap(),
            AppendStatus::Written
        );
        assert_eq!(
            j.append(&ok_rec("b", 1, vec![3.0])).unwrap(),
            AppendStatus::Crashed
        );
        assert!(j.crashed());
        // Post-crash appends are silently dropped, like a dead process.
        assert_eq!(
            j.append(&ok_rec("c", 1, vec![4.0])).unwrap(),
            AppendStatus::Crashed
        );
        drop(j);

        let m = load_manifest(&path).unwrap();
        assert_eq!(m.records, 1);
        assert_eq!(m.skipped_lines, 1, "torn tail is skipped, not fatal");
        assert!(m.completed.contains_key("a"));
        assert!(!m.completed.contains_key("b"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_append_extends_an_existing_manifest() {
        let dir = std::env::temp_dir().join("crisp-harness-journal-append");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let header = SweepHeader {
            spec: "s".into(),
            jobs: 2,
        };
        let mut j = Journal::create(&path, &header).unwrap();
        j.append(&ok_rec("a", 1, vec![1.0])).unwrap();
        drop(j);
        let mut j = Journal::open_append(&path).unwrap();
        j.append(&ok_rec("b", 1, vec![2.0])).unwrap();
        drop(j);
        let m = load_manifest(&path).unwrap();
        assert_eq!(m.completed.len(), 2);
        assert_eq!(m.header.unwrap().spec, "s");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn progress_records_round_trip_and_load_keeps_the_latest() {
        let rec = ProgressRecord {
            job: "fig7/mcf".into(),
            cycles: 123_456,
            instrs: 7_890,
            wall_ms: 42,
        };
        assert_eq!(ProgressRecord::decode(&rec.encode()), Some(rec.clone()));

        let dir = std::env::temp_dir().join("crisp-harness-journal-progress");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let header = SweepHeader {
            spec: "s".into(),
            jobs: 1,
        };
        let mut j = Journal::create(&path, &header).unwrap();
        j.append_progress(&ProgressRecord {
            cycles: 10,
            instrs: 1,
            wall_ms: 5,
            ..rec.clone()
        })
        .unwrap();
        j.append_progress(&rec).unwrap();
        j.append(&ok_rec("fig7/mcf", 1, vec![1.0])).unwrap();
        drop(j);

        let m = load_manifest(&path).unwrap();
        assert_eq!(
            m.skipped_lines, 0,
            "progress lines are recognized, not skipped"
        );
        assert_eq!(m.records, 1, "only attempt records count");
        assert_eq!(m.progress.get("fig7/mcf"), Some(&rec), "latest wins");
        assert!(m.completed.contains_key("fig7/mcf"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn progress_lines_do_not_advance_the_crash_point() {
        let dir = std::env::temp_dir().join("crisp-harness-journal-progress-crash");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let header = SweepHeader {
            spec: "s".into(),
            jobs: 2,
        };
        let mut j = Journal::create(&path, &header).unwrap();
        j.crash_after_records(1);
        let beat = ProgressRecord {
            job: "a".into(),
            cycles: 1,
            instrs: 1,
            wall_ms: 1,
        };
        // Heartbeats before, between and after: none of them count toward
        // the crash point; the second *attempt* record is the one that tears.
        assert_eq!(j.append_progress(&beat).unwrap(), AppendStatus::Written);
        assert_eq!(
            j.append(&ok_rec("a", 1, vec![1.0])).unwrap(),
            AppendStatus::Written
        );
        assert_eq!(j.append_progress(&beat).unwrap(), AppendStatus::Written);
        assert_eq!(
            j.append(&ok_rec("b", 1, vec![2.0])).unwrap(),
            AppendStatus::Crashed
        );
        assert_eq!(j.append_progress(&beat).unwrap(), AppendStatus::Crashed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_append_failure_rolls_back_and_recovers() {
        let dir = std::env::temp_dir().join("crisp-harness-journal-enospc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let header = SweepHeader {
            spec: "s".into(),
            jobs: 2,
        };
        let mut j = Journal::create(&path, &header).unwrap();
        j.append(&ok_rec("a", 1, vec![1.0])).unwrap();
        j.fail_appends(2);
        assert!(j.append(&ok_rec("b", 1, vec![2.0])).is_err());
        assert!(j.append(&ok_rec("b", 2, vec![2.0])).is_err());
        assert_eq!(j.write_failures(), 2);
        // The disk "recovers": the next append lands cleanly.
        assert_eq!(
            j.append(&ok_rec("b", 3, vec![2.0])).unwrap(),
            AppendStatus::Written
        );
        drop(j);

        let m = load_manifest(&path).unwrap();
        assert_eq!(m.skipped_lines, 0, "rollback leaves no torn interior lines");
        assert_eq!(m.records, 2);
        assert_eq!(m.completed.get("b").map(|c| c.2), Some(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_append_isolates_a_torn_tail() {
        let dir = std::env::temp_dir().join("crisp-harness-journal-torn-open");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let header = SweepHeader {
            spec: "s".into(),
            jobs: 2,
        };
        let mut j = Journal::create(&path, &header).unwrap();
        j.append(&ok_rec("a", 1, vec![1.0])).unwrap();
        drop(j);
        // Simulate a SIGKILL mid-write: a fragment with no newline.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"v\":2,\"kind\":\"att").unwrap();
        }
        let mut j = Journal::open_append(&path).unwrap();
        j.append(&ok_rec("b", 1, vec![2.0])).unwrap();
        drop(j);

        let m = load_manifest(&path).unwrap();
        assert_eq!(m.skipped_lines, 1, "the fragment is one isolated line");
        assert!(m.completed.contains_key("a"));
        assert!(
            m.completed.contains_key("b"),
            "the post-repair record did not glue onto the fragment"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn alien_and_versioned_lines_are_skipped() {
        assert_eq!(AttemptRecord::decode("not json"), None);
        assert_eq!(
            AttemptRecord::decode("{\"v\":99,\"kind\":\"attempt\"}"),
            None
        );
        assert_eq!(
            AttemptRecord::decode("{\"v\":1,\"kind\":\"sweep\",\"spec\":\"s\",\"jobs\":1}"),
            None
        );
    }

    #[test]
    fn cached_provenance_round_trips() {
        let rec = AttemptRecord {
            job: "fig1/pointer_chase".into(),
            hash: 0xfeed_face_cafe_beef_0123_4567_89ab_cdef,
            attempt: 1,
            outcome: AttemptOutcome::Ok {
                payload: vec![2.5, 3.5],
                cached: Some(0xfeed_face_cafe_beef_0123_4567_89ab_cdef),
            },
        };
        let line = rec.encode();
        assert!(line.contains("\"cached\""), "{line}");
        assert_eq!(AttemptRecord::decode(&line), Some(rec));
    }

    #[test]
    fn v1_manifest_lines_are_skipped() {
        // Literal lines as v1 binaries wrote them: 16-hex hash, no
        // `cached` field.
        let line = format!(
            "{{\"v\":1,\"kind\":\"attempt\",\"job\":\"a\",\"hash\":\"{:016x}\",\
             \"attempt\":2,\"outcome\":\"ok\",\"payload\":[1.5,-0.25]}}",
            fnv1a64("a spec-v1")
        );
        assert_eq!(AttemptRecord::decode(&line), None);
        let header = "{\"v\":1,\"kind\":\"sweep\",\"spec\":\"s\",\"jobs\":3}";
        assert_eq!(decode_header(header), None);
        let beat = "{\"v\":1,\"kind\":\"progress\",\"job\":\"a\",\"cycles\":7,\
                    \"instrs\":3,\"wall_ms\":1}";
        assert!(ProgressRecord::decode(beat).is_none());
        // The same lines at the current version decode.
        assert!(AttemptRecord::decode(&line.replace("\"v\":1", "\"v\":2")).is_some());
    }
}
