//! Chaos tests against the real `crisp-serve` daemon and `crisp` client
//! binaries: the fault-tolerance contract of the job API.
//!
//! - **SIGKILL mid-cell**: kill the daemon while a job's sweep is inside
//!   a cell, restart over the same data directory, and the *same* job id
//!   polls through to tables byte-identical to an unchaosed reference
//!   run, with each unique cell simulated at most once across both
//!   daemon lifetimes (manifest-verified) and a clean `crisp cache
//!   verify`. A second daemon with a fresh job registry over the warm
//!   reference store serves the same sweep with every cell warm, zero
//!   simulations and byte-identical tables.
//! - **Queue-full storm**: with an admission cap of 1, a burst of
//!   distinct submissions yields exactly one 202 and 429s (with
//!   `Retry-After`) for the rest; no admitted job is lost or run twice,
//!   and no refused job leaves any trace.
//! - **Graceful drain**: SIGTERM mid-job exits 0, leaves the job
//!   incomplete, and a restart recovers and finishes it.
//! - **Events over the wire**: a submitted job's supervisor events
//!   (`cell-started`, `cell-done`) stream through `GET /jobs/ID/events`
//!   to their end, and the result exists once the stream ends.

use crisp_harness::journal::{AttemptOutcome, AttemptRecord};
use crisp_obs::json::Value;
use crisp_serve::{Client, ClientConfig, RetryPolicy, SubmitRequest};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SERVE_BIN: &str = env!("CARGO_BIN_EXE_crisp-serve");
const CRISP_BIN: &str = env!("CARGO_BIN_EXE_crisp");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crisp-serve-chaos-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A daemon process plus the client pointed at it.
struct Daemon {
    child: Child,
    client: Client,
}

fn spawn_daemon(data: &Path, store: &Path, extra: &[&str]) -> Daemon {
    // A fresh spawn must not race against a previous lifetime's
    // endpoint file.
    std::fs::remove_file(data.join("endpoint")).ok();
    let child = Command::new(SERVE_BIN)
        .arg("--data")
        .arg(data)
        .arg("--store")
        .arg(store)
        .args(["--heartbeat", "50", "--quiet"])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn crisp-serve");
    let deadline = Instant::now() + Duration::from_secs(20);
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(data.join("endpoint")) {
            if !s.is_empty() {
                break s;
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon never published {}/endpoint",
            data.display()
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    Daemon {
        child,
        client: Client::new(ClientConfig {
            addr,
            ..ClientConfig::default()
        }),
    }
}

impl Daemon {
    fn submit(&self, targets: &[&str], workloads: &[&str]) -> Value {
        self.client
            .submit(&SubmitRequest {
                targets: targets.iter().map(|s| s.to_string()).collect(),
                workloads: Some(workloads.iter().map(|s| s.to_string()).collect()),
                scale: "tiny".to_string(),
                prefetcher: None,
            })
            .expect("submit")
    }

    fn wait_state(&self, id: &str, want: &str) {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let state = self
                .client
                .status(id)
                .ok()
                .and_then(|v| v.get("state").and_then(Value::as_str).map(str::to_string))
                .unwrap_or_default();
            if state == want {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "job {id} never reached `{want}` (last `{state}`)"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn wait_result(&self, id: &str) -> Value {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if let Some(doc) = self.client.result(id).expect("poll result") {
                return doc;
            }
            assert!(Instant::now() < deadline, "job {id} never finished");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn sigterm(&self) {
        let ok = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("run kill")
            .success();
        assert!(ok, "kill -TERM failed");
    }
}

fn rendered(doc: &Value) -> String {
    doc.get("rendered")
        .and_then(Value::as_str)
        .expect("result has rendered tables")
        .to_string()
}

fn id_of(ack: &Value) -> String {
    ack.get("id")
        .and_then(Value::as_str)
        .expect("ack has id")
        .to_string()
}

/// Per-job computed-attempt counts from a job's `run.jsonl` manifest —
/// ok records *without* store provenance, i.e. actual simulations.
fn computed_counts(manifest: &Path) -> HashMap<String, usize> {
    let text = std::fs::read_to_string(manifest).expect("read run.jsonl");
    let mut counts = HashMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        if let Some(rec) = AttemptRecord::decode(line) {
            if matches!(rec.outcome, AttemptOutcome::Ok { cached: None, .. }) {
                *counts.entry(rec.job).or_insert(0) += 1;
            }
        }
    }
    counts
}

fn cache_verify_clean(store: &Path) {
    let out = Command::new(CRISP_BIN)
        .args(["cache", "verify", "--store"])
        .arg(store)
        .output()
        .expect("run crisp cache verify");
    assert!(
        out.status.success(),
        "cache verify failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn sigkill_mid_cell_then_restart_resumes_to_byte_identical_tables() {
    let root = temp_dir("sigkill");
    let targets = ["fig11"];
    let workloads = ["mcf", "lbm"];

    // Reference: an unchaosed daemon lifetime over its own store.
    let ref_tables = {
        let mut d = spawn_daemon(&root.join("ref-data"), &root.join("ref-store"), &[]);
        let ack = d.submit(&targets, &workloads);
        let tables = rendered(&d.wait_result(&id_of(&ack)));
        d.sigterm();
        let status = d.child.wait().expect("wait daemon");
        assert_eq!(status.code(), Some(0), "drain must exit 0");
        tables
    };
    assert!(ref_tables.contains("Figure 11"), "{ref_tables}");

    // A second daemon with a fresh job registry over the warm reference
    // store serves the same sweep without simulating anything.
    {
        let warm_data = root.join("warm-data");
        let mut d = spawn_daemon(&warm_data, &root.join("ref-store"), &[]);
        let ack = d.submit(&targets, &workloads);
        let cells = ack.get("cells").cloned();
        assert!(matches!(cells, Some(Value::Num(n)) if n > 0.0), "{ack:?}");
        assert_eq!(ack.get("warm_cells").cloned(), cells, "{ack:?}");
        let id = id_of(&ack);
        let tables = rendered(&d.wait_result(&id));
        let computed = computed_counts(&warm_data.join("jobs").join(&id).join("run.jsonl"));
        assert!(computed.is_empty(), "warm daemon simulated {computed:?}");
        assert_eq!(tables, ref_tables, "warm tables must be byte-identical");
        d.sigterm();
        let status = d.child.wait().expect("wait daemon");
        assert_eq!(status.code(), Some(0), "drain must exit 0");
    }

    // Chaos lifetime: wide mid-cell windows, then SIGKILL while running.
    let data = root.join("data");
    let store = root.join("store");
    let mut d = spawn_daemon(&data, &store, &["--cell-delay-ms", "600"]);
    let ack = d.submit(&targets, &workloads);
    let id = id_of(&ack);
    assert_eq!(
        ack.get("state").and_then(Value::as_str),
        Some("queued"),
        "{ack:?}"
    );
    d.wait_state(&id, "running");
    // The first cell is inside its 600 ms delay window right now.
    std::thread::sleep(Duration::from_millis(100));
    d.child.kill().expect("SIGKILL daemon");
    d.child.wait().expect("reap");

    // Restart over the same data dir: the pre-crash job id must recover,
    // resume, and finish — polled through the *new* daemon.
    let d2 = spawn_daemon(&data, &store, &[]);
    d2.wait_state(&id, "done");
    let result = d2.wait_result(&id);
    assert_eq!(
        rendered(&result),
        ref_tables,
        "post-crash tables must be byte-identical to the clean reference"
    );

    // Exactly-once: across both daemon lifetimes, no cell was simulated
    // twice (the manifest spans the crash; store hits don't count).
    let counts = computed_counts(&data.join("jobs").join(&id).join("run.jsonl"));
    assert!(!counts.is_empty(), "manifest recorded no computed cells");
    for (job, n) in &counts {
        assert_eq!(*n, 1, "cell {job} was simulated {n} times");
    }

    // And the store the crash interrupted still verifies clean.
    cache_verify_clean(&store);

    // Idempotence across restarts: resubmitting the finished sweep —
    // with the workload filter deliberately reordered — coalesces onto
    // the done job with every cell warm.
    let again = d2.submit(&targets, &["lbm", "mcf"]);
    assert_eq!(id_of(&again), id);
    assert_eq!(again.get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(
        again.get("warm_cells"),
        Some(&Value::Num(counts.len() as f64)),
        "{again:?}"
    );

    d2.sigterm();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn storm_gets_429_backpressure_and_loses_no_admitted_job() {
    let root = temp_dir("storm");
    let d = spawn_daemon(
        &root.join("data"),
        &root.join("store"),
        &["--queue", "1", "--cell-delay-ms", "500"],
    );
    // A client with no retry budget, so 429s surface instead of backing off.
    let no_retry = Client::new(ClientConfig {
        addr: d.client.addr().to_string(),
        retry: RetryPolicy {
            max_retries: 0,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(1),
        },
        timeout: Duration::from_secs(10),
    });
    let submit_raw = |workload: &str| {
        let req = SubmitRequest {
            targets: vec!["fig11".to_string()],
            workloads: Some(vec![workload.to_string()]),
            scale: "tiny".to_string(),
            prefetcher: None,
        };
        no_retry.submit(&req)
    };

    // First submission is admitted and occupies the single queue slot.
    let admitted = submit_raw("mcf").expect("first submission admitted");
    let admitted_id = id_of(&admitted);

    // The storm: distinct jobs against a full queue must all be refused
    // with 429 + Retry-After (surfaced as exhaustion by the no-retry
    // client), and must leave no trace in the registry.
    let mut refused = Vec::new();
    for workload in ["lbm", "xhpcg", "namd"] {
        match submit_raw(workload) {
            Err(crisp_serve::ClientError::Exhausted { last, .. }) => {
                assert!(last.contains("429"), "expected 429, got: {last}");
                assert!(last.contains("queue full"), "{last}");
                refused.push(workload);
            }
            other => panic!("storm submission for {workload} was not refused: {other:?}"),
        }
    }
    assert_eq!(refused.len(), 3);

    // A duplicate of the *admitted* job coalesces instead of consuming
    // queue capacity or being refused.
    let dup = submit_raw("mcf").expect("duplicate of admitted job coalesces");
    assert_eq!(id_of(&dup), admitted_id);
    assert_eq!(dup.get("coalesced"), Some(&Value::Bool(true)));

    // The admitted job is never lost: it completes exactly once.
    let result = d.wait_result(&admitted_id);
    assert_eq!(
        result.get("state").and_then(Value::as_str),
        Some("done"),
        "{result:?}"
    );

    // Refused jobs left no trace — their ids were never admitted.
    for workload in refused {
        let id = expected_job_id(workload);
        assert!(
            matches!(
                d.client.status(&id),
                Err(crisp_serve::ClientError::Rejected { status: 404, .. })
            ),
            "refused job {workload} left a registry trace"
        );
    }

    // Capacity freed: a previously refused job now admits and finishes.
    let retry = submit_raw("lbm").expect("post-storm submission admitted");
    let retry_result = d.wait_result(&id_of(&retry));
    assert_eq!(
        retry_result.get("state").and_then(Value::as_str),
        Some("done")
    );

    let stats = d.client.stats().expect("stats");
    assert_eq!(
        stats.get("rejected_busy"),
        Some(&Value::Num(3.0)),
        "{stats:?}"
    );

    d.sigterm();
    std::fs::remove_dir_all(&root).ok();
}

/// The job id a `fig11`/tiny/single-workload submission maps to,
/// derived exactly the way the daemon's planner does: canonical sweep
/// spec + content-addressed cell keys. Lets the storm test probe ids
/// that were refused admission and so never existed server-side.
fn expected_job_id(workload: &str) -> String {
    use crisp_bench::sweep::{build_jobs, sweep_spec, SweepConfig};
    let cfg = SweepConfig {
        scale: crisp_bench::ExperimentScale::Tiny,
        targets: vec!["fig11".to_string()],
        workloads: Some(vec![workload.to_string()]),
        ..SweepConfig::default()
    };
    let cells: Vec<u128> = build_jobs(&cfg)
        .iter()
        .map(|j| crisp_harness::cell_key(&j.id, &j.spec))
        .collect();
    crisp_store::key_hex(crisp_serve::daemon::job_id(&sweep_spec(&cfg), &cells))
}

#[test]
fn sigterm_drains_exit_zero_and_restart_completes_the_job() {
    let root = temp_dir("drain");
    let data = root.join("data");
    let store = root.join("store");
    let mut d = spawn_daemon(&data, &store, &["--cell-delay-ms", "500"]);
    let ack = d.submit(&["fig11"], &["mcf"]);
    let id = id_of(&ack);
    d.wait_state(&id, "running");

    // An oversized prefetcher option is refused at admission, and the
    // daemon keeps serving.
    let oversized = d.client.submit(&SubmitRequest {
        targets: vec!["fig11".to_string()],
        workloads: Some(vec!["mcf".to_string()]),
        scale: "tiny".to_string(),
        prefetcher: Some("stream:streams=4611686018427387904".to_string()),
    });
    assert!(
        matches!(
            &oversized,
            Err(crisp_serve::ClientError::Rejected { status: 400, message })
                if message.contains("prefetcher")
        ),
        "{oversized:?}"
    );

    // SIGTERM mid-cell: the daemon must drain and exit 0, leaving the
    // job admitted but unfinished.
    d.sigterm();
    let status = d.child.wait().expect("wait daemon");
    assert_eq!(status.code(), Some(0), "graceful drain must exit 0");
    assert!(
        data.join("jobs").join(&id).join("request.json").is_file(),
        "drained job must stay admitted"
    );
    assert!(
        !data.join("jobs").join(&id).join("result.json").is_file(),
        "drained job must not have a result yet"
    );

    // Restart recovers and completes it under the same id.
    let d2 = spawn_daemon(&data, &store, &[]);
    let result = d2.wait_result(&id);
    assert_eq!(
        result.get("state").and_then(Value::as_str),
        Some("done"),
        "{result:?}"
    );
    assert!(rendered(&result).contains("Figure 11"));
    d2.sigterm();
    std::fs::remove_dir_all(&root).ok();
}

/// Over the wire: the daemon streams a submitted job's live NDJSON
/// supervisor events, and the stream ends exactly when the result is
/// available.
#[test]
fn serve_streams_events_through_to_result() {
    let root = temp_dir("wire");
    let data = root.join("data");
    std::fs::create_dir_all(&data).unwrap();
    let mut child = Command::new(SERVE_BIN)
        .arg("--data")
        .arg(&data)
        .arg("--store")
        .arg(root.join("store"))
        .args(["--heartbeat", "50", "--quiet"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn crisp-serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(data.join("endpoint")) {
            if !s.is_empty() {
                break s;
            }
        }
        assert!(Instant::now() < deadline, "daemon never published endpoint");
        std::thread::sleep(Duration::from_millis(10));
    };
    let client = Client::new(ClientConfig {
        addr,
        ..ClientConfig::default()
    });

    let ack = client
        .submit(&SubmitRequest {
            targets: vec!["fig11".to_string()],
            workloads: Some(vec!["mcf".to_string()]),
            scale: "tiny".to_string(),
            prefetcher: None,
        })
        .expect("submit");
    let id = ack
        .get("id")
        .and_then(Value::as_str)
        .expect("ack has id")
        .to_string();

    // Follow the live stream to its end, reconnecting on drops exactly
    // like `crisp watch --follow` does.
    let mut names = Vec::new();
    let mut cursor = 0;
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        assert!(Instant::now() < deadline, "event stream never ended");
        let (delivered, ended) = client
            .follow(&id, cursor, &mut |event| {
                if let Some(name) = event.get("event").and_then(Value::as_str) {
                    names.push(name.to_string());
                }
            })
            .expect("follow events");
        cursor += delivered;
        if ended {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    for want in ["cell-started", "cell-done"] {
        assert!(names.iter().any(|n| n == want), "missing {want}: {names:?}");
    }

    // The stream only ends once the result exists.
    let result = client
        .result(&id)
        .expect("poll result")
        .expect("stream ended, result must exist");
    let rendered = result
        .get("rendered")
        .and_then(Value::as_str)
        .expect("result has rendered tables");
    assert!(rendered.contains("Figure 11"), "{rendered}");

    let ok = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill")
        .success();
    assert!(ok);
    let status = child.wait().expect("reap daemon");
    assert_eq!(status.code(), Some(0), "drain must exit 0");
    std::fs::remove_dir_all(&root).ok();
}
