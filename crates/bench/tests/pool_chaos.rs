//! Chaos tests for the multi-process worker pool: the crash-containment
//! contract of `--workers`.
//!
//! - **SIGKILL a worker mid-cell**: the daemon-side supervisor must
//!   survive, steal the dead worker's lease, recompute the cell on
//!   another worker, and render tables byte-identical to a serial
//!   in-process reference — with each unique cell simulated exactly
//!   once per manifest and a clean `crisp cache verify`.
//! - **Poison quarantine**: a cell that kills every worker it touches
//!   (`--inject-panic` aborts the worker process) is quarantined as
//!   DEGRADED with crash forensics after `poison_threshold` consecutive
//!   deaths, without sinking the sweep or the pool.
//! - **Version-skew refusal**: a worker reporting a mismatched semver
//!   is refused at handshake (pool spawn fails; worker exits 3).
//! - **Two pools, one store**: concurrent sweeps over a shared store
//!   compute each unique cell exactly once between them.
//! - **Over the wire**: `crisp-serve --workers 2` streams live NDJSON
//!   events for a submitted job through to its result.

use crisp_bench::sweep::{run_supervised_sweep, Chaos, SweepConfig, SweepOutput};
use crisp_bench::ExperimentScale;
use crisp_harness::journal::{AttemptOutcome, AttemptRecord};
use crisp_harness::{
    read_frame, write_frame, FailureClass, JobOutcome, PoolOptions, RetryPolicy, WorkerPool,
};
use crisp_obs::json::Value;
use crisp_serve::{Client, ClientConfig, SubmitRequest};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_crisp-worker");
const SERVE_BIN: &str = env!("CARGO_BIN_EXE_crisp-serve");
const CRISP_BIN: &str = env!("CARGO_BIN_EXE_crisp");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crisp-pool-chaos-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spawn_pool(workers: usize, poison_threshold: u32) -> Arc<WorkerPool> {
    Arc::new(
        WorkerPool::spawn(PoolOptions {
            worker_bin: PathBuf::from(WORKER_BIN),
            workers,
            poison_threshold,
            ..PoolOptions::default()
        })
        .expect("spawn worker pool"),
    )
}

/// A tiny two-cell sweep (fig11 × {mcf, lbm}) with a fast retry clock.
fn tiny_cfg() -> SweepConfig {
    SweepConfig {
        scale: ExperimentScale::Tiny,
        targets: vec!["fig11".to_string()],
        workloads: Some(vec!["mcf".to_string(), "lbm".to_string()]),
        retry: RetryPolicy {
            max_retries: 3,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(50),
        },
        ..SweepConfig::default()
    }
}

/// The serial in-process reference: same cells, no pool, no store.
fn serial_reference() -> SweepOutput {
    let out = run_supervised_sweep(&tiny_cfg()).expect("serial reference sweep");
    assert!(out.rendered.contains("Figure 11"), "{}", out.rendered);
    out
}

/// Per-job computed-attempt counts from a manifest — ok records
/// *without* store provenance, i.e. actual simulations.
fn computed_counts(manifest: &Path) -> HashMap<String, usize> {
    let text = std::fs::read_to_string(manifest).expect("read manifest");
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

/// SIGKILL one pooled worker while it is inside a cell: the lease is
/// stolen, the cell recomputed on a live worker, and the tables come
/// out byte-identical to the serial reference.
#[test]
fn sigkill_worker_mid_cell_steals_lease_and_recomputes_identical_tables() {
    let root = temp_dir("sigkill");
    let reference = serial_reference();

    let pool = spawn_pool(2, 3);
    let status = pool.status();
    let killer = {
        let status = Arc::clone(&status);
        std::thread::spawn(move || {
            // Wait until a worker is actually executing a cell, give it
            // time to get inside the 600 ms delay window, then kill it.
            let deadline = Instant::now() + Duration::from_secs(60);
            while status
                .workers_busy
                .load(std::sync::atomic::Ordering::SeqCst)
                == 0
            {
                assert!(Instant::now() < deadline, "no worker ever went busy");
                std::thread::sleep(Duration::from_millis(5));
            }
            std::thread::sleep(Duration::from_millis(150));
            let pids = status.pids();
            let victim = *pids.first().expect("pool has live workers");
            let ok = Command::new("kill")
                .args(["-9", &victim.to_string()])
                .status()
                .expect("run kill")
                .success();
            assert!(ok, "kill -9 {victim} failed");
        })
    };

    let manifest = root.join("pooled.jsonl");
    let store = root.join("store");
    let mut cfg = tiny_cfg();
    cfg.workers = 2;
    cfg.pool = Some(Arc::clone(&pool));
    cfg.manifest = Some(manifest.clone());
    cfg.store = Some(store.clone());
    cfg.cell_delay = Some(Duration::from_millis(600));
    let out = run_supervised_sweep(&cfg).expect("pooled sweep");
    killer.join().expect("killer thread");

    assert!(!out.report.crashed, "the supervisor itself must survive");
    assert!(
        !out.degraded(),
        "the killed cell must be retried to success: {:?}",
        out.report.taxonomy()
    );
    assert_eq!(
        out.rendered, reference.rendered,
        "pooled tables must be byte-identical to the serial reference"
    );

    // The dead worker's lease was stolen, its replacement respawned.
    let steals = status.steals.load(std::sync::atomic::Ordering::SeqCst);
    assert!(steals >= 1, "expected at least one lease steal");
    assert_eq!(
        status
            .workers_alive
            .load(std::sync::atomic::Ordering::SeqCst),
        2,
        "the pool must respawn a replacement for the killed worker"
    );

    // Exactly-once: the crash shows up as a failed attempt, never as a
    // second successful simulation of the same cell.
    let counts = computed_counts(&manifest);
    assert_eq!(counts.len(), 2, "two unique cells: {counts:?}");
    for (job, n) in &counts {
        assert_eq!(*n, 1, "cell {job} was simulated {n} times");
    }
    cache_verify_clean(&store);

    pool.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

/// A poison cell — one that aborts its worker process on every attempt —
/// is quarantined after `poison_threshold` consecutive deaths, with
/// forensics on the DEGRADED outcome, while the rest of the sweep and
/// the pool itself carry on.
#[test]
fn poison_cell_quarantines_with_forensics_without_sinking_the_sweep() {
    let root = temp_dir("poison");
    let pool = spawn_pool(2, 2);
    let status = pool.status();

    let manifest = root.join("poison.jsonl");
    let store = root.join("store");
    let mut cfg = tiny_cfg();
    cfg.workers = 2;
    cfg.pool = Some(Arc::clone(&pool));
    cfg.manifest = Some(manifest.clone());
    cfg.store = Some(store.clone());
    cfg.chaos = Chaos {
        panic_once: vec!["mcf".to_string()],
        stall: Vec::new(),
    };
    let out = run_supervised_sweep(&cfg).expect("poisoned sweep");

    // The sweep completes degraded: the poison cell failed permanently,
    // the healthy cell rendered.
    assert!(!out.report.crashed);
    assert!(out.degraded(), "poison cell must degrade the sweep");
    assert!(out.rendered.contains("Figure 11"), "{}", out.rendered);

    let poisoned: Vec<(&String, &JobOutcome)> = out
        .report
        .outcomes
        .iter()
        .filter(|(id, _)| id.contains("mcf"))
        .collect();
    assert_eq!(poisoned.len(), 1);
    match poisoned[0].1 {
        JobOutcome::Failed {
            class,
            error,
            detail,
            ..
        } => {
            assert_eq!(*class, FailureClass::Poisoned, "{error}");
            assert!(error.contains("quarantined"), "{error}");
            // Forensics travel with the outcome: what killed the workers.
            let detail = detail.as_ref().expect("quarantine carries forensics");
            for key in ["argv", "exit", "stderr_tail", "consecutive_crashes"] {
                assert!(
                    detail.get(key).is_some(),
                    "forensics missing {key}: {detail:?}"
                );
            }
        }
        other => panic!("poison cell did not fail: {other:?}"),
    }
    for (id, outcome) in &out.report.outcomes {
        if id.contains("lbm") {
            assert!(
                matches!(outcome, JobOutcome::Completed { .. }),
                "healthy cell {id} must complete: {outcome:?}"
            );
        }
    }

    // The pool survived its serial killers and still has a full bench.
    assert!(status.poisoned.load(std::sync::atomic::Ordering::SeqCst) >= 1);
    assert_eq!(
        status
            .workers_alive
            .load(std::sync::atomic::Ordering::SeqCst),
        2
    );
    // Nothing poisonous was published: the store still verifies clean.
    cache_verify_clean(&store);

    pool.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

/// Version skew is refused at handshake, from both ends: the pool
/// refuses to come up over mismatched workers, and a refused worker
/// exits with the dedicated code 3.
#[test]
fn version_skew_is_refused_at_handshake() {
    // Pool side: expecting a version no worker reports fails spawn.
    let err = WorkerPool::spawn(PoolOptions {
        worker_bin: PathBuf::from(WORKER_BIN),
        workers: 1,
        expect_version: "999.0.0".to_string(),
        ..PoolOptions::default()
    })
    .expect_err("skewed pool must refuse to spawn");
    assert!(err.contains("version skew"), "{err}");

    // Worker side: drive the handshake by hand and refuse it; the
    // worker must report the faked semver and exit 3.
    let mut child = Command::new(WORKER_BIN)
        .env("CRISP_WORKER_FAKE_VERSION", "0.0.1-skew")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn crisp-worker");
    let mut stdout = child.stdout.take().expect("worker stdout");
    let hello = read_frame(&mut stdout)
        .expect("read hello")
        .expect("worker sent hello");
    assert_eq!(hello.get("type").and_then(Value::as_str), Some("hello"));
    assert_eq!(
        hello.get("version").and_then(Value::as_str),
        Some("0.0.1-skew")
    );
    let mut stdin = child.stdin.take().expect("worker stdin");
    write_frame(
        &mut stdin,
        &Value::Obj(vec![
            ("type".to_string(), Value::Str("refuse".to_string())),
            (
                "reason".to_string(),
                Value::Str("version skew (test)".to_string()),
            ),
        ]),
    )
    .expect("send refuse");
    let status = child.wait().expect("reap worker");
    assert_eq!(status.code(), Some(3), "refused worker must exit 3");
}

/// Two pools over one shared store: concurrent sweeps of the same cells
/// compute each unique cell exactly once between them (store advisory
/// locks), and both render identical tables.
#[test]
fn two_pools_sharing_one_store_compute_each_cell_exactly_once() {
    let root = temp_dir("shared-store");
    let reference = serial_reference();
    let store = root.join("store");

    fn run(tag: &str, root: &Path, store: &Path) -> SweepOutput {
        let pool = spawn_pool(2, 3);
        let mut cfg = tiny_cfg();
        cfg.workers = 2;
        cfg.pool = Some(Arc::clone(&pool));
        cfg.manifest = Some(root.join(format!("{tag}.jsonl")));
        cfg.store = Some(store.to_path_buf());
        cfg.cell_delay = Some(Duration::from_millis(200));
        let out = run_supervised_sweep(&cfg).expect("pooled sweep");
        pool.shutdown();
        out
    }
    let a = {
        let (root, store) = (root.clone(), store.clone());
        std::thread::spawn(move || run("pool-a", &root, &store))
    };
    let b = run("pool-b", &root, &store);
    let a = a.join().expect("pool-a thread");

    for (tag, out) in [("pool-a", &a), ("pool-b", &b)] {
        assert!(!out.report.crashed, "{tag} crashed");
        assert!(
            !out.degraded(),
            "{tag} degraded: {:?}",
            out.report.taxonomy()
        );
        assert_eq!(
            out.rendered, reference.rendered,
            "{tag} tables must match the serial reference"
        );
    }

    // Exactly-once across both sweeps: every unique cell was simulated
    // once in total; the other sweep took it as a store hit or waited
    // out the holder's lease and re-probed.
    let mut combined: HashMap<String, usize> = HashMap::new();
    for tag in ["pool-a", "pool-b"] {
        for (job, n) in computed_counts(&root.join(format!("{tag}.jsonl"))) {
            *combined.entry(job).or_insert(0) += n;
        }
    }
    assert_eq!(combined.len(), 2, "two unique cells: {combined:?}");
    for (job, n) in &combined {
        assert_eq!(*n, 1, "cell {job} was simulated {n} times across pools");
    }
    assert_eq!(
        a.report.store_hits + b.report.store_hits,
        2,
        "the non-computing sweep must take its cells as store hits"
    );
    cache_verify_clean(&store);
    std::fs::remove_dir_all(&root).ok();
}

/// Over the wire: a daemon started with `--workers 2` reports its pool
/// in `/stats`, streams live NDJSON events for a submitted job, and the
/// stream ends exactly when the result is available.
#[test]
fn serve_with_workers_streams_events_through_to_result() {
    let root = temp_dir("wire");
    let data = root.join("data");
    std::fs::create_dir_all(&data).unwrap();
    let mut child = Command::new(SERVE_BIN)
        .arg("--data")
        .arg(&data)
        .arg("--store")
        .arg(root.join("store"))
        .args(["--workers", "2", "--heartbeat", "50", "--quiet"])
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

    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.get("pool_ready"),
        Some(&Value::Bool(true)),
        "{stats:?}"
    );
    assert_eq!(
        stats.get("workers_alive"),
        Some(&Value::Num(2.0)),
        "{stats:?}"
    );

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
