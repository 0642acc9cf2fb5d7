//! Integration tests for the supervised experiment harness: crash/resume
//! convergence, fault isolation, salvage, and journal/backoff properties.

use crisp_bench::sweep::{run_supervised_sweep, SweepConfig};
use crisp_bench::ExperimentScale;
use crisp_harness::{AttemptOutcome, AttemptRecord, FailureClass, JobOutcome, RetryPolicy};
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crisp-supervisor-it-{tag}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn tiny_sweep(workloads: &[&str]) -> SweepConfig {
    SweepConfig {
        scale: ExperimentScale::Tiny,
        targets: vec!["fig11".to_string()],
        workloads: Some(workloads.iter().map(|s| s.to_string()).collect()),
        workers: 2,
        retry: RetryPolicy {
            max_retries: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
        },
        ..SweepConfig::default()
    }
}

/// The tentpole end-to-end property: start a sweep, trip a deterministic
/// crash point mid-manifest, resume from the journal, and get tables
/// byte-identical to an uninterrupted run.
#[test]
fn crash_then_resume_reproduces_byte_identical_tables() {
    let dir = scratch_dir("crash-resume");
    let manifest = dir.join("sweep.jsonl");
    let workloads = ["mcf", "lbm", "namd"];

    // Golden: uninterrupted run, no journal.
    let golden = run_supervised_sweep(&tiny_sweep(&workloads)).expect("golden sweep");
    assert!(!golden.report.crashed && !golden.degraded());
    assert!(golden.rendered.contains("Figure 11"));

    // Crashed run: the journal tears mid-record after the first result.
    let mut crash_cfg = tiny_sweep(&workloads);
    crash_cfg.manifest = Some(manifest.clone());
    crash_cfg.crash_after_records = Some(1);
    let crashed = run_supervised_sweep(&crash_cfg).expect("crash run");
    assert!(crashed.report.crashed, "crash point must fire");
    assert!(
        crashed.rendered.is_empty(),
        "a dead process renders nothing"
    );
    assert!(
        crashed.report.outcomes.len() < workloads.len(),
        "crash must leave unfinished jobs"
    );

    // Resume: only incomplete jobs re-run; output is byte-identical.
    let mut resume_cfg = tiny_sweep(&workloads);
    resume_cfg.manifest = Some(manifest.clone());
    resume_cfg.resume = true;
    let resumed = run_supervised_sweep(&resume_cfg).expect("resume run");
    assert!(!resumed.report.crashed && !resumed.degraded());
    assert_eq!(resumed.report.resumed, 1, "the journaled job is restored");
    assert_eq!(
        resumed.report.skipped_manifest_lines, 1,
        "exactly the torn tail is skipped"
    );
    assert_eq!(
        resumed.rendered, golden.rendered,
        "resumed tables must be byte-identical to the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// An injected first-attempt panic is isolated, retried with backoff, and
/// the sweep completes clean — same final tables as a healthy run.
#[test]
fn injected_panic_is_retried_to_success() {
    let golden = run_supervised_sweep(&tiny_sweep(&["mcf"])).expect("golden sweep");

    let mut cfg = tiny_sweep(&["mcf"]);
    cfg.chaos.panic_once = vec!["fig11/mcf".to_string()];
    let out = run_supervised_sweep(&cfg).expect("chaos sweep");
    assert!(!out.degraded());
    match out.report.outcomes.get("fig11/mcf") {
        Some(JobOutcome::Completed {
            attempts, resumed, ..
        }) => {
            assert_eq!(*attempts, 2, "one panic, one clean retry");
            assert!(!resumed);
        }
        other => panic!("unexpected outcome: {other:?}"),
    }
    assert_eq!(out.rendered, golden.rendered);
}

/// A persistent fault exhausts its retries but the sweep still completes,
/// salvaging the healthy cells into a DEGRADED report with a taxonomy.
#[test]
fn exhausted_retries_salvage_partial_results() {
    let mut cfg = tiny_sweep(&["mcf", "lbm"]);
    cfg.chaos.stall = vec!["fig11/lbm".to_string()];
    cfg.retry.max_retries = 1;
    let out = run_supervised_sweep(&cfg).expect("sweep survives the fault");
    assert!(out.degraded());
    assert_eq!(out.report.completed(), 1);
    match out.report.outcomes.get("fig11/lbm") {
        Some(JobOutcome::Failed {
            class: FailureClass::Deadlock,
            attempts: 2,
            ..
        }) => {}
        other => panic!("unexpected outcome: {other:?}"),
    }
    assert!(
        out.rendered.contains("[DEGRADED (1/2 workloads)]"),
        "{}",
        out.rendered
    );
    assert!(
        out.rendered
            .contains("failure taxonomy (1/2 cells failed):"),
        "{}",
        out.rendered
    );
    assert!(
        out.rendered.contains("lbm: deadlock after 2 attempt(s)"),
        "{}",
        out.rendered
    );
    // The healthy cell's numbers are still in the table.
    assert!(out.rendered.contains("mcf"), "{}", out.rendered);
}

/// The per-job wall-clock deadline aborts through the engine's
/// cooperative poll and classifies as a (retryable) timeout.
#[test]
fn deadline_overrun_classifies_as_timeout() {
    let mut cfg = tiny_sweep(&["mcf"]);
    cfg.deadline = Some(Duration::from_millis(1));
    cfg.retry.max_retries = 0;
    let out = run_supervised_sweep(&cfg).expect("sweep survives the timeout");
    assert!(out.degraded());
    match out.report.outcomes.get("fig11/mcf") {
        Some(JobOutcome::Failed {
            class: FailureClass::Timeout,
            attempts: 1,
            error,
            ..
        }) => assert!(error.contains("deadline exceeded"), "{error}"),
        other => panic!("unexpected outcome: {other:?}"),
    }
}

fn class_strategy() -> impl Strategy<Value = FailureClass> {
    (0u8..7).prop_map(|i| match i {
        0 => FailureClass::Panic,
        1 => FailureClass::Timeout,
        2 => FailureClass::Deadlock,
        3 => FailureClass::Cancelled,
        4 => FailureClass::Config,
        5 => FailureClass::UnknownWorkload,
        _ => FailureClass::Runtime,
    })
}

/// Strings over a charset that covers JSON's interesting cases: escapes,
/// quotes, control bytes, multi-byte UTF-8, and plain text.
fn string_strategy(max_len: usize) -> impl Strategy<Value = String> {
    const CHARSET: [char; 18] = [
        'a', 'z', '0', '9', '/', '_', '.', '-', ' ', '"', '\\', '\n', '\t', '\u{1}', 'µ', '数',
        '+', ':',
    ];
    proptest::collection::vec(0usize..CHARSET.len(), 0..max_len.max(1))
        .prop_map(|idxs| idxs.into_iter().map(|i| CHARSET[i]).collect())
}

/// Finite f64s spanning many magnitudes (non-finite bit patterns are
/// remapped — JSON cannot carry them and the journal never stores them).
fn f64_strategy() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            bits as f64 / 1e3
        }
    })
}

proptest! {
    /// The backoff schedule is bounded by the cap and the nominal delay is
    /// monotone non-decreasing; the jittered delay stays in
    /// [nominal/2, nominal] and replays deterministically.
    #[test]
    fn backoff_schedule_is_bounded_and_monotone(
        base_ms in 1u64..500,
        cap_ms in 1u64..10_000,
        seed in any::<u64>(),
    ) {
        let policy = RetryPolicy {
            max_retries: 16,
            base: Duration::from_millis(base_ms),
            cap: Duration::from_millis(base_ms.max(cap_ms)),
        };
        let mut prev = Duration::ZERO;
        for attempt in 1..=16u32 {
            let nominal = policy.nominal_delay(attempt);
            prop_assert!(nominal <= policy.cap);
            prop_assert!(nominal >= prev, "nominal schedule must not shrink");
            prev = nominal;
            let jittered = policy.delay(attempt, seed);
            prop_assert!(jittered >= nominal / 2 && jittered <= nominal);
            prop_assert_eq!(jittered, policy.delay(attempt, seed));
        }
    }

    /// Journal records of any shape survive a round-trip through the
    /// JSONL serializer bit-exactly (including awkward floats and strings).
    #[test]
    fn journal_records_round_trip(
        job in string_strategy(24),
        hash_lo in any::<u64>(),
        hash_hi in any::<u64>(),
        attempt in 1u32..100,
        ok in any::<bool>(),
        with_provenance in any::<bool>(),
        payload in proptest::collection::vec(f64_strategy(), 0..12),
        class in class_strategy(),
        error in string_strategy(80),
    ) {
        let hash = (u128::from(hash_hi) << 64) | u128::from(hash_lo);
        let outcome = if ok {
            AttemptOutcome::Ok {
                payload,
                cached: with_provenance.then_some(hash ^ 1),
            }
        } else {
            AttemptOutcome::Fail {
                class,
                error,
                detail: None,
            }
        };
        let rec = AttemptRecord { job, hash, attempt, outcome };
        let decoded = AttemptRecord::decode(&rec.encode());
        prop_assert_eq!(decoded, Some(rec));
    }
}
