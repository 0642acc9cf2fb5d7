//! Integration tests for the supervised experiment harness: crash/resume
//! convergence, fault isolation, salvage, and journal properties.

use crisp_bench::sweep::{run_supervised_sweep, SweepConfig};
use crisp_bench::ExperimentScale;
use crisp_harness::{AttemptOutcome, AttemptRecord, FailureClass, JobOutcome};
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

/// An injected panic is isolated to its cell, which runs once and fails;
/// `--resume` without the injection re-runs just that cell and renders
/// the same tables as a healthy run.
#[test]
fn injected_panic_fails_only_its_cell_and_resume_heals_it() {
    let dir = scratch_dir("panic-resume");
    let manifest = dir.join("sweep.jsonl");
    let workloads = ["mcf", "lbm"];
    let golden = run_supervised_sweep(&tiny_sweep(&workloads)).expect("golden sweep");

    let mut cfg = tiny_sweep(&workloads);
    cfg.manifest = Some(manifest.clone());
    cfg.chaos.panic = vec!["fig11/mcf".to_string()];
    let out = run_supervised_sweep(&cfg).expect("chaos sweep");
    assert!(out.degraded());
    assert_eq!(
        out.report.payload("fig11/lbm"),
        golden.report.payload("fig11/lbm")
    );
    match out.report.outcomes.get("fig11/mcf") {
        Some(JobOutcome::Failed {
            class: FailureClass::Panic,
            attempts: 1,
            ..
        }) => {}
        other => panic!("unexpected outcome: {other:?}"),
    }
    assert_eq!(
        out.report.taxonomy(),
        vec![(FailureClass::Panic, vec!["fig11/mcf"])]
    );

    let mut resume = tiny_sweep(&workloads);
    resume.manifest = Some(manifest);
    resume.resume = true;
    let resumed = run_supervised_sweep(&resume).expect("resume run");
    assert!(!resumed.degraded());
    assert_eq!(resumed.report.resumed, 1, "the healthy cell is restored");
    assert_eq!(resumed.rendered, golden.rendered);
    std::fs::remove_dir_all(&dir).ok();
}

/// A persistent fault fails its cell on its one run but the sweep still
/// completes, salvaging the healthy cells into a DEGRADED report with a
/// taxonomy.
#[test]
fn exhausted_retries_salvage_partial_results() {
    let mut cfg = tiny_sweep(&["mcf", "lbm"]);
    cfg.chaos.stall = vec!["fig11/lbm".to_string()];
    let out = run_supervised_sweep(&cfg).expect("sweep survives the fault");
    assert!(out.degraded());
    assert_eq!(out.report.completed(), 1);
    match out.report.outcomes.get("fig11/lbm") {
        Some(JobOutcome::Failed {
            class: FailureClass::Deadlock,
            attempts: 1,
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
        out.rendered.contains("lbm: deadlock after 1 attempt(s)"),
        "{}",
        out.rendered
    );
    // The healthy cell's numbers are still in the table.
    assert!(out.rendered.contains("mcf"), "{}", out.rendered);
}

/// The per-job wall-clock deadline aborts through the engine's
/// cooperative poll and classifies as a timeout.
#[test]
fn deadline_overrun_classifies_as_timeout() {
    let mut cfg = tiny_sweep(&["mcf"]);
    cfg.deadline = Some(Duration::from_millis(1));
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
