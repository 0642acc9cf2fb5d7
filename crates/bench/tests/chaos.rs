//! Crash-chaos integration tests: SIGKILL the real `crisp-bench` binary
//! mid-sweep, resume from its manifest, and require the resumed run to
//! print byte-identical tables to an uninterrupted one.
//!
//! These drive the actual binary (`CARGO_BIN_EXE_crisp-bench`), not the
//! library, so the whole chain is exercised: argument parsing, the
//! supervisor's journal, crash debris handling and the renderer. The kill
//! is a real SIGKILL — no destructors, no flushes — exactly the failure
//! the manifest exists for.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_crisp-bench");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crisp-bench-chaos-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_to_completion(args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn crisp-bench");
    assert!(
        out.status.success(),
        "crisp-bench {args:?} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 report")
}

fn spawn_victim(args: &[&str]) -> Child {
    Command::new(BIN)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim crisp-bench")
}

/// Polls `cond` until it holds or the victim exits or `timeout` passes.
fn wait_for(child: &mut Child, cond: impl Fn() -> bool, timeout: Duration) {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if cond() || child.try_wait().expect("try_wait").is_some() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn manifest_lines(path: &Path) -> usize {
    std::fs::read_to_string(path)
        .map(|s| s.lines().count())
        .unwrap_or(0)
}

/// SIGKILL between cells: the journal alone must carry the resume.
#[test]
fn sigkill_mid_sweep_then_resume_reproduces_identical_tables() {
    let dir = temp_dir("manifest");
    let reference_manifest = dir.join("reference.jsonl");
    let victim_manifest = dir.join("victim.jsonl");
    let base = [
        "--tiny",
        "--quiet",
        "--jobs",
        "1",
        "--workloads",
        "mcf,lbm",
        "fig11",
    ];

    let mut ref_args = base.to_vec();
    ref_args.extend(["--manifest", reference_manifest.to_str().unwrap()]);
    let reference = run_to_completion(&ref_args);
    assert!(reference.contains("Figure 11"), "{reference}");

    // Kill the victim once the manifest holds the header plus at least one
    // completed attempt — i.e. mid-sweep, with real salvageable state.
    let mut victim_args = base.to_vec();
    victim_args.extend(["--manifest", victim_manifest.to_str().unwrap()]);
    let mut child = spawn_victim(&victim_args);
    wait_for(
        &mut child,
        || manifest_lines(&victim_manifest) >= 2,
        Duration::from_secs(120),
    );
    let _ = child.kill();
    let _ = child.wait();

    let mut resume_args = base.to_vec();
    resume_args.extend(["--resume", victim_manifest.to_str().unwrap()]);
    let resumed = run_to_completion(&resume_args);
    assert_eq!(
        resumed, reference,
        "resumed tables must be byte-identical to the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGKILL *inside* a cell: the manifest holds the header but no attempt
/// of the cell, so `--resume` recomputes the cell from its start and
/// still renders byte-identical tables.
#[test]
fn sigkill_mid_cell_recomputes_the_cell_on_resume() {
    let dir = temp_dir("mid-cell");
    let reference_manifest = dir.join("reference.jsonl");
    let victim_manifest = dir.join("victim.jsonl");
    let base = ["--tiny", "--quiet", "fig1"];

    let mut ref_args = base.to_vec();
    ref_args.extend(["--manifest", reference_manifest.to_str().unwrap()]);
    let reference = run_to_completion(&ref_args);
    assert!(reference.contains("Figure 1"), "{reference}");

    // The victim idles 5 s at the start of its one cell, so a kill once
    // the manifest header is complete lands inside the cell.
    let mut victim_args = base.to_vec();
    victim_args.extend(["--cell-delay-ms", "5000"]);
    victim_args.extend(["--manifest", victim_manifest.to_str().unwrap()]);
    let mut child = spawn_victim(&victim_args);
    let header_written =
        || std::fs::read_to_string(&victim_manifest).is_ok_and(|s| s.ends_with('\n'));
    wait_for(&mut child, header_written, Duration::from_secs(120));
    assert!(
        child.try_wait().expect("try_wait").is_none(),
        "the victim exited before the kill"
    );
    let _ = child.kill();
    let _ = child.wait();
    assert_eq!(
        manifest_lines(&victim_manifest),
        1,
        "the kill landed before the cell journaled an attempt"
    );

    let out = Command::new(BIN)
        .args(base)
        .args(["--resume", victim_manifest.to_str().unwrap()])
        .output()
        .expect("spawn crisp-bench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "resume failed: {}\n{stderr}",
        out.status
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        reference,
        "a cell recomputed on resume must render byte-identical tables"
    );
    assert!(
        stderr.contains("(0 restored from manifest)"),
        "the killed cell must be recomputed, not restored: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Flag validation: a flag a binary cannot honour is a usage error (exit
/// 2, the reason on stderr), never a silent no-op, a panic or a
/// wrapped-around number. The rows: the removed mid-run checkpoint flags,
/// the removed in-run retry flag and the removed worker-pool flag, so an
/// old script fails loudly instead of running without what it asked for; deadlines and ages beyond
/// `Duration`'s range; and a pipeview window whose end overflows `u64`.
#[test]
fn flags_a_binary_cannot_honour_are_usage_errors() {
    const CRISP_BIN: &str = env!("CARGO_BIN_EXE_crisp");
    const SERVE_BIN: &str = env!("CARGO_BIN_EXE_crisp-serve");
    let dir = temp_dir("usage");
    let (data, store) = (dir.join("data"), dir.join("store"));
    let (data, store) = (data.to_str().unwrap(), store.to_str().unwrap());
    let rows: [(&str, &[&str], &str); 11] = [
        (
            BIN,
            &["--tiny", "--checkpoint-interval", "2000", "fig1"],
            "unknown flag",
        ),
        (BIN, &["--tiny", "--audit-restore"], "unknown flag"),
        (
            BIN,
            &["--tiny", "--max-retries", "2", "fig11"],
            "unknown flag",
        ),
        (
            SERVE_BIN,
            &["--data", data, "--checkpoint-interval", "2000"],
            "unknown flag",
        ),
        (
            SERVE_BIN,
            &["--data", data, "--workers", "2"],
            "unknown flag",
        ),
        (
            BIN,
            &["--tiny", "--deadline", "1e300", "table1"],
            "--deadline expects positive seconds",
        ),
        (
            BIN,
            &[
                "--tiny",
                "--prefetcher",
                "stream:streams=4611686018427387904",
                "fig11",
            ],
            "option `streams` (4611686018427387904) must be at most 64",
        ),
        (
            BIN,
            &["--tiny", "--prefetcher", "warpdrive", "fig11"],
            "unknown prefetcher `warpdrive`",
        ),
        (
            SERVE_BIN,
            &["--data", data, "--deadline", "1e300"],
            "--deadline expects positive seconds",
        ),
        (
            CRISP_BIN,
            &["cache", "gc", "--store", store, "--max-age-days", "1e300"],
            "--max-age-days expects days",
        ),
        (
            CRISP_BIN,
            &[
                "pipeview",
                "pointer_chase",
                "-n",
                "2000",
                "--from",
                "18446744073709551600",
            ],
            "overflows",
        ),
    ];
    for (bin, args, needle) in rows {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn binary");
        // A value that slips through would start a daemon or a sweep.
        wait_for(&mut child, || false, Duration::from_secs(60));
        if child.try_wait().expect("try_wait").is_none() {
            child.kill().ok();
            panic!("{bin} {args:?} accepted its arguments and kept running");
        }
        let out = child.wait_with_output().expect("collect output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(needle), "{bin} {args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
