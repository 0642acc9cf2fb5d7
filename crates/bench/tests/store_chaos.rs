//! Result-store chaos tests against the real `crisp-bench` binary: warm
//! re-runs must serve every cell from the store and render byte-identical
//! tables; corrupt entries must be quarantined and transparently
//! re-simulated; a SIGKILL mid-sweep must never leave an entry the scrub
//! cannot either verify or quarantine; and two concurrent sweeps sharing
//! one store must simulate each unique cell exactly once between them.

use crisp_store::{Lookup, Store};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_crisp-bench");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crisp-bench-store-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    let out = Command::new(BIN).args(args).output().expect("spawn");
    assert!(
        out.status.success(),
        "crisp-bench {args:?} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Parses the `[crisp-bench] store: H hit(s), C computed, Q quarantined`
/// stderr summary into (hits, computed, quarantined).
fn store_counts(stderr: &[u8]) -> (usize, usize, usize) {
    let text = String::from_utf8_lossy(stderr);
    let line = text
        .lines()
        .find(|l| l.contains("store:"))
        .unwrap_or_else(|| panic!("no store summary in stderr:\n{text}"));
    let nums: Vec<usize> = line
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    assert_eq!(nums.len(), 3, "unparsable store summary: {line}");
    (nums[0], nums[1], nums[2])
}

fn cell_files(store: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let Ok(shards) = std::fs::read_dir(store.join("objects")) else {
        return found;
    };
    for shard in shards.filter_map(Result::ok) {
        if let Ok(entries) = std::fs::read_dir(shard.path()) {
            found.extend(
                entries
                    .filter_map(Result::ok)
                    .map(|e| e.path())
                    .filter(|p| p.extension().is_some_and(|x| x == "cell")),
            );
        }
    }
    found.sort();
    found
}

fn quarantined_files(store: &Path) -> usize {
    std::fs::read_dir(store.join("quarantine"))
        .map(|d| d.filter_map(Result::ok).count())
        .unwrap_or(0)
}

/// Cold populate, warm re-run: zero cells re-simulated, tables identical.
#[test]
fn warm_rerun_serves_every_cell_and_renders_identically() {
    let dir = temp_dir("warm");
    let store = dir.join("store");
    let args = [
        "--tiny",
        "--quiet",
        "--workloads",
        "mcf,lbm",
        "fig11",
        "--store",
        store.to_str().unwrap(),
    ];

    let cold = run(&args);
    let (hits, computed, quarantined) = store_counts(&cold.stderr);
    assert_eq!((hits, computed, quarantined), (0, 2, 0), "cold run");

    let warm = run(&args);
    let (hits, computed, quarantined) = store_counts(&warm.stderr);
    assert_eq!((hits, computed, quarantined), (2, 0, 0), "warm run");
    assert_eq!(
        warm.stdout, cold.stdout,
        "warm tables must be byte-identical to the cold run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A flipped byte in a published entry: the sweep quarantines it,
/// re-simulates the cell, republishes, and still renders identically.
#[test]
fn corrupt_entry_is_quarantined_and_recomputed() {
    let dir = temp_dir("corrupt");
    let store = dir.join("store");
    let args = [
        "--tiny",
        "--quiet",
        "--workloads",
        "mcf,lbm",
        "fig11",
        "--store",
        store.to_str().unwrap(),
    ];

    let cold = run(&args);
    let cells = cell_files(&store);
    assert_eq!(cells.len(), 2);
    let victim = &cells[0];
    let mut bytes = std::fs::read(victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(victim, &bytes).unwrap();

    let rerun = run(&args);
    let (hits, computed, quarantined) = store_counts(&rerun.stderr);
    assert_eq!(
        (hits, computed, quarantined),
        (1, 1, 1),
        "one clean hit, one quarantine + recompute"
    );
    assert_eq!(
        rerun.stdout, cold.stdout,
        "corruption must not leak into tables"
    );
    assert_eq!(quarantined_files(&store), 1, "the bad bytes are preserved");
    assert!(victim.exists(), "the recomputed entry was republished");

    // And the republished store is fully warm again.
    let warm = run(&args);
    let (hits, computed, _) = store_counts(&warm.stderr);
    assert_eq!((hits, computed), (2, 0));
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGKILL while the sweep is publishing: whatever the store holds
/// afterwards, a full scrub must find only verifiable entries — torn
/// writes stay invisible behind the atomic rename — and a rerun completes
/// with every cell served or recomputed, never a corrupt read.
#[test]
fn sigkill_mid_sweep_leaves_only_verifiable_entries() {
    let dir = temp_dir("sigkill");
    let store = dir.join("store");
    let args = [
        "--tiny",
        "--quiet",
        "--workloads",
        "mcf,lbm",
        "fig11",
        "--store",
        store.to_str().unwrap(),
    ];

    let mut child: Child = Command::new(BIN)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim");
    // Kill as soon as the first entry lands — mid-sweep, possibly mid-write
    // of the second entry.
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(120) {
        if !cell_files(&store).is_empty() || child.try_wait().expect("try_wait").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = child.kill();
    let _ = child.wait();

    let st = Store::open(&store).expect("open after SIGKILL");
    let scrub = st.verify().expect("scrub after SIGKILL");
    assert!(
        scrub.quarantined.is_empty(),
        "a SIGKILL must not publish torn entries: {:?}",
        scrub.quarantined
    );
    drop(st);

    let rerun = run(&args);
    let (hits, computed, quarantined) = store_counts(&rerun.stderr);
    assert_eq!(hits + computed, 2, "every cell served or recomputed");
    assert_eq!(quarantined, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Two processes sweeping the same cells against one store: the lock
/// protocol makes each unique cell simulate exactly once across both, and
/// both render the same tables.
#[test]
fn concurrent_sweeps_simulate_each_cell_exactly_once() {
    let dir = temp_dir("concurrent");
    let store = dir.join("store");
    let args = [
        "--tiny",
        "--quiet",
        "--workloads",
        "mcf,lbm",
        "fig11",
        "--store",
        store.to_str().unwrap(),
    ];

    let spawn = || {
        Command::new(BIN)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn sweeper")
    };
    let a = spawn();
    let b = spawn();
    let a = a.wait_with_output().expect("sweeper a");
    let b = b.wait_with_output().expect("sweeper b");
    for (name, out) in [("a", &a), ("b", &b)] {
        assert!(
            out.status.success(),
            "sweeper {name} failed: {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let (hits_a, computed_a, quarantined_a) = store_counts(&a.stderr);
    let (hits_b, computed_b, quarantined_b) = store_counts(&b.stderr);
    assert_eq!(
        computed_a + computed_b,
        2,
        "each unique cell simulates exactly once across both processes \
         (a: {hits_a} hit/{computed_a} computed, b: {hits_b} hit/{computed_b} computed)"
    );
    assert_eq!(hits_a + computed_a, 2, "sweeper a covered every cell");
    assert_eq!(hits_b + computed_b, 2, "sweeper b covered every cell");
    assert_eq!(quarantined_a + quarantined_b, 0);
    assert_eq!(a.stdout, b.stdout, "both sweeps render identical tables");

    // The store ends with exactly the two entries, each verifiable.
    let st = Store::open(&store).expect("open after race");
    let scrub = st.verify().expect("scrub after race");
    assert_eq!(scrub.checked, 2);
    assert!(scrub.quarantined.is_empty(), "{:?}", scrub.quarantined);
    for path in cell_files(&store) {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let key = crisp_store::parse_key(&name).expect("entry name is a key");
        assert!(
            matches!(st.lookup(key), Ok(Lookup::Hit(_))),
            "{} must read back as a hit",
            path.display()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
