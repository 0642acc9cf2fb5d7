//! Property tests for the content-addressed result store: the entry codec
//! round-trips arbitrary cells bit-exactly, every single-bit flip anywhere
//! in an encoded entry is detected (never silently served), the key policy
//! separates every cache-relevant ingredient, and a warm in-process sweep
//! composes with journaling.

use crisp_bench::sweep::{run_supervised_sweep, SweepConfig};
use crisp_bench::ExperimentScale;
use crisp_harness::store::{decode_entry, encode_entry, CellEntry};
use crisp_harness::{cell_key, JobOutcome, ResultStoreConfig};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crisp-store-it-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Finite f64s spanning many magnitudes (payloads are simulator
/// statistics; the journal side of the pipeline cannot carry non-finite
/// values, so the store never sees them either).
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

/// Specs over a charset covering the interesting cases: separators the
/// key material uses (`=`, `\n`), multi-byte UTF-8, and plain text.
fn spec_strategy(max_len: usize) -> impl Strategy<Value = String> {
    const CHARSET: [char; 16] = [
        'a', 'z', '0', '9', '/', '_', '.', '-', ' ', '=', '\n', ',', '[', ']', 'µ', '数',
    ];
    proptest::collection::vec(0usize..CHARSET.len(), 0..max_len.max(1))
        .prop_map(|idxs| idxs.into_iter().map(|i| CHARSET[i]).collect())
}

fn u128_strategy() -> impl Strategy<Value = u128> {
    (any::<u64>(), any::<u64>()).prop_map(|(hi, lo)| (u128::from(hi) << 64) | u128::from(lo))
}

fn entry_strategy() -> impl Strategy<Value = CellEntry> {
    (
        u128_strategy(),
        any::<u64>(),
        spec_strategy(120),
        proptest::collection::vec(f64_strategy(), 0..24),
    )
        .prop_map(|(key, created_unix, spec, payload)| CellEntry {
            key,
            created_unix,
            spec,
            payload,
        })
}

proptest! {
    /// Arbitrary entries survive encode → decode bit-exactly.
    #[test]
    fn entry_codec_round_trips(entry in entry_strategy()) {
        let bytes = encode_entry(&entry);
        let decoded = decode_entry(&bytes, Path::new("prop"), Some(entry.key))
            .expect("clean bytes decode");
        prop_assert_eq!(decoded.key, entry.key);
        prop_assert_eq!(decoded.created_unix, entry.created_unix);
        prop_assert_eq!(&decoded.spec, &entry.spec);
        prop_assert_eq!(decoded.payload.len(), entry.payload.len());
        for (a, b) in decoded.payload.iter().zip(entry.payload.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "payload must be bit-exact");
        }
    }

    /// Flipping any single bit anywhere in an encoded entry makes decoding
    /// fail — no single-bit corruption can ever be served as a result.
    #[test]
    fn any_single_bit_flip_is_detected(
        entry in entry_strategy(),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut bytes = encode_entry(&entry);
        let offset = (pos_seed % bytes.len() as u64) as usize;
        bytes[offset] ^= 1 << bit;
        prop_assert!(
            decode_entry(&bytes, Path::new("prop"), Some(entry.key)).is_err(),
            "flip at byte {} bit {} went undetected", offset, bit
        );
    }

    /// Truncating an encoded entry at any point is detected as torn.
    #[test]
    fn any_truncation_is_detected(
        entry in entry_strategy(),
        cut_seed in any::<u64>(),
    ) {
        let bytes = encode_entry(&entry);
        let keep = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(
            decode_entry(&bytes[..keep], Path::new("prop"), Some(entry.key)).is_err(),
            "truncation to {} of {} bytes went undetected", keep, bytes.len()
        );
    }

    /// The cell key separates job ids: ids that differ — here by a forced
    /// suffix — never share a key, and keying is deterministic.
    #[test]
    fn cell_keys_separate_distinct_cells(
        id in spec_strategy(24),
        suffix in spec_strategy(8),
        spec in spec_strategy(60),
    ) {
        let other = format!("{id}#{suffix}");
        prop_assert_ne!(cell_key(&id, &spec), cell_key(&other, &spec));
        prop_assert_eq!(cell_key(&id, &spec), cell_key(&id, &spec));
    }
}

/// In-process end-to-end: a journaled sweep populates the store, and the
/// warm re-run — also journaled, into a fresh manifest — serves every
/// cell from the store, marks outcomes as cached, and renders the same
/// tables.
#[test]
fn warm_journaled_sweep_is_fully_cached_and_identical() {
    let dir = scratch_dir("warm-journal");
    let store = dir.join("store");
    let cfg_for = |manifest: &str| SweepConfig {
        scale: ExperimentScale::Tiny,
        targets: vec!["fig11".to_string()],
        workloads: Some(vec!["mcf".to_string(), "lbm".to_string()]),
        workers: 2,
        manifest: Some(dir.join(manifest)),
        store: Some(store.clone()),
        ..SweepConfig::default()
    };

    let cold = run_supervised_sweep(&cfg_for("cold.jsonl")).expect("cold sweep");
    assert_eq!(cold.report.store_computed, 2);
    assert_eq!(cold.report.store_hits, 0);

    let warm = run_supervised_sweep(&cfg_for("warm.jsonl")).expect("warm sweep");
    assert_eq!(warm.report.store_hits, 2);
    assert_eq!(warm.report.store_computed, 0);
    assert_eq!(warm.rendered, cold.rendered);
    for (job, outcome) in &warm.report.outcomes {
        assert!(
            matches!(outcome, JobOutcome::Completed { cached: true, .. }),
            "{job} should be served from the store: {outcome:?}"
        );
    }

    // The warm manifest records provenance for both cells.
    let manifest = std::fs::read_to_string(dir.join("warm.jsonl")).expect("warm manifest");
    assert_eq!(
        manifest
            .lines()
            .filter(|l| l.contains("\"cached\""))
            .count(),
        2,
        "cache hits must carry provenance in the journal:\n{manifest}"
    );

    // Keying sanity: the config the sweep used points at the same store.
    let _ = ResultStoreConfig::new(&store);
    std::fs::remove_dir_all(&dir).ok();
}

/// The prefetcher-zoo figure is deterministic *through the store*: a
/// cold sweep computes every `prefzoo` cell, a warm re-run serves them
/// from the content-addressed store, and both the rendered matrix and
/// every payload word are bit-identical — the SimResult-derived numbers
/// survive the encode/decode round trip exactly.
#[test]
fn prefzoo_store_warm_rerun_is_byte_identical() {
    let dir = std::env::temp_dir().join("crisp-snap-prefzoo-warm");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let store = dir.join("store");
    let cfg_for = |manifest: &str| SweepConfig {
        scale: ExperimentScale::Tiny,
        targets: vec!["prefzoo".to_string()],
        workloads: Some(vec!["pointer_chase".to_string()]),
        manifest: Some(dir.join(manifest)),
        store: Some(store.clone()),
        ..SweepConfig::default()
    };

    let cold = run_supervised_sweep(&cfg_for("cold.jsonl")).expect("cold sweep");
    assert_eq!(cold.report.store_computed, 1);
    let warm = run_supervised_sweep(&cfg_for("warm.jsonl")).expect("warm sweep");
    assert_eq!(warm.report.store_hits, 1);
    assert_eq!(
        warm.rendered, cold.rendered,
        "matrix must render identically"
    );

    for (job, outcome) in &cold.report.outcomes {
        let JobOutcome::Completed { payload: a, .. } = outcome else {
            panic!("{job} did not complete: {outcome:?}");
        };
        let Some(JobOutcome::Completed { payload: b, .. }) = warm.report.outcomes.get(job) else {
            panic!("{job} missing from warm run");
        };
        assert_eq!(a.len(), b.len(), "{job}: payload length changed");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{job}: payload word {i} not bit-identical ({x} vs {y})"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
