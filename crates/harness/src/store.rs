//! The keying policy of the content-addressed result store: what a
//! cell's identity is made of.
//!
//! The store itself ([`crisp_store`]) is a dependency-free crate shared
//! with the `crisp` CLI; the supervisor opens it at
//! [`crate::SupervisorOptions::store`].
//!
//! A cell's key hashes four ingredients, any of which invalidates cached
//! results when it changes:
//!
//! 1. the job id (figure and workload, e.g. `fig7/mcf`);
//! 2. the full cell spec string (scale, config, cell-format version);
//! 3. [`RESULT_SCHEMA`] — the payload-layout version, bumped whenever
//!    the meaning or order of a cell's result vector changes;
//! 4. the binary semver (`CARGO_PKG_VERSION`) — a new release never
//!    serves results simulated by an older one.
//!
//! The canonical key material is also stored *inside* each entry as its
//! human-readable `spec`, so `crisp cache verify` and post-mortems can
//! name what a 32-hex-digit key stands for.

use crisp_store::fnv1a128;

/// Version of the cell result-vector layout. Bump when a figure's payload
/// changes meaning, order or length — stale store entries (and manifest
/// payloads) must never be reinterpreted under a new layout.
pub const RESULT_SCHEMA: u32 = 2;

/// Canonical key material for one sweep cell — the exact string whose
/// 128-bit FNV-1a hash addresses the cell's store entry.
pub fn cell_key_material(job_id: &str, spec: &str) -> String {
    format!(
        "crisp-cell-key-v1\njob={job_id}\nspec={spec}\nschema={RESULT_SCHEMA}\nbinary={}\n",
        env!("CARGO_PKG_VERSION")
    )
}

/// The 128-bit content-address key for one sweep cell.
pub fn cell_key(job_id: &str, spec: &str) -> u128 {
    fnv1a128(cell_key_material(job_id, spec).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_ingredient_changes_the_key() {
        let base = cell_key("fig7/mcf", "fig7/mcf scale=Fast cells-v1");
        assert_ne!(base, cell_key("fig7/lbm", "fig7/mcf scale=Fast cells-v1"));
        assert_ne!(base, cell_key("fig7/mcf", "fig7/mcf scale=Full cells-v1"));
        // Schema and binary versions are compile-time constants; assert
        // they are present in the material so bumping them re-keys.
        let material = cell_key_material("fig7/mcf", "s");
        assert!(material.contains(&format!("schema={RESULT_SCHEMA}")));
        assert!(material.contains(&format!("binary={}", env!("CARGO_PKG_VERSION"))));
    }

    #[test]
    fn keys_are_stable_across_calls() {
        assert_eq!(cell_key("a", "b"), cell_key("a", "b"));
    }
}
