//! Smoke tests for the experiment harness: Table 1 and the experiment
//! scale are well formed (content checks only — the full-scale numbers
//! live in EXPERIMENTS.md).

use crisp_bench::table1;

#[test]
fn table1_reports_the_paper_configuration() {
    let t = table1();
    for needle in [
        "6-way",
        "224 entries",
        "96 entries (unified)",
        "TAGE",
        "8K entries",
        "BOP + Stream",
        "FDIP, 128 FTQ entries",
        "64 entries",  // load buffer
        "128 entries", // store buffer
        "32 KiB, 8-way",
        "DDR4-2400, 1 channel",
        "6-oldest-ready-instructions-first",
    ] {
        assert!(t.contains(needle), "Table 1 is missing {needle:?}:\n{t}");
    }
}

#[test]
fn experiment_scale_is_copyable_and_comparable() {
    use crisp_bench::ExperimentScale;
    let a = ExperimentScale::Fast;
    let b = a;
    assert_eq!(a, b);
    assert_ne!(ExperimentScale::Fast, ExperimentScale::Full);
}
