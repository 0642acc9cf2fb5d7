//! Stage sharing within a sweep: the cells of one sweep share a stage
//! memo, so each distinct pipeline stage runs once however many cells ask
//! for it — and every payload stays bit-identical to a cell run alone.

use crisp_bench::cells::{self, cell_spec_pf};
use crisp_bench::sweep::{run_supervised_sweep, SweepConfig, SweepOutput};
use crisp_bench::ExperimentScale;
use crisp_core::StageKind;
use crisp_harness::{JobOutcome, RunContext, SpanScope};
use crisp_sim::{CancelToken, PrefetcherSpec, ProgressBeacon};

/// The figures that decompose into pipeline cells (all but Figure 1).
const CELL_FIGURES: [&str; 9] = [
    "fig4",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ablations",
    "prefzoo",
];

/// FNV-1a over every cell id and payload bit of the nine cell figures on
/// mcf at Tiny, blessed on the pipeline before stage sharing existed.
const MCF_PAYLOAD_DIGEST: u64 = 0xc62d_6aea_35d6_ff73;

/// Simulations that sweep runs: 77 when every cell ran its own pipelines.
const MCF_SIMULATIONS: u64 = 25;

/// Windows that sweep builds and emulates: 11 when each cell built its
/// own traces.
const MCF_TRACES: u64 = 2;

fn sweep(targets: &[&str], workers: usize) -> SweepConfig {
    SweepConfig {
        scale: ExperimentScale::Tiny,
        targets: targets.iter().map(|t| t.to_string()).collect(),
        workloads: Some(vec!["mcf".to_string()]),
        workers,
        ..SweepConfig::default()
    }
}

fn run(cfg: &SweepConfig) -> SweepOutput {
    let out = run_supervised_sweep(cfg).expect("no supervisor error");
    assert!(!out.degraded(), "{:?}", out.report.taxonomy());
    out
}

fn payload(out: &SweepOutput, id: &str) -> Vec<u64> {
    let p = out
        .report
        .payload(id)
        .unwrap_or_else(|| panic!("{id} completed"));
    p.iter().map(|x| x.to_bits()).collect()
}

fn digest(out: &SweepOutput) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (id, outcome) in &out.report.outcomes {
        let JobOutcome::Completed { payload, .. } = outcome else {
            panic!("{id}: {outcome:?}");
        };
        eat(id.as_bytes());
        for x in payload {
            eat(&x.to_bits().to_le_bytes());
        }
    }
    h
}

fn ctx() -> RunContext {
    RunContext {
        cancel: CancelToken::new(),
        progress: ProgressBeacon::new(),
    }
}

#[test]
fn shared_stages_keep_every_payload_bit_and_cut_simulations() {
    let out = run(&sweep(&CELL_FIGURES, 2));
    assert_eq!(out.report.completed(), 9);
    assert_eq!(
        digest(&out),
        MCF_PAYLOAD_DIGEST,
        "payload digest {:#018x}",
        digest(&out)
    );
    assert_eq!(out.stages.simulations, MCF_SIMULATIONS);
    assert_eq!(out.stages.computed[StageKind::Trace as usize], MCF_TRACES);
    assert!(out.stages.sweep_shared() > 0);
}

#[test]
#[ignore = "re-runs nine cells over fresh memos; CI runs it in release"]
fn every_cell_alone_matches_its_shared_run() {
    let out = run(&sweep(&CELL_FIGURES, 2));
    for figure in CELL_FIGURES {
        let job = cell_spec_pf(figure, "mcf", ExperimentScale::Tiny, None);
        let alone = cells::run_cell(&job, &ctx(), ExperimentScale::Tiny, false, None, None)
            .unwrap_or_else(|e| panic!("{}: {e}", job.id));
        let alone: Vec<u64> = alone.iter().map(|x| x.to_bits()).collect();
        assert_eq!(alone, payload(&out, &job.id), "{}", job.id);
    }
}

#[test]
fn fig9_windows_keep_the_prefetcher_override() {
    let none: PrefetcherSpec = "none".parse().expect("builtin spec");
    let cfg = SweepConfig {
        prefetcher: Some(none),
        ..sweep(&["fig7", "fig9"], 2)
    };
    let out = run(&cfg);
    // The Table 1 window is the cell's own pipeline, so it reproduces
    // Figure 7's CRISP column under the same zoo.
    assert_eq!(payload(&out, "fig9/mcf")[1], payload(&out, "fig7/mcf")[0]);
}

#[test]
fn stage_spans_hang_under_each_cell_attempt() {
    let path = std::env::temp_dir().join(format!("crisp-stage-spans-{}.jsonl", std::process::id()));
    std::fs::remove_file(&path).ok();
    let scope = SpanScope {
        path: path.clone(),
        trace: "stages".to_string(),
        parent: 0,
    };
    let cfg = SweepConfig {
        spans: Some(scope),
        ..sweep(&["fig11", "fig12"], 1)
    };
    run(&cfg);
    let spans = crisp_harness::load_spans(&std::fs::read_to_string(&path).expect("spans written"));
    std::fs::remove_file(&path).ok();
    for cell in ["fig11/mcf#1", "fig12/mcf#1"] {
        let attempt = spans
            .iter()
            .find(|s| s.name == format!("cell {cell}"))
            .unwrap_or_else(|| panic!("no attempt span for {cell}"));
        let stages: Vec<&str> = spans
            .iter()
            .filter(|s| s.parent == attempt.span)
            .map(|s| s.name.as_str())
            .collect();
        for stage in ["profile", "roots", "map", "eval"] {
            assert!(
                stages
                    .iter()
                    .any(|n| n.starts_with(&format!("{stage} {cell}."))),
                "{cell}: no {stage} span in {stages:?}"
            );
        }
    }
    // fig11 computed the pipeline first; fig12's requests were served.
    let fig12 = |stage: &str| {
        spans
            .iter()
            .filter(|s| s.name.starts_with(&format!("{stage} fig12/mcf#1.")))
            .collect::<Vec<_>>()
    };
    for stage in ["profile", "eval"] {
        assert!(!fig12(stage).is_empty());
        assert!(
            fig12(stage).iter().all(|s| s.name.ends_with(" (shared)")),
            "{:?}",
            fig12(stage)
        );
    }
    // Stages computed inside another stage nest under it.
    let fig11_trace = spans
        .iter()
        .find(|s| s.name.starts_with("trace fig11/mcf#1."))
        .expect("fig11 built a trace");
    let parent = spans
        .iter()
        .find(|s| s.span == fig11_trace.parent)
        .expect("the trace's parent span was written");
    assert!(
        parent.name.starts_with("profile fig11/mcf#1."),
        "{}",
        parent.name
    );
}
