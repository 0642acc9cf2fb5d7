//! Renders figure reports from cell payloads.
//!
//! Rendering is a pure function of the (ordered) cell list and the
//! outcome map, so a resumed sweep — whose payloads come from the JSONL
//! manifest instead of fresh runs — produces byte-identical tables. When
//! every cell completed, the output is exactly the pre-supervisor report;
//! failed cells degrade to `-` rows, a `[DEGRADED (k/n workloads)]` title
//! annotation, and a failure-taxonomy block listing what broke and why.

use crate::cells;
use crate::experiments::geomean_speedup;
use crisp_core::{Coverage, Table};
use crisp_harness::{JobOutcome, JobSpec};
use crisp_obs::json::Value;
use std::collections::BTreeMap;

/// One cell as the renderer sees it.
struct CellView<'a> {
    workload: &'a str,
    /// `Some` iff the cell completed.
    payload: Option<&'a [f64]>,
    /// `(class, attempts, error)` for failed cells; also synthesized
    /// for cells with no outcome at all (sweep crashed before they ran).
    failure: Option<(String, u32, String)>,
    /// Structured failure record (deadlock report, panic payload, last
    /// published progress) persisted in the manifest, if any.
    detail: Option<&'a Value>,
}

fn views<'a>(
    cells: &'a [JobSpec],
    outcomes: &'a BTreeMap<String, JobOutcome>,
) -> Vec<CellView<'a>> {
    cells
        .iter()
        .map(|job| {
            let workload = cells::split_id(&job.id).map_or(job.id.as_str(), |(_, w)| w);
            match outcomes.get(&job.id) {
                Some(JobOutcome::Completed { payload, .. }) => CellView {
                    workload,
                    payload: Some(payload),
                    failure: None,
                    detail: None,
                },
                Some(JobOutcome::Failed {
                    class,
                    error,
                    attempts,
                    detail,
                }) => CellView {
                    workload,
                    payload: None,
                    failure: Some((class.to_string(), *attempts, error.clone())),
                    detail: detail.as_ref(),
                },
                None => CellView {
                    workload,
                    payload: None,
                    failure: Some((
                        "incomplete".to_string(),
                        0,
                        "sweep stopped before this cell ran".to_string(),
                    )),
                    detail: None,
                },
            }
        })
        .collect()
}

/// Flattens a structured failure record to `key=value` pairs for the
/// taxonomy block — the manifest's evidence, cited next to the summary
/// line so a DEGRADED table explains itself without the JSONL in hand.
fn detail_citation(detail: &Value) -> String {
    match detail {
        Value::Obj(pairs) => pairs
            .iter()
            .filter(|(k, _)| k != "kind")
            .map(|(k, v)| match v {
                Value::Str(s) => format!("{k}={s}"),
                other => format!("{k}={}", other.encode()),
            })
            .collect::<Vec<String>>()
            .join(" "),
        other => other.encode(),
    }
}

fn coverage(views: &[CellView<'_>]) -> Coverage {
    Coverage::new(
        views.iter().filter(|v| v.payload.is_some()).count(),
        views.len(),
    )
}

/// The failure-taxonomy block appended to degraded reports (empty string
/// at full coverage).
fn failure_block(views: &[CellView<'_>]) -> String {
    let failures: Vec<&CellView<'_>> = views.iter().filter(|v| v.failure.is_some()).collect();
    if failures.is_empty() {
        return String::new();
    }
    let mut out = format!(
        "\nfailure taxonomy ({}/{} cells failed):\n",
        failures.len(),
        views.len()
    );
    for v in failures {
        let (class, attempts, error) = v.failure.as_ref().expect("filtered on failure");
        let first_line = error.lines().next().unwrap_or("");
        out.push_str(&format!(
            "  {}: {class} after {attempts} attempt(s) — {first_line}\n",
            v.workload
        ));
        if let Some(detail) = v.detail {
            let citation = detail_citation(detail);
            if !citation.is_empty() {
                out.push_str(&format!("      detail: {citation}\n"));
            }
        }
    }
    out
}

/// Renders one figure's report from its cells' outcomes. The cell order
/// (from [`cells::catalog`]) fixes the row order.
pub fn render_figure(
    figure: &str,
    cell_list: &[JobSpec],
    outcomes: &BTreeMap<String, JobOutcome>,
) -> String {
    let vs = views(cell_list, outcomes);
    let cov = coverage(&vs);
    let fb = failure_block(&vs);
    match figure {
        "fig1" => render_fig1(&vs, cov, &fb),
        "fig4" => render_fig4(&vs, cov, &fb),
        "fig7" => render_fig7(&vs, cov, &fb),
        "fig8" => render_fig8(&vs, cov, &fb),
        "fig9" => render_fig9(&vs, cov, &fb),
        "fig10" => render_fig10(&vs, cov, &fb),
        "fig11" => render_fig11(&vs, cov, &fb),
        "fig12" => render_fig12(&vs, cov, &fb),
        "ablations" => render_ablations(&vs, cov, &fb),
        "prefzoo" => render_prefzoo(&vs, cov, &fb),
        other => format!("unknown figure: {other}\n"),
    }
}

fn dash_row(name: &str, cols: usize) -> Vec<String> {
    let mut row = vec![name.to_string()];
    row.extend(std::iter::repeat_n("-".to_string(), cols));
    row
}

fn render_fig1(vs: &[CellView<'_>], cov: Coverage, fb: &str) -> String {
    let title = format!(
        "Figure 1: UPC timeline, pointer-chase microbenchmark{cov}\n\
         (paper: CRISP improves average UPC by >30% over OOO)\n\n"
    );
    let Some(p) = vs.first().and_then(|v| v.payload) else {
        return format!("{title}{fb}");
    };
    let k = p[3] as usize;
    let (ooo_series, crisp_series) = (&p[4..4 + k], &p[4 + k..4 + 2 * k]);
    let mut t = Table::new(vec!["bucket", "OOO UPC", "CRISP UPC"]);
    for i in 0..k {
        t.row(vec![
            format!("{i}"),
            format!("{:.2}", ooo_series[i]),
            format!("{:.2}", crisp_series[i]),
        ]);
    }
    format!(
        "{title}{t}\naverage UPC: OOO {:.3}, CRISP {:.3}  =>  {:+.1}%\n{fb}",
        p[0], p[1], p[2]
    )
}

fn render_fig4(vs: &[CellView<'_>], cov: Coverage, fb: &str) -> String {
    let mut t = Table::new(vec!["workload", "avg load-slice size", "slices"]);
    for v in vs {
        match v.payload {
            Some(p) => t.row(vec![
                v.workload.to_string(),
                format!("{:.1}", p[0]),
                format!("{}", p[1] as u64),
            ]),
            None => t.row(dash_row(v.workload, 2)),
        }
    }
    format!(
        "Figure 4: average dynamic load-slice size (unfiltered backward slices){cov}\n\
         (paper: slices range from a handful to thousands of instructions)\n\n{t}{fb}"
    )
}

fn render_fig7(vs: &[CellView<'_>], cov: Coverage, fb: &str) -> String {
    let mut t = Table::new(vec![
        "workload",
        "CRISP %",
        "IBDA-1K %",
        "IBDA-8K %",
        "IBDA-64K %",
        "IBDA-inf %",
    ]);
    let mut crisp_all = Vec::new();
    let mut ibda1k_all = Vec::new();
    for v in vs {
        match v.payload {
            Some(p) => {
                crisp_all.push(p[0]);
                ibda1k_all.push(p[1]);
                let mut cells = vec![v.workload.to_string()];
                cells.extend(p.iter().map(|x| format!("{x:+.1}")));
                t.row(cells);
            }
            None => t.row(dash_row(v.workload, 5)),
        }
    }
    format!(
        "Figure 7: IPC improvement over the OOO baseline{cov}\n\
         (paper: CRISP +8.4% avg / up to +38%; IBDA far behind, sometimes negative)\n\n{t}\n\
         geomean: CRISP {:+.2}%, IBDA-1K {:+.2}%\n{fb}",
        geomean_speedup(&crisp_all),
        geomean_speedup(&ibda1k_all)
    )
}

fn render_fig8(vs: &[CellView<'_>], cov: Coverage, fb: &str) -> String {
    let mut t = Table::new(vec!["workload", "loads %", "branches %", "both %"]);
    let mut synergy = Vec::new();
    for v in vs {
        match v.payload {
            Some(p) => {
                if p[2] > p[0].max(p[1]) + 0.05 {
                    synergy.push(v.workload);
                }
                let mut cells = vec![v.workload.to_string()];
                cells.extend(p.iter().map(|x| format!("{x:+.1}")));
                t.row(cells);
            }
            None => t.row(dash_row(v.workload, 3)),
        }
    }
    format!(
        "Figure 8: load slices, branch slices, and their combination{cov}\n\
         (paper: several apps benefit from both, combined > either alone)\n\n{t}\n\
         combined beats both individual modes on: {synergy:?}\n{fb}"
    )
}

fn render_fig9(vs: &[CellView<'_>], cov: Coverage, fb: &str) -> String {
    let mut t = Table::new(vec![
        "workload",
        "64/180 %",
        "96/224 %",
        "144/336 %",
        "192/448 %",
    ]);
    for v in vs {
        match v.payload {
            Some(p) => {
                let mut cells = vec![v.workload.to_string()];
                cells.extend(p.iter().map(|x| format!("{x:+.1}")));
                t.row(cells);
            }
            None => t.row(dash_row(v.workload, 4)),
        }
    }
    format!(
        "Figure 9: CRISP speedup across RS/ROB sizes{cov}\n\
         (paper: xhpcg grows with the window, moses peaks at the smallest)\n\n{t}{fb}"
    )
}

fn render_fig10(vs: &[CellView<'_>], cov: Coverage, fb: &str) -> String {
    let mut t = Table::new(vec!["workload", "T=5% %", "T=1% %", "T=0.2% %"]);
    let mut per_threshold = [Vec::new(), Vec::new(), Vec::new()];
    for v in vs {
        match v.payload {
            Some(p) => {
                let mut cells = vec![v.workload.to_string()];
                for (i, x) in p.iter().enumerate() {
                    per_threshold[i].push(*x);
                    cells.push(format!("{x:+.1}"));
                }
                t.row(cells);
            }
            None => t.row(dash_row(v.workload, 3)),
        }
    }
    format!(
        "Figure 10: miss-contribution threshold sensitivity{cov}\n\
         (paper: T=1% best overall, per-app optima differ)\n\n{t}\n\
         geomeans: T=5% {:+.2}%, T=1% {:+.2}%, T=0.2% {:+.2}%\n{fb}",
        geomean_speedup(&per_threshold[0]),
        geomean_speedup(&per_threshold[1]),
        geomean_speedup(&per_threshold[2])
    )
}

fn render_fig11(vs: &[CellView<'_>], cov: Coverage, fb: &str) -> String {
    let mut t = Table::new(vec!["workload", "critical insts", "static ratio %"]);
    for v in vs {
        match v.payload {
            Some(p) => t.row(vec![
                v.workload.to_string(),
                format!("{}", p[0] as u64),
                format!("{:.1}", p[1] * 100.0),
            ]),
            None => t.row(dash_row(v.workload, 2)),
        }
    }
    format!(
        "Figure 11: unique critical (tagged) instructions per application{cov}\n\
         (paper: perlbench/gcc/moses exceed 10,000 — beyond any IST)\n\n{t}{fb}"
    )
}

fn render_fig12(vs: &[CellView<'_>], cov: Coverage, fb: &str) -> String {
    let mut t = Table::new(vec![
        "workload",
        "static ovh %",
        "dynamic ovh %",
        "icache MPKI base",
        "icache MPKI CRISP",
    ]);
    let mut dyn_all = Vec::new();
    for v in vs {
        match v.payload {
            Some(p) => {
                dyn_all.push(p[1]);
                t.row(vec![
                    v.workload.to_string(),
                    format!("{:.2}", p[0]),
                    format!("{:.2}", p[1]),
                    format!("{:.3}", p[2]),
                    format!("{:.3}", p[3]),
                ]);
            }
            None => t.row(dash_row(v.workload, 4)),
        }
    }
    let avg = dyn_all.iter().sum::<f64>() / dyn_all.len().max(1) as f64;
    format!(
        "Figure 12: instruction-prefix footprint overhead{cov}\n\
         (paper: ~5.2% dynamic average, worst-case icache MPKI +2.6%)\n\n{t}\n\
         average dynamic overhead: {avg:.2}%\n{fb}"
    )
}

fn render_ablations(vs: &[CellView<'_>], cov: Coverage, fb: &str) -> String {
    let mut out = String::new();

    let mut t = Table::new(vec!["workload", "random %", "oldest-first", "CRISP %"]);
    for v in vs {
        match v.payload {
            Some(p) => t.row(vec![
                v.workload.to_string(),
                format!("{:+.1}", p[0]),
                "+0.0 (ref)".to_string(),
                format!("{:+.1}", p[1]),
            ]),
            None => t.row(dash_row(v.workload, 3)),
        }
    }
    out.push_str(&format!(
        "Ablation A: scheduler policy (speedup vs oldest-ready-first){cov}\n\n{t}\n"
    ));

    let mut t = Table::new(vec!["workload", "reg-only %", "reg+mem %"]);
    for v in vs {
        match v.payload {
            Some(p) => t.row(vec![
                v.workload.to_string(),
                format!("{:+.1}", p[2]),
                format!("{:+.1}", p[3]),
            ]),
            None => t.row(dash_row(v.workload, 2)),
        }
    }
    out.push_str(&format!(
        "Ablation B: slicing through memory (Section 3.3; namd is the showcase)\n\n{t}\n"
    ));

    let mut t = Table::new(vec!["workload", "keep all %", "keep 0.5 %", "keep 0.9 %"]);
    for v in vs {
        match v.payload {
            Some(p) => t.row(vec![
                v.workload.to_string(),
                format!("{:+.1}", p[4]),
                format!("{:+.1}", p[5]),
                format!("{:+.1}", p[6]),
            ]),
            None => t.row(dash_row(v.workload, 3)),
        }
    }
    out.push_str(&format!(
        "Ablation C: critical-path filtering fraction (Section 3.5)\n\n{t}\n"
    ));

    let mut t = Table::new(vec![
        "workload",
        "CRISP gain %",
        "CRISP gain @ perfect BP %",
    ]);
    for v in vs {
        match v.payload {
            Some(p) => t.row(vec![
                v.workload.to_string(),
                format!("{:+.1}", p[7]),
                format!("{:+.1}", p[8]),
            ]),
            None => t.row(dash_row(v.workload, 2)),
        }
    }
    out.push_str(&format!(
        "Ablation D: perfect branch prediction (Section 5.3: load-slice \
         benefit grows when mispredicts vanish)\n\n{t}{fb}"
    ));
    out
}

/// Renders the cross-mechanism prefetcher matrix: one metric table per
/// figure dimension (speedup, accuracy, coverage, timeliness) with a
/// mechanism per column, then the CRISP-vs-SPP headline on the
/// irregular/pointer-chasing workloads — the gap the paper targets.
fn render_prefzoo(vs: &[CellView<'_>], cov: Coverage, fb: &str) -> String {
    use crate::cells::ZOO_MECHS;
    const STRIDE: usize = 8;
    // Per-mechanism offsets inside one block.
    const SPEEDUP: usize = 1;
    const ACCURACY: usize = 2;
    const COVERAGE: usize = 3;
    const TIMELINESS: usize = 4;

    let cell = |p: &[f64], mech: usize, field: usize| p[mech * STRIDE + field];
    let mut out = format!(
        "Prefetcher zoo: cross-mechanism matrix{cov}\n\
         (speedup % vs the bop+stream OOO baseline; accuracy/coverage/\n\
         timeliness in [0,1], hardware mechanisms only)\n\n"
    );

    for (title, field, fmt) in [
        ("speedup % over base", SPEEDUP, 1usize),
        ("accuracy (useful / issued)", ACCURACY, 2),
        (
            "coverage (nopf demand-load LLC misses removed)",
            COVERAGE,
            2,
        ),
        (
            "timeliness (fully-hidden fraction of useful)",
            TIMELINESS,
            2,
        ),
    ] {
        let mut header = vec!["workload"];
        header.extend_from_slice(&ZOO_MECHS);
        let mut t = Table::new(header);
        let mut per_mech: Vec<Vec<f64>> = vec![Vec::new(); ZOO_MECHS.len()];
        for v in vs {
            match v.payload {
                Some(p) => {
                    let mut row = vec![v.workload.to_string()];
                    for (m, col) in per_mech.iter_mut().enumerate() {
                        let x = cell(p, m, field);
                        col.push(x);
                        row.push(if field == SPEEDUP {
                            format!("{x:+.1}")
                        } else {
                            format!("{x:.fmt$}")
                        });
                    }
                    t.row(row);
                }
                None => t.row(dash_row(v.workload, ZOO_MECHS.len())),
            }
        }
        let mut summary = vec!["geomean/mean".to_string()];
        for col in &per_mech {
            summary.push(if col.is_empty() {
                "-".to_string()
            } else if field == SPEEDUP {
                format!("{:+.1}", geomean_speedup(col))
            } else {
                let mean = col.iter().sum::<f64>() / col.len() as f64;
                format!("{mean:.fmt$}")
            });
        }
        t.row(summary);
        out.push_str(&format!("{title}:\n\n{t}\n"));
    }

    // Headline: CRISP against the strongest conventional hardware
    // prefetcher on the irregular, pointer-chasing workloads.
    let irregular = ["pointer_chase", "mcf", "omnetpp", "xalancbmk"];
    let spp_col = ZOO_MECHS.iter().position(|m| *m == "spp").expect("spp");
    let crisp_col = ZOO_MECHS.iter().position(|m| *m == "crisp").expect("crisp");
    let mut t = Table::new(vec!["workload", "SPP %", "CRISP %", "CRISP - SPP"]);
    let (mut spp_all, mut crisp_all) = (Vec::new(), Vec::new());
    for v in vs.iter().filter(|v| irregular.contains(&v.workload)) {
        match v.payload {
            Some(p) => {
                let s = cell(p, spp_col, SPEEDUP);
                let c = cell(p, crisp_col, SPEEDUP);
                spp_all.push(s);
                crisp_all.push(c);
                t.row(vec![
                    v.workload.to_string(),
                    format!("{s:+.1}"),
                    format!("{c:+.1}"),
                    format!("{:+.1}", c - s),
                ]);
            }
            None => t.row(dash_row(v.workload, 3)),
        }
    }
    out.push_str(&format!(
        "headline: CRISP vs SPP on irregular/pointer-chasing workloads\n\
         (the criticality gap conventional pattern prefetchers leave open)\n\n{t}\n"
    ));
    if !spp_all.is_empty() {
        out.push_str(&format!(
            "irregular geomean: SPP {:+.2}%, CRISP {:+.2}%\n",
            geomean_speedup(&spp_all),
            geomean_speedup(&crisp_all)
        ));
    }
    out.push_str(fb);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::cell_spec;
    use crate::experiments::ExperimentScale;
    use crisp_harness::FailureClass;

    fn done(payload: Vec<f64>) -> JobOutcome {
        JobOutcome::Completed {
            payload,
            attempts: 1,
            resumed: false,
            cached: false,
        }
    }

    #[test]
    fn full_coverage_renders_without_annotations() {
        let cells = vec![
            cell_spec("fig4", "mcf", ExperimentScale::Tiny),
            cell_spec("fig4", "lbm", ExperimentScale::Tiny),
        ];
        let mut outcomes = BTreeMap::new();
        outcomes.insert("fig4/mcf".to_string(), done(vec![12.5, 40.0]));
        outcomes.insert("fig4/lbm".to_string(), done(vec![3.0, 7.0]));
        let s = render_figure("fig4", &cells, &outcomes);
        assert!(s.contains("12.5"));
        assert!(s.contains("40"));
        assert!(!s.contains("DEGRADED"));
        assert!(!s.contains("failure taxonomy"));
    }

    #[test]
    fn failed_cells_degrade_with_taxonomy() {
        let cells = vec![
            cell_spec("fig11", "mcf", ExperimentScale::Tiny),
            cell_spec("fig11", "lbm", ExperimentScale::Tiny),
        ];
        let mut outcomes = BTreeMap::new();
        outcomes.insert("fig11/mcf".to_string(), done(vec![120.0, 0.05]));
        outcomes.insert(
            "fig11/lbm".to_string(),
            JobOutcome::Failed {
                class: FailureClass::Deadlock,
                error: "simulator deadlock at cycle 7\n  ROB head: pc 3".to_string(),
                attempts: 4,
                detail: Some(Value::Obj(vec![
                    ("kind".to_string(), Value::Str("deadlock".into())),
                    ("cycle".to_string(), Value::Num(7.0)),
                    ("rob".to_string(), Value::Str("12/224".into())),
                    ("rs".to_string(), Value::Str("4/96".into())),
                ])),
            },
        );
        let s = render_figure("fig11", &cells, &outcomes);
        assert!(s.contains("[DEGRADED (1/2 workloads)]"), "{s}");
        assert!(s.contains("failure taxonomy (1/2 cells failed):"), "{s}");
        assert!(
            s.contains("lbm: deadlock after 4 attempt(s) — simulator deadlock at cycle 7"),
            "{s}"
        );
        assert!(
            s.contains("detail: cycle=7 rob=12/224 rs=4/96"),
            "the manifest's structured record is cited: {s}"
        );
        assert!(
            s.contains("lbm  "),
            "dash row keeps the workload visible: {s}"
        );
    }

    #[test]
    fn missing_outcomes_render_as_incomplete() {
        let cells = vec![cell_spec("fig9", "mcf", ExperimentScale::Tiny)];
        let s = render_figure("fig9", &cells, &BTreeMap::new());
        assert!(s.contains("[DEGRADED (0/1 workloads)]"));
        assert!(s.contains("incomplete"));
        assert!(s.contains("sweep stopped before this cell ran"));
    }

    #[test]
    fn geomeans_skip_failed_cells() {
        let cells = vec![
            cell_spec("fig7", "mcf", ExperimentScale::Tiny),
            cell_spec("fig7", "lbm", ExperimentScale::Tiny),
        ];
        let mut outcomes = BTreeMap::new();
        outcomes.insert("fig7/mcf".to_string(), done(vec![10.0, 1.0, 2.0, 3.0, 4.0]));
        outcomes.insert(
            "fig7/lbm".to_string(),
            JobOutcome::Failed {
                class: FailureClass::Timeout,
                error: "wall-clock deadline exceeded".to_string(),
                attempts: 2,
                detail: None,
            },
        );
        let s = render_figure("fig7", &cells, &outcomes);
        assert!(s.contains("geomean: CRISP +10.00%, IBDA-1K +1.00%"), "{s}");
    }
}
