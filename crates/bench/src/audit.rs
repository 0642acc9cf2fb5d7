//! The checkpoint/restore determinism audit behind `--audit-restore`.
//!
//! For each audited workload the simulator runs the evaluation trace
//! straight through while capturing periodic machine snapshots, then
//! resumes a fresh machine from *every* captured snapshot and verifies
//! each resumed run finishes with byte-identical statistics
//! ([`crisp_sim::Simulator::audit_restore`]). A pass is the end-to-end
//! proof that a SIGKILL'd sweep resumed from a checkpoint produces the
//! same tables as an uninterrupted one.
//!
//! Both evaluation runs are audited: the OOO baseline, and the CRISP run
//! with the workload's pipeline-built criticality map, whose restore must
//! also rebuild the scheduler's PRIO vector.

use crate::experiments::ExperimentScale;
use crisp_core::{build, run_crisp_pipeline, CrispError, Input};
use crisp_emu::Emulator;
use crisp_sim::{SchedulerKind, Simulator};

/// Cycles between audit checkpoints when `--checkpoint-interval` is not
/// given: small enough that even `--tiny` runs capture several.
pub const DEFAULT_AUDIT_INTERVAL: u64 = 5_000;

/// The workloads audited when no `--workloads` filter is given: the
/// Figure 1 microbenchmark plus two memory-bound SPEC kernels with very
/// different machine-state shapes.
pub const DEFAULT_AUDIT_WORKLOADS: [&str; 3] = ["pointer_chase", "mcf", "lbm"];

/// One audited run's outcome.
#[derive(Clone, Debug)]
pub struct AuditLine {
    /// Audited workload.
    pub workload: String,
    /// Which evaluation run: `ooo` (baseline scheduler, no map) or `crisp`
    /// (CRISP scheduler with the pipeline's criticality map).
    pub run: &'static str,
    /// Straight-through run length in cycles.
    pub cycles: u64,
    /// Checkpoints captured and re-verified by resumption.
    pub checkpoints_verified: usize,
}

/// Runs the determinism audit over both evaluation runs of `workloads`
/// at `scale`, checkpointing roughly every `interval` cycles.
///
/// # Errors
///
/// A divergent resumed run surfaces as
/// [`crisp_sim::SimError::RestoreAuditDivergence`] (wrapped in
/// [`CrispError::Simulation`]); a workload whose run is too short to
/// capture any checkpoint fails the audit with
/// [`CrispError::Checkpoint`] — zero coverage must not read as a pass.
pub fn run_restore_audit(
    workloads: &[String],
    scale: ExperimentScale,
    interval: u64,
) -> Result<Vec<AuditLine>, CrispError> {
    let cfg = scale.pipeline();
    let mut lines = Vec::with_capacity(2 * workloads.len());
    for name in workloads {
        let w = build(name, Input::Ref)?;
        let trace = Emulator::new(&w.program, w.memory.clone()).run(cfg.eval_instructions);
        let map = run_crisp_pipeline(name, &cfg)?.map;
        let mut sim = cfg.sim.clone();
        sim.collect_pc_stats = false;
        // Poll often enough that the requested cadence is honoured even
        // when `interval` undercuts the default poll period.
        if interval < sim.cancel_check_interval {
            sim.cancel_check_interval = interval.max(64);
        }
        let runs = [
            ("ooo", SchedulerKind::OldestReadyFirst, None),
            ("crisp", SchedulerKind::Crisp, Some(map.as_slice())),
        ];
        for (run, scheduler, critical) in runs {
            let sim = Simulator::try_new(sim.clone().with_scheduler(scheduler))?;
            let audit = sim.audit_restore(&w.program, &trace, critical, interval)?;
            if audit.checkpoints_verified == 0 {
                return Err(CrispError::Checkpoint(format!(
                    "audit of `{name}` ({run}) captured no checkpoints over {} cycles; \
                     lower --checkpoint-interval below the run length",
                    audit.cycles
                )));
            }
            lines.push(AuditLine {
                workload: name.clone(),
                run,
                cycles: audit.cycles,
                checkpoints_verified: audit.checkpoints_verified,
            });
        }
    }
    Ok(lines)
}

/// Renders the audit outcome as the report `--audit-restore` prints.
pub fn render_audit(lines: &[AuditLine]) -> String {
    let mut out = String::from("Checkpoint/restore determinism audit\n\n");
    let total: usize = lines.iter().map(|l| l.checkpoints_verified).sum();
    let mut workloads: Vec<&str> = lines.iter().map(|l| l.workload.as_str()).collect();
    workloads.dedup();
    for l in lines {
        out.push_str(&format!(
            "  {} ({}): {} checkpoint(s) resumed to byte-identical results over {} cycles\n",
            l.workload, l.run, l.checkpoints_verified, l.cycles
        ));
    }
    out.push_str(&format!(
        "\nPASS: {total} resumed run(s) across {} workload(s) matched the \
         straight-through results exactly\n",
        workloads.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_audit_verifies_checkpoints_for_three_workloads() {
        let workloads: Vec<String> = DEFAULT_AUDIT_WORKLOADS
            .iter()
            .map(|s| s.to_string())
            .collect();
        let lines = run_restore_audit(&workloads, ExperimentScale::Tiny, 10_000)
            .expect("tiny audit passes");
        // Two audited runs per workload: OOO, then CRISP with its map.
        assert_eq!(lines.len(), 6);
        for (l, run) in lines.iter().zip(["ooo", "crisp"].iter().cycle()) {
            assert_eq!(l.run, *run, "{}", l.workload);
            assert!(
                l.checkpoints_verified >= 1,
                "{} ({}): no checkpoints verified",
                l.workload,
                l.run
            );
        }
        let report = render_audit(&lines);
        assert!(report.contains("PASS"), "{report}");
        assert!(report.contains("across 3 workload(s)"), "{report}");
        assert!(report.contains("pointer_chase (crisp)"), "{report}");
    }

    #[test]
    fn impossible_interval_fails_instead_of_passing_vacuously() {
        let err = run_restore_audit(
            &["pointer_chase".to_string()],
            ExperimentScale::Tiny,
            u64::MAX,
        )
        .expect_err("no checkpoints must not pass");
        match err {
            CrispError::Checkpoint(m) => assert!(m.contains("captured no checkpoints"), "{m}"),
            other => panic!("unexpected error: {other:?}"),
        }
    }
}
