//! Experiment scale, Table 1, and helpers shared by the figure cells
//! ([`crate::cells`]) and their renderers ([`crate::render`]).

use crisp_core::{PipelineConfig, SimConfig, Table};

/// How much simulation to spend per experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Minimal windows — seconds per figure (integration tests, chaos
    /// smoke runs; too small for meaningful numbers).
    Tiny,
    /// Small windows — minutes for the whole suite (CI / smoke runs).
    Fast,
    /// The default windows used for EXPERIMENTS.md.
    Full,
}

impl ExperimentScale {
    /// The scale's one spelling, on the command line, in submissions and
    /// in worker frames.
    pub fn name(self) -> &'static str {
        match self {
            ExperimentScale::Tiny => "tiny",
            ExperimentScale::Fast => "fast",
            ExperimentScale::Full => "full",
        }
    }

    pub(crate) fn pipeline(self) -> PipelineConfig {
        match self {
            ExperimentScale::Tiny => PipelineConfig {
                train_instructions: 40_000,
                eval_instructions: 60_000,
                ..PipelineConfig::paper()
            },
            ExperimentScale::Fast => PipelineConfig {
                train_instructions: 120_000,
                eval_instructions: 200_000,
                ..PipelineConfig::paper()
            },
            ExperimentScale::Full => PipelineConfig {
                train_instructions: 400_000,
                eval_instructions: 1_000_000,
                ..PipelineConfig::paper()
            },
        }
    }
}

/// Parses [`ExperimentScale::name`]'s spelling.
impl std::str::FromStr for ExperimentScale {
    type Err = String;

    fn from_str(s: &str) -> Result<ExperimentScale, String> {
        let all = [
            ExperimentScale::Tiny,
            ExperimentScale::Fast,
            ExperimentScale::Full,
        ];
        let found = all.into_iter().find(|scale| scale.name() == s);
        found.ok_or_else(|| format!("unknown scale `{s}` (expected tiny|fast|full)"))
    }
}

pub(crate) fn geomean_speedup(speedups_pct: &[f64]) -> f64 {
    if speedups_pct.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = speedups_pct
        .iter()
        .map(|s| (1.0 + s / 100.0).ln())
        .sum::<f64>();
    ((log_sum / speedups_pct.len() as f64).exp() - 1.0) * 100.0
}

/// Workloads used for the headline figures: the paper's evaluated set
/// (the microbenchmark belongs to Figure 1; `omnetpp`/`xalancbmk` are
/// extra kernels outside the paper's evaluation).
pub(crate) fn figure_workloads() -> Vec<&'static str> {
    crisp_core::all_names()
        .iter()
        .copied()
        .filter(|n| !matches!(*n, "pointer_chase" | "omnetpp" | "xalancbmk"))
        .collect()
}

/// **Table 1** — the simulated system.
pub fn table1() -> String {
    let sim = SimConfig::skylake();
    let mem = &sim.memory;
    let mut t = Table::new(vec!["parameter", "value"]);
    let rows: Vec<(&str, String)> = vec![
        ("CPU model", "Skylake-like (paper Table 1)".into()),
        (
            "Frontend width / retirement",
            format!("{}-way", sim.fetch_width),
        ),
        (
            "Functional units",
            format!(
                "{} ALU, {} load, {} store",
                sim.alu_ports, sim.load_ports, sim.store_ports
            ),
        ),
        (
            "Branch predictor",
            "TAGE (6 tagged tables, 640b history)".into(),
        ),
        ("BTB", "8K entries, 4-way".into()),
        ("ROB", format!("{} entries", sim.rob_entries)),
        (
            "Reservation station",
            format!("{} entries (unified)", sim.rs_entries),
        ),
        (
            "Baseline scheduler",
            "6-oldest-ready-instructions-first".into(),
        ),
        ("Data prefetcher", "BOP + Stream".into()),
        (
            "Instruction prefetcher",
            format!("FDIP, {} FTQ entries", sim.ftq_entries),
        ),
        ("Load buffer", format!("{} entries", sim.load_buffer)),
        ("Store buffer", format!("{} entries", sim.store_buffer)),
        (
            "L1 I-cache",
            format!(
                "{} KiB, {}-way, {} cycles",
                mem.l1i.capacity / 1024,
                mem.l1i.ways,
                mem.l1i_latency
            ),
        ),
        (
            "L1 D-cache",
            format!(
                "{} KiB, {}-way, {} cycles",
                mem.l1d.capacity / 1024,
                mem.l1d.ways,
                mem.l1d_latency
            ),
        ),
        (
            "LLC",
            format!(
                "{} MiB, {}-way, {} cycles (paper: 20-way)",
                mem.llc.capacity / (1024 * 1024),
                mem.llc.ways,
                mem.llc_latency
            ),
        ),
        (
            "Memory",
            format!(
                "DDR4-2400, 1 channel, {} banks, tRCD/tRP/tCL = {}/{}/{} core cycles",
                mem.dram.banks, mem.dram.t_rcd, mem.dram.t_rp, mem.dram.t_cl
            ),
        ),
    ];
    for (k, v) in rows {
        t.row(vec![k.to_string(), v]);
    }
    format!("Table 1: simulated system\n\n{t}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mentions_key_structures() {
        let s = table1();
        for needle in ["224", "96", "TAGE", "BOP", "FDIP", "DDR4"] {
            assert!(s.contains(needle), "missing {needle}:\n{s}");
        }
    }

    #[test]
    fn geomean_of_speedups() {
        assert_eq!(geomean_speedup(&[]), 0.0);
        let g = geomean_speedup(&[10.0, 10.0]);
        assert!((g - 10.0).abs() < 1e-9);
        let g2 = geomean_speedup(&[0.0, 21.0]);
        assert!(g2 > 9.0 && g2 < 11.0);
    }

    #[test]
    fn figure_workload_list_excludes_microbenchmark() {
        let l = figure_workloads();
        assert!(!l.contains(&"pointer_chase"));
        assert_eq!(l.len(), 15);
    }

    #[test]
    fn scale_names_parse_back() {
        for scale in [
            ExperimentScale::Tiny,
            ExperimentScale::Fast,
            ExperimentScale::Full,
        ] {
            assert_eq!(scale.name().parse(), Ok(scale));
        }
        let err = "Tiny".parse::<ExperimentScale>().unwrap_err();
        assert_eq!(err, "unknown scale `Tiny` (expected tiny|fast|full)");
    }

    #[test]
    fn tiny_scale_is_smaller_than_fast() {
        let t = ExperimentScale::Tiny.pipeline();
        let f = ExperimentScale::Fast.pipeline();
        assert!(t.train_instructions < f.train_instructions);
        assert!(t.eval_instructions < f.eval_instructions);
        assert!(t.validate().is_ok());
    }
}
