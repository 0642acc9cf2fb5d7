//! The metric catalog, the per-run result, and its one-line JSON form.

use crisp_harness::json::Value;
use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, reported by every workload with
/// tracing off. `BENCHMARK.json` lists the same names in the same order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
    ("job_p50_ms", "ms"),
    ("ooo_ipc", "inst/cycle"),
    ("crisp_speedup_pct", "%"),
];

/// Engine phases of the HostProf self-profile, in report order.
pub const PHASES: [&str; 11] = [
    "fetch", "rename", "dispatch", "wakeup", "select", "execute", "lsq", "mshr", "dram", "retire",
    "other",
];

/// Stall classes of the ROB-head stall table, in column order.
pub const STALLS: [&str; 7] = [
    "load_l1",
    "load_llc",
    "load_dram",
    "store",
    "branch_mispredict",
    "fu",
    "frontend",
];

/// Prefetchers compared per unit (`base` is the Table 1 `bop+stream`
/// pair).
pub const PREFETCHERS: [&str; 5] = ["base", "stride", "ghbw", "sisb", "spp"];

/// Figure targets timed per cell in the traced runs.
pub const CELL_FIGURES: [&str; 9] = [
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

/// Per-layer metrics `(name, unit)`, reported by every workload in the
/// traced run; a layer a workload never calls reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| v.push((name, unit));
    add("sim.busy_s".into(), "s");
    add("sim.retired".into(), "inst");
    add("sim.cycles".into(), "cycle");
    for k in ["pointer_chase", "mcf", "lbm", "gcc", "ooo", "crisp"] {
        add(format!("sim.kips.{k}"), "kinst/s");
    }
    for p in PHASES {
        add(format!("sim.phase.{p}_ns"), "ns");
    }
    for c in [
        "rs_slots_scanned",
        "age_compares",
        "lsq_probes",
        "mshr_probes",
    ] {
        add(format!("sim.{c}"), "count");
    }
    for s in STALLS {
        add(format!("sim.stall_delta.{s}"), "cycle/kinst");
    }
    add("mem.llc_load_mpki".into(), "1/kinst");
    for m in PREFETCHERS {
        add(format!("mem.{m}.issued"), "count");
        add(format!("mem.{m}.useful"), "count");
        add(format!("mem.{m}.accuracy"), "ratio");
    }
    add("uarch.branch_mpki".into(), "1/kinst");
    add("emu.busy_s".into(), "s");
    add("emu.kips".into(), "kinst/s");
    add("workloads.build_s".into(), "s");
    add("profile.classify_s".into(), "s");
    add("profile.delinquent_loads".into(), "count");
    add("profile.hard_branches".into(), "count");
    for s in ["depgraph", "extract", "filter", "annotate"] {
        add(format!("slicer.{s}_s"), "s");
    }
    add("slicer.slice_insts".into(), "count");
    add("slicer.tagged".into(), "count");
    add("slicer.keep_ratio".into(), "ratio");
    add("ibda.train_s".into(), "s");
    add("ibda.tagged".into(), "count");
    add("core.pipeline_s".into(), "s");
    add("core.glue_s".into(), "s");
    for f in CELL_FIGURES {
        add(format!("cells.{f}_s"), "s");
    }
    add("cells.busy_s".into(), "s");
    add("harness.idle_s".into(), "s");
    add("harness.retries".into(), "count");
    add("harness.journal_bytes".into(), "byte");
    for s in ["hits", "misses"] {
        add(format!("store.{s}"), "count");
    }
    add("store.hit_ratio".into(), "ratio");
    add("store.quarantined".into(), "count");
    add("store.bytes".into(), "byte");
    add("serve.jobs".into(), "count");
    add("serve.job_p90_ms".into(), "ms");
    for s in ["submit", "queue", "execute"] {
        add(format!("serve.{s}_ms"), "ms");
    }
    add("serve.coalesced".into(), "count");
    add("serve.rejected".into(), "count");
    add("obs.trace_overhead_ratio".into(), "ratio");
    v
}

/// One run's outcome: operation counts, failed checks, and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells, simulations or jobs).
    pub attempted: u64,
    /// Operations that failed, were refused, or failed a check.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub problems: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Adds to a metric (missing counts as 0).
    pub fn add(&mut self, name: &str, value: f64) {
        *self.metrics.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Whether every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Renders the result line for `catalog`: every catalog metric in
    /// order, with its unit. A catalog metric the run did not measure is
    /// a benchmark bug, reported as a failed check.
    pub fn render(&mut self, catalog: &[(String, &'static str)], fill_zero: bool) -> String {
        let mut pairs = Vec::with_capacity(catalog.len());
        for (name, unit) in catalog {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                _ if fill_zero && !self.metrics.contains_key(name) => 0.0,
                other => {
                    self.problems
                        .push(format!("metric {name} not measured ({other:?})"));
                    f64::NAN
                }
            };
            pairs.push((
                name.clone(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(value)),
                    ("unit".into(), Value::Str((*unit).to_string())),
                ]),
            ));
        }
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Obj(pairs)),
        ])
        .encode()
    }
}

/// The end-to-end catalog with owned names (same shape as [`per_layer`]).
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|(n, u)| ((*n).to_string(), *u))
        .collect()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a digest over 64-bit words, printed as hex so two commits'
/// simulated outputs can be compared exactly.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds bytes into the digest.
    pub fn bytes(&mut self, data: &[u8]) {
        for b in data {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds words into the digest.
    pub fn words(&mut self, data: &[u64]) {
        for w in data {
            self.bytes(&w.to_le_bytes());
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_follow_the_contract_and_are_unique() {
        let mut all: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        all.extend(per_layer().into_iter().map(|(n, _)| n));
        let mut seen = std::collections::HashSet::new();
        for n in &all {
            assert!(seen.insert(n.clone()), "duplicate metric {n}");
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "{n}"
            );
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalog() {
        let doc = crisp_harness::json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(Value::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                        (s("name"), s("unit"))
                    })
                    .collect(),
                other => panic!("{key}: {other:?}"),
            }
        };
        let own = |c: Vec<(String, &str)>| -> Vec<(String, String)> {
            c.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), own(end_to_end()));
        assert_eq!(names("per_layer"), own(per_layer()));
    }

    #[test]
    fn render_reports_every_catalog_metric_or_fails() {
        let mut o = Outcome {
            attempted: 2,
            ..Outcome::default()
        };
        o.set("wall_s", 1.25);
        let cat = vec![("wall_s".to_string(), "s"), ("setup_s".to_string(), "s")];
        let line = o.render(&cat, true);
        assert!(o.correct(), "zero-filled: {:?}", o.problems);
        assert!(
            line.contains("\"wall_s\":{\"value\":1.25,\"unit\":\"s\"}"),
            "{line}"
        );
        let line = o.render(&cat, false);
        assert!(
            !o.correct() && line.starts_with("{\"correct\":false"),
            "{line}"
        );
    }
}
