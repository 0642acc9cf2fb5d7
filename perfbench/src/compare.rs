//! `perfbench compare PARENT_DIR CHANGE_DIR`: the noise-aware verdict of
//! choosing-metrics §8 for every workload and end-to-end metric.
//!
//! Each directory holds one `<workload>.jsonl` per workload: the result
//! lines of that commit's runs, in run order. Line *i* of the parent and
//! line *i* of the change form a pair, so run the two commits
//! alternately (parent first on even pairs, change first on odd ones).

use crate::stats::{median, quartiles, rel_spread};
use crisp_harness::json::{parse, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The verdict on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins ≥ 9/10 of ≥ 10 pairs and the medians differ by
    /// more than the parent's interquartile distance.
    Win,
    /// The change's median is worse than the parent's by more than the
    /// metric's bound.
    Worse,
    /// The run-to-run spread exceeds the bound, and not every change
    /// run beats every parent run: no claim either way.
    Unresolved,
    /// Within the bound.
    Unchanged,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Win => "win",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// Applies the §8 rule to paired samples of one metric.
pub fn verdict(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let better = |c: f64, p: f64| if higher_is_better { c > p } else { c < p };
    let (Some(mp), Some(mc), Some((q1, q3))) = (median(parent), median(change), quartiles(parent))
    else {
        return Verdict::Unresolved;
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| better(c, p))
        .count();
    if pairs >= 10 && wins * 10 >= pairs * 9 && better(mc, mp) && (mc - mp).abs() > q3 - q1 {
        return Verdict::Win;
    }
    let worse_by = if higher_is_better { mp - mc } else { mc - mp };
    if worse_by > bound * mp.abs() {
        return Verdict::Worse;
    }
    let spread = rel_spread(parent)
        .unwrap_or(0.0)
        .max(rel_spread(change).unwrap_or(0.0));
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if spread > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// One end-to-end metric's declaration in `BENCHMARK.json`.
struct Declared {
    name: String,
    higher: bool,
    bound: f64,
}

fn declared(benchmark: &Path) -> Result<(Vec<String>, Vec<Declared>), String> {
    let text =
        std::fs::read_to_string(benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let list = |key: &str| match doc.get(key) {
        Some(Value::Arr(items)) => Ok(items.clone()),
        _ => Err(format!("{}: no `{key}` list", benchmark.display())),
    };
    let workloads = list("workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect();
    let metrics = list("end_to_end")?
        .iter()
        .filter_map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?.to_string(),
                higher: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect();
    Ok((workloads, metrics))
}

/// Reads one commit's result lines for a workload: metric name → values
/// in run order.
fn samples(dir: &Path, workload: &str) -> Result<Vec<Value>, String> {
    let path = dir.join(format!("{workload}.jsonl"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| l.trim_start().starts_with('{'))
        .map(|l| parse(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

fn values(runs: &[Value], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn failures(runs: &[Value]) -> u64 {
    runs.iter()
        .filter_map(|r| r.get("failed").and_then(Value::as_u64))
        .sum()
}

pub fn main(args: &[String]) -> ExitCode {
    let mut dirs = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--benchmark" => match it.next() {
                Some(p) => benchmark = PathBuf::from(p),
                None => return ExitCode::from(2),
            },
            _ => dirs.push(PathBuf::from(a)),
        }
    }
    let [parent, change] = dirs.as_slice() else {
        eprintln!("usage: perfbench compare PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]");
        return ExitCode::from(2);
    };
    let (workloads, metrics) = match declared(&benchmark) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:10} {:18} {:>5} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "pairs", "parent_med", "change_med", "spread", "bound"
    );
    let mut any_worse = false;
    for w in &workloads {
        let (p, c) = match (samples(parent, w), samples(change, w)) {
            (Ok(p), Ok(c)) => (p, c),
            (Err(e), _) | (_, Err(e)) => {
                println!("{w:10} skipped: {e}");
                continue;
            }
        };
        if failures(&c) > failures(&p) {
            println!("{w:10} change failed more operations than parent: no gain counts");
        }
        for m in &metrics {
            let (pv, cv) = (values(&p, &m.name), values(&c, &m.name));
            let v = verdict(&pv, &cv, m.higher, m.bound);
            any_worse |= v == Verdict::Worse;
            println!(
                "{w:10} {:18} {:>5} {:>14.6} {:>14.6} {:>7.1}% {:>5.0}%  {}",
                m.name,
                pv.len().min(cv.len()),
                median(&pv).unwrap_or(f64::NAN),
                median(&cv).unwrap_or(f64::NAN),
                100.0 * rel_spread(&pv).unwrap_or(0.0),
                100.0 * m.bound,
                v.name()
            );
        }
    }
    if any_worse {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_pairing_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * f64::from(i)).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        assert_eq!(verdict(&parent, &faster, false, 0.1), Verdict::Win);
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(verdict(&parent, &slower, false, 0.1), Verdict::Worse);
        assert_eq!(verdict(&parent, &parent, false, 0.1), Verdict::Unchanged);
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&parent, &slower, true, 0.1), Verdict::Win);
        // Nine pairs are too few to claim a win.
        assert_eq!(
            verdict(&parent[..9], &faster[..9], false, 0.3),
            Verdict::Unchanged
        );
    }

    #[test]
    fn noisy_metrics_are_unresolved_unless_every_run_wins() {
        let parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0];
        let mixed = [1.1, 1.9, 1.1, 1.9, 1.1, 1.9, 1.1, 1.9, 1.1, 1.9];
        assert_eq!(verdict(&parent, &mixed, false, 0.1), Verdict::Unresolved);
        let all_better = [0.9; 10];
        assert_eq!(
            verdict(&parent, &all_better, false, 0.5),
            Verdict::Unchanged
        );
    }
}
