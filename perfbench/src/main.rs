//! `perfbench` — the CRISP reproduction's layered benchmark.
//!
//! ```text
//! perfbench --workload figures|simulate|serve --seed N --seconds S --trace 0|1
//! perfbench compare PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
//! ```
//!
//! A run prints a human-readable summary, then, as its last stdout line,
//! one JSON object: `correct`, `attempted`, `failed`, and every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`), each with its unit. Exit code 0 only when every
//! operation succeeded and every correctness check passed. See
//! `README.md` beside this crate for the workloads and metrics.

mod calib;
mod compare;
mod figures;
mod probe;
mod report;
mod serve;
mod simulate;
mod stats;

use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// One run's settings.
pub struct Opts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Target length of the timed region, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub traced: bool,
    /// Scratch directory for this run, removed afterwards.
    pub work: PathBuf,
}

/// Runs whole passes of a workload's fixed work: at least `min`, then
/// more while another pass (at the mean pass time so far) still ends
/// within `seconds`. Returns each pass's wall-clock seconds and output.
pub fn timed_passes<T>(
    seconds: f64,
    min: usize,
    mut pass: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<(f64, T)>, String> {
    let started = Instant::now();
    let mut out: Vec<(f64, T)> = Vec::new();
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        if out.len() >= min {
            let mean = elapsed / out.len() as f64;
            if elapsed + mean > seconds {
                return Ok(out);
            }
        }
        let t = Instant::now();
        let value = pass(out.len())?;
        let wall = t.elapsed().as_secs_f64();
        println!("pass {} wall {wall:.3} s", out.len() + 1);
        out.push((wall, value));
    }
}

/// SplitMix64: the benchmark's only source of randomness, so a seed
/// fixes every generated input.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload figures|simulate|serve --seed N --seconds S --trace 0|1\n\
         \x20      perfbench compare PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        return usage();
    };
    let run: fn(&Opts) -> Result<Outcome, String> = match workload.as_str() {
        "figures" => figures::run,
        "simulate" => simulate::run,
        "serve" => serve::run,
        _ => return usage(),
    };
    let work = PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let opts = Opts {
        seed,
        seconds,
        traced,
        work: work.clone(),
    };
    let mut out = run(&opts).unwrap_or_else(|e| Outcome {
        attempted: 1,
        failed: 1,
        problems: vec![e],
        ..Outcome::default()
    });
    if !traced {
        match report::peak_rss_mb() {
            Some(mb) => out.set("peak_rss_mb", mb),
            None => out.problems.push("VmHWM unavailable".into()),
        }
        let ok = out.attempted.saturating_sub(out.failed) as f64 / out.attempted.max(1) as f64;
        out.set("ok_ratio", ok);
    }
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_work");

    let catalog = if traced {
        report::per_layer()
    } else {
        report::end_to_end()
    };
    let line = out.render(&catalog, traced);
    println!("workload {workload} seed {seed} trace {}", u8::from(traced));
    for (name, unit) in &catalog {
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name:34} {v:>18.6} {unit}");
    }
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    println!(
        "attempted {} failed {} correct {}",
        out.attempted,
        out.failed,
        out.correct()
    );
    println!("{line}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_honour_the_minimum_and_the_budget() {
        let mut calls = 0;
        let v = timed_passes(0.0, 2, |_| {
            calls += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!((v.len(), calls), (2, 2));
        let v = timed_passes(0.2, 1, |_| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            Ok(())
        })
        .unwrap();
        assert!(
            (2..=10).contains(&v.len()),
            "20 ms passes in a 200 ms budget: {}",
            v.len()
        );
    }

    #[test]
    fn splitmix_is_seeded_and_shuffles_are_permutations() {
        let draw = |seed| {
            let mut v: Vec<u32> = (0..20).collect();
            SplitMix::new(seed).shuffle(&mut v);
            v
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut s = draw(7);
        s.sort();
        assert_eq!(s, (0..20).collect::<Vec<_>>());
    }
}
