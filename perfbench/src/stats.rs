//! Order statistics and means used by every workload and by `compare`.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones the acceptance protocol computes.
/// `None` when empty; a single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let ld = s.len();
    match ld {
        0 => None,
        1 => Some((s[0], s[0])),
        _ => {
            let q = |i: i64| {
                let (n, m, ld) = (4i64, ld as i64 + 1, ld as i64);
                let j = (i * m / n).clamp(1, ld - 1);
                // Negative when the clamp moved `j` up (tiny samples).
                let delta = (i * m - j * n) as f64;
                let (lo, hi) = (s[(j - 1) as usize], s[j as usize]);
                (lo * (n as f64 - delta) + hi * delta) / n as f64
            };
            Some((q(1), q(3)))
        }
    }
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread the benchmark's bounds are compared against.
pub fn rel_spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Whether a `p`-th percentile over `n` samples has at least ten samples
/// beyond it — the only percentiles this benchmark reports.
pub fn reportable(n: usize, p: f64) -> bool {
    n >= nearest_rank(n, p) + 10
}

/// The nearest-rank `p`-th percentile, or `None` when fewer than ten
/// samples lie beyond it (see [`reportable`]).
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    if n == 0 || !reportable(n, p) {
        return None;
    }
    Some(sorted(xs)[nearest_rank(n, p) - 1])
}

/// The median, or `None` when fewer than ten samples lie beyond it.
pub fn p50(xs: &[f64]) -> Option<f64> {
    if reportable(xs.len(), 50.0) {
        median(xs)
    } else {
        None
    }
}

/// Geometric mean of positive values; `None` when empty or any value is
/// not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Geometric-mean speedup of percentage gains (`+5.0` = 5 % faster),
/// the way the paper's figures average IPC improvements.
pub fn geomean_speedup_pct(pcts: &[f64]) -> Option<f64> {
    let ratios: Vec<f64> = pcts.iter().map(|p| 1.0 + p / 100.0).collect();
    geomean(&ratios).map(|g| (g - 1.0) * 100.0)
}

fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = rel_spread(&xs).expect("non-zero median");
        assert!((s - 5.5 / 5.5).abs() < 1e-12, "{s}");
        assert_eq!(rel_spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs[..99], 90.0), None, "only 9 beyond p90");
        assert_eq!(percentile(&xs[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&xs[..19], 50.0), None);
        assert!(reportable(26, 50.0) && !reportable(26, 90.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(p50(&xs[..20]), Some(10.5));
        assert_eq!(p50(&xs[..19]), None);
    }

    #[test]
    fn geomeans() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean_speedup_pct(&[10.0, 10.0]).unwrap() - 10.0).abs() < 1e-9);
        let g = geomean_speedup_pct(&[0.0, 21.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9, "{g}");
    }
}
