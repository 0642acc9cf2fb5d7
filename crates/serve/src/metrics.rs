//! Hand-rolled Prometheus metrics: a counter/histogram registry
//! rendering text exposition format 0.0.4, with no dependencies.
//!
//! Handles ([`Counter`], [`LabeledCounter`], [`Histogram`]) are cheap
//! `Arc` clones; the registry renders every registered family in
//! registration order, then the caller's [`Scalar`] families in the
//! order given, so `/metrics` output is deterministic (golden-testable).
//! Scalars are single-sample families whose value lives elsewhere: the
//! daemon reads them from its `/stats` document at scrape time, so the
//! registry only holds what no other endpoint reports.
//!
//! **Increment cost over strict precision.** `Counter::inc` is a
//! relaxed load + store rather than a `fetch_add`: on x86 a locked
//! `xadd` serializes at ~5–10 ns, blowing the workspace-wide ≤0.5
//! ns/call observability budget that the `obs-overhead` benchmark
//! gates. The plain load/store pair costs well under a nanosecond and
//! overlaps with surrounding work; the trade is that two racing
//! increments may lose a tick. Monitoring counters are trend
//! instruments, not ledgers — best-effort monotonicity is the right
//! contract. That is also why the registry cannot hold the daemon's
//! exact counts, which stay in sequentially-consistent atomics.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically-increasing (best-effort, see module docs) counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (relaxed load + store: sub-ns, may lose racing ticks).
    #[inline]
    pub fn add(&self, n: u64) {
        let v = self.0.load(Ordering::Relaxed);
        self.0.store(v.wrapping_add(n), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A counter family with one fixed label key and lazily-created
/// children — the shape behind `crisp_prefetch_issued_total{prefetcher=…}`.
///
/// Children are keyed by label *value* in a `BTreeMap`, so rendering is
/// deterministic regardless of first-touch order.
#[derive(Clone, Debug, Default)]
pub struct LabeledCounter {
    children: Arc<Mutex<BTreeMap<String, Counter>>>,
}

impl LabeledCounter {
    /// The child counter for `value`, created on first use. Label
    /// values are escaped at render time, so any string is safe here.
    pub fn with(&self, value: &str) -> Counter {
        self.children
            .lock()
            .expect("labeled counter lock")
            .entry(value.to_string())
            .or_default()
            .clone()
    }

    /// Snapshot of `(label value, count)` pairs in render order.
    pub fn samples(&self) -> Vec<(String, u64)> {
        self.children
            .lock()
            .expect("labeled counter lock")
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect()
    }
}

/// A cumulative histogram with fixed upper bounds.
#[derive(Clone, Debug)]
pub struct Histogram {
    bounds: Arc<Vec<f64>>,
    /// One count per bound, plus the +Inf bucket at the end.
    buckets: Arc<Vec<AtomicU64>>,
    /// Sum of observations, stored as f64 bits.
    sum: Arc<AtomicU64>,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        let mut b = bounds.to_vec();
        b.sort_by(|x, y| x.partial_cmp(y).expect("finite bounds"));
        b.dedup();
        let buckets = (0..=b.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds: Arc::new(b),
            buckets: Arc::new(buckets),
            sum: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Default wall-clock buckets (seconds): 1 ms … 60 s.
    pub const LATENCY_BOUNDS: [f64; 10] =
        [0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1.0, 5.0, 15.0, 60.0];

    /// Records one observation (same lossy-but-cheap contract as
    /// [`Counter::add`]).
    #[inline]
    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        let cell = &self.buckets[idx];
        cell.store(
            cell.load(Ordering::Relaxed).wrapping_add(1),
            Ordering::Relaxed,
        );
        let s = f64::from_bits(self.sum.load(Ordering::Relaxed));
        self.sum.store((s + v).to_bits(), Ordering::Relaxed);
    }

    /// Total observation count.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

enum Family {
    Counter(Counter),
    /// One label key, many children ([`LabeledCounter`]).
    LabeledCounter(String, LabeledCounter),
    Histogram(Histogram),
}

/// A single-sample family rendered after the registry's own, its value
/// read at scrape time from outside the registry: (name, exposition type
/// `counter` or `gauge`, help, value).
pub type Scalar<'a> = (&'a str, &'a str, &'a str, f64);

struct Registered {
    name: String,
    help: String,
    family: Family,
}

/// The metric registry behind `GET /metrics`. Cloning shares the
/// underlying registry.
#[derive(Clone, Default)]
pub struct Metrics {
    families: Arc<Mutex<Vec<Registered>>>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl Metrics {
    /// A fresh, empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    fn push(&self, name: &str, help: &str, family: Family) {
        assert!(valid_name(name), "invalid metric name `{name}`");
        let mut families = self.families.lock().expect("metrics lock");
        assert!(
            !families.iter().any(|r| r.name == name),
            "duplicate metric `{name}`"
        );
        families.push(Registered {
            name: name.to_string(),
            help: help.to_string(),
            family,
        });
    }

    /// Registers a counter and returns its handle.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let c = Counter::default();
        self.push(name, help, Family::Counter(c.clone()));
        c
    }

    /// Registers a single-label counter family and returns its handle.
    /// `label` is the label *key* shared by every child sample.
    pub fn labeled_counter(&self, name: &str, help: &str, label: &str) -> LabeledCounter {
        assert!(valid_name(label), "invalid label name `{label}`");
        let c = LabeledCounter::default();
        self.push(
            name,
            help,
            Family::LabeledCounter(label.to_string(), c.clone()),
        );
        c
    }

    /// Registers a histogram over `bounds` (a +Inf bucket is implicit)
    /// and returns its handle.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        let h = Histogram::new(bounds);
        self.push(name, help, Family::Histogram(h.clone()));
        h
    }

    /// Renders every registered family, then `scalars`, in text
    /// exposition format 0.0.4.
    pub fn render(&self, scalars: &[Scalar<'_>]) -> String {
        let mut out = String::new();
        for r in self.families.lock().expect("metrics lock").iter() {
            out.push_str(&format!("# HELP {} {}\n", r.name, r.help));
            match &r.family {
                Family::Counter(c) => {
                    out.push_str(&format!("# TYPE {} counter\n", r.name));
                    out.push_str(&format!("{} {}\n", r.name, c.get()));
                }
                Family::LabeledCounter(label, c) => {
                    out.push_str(&format!("# TYPE {} counter\n", r.name));
                    for (value, count) in c.samples() {
                        out.push_str(&format!(
                            "{}{{{label}=\"{}\"}} {count}\n",
                            r.name,
                            escape_label(&value)
                        ));
                    }
                }
                Family::Histogram(h) => {
                    out.push_str(&format!("# TYPE {} histogram\n", r.name));
                    let mut cum = 0u64;
                    for (i, bound) in h.bounds.iter().enumerate() {
                        cum += h.buckets[i].load(Ordering::Relaxed);
                        out.push_str(&format!(
                            "{}_bucket{{le=\"{}\"}} {cum}\n",
                            r.name,
                            fmt_f64(*bound)
                        ));
                    }
                    cum += h.buckets[h.bounds.len()].load(Ordering::Relaxed);
                    out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {cum}\n", r.name));
                    let sum = f64::from_bits(h.sum.load(Ordering::Relaxed));
                    out.push_str(&format!("{}_sum {}\n", r.name, fmt_f64(sum)));
                    out.push_str(&format!("{}_count {cum}\n", r.name));
                }
            }
        }
        for (name, kind, help, value) in scalars {
            out.push_str(&format!("# HELP {name} {help}\n"));
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            out.push_str(&format!("{name} {}\n", fmt_f64(*value)));
        }
        out
    }
}

/// Label-value escaping per exposition format 0.0.4: backslash, double
/// quote and newline.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Prometheus-friendly float rendering: integers without a trailing
/// `.0`, everything else via the shortest round-trip form.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Validates one line of text exposition format 0.0.4 — what the golden
/// test and the daemon's `/metrics` tests check every line against.
/// Accepts `# HELP`/`# TYPE` comments, blank lines, and
/// `name[{labels}] value` samples.
pub fn check_exposition_line(line: &str) -> Result<(), String> {
    if line.is_empty() || line.starts_with("# HELP ") {
        return Ok(());
    }
    if let Some(rest) = line.strip_prefix("# TYPE ") {
        let mut it = rest.split_whitespace();
        let (name, kind) = (it.next().unwrap_or(""), it.next().unwrap_or(""));
        if !valid_name(name) {
            return Err(format!("bad metric name in TYPE line: `{line}`"));
        }
        if !matches!(
            kind,
            "counter" | "gauge" | "histogram" | "summary" | "untyped"
        ) {
            return Err(format!("bad metric type `{kind}`: `{line}`"));
        }
        return Ok(());
    }
    if line.starts_with('#') {
        return Ok(()); // other comments are legal
    }
    let (name_part, value_part) = match line.find('{') {
        Some(brace) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| format!("unclosed label braces: `{line}`"))?;
            (&line[..brace], line[close + 1..].trim())
        }
        None => {
            let sp = line
                .find(' ')
                .ok_or_else(|| format!("sample without value: `{line}`"))?;
            (&line[..sp], line[sp + 1..].trim())
        }
    };
    if !valid_name(name_part) {
        return Err(format!("bad sample name `{name_part}`: `{line}`"));
    }
    let value = value_part.split_whitespace().next().unwrap_or("");
    if value.parse::<f64>().is_err() && !matches!(value, "+Inf" | "-Inf" | "NaN") {
        return Err(format!("bad sample value `{value}`: `{line}`"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_exposition_format() {
        let m = Metrics::new();
        let c = m.counter("crisp_requests_total", "HTTP requests served.");
        let h = m.histogram("crisp_request_seconds", "Request latency.", &[0.1, 1.0]);
        c.add(3);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(30.0);
        let scalars = [
            (
                "crisp_queue_depth",
                "gauge",
                "Jobs admitted but unfinished.",
                2.0,
            ),
            ("crisp_up", "gauge", "Always one.", 1.0),
        ];
        let golden = "\
# HELP crisp_requests_total HTTP requests served.
# TYPE crisp_requests_total counter
crisp_requests_total 3
# HELP crisp_request_seconds Request latency.
# TYPE crisp_request_seconds histogram
crisp_request_seconds_bucket{le=\"0.1\"} 1
crisp_request_seconds_bucket{le=\"1\"} 2
crisp_request_seconds_bucket{le=\"+Inf\"} 3
crisp_request_seconds_sum 30.55
crisp_request_seconds_count 3
# HELP crisp_queue_depth Jobs admitted but unfinished.
# TYPE crisp_queue_depth gauge
crisp_queue_depth 2
# HELP crisp_up Always one.
# TYPE crisp_up gauge
crisp_up 1
";
        assert_eq!(m.render(&scalars), golden);
        for line in m.render(&scalars).lines() {
            check_exposition_line(line).unwrap();
        }
    }

    #[test]
    fn counter_and_gauge_handles_share_state() {
        let m = Metrics::new();
        let c = m.counter("c_total", "c");
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);
        assert!(m
            .render(&[("g", "gauge", "g", -2.5)])
            .contains("\ng -2.5\n"));
    }

    #[test]
    fn labeled_counter_renders_sorted_escaped_children() {
        let m = Metrics::new();
        let c = m.labeled_counter(
            "crisp_prefetch_issued_total",
            "Prefetches issued, by mechanism.",
            "prefetcher",
        );
        c.with("spp").add(7);
        c.with("ghbw").inc();
        c.with("we\"ird").inc();
        let text = m.render(&[]);
        // BTreeMap order: ghbw before spp, regardless of touch order.
        let ghbw = text.find("crisp_prefetch_issued_total{prefetcher=\"ghbw\"} 1");
        let spp = text.find("crisp_prefetch_issued_total{prefetcher=\"spp\"} 7");
        assert!(ghbw.unwrap() < spp.unwrap(), "{text}");
        assert!(
            text.contains("crisp_prefetch_issued_total{prefetcher=\"we\\\"ird\"} 1"),
            "{text}"
        );
        for line in text.lines() {
            check_exposition_line(line).unwrap_or_else(|e| panic!("{e}"));
        }
        assert_eq!(c.samples().len(), 3);
    }

    #[test]
    fn histogram_buckets_cumulate_and_count() {
        let m = Metrics::new();
        let h = m.histogram("h", "h", &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 3.0, 8.0, 8.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        let text = m.render(&[]);
        assert!(text.contains("h_bucket{le=\"1\"} 1"), "{text}");
        assert!(text.contains("h_bucket{le=\"2\"} 2"), "{text}");
        assert!(text.contains("h_bucket{le=\"4\"} 3"), "{text}");
        assert!(text.contains("h_bucket{le=\"+Inf\"} 5"), "{text}");
        assert!(text.contains("h_count 5"), "{text}");
    }

    #[test]
    #[should_panic(expected = "duplicate metric")]
    fn duplicate_registration_panics() {
        let m = Metrics::new();
        let _ = m.counter("dup_total", "a");
        let _ = m.counter("dup_total", "b");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        let _ = Metrics::new().counter("1bad-name", "x");
    }

    #[test]
    fn exposition_line_checker_accepts_valid_and_names_invalid() {
        for ok in [
            "# HELP x y z",
            "# TYPE x counter",
            "x 1",
            "x{le=\"0.5\",job=\"a b\"} 2.5",
            "x_bucket{le=\"+Inf\"} 7",
            "",
        ] {
            check_exposition_line(ok).unwrap_or_else(|e| panic!("{e}"));
        }
        assert!(check_exposition_line("x").is_err());
        assert!(check_exposition_line("2x 1").is_err());
        assert!(check_exposition_line("x notanumber").is_err());
        assert!(check_exposition_line("# TYPE x flavor").is_err());
        assert!(check_exposition_line("x{le=\"1\" 3").is_err());
    }
}
