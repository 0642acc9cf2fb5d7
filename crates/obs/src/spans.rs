//! Span model and tree renderer.
//!
//! A *span* is one named interval of host wall-clock time — `[start_ns,
//! end_ns)` in unix nanoseconds, so spans written by different layers
//! and threads (daemon, supervisor, stages) share a clock. Spans
//! link into a tree through `parent` span ids; the daemon's root span
//! covers a job from submission to result, and every layer underneath
//! appends its own children to the job's `spans.jsonl`.
//!
//! This module is the dependency-free core: the record type, the tree
//! renderer, and the critical-path breakdown. Parsing the JSONL wire
//! form lives with the CLI (which owns a JSON parser); writers live in
//! the harness.

/// One recorded span. Ids are opaque `u64`s (the writers derive them
/// deterministically from the trace id and span name, so re-runs of a
/// resumed job converge on the same tree).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRec {
    /// Span id (unique within the trace).
    pub span: u64,
    /// Parent span id; `0` marks a root.
    pub parent: u64,
    /// Span name, e.g. `queue`, `cell fig1:mcf#1`, `profile fig1:mcf#1.1`.
    pub name: String,
    /// Emitting layer, e.g. `daemon` or `supervisor`.
    pub proc: String,
    /// Start, unix nanoseconds.
    pub start_ns: u64,
    /// End, unix nanoseconds.
    pub end_ns: u64,
}

/// Nanoseconds since the unix epoch — the one clock every process in a
/// job shares, so spans from different pids nest correctly.
pub fn unix_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

impl SpanRec {
    /// The span's duration (0 for malformed end < start).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.1}ms", ns as f64 / 1e6)
}

/// Renders the span tree plus a critical-path breakdown.
///
/// Orphan spans (parent id never recorded — e.g. the process died
/// before its ancestors closed) render as extra roots rather than being
/// dropped, so partial traces stay inspectable. The breakdown
/// aggregates *exclusive* time (a span's duration minus its children's)
/// by span-name prefix and reports each as a share of the root span —
/// the "queue 12% / simulate 78% / store publish 7%" view.
pub fn render_spans(spans: &[SpanRec]) -> String {
    if spans.is_empty() {
        return "no spans recorded\n".to_string();
    }
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].start_ns, spans[i].span));
    let known = |id: u64| spans.iter().any(|s| s.span == id);
    let roots: Vec<usize> = order
        .iter()
        .copied()
        .filter(|&i| spans[i].parent == 0 || !known(spans[i].parent))
        .collect();
    let children = |id: u64| -> Vec<usize> {
        order
            .iter()
            .copied()
            .filter(|&i| spans[i].parent == id && spans[i].span != id)
            .collect()
    };

    let mut out = String::new();
    // Tree rendering, depth-first with box-drawing rails. `frame` is
    // `None` for the headline root (no rail, no share) and
    // `Some((prefix, is_last_sibling))` below it.
    fn walk(
        spans: &[SpanRec],
        children: &dyn Fn(u64) -> Vec<usize>,
        idx: usize,
        frame: Option<(&str, bool)>,
        root_dur: u64,
        out: &mut String,
    ) {
        let s = &spans[idx];
        let share = s.dur_ns() as f64 * 100.0 / root_dur.max(1) as f64;
        match frame {
            None => {
                out.push_str(&format!("{} [{}] {}\n", s.name, s.proc, fmt_ms(s.dur_ns())));
            }
            Some((prefix, last)) => {
                let rail = if last { "└─" } else { "├─" };
                out.push_str(&format!(
                    "{prefix}{rail} {} [{}] {} ({share:.1}%)\n",
                    s.name,
                    s.proc,
                    fmt_ms(s.dur_ns())
                ));
            }
        }
        let kids = children(s.span);
        for (k, &c) in kids.iter().enumerate() {
            let deeper = match frame {
                None => String::new(),
                Some((prefix, true)) => format!("{prefix}   "),
                Some((prefix, false)) => format!("{prefix}│  "),
            };
            walk(
                spans,
                children,
                c,
                Some((&deeper, k + 1 == kids.len())),
                root_dur,
                out,
            );
        }
    }
    let root_dur = roots
        .first()
        .map(|&i| spans[i].dur_ns())
        .unwrap_or(0)
        .max(1);
    for (k, &r) in roots.iter().enumerate() {
        let frame = (k > 0).then_some(("", k + 1 == roots.len()));
        walk(spans, &children, r, frame, root_dur, &mut out);
    }

    // Critical-path breakdown: exclusive time per span-name prefix.
    let mut excl: Vec<(String, u64)> = Vec::new();
    for s in spans {
        let child_ns: u64 = spans
            .iter()
            .filter(|c| c.parent == s.span && c.span != s.span)
            .map(SpanRec::dur_ns)
            .sum();
        let own = s.dur_ns().saturating_sub(child_ns);
        // Group `cell fig1:mcf#1` and `cell fig2:lbm#1` as `cell`.
        let key = s
            .name
            .split_whitespace()
            .next()
            .unwrap_or(&s.name)
            .to_string();
        match excl.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v += own,
            None => excl.push((key, own)),
        }
    }
    excl.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let parts: Vec<String> = excl
        .iter()
        .filter(|(_, ns)| *ns > 0)
        .map(|(k, ns)| format!("{k} {:.0}%", *ns as f64 * 100.0 / root_dur as f64))
        .collect();
    out.push_str(&format!("critical path: {}\n", parts.join(" / ")));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, proc: &str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            span: id,
            parent,
            name: name.to_string(),
            proc: proc.to_string(),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn renders_tree_with_shares_and_breakdown() {
        let spans = vec![
            span(1, 0, "job", "daemon", 0, 1_000_000_000),
            span(2, 1, "queue", "daemon", 0, 120_000_000),
            span(3, 1, "execute", "daemon", 120_000_000, 1_000_000_000),
            span(
                4,
                3,
                "cell fig1:mcf#1",
                "supervisor",
                130_000_000,
                900_000_000,
            ),
            span(5, 4, "simulate", "worker:42", 140_000_000, 880_000_000),
        ];
        let txt = render_spans(&spans);
        assert!(txt.starts_with("job [daemon] 1000.0ms"), "{txt}");
        assert!(txt.contains("├─ queue [daemon] 120.0ms (12.0%)"), "{txt}");
        assert!(txt.contains("└─ simulate [worker:42]"), "{txt}");
        assert!(txt.contains("critical path:"), "{txt}");
        // Simulate dominates the exclusive-time breakdown.
        assert!(txt.contains("simulate 74%"), "{txt}");
        assert!(txt.contains("queue 12%"), "{txt}");
    }

    #[test]
    fn orphans_become_roots_and_empty_input_is_named() {
        assert!(render_spans(&[]).contains("no spans"));
        let spans = vec![
            span(1, 0, "job", "daemon", 0, 100),
            span(9, 77, "stray", "worker:1", 10, 20),
        ];
        let txt = render_spans(&spans);
        assert!(txt.contains("stray"), "{txt}");
    }

    #[test]
    fn malformed_span_duration_clamps_to_zero() {
        let s = span(1, 0, "x", "p", 100, 40);
        assert_eq!(s.dur_ns(), 0);
    }
}
