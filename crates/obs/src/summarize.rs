//! The telemetry JSONL format, both directions, and `crisp obs
//! summarize`: [`telemetry_line`] writes one sample per line,
//! [`parse_jsonl`] reads a stream back into samples, and [`summarize`]
//! renders per-interval tables plus an ASCII IPC-over-time sparkline.

use crate::json::{parse, Value};
use crate::telemetry::{TelemetrySample, FIELD_NAMES, SAMPLE_FIELDS};
use std::fmt::Write as _;

/// One telemetry sample as a JSONL line (no newline), tagged with the
/// cell id and sub-run label so merged streams stay attributable.
pub fn telemetry_line(cell: &str, label: &str, s: &TelemetrySample) -> String {
    let mut pairs = vec![
        ("cell".to_string(), Value::Str(cell.to_string())),
        ("label".to_string(), Value::Str(label.to_string())),
    ];
    for (name, v) in FIELD_NAMES.iter().zip(s.values()) {
        pairs.push(((*name).to_string(), Value::Num(v as f64)));
    }
    Value::Obj(pairs).encode()
}

/// Parses a telemetry JSONL stream (one sample object per line, blank
/// lines skipped) back into samples. The reader is forward- and
/// backward-compatible by construction: unknown and non-numeric fields
/// are ignored, and [`FIELD_NAMES`] fields absent from a line read as
/// zero — so artifacts from both older and newer schemas keep parsing
/// as the sample schema grows.
///
/// # Errors
///
/// Returns a message naming the first malformed line (1-based).
pub fn parse_jsonl(input: &str) -> Result<Vec<TelemetrySample>, String> {
    let mut samples = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let obj = parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if !matches!(obj, Value::Obj(_)) {
            return Err(format!("line {}: not a JSON object", i + 1));
        }
        let mut values = [0u64; SAMPLE_FIELDS];
        for (v, name) in values.iter_mut().zip(FIELD_NAMES) {
            *v = obj
                .get(name)
                .and_then(Value::as_f64)
                .map_or(0, |n| n as u64);
        }
        samples.push(TelemetrySample::from_values(values));
    }
    Ok(samples)
}

/// Renders `values` as a one-line block-character sparkline (empty input
/// renders empty).
pub fn render_sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 {
                BARS[0]
            } else {
                let idx = ((v / max) * (BARS.len() - 1) as f64).round() as usize;
                BARS[idx.min(BARS.len() - 1)]
            }
        })
        .collect()
}

/// Renders the per-interval table and IPC sparkline for one telemetry
/// stream.
pub fn summarize(samples: &[TelemetrySample]) -> String {
    if samples.is_empty() {
        return "no telemetry samples\n".to_string();
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>12} {:>6} {:>5} {:>5} {:>5} {:>5} {:>6} {:>7} {:>7} {:>6}",
        "cycle", "ipc", "rob", "rs", "mshr", "mlp", "mpki", "l1d%", "llc%", "crit%"
    );
    for s in samples {
        let _ = writeln!(
            out,
            "{:>12} {:>6.3} {:>5} {:>5} {:>5} {:>5} {:>6.1} {:>7.2} {:>7.2} {:>6.1}",
            s.cycle,
            s.ipc(),
            s.rob,
            s.rs,
            s.mshr,
            s.dram_outstanding,
            s.mpki(),
            100.0 * s.l1d_miss_ratio(),
            100.0 * s.llc_miss_ratio(),
            100.0 * s.critical_issue_share(),
        );
    }
    let total_cycles: u64 = samples.iter().map(|s| s.interval_cycles).sum();
    let total_retired: u64 = samples.iter().map(|s| s.retired).sum();
    let _ = writeln!(
        out,
        "{} samples over {} cycles, mean IPC {:.3}",
        samples.len(),
        total_cycles,
        total_retired as f64 / total_cycles.max(1) as f64
    );
    let ipcs: Vec<f64> = samples.iter().map(TelemetrySample::ipc).collect();
    let _ = writeln!(out, "IPC over time: {}", render_sparkline(&ipcs));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetryInputs;
    use crate::telemetry::TelemetryLog;

    fn jsonl_line(s: &TelemetrySample, extra: &str) -> String {
        let mut fields: Vec<String> = s
            .values()
            .iter()
            .zip(FIELD_NAMES)
            .map(|(v, k)| format!("\"{k}\": {v}"))
            .collect();
        if !extra.is_empty() {
            fields.insert(0, extra.to_string());
        }
        format!("{{{}}}", fields.join(", "))
    }

    #[test]
    fn jsonl_round_trips_and_tolerates_extra_fields() {
        let mut log = TelemetryLog::default();
        log.record(TelemetryInputs {
            cycle: 8192,
            retired: 4000,
            l1d_accesses: 900,
            l1d_misses: 90,
            rob: 100,
            ..TelemetryInputs::default()
        });
        log.record(TelemetryInputs {
            cycle: 16384,
            retired: 9000,
            l1d_accesses: 2000,
            l1d_misses: 100,
            rob: 50,
            ..TelemetryInputs::default()
        });
        let text: String = log
            .samples()
            .iter()
            .map(|s| jsonl_line(s, "\"cell\": \"fig1/pointer_chase\""))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, log.samples());
        // The writer's own lines read back the same samples.
        let text: String = log
            .samples()
            .iter()
            .map(|s| telemetry_line("fig1/pointer_chase", "ooo", s) + "\n")
            .collect();
        assert_eq!(parse_jsonl(&text).unwrap(), log.samples());
    }

    #[test]
    fn malformed_lines_are_named() {
        assert!(parse_jsonl("not json").unwrap_err().contains("line 1"));
        let bad_num = "{\"cycle\": xyz}";
        assert_eq!(
            parse_jsonl(bad_num).unwrap_err(),
            "line 1: unexpected input at byte 10"
        );
        let torn = "{\"cycle\": 5, \"tags\": [1, 2";
        assert!(parse_jsonl(torn).unwrap_err().contains("line 1"));
    }

    #[test]
    fn parser_is_forward_compatible_with_schema_growth() {
        // A line from a hypothetical future schema: unknown scalar and
        // nested fields, a known field buried between them, and one
        // known field (`retired`) absent entirely.
        let future = "{\"schema\": 9, \"phases\": {\"fetch\": 10, \"tags\": \"[a]\"}, \
                      \"cycle\": 4096, \"hist\": [1, 2, 3], \"note\": \"ok\"}";
        let parsed = parse_jsonl(future).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].cycle, 4096);
        assert_eq!(parsed[0].retired, 0);
        // A line from an older schema missing newer fields still parses.
        let old = "{\"cycle\": 100, \"retired\": 42}";
        let parsed = parse_jsonl(old).unwrap();
        assert_eq!((parsed[0].cycle, parsed[0].retired), (100, 42));
    }

    #[test]
    fn escaped_quotes_in_string_fields_parse() {
        let line = r#"{"cell":"fig1/x","label":"a\"b","cycle":100,"retired":42}"#;
        let parsed = parse_jsonl(line).unwrap();
        assert_eq!((parsed[0].cycle, parsed[0].retired), (100, 42));
        // A non-numeric value of a known field is ignored, not fatal.
        let parsed = parse_jsonl(r#"{"cycle":"soon","retired":[1]}"#).unwrap();
        assert_eq!((parsed[0].cycle, parsed[0].retired), (0, 0));
        assert!(parse_jsonl("[1, 2]")
            .unwrap_err()
            .contains("not a JSON object"));
    }

    #[test]
    fn summary_renders_table_and_sparkline() {
        let mut log = TelemetryLog::default();
        for i in 1..=4u64 {
            log.record(TelemetryInputs {
                cycle: i * 1000,
                retired: i * i * 300,
                ..TelemetryInputs::default()
            });
        }
        let s = summarize(log.samples());
        assert!(s.contains("cycle"), "{s}");
        assert!(s.contains("IPC over time:"), "{s}");
        assert!(s.contains("4 samples over 4000 cycles"), "{s}");
        // The sparkline rises with the rising IPC.
        let spark = s.lines().last().unwrap();
        assert!(spark.contains('█'), "{s}");
        assert_eq!(summarize(&[]), "no telemetry samples\n");
    }

    #[test]
    fn sparkline_handles_flat_and_empty_input() {
        assert_eq!(render_sparkline(&[]), "");
        assert_eq!(render_sparkline(&[0.0, 0.0]), "▁▁");
        assert_eq!(render_sparkline(&[1.0, 1.0]).chars().count(), 2);
    }
}
