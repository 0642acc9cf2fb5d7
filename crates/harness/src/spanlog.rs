//! Span log: the on-disk format behind `crisp obs spans`.
//!
//! Every layer that touches a job — the daemon, the supervisor and the
//! sweep's stage threads — appends spans to the same per-job
//! `spans.jsonl`, one JSON object per line:
//!
//! ```text
//! {"trace":"<32-hex>","span":"<16-hex>","parent":"<16-hex|0>",
//!  "name":"cell fig1:mcf#1","proc":"supervisor","start_ns":"...","end_ns":"..."}
//! ```
//!
//! Three properties make this safe without any coordination between
//! writers:
//!
//! 1. **O_APPEND single-`write` lines.** Each record is one `write(2)`
//!    of one `\n`-terminated line well under `PIPE_BUF`, so concurrent
//!    appenders never interleave bytes (same contract as the daemon's
//!    event sink).
//! 2. **Deterministic span ids.** [`span_id`] hashes `trace|name`, so a
//!    layer can name a parent's span without being handed its id (the
//!    supervisor mints `cell fig1:mcf#1`; the stage observer derives the
//!    identical id independently and hangs its stage spans under it).
//!    No id registry, no handshake.
//! 3. **Strings for wide integers.** Span ids and unix-epoch
//!    nanosecond timestamps exceed the 2^53 exact-integer range of the
//!    JSON subset's f64 numbers, so they are encoded as hex / decimal
//!    strings and parsed back exactly.

use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::Path;

use crate::journal::fnv1a64;
use crisp_obs::json::{parse, Value};
pub use crisp_obs::unix_ns;
use crisp_obs::SpanRec;

/// Deterministic span id: FNV-1a over `trace|name`, remapped away from
/// 0 (the reserved "no parent" sentinel).
pub fn span_id(trace: &str, name: &str) -> u64 {
    match fnv1a64(&format!("{trace}|{name}")) {
        0 => 1,
        id => id,
    }
}

/// The tag that names cell `job`'s spans: `<job>#1`, as in `cell
/// <job>#1`, `store-publish <job>#1` and `<stage> <job>#1.<request>`.
/// A cell runs once per sweep; the `#1` is the attempt suffix that span
/// names have always carried.
pub fn cell_tag(job: &str) -> String {
    format!("{job}#1")
}

/// Appends one span record to `path` (O_APPEND, single write).
pub fn append_span(path: &Path, trace: &str, rec: &SpanRec) -> io::Result<()> {
    let line = Value::Obj(vec![
        ("trace".into(), Value::Str(trace.to_string())),
        ("span".into(), Value::Str(format!("{:016x}", rec.span))),
        ("parent".into(), Value::Str(format!("{:016x}", rec.parent))),
        ("name".into(), Value::Str(rec.name.clone())),
        ("proc".into(), Value::Str(rec.proc.clone())),
        ("start_ns".into(), Value::Str(rec.start_ns.to_string())),
        ("end_ns".into(), Value::Str(rec.end_ns.to_string())),
    ]);
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    file.write_all(format!("{}\n", line.encode()).as_bytes())
}

/// A layer's handle on a job's span log: where to append, which trace,
/// and which parent to hang new spans under. Cloning with a different
/// `parent` scopes a child layer.
#[derive(Clone, Debug)]
pub struct SpanScope {
    /// The job's `spans.jsonl`.
    pub path: std::path::PathBuf,
    /// Trace id (the job id, hex).
    pub trace: String,
    /// Parent span id for spans this layer emits.
    pub parent: u64,
}

impl SpanScope {
    /// Appends a span named `name` under this scope's parent and
    /// returns its (deterministic) id so a deeper layer can parent on
    /// it. Append failures are swallowed — tracing never fails a sweep.
    pub fn emit(&self, name: &str, proc_name: &str, start_ns: u64, end_ns: u64) -> u64 {
        let span = span_id(&self.trace, name);
        let _ = append_span(
            &self.path,
            &self.trace,
            &SpanRec {
                span,
                parent: self.parent,
                name: name.to_string(),
                proc: proc_name.to_string(),
                start_ns,
                end_ns,
            },
        );
        span
    }

    /// A stage observer ([`crisp_core::Stages::observed`]) for cell
    /// `job`: one span per stage request, named `<stage> <job>#1.<request>`
    /// (see [`cell_tag`]) so ids stay unique within the trace, under this scope's parent or under the computing request
    /// that made it. Requests served another request's result end in
    /// ` (shared)`; their time is any single-flight wait.
    pub fn stage_observer<'a>(&'a self, job: &str) -> impl Fn(&crisp_core::StageEvent) + 'a {
        let cell = cell_tag(job);
        move |e| {
            let name =
                |kind: crisp_core::StageKind, seq: u32| format!("{} {cell}.{seq}", kind.name());
            let parent = e.parent.map_or(self.parent, |(kind, seq)| {
                span_id(&self.trace, &name(kind, seq))
            });
            let mut span_name = name(e.kind, e.seq);
            if e.shared {
                span_name.push_str(" (shared)");
            }
            SpanScope {
                parent,
                ..self.clone()
            }
            .emit(&span_name, "supervisor", e.start_ns, e.end_ns);
        }
    }
}

/// Accepts the string encodings [`append_span`] emits plus plain
/// numbers (hand-written logs, future writers).
fn wide_u64(v: &Value, hex: bool) -> Option<u64> {
    match v {
        Value::Str(s) => u64::from_str_radix(s, if hex { 16 } else { 10 }).ok(),
        _ => v.as_u64(),
    }
}

/// Parses a span log, skipping lines that are torn, non-JSON, or
/// missing fields — a live log's tail may be mid-write.
pub fn load_spans(text: &str) -> Vec<SpanRec> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(v) = parse(line) else { continue };
        let field = |k: &str| v.get(k).cloned().unwrap_or(Value::Null);
        let (Some(span), Some(parent), Some(start_ns), Some(end_ns)) = (
            wide_u64(&field("span"), true),
            wide_u64(&field("parent"), true),
            wide_u64(&field("start_ns"), false),
            wide_u64(&field("end_ns"), false),
        ) else {
            continue;
        };
        let (Some(name), Some(proc_name)) = (
            field("name").as_str().map(str::to_string),
            field("proc").as_str().map(str::to_string),
        ) else {
            continue;
        };
        out.push(SpanRec {
            span,
            parent,
            name,
            proc: proc_name,
            start_ns,
            end_ns,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("crisp-spanlog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn round_trips_wide_ids_and_nanos_exactly() {
        let path = temp_path("roundtrip");
        let trace = "00112233445566778899aabbccddeeff";
        let root = SpanRec {
            span: span_id(trace, "job"),
            parent: 0,
            name: "job".into(),
            proc: "daemon".into(),
            start_ns: 1_754_600_000_123_456_789, // > 2^53: must survive exactly
            end_ns: 1_754_600_001_123_456_789,
        };
        let child = SpanRec {
            span: span_id(trace, "cell a#1"),
            parent: root.span,
            name: "cell a#1".into(),
            proc: "supervisor".into(),
            start_ns: root.start_ns + 10,
            end_ns: root.end_ns - 10,
        };
        append_span(&path, trace, &root).unwrap();
        append_span(&path, trace, &child).unwrap();
        let loaded = load_spans(&std::fs::read_to_string(&path).unwrap());
        assert_eq!(loaded, vec![root, child]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn span_ids_are_deterministic_and_nonzero() {
        assert_eq!(span_id("t", "job"), span_id("t", "job"));
        assert_ne!(span_id("t", "job"), span_id("t", "queue"));
        assert_ne!(span_id("t", "job"), span_id("u", "job"));
        assert_ne!(span_id("t", "job"), 0);
    }

    #[test]
    fn loader_skips_torn_and_malformed_lines() {
        let text = concat!(
            "{\"span\":\"10\",\"parent\":\"0\",\"name\":\"a\",\"proc\":\"p\",",
            "\"start_ns\":\"5\",\"end_ns\":\"9\"}\n",
            "not json at all\n",
            "{\"span\":\"11\",\"parent\":\"0\",\"name\":\"missing times\",\"proc\":\"p\"}\n",
            "{\"span\":\"12\",\"parent\":\"10\",\"name\":\"b\",\"proc\":\"q\",",
            "\"start_ns\":6,\"end_ns\":8}\n",
            "{\"span\":\"13\",\"parent\":\"0\",\"na", // torn tail
        );
        let spans = load_spans(text);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].span, 0x10);
        assert_eq!(spans[1].span, 0x12);
        assert_eq!(spans[1].parent, 0x10);
        assert_eq!(spans[1].start_ns, 6); // plain-number fallback
    }
}
