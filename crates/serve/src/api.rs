//! JSON bodies of the job API.
//!
//! Request bodies are untrusted network input: they are parsed with
//! [`crisp_obs::json::parse_with_limits`] (depth- and size-capped)
//! and every shape error becomes a structured 400, never a panic.

use crisp_obs::json::{parse_with_limits, ParseLimits, Value};

/// Nesting allowed in request bodies — the API schema is two levels
/// deep, so 16 leaves generous headroom while bounding hostile input.
pub const BODY_MAX_DEPTH: usize = 16;

/// A sweep submission (`POST /jobs`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubmitRequest {
    /// Report targets (figure names and/or `table1`), render order.
    pub targets: Vec<String>,
    /// Optional workload filter applied to every figure.
    pub workloads: Option<Vec<String>>,
    /// Simulation scale name (`tiny`, `fast`, `full`).
    pub scale: String,
    /// Optional hardware-prefetcher override (`NAME[:k=v,…][+NAME…]`,
    /// e.g. `spp:depth=4+stride`). Validated and canonicalized by the
    /// planner; `None` keeps the Skylake default zoo.
    pub prefetcher: Option<String>,
}

impl SubmitRequest {
    /// Canonical JSON encoding — also what the registry persists, so a
    /// recovered daemon re-plans from exactly what was admitted.
    pub fn encode(&self) -> String {
        self.to_value().encode()
    }

    /// The request as a JSON value.
    pub fn to_value(&self) -> Value {
        let mut pairs = vec![(
            "targets".to_string(),
            Value::Arr(self.targets.iter().cloned().map(Value::Str).collect()),
        )];
        if let Some(w) = &self.workloads {
            pairs.push((
                "workloads".to_string(),
                Value::Arr(w.iter().cloned().map(Value::Str).collect()),
            ));
        }
        pairs.push(("scale".to_string(), Value::Str(self.scale.clone())));
        if let Some(p) = &self.prefetcher {
            pairs.push(("prefetcher".to_string(), Value::Str(p.clone())));
        }
        Value::Obj(pairs)
    }

    /// Decodes a parsed body. `Err` carries a one-line reason for the
    /// 400 response.
    pub fn from_value(v: &Value) -> Result<SubmitRequest, String> {
        let strings = |v: &Value, what: &str| -> Result<Vec<String>, String> {
            v.as_arr()
                .ok_or_else(|| format!("`{what}` must be an array of strings"))?
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("`{what}` must be an array of strings"))
                })
                .collect()
        };
        let targets = strings(v.get("targets").ok_or("missing `targets`")?, "targets")?;
        if targets.is_empty() {
            return Err("`targets` must not be empty".into());
        }
        let workloads = match v.get("workloads") {
            Some(w) => Some(strings(w, "workloads")?),
            None => None,
        };
        let scale = v
            .get("scale")
            .and_then(Value::as_str)
            .ok_or("missing or non-string `scale`")?
            .to_string();
        let prefetcher = match v.get("prefetcher") {
            Some(p) => Some(
                p.as_str()
                    .ok_or("`prefetcher` must be a string")?
                    .to_string(),
            ),
            None => None,
        };
        Ok(SubmitRequest {
            targets,
            workloads,
            scale,
            prefetcher,
        })
    }

    /// Parses raw body bytes with hostile-input limits.
    ///
    /// # Errors
    ///
    /// A one-line reason for the 400 response.
    pub fn parse(body: &[u8], max_bytes: usize) -> Result<SubmitRequest, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let limits = ParseLimits {
            max_depth: BODY_MAX_DEPTH,
            max_bytes: Some(max_bytes),
        };
        let v = parse_with_limits(text, limits).map_err(|e| e.to_string())?;
        SubmitRequest::from_value(&v)
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for the executor.
    Queued,
    /// The executor is sweeping its cells.
    Running,
    /// Finished with every cell completed.
    Done,
    /// Finished with at least one failed cell.
    Failed,
}

impl JobState {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// A structured error body: `{"error": "...", "detail": "..."}`.
pub fn error_body(error: &str, detail: &str) -> String {
    Value::Obj(vec![
        ("error".to_string(), Value::Str(error.to_string())),
        ("detail".to_string(), Value::Str(detail.to_string())),
    ])
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SubmitRequest {
        SubmitRequest {
            targets: vec!["fig1".into(), "table1".into()],
            workloads: Some(vec!["mcf".into()]),
            scale: "tiny".into(),
            prefetcher: None,
        }
    }

    #[test]
    fn submit_round_trips_through_canonical_json() {
        let req = sample();
        assert_eq!(SubmitRequest::parse(req.encode().as_bytes(), 4096), Ok(req));
        let no_filter = SubmitRequest {
            workloads: None,
            ..sample()
        };
        assert_eq!(
            SubmitRequest::parse(no_filter.encode().as_bytes(), 4096),
            Ok(no_filter)
        );
        let with_pf = SubmitRequest {
            prefetcher: Some("spp:depth=4+stride".into()),
            ..sample()
        };
        assert!(with_pf.encode().contains("\"prefetcher\""));
        assert_eq!(
            SubmitRequest::parse(with_pf.encode().as_bytes(), 4096),
            Ok(with_pf)
        );
    }

    #[test]
    fn malformed_submissions_get_one_line_reasons() {
        for (body, needle) in [
            (&b"not json"[..], "at byte"),
            (b"{}", "targets"),
            (b"{\"targets\":[]}", "empty"),
            (b"{\"targets\":[1],\"scale\":\"tiny\"}", "array of strings"),
            (b"{\"targets\":[\"fig1\"]}", "scale"),
            (
                &b"{\"targets\":[\"fig1\"],\"scale\":\"tiny\",\"prefetcher\":1}"[..],
                "prefetcher",
            ),
            (b"\xff\xfe", "UTF-8"),
        ] {
            let err = SubmitRequest::parse(body, 4096).unwrap_err();
            assert!(err.contains(needle), "{body:?} -> {err}");
        }
    }

    #[test]
    fn hostile_bodies_hit_depth_and_size_limits() {
        let deep = "[".repeat(1000);
        let err = SubmitRequest::parse(deep.as_bytes(), 4096).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let err = SubmitRequest::parse(sample().encode().as_bytes(), 4).unwrap_err();
        assert!(err.contains("too large"), "{err}");
    }

    #[test]
    fn error_bodies_are_valid_json() {
        let body = error_body("queue full", "retry later");
        let v = crisp_obs::json::parse(&body).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("queue full"));
    }
}
