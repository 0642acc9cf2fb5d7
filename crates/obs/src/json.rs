//! The workspace's one JSON encoder/parser.
//!
//! The workspace builds with no external crates (everything is vendored),
//! so nothing here can use `serde`. This module serves every JSON text
//! the workspace reads or writes: telemetry JSONL (`crisp obs
//! summarize`), the run-manifest journal, span logs and the daemon's
//! HTTP bodies. It lives in this crate, the lowest
//! layer that needs it, so every layer above imports the same code.
//!
//! Output is deterministic: object keys keep insertion order, and
//! numbers are printed with Rust's shortest-round-trip `f64` formatting
//! so a decoded payload is bit-identical to the encoded one. Parsing is
//! bounded ([`ParseLimits`]): nesting depth always, input size when the
//! caller asks, which is how the daemon takes untrusted request bodies.

use std::fmt::Write as _;

/// A JSON value. Objects preserve key order (deterministic encoding).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null` (also used for non-finite floats, which JSON cannot carry).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact nonnegative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Encodes the value as compact JSON (no whitespace).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                if n.is_finite() {
                    // Rust's float Display is shortest-round-trip; integral
                    // values print without a fraction ("3"), which is valid
                    // JSON and parses back to the same f64.
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => encode_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.encode_into(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_str(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn encode_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Default nesting-depth ceiling for [`parse`]: deep enough for any
/// document this workspace writes, shallow enough that the recursive
/// parser can never blow the stack on adversarial input.
pub const DEFAULT_MAX_DEPTH: usize = 128;

/// Input bounds for [`parse_with_limits`] — the knobs the network-facing
/// service tightens for untrusted payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum array/object nesting depth.
    pub max_depth: usize,
    /// Maximum input size in bytes (`None` = unbounded; trusted local
    /// files only).
    pub max_bytes: Option<usize>,
}

impl Default for ParseLimits {
    fn default() -> ParseLimits {
        ParseLimits {
            max_depth: DEFAULT_MAX_DEPTH,
            max_bytes: None,
        }
    }
}

/// Why a document was rejected. `TooDeep`/`TooLarge` are resource-bound
/// violations (the document may be well-formed JSON); `Syntax` is not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The input exceeds the configured byte limit (checked up front, so
    /// oversized payloads cost nothing to reject).
    TooLarge {
        /// Input size.
        bytes: usize,
        /// The configured ceiling.
        limit: usize,
    },
    /// Nesting exceeds the configured depth limit.
    TooDeep {
        /// The configured ceiling.
        limit: usize,
        /// Byte offset of the bracket that crossed it.
        at: usize,
    },
    /// Malformed JSON.
    Syntax {
        /// Byte offset of the first error.
        at: usize,
        /// What was wrong there.
        message: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::TooLarge { bytes, limit } => {
                write!(f, "document too large ({bytes} bytes, limit {limit})")
            }
            ParseError::TooDeep { limit, at } => {
                write!(f, "nesting deeper than {limit} at byte {at}")
            }
            ParseError::Syntax { at, message } => write!(f, "{message} at byte {at}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document (trailing whitespace allowed, nothing else)
/// under [`ParseLimits::default`] — bounded recursion, unbounded size.
///
/// # Errors
///
/// A [`ParseError`] naming the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    parse_with_limits(input, ParseLimits::default())
}

/// Parses one JSON document under explicit resource limits — the entry
/// point for untrusted network input.
///
/// # Errors
///
/// [`ParseError::TooLarge`]/[`ParseError::TooDeep`] when a limit is
/// exceeded, [`ParseError::Syntax`] for malformed documents.
pub fn parse_with_limits(input: &str, limits: ParseLimits) -> Result<Value, ParseError> {
    if let Some(max) = limits.max_bytes {
        if input.len() > max {
            return Err(ParseError::TooLarge {
                bytes: input.len(),
                limit: max,
            });
        }
    }
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
        max_depth: limits.max_depth,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.fail("trailing garbage"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    max_depth: usize,
}

impl<'a> Parser<'a> {
    fn fail(&self, message: impl Into<String>) -> ParseError {
        ParseError::Syntax {
            at: self.pos,
            message: message.into(),
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > self.max_depth {
            return Err(ParseError::TooDeep {
                limit: self.max_depth,
                at: self.pos,
            });
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.fail("bad literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.fail("unexpected input")),
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| ParseError::Syntax {
                at: start,
                message: format!("bad number `{text}`"),
            })
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.fail("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| self.fail("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.fail("bad \\u escape"))?;
                            // Surrogate pairs are not needed by any document
                            // (encode_str never emits them); map lone
                            // surrogates to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.fail("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).unwrap();
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.fail("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.enter()?;
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.fail("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for (text, v) in [
            ("null", Value::Null),
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("3", Value::Num(3.0)),
            ("-2.5", Value::Num(-2.5)),
            ("\"hi\"", Value::Str("hi".into())),
        ] {
            assert_eq!(parse(text).unwrap(), v, "{text}");
            assert_eq!(parse(&v.encode()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn nested_document_round_trips() {
        let v = Value::Obj(vec![
            ("job".into(), Value::Str("fig7/mcf".into())),
            ("attempt".into(), Value::Num(2.0)),
            (
                "payload".into(),
                Value::Arr(vec![Value::Num(1.5), Value::Num(-0.125), Value::Num(1e-9)]),
            ),
            ("done".into(), Value::Bool(true)),
        ]);
        let text = v.encode();
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(
            text,
            r#"{"job":"fig7/mcf","attempt":2,"payload":[1.5,-0.125,0.000000001],"done":true}"#
        );
    }

    #[test]
    fn strings_with_escapes_round_trip() {
        for s in [
            "plain",
            "with \"quotes\" and \\backslash",
            "newline\nand\ttab",
            "control\u{1}byte",
            "unicode: µops über 数",
        ] {
            let v = Value::Str(s.to_string());
            assert_eq!(parse(&v.encode()).unwrap(), v, "{s:?}");
        }
    }

    #[test]
    fn f64_payloads_round_trip_exactly() {
        for n in [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.234567890123456e300,
            -9.87654321e-12,
            2f64.powi(53),
        ] {
            let v = Value::Num(n);
            let back = parse(&v.encode()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), n.to_bits(), "{n}");
        }
    }

    #[test]
    fn non_finite_numbers_encode_as_null() {
        assert_eq!(Value::Num(f64::NAN).encode(), "null");
        assert_eq!(Value::Num(f64::INFINITY).encode(), "null");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "\"unterminated",
            "nulL",
            "1 2",
            "{\"a\":1,}",
            "[1]]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn deeply_nested_input_is_rejected_not_overflowed() {
        // 10k open brackets would blow the stack without the depth guard.
        let hostile = "[".repeat(10_000);
        match parse(&hostile) {
            Err(ParseError::TooDeep { limit, .. }) => assert_eq!(limit, DEFAULT_MAX_DEPTH),
            other => panic!("expected TooDeep, got {other:?}"),
        }
        let hostile_obj = "{\"k\":".repeat(10_000);
        assert!(matches!(
            parse(&hostile_obj),
            Err(ParseError::TooDeep { .. })
        ));
    }

    #[test]
    fn depth_exactly_at_limit_parses() {
        let n = 5;
        let doc = format!("{}{}{}", "[".repeat(n), "1", "]".repeat(n));
        let limits = ParseLimits {
            max_depth: n,
            max_bytes: None,
        };
        assert!(parse_with_limits(&doc, limits).is_ok());
        let deeper = format!("{}{}{}", "[".repeat(n + 1), "1", "]".repeat(n + 1));
        assert!(matches!(
            parse_with_limits(&deeper, limits),
            Err(ParseError::TooDeep { limit, .. }) if limit == n
        ));
    }

    #[test]
    fn oversized_input_is_rejected_before_parsing() {
        let limits = ParseLimits {
            max_depth: DEFAULT_MAX_DEPTH,
            max_bytes: Some(8),
        };
        assert!(parse_with_limits("[1,2]", limits).is_ok());
        match parse_with_limits("[1,2,3,4,5]", limits) {
            Err(ParseError::TooLarge { bytes, limit }) => {
                assert_eq!(bytes, 11);
                assert_eq!(limit, 8);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_display_their_position() {
        let err = parse("[1,]").unwrap_err();
        assert!(matches!(err, ParseError::Syntax { .. }));
        assert!(err.to_string().contains("at byte"), "{err}");
    }

    #[test]
    fn object_get_and_accessors() {
        let v = parse(r#"{"n":4,"s":"x","a":[1,2]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(4));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        assert_eq!(
            v.get("a").and_then(Value::as_arr).map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Num(1.5).as_u64(), None);
        assert_eq!(Value::Num(-1.0).as_u64(), None);
    }
}
