//! Minimal line-protocol JSON — parse and serialize without any
//! dependency (the workspace builds offline; there is no serde).
//!
//! The daemon's protocol needs exactly what RFC 8259 defines and
//! nothing more: objects, arrays, strings with escapes, `f64` numbers,
//! booleans, null. Objects preserve insertion order (replies read
//! naturally in logs) and duplicate keys keep the last value, matching
//! the common parser behavior clients will test against. Parsing is
//! depth-bounded so a hostile request line cannot blow the stack —
//! malformed input of any kind surfaces as a [`JsonError`] with a byte
//! offset, never a panic (the serve chaos suite feeds this parser
//! fuzz-split garbage).
//!
//! There is one parser. It builds a [`JsonRef`], which borrows from the
//! line: a string without escapes is a slice of it, and only a string
//! with escapes is decoded into an owned copy. The request path reads
//! that tree directly ([`parse_borrowed`]); [`parse`] converts it into
//! the owned [`Json`] for callers that keep a value past its line.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Maximum nesting depth accepted by the parser. Protocol messages are
/// depth ≤ 3; anything deeper is hostile or broken input.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// A parsed JSON value borrowing from the line it was parsed from (see
/// the module docs); [`JsonRef::into_owned`] converts it into a [`Json`].
#[derive(Clone, Debug, PartialEq)]
pub enum JsonRef<'a> {
    Null,
    Bool(bool),
    Num(f64),
    Str(Cow<'a, str>),
    Arr(Vec<JsonRef<'a>>),
    Obj(Vec<(Cow<'a, str>, JsonRef<'a>)>),
}

/// Why a line failed to parse, with the byte offset it failed at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    pub at: usize,
    pub what: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Member lookup on an object (`None` on non-objects too — lookups
    /// on a mistyped message read as "field absent", which the protocol
    /// layer reports uniformly).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number with an
    /// exact `u64` value (protocol sequence numbers must round-trip).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serialize to a single line (no trailing newline). Non-finite
    /// numbers — unrepresentable in JSON — serialize as `null`, which
    /// is only reachable if a caller builds such a value explicitly;
    /// the daemon never does.
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => {
                if v.is_finite() {
                    // `{}` on f64 is the shortest representation that
                    // round-trips — exactly what a wire format wants.
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl<'a> JsonRef<'a> {
    /// Member lookup on an object, the last of duplicate keys winning
    /// (see [`Json::get`]).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonRef<'a>> {
        match self {
            JsonRef::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonRef::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonRef::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an exact non-negative integer (see [`Json::as_u64`]).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonRef::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The owned tree: every borrowed string copied out of the line.
    #[must_use]
    pub fn into_owned(self) -> Json {
        match self {
            JsonRef::Null => Json::Null,
            JsonRef::Bool(b) => Json::Bool(b),
            JsonRef::Num(v) => Json::Num(v),
            JsonRef::Str(s) => Json::Str(s.into_owned()),
            JsonRef::Arr(items) => Json::Arr(items.into_iter().map(JsonRef::into_owned).collect()),
            JsonRef::Obj(members) => Json::Obj(
                members.into_iter().map(|(k, v)| (k.into_owned(), v.into_owned())).collect(),
            ),
        }
    }
}

/// `v` as a `u64` if it is a whole number in `0..=2^53`, the range where
/// every integer has an exact `f64` (protocol sequence numbers must
/// round-trip).
fn exact_u64(v: f64) -> Option<u64> {
    (v >= 0.0 && v.fract() == 0.0 && v <= 2f64.powi(53)).then_some(v as u64)
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Parse one JSON value from `input`, requiring it to span the whole
/// string (modulo surrounding whitespace) — a request line is one
/// message, so trailing garbage is an error, not a second message.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    parse_borrowed(input).map(JsonRef::into_owned)
}

/// [`parse`] without the conversion: the tree borrows its unescaped
/// strings from `input`.
pub fn parse_borrowed(input: &str) -> Result<JsonRef<'_>, JsonError> {
    let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &'static str) -> JsonError {
        JsonError { at: self.pos, what }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, what: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, word: &str, value: JsonRef<'a>) -> Result<JsonRef<'a>, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonRef<'a>, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonRef::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonRef::Bool(true)),
            Some(b'f') => self.literal("false", JsonRef::Bool(false)),
            Some(b'n') => self.literal("null", JsonRef::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonRef<'a>, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonRef::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonRef::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonRef<'a>, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonRef::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonRef::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// A string: a slice of the input when it holds no escape, decoded
    /// into an owned copy when it does.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let run = self.plain_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        let mut out = run.to_owned();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
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
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\u`-escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined).ok_or(self.err("invalid code point"))?
                            } else {
                                char::from_u32(cp).ok_or(self.err("invalid code point"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => out.push_str(self.plain_run()),
            }
        }
    }

    /// Skip the run of plain string bytes up to the next `"`, `\\` or
    /// control byte, returning it: a string is scanned once, its plain
    /// runs taken whole. Those stop bytes are ASCII, so the run ends on
    /// a char boundary of the `&str` input.
    fn plain_run(&mut self) -> &'a str {
        let rest = &self.bytes[self.pos..];
        let run =
            rest.iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20).unwrap_or(rest.len());
        let start = self.pos;
        self.pos += run;
        &self.text[start..self.pos]
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.bytes.len() < self.pos + 4 {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<JsonRef<'a>, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits, sign, dot and exponent are ascii");
        // Overflowing literals (1e999) become ±inf here; the protocol
        // layer's load validation rejects non-finite values with a
        // structured error, which is the behavior the poisoned-λ chaos
        // tests drive.
        text.parse::<f64>()
            .map(JsonRef::Num)
            .map_err(|_| JsonError { at: start, what: "invalid number" })
    }
}

/// Convenience constructors for reply assembly.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// An object from owned keys — for maps keyed by runtime names (the
/// replication protocol's per-tenant sections).
#[must_use]
pub fn obj_owned(members: Vec<(String, Json)>) -> Json {
    Json::Obj(members)
}

/// A string member value.
pub fn s(v: impl Into<String>) -> Json {
    Json::Str(v.into())
}

/// A numeric member value.
pub fn n(v: f64) -> Json {
    Json::Num(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_protocol_shapes() {
        let line = r#"{"op":"tick","tenant":"t-1","seq":7,"load":2.5,"tags":["a","b"],"deep":{"x":null,"y":false}}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("tick"));
        assert_eq!(v.get("seq").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("load").and_then(Json::as_f64), Some(2.5));
        let reparsed = parse(&v.to_line()).unwrap();
        assert_eq!(reparsed, v);
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}f→".into());
        let back = parse(&v.to_line()).unwrap();
        assert_eq!(back, v);
        assert_eq!(parse(r#""Aé😀""#).unwrap(), Json::Str("Aé😀".into()));
    }

    #[test]
    fn numbers_round_trip_shortest() {
        for x in [0.0, -0.0, 1.5, 0.1, 1e-12, 123456789.0, -3.25] {
            let v = parse(&Json::Num(x).to_line()).unwrap();
            assert_eq!(v.as_f64().unwrap().to_bits(), x.to_bits(), "{x}");
        }
        // Overflowing literal → infinity, for the validation layer to reject.
        assert!(parse("1e999").unwrap().as_f64().unwrap().is_infinite());
    }

    #[test]
    fn malformed_input_errors_never_panic() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            r#"{"a"}"#,
            r#"{"a":}"#,
            "nul",
            "tru",
            "--1",
            "1.2.3",
            r#""unterminated"#,
            "\u{1}",
            r#"{"a":1}x"#,
            "[1 2]",
            r#""\q""#,
            r#""\ud800""#,
            "0x12",
            "\"tab\tliteral-ok\"",
        ] {
            let _ = parse(bad); // must return, not panic
        }
        assert!(parse(r#"{"a":1}x"#).is_err());
        assert_eq!(parse("\"tab\tliteral-ok\"").unwrap_err().what, "control character in string");
    }

    #[test]
    fn depth_is_bounded() {
        let mut hostile = String::new();
        for _ in 0..10_000 {
            hostile.push('[');
        }
        assert_eq!(parse(&hostile).unwrap_err().what, "nesting too deep");
    }

    /// A string is parsed in one pass: each run of plain bytes is
    /// copied once, not rescanned per character. A 1 MiB string (two
    /// runs of multi-byte text around an escape) takes well under the
    /// budget; rescanning the rest of the line per character takes
    /// tens of seconds.
    #[test]
    fn a_one_mebibyte_string_parses_in_linear_time() {
        let half = "é😀x".repeat((1 << 20) / 14);
        let line = format!(r#"{{"a":"{half}\n{half}"}}"#);
        let start = std::time::Instant::now();
        let v = parse(&line).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(v.get("a").and_then(Json::as_str), Some(format!("{half}\n{half}").as_str()));
        assert!(elapsed < std::time::Duration::from_secs(1), "{elapsed:?}");
    }

    #[test]
    fn duplicate_keys_keep_the_last_value() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(2.0));
    }
}
