//! Hand-rolled, size-bounded JSON codec for the daemon protocol.
//!
//! The workspace's vendored `serde` is an API-surface stub (see
//! `compat/README.md`), so the daemon carries its own recursive-descent
//! parser — in the style of the bench suite's record checker, but hardened
//! for untrusted input: every dimension an attacker controls is capped
//! *during* parsing (nesting depth, per-collection entry counts through the
//! [`bounded`](crate::bounded) wrappers, string byte length), so an
//! oversized request fails with a typed [`JsonError`] after bounded work
//! and bounded allocation, never after materializing the attacker's
//! payload.
//!
//! The writer is the inverse: it renders numbers with Rust's
//! shortest-round-trip `f64` formatting, so a value parsed back from a
//! response is bit-for-bit the value the engine produced — the property the
//! daemon's bitwise-equality tests (`daemon.rs`) build on.

use std::collections::BTreeMap;
use std::fmt;

use crate::bounded::{BoundedBTreeMap, BoundedVec, SizeLimitExceeded};

/// Limits applied while parsing one JSON document.
#[derive(Debug, Clone, Copy)]
pub struct DecodeLimits {
    /// Maximum nesting depth of arrays/objects.
    pub max_depth: usize,
    /// Maximum entries in any single array or object.
    pub max_collection_entries: usize,
    /// Maximum bytes in any single string literal (after unescaping).
    pub max_string_bytes: usize,
}

impl Default for DecodeLimits {
    fn default() -> Self {
        DecodeLimits {
            max_depth: 16,
            max_collection_entries: 4096,
            max_string_bytes: 1 << 20,
        }
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string literal.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object (keys sorted; duplicate keys keep the last value).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The object map, if this value is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(map) => Some(map),
            _ => None,
        }
    }

    /// The string slice, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this value is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The array slice, if this value is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Typed decoding failure; every variant maps to a protocol error kind.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// Malformed input (unexpected byte, truncated literal, trailing
    /// garbage, ...), with the byte offset where parsing failed.
    Syntax {
        /// Byte offset of the failure.
        at: usize,
        /// What went wrong.
        message: String,
    },
    /// Arrays/objects nested deeper than [`DecodeLimits::max_depth`].
    TooDeep {
        /// The configured depth cap.
        limit: usize,
    },
    /// A collection or string outgrew its cap.
    Oversized(SizeLimitExceeded),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { at, message } => write!(f, "syntax error at byte {at}: {message}"),
            JsonError::TooDeep { limit } => {
                write!(f, "nesting exceeds the depth limit of {limit}")
            }
            JsonError::Oversized(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<SizeLimitExceeded> for JsonError {
    fn from(e: SizeLimitExceeded) -> Self {
        JsonError::Oversized(e)
    }
}

/// Parses one complete JSON document under the given limits, rejecting
/// trailing non-whitespace.
///
/// # Errors
///
/// [`JsonError::Syntax`] on malformed input, [`JsonError::TooDeep`] /
/// [`JsonError::Oversized`] when a limit trips.
pub fn parse(input: &str, limits: &DecodeLimits) -> Result<JsonValue, JsonError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        limits,
    };
    parser.skip_ws();
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.syntax("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    limits: &'a DecodeLimits,
}

impl Parser<'_> {
    fn syntax(&self, message: impl Into<String>) -> JsonError {
        JsonError::Syntax {
            at: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.syntax(format!("expected `{}`", byte as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > self.limits.max_depth {
            return Err(JsonError::TooDeep {
                limit: self.limits.max_depth,
            });
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.syntax(format!("unexpected byte `{}`", other as char))),
            None => Err(self.syntax("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.syntax(format!("expected `{text}`")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII by construction");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.syntax(format!("malformed number `{text}`")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            if out.len() > self.limits.max_string_bytes {
                return Err(SizeLimitExceeded {
                    what: "string literal".to_string(),
                    limit: self.limits.max_string_bytes,
                }
                .into());
            }
            match self.peek() {
                None => return Err(self.syntax("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.syntax("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.syntax("malformed \\u escape"))?;
                            // Surrogates and other invalid scalars decode to
                            // the replacement character rather than failing:
                            // the daemon treats request text as opaque.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.syntax("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.syntax("invalid UTF-8"))?;
                    let ch = rest.chars().next().ok_or_else(|| self.syntax("empty"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = BoundedVec::new("array", self.limits.max_collection_entries);
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items.into_inner()));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items.into_inner()));
                }
                _ => return Err(self.syntax("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut entries = BoundedBTreeMap::new("object", self.limits.max_collection_entries);
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries.into_inner()));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            entries.insert(key, self.value(depth + 1)?)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries.into_inner()));
                }
                _ => return Err(self.syntax("expected `,` or `}` in object")),
            }
        }
    }
}

/// Renders a value as compact JSON.
///
/// Numbers use Rust's shortest-round-trip `f64` formatting (never exponent
/// notation, always re-parses to the identical bits); non-finite numbers
/// render as `null`, which JSON cannot represent.
pub fn write(value: &JsonValue) -> String {
    let mut out = String::new();
    write_into(value, &mut out);
    out
}

fn write_into(value: &JsonValue, out: &mut String) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(n) => {
            if n.is_finite() {
                out.push_str(&format!("{n}"));
            } else {
                out.push_str("null");
            }
        }
        JsonValue::String(s) => write_escaped(s, out),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_into(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(key, out);
                out.push(':');
                write_into(item, out);
            }
            out.push('}');
        }
    }
}

fn write_escaped(text: &str, out: &mut String) {
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> DecodeLimits {
        DecodeLimits::default()
    }

    #[test]
    fn round_trips_a_request_shape() {
        let source = r#"{"id":"r1","op":"predict","bindings":{"x":1.5,"y":-2e-3},"tags":[1,2,3],"flag":true,"none":null}"#;
        let value = parse(source, &limits()).unwrap();
        let rendered = write(&value);
        assert_eq!(parse(&rendered, &limits()).unwrap(), value);
    }

    #[test]
    fn number_round_trip_is_bitwise() {
        for &x in &[
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.234_567_890_123_456_7e-5,
            9.999e15,
        ] {
            let rendered = write(&JsonValue::Number(x));
            let back = parse(&rendered, &limits()).unwrap().as_f64().unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{x} -> {rendered}");
        }
    }

    #[test]
    fn nonfinite_numbers_render_as_null() {
        assert_eq!(write(&JsonValue::Number(f64::NAN)), "null");
        assert_eq!(write(&JsonValue::Number(f64::INFINITY)), "null");
    }

    #[test]
    fn depth_limit_trips_typed() {
        let mut nested = String::new();
        for _ in 0..40 {
            nested.push('[');
        }
        match parse(&nested, &limits()) {
            Err(JsonError::TooDeep { limit }) => assert_eq!(limit, limits().max_depth),
            other => panic!("expected TooDeep, got {other:?}"),
        }
    }

    #[test]
    fn collection_limit_trips_typed_at_limit_plus_one() {
        let tight = DecodeLimits {
            max_collection_entries: 4,
            ..DecodeLimits::default()
        };
        assert!(parse("[1,2,3,4]", &tight).is_ok());
        match parse("[1,2,3,4,5]", &tight) {
            Err(JsonError::Oversized(e)) => assert_eq!(e.limit, 4),
            other => panic!("expected Oversized, got {other:?}"),
        }
        // Objects share the cap.
        match parse(r#"{"a":1,"b":2,"c":3,"d":4,"e":5}"#, &tight) {
            Err(JsonError::Oversized(e)) => assert_eq!(e.what, "object"),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn string_limit_trips_typed() {
        let tight = DecodeLimits {
            max_string_bytes: 8,
            ..DecodeLimits::default()
        };
        assert!(parse(r#""12345678""#, &tight).is_ok());
        let long = format!("\"{}\"", "x".repeat(64));
        assert!(matches!(parse(&long, &tight), Err(JsonError::Oversized(_))));
    }

    #[test]
    fn truncated_documents_are_syntax_errors() {
        for source in [
            "{",
            "[1,2",
            r#"{"a""#,
            r#"{"a":"#,
            "\"unterminated",
            "tru",
            "1.2.3",
            "",
        ] {
            assert!(
                matches!(parse(source, &limits()), Err(JsonError::Syntax { .. })),
                "source: {source:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(matches!(
            parse("{} {}", &limits()),
            Err(JsonError::Syntax { .. })
        ));
    }

    #[test]
    fn escapes_round_trip() {
        let value = JsonValue::String("a\"b\\c\nd\u{1}e".to_string());
        let rendered = write(&value);
        assert_eq!(parse(&rendered, &limits()).unwrap(), value);
    }
}
