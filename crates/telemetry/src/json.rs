//! The workspace's one JSON codec, hand-rolled on `std` because the build
//! environment cannot fetch `serde_json`.
//!
//! Every file that passes between runs and tools goes through it: cache
//! snapshots, batch job specs and reports, flight dumps, traces and run
//! reports. It has four parts:
//!
//! - [`Parser`], a streaming tokenizer. Format readers that want to skip
//!   unknown keys without building a tree (snapshots, job specs) drive it
//!   directly.
//! - [`Value`], a tree built on the tokenizer ([`parse`], [`Parser::value`]).
//!   Numbers keep their source text, so `u64`, `i64` and `f64` values
//!   re-read exactly.
//! - [`escape`], the one string escaper every writer uses.
//! - [`flatten`], which turns a document into the `path -> number` map that
//!   [`crate::attribute`] diffs.
//!
//! Strings decode the full RFC 8259 escape set. Raw control characters
//! inside strings are accepted too, so files written before [`escape`]
//! covered them still load.
//!
//! # Examples
//!
//! ```
//! use isdc_telemetry::json::{self, Parser};
//!
//! let mut points = Vec::new();
//! let spec = r#"{"name": "crc32", "points": [2500, 3000]}"#;
//! Parser::new(spec)
//!     .object(|p, key| match key.as_str() {
//!         "points" => p.array(Parser::number).map(|list| points = list),
//!         _ => p.skip_value(),
//!     })
//!     .unwrap();
//! assert_eq!(points, [2500.0, 3000.0]);
//!
//! let doc = json::parse(r#"{"design": "a\tb", "rows": [{"name": "solve", "ns": 7}]}"#).unwrap();
//! assert_eq!(doc["design"].as_str(), Some("a\tb"));
//! assert_eq!(json::flatten(&doc).get("rows/solve/ns"), Some(&7.0));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A cursor over JSON text. All methods skip leading whitespace.
pub struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    /// A parser positioned at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self { bytes: text.as_bytes(), at: 0 }
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(|b| b.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    /// Consumes exactly the byte `b`, or reports the offset of whatever is
    /// there instead.
    pub fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.at))
        }
    }

    /// The next non-whitespace byte, without consuming it — lets callers
    /// dispatch on a value's type (`{`, `[`, `"`, `t`/`f`, digit).
    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.at).copied()
    }

    /// After a value: `,` continues (true), `close` ends (false), and
    /// anything else is an error naming its byte offset.
    fn comma_or_close(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(b',') => {
                self.at += 1;
                Ok(true)
            }
            Some(&b) if b == close => {
                self.at += 1;
                Ok(false)
            }
            _ => Err(format!("expected `,` or `{}` at byte {}", close as char, self.at)),
        }
    }

    /// Parses a quoted string, decoding `\" \\ \/ \b \f \n \r \t \uXXXX`
    /// (surrogate pairs combine; a lone surrogate becomes U+FFFD).
    /// Unterminated strings and unknown or truncated escapes are errors.
    pub fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out: Vec<u8> = Vec::new();
        while let Some(&b) = self.bytes.get(self.at) {
            self.at += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self.bytes.get(self.at).ok_or("unterminated escape sequence")?;
                    self.at += 1;
                    let decoded = match esc {
                        b'"' | b'\\' | b'/' => esc as char,
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        other => {
                            return Err(format!(
                                "unsupported escape `\\{}` at byte {}",
                                other as char, self.at
                            ));
                        }
                    };
                    out.extend_from_slice(decoded.encode_utf8(&mut [0; 4]).as_bytes());
                }
                other => out.push(other),
            }
        }
        Err("unterminated string".to_string())
    }

    /// The code point of a `\uXXXX` escape whose `\u` was just consumed,
    /// joining a UTF-16 surrogate pair when a low half follows.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let high = self.hex4()?;
        if (0xD800..0xDC00).contains(&high) && self.bytes[self.at..].starts_with(b"\\u") {
            let rewind = self.at;
            self.at += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            self.at = rewind;
        }
        Ok(char::from_u32(high).unwrap_or('\u{fffd}'))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .bytes
            .get(self.at..self.at + 4)
            .and_then(|hex| {
                hex.iter().try_fold(0, |code, &b| Some(code * 16 + (b as char).to_digit(16)?))
            })
            .ok_or_else(|| format!("bad `\\u` escape at byte {}", self.at))?;
        self.at += 4;
        Ok(code)
    }

    /// The source text of a finite number, validated.
    fn number_text(&mut self) -> Result<&'a str, String> {
        self.skip_ws();
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .filter(|s| s.parse::<f64>().is_ok())
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    /// Parses a number; anything `f64::from_str` rejects is an error.
    pub fn number(&mut self) -> Result<f64, String> {
        self.number_text().map(|s| s.parse().expect("validated by number_text"))
    }

    /// Consumes `word` if it comes next.
    fn literal(&mut self, word: &str) -> bool {
        self.skip_ws();
        let found = self.bytes[self.at..].starts_with(word.as_bytes());
        if found {
            self.at += word.len();
        }
        found
    }

    /// Parses any value into a [`Value`] tree, or reports the first
    /// malformed construct with its byte offset.
    pub fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(|p, key| Ok((key, p.value()?))).map(Value::Object),
            Some(b'[') => self.array(Self::value).map(Value::Array),
            Some(b'"') => self.string().map(Value::String),
            Some(b't' | b'f' | b'n') => {
                [("true", Value::Bool(true)), ("false", Value::Bool(false)), ("null", Value::Null)]
                    .into_iter()
                    .find(|(word, _)| self.literal(word))
                    .map(|(_, value)| value)
                    .ok_or_else(|| format!("bad literal at byte {}", self.at))
            }
            Some(_) => self.number_text().map(|s| Value::Number(s.to_string())),
            None => Err(format!("unexpected end of input at byte {}", self.at)),
        }
    }

    /// Parses an object, calling `field` with each key to parse that key's
    /// value (or [`Parser::skip_value`] it), and collects what it returns.
    /// Stops at `field`'s first error or the first malformed construct.
    pub fn object<T>(
        &mut self,
        mut field: impl FnMut(&mut Self, String) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        let mut more = !self.literal("}");
        while more {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push(field(self, key)?);
            more = self.comma_or_close(b'}')?;
        }
        Ok(fields)
    }

    /// Parses an array, calling `item` to parse each element, and collects
    /// what it returns. Stops at `item`'s first error or the first
    /// malformed construct.
    pub fn array<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        let mut more = !self.literal("]");
        while more {
            items.push(item(self)?);
            more = self.comma_or_close(b']')?;
        }
        Ok(items)
    }

    /// Skips any value (used for unknown keys), checking it is well formed.
    pub fn skip_value(&mut self) -> Result<(), String> {
        self.value().map(drop)
    }
}

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A finite number, as its source text: integers beyond 2^53 and the
    /// integer/float distinction survive a re-read.
    Number(String),
    /// A decoded string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's fields in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Parses a complete document, as [`parse`].
    pub fn parse(text: &str) -> Result<Value, String> {
        parse(text)
    }

    /// The number as an `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as a `u64`, if this is a non-negative integer literal.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The string's contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Object field lookup. A missing key, or indexing a non-object, yields
/// [`Value::Null`]. Duplicate keys resolve to the last one, as in most
/// JSON readers.
impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        match self {
            Value::Object(fields) => {
                fields.iter().rev().find(|(k, _)| k == key).map_or(&NULL, |(_, v)| v)
            }
            _ => &NULL,
        }
    }
}

/// Parses `text` as exactly one JSON value. Malformed input and bytes
/// after the value are errors naming their byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser::new(text);
    let value = p.value()?;
    match p.peek() {
        None => Ok(value),
        Some(_) => Err(format!("trailing bytes at byte {}", p.at)),
    }
}

/// Escapes `s` for use inside a JSON string literal: `"` and `\`, plus
/// every control character (`\n`, `\r`, `\t` by name, the rest as
/// `\u00XX`). Everything else, including non-ASCII, passes through.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Flattens a document into a `path -> number` map, the shape
/// [`crate::attribute`] diffs. Paths join object keys and array positions
/// with `/`. An array row that is an object with a string `"name"` uses
/// that name instead of its index, so per-design or per-stage rows
/// (`designs/crc32/warm_ns`, `stages/solve/ns`) stay aligned when their
/// order changes between documents. Strings, booleans and nulls are
/// dropped.
pub fn flatten(value: &Value) -> BTreeMap<String, f64> {
    fn walk(value: &Value, path: &str, out: &mut BTreeMap<String, f64>) {
        let join = |segment: &str| {
            if path.is_empty() {
                segment.to_string()
            } else {
                format!("{path}/{segment}")
            }
        };
        match value {
            Value::Number(_) => {
                out.insert(path.to_string(), value.as_f64().unwrap_or(f64::NAN));
            }
            Value::Object(fields) => {
                for (key, child) in fields {
                    walk(child, &join(key), out);
                }
            }
            Value::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    let segment =
                        item["name"].as_str().map_or_else(|| i.to_string(), str::to_string);
                    walk(item, &join(&segment), out);
                }
            }
            Value::Null | Value::Bool(_) | Value::String(_) => {}
        }
    }
    let mut out = BTreeMap::new();
    walk(value, "", &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn booleans_parse() {
        let mut p = Parser::new(" true , false ,tru");
        assert_eq!(p.value(), Ok(Value::Bool(true)));
        p.expect(b',').unwrap();
        assert_eq!(p.value(), Ok(Value::Bool(false)));
        p.expect(b',').unwrap();
        assert!(p.value().is_err());
    }

    #[test]
    fn skip_value_covers_booleans_and_null() {
        let mut p = Parser::new(r#"{"flag": true, "hole": null, "keep": 7}"#);
        p.expect(b'{').unwrap();
        for expected in ["flag", "hole"] {
            assert_eq!(p.string().unwrap(), expected);
            p.expect(b':').unwrap();
            p.skip_value().unwrap();
            assert!(p.comma_or_close(b'}').unwrap());
        }
        assert_eq!(p.string().unwrap(), "keep");
        p.expect(b':').unwrap();
        assert_eq!(p.number().unwrap(), 7.0);
    }

    #[test]
    fn strings_decode_every_rfc8259_escape() {
        let text = r#""q\" b\\ s\/ \b\f\n\r\t \u0063rc é \ud83e\udd80 \ud800x""#;
        let decoded = "q\" b\\ s/ \u{8}\u{c}\n\r\t crc é 🦀 \u{fffd}x";
        assert_eq!(Parser::new(text).string().unwrap(), decoded);
        // Raw control characters from older writers still load.
        assert_eq!(Parser::new("\"a\nb\"").string().unwrap(), "a\nb");
        for bad in [r#""\x""#, r#""\u12""#, r#""\u+041""#, r#""open"#] {
            assert!(Parser::new(bad).string().is_err(), "{bad}");
        }
        // The escaper names the common controls and hex-escapes the rest.
        assert_eq!(escape("a\"b\\c/d"), "a\\\"b\\\\c/d");
        assert_eq!(escape("l1\nl2\r\tx\u{1}\u{1f}é"), "l1\\nl2\\r\\tx\\u0001\\u001fé");
    }

    #[test]
    fn parse_keeps_number_text_and_rejects_trailing_bytes() {
        let doc =
            parse(r#" {"big": 18446744073709551615, "neg": -3, "x": 2.50, "ok": true} "#).unwrap();
        assert_eq!(doc["big"].as_u64(), Some(u64::MAX));
        assert_eq!(doc["neg"], Value::Number("-3".into()));
        assert_eq!(doc["x"].as_f64(), Some(2.5));
        assert_eq!(doc["ok"], Value::Bool(true));
        assert_eq!(doc["missing"], Value::Null);
        assert_eq!(doc["x"]["nested"], Value::Null);
        for bad in ["{} x", "[1,]", "{\"a\" 1}", "", "nan"] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn flatten_keys_arrays_by_row_name() {
        // A BENCH document: per-design rows keyed by name, unnamed rows by
        // index.
        let bench = parse(
            r#"{"mode": "quick",
                "designs": [
                  {"name": "crc32", "speedup": 4.0, "pruning_ratio": 0.9, "warm_ns": 500.0},
                  {"name": "sha256", "speedup": 3.0, "warm_ns": 1000.0}
                ],
                "drain": [{"n": 64, "speedup": 2.0, "dijkstras_batched": 3, "paths": 9}]}"#,
        )
        .unwrap();
        let flat = flatten(&bench);
        assert_eq!(flat.get("designs/crc32/warm_ns"), Some(&500.0));
        assert_eq!(flat.get("designs/sha256/speedup"), Some(&3.0));
        assert_eq!(flat.get("drain/0/paths"), Some(&9.0), "unnamed rows fall back to indices");
        assert!(!flat.contains_key("mode"), "strings are dropped");

        // A run report: stage rows keyed by name, counters as nested keys.
        let report = parse(
            r#"{"kind": "isdc_report", "total_ns": 900,
                "stages": [{"name": "solve", "ns": 700}, {"name": "extract", "ns": 200}],
                "counters": {"stage/solve/ns": 700}}"#,
        )
        .unwrap();
        let flat = flatten(&report);
        assert_eq!(flat.get("stages/solve/ns"), Some(&700.0));
        assert_eq!(flat.get("stages/extract/ns"), Some(&200.0));
        assert_eq!(flat.get("counters/stage/solve/ns"), Some(&700.0));
        assert_eq!(flat.get("total_ns"), Some(&900.0));
    }
}
