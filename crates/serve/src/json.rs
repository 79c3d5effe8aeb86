//! A minimal JSON value model: encode and parse, no dependencies.
//!
//! The whole workspace builds offline, so the service speaks JSON through
//! this hand-rolled module instead of serde. Design points:
//!
//! * Objects are **ordered** (`Vec<(String, Json)>`): encoding is
//!   deterministic, which is what lets the integration tests compare a
//!   served sweep result against the in-process one *bit-for-bit*.
//! * Integers and floats are separate variants so `u64` counters render
//!   exactly and floats render with a decimal point (`"29.0"`, not
//!   `"29"`), keeping `parse(encode(v)) == v`.
//! * The parser is a plain recursive-descent over bytes with a depth
//!   limit; malformed input yields an error with a byte offset, never a
//!   panic.
//!
//! # Examples
//!
//! ```
//! use jouppi_serve::json::Json;
//!
//! let v = Json::obj([("ok", Json::Bool(true)), ("n", Json::Int(3))]);
//! assert_eq!(v.encode(), r#"{"ok":true,"n":3}"#);
//! assert_eq!(Json::parse(&v.encode()).unwrap(), v);
//! ```

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without a fractional part or exponent.
    Int(i64),
    /// Any other number. Non-finite values encode as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved by encode.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload (also accepts integral floats).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the float arm is integral and below 9e15 in magnitude, exact in i64"
    )]
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(n) => Some(n),
            Json::Float(f) if f.fract() == 0.0 && f.abs() < 9e15 => Some(f as i64),
            _ => None,
        }
    }

    /// The numeric payload as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(n) => Some(n as f64),
            Json::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Encodes compactly (no whitespace).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Encodes compactly with every object's keys sorted (ties keep
    /// insertion order), recursively. Two documents that differ only in
    /// object key order produce identical canonical text, which is what
    /// the result cache hashes into content keys.
    pub fn encode_canonical(&self) -> String {
        match self {
            Json::Arr(items) => {
                let mut out = String::from("[");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&item.encode_canonical());
                }
                out.push(']');
                out
            }
            Json::Obj(pairs) => {
                let mut order: Vec<usize> = (0..pairs.len()).collect();
                order.sort_by(|&a, &b| pairs[a].0.cmp(&pairs[b].0));
                let mut out = String::from("{");
                for (n, &i) in order.iter().enumerate() {
                    if n > 0 {
                        out.push(',');
                    }
                    let (k, v) = &pairs[i];
                    write_string(&mut out, k);
                    out.push(':');
                    out.push_str(&v.encode_canonical());
                }
                out.push('}');
                out
            }
            scalar => scalar.encode(),
        }
    }

    /// Encodes with newlines and two-space indentation.
    pub fn encode_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Float(f) => write_float(out, *f),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Json::Obj(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i| {
                    let (k, v) = &pairs[i];
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                });
            }
        }
    }

    /// Parses a JSON document (one value plus trailing whitespace).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', step * depth));
    }
    out.push(close);
}

fn write_float(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
    } else if f == f.trunc() {
        // Force a decimal point so the value re-parses as a Float.
        // `{:.1}` prints an integral float's exact value at any
        // magnitude; `{}` would print a bare integer.
        out.push_str(&format!("{f:.1}"));
    } else {
        out.push_str(&format!("{f}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub msg: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Nesting beyond this depth is rejected (stack-overflow guard).
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            msg: msg.into(),
            offset: self.pos,
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

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("invalid literal (expected '{word}')")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "'['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "'{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "':'")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ if b < 0x20 => return Err(self.err("raw control character in string")),
                _ => {
                    // Consume the full UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated UTF-8 sequence"));
                    }
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.err("invalid UTF-8 in string")),
                    }
                    self.pos = end;
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        // Exactly four hex digits: `from_str_radix` would also take a sign.
        let hex4 = |p: &mut Self| -> Result<u32, JsonError> {
            let digits = p
                .bytes
                .get(p.pos..p.pos + 4)
                .ok_or_else(|| p.err("truncated \\u escape"))?;
            let mut v = 0;
            for &b in digits {
                let d = char::from(b)
                    .to_digit(16)
                    .ok_or_else(|| p.err("bad \\u escape"))?;
                v = v * 16 + d;
            }
            p.pos += 4;
            Ok(v)
        };
        let hi = hex4(self)?;
        // Surrogate pair?
        if (0xD800..0xDC00).contains(&hi) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = hex4(self)?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("bad surrogate pair"));
                }
            }
            return Err(self.err("lone surrogate in \\u escape"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("bad \\u escape"))
    }

    /// Scans RFC 8259's number grammar,
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, then
    /// converts the scanned text.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.err("expected a digit")),
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected a digit after '.'"));
            }
            fractional = true;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected a digit in the exponent"));
            }
            fractional = true;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-ASCII bytes in number".to_string()))?;
        if !fractional {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Json::Float(f)),
            _ => Err(self.err(format!("invalid number '{text}'"))),
        }
    }

    /// Consumes a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj([
            ("name", Json::str("sweep \"x\"\n")),
            ("count", Json::Int(-42)),
            ("rate", Json::Float(29.75)),
            ("whole", Json::Float(29.0)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "rows",
                Json::Arr(vec![
                    Json::Int(1),
                    Json::obj([("k", Json::str("v"))]),
                    Json::Arr(vec![]),
                ]),
            ),
        ])
    }

    #[test]
    fn round_trips_compact_and_pretty() {
        let v = sample();
        assert_eq!(Json::parse(&v.encode()).unwrap(), v);
        assert_eq!(Json::parse(&v.encode_pretty()).unwrap(), v);
    }

    #[test]
    fn integral_floats_keep_their_point() {
        assert_eq!(Json::Float(29.0).encode(), "29.0");
        assert_eq!(Json::Float(0.125).encode(), "0.125");
        assert_eq!(Json::Int(29).encode(), "29");
        assert_eq!(Json::Float(f64::NAN).encode(), "null");
        // Every finite integral float survives encode -> parse as a
        // Float, however large.
        for f in [29.0, 1e15, -4e15, 1.2345678901234568e17, f64::MAX] {
            let text = Json::Float(f).encode();
            assert!(text.ends_with(".0"), "{f}: {text}");
            assert_eq!(Json::parse(&text).unwrap(), Json::Float(f), "{text}");
        }
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::obj([("z", Json::Int(1)), ("a", Json::Int(2))]);
        assert_eq!(v.encode(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn canonical_encoding_sorts_keys_recursively() {
        let a = Json::parse(r#"{"z":1,"a":{"y":[{"b":2,"a":1}],"x":0}}"#).unwrap();
        let b = Json::parse(r#"{"a":{"x":0,"y":[{"a":1,"b":2}]},"z":1}"#).unwrap();
        assert_eq!(a.encode_canonical(), b.encode_canonical());
        assert_eq!(
            a.encode_canonical(),
            r#"{"a":{"x":0,"y":[{"a":1,"b":2}]},"z":1}"#
        );
        // Arrays keep their order: different orders stay distinct.
        let c = Json::parse(r#"{"a":[1,2]}"#).unwrap();
        let d = Json::parse(r#"{"a":[2,1]}"#).unwrap();
        assert_ne!(c.encode_canonical(), d.encode_canonical());
    }

    #[test]
    fn accessors() {
        let v = sample();
        assert_eq!(v.get("count").and_then(Json::as_i64), Some(-42));
        assert_eq!(v.get("whole").and_then(Json::as_i64), Some(29));
        assert_eq!(v.get("rate").and_then(Json::as_f64), Some(29.75));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("rows").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("k"), None);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Json::parse(r#""a\u00e9\n\t\"\\\u0041 \ud83d\ude00""#).unwrap();
        assert_eq!(v, Json::str("aé\n\t\"\\A 😀"));
        // Encoded control characters round-trip.
        let s = Json::str("\u{0001}bell\u{0007}");
        assert_eq!(Json::parse(&s.encode()).unwrap(), s);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "nul",
            "01x",
            "01",
            "-01",
            "00",
            "2.",
            "1.e5",
            "-.5",
            "-",
            "1e",
            "1e+",
            "1.2.3",
            "\"unterminated",
            "[1 2]",
            "{\"a\":1,}",
            "\"\\q\"",
            "\"\\ud800\"",
            "\"\\u+041\"",
            "\"\\u+0041\"",
            "\"\\u-041\"",
            "\"\\u004\"",
            "\"\\ud83d\\u+e00\"",
            "1e999",
            "{\"a\":1} extra",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(30) + &"]".repeat(30);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn numbers_classify_as_int_or_float() {
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("42.5").unwrap(), Json::Float(42.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        // Beyond i64: falls back to float.
        assert_eq!(
            Json::parse("99999999999999999999").unwrap(),
            Json::Float(1e20)
        );
    }
}
