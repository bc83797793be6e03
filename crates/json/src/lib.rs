//! Minimal self-contained JSON support for the pospec workspace.
//!
//! This crate is the wire codec of `pospec serve` (newline-delimited
//! JSON over TCP) and `pospec lsp` (JSON-RPC bodies), and it also writes
//! report rows (`paper_report.json`) and JSON-lines trace files.  It
//! offers a value model with *insertion-ordered* objects (so written
//! field order matches struct declaration order, as derived serde
//! serialisers produce), a compact writer, a pretty writer, and a strict
//! parser — nothing else, and no derive machinery.
//!
//! Two properties matter on the wire:
//!
//! * decoding is linear in the input size: string bodies are copied a
//!   run at a time up to the next `"` or `\`;
//! * [`Value::write_line`] renders a whole record first and hands it to
//!   the writer with a single `write_all`, so an unbuffered socket is
//!   not written once per token and per string character.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// An ordered JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// All JSON numbers; integers up to 2^53 round-trip exactly.
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Insertion-ordered object.
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Field lookup on an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Compact one-line rendering (no spaces), `serde_json::to_string` style.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation,
    /// `serde_json::to_string_pretty` style.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    /// Write the compact rendering plus a trailing `\n` — one record of
    /// a JSON-lines stream (the wire format of `pospec-serve` and the
    /// trace files) — with a single `write_all`.
    pub fn write_line<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        let mut line = self.to_compact();
        line.push('\n');
        w.write_all(line.as_bytes())
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_number(out, *n),
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => write_seq(out, indent, level, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, level + 1)
            }),
            Value::Obj(fields) => {
                write_seq(out, indent, level, '{', '}', fields.len(), |out, i| {
                    let (k, v) = &fields[i];
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1)
                })
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
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
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (level + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * level));
    }
    out.push(close);
}

/// Write `n` so that writing, parsing, and writing again is
/// byte-identical (needed for same-request byte-identical responses):
///
/// * non-finite values have no JSON form and render as `null`;
/// * `-0.0` is normalised to `0` (it compares equal to `0.0`, but the
///   `i64` cast used by the integer path would print plain `0` while a
///   sign-preserving shortest form would print `-0` — pick one);
/// * whole numbers of magnitude below 2^53 print as integers;
/// * everything else uses Rust's shortest round-trip `Display`, whose
///   output `str::parse::<f64>` maps back to the identical bits.
fn write_number(out: &mut String, n: f64) {
    // Writing into a `String` cannot fail, so the `fmt::Result`s are moot.
    if !n.is_finite() {
        out.push_str("null");
    } else if n == 0.0 {
        // Covers +0.0 and -0.0 uniformly.
        out.push('0');
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse failure with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub pos: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parse a complete JSON document (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser { src: input, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { pos: self.pos, message: message.to_string() }
    }

    fn rest(&self) -> &[u8] {
        &self.src.as_bytes()[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.rest().first().copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.rest().starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// A string literal.  The input is a `&str`, and `"` and `\` are
    /// ASCII, so every run between them is valid UTF-8 that is copied
    /// with one `push_str`: the work is linear in the literal's length.
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(run) = self.rest().iter().position(|b| matches!(b, b'"' | b'\\')) else {
                self.pos = self.src.len();
                return Err(self.err("unterminated string"));
            };
            s.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(s);
            }
            self.pos += 1;
            let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
            self.pos += 1;
            match esc {
                b'"' => s.push('"'),
                b'\\' => s.push('\\'),
                b'/' => s.push('/'),
                b'b' => s.push('\u{08}'),
                b'f' => s.push('\u{0C}'),
                b'n' => s.push('\n'),
                b'r' => s.push('\r'),
                b't' => s.push('\t'),
                b'u' => {
                    let code = self.hex4()?;
                    s.push(self.unicode_scalar(code).unwrap_or('\u{FFFD}'));
                }
                _ => return Err(self.err("unknown escape")),
            }
        }
    }

    /// Resolve the code unit of a `\uXXXX` escape to a scalar.  A high
    /// surrogate followed by a `\u` low surrogate combines with it into
    /// one non-BMP scalar; an unpaired half yields `None` (the caller
    /// substitutes U+FFFD) and leaves any following escape unread.
    fn unicode_scalar(&mut self, code: u32) -> Option<char> {
        if (0xD800..0xDC00).contains(&code) && self.rest().starts_with(b"\\u") {
            let high = self.pos;
            self.pos += 2;
            match self.hex4() {
                Ok(low @ 0xDC00..0xE000) => {
                    return char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00));
                }
                _ => self.pos = high,
            }
        }
        char::from_u32(code)
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let code = self
            .src
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.src[start..self.pos];
        text.parse::<f64>().map(Value::Num).map_err(|_| self.err("invalid number"))
    }
}

/// Convenience constructors used by hand-written serialisers.
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Num(n as f64)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(items: &[T]) -> Self {
        Value::Arr(items.iter().cloned().map(Into::into).collect())
    }
}

impl From<BTreeMap<String, Value>> for Value {
    fn from(map: BTreeMap<String, Value>) -> Self {
        Value::Obj(map.into_iter().collect())
    }
}

/// Builder for insertion-ordered objects.
#[derive(Debug, Default, Clone)]
pub struct ObjBuilder {
    fields: Vec<(String, Value)>,
}

impl ObjBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Add the field only when `value` is `Some`, mirroring
    /// `#[serde(skip_serializing_if = "Option::is_none")]`.
    pub fn field_opt(self, key: &str, value: Option<impl Into<Value>>) -> Self {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    pub fn build(self) -> Value {
        Value::Obj(self.fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_matches_serde_json_shape() {
        let v = ObjBuilder::new()
            .field("caller", "c")
            .field("n", 3u64)
            .field("ok", true)
            .field("xs", Value::Arr(vec![Value::Num(1.0), Value::Null]))
            .build();
        assert_eq!(v.to_compact(), r#"{"caller":"c","n":3,"ok":true,"xs":[1,null]}"#);
    }

    #[test]
    fn pretty_is_two_space_indented() {
        let v = ObjBuilder::new().field("a", 1u64).field("b", Value::Arr(vec![])).build();
        assert_eq!(v.to_pretty(), "{\n  \"a\": 1,\n  \"b\": []\n}");
    }

    #[test]
    fn roundtrip_through_parser() {
        let v = ObjBuilder::new()
            .field("name", "Γ‖∆ \"quoted\"\nline")
            .field("pi", 3.25)
            .field("neg", Value::Num(-17.0))
            .field("list", Value::Arr(vec![Value::Bool(false), Value::Str("x".into())]))
            .build();
        assert_eq!(parse(&v.to_compact()).unwrap(), v);
        assert_eq!(parse(&v.to_pretty()).unwrap(), v);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn numbers_roundtrip() {
        for s in ["0", "-5", "3.5", "1e3", "123456789012"] {
            let v = parse(s).unwrap();
            assert_eq!(parse(&v.to_compact()).unwrap(), v);
        }
        assert_eq!(parse("1e3").unwrap(), Value::Num(1000.0));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(r#""A\t""#).unwrap(), Value::Str("A\t".into()));
    }

    /// write ∘ parse must be the identity on written output: the service
    /// relies on repeated identical requests producing byte-identical
    /// response lines.
    #[test]
    fn number_formatting_is_byte_stable() {
        let tricky = [
            0.0,
            -0.0,
            1.0,
            -5.0,
            0.1,
            0.1 + 0.2, // 0.30000000000000004
            1.0 / 3.0,
            std::f64::consts::PI,
            1e-7,
            5e-324,       // smallest subnormal
            f64::MAX,     // ~1.8e308
            9.0e15 - 1.0, // top of the i64 fast path
            9.0e15,       // first value past it
            1e20,
            123456789012345.7,
            -2.2250738585072014e-308,
        ];
        for n in tricky {
            let first = Value::Num(n).to_compact();
            let reparsed = parse(&first).unwrap();
            let second = reparsed.to_compact();
            assert_eq!(first, second, "unstable rendering for {n:?}");
            // And the parsed value is bit-identical (modulo -0 normalising).
            match reparsed {
                Value::Num(m) => assert!(m == n, "value drift for {n:?}: got {m:?}"),
                other => panic!("number reparsed as {other:?}"),
            }
        }
        // Non-finite numbers degrade to null (no JSON form).
        assert_eq!(Value::Num(f64::NAN).to_compact(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_compact(), "null");
        // Negative zero normalises to plain 0.
        assert_eq!(Value::Num(-0.0).to_compact(), "0");
    }

    #[test]
    fn surrogate_pairs_combine_and_unpaired_halves_become_replacement() {
        // U+1F980 escaped as a UTF-16 pair decodes to the one scalar.
        assert_eq!(parse(r#""\uD83E\uDD80""#).unwrap(), Value::Str("🦀".into()));
        assert_eq!(parse(r#""a\ud83e\udd80b""#).unwrap(), Value::Str("a🦀b".into()));
        // Unpaired halves keep U+FFFD, and whatever follows is read as usual.
        assert_eq!(parse(r#""\uD83Ex""#).unwrap(), Value::Str("\u{FFFD}x".into()));
        assert_eq!(parse(r#""\uDD80\uD83E""#).unwrap(), Value::Str("\u{FFFD}\u{FFFD}".into()));
        assert_eq!(parse(r#""\uD83E\u0041""#).unwrap(), Value::Str("\u{FFFD}A".into()));
        assert_eq!(parse(r#""\uD83E\uD83E\uDD80""#).unwrap(), Value::Str("\u{FFFD}🦀".into()));
        // A malformed escape after a high half is still an error.
        assert!(parse(r#""\uD83E\uZZZZ""#).is_err());
        assert!(parse(r#""\u+041""#).is_err());
    }

    #[test]
    fn write_line_matches_to_compact_plus_newline() {
        let v = ObjBuilder::new()
            .field("name", "Γ‖∆")
            .field("xs", Value::Arr(vec![Value::Num(1.5), Value::Null]))
            .build();
        let mut line = Vec::new();
        v.write_line(&mut line).unwrap();
        assert_eq!(String::from_utf8(line).unwrap(), v.to_compact() + "\n");
    }

    #[test]
    fn write_line_surfaces_io_errors() {
        struct Broken;
        impl std::io::Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = Value::Bool(true).write_line(&mut Broken).unwrap_err();
        assert!(err.to_string().contains("disk on fire"));
    }
}
