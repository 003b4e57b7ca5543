//! Minimal JSON writer + parser (std only).
//!
//! The writer builds one-line objects for the JSON-lines trace sink and
//! the run reports; the parser exists so tests (and downstream tools)
//! can validate emitted documents without pulling a serialization stack
//! into the workspace's base crate.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape `s` into `out` per RFC 8259.
pub fn escape_into(s: &str, out: &mut String) {
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
}

/// Render an f64 as a JSON number. JSON has no NaN/Infinity; those map
/// to `null` (the parser reads them back as [`Value::Null`]).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // Rust's shortest-roundtrip Display for floats is valid JSON
        // except for the bare-exponent cases it never produces.
        let mut s = format!("{v}");
        if !s.contains('.') && !s.contains('e') && !s.contains("inf") {
            // Keep integral floats distinguishable as numbers ("1.0"
            // rather than "1") for schema stability.
            s.push_str(".0");
        }
        s
    } else {
        "null".to_string()
    }
}

/// Incremental single-line JSON object builder.
///
/// ```
/// use telemetry::json::JsonObject;
/// let mut o = JsonObject::new();
/// o.str("type", "span").u64("dur_ns", 125).bool("ok", true);
/// assert_eq!(o.finish(), r#"{"type":"span","dur_ns":125,"ok":true}"#);
/// ```
#[derive(Debug, Clone)]
pub struct JsonObject {
    buf: String,
    empty: bool,
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObject {
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            empty: true,
        }
    }

    fn key(&mut self, k: &str) -> &mut Self {
        if !self.empty {
            self.buf.push(',');
        }
        self.empty = false;
        self.buf.push('"');
        escape_into(k, &mut self.buf);
        self.buf.push_str("\":");
        self
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.buf.push('"');
        escape_into(v, &mut self.buf);
        self.buf.push('"');
        self
    }

    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    pub fn i64(&mut self, k: &str, v: i64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        self.buf.push_str(&number(v));
        self
    }

    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Insert a pre-rendered JSON value (object, array, …) verbatim.
    pub fn raw(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    pub fn finish(&self) -> String {
        let mut s = self.buf.clone();
        s.push('}');
        s
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
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

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Maximum container nesting the parser accepts. The parser recurses
/// once per `{`/`[` level, so without a bound a hostile document of a
/// few hundred kilobytes of `[` would overflow the stack of whatever
/// thread called [`parse`] — in a daemon, a remote crash. Deeper input
/// returns an error instead. Our own trace lines nest three levels.
pub const MAX_PARSE_DEPTH: usize = 64;

/// Parse one JSON document. Strict on structure, permissive on nothing —
/// trailing garbage is an error, so a JSON-lines line must be exactly
/// one value. Containers nested deeper than [`MAX_PARSE_DEPTH`] are
/// rejected (an error, never a stack overflow).
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        b: input.as_bytes(),
        i: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", c as char, self.i))
        }
    }

    fn lit(&mut self, s: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(s.as_bytes()) {
            self.i += s.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.i)),
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_PARSE_DEPTH} levels at offset {}",
                self.i
            ));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        self.enter()?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            self.depth -= 1;
            return Ok(Value::Obj(m));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            m.insert(k, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(m));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        self.enter()?;
        let mut a = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            self.depth -= 1;
            return Ok(Value::Arr(a));
        }
        loop {
            self.skip_ws();
            a.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(a));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let c = match self.peek() {
                        Some(b'"') => {
                            self.i += 1;
                            '"'
                        }
                        Some(b'\\') => {
                            self.i += 1;
                            '\\'
                        }
                        Some(b'/') => {
                            self.i += 1;
                            '/'
                        }
                        Some(b'n') => {
                            self.i += 1;
                            '\n'
                        }
                        Some(b'r') => {
                            self.i += 1;
                            '\r'
                        }
                        Some(b't') => {
                            self.i += 1;
                            '\t'
                        }
                        Some(b'b') => {
                            self.i += 1;
                            '\u{8}'
                        }
                        Some(b'f') => {
                            self.i += 1;
                            '\u{c}'
                        }
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            match cp {
                                // High surrogate: a low surrogate escape
                                // must follow; combine per RFC 8259 §7.
                                0xD800..=0xDBFF => {
                                    if self.peek() != Some(b'\\') {
                                        return Err("unpaired high surrogate".into());
                                    }
                                    self.i += 1;
                                    if self.peek() != Some(b'u') {
                                        return Err("unpaired high surrogate".into());
                                    }
                                    let lo = self.hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&lo) {
                                        return Err("unpaired high surrogate".into());
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| "bad surrogate pair".to_string())?
                                }
                                0xDC00..=0xDFFF => {
                                    return Err("unpaired low surrogate".into());
                                }
                                _ => char::from_u32(cp)
                                    .ok_or_else(|| "bad \\u escape".to_string())?,
                            }
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    };
                    s.push(c);
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so this
                    // slice boundary logic is safe).
                    let rest = &self.b[self.i..];
                    let st = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = st.chars().next().unwrap();
                    s.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    /// Consume `u` plus four hex digits (the tail of a `\uXXXX` escape;
    /// the caller has already consumed the backslash and seen the `u`).
    fn hex4(&mut self) -> Result<u32, String> {
        debug_assert_eq!(self.peek(), Some(b'u'));
        if self.i + 5 > self.b.len() {
            return Err("bad \\u escape".into());
        }
        let hex = std::str::from_utf8(&self.b[self.i + 1..self.i + 5])
            .map_err(|_| "bad \\u escape".to_string())?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.i += 5;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number '{text}': {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_orders_fields() {
        let mut o = JsonObject::new();
        o.str("name", "walk \"tree\"\n")
            .u64("count", 42)
            .f64("seconds", 0.25)
            .bool("rebuilt", false)
            .i64("delta", -3);
        let s = o.finish();
        assert_eq!(
            s,
            r#"{"name":"walk \"tree\"\n","count":42,"seconds":0.25,"rebuilt":false,"delta":-3}"#
        );
    }

    #[test]
    fn writer_output_roundtrips_through_parser() {
        let mut inner = JsonObject::new();
        inner.f64("walk tree", 1.5e-3).f64("calc node", 2.0);
        let mut o = JsonObject::new();
        o.str("type", "step")
            .u64("step", 7)
            .raw("modeled_s", &inner.finish());
        let v = parse(&o.finish()).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("step"));
        assert_eq!(v.get("step").unwrap().as_u64(), Some(7));
        let m = v.get("modeled_s").unwrap();
        assert_eq!(m.get("walk tree").unwrap().as_f64(), Some(1.5e-3));
    }

    #[test]
    fn parser_accepts_standard_documents() {
        let v = parse(r#"{"a":[1,2.5,-3e2,true,null],"b":{"c":"d"}}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a.len(), 5);
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("d"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse(r#"{"a":1} trailing"#).is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn nonfinite_numbers_become_null() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(2.0), "2.0");
        let mut o = JsonObject::new();
        o.f64("x", f64::NAN);
        assert_eq!(parse(&o.finish()).unwrap().get("x").unwrap(), &Value::Null);
    }

    #[test]
    fn unicode_and_control_escapes() {
        let mut o = JsonObject::new();
        o.str("s", "αβ\u{1}");
        let v = parse(&o.finish()).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("αβ\u{1}"));
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_rejected() {
        // \uD83D\uDE00 is the surrogate-pair encoding of U+1F600 (😀).
        let v = parse(r#"{"s":"\uD83D\uDE00!"}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("\u{1F600}!"));
        // Raw (non-escaped) astral characters pass through unchanged.
        let raw = parse("{\"s\":\"\u{1F600}\"}").unwrap();
        assert_eq!(raw.get("s").unwrap().as_str(), Some("\u{1F600}"));
        assert!(parse(r#""\uD83D""#).is_err(), "lone high surrogate");
        assert!(parse(r#""\uDE00""#).is_err(), "lone low surrogate");
        assert!(parse(r#""\uD83Dx""#).is_err(), "high surrogate + literal");
        assert!(parse(r#""\uD83D\n""#).is_err(), "high surrogate + escape");
        assert!(parse(r#""\uD83D\uD83D""#).is_err(), "two high surrogates");
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // One level inside the limit parses; one past it errors.
        let ok = format!(
            "{}1{}",
            "[".repeat(MAX_PARSE_DEPTH),
            "]".repeat(MAX_PARSE_DEPTH)
        );
        assert!(parse(&ok).is_ok());
        let deep = format!("{}1{}", "[".repeat(200_000), "]".repeat(200_000));
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // Mixed object/array nesting counts levels the same way.
        let mixed = "[{\"k\":".repeat(60_000) + "1" + &"}]".repeat(60_000);
        assert!(parse(&mixed).unwrap_err().contains("nesting"));
    }
}
