//! A hand-rolled JSON value type, serializer and parser for the
//! experiment sink (no external dependencies).
//!
//! Rendering is deterministic: object fields keep insertion order,
//! integers render exactly, and floats use Rust's shortest round-trip
//! `Display` (with non-finite values mapped to `null`), so the same
//! experiment produces byte-identical JSON lines on every run.
//!
//! [`Json::parse`] is the inverse used by `metaleak-analysis` to
//! ingest `.jsonl`/`.meta.json` artifacts: any value rendered by this
//! module parses back to an equal value (non-finite floats render as
//! `null` and therefore round-trip to [`Json::Null`] by design).

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (kept separate so `u64` counters round-trip).
    UInt(u64),
    /// A float; non-finite values render as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (field order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Object field lookup (first match; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one (or a
    /// non-negative signed integer).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as a float (integers widen losslessly where possible).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(f) => Some(*f),
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Float(f) => {
                if f.is_finite() {
                    // Keep a decimal point so the value parses back as
                    // a float even when it is integral.
                    let s = f.to_string();
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Why a JSON text failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the error in the input.
    pub at: usize,
    /// Human-readable description.
    pub what: &'static str,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonParseError {}

impl Json {
    /// Parses a JSON text into a [`Json`] value.
    ///
    /// Accepts exactly one top-level value with optional surrounding
    /// whitespace; trailing garbage is an error. Numbers without a
    /// fraction or exponent become [`Json::UInt`]/[`Json::Int`], all
    /// others [`Json::Float`]; object field order is preserved, and
    /// `\uXXXX` escapes (including surrogate pairs) are decoded.
    /// Arrays and objects nest at most 128 levels deep, so a hostile
    /// input cannot exhaust the parsing thread's stack.
    ///
    /// # Errors
    /// [`JsonParseError`] with the byte offset of the first offending
    /// character.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after top-level value"));
        }
        Ok(v)
    }
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level; the documents this workspace writes
/// nest only a few levels deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &'static str) -> JsonParseError {
        JsonParseError { at: self.pos, what }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, what: &'static str) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object with `parse`, a level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonParseError>,
    ) -> Result<Json, JsonParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("arrays and objects nested too deeply"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let nibble = match d {
                b'0'..=b'9' => (d - b'0') as u32,
                b'a'..=b'f' => (d - b'a') as u32 + 10,
                b'A'..=b'F' => (d - b'A') as u32 + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = v << 4 | nibble;
            self.pos += 1;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                                self.pos += 1;
                                self.eat(b'u', "expected \\u for low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape character")),
                    }
                }
                b if b < 0x20 => return Err(self.err("unescaped control character")),
                _ => {
                    // Consume one full UTF-8 scalar (the input is &str,
                    // so continuation bytes are always well-formed).
                    let s = &self.bytes[self.pos..];
                    let ch_len = match s[0] {
                        b if b < 0x80 => 1,
                        b if b < 0xE0 => 2,
                        b if b < 0xF0 => 3,
                        _ => 4,
                    };
                    out.push_str(std::str::from_utf8(&s[..ch_len]).expect("input is valid UTF-8"));
                    self.pos += ch_len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(f) => Ok(Json::Float(f)),
            Err(_) => {
                self.pos = start;
                Err(self.err("malformed number"))
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}
impl From<i32> for Json {
    fn from(v: i32) -> Self {
        Json::Int(v as i64)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::UInt(v as u64)
    }
}
impl From<u8> for Json {
    fn from(v: u8) -> Self {
        Json::UInt(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::UInt(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// An ordered JSON object under construction (builder for one
/// experiment row).
#[derive(Debug, Clone, Default)]
pub struct JsonObj {
    fields: Vec<(String, Json)>,
}

impl JsonObj {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a field (insertion order is preserved in the output).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.fields.push((key.to_owned(), value.into()));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> Json {
        Json::Obj(self.fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::from(true).render(), "true");
        assert_eq!(Json::from(42u64).render(), "42");
        assert_eq!(Json::from(-7i64).render(), "-7");
        assert_eq!(Json::from(0.5f64).render(), "0.5");
        assert_eq!(Json::from(2.0f64).render(), "2.0");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::from("a\"b\\c\nd").render(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn renders_compound_values_in_order() {
        let obj = JsonObj::new()
            .field("name", "fig18")
            .field("trial", 3usize)
            .field("values", vec![1u64, 2, 3])
            .build();
        assert_eq!(obj.render(), "{\"name\":\"fig18\",\"trial\":3,\"values\":[1,2,3]}");
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(Json::from("\u{1}").render(), "\"\\u0001\"");
        assert_eq!(Json::from("\t\r").render(), "\"\\t\\r\"");
    }

    /// render → parse is the identity for every value the serializer
    /// can produce (non-finite floats excepted: they render as `null`
    /// by design, so they round-trip to `Json::Null`).
    fn assert_round_trips(v: Json) {
        let text = v.render();
        let back = Json::parse(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
        assert_eq!(back, v, "round-trip through {text:?}");
        // Re-rendering the parsed value is byte-stable too.
        assert_eq!(back.render(), text);
    }

    #[test]
    fn round_trips_scalars() {
        assert_round_trips(Json::Null);
        assert_round_trips(Json::Bool(true));
        assert_round_trips(Json::Bool(false));
        assert_round_trips(Json::Int(-42));
        assert_round_trips(Json::Int(i64::MIN));
        assert_round_trips(Json::UInt(u64::MAX));
        assert_round_trips(Json::Float(0.5));
        assert_round_trips(Json::Float(-1.25e-7));
        assert_round_trips(Json::Float(1e300));
        assert_round_trips(Json::Float(f64::MIN_POSITIVE));
    }

    #[test]
    fn round_trips_control_chars_and_escapes() {
        assert_round_trips(Json::from("a\"b\\c\nd\re\tf"));
        assert_round_trips(Json::from("\u{0}\u{1}\u{1f}\u{7f}"));
        assert_round_trips(Json::from("naïve — ünïcode ✓ 𝄞"));
        assert_round_trips(Json::from("/slash and \u{8}backspace\u{c}"));
    }

    #[test]
    fn round_trips_nested_structures() {
        let v = JsonObj::new()
            .field("rows", vec![Json::from(1u64), Json::Null, Json::from("x")])
            .field(
                "nested",
                Json::Arr(vec![
                    Json::Arr(vec![Json::from(1.5f64), Json::Arr(Vec::new())]),
                    JsonObj::new().field("k", vec![true, false]).build(),
                ]),
            )
            .field("empty_obj", Json::Obj(Vec::new()))
            .build();
        assert_round_trips(v);
        // The deepest nesting the parser accepts.
        let deepest = (1..MAX_DEPTH).fold(Json::Obj(Vec::new()), |inner, _| Json::Arr(vec![inner]));
        assert_round_trips(deepest);
    }

    #[test]
    fn non_finite_floats_round_trip_to_null() {
        for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let text = Json::Float(f).render();
            assert_eq!(text, "null");
            assert_eq!(Json::parse(&text).unwrap(), Json::Null);
        }
    }

    #[test]
    fn parses_foreign_escapes_and_whitespace() {
        assert_eq!(Json::parse(r#""\u0041\u00e9""#).unwrap(), Json::from("Aé"));
        // Surrogate pair for U+1D11E (musical G clef).
        assert_eq!(Json::parse(r#""\ud834\udd1e""#).unwrap(), Json::from("𝄞"));
        assert_eq!(Json::parse(r#""\/""#).unwrap(), Json::from("/"));
        assert_eq!(
            Json::parse(" { \"a\" : [ 1 , 2.5 ,\t-3 ]\n} ").unwrap(),
            JsonObj::new()
                .field("a", Json::Arr(vec![Json::UInt(1), Json::Float(2.5), Json::Int(-3)]))
                .build()
        );
        // Exponent forms parse as floats.
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("-2E-2").unwrap(), Json::Float(-0.02));
    }

    #[test]
    fn rejects_malformed_inputs() {
        let deep = "[".repeat(100_000);
        let one_too_deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "nul",
            "\"abc",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud834\"",
            "\"\\udd1e\"",
            "\"\u{1}\"",
            "01x",
            "1 2",
            "[1],",
            "--1",
            "-",
            &deep,
            &one_too_deep,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn accessors_extract_typed_values() {
        let v = Json::parse(r#"{"n":3,"f":0.5,"s":"x","b":true,"a":[1],"neg":-2}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("neg").and_then(Json::as_u64), None);
        assert_eq!(v.get("neg").and_then(Json::as_f64), Some(-2.0));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(0.5));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("x"), None);
    }
}
