//! A minimal, dependency-free JSON value, writer, and parser.
//!
//! The build environment has no crates.io access, so `serde`/`serde_json`
//! are unavailable; this module supplies the serialization substrate the
//! telemetry layer (and the solver crates implementing [`ToJson`] /
//! [`FromJson`] for their stats types) builds on. Output is deterministic:
//! object keys keep insertion order, and floats are written with enough
//! precision to round-trip.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that fits an unsigned 64-bit integer (counters).
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A floating-point number (finite; NaN/∞ serialize as `null`).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Adds or replaces a field on an object; panics on non-objects.
    pub fn set(&mut self, key: &str, value: Json) {
        let Json::Object(fields) = self else {
            panic!("Json::set on a non-object");
        };
        if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            fields.push((key.to_string(), value));
        }
    }

    /// Builder-style [`set`](Self::set).
    pub fn with(mut self, key: &str, value: Json) -> Json {
        self.set(key, value);
        self
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an unsigned (or exact float) number.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(n) => Some(n),
            Json::I64(n) => u64::try_from(n).ok(),
            // xtask: allow(no-float-eq) only an exactly integral float converts to `u64`
            Json::F64(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => Some(f as u64),
            _ => None,
        }
    }

    /// The value as `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(n) => Some(n as f64),
            Json::I64(n) => Some(n as f64),
            Json::F64(f) => Some(f),
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
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object's fields, in insertion order.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(f) => {
                if f.is_finite() {
                    // xtask: allow(no-float-eq) the writer special-cases exactly integral floats
                    if f.fract() == 0.0 && f.abs() < 1e15 {
                        // Keep integral floats readable and round-trippable.
                        let _ = write!(out, "{f:.1}");
                    } else {
                        let _ = write!(out, "{f}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
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

    /// Serializes to a compact JSON string (also available via `Display`).
    #[allow(clippy::inherent_to_string_shadow_display)]
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Json, ParseJsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters"));
        }
        Ok(v)
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::U64(n)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::U64(n as u64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::U64(n as u64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        if n >= 0 {
            Json::U64(n as u64)
        } else {
            Json::I64(n)
        }
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::F64(f)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
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

/// Types serializable to a [`Json`] value (the offline stand-in for
/// `serde::Serialize`).
pub trait ToJson {
    /// The JSON representation.
    fn to_json(&self) -> Json;
}

/// Types reconstructible from a [`Json`] value (the offline stand-in for
/// `serde::Deserialize`).
pub trait FromJson: Sized {
    /// Parses the JSON representation produced by [`ToJson::to_json`].
    fn from_json(value: &Json) -> Result<Self, FromJsonError>;
}

/// Error from [`FromJson::from_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FromJsonError {
    /// What was wrong (field path and expectation).
    pub message: String,
}

impl FromJsonError {
    /// Creates the error.
    pub fn new(message: impl Into<String>) -> Self {
        FromJsonError {
            message: message.into(),
        }
    }

    /// Convenience: a "missing or mistyped field" error.
    pub fn field(name: &str) -> Self {
        FromJsonError::new(format!("missing or mistyped field `{name}`"))
    }
}

impl std::fmt::Display for FromJsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "from_json: {}", self.message)
    }
}

impl std::error::Error for FromJsonError {}

/// Error from [`Json::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseJsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What was expected.
    pub message: &'static str,
}

impl std::fmt::Display for ParseJsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseJsonError {}

/// Maximum container nesting [`Json::parse`] accepts. The parser is
/// recursive-descent, so unbounded nesting (e.g. a file of 100k `[`s)
/// would overflow the stack; past this depth it returns a parse error
/// instead. No legitimate telemetry document nests anywhere near this.
const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &'static str) -> ParseJsonError {
        ParseJsonError {
            offset: self.pos,
            message,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), ParseJsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(message))
        }
    }

    fn literal(&mut self, lit: &str, message: &'static str) -> Result<(), ParseJsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.error(message))
        }
    }

    fn value(&mut self) -> Result<Json, ParseJsonError> {
        match self.peek() {
            Some(b'n') => {
                self.literal("null", "expected null")?;
                Ok(Json::Null)
            }
            Some(b't') => {
                self.literal("true", "expected true")?;
                Ok(Json::Bool(true))
            }
            Some(b'f') => {
                self.literal("false", "expected false")?;
                Ok(Json::Bool(false))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn enter(&mut self) -> Result<(), ParseJsonError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, ParseJsonError> {
        self.eat(b'[', "expected [")?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Array(items));
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
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected , or ] in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseJsonError> {
        self.eat(b'{', "expected {")?;
        self.enter()?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        let mut seen: BTreeMap<String, usize> = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected : after object key")?;
            self.skip_ws();
            let value = self.value()?;
            if let Some(&i) = seen.get(&key) {
                fields[i].1 = value; // last duplicate wins
            } else {
                seen.insert(key.clone(), fields.len());
                fields.push((key, value));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.error("expected , or } in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseJsonError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err(self.error("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = rest.get(1).copied().ok_or(self.error("bad escape"))?;
                    self.pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or(self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our own
                            // output (we never escape above U+001F).
                            out.push(char::from_u32(hex).ok_or(self.error("bad codepoint"))?);
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => {
                    // Consume the whole run up to the next quote or escape,
                    // validating UTF-8 once per run — validating the full
                    // remaining input per character is quadratic on large
                    // documents (a megabyte document would take minutes).
                    let run = rest
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\')
                        .ok_or(self.error("unterminated string"))?;
                    let s = std::str::from_utf8(&rest[..run])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseJsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let v = Json::object()
            .with("name", Json::from("run \"42\"\n"))
            .with("count", Json::from(18_446_744_073_709_551_615u64))
            .with("delta", Json::from(-7i64))
            .with("ratio", Json::from(0.375))
            .with("flag", Json::from(true))
            .with("nothing", Json::Null)
            .with("items", Json::from(vec![1u64, 2, 3]))
            .with("nested", Json::object().with("k", Json::from("v")));
        let text = v.to_string();
        let parsed = Json::parse(&text).expect("own output parses");
        assert_eq!(v, parsed);
    }

    #[test]
    fn u64_precision_survives() {
        let v = Json::U64(u64::MAX);
        assert_eq!(
            Json::parse(&v.to_string()).unwrap().as_u64(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn integral_floats_stay_floats() {
        let text = Json::F64(2.0).to_string();
        assert_eq!(text, "2.0");
        assert_eq!(Json::parse(&text).unwrap(), Json::F64(2.0));
    }

    #[test]
    fn object_access() {
        let v = Json::object().with("a", Json::from(1u64));
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("b"), None);
        assert_eq!(v.as_object().unwrap().len(), 1);
    }

    #[test]
    fn set_replaces_existing_key() {
        let mut v = Json::object().with("a", Json::from(1u64));
        v.set("a", Json::from(2u64));
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(2));
        assert_eq!(v.as_object().unwrap().len(), 1);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn parse_bounds_nesting_depth_instead_of_overflowing() {
        // Exactly at the limit: fine.
        let ok = format!(
            "{}1{}",
            "[".repeat(MAX_PARSE_DEPTH),
            "]".repeat(MAX_PARSE_DEPTH)
        );
        assert!(Json::parse(&ok).is_ok());
        // One past the limit: a parse error, not a stack overflow.
        let deep = format!(
            "{}1{}",
            "[".repeat(MAX_PARSE_DEPTH + 1),
            "]".repeat(MAX_PARSE_DEPTH + 1)
        );
        let err = Json::parse(&deep).expect_err("over-deep arrays must be rejected");
        assert_eq!(err.message, "nesting too deep");
        // A pathological unclosed run: recursion would overflow the stack.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(100_000)).is_err());
        // Siblings don't accumulate depth: a wide flat document is fine.
        let wide = format!("[{}]", vec!["[1]"; 1000].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn parse_accepts_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\" : [ 1 , \"x\\u0041\" ] } ").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_str(),
            Some("xA")
        );
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_string(), "null");
    }
}
