//! A dependency-free JSON document model: construction, stable
//! pretty-printing, and a small validating parser.
//!
//! The workspace is hermetic (no `serde`), but every bench bin emits a
//! machine-readable `--json` report and CI must be able to *validate* that
//! output without external tooling. [`Json`] covers both directions:
//! objects keep insertion order so report schemas serialize byte-stably,
//! and [`Json::parse`] accepts exactly RFC 8259 documents (it is used by
//! `perfreport --check` as the CI smoke gate).
//!
//! ```
//! use talft_obs::Json;
//!
//! let doc = Json::obj([
//!     ("schema", Json::str("talft.demo.v1")),
//!     ("total", Json::U64(3)),
//!     ("ratio", Json::F64(1.34)),
//! ]);
//! let text = doc.to_string();
//! let back = Json::parse(&text).expect("self-emitted JSON re-parses");
//! assert_eq!(back.get("total").and_then(Json::as_u64), Some(3));
//! ```

use std::fmt;

/// A JSON value. Objects preserve insertion order (schema stability);
/// numbers distinguish unsigned/signed/float so `u64` metric values
/// round-trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer (counters, cycle counts).
    U64(u64),
    /// Signed integer (trace values, addresses).
    I64(i64),
    /// Floating point; non-finite values serialize as `null`.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object, in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Build a string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Build an object from `(key, value)` pairs, preserving order.
    #[must_use]
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Object field lookup (first match; `None` on non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an unsigned (or non-negative signed)
    /// integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `&str`, if a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, if an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parse a complete JSON document (RFC 8259; rejects trailing garbage).
    ///
    /// # Errors
    ///
    /// A human-readable message with a byte offset on malformed input, and
    /// on arrays and objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    fn write_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(v) => write!(f, "{v}"),
            Json::I64(v) => write!(f, "{v}"),
            Json::F64(v) => {
                if v.is_finite() {
                    // Round-trippable and stable: shortest repr via {v:?}
                    // always keeps a decimal point or exponent.
                    write!(f, "{v:?}")
                } else {
                    write!(f, "null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Array(items) => {
                if items.is_empty() {
                    return write!(f, "[]");
                }
                // Scalar-only arrays print inline (histogram bucket pairs).
                let scalar = items
                    .iter()
                    .all(|i| !matches!(i, Json::Object(o) if !o.is_empty()));
                if scalar {
                    write!(f, "[")?;
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        item.write_indented(f, indent)?;
                    }
                    return write!(f, "]");
                }
                writeln!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    write!(f, "{:1$}", "", (indent + 1) * 2)?;
                    item.write_indented(f, indent + 1)?;
                    if i + 1 < items.len() {
                        write!(f, ",")?;
                    }
                    writeln!(f)?;
                }
                write!(f, "{:1$}]", "", indent * 2)
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    return write!(f, "{{}}");
                }
                writeln!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    write!(f, "{:1$}", "", (indent + 1) * 2)?;
                    write_escaped(f, k)?;
                    write!(f, ": ")?;
                    v.write_indented(f, indent + 1)?;
                    if i + 1 < fields.len() {
                        write!(f, ",")?;
                    }
                    writeln!(f)?;
                }
                write!(f, "{:1$}}}", "", indent * 2)
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_indented(f, 0)
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so a bound keeps a hostile file from
/// overflowing the stack; the files this workspace writes nest at most 7
/// deep.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    /// Parse an array or object one level deeper, or fail past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!(
                "unexpected {:?} at byte {}",
                char::from(c),
                self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 near byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to U+FFFD like lossy decode.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        c => {
                            return Err(format!(
                                "bad escape {:?} at byte {}",
                                char::from(c),
                                self.pos
                            ))
                        }
                    }
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
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
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable_and_ordered() {
        let doc = Json::obj([
            ("b", Json::U64(2)),
            ("a", Json::U64(1)),
            ("list", Json::Array(vec![Json::U64(1), Json::U64(2)])),
        ]);
        let s = doc.to_string();
        // Insertion order, not sorted: schema authors control layout.
        assert!(s.find("\"b\"").unwrap() < s.find("\"a\"").unwrap());
        assert!(s.contains("[1, 2]"));
    }

    #[test]
    fn roundtrip_all_value_kinds() {
        let doc = Json::obj([
            ("null", Json::Null),
            ("t", Json::Bool(true)),
            ("u", Json::U64(u64::MAX)),
            ("i", Json::I64(-42)),
            ("f", Json::F64(1.25)),
            ("s", Json::str("quote \" slash \\ nl \n tab \t")),
            ("nested", Json::obj([("k", Json::Array(vec![]))])),
        ]);
        let back = Json::parse(&doc.to_string()).expect("parses");
        assert_eq!(back, doc);
    }

    #[test]
    fn nonfinite_floats_serialize_as_null() {
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\": 1} extra").is_err());
        assert!(Json::parse("{'a': 1}").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parser_bounds_nesting_depth() {
        let arrays: fn(usize) -> String = |n| "[".repeat(n) + &"]".repeat(n);
        let objects: fn(usize) -> String = |n| "{\"k\": ".repeat(n - 1) + "{}" + &"}".repeat(n - 1);
        // 200,000 levels used to overflow the stack.
        let err = Json::parse(&arrays(200_000)).expect_err("too deep");
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        for nest in [arrays, objects] {
            assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
            assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
        }
        // Depth counts along a path: closed siblings do not add up.
        let wide = format!("[{}]", vec![arrays(MAX_DEPTH - 1); 3].join(", "));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn parser_accepts_foreign_json() {
        let v = Json::parse("\r\n {\"a\": [1, -2, 3.5e2, \"\\u0041\\n\"], \"b\": {\"c\": null}} ")
            .expect("valid");
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 4);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[3].as_str(),
            Some("A\n")
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
    }

    #[test]
    fn accessors() {
        let v = Json::obj([("n", Json::I64(7)), ("s", Json::str("x"))]);
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(7.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::I64(-1).as_u64(), None);
    }
}
