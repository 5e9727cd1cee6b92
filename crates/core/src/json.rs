//! A minimal JSON value, writer and parser.
//!
//! The build environment has no crates.io access, so campaign checkpoints,
//! the characterization cache and the serve-mode wire protocol use this
//! self-contained implementation instead of serde.  It supports the full
//! JSON value model with two deliberate choices: all numbers are `f64`
//! (64-bit integers that must survive a round trip — seeds, fingerprints —
//! are stored as strings by the consuming layers), and non-finite floats
//! serialize as `null`.
//!
//! The parser is strict in the ways a network-facing format needs to be:
//! trailing garbage after the top-level value is rejected, and nesting
//! depth is capped at [`MAX_PARSE_DEPTH`] so a hostile frame of ten
//! thousand `[` bytes cannot blow the stack.

use std::collections::BTreeMap;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always an `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys are sorted (BTreeMap) so output is canonical.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value of object member `key`, if this is an object containing
    /// it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// This value as a number (numbers only; `null` maps to NaN).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// This value as a u64, accepting both numbers (if integral and exact)
    /// and decimal strings (the canonical encoding for 64-bit values).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            Json::Str(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// This value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Length in bytes of this value's compact encoding (its
    /// `to_string()`), counted without building the string.
    pub fn encoded_len(&self) -> usize {
        /// A sink that keeps only the number of bytes written to it.
        struct Count(usize);
        impl std::fmt::Write for Count {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                self.0 += s.len();
                Ok(())
            }
        }
        let mut count = Count(0);
        let _ = self.write(&mut count);
        count.0
    }

    fn write(&self, out: &mut impl std::fmt::Write) -> std::fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(true) => out.write_str("true"),
            Json::Bool(false) => out.write_str("false"),
            // Rust's float formatting is shortest-round-trip.
            Json::Num(n) if n.is_finite() => write!(out, "{n}"),
            Json::Num(_) => out.write_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.write(out)?;
                }
                out.write_char(']')
            }
            Json::Obj(map) => {
                out.write_char('{')?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_escaped(out, k)?;
                    out.write_char(':')?;
                    v.write(out)?;
                }
                out.write_char('}')
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// The whole input must be one JSON value (plus surrounding
    /// whitespace): trailing characters are an error, and documents nested
    /// deeper than [`MAX_PARSE_DEPTH`] are rejected.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }
}

/// Serializes to a compact JSON string (via `ToString`).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.write(f)
    }
}

fn write_escaped(out: &mut impl std::fmt::Write, s: &str) -> std::fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// A JSON parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Maximum container nesting depth [`Json::parse`] accepts.
pub const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        text.parse::<f64>().map(Json::Num).map_err(|_| ParseError {
            offset: start,
            message: format!("invalid number '{text}'"),
        })
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not needed for the ASCII
                            // identifiers this module stores; reject them
                            // rather than mis-decoding.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("unpaired surrogate in \\u escape"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_PARSE_DEPTH} levels")));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::obj([
            ("name", Json::Str("fig5 (a)".into())),
            ("seed", Json::Str(u64::MAX.to_string())),
            ("ok", Json::Bool(true)),
            ("pi", Json::Num(3.140625)),
            (
                "trials",
                Json::Arr(vec![
                    Json::Arr(vec![Json::Num(1.0), Json::Num(0.0)]),
                    Json::Null,
                ]),
            ),
        ]);
        let text = doc.to_string();
        let parsed = Json::parse(&text).expect("round trip parses");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.get("seed").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(parsed.get("pi").and_then(Json::as_f64), Some(3.140625));
    }

    #[test]
    fn encoded_len_counts_the_bytes_of_to_string() {
        let docs = [
            Json::Null,
            Json::Num(f64::NAN),
            Json::Num(-1.5e-300),
            Json::Str("quote \" slash \\ tab \t bell \u{7} é".into()),
            Json::Arr(Vec::new()),
            Json::obj([
                ("a", Json::Arr(vec![Json::Bool(true), Json::Num(0.1)])),
                ("b\n", Json::obj([])),
            ]),
        ];
        for doc in docs {
            assert_eq!(doc.encoded_len(), doc.to_string().len(), "{doc}");
        }
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let text = Json::Arr(vec![Json::Num(f64::NAN), Json::Num(f64::INFINITY)]).to_string();
        assert_eq!(text, "[null,null]");
        let parsed = Json::parse(&text).expect("parses");
        assert!(parsed.as_arr().unwrap()[0].as_f64().unwrap().is_nan());
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let parsed =
            Json::parse(" { \"a\\n\\\"b\" : [ 1 , -2.5e3 , \"\\u0041\" ] } ").expect("parses");
        let arr = parsed
            .get("a\n\"b")
            .and_then(Json::as_arr)
            .expect("member exists");
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[2].as_str(), Some("A"));
    }

    #[test]
    fn float_precision_survives_the_round_trip() {
        for &x in &[0.1, 1.0 / 3.0, 707.128_906_25, f64::MIN_POSITIVE, 1e300] {
            let text = Json::Num(x).to_string();
            let Json::Num(back) = Json::parse(&text).expect("parses") else {
                panic!("not a number")
            };
            assert_eq!(back, x, "{x} did not survive");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        for bad in ["{} {}", "1,", "[1] x", "null\nnull", "\"a\"\"b\""] {
            let err = Json::parse(bad).expect_err("trailing input must fail");
            assert!(err.message.contains("trailing"), "{bad:?} gave {err}");
        }
        // A trailing newline is plain whitespace, not garbage (the wire
        // protocol is newline-delimited).
        assert!(Json::parse("{\"a\":1}\n").is_ok());
    }

    #[test]
    fn caps_nesting_depth() {
        let deep_ok = format!(
            "{}1{}",
            "[".repeat(MAX_PARSE_DEPTH),
            "]".repeat(MAX_PARSE_DEPTH)
        );
        let parsed = Json::parse(&deep_ok).expect("depth at the limit parses");
        // Parsing twice from the same document must not accumulate depth.
        assert_eq!(Json::parse(&deep_ok), Ok(parsed));

        for bomb in [
            "[".repeat(MAX_PARSE_DEPTH + 1),
            format!(
                "{}1{}",
                "[".repeat(MAX_PARSE_DEPTH + 1),
                "]".repeat(MAX_PARSE_DEPTH + 1)
            ),
            "{\"a\":".repeat(MAX_PARSE_DEPTH + 1),
        ] {
            let err = Json::parse(&bomb).expect_err("too-deep input must fail");
            assert!(err.message.contains("nesting"), "got {err}");
        }

        // Siblings do not count toward the depth: width is fine.
        let wide = format!("[{}]", vec!["[1]"; 10_000].join(","));
        assert!(Json::parse(&wide).is_ok());
    }
}
