//! A minimal JSON value model with a renderer and a strict parser.
//!
//! The workspace deliberately avoids heavyweight serialization crates in
//! the instrumentation path; the metrics sink only needs to *emit* one
//! flat object per experiment and *validate* what it emitted (the
//! `repro metrics-check` subcommand and the CI smoke step). Both sides
//! live here so they cannot drift apart.

use std::fmt;

/// A parsed or to-be-rendered JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part that fits `i64`.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks a key up in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64`, for `Int` and `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, for non-negative `Int`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The object entries, if this is an object.
    pub fn entries(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Escapes a string for embedding in JSON (without the quotes).
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Int(i) => write!(f, "{i}"),
            JsonValue::Num(n) => {
                if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    // JSON has no NaN/Inf; degrade to null rather than
                    // emit an unparseable token.
                    f.write_str("null")
                }
            }
            JsonValue::Str(s) => write!(f, "\"{}\"", escape(s)),
            JsonValue::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "\"{}\":{v}", escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document; trailing garbage is an error.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    parse_document::<true>(input)
}

/// [`parse`], with or without the integer fast path. Both parse every
/// input to the same value or the same error; the tests use the parser
/// without it as the oracle for the one with it.
fn parse_document<const INT_FAST_PATH: bool>(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser::<INT_FAST_PATH> {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a, const INT_FAST_PATH: bool> {
    bytes: &'a [u8],
    pos: usize,
}

impl<const INT_FAST_PATH: bool> Parser<'_, INT_FAST_PATH> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte `{}`", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are rejected rather than paired;
                            // the emitter never produces them.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("invalid \\u code point"))?;
                            out.push(c);
                        }
                        other => {
                            return Err(self.err(format!("bad escape `\\{}`", other as char)));
                        }
                    }
                }
                b if b < 0x20 => return Err(self.err("control character in string")),
                _ => {
                    // Re-decode UTF-8 from the raw bytes.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    if start + len > self.bytes.len() {
                        return Err(self.err("truncated UTF-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        if let Some(i) = self.plain_int() {
            return Ok(JsonValue::Int(i));
        }
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if !fractional {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err(format!("bad number `{text}`")))
    }

    /// Consumes a number that is a bare run of digits fitting `i64` —
    /// the words of an inline trace — without going through `str`
    /// parsing. Anything else (a sign, a fraction, an exponent, an
    /// overflow, a value that is not a number) consumes nothing and
    /// returns `None`, leaving it to the general path. Always `None`
    /// without the fast path.
    fn plain_int(&mut self) -> Option<i64> {
        if !INT_FAST_PATH {
            return None;
        }
        let rest = &self.bytes[self.pos..];
        let mut value = 0i64;
        let mut digits = 0;
        for &b in rest {
            if !b.is_ascii_digit() {
                break;
            }
            value = value.checked_mul(10)?.checked_add(i64::from(b - b'0'))?;
            digits += 1;
        }
        if digits == 0 || matches!(rest.get(digits), Some(b'.' | b'e' | b'E')) {
            return None;
        }
        self.pos += digits;
        Some(value)
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            // The words of an inline trace are plain integers; taking
            // them here skips the general value dispatch.
            let item = match self.plain_int() {
                Some(i) => JsonValue::Int(i),
                None => self.value()?,
            };
            items.push(item);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
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
    use proptest::prelude::*;

    #[test]
    fn roundtrips_nested_document() {
        let src = r#"{"experiment":"fig18","wall_s":1.25,"metrics":{"a.b":3,"c":[1,2,null,true]},"note":"x\"y\\z"}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("fig18"));
        assert_eq!(v.get("wall_s").unwrap().as_f64(), Some(1.25));
        assert_eq!(
            v.get("metrics").unwrap().get("a.b").unwrap().as_u64(),
            Some(3)
        );
        let rendered = v.to_string();
        assert_eq!(parse(&rendered).unwrap(), v);
    }

    #[test]
    fn parses_numbers_exactly() {
        assert_eq!(parse("42").unwrap(), JsonValue::Int(42));
        assert_eq!(parse("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(parse("2.5").unwrap(), JsonValue::Num(2.5));
        assert_eq!(parse("1e3").unwrap(), JsonValue::Num(1000.0));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn escapes_control_characters() {
        let v = JsonValue::Str("a\nb\t\"c\"\u{1}".into());
        let rendered = v.to_string();
        assert_eq!(rendered, "\"a\\nb\\t\\\"c\\\"\\u0001\"");
        assert_eq!(parse(&rendered).unwrap(), v);
    }

    #[test]
    fn preserves_unicode() {
        let v = parse(r#""λ = 0.5 → κ""#).unwrap();
        assert_eq!(v.as_str(), Some("λ = 0.5 → κ"));
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    /// Number-ish fragments: single characters of the number grammar
    /// and whitespace, plus runs at the edges of `i64`.
    const FRAGMENTS: &[&str] = &[
        "0",
        "1",
        "2",
        "3",
        "4",
        "5",
        "6",
        "7",
        "8",
        "9",
        "-",
        "+",
        ".",
        "e",
        "E",
        " ",
        "\t",
        "\n",
        "00",
        "007",
        "-0",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        "18446744073709551615",
        "1234567890123456789012345",
    ];

    fn numberish() -> impl Strategy<Value = String> {
        prop::collection::vec(0..FRAGMENTS.len(), 0..8)
            .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
    }

    /// The parse with the integer fast path must equal the parse
    /// without it: the same value, or the same error at the same
    /// offset.
    fn same_as_oracle(doc: &str) {
        assert_eq!(parse(doc), parse_document::<false>(doc), "{doc:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn integer_fast_path_matches_the_general_number_path(
            a in numberish(),
            b in numberish(),
            shape in 0usize..4,
        ) {
            let doc = match shape {
                0 => a,
                1 => format!("[{a}]"),
                2 => format!("[{a},{b}]"),
                _ => format!("{{\"k\":{a},\"l\":{b}}}"),
            };
            same_as_oracle(&doc);
        }
    }

    #[test]
    fn integer_fast_path_edges() {
        for doc in [
            "0",
            "-0",
            "007",
            "9223372036854775807",
            "9223372036854775808",
            "18446744073709551615",
            "1234567890123456789012345",
            "[0,4294967295,12]",
            "1.5",
            "1e3",
            "12-3",
            "1.",
            "1e",
            "",
        ] {
            same_as_oracle(doc);
        }
        assert_eq!(parse("9223372036854775807"), Ok(JsonValue::Int(i64::MAX)));
        assert_eq!(
            parse("9223372036854775808"),
            Ok(JsonValue::Num(9_223_372_036_854_775_808.0))
        );
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(JsonValue::Num(f64::NAN).to_string(), "null");
    }
}
