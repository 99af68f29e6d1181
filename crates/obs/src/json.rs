//! The workspace's one JSON codec: a [`Json`] tree, one string escaper
//! ([`Quoted`]), one printer (`{}` on one line, `{:#}` pretty) and one
//! strict parser ([`parse`]).
//!
//! Integers stay exact (`u64` / `i64` are their own variants, so a
//! 64-bit digest survives a round trip) and floats print in Rust's
//! shortest form that parses back to the same bits, so
//! `parse(&doc.to_string())` reproduces every number it was given. The
//! pretty form puts one object member per line with two-space indent,
//! breaks an array of objects one per line and keeps any other array on
//! one line, which is the layout of the committed DST repro files.

use std::fmt::{self, Display as _, Write as _};

/// A JSON document. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    /// Non-finite values print as `null` (JSON has no spelling for them).
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// The member `key` of an object; `None` for a missing key or a
    /// non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::I64(v) => Some(v),
            Json::U64(v) => i64::try_from(v).ok(),
            _ => None,
        }
    }

    /// Any number as a float. A float that printed without a fraction
    /// parses back as an integer variant; converting it here recovers the
    /// same bits, because the cast and the printer both round to nearest.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::F64(v) => Some(v),
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// `depth` is `None` on one line, or the indent depth of a container
    /// that puts each item on its own line.
    fn write(&self, f: &mut fmt::Formatter<'_>, depth: Option<usize>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(v) => write!(f, "{v}"),
            Json::U64(v) => write!(f, "{v}"),
            Json::I64(v) => write!(f, "{v}"),
            Json::F64(v) if v.is_finite() => write!(f, "{v}"),
            Json::F64(_) => f.write_str("null"),
            Json::Str(s) => Quoted(s).fmt(f),
            Json::Arr(items) => {
                let depth = depth.filter(|_| matches!(items.first(), Some(Json::Obj(_))));
                write_seq(f, depth, '[', ']', items, |f, item, inner| item.write(f, inner))
            }
            Json::Obj(entries) => write_seq(f, depth, '{', '}', entries, |f, (k, v), inner| {
                write!(f, "{}: ", Quoted(k))?;
                v.write(f, inner)
            }),
        }
    }
}

fn write_seq<T>(
    f: &mut fmt::Formatter<'_>,
    depth: Option<usize>,
    open: char,
    close: char,
    items: &[T],
    each: impl Fn(&mut fmt::Formatter<'_>, &T, Option<usize>) -> fmt::Result,
) -> fmt::Result {
    let inner = depth.map(|d| d + 1);
    f.write_char(open)?;
    for (i, item) in items.iter().enumerate() {
        match inner {
            Some(d) => write!(f, "{}\n{:2$}", if i > 0 { "," } else { "" }, "", d * 2)?,
            None if i > 0 => f.write_str(", ")?,
            None => {}
        }
        each(f, item, inner)?;
    }
    if let (Some(d), false) = (depth, items.is_empty()) {
        write!(f, "\n{:1$}", "", d * 2)?;
    }
    f.write_char(close)
}

/// `{}` prints the document on one line, `{:#}` the pretty form.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, f.alternate().then_some(0))
    }
}

/// A string as a quoted, escaped JSON string literal — the escaper behind
/// every writer in the workspace, for callers that lay their document out
/// by hand.
pub struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

macro_rules! impl_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::$variant(v.into())
            }
        }
    )*};
}
impl_from!(u64 => U64, i64 => I64, f64 => F64, &str => Str, String => Str);

/// Why [`parse`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Containers nested deeper than this are rejected, so hostile input
/// cannot overflow the parser's stack.
const MAX_DEPTH: usize = 128;

/// Parse one JSON document. Strict: the RFC 8259 grammar only (no
/// leading zeros, no raw control characters in strings, no lone
/// surrogates), nothing but whitespace after the value, no duplicate
/// keys within an object, and no number that overflows an `f64`.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser { text, i: 0 };
    let value = p.value(0)?;
    match p.peek() {
        None => Ok(value),
        Some(_) => Err(p.err("trailing data")),
    }
}

struct Parser<'a> {
    text: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { offset: self.i, msg }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.i).copied()
    }

    /// The next byte after any whitespace, not consumed.
    fn peek(&mut self) -> Option<u8> {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
        self.byte()
    }

    fn expect(&mut self, c: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek() != Some(c) {
            return Err(self.err(msg));
        }
        self.i += 1;
        Ok(())
    }

    /// The comma-separated items of the container whose opening bracket
    /// is the current byte, up to and including `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        self.i += 1;
        let mut out = Vec::new();
        if self.peek() == Some(close) {
            self.i += 1;
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(c) if c == close => {
                    self.i += 1;
                    return Ok(out);
                }
                _ => return Err(self.err("expected ',' or a closing bracket")),
            }
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => {
                let entries = self.items(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':', "expected ':'")?;
                    Ok((key, p.value(depth + 1)?))
                })?;
                let mut keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
                keys.sort_unstable();
                if keys.windows(2).any(|w| w[0] == w[1]) {
                    return Err(self.err("duplicate object key"));
                }
                Ok(Json::Obj(entries))
            }
            Some(b'[') => self.items(b']', |p| p.value(depth + 1)).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(_) => Err(self.err("expected a value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &'static str, value: Json) -> Result<Json, ParseError> {
        if !self.text.as_bytes()[self.i..].starts_with(word.as_bytes()) {
            return Err(self.err("expected a value"));
        }
        self.i += word.len();
        Ok(value)
    }

    /// Consume a run of ASCII digits; how many there were.
    fn digits(&mut self) -> usize {
        let start = self.i;
        while matches!(self.byte(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        self.i - start
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.i;
        if self.byte() == Some(b'-') {
            self.i += 1;
        }
        // A leading zero stands alone: whatever digit follows it is left
        // for the caller to reject.
        if self.byte() == Some(b'0') {
            self.i += 1;
        } else if self.digits() == 0 {
            return Err(self.err("expected a digit"));
        }
        let mut integral = true;
        if self.byte() == Some(b'.') {
            integral = false;
            self.i += 1;
            if self.digits() == 0 {
                return Err(self.err("expected a digit after '.'"));
            }
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            integral = false;
            self.i += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected a digit in the exponent"));
            }
        }
        let token = &self.text[start..self.i];
        if integral {
            if let Ok(v) = token.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            // `-0` is the float negative zero, not an integer.
            if let Some(v) = token.parse::<i64>().ok().filter(|&v| v != 0) {
                return Ok(Json::I64(v));
            }
        }
        match token.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::F64(v)),
            _ => Err(ParseError { offset: start, msg: "number out of range" }),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected a string")?;
        let mut out = String::new();
        loop {
            // Copy up to the next byte that needs a decision. Those are
            // all ASCII, so both ends of the run are character boundaries
            // and multi-byte UTF-8 passes through whole.
            let run = self.i;
            while matches!(self.byte(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.i += 1;
            }
            out.push_str(&self.text[run..self.i]);
            match self.byte() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control character in a string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The character named by the escape whose backslash was just
    /// consumed.
    fn escape(&mut self) -> Result<char, ParseError> {
        let e = self.byte().ok_or_else(|| self.err("unterminated string"))?;
        self.i += 1;
        Ok(match e {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) {
                    // A high surrogate is only half a character.
                    if !self.text.as_bytes()[self.i..].starts_with(b"\\u") {
                        return Err(self.err("lone surrogate"));
                    }
                    self.i += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("lone surrogate"));
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                char::from_u32(code).ok_or_else(|| self.err("lone surrogate"))?
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self.byte().and_then(|b| (b as char).to_digit(16));
            code = code * 16 + digit.ok_or_else(|| self.err("expected four hex digits"))?;
            self.i += 1;
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj([
            ("name", Json::from("storm")),
            ("nested", Json::obj([("ratio", Json::F64(2.5)), ("ok", Json::Bool(true))])),
            ("items", Json::arr([1u64, 2, 3])),
            ("windows", Json::arr([Json::arr([1u64, 2]), Json::arr([3u64, 4])])),
            ("rows", Json::arr([Json::obj([("k", Json::Null)]), Json::Obj(vec![])])),
            ("empty", Json::Arr(vec![])),
        ])
    }

    #[test]
    fn one_line_and_pretty_layouts() {
        assert_eq!(
            sample().to_string(),
            r#"{"name": "storm", "nested": {"ratio": 2.5, "ok": true}, "items": [1, 2, 3], "windows": [[1, 2], [3, 4]], "rows": [{"k": null}, {}], "empty": []}"#
        );
        let pretty = "{\n  \"name\": \"storm\",\n  \"nested\": {\n    \"ratio\": 2.5,\n    \"ok\": true\n  },\n  \
                      \"items\": [1, 2, 3],\n  \"windows\": [[1, 2], [3, 4]],\n  \"rows\": [\n    {\n      \
                      \"k\": null\n    },\n    {}\n  ],\n  \"empty\": []\n}";
        assert_eq!(format!("{:#}", sample()), pretty);
        assert_eq!(parse(pretty).unwrap(), sample());
        assert_eq!(parse(&sample().to_string()).unwrap(), sample());
    }

    #[test]
    fn integers_stay_exact_and_floats_keep_their_bits() {
        for v in [0, 1, u64::MAX, 0x0e1a_884c_0669_1ccc] {
            assert_eq!(parse(&Json::U64(v).to_string()).unwrap().as_u64(), Some(v));
        }
        for v in [i64::MIN, -1, i64::MAX] {
            assert_eq!(parse(&Json::I64(v).to_string()).unwrap().as_i64(), Some(v));
        }
        assert_eq!(Json::I64(-1).as_u64(), None);
        assert_eq!(Json::U64(u64::MAX).as_i64(), None);
        let mut bits = 0x9E37_79B9_7F4A_7C15u64;
        let mut floats =
            vec![0.0, -0.0, 0.1, 2550.0, 1e300, 5e-324, f64::MAX, -1.5e-7, 9e15, 1.8e19];
        for _ in 0..2000 {
            bits = bits.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(1);
            floats.push(f64::from_bits(bits));
        }
        for v in floats.into_iter().filter(|v| v.is_finite()) {
            let text = Json::F64(v).to_string();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v:e} printed as {text}");
        }
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_round_trip_and_every_escape_decodes() {
        let s = "tab\t \"q\" \\ nl\n cr\r bell\u{7} µs é 日本 \u{1F600}";
        let text = Quoted(s).to_string();
        assert_eq!(text, "\"tab\\t \\\"q\\\" \\\\ nl\\n cr\\r bell\\u0007 µs é 日本 \u{1F600}\"");
        assert_eq!(parse(&text).unwrap().as_str(), Some(s));
        assert_eq!(
            parse(r#""\/\b\f\u00e9\ud83d\ude00""#).unwrap().as_str(),
            Some("/\u{8}\u{c}é\u{1F600}")
        );
    }

    #[test]
    fn accessors_and_lookup() {
        let doc = sample();
        assert_eq!(doc.get("name").and_then(Json::as_str), Some("storm"));
        assert_eq!(doc.get("items").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        assert_eq!(
            doc.get("nested").and_then(|n| n.get("ratio")).and_then(Json::as_f64),
            Some(2.5)
        );
        assert!(doc.get("missing").is_none() && Json::Null.get("name").is_none());
        assert_eq!(Json::U64(3).as_f64(), Some(3.0));
        assert_eq!(Json::from("x").as_u64(), None);
    }

    #[test]
    fn strict_grammar_rejections() {
        for (bad, msg) in [
            ("", "unexpected end of input"),
            ("{} x", "trailing data"),
            ("[1,]", "expected a value"),
            ("{\"a\":1,\"a\":2}", "duplicate object key"),
            ("01", "trailing data"),
            ("[-]", "expected a digit"),
            ("1.", "expected a digit after '.'"),
            ("1e", "expected a digit in the exponent"),
            ("1e999", "number out of range"),
            ("-1e999", "number out of range"),
            ("\"a\nb\"", "raw control character in a string"),
            ("\"abc", "unterminated string"),
            ("\"\\x\"", "unknown escape"),
            ("\"\\u12g4\"", "expected four hex digits"),
            ("\"\\ud800\"", "lone surrogate"),
            ("\"\\ud800\\u0041\"", "lone surrogate"),
            ("\"\\udc00\"", "lone surrogate"),
            ("nul", "expected a value"),
            ("{\"a\" 1}", "expected ':'"),
            ("{1:2}", "expected a string"),
            ("[1 2]", "expected ',' or a closing bracket"),
            ("\u{b}1", "expected a value"),
        ] {
            assert_eq!(parse(bad).map_err(|e| e.msg), Err(msg), "{bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert_eq!(parse(&deep).unwrap_err().msg, "nesting too deep");
        assert!(parse(&format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH))).is_ok());
        assert_eq!(parse("[1, x]").unwrap_err().to_string(), "expected a value at byte 4");
    }

    #[test]
    fn every_strict_prefix_of_a_document_is_rejected() {
        let text = format!("{:#}", sample());
        for end in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            assert!(parse(&text[..end]).is_err(), "prefix of {end} bytes parsed");
        }
    }
}
