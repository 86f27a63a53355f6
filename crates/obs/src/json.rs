//! The workspace's one JSON codec: a value tree, its parser and writer,
//! and the string escaper every JSON emitter shares.
//!
//! The workspace vendors no serde. Recorded traces, replayable scenario
//! specs, check verdicts and bench baselines all go through this module.
//! Three properties matter:
//!
//! * **Exact integers.** Seeds and nanosecond timestamps are full-range
//!   64-bit integers. A non-negative integer parses as [`Json::Int`] and a
//!   negative one as [`Json::NegInt`]; neither passes through `f64`, so
//!   `u64::MAX` and `i64::MIN` survive a round trip bit for bit. Integers
//!   outside both ranges, `-0`, and every number with a fraction or
//!   exponent parse as [`Json::Num`].
//! * **Deterministic output.** Object keys render in insertion order and
//!   floats in Rust's shortest round-trip form, so a value always
//!   serializes to the same bytes.
//! * **Hostile input gets an error, never a crash.** Nesting is capped at
//!   [`MAX_DEPTH`], and every [`JsonError`] names what went wrong, where
//!   (byte offset and line), and whether the input simply ended early.
//!
//! The streaming exporters (`jsonl_log`, `chrome_trace_json`, the health
//! and analyze reports) write JSON directly rather than building a tree;
//! they share this module's string escaper and float writer with
//! [`Json::render`].

use std::fmt::{self, Write as _};

/// Deepest array/object nesting the parser accepts. The deepest document
/// the workspace writes, a check verdict carrying a shrunk spec, is 6
/// levels deep; the cap only exists so a hostile file cannot overflow the
/// stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer, kept exact (seeds, byte counts, times).
    Int(u64),
    /// A negative integer, kept exact.
    NegInt(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (the first field with that key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// As u64 (exact `Int` only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// As f64 (accepts either integer variant too).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
            Json::NegInt(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// As bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// As string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// As array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialize (compact, no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::NegInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => push_f64(out, *v),
            Json::Str(s) => escape(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse one JSON document; only whitespace may surround it.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.fail(JsonErrorKind::TrailingData, p.pos));
        }
        Ok(v)
    }
}

/// Append `s` as a JSON string literal, quotes included. Quote, backslash
/// and control characters are escaped; everything else is copied as is.
pub(crate) fn escape(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0; // start of the not-yet-copied unescaped run
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `b` is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append a float in Rust's shortest round-trip form. JSON has no Inf or
/// NaN, so those become `null`.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// What a [`JsonError`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The input ended inside the document.
    Eof,
    /// A character that cannot start or continue a value here.
    Unexpected(char),
    /// A malformed number.
    BadNumber,
    /// A malformed backslash escape in a string.
    BadEscape,
    /// Something other than whitespace follows the document.
    TrailingData,
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep,
}

impl fmt::Display for JsonErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonErrorKind::Eof => write!(f, "unexpected end of input"),
            JsonErrorKind::Unexpected(c) => write!(f, "unexpected {c:?}"),
            JsonErrorKind::BadNumber => write!(f, "malformed number"),
            JsonErrorKind::BadEscape => write!(f, "bad string escape"),
            JsonErrorKind::TrailingData => write!(f, "trailing data"),
            JsonErrorKind::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH} levels"),
        }
    }
}

/// A located parse failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub kind: JsonErrorKind,
    /// Byte offset into the parsed text.
    pub offset: usize,
    /// 1-based line holding `offset`.
    pub line: usize,
}

impl JsonError {
    /// True when the text ended mid-document: a cut-off tail rather than
    /// corrupt bytes.
    pub fn is_eof(&self) -> bool {
        self.kind == JsonErrorKind::Eof
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at line {}, byte {}",
            self.kind, self.line, self.offset
        )
    }
}

impl std::error::Error for JsonError {}

/// Recursive-descent parser over a `&str`. Every position it stops at is
/// an ASCII byte or the end of the text, so slicing the text there never
/// splits a character.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\r' | b'\n') = self.peek() {
            self.pos += 1;
        }
    }

    fn fail(&self, kind: JsonErrorKind, offset: usize) -> JsonError {
        let line = 1 + self.text.as_bytes()[..offset]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        JsonError { kind, offset, line }
    }

    /// The error for the byte at `pos`: unexpected, or end of input.
    fn unexpected(&self) -> JsonError {
        match self.text.get(self.pos..).and_then(|s| s.chars().next()) {
            Some(c) => self.fail(JsonErrorKind::Unexpected(c), self.pos),
            None => self.fail(JsonErrorKind::Eof, self.text.len()),
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.unexpected())
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.unexpected()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        let rest = &self.text.as_bytes()[self.pos..];
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else if word.as_bytes().starts_with(rest) {
            Err(self.fail(JsonErrorKind::Eof, self.text.len()))
        } else {
            Err(self.unexpected())
        }
    }

    /// Step over an opening bracket, one level deeper.
    fn open(&mut self) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.fail(JsonErrorKind::TooDeep, self.pos));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        Ok(())
    }

    /// After a member: `,` continues the container (false), `close` ends
    /// it (true).
    fn close_or_comma(&mut self, close: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(false)
            }
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(true)
            }
            _ => Err(self.unexpected()),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.open()?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value()?));
            if self.close_or_comma(b'}')? {
                return Ok(Json::Obj(fields));
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.open()?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            if self.close_or_comma(b']')? {
                return Ok(Json::Arr(items));
            }
        }
    }

    /// A string literal. Runs between escapes are sliced out of the input
    /// whole: `"` and `\` are ASCII, so both ends of a run are character
    /// boundaries and the text, already a `&str`, needs no re-validation.
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        loop {
            let run = self.pos;
            while !matches!(bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => out.push(self.escape()?),
                None => return Err(self.fail(JsonErrorKind::Eof, self.text.len())),
            }
        }
    }

    /// One backslash escape, `pos` at the backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let at = self.pos;
        let bytes = self.text.as_bytes();
        let c = match bytes.get(at + 1) {
            None => return Err(self.fail(JsonErrorKind::Eof, self.text.len())),
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hex = &bytes[at + 2..bytes.len().min(at + 6)];
                let code = hex.iter().try_fold(0u32, |acc, &h| {
                    (h as char).to_digit(16).map(|d| acc * 16 + d)
                });
                return match code {
                    None => Err(self.fail(JsonErrorKind::BadEscape, at)),
                    Some(_) if hex.len() < 4 => Err(self.fail(JsonErrorKind::Eof, bytes.len())),
                    Some(code) => {
                        self.pos = at + 6;
                        // Surrogate halves are not chars; they decode lossily.
                        Ok(char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER))
                    }
                };
            }
            Some(_) => return Err(self.fail(JsonErrorKind::BadEscape, at)),
        };
        self.pos = at + 2;
        Ok(c)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let bytes = self.text.as_bytes();
        let neg = bytes[start] == b'-';
        if neg {
            self.pos += 1;
        }
        while bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        let mut int = self.pos > start + neg as usize;
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(self.pos) {
            int = false;
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let exact = match (int, neg) {
            // "-0" is not negative: it stays the float -0.0.
            (true, true) => text.parse().ok().filter(|&v: &i64| v < 0).map(Json::NegInt),
            (true, false) => text.parse().ok().map(Json::Int),
            (false, _) => None,
        };
        match exact.or_else(|| text.parse().ok().map(Json::Num)) {
            Some(v) => Ok(v),
            // A number cut off after its sign or mid-exponent ("-", "1e")
            // is a short input, not a bad one.
            None if self.pos == bytes.len() && text.ends_with(['-', '+', 'e', 'E', '.']) => {
                Err(self.fail(JsonErrorKind::Eof, self.pos))
            }
            None => Err(self.fail(JsonErrorKind::BadNumber, start)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_exact_u64() {
        let v = Json::Obj(vec![
            ("seed".into(), Json::Int(u64::MAX)),
            ("other".into(), Json::Int(9_007_199_254_740_993)), // 2^53 + 1
        ]);
        let text = v.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(
            back.get("other").unwrap().as_u64(),
            Some(9_007_199_254_740_993)
        );
    }

    #[test]
    fn negative_integers_are_exact() {
        for v in [i64::MIN, -9_007_199_254_740_993, -1] {
            let text = v.to_string();
            assert_eq!(Json::parse(&text).unwrap(), Json::NegInt(v));
            assert_eq!(Json::NegInt(v).render(), text);
        }
        assert_eq!(Json::parse("-3").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-3").unwrap().as_f64(), Some(-3.0));
    }

    /// Integers outside both exact ranges, and "-0", fall back to `f64`.
    #[test]
    fn integers_beyond_the_exact_ranges_become_floats() {
        let above = Json::parse("18446744073709551616").unwrap(); // u64::MAX + 1
        assert_eq!(above, Json::Num(18_446_744_073_709_551_616.0));
        assert_eq!(above.as_u64(), None);
        let below = Json::parse("-9223372036854775809").unwrap(); // i64::MIN - 1
        assert_eq!(below, Json::Num(-9_223_372_036_854_775_808.0));
        let huge = Json::parse(&"9".repeat(400)).unwrap();
        assert_eq!(huge, Json::Num(f64::INFINITY));
        assert_eq!(huge.render(), "null");
        let zero = Json::parse("-0").unwrap();
        assert!(matches!(zero, Json::Num(z) if z == 0.0 && z.is_sign_negative()));
        assert_eq!(zero.render(), "-0");
    }

    #[test]
    fn round_trip_structures() {
        let v = Json::Obj(vec![
            (
                "name".into(),
                Json::Str("a \"quoted\"\nline — é\u{1}".into()),
            ),
            (
                "items".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(-1.5)]),
            ),
        ]);
        let text = v.render();
        assert!(text.contains(r#"a \"quoted\"\nline — é\u0001"#), "{text}");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_nesting_and_escapes() {
        let v = Json::parse(" { \"a\" : [ 1 , { \"b\" : [ ] } ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        let s = Json::parse(r#""\u00e9\/\b\f\t\ud800""#).unwrap();
        assert_eq!(s.as_str(), Some("é/\u{8}\u{c}\t\u{fffd}"));
    }

    #[test]
    fn rejects_garbage_with_located_errors() {
        let kind = |s: &str| Json::parse(s).unwrap_err().kind;
        assert_eq!(kind("{"), JsonErrorKind::Eof);
        assert_eq!(kind("[1,]"), JsonErrorKind::Unexpected(']'));
        assert_eq!(kind("12 34"), JsonErrorKind::TrailingData);
        assert_eq!(kind("\"unterminated"), JsonErrorKind::Eof);
        assert_eq!(kind("\"\\x\""), JsonErrorKind::BadEscape);
        assert_eq!(kind("\"\\u12g4\""), JsonErrorKind::BadEscape);
        assert_eq!(kind("\"\\u1\""), JsonErrorKind::BadEscape);
        assert_eq!(kind("\"\\u1"), JsonErrorKind::Eof);
        assert_eq!(kind("1.2.3"), JsonErrorKind::BadNumber);
        assert_eq!(kind("tru"), JsonErrorKind::Eof);
        assert_eq!(kind("trux"), JsonErrorKind::Unexpected('t'));
        assert_eq!(kind("-"), JsonErrorKind::Eof);
        assert_eq!(kind(""), JsonErrorKind::Eof);
        let e = Json::parse("{\"a\":\n  [1,\n  é]}").unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::Unexpected('é'));
        assert_eq!((e.line, e.offset), (3, 14));
        assert_eq!(e.to_string(), "unexpected 'é' at line 3, byte 14");
        assert!(!e.is_eof());
    }

    #[test]
    fn negative_and_float_are_num() {
        assert_eq!(Json::parse("2.5").unwrap().as_f64(), Some(2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("-2.5").unwrap(), Json::Num(-2.5));
    }

    #[test]
    fn nesting_is_capped() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let e = Json::parse(&deep).unwrap_err();
        assert_eq!((e.kind, e.offset), (JsonErrorKind::TooDeep, MAX_DEPTH));
        // Far past the cap, and unterminated: still a typed error.
        let hostile = "[".repeat(200_000);
        assert_eq!(
            Json::parse(&hostile).unwrap_err().kind,
            JsonErrorKind::TooDeep
        );
        let objs = "{\"a\":".repeat(200_000);
        assert_eq!(Json::parse(&objs).unwrap_err().kind, JsonErrorKind::TooDeep);
    }

    #[test]
    fn escape_matches_the_char_by_char_rules() {
        let mut out = String::new();
        escape("plain", &mut out);
        escape("q\"b\\n\nr\rt\tc\u{1f}\u{7f}é", &mut out);
        assert_eq!(
            out,
            r#""plain""q\"b\\n\nr\rt\tc\u001f"#.to_string() + "\u{7f}é\""
        );
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let mut out = String::new();
        push_f64(&mut out, f64::NAN);
        out.push(',');
        push_f64(&mut out, 0.1);
        assert_eq!(out, "null,0.1");
        assert_eq!(Json::Num(f64::NEG_INFINITY).render(), "null");
    }
}
