//! The workspace's one JSON codec: a strict reader and a string escaper.
//!
//! The workspace vendors no serialization crates, so the exporters write
//! JSON by hand and this module checks their output: full syntax
//! validation plus enough structure (objects as ordered key/value lists,
//! numbers kept as source text) for each reader to type-check its
//! fields. Numbers stay as strings deliberately — u64 seeds and
//! hashes must not round-trip through `f64`.
//!
//! Every JSON format in the workspace (trace JSONL and Chrome traces, the
//! bench history, the sweep run journal, SARIF) is written with [`escape`]
//! and read with [`parse`]. The grammar is RFC 8259's, strictly. Input is
//! hostile by assumption (a torn history file, a corrupted journal line),
//! so every failure is a typed [`JsonError`], never a panic.

use std::fmt;
use std::fmt::Write as _;

/// A parsed JSON value. Object keys keep document order (no hash
/// containers: pagesim-lint rule L1 applies to this crate).
#[derive(Clone, PartialEq, Debug)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its source text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, keys in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object; `None` for other value kinds.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64`, for integral number lexemes in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `f64`, for numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Short tag for error messages and schema matching.
    pub fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::Num(_) => "num",
            JsonValue::Str(_) => "str",
            JsonValue::Arr(_) => "arr",
            JsonValue::Obj(_) => "obj",
        }
    }
}

/// A parse failure: where in the input and what went wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What the reader found wrong there.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

fn err(offset: usize, msg: &'static str) -> JsonError {
    JsonError { offset, msg }
}

/// Parses one complete JSON document. Trailing content is an error, which
/// is what makes a torn or concatenated file detectable.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(err(p.pos, "trailing content"));
    }
    Ok(v)
}

/// Nesting depth guard: the formats read here nest a handful of arrays
/// and objects; a generous cap keeps the recursive parser safe on
/// hostile input.
pub const MAX_DEPTH: usize = 64;

/// Escapes a string for the body of a JSON string literal; the caller
/// writes the surrounding quotes.
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(self.pos, msg))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(err(self.pos, "bad literal"))
        }
    }

    /// One value; `depth` counts the arrays and objects around it.
    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'[' | b'{') if depth >= MAX_DEPTH => Err(err(self.pos, "nesting too deep")),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(err(self.pos, "unexpected byte")),
            None => Err(err(self.pos, "unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[', "expected '['")?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(err(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{', "expected '{'")?;
        self.skip_ws();
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(err(self.pos, "expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected a string")?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(err(self.pos, "unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(err(self.pos, "unterminated escape"));
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or(err(self.pos, "bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| err(self.pos, "bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates never appear in our own exports;
                            // map them to the replacement character.
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(err(self.pos - 1, "bad escape")),
                    }
                }
                0x00..=0x1F => return Err(err(self.pos - 1, "raw control byte in string")),
                _ => {
                    // Re-assemble multi-byte UTF-8 sequences.
                    let start = self.pos - 1;
                    let s = utf8_width(b)
                        .and_then(|width| self.bytes.get(start..start + width))
                        .and_then(|chunk| std::str::from_utf8(chunk).ok())
                        .ok_or(err(start, "invalid utf-8"))?;
                    self.pos = start + s.len();
                    out.push_str(s);
                }
            }
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let int_len = self.pos - digits_start;
        if int_len == 0 || (int_len > 1 && self.bytes[digits_start] == b'0') {
            return Err(err(start, "bad number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(err(start, "bad number"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(err(start, "bad number"));
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| err(start, "bad number"))?;
        Ok(JsonValue::Num(text.to_owned()))
    }
}

fn utf8_width(first: u8) -> Option<usize> {
    match first {
        0x20..=0x7F => Some(1),
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny"},"d":null,"e":true}"#)
            .expect("valid json");
        assert_eq!(v.get("a"), Some(&JsonValue::Arr(vec![
            JsonValue::Num("1".to_owned()),
            JsonValue::Num("2.5".to_owned()),
            JsonValue::Num("-3e2".to_owned()),
        ])));
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(JsonValue::as_str),
            Some("x\ny")
        );
        assert_eq!(v.get("d"), Some(&JsonValue::Null));
        assert_eq!(v.get("e"), Some(&JsonValue::Bool(true)));
        let a = v.get("a").and_then(JsonValue::as_arr).expect("array");
        assert_eq!((a[0].as_u64(), a[1].as_f64(), a[1].as_u64()), (Some(1), Some(2.5), None));
        assert_eq!(v.get("e").and_then(JsonValue::as_bool), Some(true));
        // Object members keep document order.
        let JsonValue::Obj(members) = parse(r#"{"z": 1, "a": 2}"#).expect("valid json") else {
            panic!("not an object")
        };
        assert_eq!((members[0].0.as_str(), members[1].0.as_str()), ("z", "a"));
    }

    #[test]
    fn big_integers_survive_as_text() {
        let v = parse(r#"{"seed":18446744073709551615,"x":0.30000000000000004}"#)
            .expect("valid json");
        assert_eq!(
            v.get("seed"),
            Some(&JsonValue::Num("18446744073709551615".to_owned()))
        );
        assert_eq!(v.get("seed").and_then(JsonValue::as_u64), Some(u64::MAX));
        assert_eq!(v.get("x"), Some(&JsonValue::Num("0.30000000000000004".to_owned())));
        for ok in ["0", "-0", "0.5", "-0.5e-3", "10", "1E+2"] {
            assert_eq!(parse(ok), Ok(JsonValue::Num(ok.to_owned())), "rejected: {ok}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        let too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        for bad in [
            "{", "[1,", r#"{"a" 1}"#, "tru", "1.", "01x", r#""\q""#, "{} extra",
            "\"unterminated", "[1 2]", "01", "-01", "+1", r#""\u+123""#, "\"a\u{1}b\"",
            // Torn documents: what a crash mid-write leaves behind.
            "", "{\"a\": 1", "{\"a\": ", "[1, 2", "{\"a\": \"unterminated",
            too_deep.as_str(),
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn errors_are_typed_and_nesting_is_capped() {
        let e = parse("\"ab\u{1}\"").expect_err("control byte");
        assert_eq!(e.to_string(), "JSON error at byte 3: raw control byte in string");
        assert_eq!(parse("[1,]").map_err(|e| e.offset), Err(3));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok(), "{MAX_DEPTH} levels must parse");
        // Far past the cap: an error at the cap, not a stack overflow.
        assert_eq!(
            parse(&"[".repeat(1_000_000)),
            Err(err(MAX_DEPTH, "nesting too deep"))
        );
    }

    #[test]
    fn unicode_and_escapes_roundtrip() {
        let v = parse(r#""café — ✓""#).expect("valid json");
        assert_eq!(v.as_str(), Some("café — ✓"));
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
        let nasty = "quote\" back\\slash \n\t\r\u{1}\u{1f} café end";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).expect("escaped string parses").as_str(), Some(nasty));
    }
}
