//! A small JSON value type with a writer and a parser.
//!
//! Every `throughput` report is built as a [`Json`] value (usually with the
//! [`object!`](crate::object) macro) and written by its `Display` impl, and
//! every committed baseline is read back with [`parse`]. Numbers keep their
//! literal text: a report prints each figure at the precision its sweep
//! chose, and a parsed baseline hands back exactly the committed digits.
//! Hashes are 16-hex-digit strings ([`Json::hash`]); a non-finite number is
//! written as `null` ([`Json::num`]).
//!
//! The writer lays a document out the way the committed `BENCH_*.json`
//! files read: a container holding only scalars goes on one line, any other
//! container puts each element on its own indented line.

use std::fmt::{self, Write};

/// A JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, held as its literal text.
    Number(String),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in key order.
    Object(Vec<(String, Json)>),
}

/// Builds a [`Json::Object`] from `"key" => value` pairs, converting each
/// value with `Json::from`.
#[macro_export]
macro_rules! object {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::json::Json::Object(vec![$(($key.to_string(), $crate::json::Json::from($value))),*])
    };
}

impl Json {
    /// `value` printed with `decimals` fractional digits, or `null` when it
    /// is not finite (JSON has no infinity).
    pub fn num(value: f64, decimals: usize) -> Json {
        if value.is_finite() {
            Json::Number(format!("{value:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// A 64-bit digest as its 16-hex-digit string.
    pub fn hash(digest: u64) -> Json {
        Json::Str(format!("{digest:016x}"))
    }

    /// The value under `key`, if this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value at a path of object keys.
    pub fn at(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(self, |value, key| value.get(key))
    }

    /// The number's value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let (open, close, elements): (_, _, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.write_str("null"),
            Json::Bool(flag) => return write!(out, "{flag}"),
            Json::Number(text) => return out.write_str(text),
            Json::Str(text) => return write_string(out, text),
            Json::Array(items) => ("[", "]", items.iter().map(|v| (None, v)).collect()),
            Json::Object(fields) => (
                "{",
                "}",
                fields.iter().map(|(k, v)| (Some(&**k), v)).collect(),
            ),
        };
        let inline = elements
            .iter()
            .all(|(_, value)| !matches!(value, Json::Array(_) | Json::Object(_)));
        let pad = if open == "{" && !elements.is_empty() {
            " "
        } else {
            ""
        };
        out.write_str(open)?;
        for (i, (key, value)) in elements.iter().enumerate() {
            match (inline, i) {
                (true, 0) => out.write_str(pad)?,
                (true, _) => out.write_str(", ")?,
                (false, 0) => write!(out, "\n{:1$}", "", indent + 2)?,
                (false, _) => write!(out, ",\n{:1$}", "", indent + 2)?,
            }
            if let Some(key) = key {
                write_string(out, key)?;
                out.write_str(": ")?;
            }
            value.write(out, indent + 2)?;
        }
        if inline {
            out.write_str(pad)?;
        } else {
            write!(out, "\n{:indent$}", "")?;
        }
        out.write_str(close)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

macro_rules! json_from {
    ($($source:ty => |$value:ident| $json:expr),* $(,)?) => {
        $(impl From<$source> for Json {
            fn from($value: $source) -> Self {
                $json
            }
        })*
    };
}

json_from! {
    bool => |flag| Json::Bool(flag),
    u64 => |count| Json::Number(count.to_string()),
    usize => |count| Json::Number(count.to_string()),
    &str => |text| Json::Str(text.to_string()),
    String => |text| Json::Str(text),
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

fn write_string(out: &mut fmt::Formatter<'_>, text: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in text.chars() {
        match c {
            '"' | '\\' => write!(out, "\\{c}")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Parses one JSON document (RFC 8259; surrounding whitespace allowed).
///
/// # Errors
///
/// Returns a description of the first syntax error and its byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut parser = Parser { text, pos: 0 };
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != text.len() {
        return Err(parser.error("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let byte = self.peek();
        self.pos += usize::from(byte.is_some());
        byte
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn error(&self, what: &str) -> String {
        format!("invalid JSON: {what} at byte {}", self.pos)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => self.container(b'}', Self::field).map(Json::Object),
            Some(b'[') => self.container(b']', Self::value).map(Json::Array),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn field(&mut self) -> Result<(String, Json), String> {
        self.skip_whitespace();
        let key = self.string()?;
        self.skip_whitespace();
        if !self.eat(b':') {
            return Err(self.error("expected ':'"));
        }
        Ok((key, self.value()?))
    }

    /// Parses `open element (, element)* close` with `open` under the cursor.
    fn container<T>(
        &mut self,
        close: u8,
        element: fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(element(self)?);
            self.skip_whitespace();
            match self.bump() {
                Some(b',') => {}
                Some(byte) if byte == close => return Ok(items),
                _ => return Err(self.error("expected ',' or a closing bracket")),
            }
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.error("invalid literal"));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        let integer = self.eat(b'0') || self.digits();
        let fraction = !self.eat(b'.') || self.digits();
        let exponent = !(self.eat(b'e') || self.eat(b'E')) || {
            let _sign = self.eat(b'+') || self.eat(b'-');
            self.digits()
        };
        if !(integer && fraction && exponent) {
            return Err(self.error("expected a value"));
        }
        Ok(Json::Number(self.text[start..self.pos].to_string()))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.text.get(self.pos..self.pos + 4);
        let code = digits
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok());
        self.pos += 4;
        code.ok_or_else(|| self.error("invalid \\u escape"))
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err(self.error("expected a string"));
        }
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte; all
            // three are ASCII, so the slice ends on a char boundary.
            let start = self.pos;
            while matches!(self.peek(), Some(byte) if byte != b'"' && byte != b'\\' && byte >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => {}
                _ => return Err(self.error("unterminated string")),
            }
            let escaped = match self.bump() {
                Some(b'u') => self.unicode_escape()?,
                Some(byte @ (b'"' | b'\\' | b'/')) => char::from(byte),
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                _ => return Err(self.error("invalid escape")),
            };
            out.push(escaped);
        }
    }

    /// Decodes the code point after `\u`, joining a UTF-16 surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut code = self.hex4()?;
        if (0xd800..0xdc00).contains(&code) {
            let low = if self.eat(b'\\') && self.eat(b'u') {
                self.hex4()?
            } else {
                0
            };
            if !(0xdc00..0xe000).contains(&low) {
                return Err(self.error("unpaired surrogate"));
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        }
        char::from_u32(code).ok_or_else(|| self.error("invalid code point"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_matches_the_committed_report_layout() {
        let report = crate::object! {
            "bench" => "demo",
            "rho" => Json::num(0.75, 2),
            "levels" => [1usize, 2].into_iter().collect::<Json>(),
            "empty" => Json::Array(vec![]),
            "timing" => crate::object! { "wall_s" => Json::num(0.5, 4) },
            "p99_ms" => Json::num(f64::INFINITY, 4),
            "hash" => Json::hash(0xab),
            "cells" => Json::Array(vec![crate::object! { "ok" => true }]),
        };
        assert_eq!(
            report.to_string(),
            "{\n  \"bench\": \"demo\",\n  \"rho\": 0.75,\n  \"levels\": [1, 2],\n  \
             \"empty\": [],\n  \"timing\": { \"wall_s\": 0.5000 },\n  \"p99_ms\": null,\n  \
             \"hash\": \"00000000000000ab\",\n  \"cells\": [\n    { \"ok\": true }\n  ]\n}"
        );
        assert_eq!(parse(&report.to_string()), Ok(report));
    }

    #[test]
    fn parser_reads_every_value_kind() {
        let text = r#" {"a": [1, -2.5e3, 0.0, true, false, null], "s": "q\"\\\/\n\u00e9\ud83d\ude00", "o": {}} "#;
        let doc = parse(text).expect("valid");
        assert_eq!(
            doc.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(6)
        );
        assert_eq!(
            doc.at(&["a"]).unwrap().as_array().unwrap()[1].as_f64(),
            Some(-2500.0)
        );
        assert_eq!(doc.get("s"), Some(&Json::from("q\"\\/\né😀")));
        assert_eq!(doc.get("o"), Some(&Json::Object(vec![])));
        assert_eq!(doc.at(&["o", "missing"]), None);
        // Strings round-trip through the writer's escaping.
        let tricky = Json::from("tab\tquote\"ctl\u{1}");
        assert_eq!(parse(&tricky.to_string()), Ok(tricky));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "   ",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "01",
            "1.",
            "-",
            "1e",
            "+1",
            "NaN",
            "\"open",
            "\"\\x\"",
            "\"\\ud800\"",
            "\"\\u+123\"",
            "tru",
            "[1] 2",
            "{\"a\":[1}",
            "\"raw\ncontrol\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }
}
