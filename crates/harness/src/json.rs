//! The hand-rolled JSON of the supervised sweep's journal (the workspace is
//! offline; no serde).  The journal writes one JSON object per line through
//! [`escape_json`], and `--resume` reads each line back with [`parse`].

use std::fmt::Write as _;

pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

/// A parsed JSON value.  Numbers keep their source text so integer fields
/// round-trip without a float detour.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// An object, in source order.
    Object(Vec<(String, Json)>),
    /// An array.
    Array(Vec<Json>),
    /// A string (escapes resolved).
    Str(String),
    /// A number, as written.
    Num(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    pub(crate) fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn require<'a>(&'a self, key: &str) -> Result<&'a Json, String> {
        self.get(key).ok_or_else(|| format!("missing key {key:?}"))
    }

    pub(crate) fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Num(text) => text
                .parse::<u64>()
                .map_err(|e| format!("{what}: {text:?} is not a non-negative integer ({e})")),
            other => Err(format!("{what}: expected a number, got {other:?}")),
        }
    }

    pub(crate) fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("{what}: expected a boolean, got {other:?}")),
        }
    }

    pub(crate) fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("{what}: expected a string, got {other:?}")),
        }
    }
}

/// Parses `text` as exactly one JSON value: anything after it but
/// whitespace is refused, and every error names the line and column where
/// reading stopped.
pub(crate) fn parse(text: &str) -> Result<Json, String> {
    let mut reader = Reader::new(text);
    let value = reader
        .value()
        .map_err(|e| format!("{} ({e})", reader.position()))?;
    match reader.peek_after_ws() {
        None => Ok(value),
        Some(c) => Err(format!(
            "{}: trailing content {c:?} after the value",
            reader.position()
        )),
    }
}

// ---------------------------------------------------------------------------
// A minimal JSON reader (objects, arrays, strings, numbers, booleans, null).

struct Reader<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    /// 1-based line of the next unconsumed character.
    line: usize,
    /// 1-based column of the next unconsumed character.
    column: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        Reader {
            chars: text.chars().peekable(),
            line: 1,
            column: 1,
        }
    }

    /// Consumes one character, keeping the line/column cursor current so
    /// parse errors can say where they happened.
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next();
        match c {
            Some('\n') => {
                self.line += 1;
                self.column = 1;
            }
            Some(_) => self.column += 1,
            None => {}
        }
        c
    }

    /// The reader's current position, for error context.
    fn position(&self) -> String {
        format!("line {}, column {}", self.line, self.column)
    }

    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, wanted: char) -> Result<(), String> {
        self.skip_ws();
        match self.bump() {
            Some(c) if c == wanted => Ok(()),
            Some(c) => Err(format!("expected {wanted:?}, found {c:?}")),
            None => Err(format!("expected {wanted:?}, found end of input")),
        }
    }

    fn peek_after_ws(&mut self) -> Option<char> {
        self.skip_ws();
        self.chars.peek().copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek_after_ws() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => self.string().map(Json::Str),
            Some('t') => self.literal("true", Json::Bool(true)),
            Some('f') => self.literal("false", Json::Bool(false)),
            Some('n') => self.literal("null", Json::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected character {c:?}")),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for wanted in word.chars() {
            match self.bump() {
                Some(c) if c == wanted => {}
                other => return Err(format!("malformed literal `{word}` (at {other:?})")),
            }
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, String> {
        let mut text = String::new();
        while let Some(&c) = self.chars.peek() {
            if c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' || c.is_ascii_digit() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // Validate through the float grammar; integer consumers re-parse.
        text.parse::<f64>()
            .map_err(|e| format!("malformed number {text:?}: {e}"))?;
        Ok(Json::Num(text))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let digit = self
                                .chars
                                .next()
                                .and_then(|c| c.to_digit(16))
                                .ok_or("malformed \\u escape")?;
                            code = code * 16 + digit;
                        }
                        out.push(char::from_u32(code).ok_or("\\u escape is not a scalar value")?);
                    }
                    other => return Err(format!("unsupported escape {other:?}")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut fields = Vec::new();
        if self.peek_after_ws() == Some('}') {
            self.bump();
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek_after_ws() {
                Some(',') => {
                    self.bump();
                }
                Some('}') => {
                    self.bump();
                    return Ok(Json::Object(fields));
                }
                other => return Err(format!("expected ',' or '}}' in object, found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        if self.peek_after_ws() == Some(']') {
            self.bump();
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek_after_ws() {
                Some(',') => {
                    self.bump();
                }
                Some(']') => {
                    self.bump();
                    return Ok(Json::Array(items));
                }
                other => return Err(format!("expected ',' or ']' in array, found {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_parse_and_read_back_through_the_accessors() {
        let doc = parse("{\"n\": 7, \"ok\": true, \"s\": \"x\", \"a\": [null, -1.5e3]}").unwrap();
        assert_eq!(doc.require("n").unwrap().as_u64("n"), Ok(7));
        assert_eq!(doc.require("ok").unwrap().as_bool("ok"), Ok(true));
        assert_eq!(doc.require("s").unwrap().as_str("s"), Ok("x"));
        assert_eq!(
            doc.get("a"),
            Some(&Json::Array(vec![Json::Null, Json::Num("-1.5e3".into())]))
        );
        assert!(doc.require("gone").unwrap_err().contains("missing key"));
        assert!(doc.require("s").unwrap().as_u64("s").is_err());
    }

    #[test]
    fn parse_errors_carry_line_and_column_context() {
        let err = parse("{\n  \"semint_journal\": 2,\n  oops\n}").unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        let err = parse("{\"semint_journal\": 2, }").unwrap_err();
        assert!(err.contains("column"), "{err}");
    }

    #[test]
    fn trailing_content_after_the_value_is_refused() {
        let err = parse("{\"event\": \"scenario\"} garbage").unwrap_err();
        assert!(
            err.contains("trailing") && err.contains("column 23"),
            "{err}"
        );
        assert!(parse("{\"event\": \"scenario\"}  \n").is_ok());
    }

    #[test]
    fn malformed_input_is_a_friendly_error() {
        assert!(parse("").unwrap_err().contains("end of input"));
        assert!(parse("{").unwrap_err().contains("end of input"));
        assert!(parse("[1, 2").unwrap_err().contains("in array"));
        assert!(parse("tru").unwrap_err().contains("malformed literal"));
        assert!(parse("1.2.3").unwrap_err().contains("malformed number"));
        assert!(parse("\"open").unwrap_err().contains("unterminated"));
        assert!(parse("\"\\x\"").unwrap_err().contains("unsupported escape"));
        assert!(parse("@").unwrap_err().contains("unexpected character"));
    }

    #[test]
    fn strings_with_special_characters_survive() {
        let raw = "a\"b\\c\nd\te\r\u{1}";
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(
            parse(&format!("\"{}\"", escape_json(raw))),
            Ok(Json::Str(raw.into()))
        );
        assert_eq!(
            parse("\"a\\\"b\\\\c\\nd\\u0041\\/\""),
            Ok(Json::Str("a\"b\\c\ndA/".into()))
        );
    }
}
