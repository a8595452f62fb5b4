//! JSON text encoding for the in-tree `serde` shim's value tree.
//!
//! Provides the subset of the real `serde_json` API the workspace uses:
//! [`to_string`], [`to_string_pretty`], [`from_str`], and [`Error`].
//! Numbers are rendered losslessly (floats via Rust's shortest-roundtrip
//! `{:?}` formatting); non-finite floats serialize as `null`, matching
//! serde_json's behavior.

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// A serialization or parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.0)
    }
}

/// Serializes a value to compact JSON.
///
/// # Errors
///
/// Infallible for the shim's data model; kept fallible for serde_json
/// API compatibility.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes a value to pretty-printed JSON (two-space indent).
///
/// # Errors
///
/// Infallible for the shim's data model; kept fallible for serde_json
/// API compatibility.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text into a deserializable value.
///
/// # Errors
///
/// Returns an error on malformed JSON, arrays and objects nested deeper
/// than [`MAX_DEPTH`], or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0, depth: 0 };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    T::from_value(&value).map_err(Error::from)
}

// ----- writer --------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // `{:?}` is Rust's shortest round-trip float form and
                // always includes a `.0` or exponent for integral values.
                out.push_str(&format!("{f:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_escaped(out, s),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ----- parser --------------------------------------------------------

/// Deepest array/object nesting [`from_str`] accepts (serde_json's
/// default recursion limit). The parser recurses once per level, so
/// without a bound a long run of `[` overflows the stack and aborts the
/// process instead of returning an error.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error("unexpected end of input".to_string()))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        let got = self.peek()?;
        if got != b {
            return Err(Error(format!(
                "expected `{}` at byte {}, found `{}`",
                b as char, self.pos, got as char
            )));
        }
        self.pos += 1;
        Ok(())
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => self.parse_string().map(Value::Str),
            open @ (b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(Error(format!(
                        "recursion limit exceeded: nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let value = if open == b'[' { self.parse_seq() } else { self.parse_map() };
                self.depth -= 1;
                value
            }
            b'-' | b'0'..=b'9' => self.parse_number(),
            other => {
                Err(Error(format!("unexpected character `{}` at byte {}", other as char, self.pos)))
            }
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_seq(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                other => {
                    return Err(Error(format!(
                        "expected `,` or `]` at byte {}, found `{}`",
                        self.pos, other as char
                    )))
                }
            }
        }
    }

    fn parse_map(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            entries.push((key, self.parse_value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                other => {
                    return Err(Error(format!(
                        "expected `,` or `}}` at byte {}, found `{}`",
                        self.pos, other as char
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error("invalid UTF-8 in string".to_string()))?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error("unterminated escape".to_string()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error("truncated \\u escape".to_string()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".to_string()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".to_string()))?;
                            self.pos += 4;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("invalid \\u code point".to_string()))?,
                            );
                        }
                        other => {
                            return Err(Error(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                None => return Err(Error("unterminated string".to_string())),
                _ => unreachable!("loop stops only at quote, backslash, or end"),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
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
            .expect("ASCII number text is valid UTF-8");
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error(format!("invalid number `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error(format!("invalid number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| Error(format!("invalid number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_round_trip() {
        let v = vec![1i32, -2, 3];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[1,-2,3]");
        let back: Vec<i32> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for &f in &[0.1, 1.0, -2.5e300, 1e-12, f64::MAX] {
            let json = to_string(&f).unwrap();
            let back: f64 = from_str(&json).unwrap();
            assert_eq!(back, f, "json {json}");
        }
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn pretty_printing_shape() {
        let v = Value::Map(vec![
            ("a".to_string(), Value::UInt(1)),
            ("b".to_string(), Value::Seq(vec![Value::Bool(true)])),
        ]);
        let json = to_string_pretty(&v).unwrap();
        assert_eq!(json, "{\n  \"a\": 1,\n  \"b\": [\n    true\n  ]\n}");
        let back: Value = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a\"b\\c\nd\te\u{1}".to_string();
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn parse_errors() {
        assert!(from_str::<Value>("[1,").is_err());
        assert!(from_str::<Value>("{\"a\" 1}").is_err());
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<u32>("\"x\"").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize, open: &str, close: &str| open.repeat(n) + "0" + &close.repeat(n);
        assert!(from_str::<Value>(&nested(MAX_DEPTH, "[", "]")).is_ok());
        assert!(from_str::<Value>(&nested(MAX_DEPTH, "{\"a\":", "}")).is_ok());
        for deep in [nested(MAX_DEPTH + 1, "[", "]"), nested(MAX_DEPTH + 1, "{\"a\":", "}")] {
            let err = from_str::<Value>(&deep).unwrap_err();
            assert!(err.0.contains("recursion limit"), "{err}");
        }
        // Far past the limit, where unbounded recursion would overflow
        // the stack: the parser stops at the limit with an error.
        let err = from_str::<Value>(&"[".repeat(200_000)).unwrap_err();
        assert!(err.0.contains("recursion limit"), "{err}");
    }
}
