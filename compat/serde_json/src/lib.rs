//! Offline stand-in for `serde_json`.
//!
//! Serializes the `serde` stand-in's [`Value`](serde::Value) tree to JSON
//! text and parses JSON text back. Covers the workspace's needs:
//! [`to_string`], [`to_string_pretty`], and [`from_str`].

use serde::{DeError, Deserialize, Serialize, Value};

/// Error type shared by serialization and parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Error {
        Error(e.0)
    }
}

/// Serialize a value to compact JSON.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize a value to human-readable, two-space-indented JSON.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parse a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(T::from_value(&v)?)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(f) => {
            if f.is_finite() {
                // `{}` on f64 prints the shortest representation that parses
                // back exactly; integral floats keep a `.0` suffix so the
                // parser reproduces an F64.
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    out.push_str(&format!("{f:.1}"));
                } else {
                    let s = format!("{f}");
                    if s.contains('.') {
                        out.push_str(&s);
                    } else {
                        // Display never uses exponent notation; huge
                        // integral floats would render as bare integers
                        // and reparse as (overflowing) u64. LowerExp
                        // keeps them floats and round-trips exactly.
                        out.push_str(&format!("{f:e}"));
                    }
                }
            } else {
                // Like serde_json, non-finite numbers become null.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(n) = indent {
        out.push('\n');
        for _ in 0..n * level {
            out.push(' ');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Deepest array/object nesting the parser accepts (serde_json's limit).
/// The parser recurses once per level, so without a bound a line of
/// `[[[[…` from outside the process would overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, text: &str) -> bool {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.literal("null") => Ok(Value::Null),
            Some(b't') if self.literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(Error(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'[') {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(Error(format!("unexpected {other:?} at byte {}", self.pos))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error("unterminated string".to_string())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| Error("bad escape".to_string()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.literal("\\u") {
                                    return Err(Error("lone high surrogate".to_string()));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error("bad low surrogate".to_string()));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error(format!("bad codepoint {code:#x}")))?,
                            );
                        }
                        other => return Err(Error(format!("bad escape `\\{}`", other as char))),
                    }
                }
                Some(lead) => {
                    // Consume one UTF-8 character: its length follows
                    // from the lead byte, and only those bytes are
                    // validated, which keeps parsing linear in the input.
                    let len = match lead {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(Error("invalid utf-8".to_string())),
                    };
                    let bytes = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .ok_or_else(|| Error("invalid utf-8".to_string()))?;
                    let s = std::str::from_utf8(bytes)
                        .map_err(|_| Error("invalid utf-8".to_string()))?;
                    out.push_str(s);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error("truncated \\u escape".to_string()));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error("bad \\u escape".to_string()))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| Error("bad \\u escape".to_string()))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
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
            .map_err(|_| Error("bad number".to_string()))?;
        if is_float {
            // Like serde_json, refuse a float that overflows to infinity:
            // the writer renders non-finite numbers as `null`, so one would
            // not survive a round trip.
            match text.parse::<f64>() {
                Ok(f) if f.is_finite() => Ok(Value::F64(f)),
                Ok(_) => Err(Error(format!("number out of range: {text}"))),
                Err(e) => Err(Error(format!("bad number: {e}"))),
            }
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|e| Error(format!("bad number: {e}")))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|e| Error(format!("bad number: {e}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(from_str::<u32>("42").unwrap(), 42);
        assert_eq!(to_string(&-7i32).unwrap(), "-7");
        assert_eq!(from_str::<i32>("-7").unwrap(), -7);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(from_str::<f64>("2.5").unwrap(), 2.5);
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(from_str::<f64>("1.0").unwrap(), 1.0);
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let s = "line\nwith \"quotes\" and \\ backslash ω".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
        assert_eq!(from_str::<String>(r#""é😀""#).unwrap(), "é😀");
    }

    #[test]
    fn vectors_and_pretty_round_trip() {
        let v = vec![(String::from("a"), 1usize), (String::from("b"), 2usize)];
        let compact = to_string(&v).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(from_str::<Vec<(String, usize)>>(&compact).unwrap(), v);
        assert_eq!(from_str::<Vec<(String, usize)>>(&pretty).unwrap(), v);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn multi_megabyte_string_parses() {
        // Linear in the input: each character validates only its own
        // bytes, so a 4 MiB string parses in one pass.
        let s = "ab\u{e9}\u{1F600}".repeat(1 << 19);
        assert!(s.len() >= 4 << 20);
        let json = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
    }

    #[test]
    fn multi_byte_characters_round_trip() {
        // Every UTF-8 length, at its boundaries and next to escapes.
        for s in [
            "\u{7F}\u{80}\u{7FF}\u{800}\u{FFFF}\u{10000}\u{10FFFF}",
            "x\n\u{e9}\\\u{1F600}\"y",
            "\u{20AC}",
        ] {
            let json = to_string(&s.to_string()).unwrap();
            assert_eq!(from_str::<String>(&json).unwrap(), s);
        }
    }

    #[test]
    fn invalid_utf8_inside_a_string_errors() {
        let parse = |bytes: &[u8]| {
            Parser {
                bytes,
                pos: 0,
                depth: 0,
            }
            .string()
        };
        assert_eq!(parse(b"\"ok \xC3\xA9\"").unwrap(), "ok \u{e9}");
        for bad in [
            &b"\"ab\xFFcd\""[..],    // not a lead byte
            b"\"ab\x80cd\"",         // stray continuation byte
            b"\"ab\xC3(cd\"",        // lead byte without its continuation
            b"\"ab\xE2\x82\"",       // sequence cut by the closing quote
            b"\"ab\xED\xA0\x80cd\"", // encoded surrogate
            b"\"ab\xC0\xAFcd\"",     // overlong encoding
            b"\"ab\xF0\x9F\x98",     // truncated at the end of input
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.0.contains("utf-8"), "{bad:?}: {err:?}");
        }
    }

    #[test]
    fn float_precision_survives() {
        let xs = vec![0.1f64, 1.0 / 3.0, 2.5e-10, 1e300];
        let json = to_string(&xs).unwrap();
        assert_eq!(from_str::<Vec<f64>>(&json).unwrap(), xs);
    }
}
