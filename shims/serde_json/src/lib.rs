//! Offline stand-in for `serde_json`: a compact JSON writer and a
//! recursive-descent parser over the serde shim's [`Content`] data model.

use std::fmt::Write;

use serde::{Content, Deserialize, Serialize};

/// JSON value — the serde shim's content tree doubles as the value type.
pub type Value = Content;

/// Serialization or parse error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error(e.0)
    }
}

// ---- serialization ---------------------------------------------------------

// Everything is written into a `String`: the workspace has no streaming
// consumer (artifacts are JSONL lines and hashed strings).

fn escape_into(s: &str, out: &mut String) -> std::fmt::Result {
    out.write_char('"')?;
    for ch in s.chars() {
        match ch {
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

fn write_f64(x: f64, out: &mut String) -> std::fmt::Result {
    if x.is_finite() {
        // Rust's shortest-roundtrip formatting keeps values exact on re-parse.
        write!(out, "{x}")
    } else {
        out.write_str("null")
    }
}

fn write_indent(out: &mut String, level: usize) -> std::fmt::Result {
    out.write_char('\n')?;
    for _ in 0..level {
        out.write_str("  ")?;
    }
    Ok(())
}

fn write_content(c: &Content, out: &mut String, indent: Option<usize>) -> std::fmt::Result {
    match c {
        Content::Null => out.write_str("null"),
        Content::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
        Content::I64(x) => write!(out, "{x}"),
        Content::U64(x) => write!(out, "{x}"),
        Content::F64(x) => write_f64(*x, out),
        Content::Str(s) => escape_into(s, out),
        Content::Seq(xs) => {
            out.write_char('[')?;
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                if let Some(level) = indent {
                    write_indent(out, level + 1)?;
                }
                write_content(x, out, indent.map(|l| l + 1))?;
            }
            if let Some(level) = indent {
                if !xs.is_empty() {
                    write_indent(out, level)?;
                }
            }
            out.write_char(']')
        }
        Content::Map(m) => {
            out.write_char('{')?;
            for (i, (k, v)) in m.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                if let Some(level) = indent {
                    write_indent(out, level + 1)?;
                }
                escape_into(k, out)?;
                out.write_char(':')?;
                if indent.is_some() {
                    out.write_char(' ')?;
                }
                write_content(v, out, indent.map(|l| l + 1))?;
            }
            if let Some(level) = indent {
                if !m.is_empty() {
                    write_indent(out, level)?;
                }
            }
            out.write_char('}')
        }
    }
}

/// Serialize to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_content(&value.to_content(), &mut out, None).expect("writing to a String cannot fail");
    Ok(out)
}

/// Serialize to a 2-space-indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_content(&value.to_content(), &mut out, Some(0)).expect("writing to a String cannot fail");
    Ok(out)
}

/// Serialize to JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

// ---- parsing ---------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { bytes: s.as_bytes(), pos: 0 }
    }

    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

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
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    fn parse_value(&mut self) -> Result<Content, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                self.eat_keyword("null")?;
                Ok(Content::Null)
            }
            Some(b't') => {
                self.eat_keyword("true")?;
                Ok(Content::Bool(true))
            }
            Some(b'f') => {
                self.eat_keyword("false")?;
                Ok(Content::Bool(false))
            }
            Some(b'"') => self.parse_string().map(Content::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.err("bad escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                // Surrogate pair.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo_hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or_else(|| self.err("short surrogate"))?;
                                let lo_hex = std::str::from_utf8(lo_hex)
                                    .map_err(|_| self.err("bad surrogate"))?;
                                let lo = u32::from_str_radix(lo_hex, 16)
                                    .map_err(|_| self.err("bad surrogate"))?;
                                self.pos += 4;
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(ch);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let ch = rest.chars().next().ok_or_else(|| self.err("eof"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Content, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
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
            .map_err(|_| self.err("bad number"))?;
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Content::I64(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Content::U64(v));
            }
        }
        text.parse::<f64>().map(Content::F64).map_err(|_| self.err("bad number"))
    }

    fn parse_array(&mut self) -> Result<Content, Error> {
        self.eat(b'[')?;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Content::Seq(xs));
        }
        loop {
            xs.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Content::Seq(xs));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Content, Error> {
        self.eat(b'{')?;
        let mut m = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Content::Map(m));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.parse_value()?;
            m.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Content::Map(m));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Parse a JSON string into any `Deserialize` type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser::new(s);
    let content = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    T::from_content(&content).map_err(Error::from)
}

/// Parse JSON bytes into any `Deserialize` type.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error(format!("invalid utf-8: {e}")))?;
    from_str(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&-7i32).unwrap(), "-7");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        let x: f64 = from_str("1.5").unwrap();
        assert_eq!(x, 1.5);
        let y: u64 = from_str(&u64::MAX.to_string()).unwrap();
        assert_eq!(y, u64::MAX);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "a \"quoted\" line\nwith \\ unicode ≈ and tab\t.";
        let json = to_string(&s.to_string()).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn collections_roundtrip() {
        let v = vec![1u32, 2, 3];
        let back: Vec<u32> = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(back, v);
        let m: std::collections::HashMap<String, u32> =
            [("a".to_string(), 1u32), ("b".to_string(), 2)].into_iter().collect();
        let back: std::collections::HashMap<String, u32> =
            from_str(&to_string(&m).unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn value_get_works() {
        let v: Value = from_str(r#"{"a": 1, "b": [true, null]}"#).unwrap();
        assert!(v.get("a").is_some());
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn float_display_integers_reparse() {
        // 1.0 prints as "1"; numeric coercion must bring it back as f64.
        let x: f64 = from_str(&to_string(&1.0f64).unwrap()).unwrap();
        assert_eq!(x, 1.0);
    }
}
