//! Offline shim of the `serde_json` API surface used by this workspace:
//! a JSON text layer over the shim `serde` crate's [`Value`] tree, plus the
//! [`json!`] macro. Output is self-consistent (round-trips through this
//! shim) but not guaranteed byte-identical to upstream serde_json.
//!
//! This is the workspace's one JSON text layer: the durable stores, the
//! serve wire path, trace exports and glint-lint's reports all read and
//! write JSON through it.
//!
//! Both directions run in one linear pass. The writer formats numbers and
//! escapes straight into its output buffer, and writes a [`Value`] in place
//! rather than a copy of it. The reader copies each run of string bytes up
//! to the next `"` or `\` in one step and validates only that run, so a
//! document costs its length, whatever its strings hold. [`parse`] builds
//! the [`Value`] tree once; [`from_str`] then converts it, which for
//! `T = Value` is a second, cloned tree. Numbers must follow RFC 8259's
//! grammar (no leading zeros, digits on both sides of a `.`), and a `\u`
//! escape takes exactly four hex digits. A `\u` surrogate pair decodes to
//! one character, as RFC 8259 writes non-BMP characters; a lone or reversed
//! surrogate is an error. Every malformed input is a typed [`Error`], never
//! a panic.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};
pub use serde::{Error, Value};

pub type Result<T> = std::result::Result<T, Error>;

/// Convert any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Rebuild a deserializable type from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T> {
    T::from_value(value)
}

/// Serialize to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.as_value(), None, 0);
    Ok(out)
}

/// Serialize to an indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.as_value(), Some(2), 0);
    Ok(out)
}

/// Serialize to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Deserialize from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let value = parse(s)?;
    T::from_value(&value)
}

/// Deserialize from JSON bytes, which must be UTF-8.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| Error::msg(format!("invalid utf8 at byte {}", e.valid_up_to())))?;
    from_str(text)
}

/// Build a [`Value`] from JSON-ish syntax. Object values and array elements
/// may be nested `{...}` / `[...]` literals or arbitrary serializable
/// expressions.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($body:tt)* }) => {
        $crate::Value::Map($crate::json_object_entries!(@acc [] $($body)*))
    };
    ([ $($body:tt)* ]) => {
        $crate::Value::Seq($crate::json_array_items!(@acc [] $($body)*))
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

/// Internal muncher for [`json!`] object bodies; values may themselves be
/// nested `{...}` / `[...]` literals, `null`, or serializable expressions.
/// Accumulates `(key, value)` pairs and expands to a single `vec![...]`.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object_entries {
    (@acc [$($acc:tt)*]) => { vec![$($acc)*] };
    (@acc [$($acc:tt)*] $key:literal : null $(, $($rest:tt)*)?) => {
        $crate::json_object_entries!(@acc [$($acc)* ($key.to_string(), $crate::Value::Null),] $($($rest)*)?)
    };
    (@acc [$($acc:tt)*] $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json_object_entries!(@acc [$($acc)* ($key.to_string(), $crate::json!({ $($inner)* })),] $($($rest)*)?)
    };
    (@acc [$($acc:tt)*] $key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json_object_entries!(@acc [$($acc)* ($key.to_string(), $crate::json!([ $($inner)* ])),] $($($rest)*)?)
    };
    (@acc [$($acc:tt)*] $key:literal : $val:expr $(, $($rest:tt)*)?) => {
        $crate::json_object_entries!(@acc [$($acc)* ($key.to_string(), $crate::to_value(&$val)),] $($($rest)*)?)
    };
}

/// Internal muncher for [`json!`] array bodies.
#[doc(hidden)]
#[macro_export]
macro_rules! json_array_items {
    (@acc [$($acc:tt)*]) => { vec![$($acc)*] };
    (@acc [$($acc:tt)*] null $(, $($rest:tt)*)?) => {
        $crate::json_array_items!(@acc [$($acc)* $crate::Value::Null,] $($($rest)*)?)
    };
    (@acc [$($acc:tt)*] { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json_array_items!(@acc [$($acc)* $crate::json!({ $($inner)* }),] $($($rest)*)?)
    };
    (@acc [$($acc:tt)*] [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json_array_items!(@acc [$($acc)* $crate::json!([ $($inner)* ]),] $($($rest)*)?)
    };
    (@acc [$($acc:tt)*] $val:expr $(, $($rest:tt)*)?) => {
        $crate::json_array_items!(@acc [$($acc)* $crate::to_value(&$val),] $($($rest)*)?)
    };
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // `fmt::Write` into a `String` cannot fail
        Value::I64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::U64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::F64(x) => {
            if x.is_finite() {
                let _ = write!(out, "{x:?}");
            } else {
                // upstream serde_json refuses non-finite floats; the shim
                // writes null so diverged training runs can still be logged
                out.push_str("null");
            }
        }
        Value::Str(s) => write_escaped(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            if !items.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            if !entries.is_empty() {
                newline_indent(out, indent, depth);
            }
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parse a JSON document into a [`Value`].
pub fn parse(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
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

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<()> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(Error::msg(format!("expected `{kw}` at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => {
                self.eat_keyword("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.eat_keyword("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.eat_keyword("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error::msg(format!(
                "unexpected character {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected `,` or `]`, found {:?} at byte {}",
                        other.map(|c| c as char),
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected `,` or `}}`, found {:?} at byte {}",
                        other.map(|c| c as char),
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` in one step. Both are
            // ASCII, and an ASCII byte never occurs inside a multi-byte
            // UTF-8 sequence, so the run holds whole characters and only
            // its own bytes need checking.
            let rest = self.bytes.get(self.pos..).unwrap_or_default();
            let Some(len) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                return Err(Error::msg("unterminated string"));
            };
            let (run, tail) = rest.split_at(len);
            out.push_str(std::str::from_utf8(run).map_err(|_| Error::msg("invalid utf8"))?);
            self.pos += len + 1;
            if tail.first() == Some(&b'"') {
                return Ok(out);
            }
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{0008}'),
                Some(b'f') => out.push('\u{000c}'),
                Some(b'u') => {
                    let code = self.hex4(self.pos + 1)?;
                    self.pos += 4;
                    let code = if (0xd800..0xdc00).contains(&code) {
                        self.low_surrogate()
                            .map(|low| 0x1_0000 + ((code - 0xd800) << 10) + (low - 0xdc00))
                            .unwrap_or(code)
                    } else {
                        code
                    };
                    out.push(
                        char::from_u32(code).ok_or_else(|| Error::msg("invalid \\u codepoint"))?,
                    );
                }
                other => {
                    return Err(Error::msg(format!(
                        "bad escape {:?}",
                        other.map(|c| c as char)
                    )))
                }
            }
            self.pos += 1;
        }
    }

    /// The four hex digits of a `\u` escape starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| Error::msg("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| Error::msg("non-utf8 \\u escape"))?;
        // `from_str_radix` alone would also take a sign (`\u+041`)
        if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(Error::msg("bad \\u escape"));
        }
        u32::from_str_radix(hex, 16).map_err(|_| Error::msg("bad \\u escape"))
    }

    /// After a high surrogate's last hex digit: consume a following
    /// `\uDC00`-`\uDFFF` escape and return its code unit. Anything else is
    /// left unread, so the high surrogate stays lone and is refused.
    fn low_surrogate(&mut self) -> Option<u32> {
        if self.bytes.get(self.pos + 1..self.pos + 3) != Some(b"\\u") {
            return None;
        }
        let low = self.hex4(self.pos + 3).ok()?;
        (0xdc00..0xe000).contains(&low).then(|| {
            self.pos += 6;
            low
        })
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        let continues = |b: u8| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-');
        let scanned = self.rfc_number();
        let Some(is_float) = scanned.filter(|_| !self.peek().is_some_and(continues)) else {
            // report the whole run, so `1.2.3` is one bad number
            while self.peek().is_some_and(continues) {
                self.pos += 1;
            }
            let run = String::from_utf8_lossy(&self.bytes[start..self.pos]);
            return Err(Error::msg(format!("bad number `{run}`")));
        };
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("invalid utf8 in number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::msg(format!("bad number `{text}`")))
    }

    /// Consume RFC 8259's `number`,
    /// `-`? (`0` | [1-9][0-9]*) (`.` [0-9]+)? ([eE] [+-]? [0-9]+)?,
    /// and say whether it has a fraction or an exponent. `None` when the
    /// grammar fails: Rust's float parser alone would also take `01`, `1.`
    /// and `1.e5`.
    fn rfc_number(&mut self) -> Option<bool> {
        self.eat_byte(b'-');
        if !self.eat_byte(b'0') {
            self.digits()?;
        }
        let fraction = self.eat_byte(b'.');
        if fraction {
            self.digits()?;
        }
        let exponent = self.eat_byte(b'e') || self.eat_byte(b'E');
        if exponent {
            let _ = self.eat_byte(b'+') || self.eat_byte(b'-');
            self.digits()?;
        }
        Some(fraction || exponent)
    }

    /// Consume one or more digits.
    fn digits(&mut self) -> Option<()> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        (self.pos > start).then_some(())
    }

    /// Consume `b` if it is next.
    fn eat_byte(&mut self, b: u8) -> bool {
        let next = self.peek() == Some(b);
        if next {
            self.pos += 1;
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_text_round_trip() {
        let v = json!({
            "name": "glint",
            "n": 3usize,
            "f": 2.5f32,
            "flag": true,
            "list": vec![1u32, 2, 3],
            "nested": json!({"x": -1i64}),
            "missing": Value::Null,
        });
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
        let pretty = to_string_pretty(&v).unwrap();
        let back2: Value = from_str(&pretty).unwrap();
        assert_eq!(back2, v);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for &x in &[0.1f64, 1e300, -2.5e-10, 1.0 / 3.0] {
            let text = to_string(&x).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back, x);
        }
        let text = to_string(&f64::NAN).unwrap();
        assert_eq!(text, "null");
    }

    #[test]
    fn escapes() {
        let s = "a\"b\\c\nd\te\u{1f600}".to_string();
        let text = to_string(&s).unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, s);
    }
}
