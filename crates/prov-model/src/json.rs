//! JSON serialization and parsing for [`Value`].
//!
//! Implemented in-repo (rather than pulling `serde_json`) because provenance
//! messages are the lingua franca of every component and the whole stack
//! needs exactly one canonical, deterministic rendering.

use crate::value::{Map, Sym, Value};
use std::fmt::Write as _;

/// Error raised while parsing JSON text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Serialize a value to compact JSON.
pub fn to_string(value: &Value) -> String {
    let mut out = String::with_capacity(value.approx_size());
    write_value(&mut out, value, None, 0, usize::MAX);
    out
}

/// The first `max_chars` chars of [`to_string`], serializing array and
/// object members only until that many are written: the cost follows the
/// prefix, not the size of the value.
pub fn to_string_clipped(value: &Value, max_chars: usize) -> String {
    let mut out = String::new();
    write_value(&mut out, value, None, 0, max_chars);
    if let Some((end, _)) = out.char_indices().nth(max_chars) {
        out.truncate(end);
    }
    out
}

/// Serialize a value to pretty-printed JSON with two-space indentation.
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = String::with_capacity(value.approx_size() * 2);
    write_value(&mut out, value, Some(2), 0, usize::MAX);
    out
}

/// True once `out` holds at least `chars` chars.
fn written(out: &str, chars: usize) -> bool {
    out.len() >= chars && out.chars().count() >= chars
}

/// Append `value` to `out`; array and object members stop once `out`
/// holds `stop` chars, leaving the rendering unfinished.
fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize, stop: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => write_float(out, *f),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if written(out, stop) {
                    return;
                }
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1, stop);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if written(out, stop) {
                    return;
                }
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, v, indent, depth + 1, stop);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_float(out: &mut String, f: f64) {
    if f.is_nan() || f.is_infinite() {
        // JSON has no NaN/Inf; emit null like most tolerant encoders.
        out.push_str("null");
    } else if f == f.trunc() {
        // Keep a trailing `.0` so floats round-trip as floats — for any
        // magnitude (large integral floats would otherwise re-parse as
        // integers; found by the json_roundtrip property test).
        let _ = write!(out, "{f:.1}");
    } else {
        let _ = write!(out, "{f}");
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse JSON text into a [`Value`].
pub fn from_str(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            // Payload strings are unbounded-cardinality; keep them out of
            // the interner (keys intern in `parse_object` instead).
            Some(b'"') => Ok(Value::Str(Sym::new(self.parse_string()?))),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(self.err(format!("unexpected character '{}'", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, kw: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(self.err(format!("invalid literal, expected '{kw}'")))
        }
    }

    fn parse_object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.parse_value()?;
            // Keys are the repeated vocabulary interning exists for; the
            // interner's capacity bound contains pathological inputs.
            map.insert(Sym::intern(&key), val);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::object(map)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::array(items)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'b') => s.push('\u{08}'),
                    Some(b'f') => s.push('\u{0C}'),
                    Some(b'u') => {
                        let cp = self.parse_hex4()?;
                        // Handle UTF-16 surrogate pairs.
                        let ch = if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("expected low surrogate"));
                            }
                            let lo = self.parse_hex4()?;
                            let combined =
                                0x10000 + ((cp - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                            char::from_u32(combined)
                        } else {
                            char::from_u32(cp)
                        };
                        s.push(ch.ok_or_else(|| self.err("invalid unicode escape"))?);
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(b) if b < 0x80 => s.push(b as char),
                Some(b) => {
                    // Multi-byte UTF-8: copy raw continuation bytes.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated UTF-8 sequence"));
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    s.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            cp = cp * 16 + d;
        }
        Ok(cp)
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("invalid float literal"))
        } else {
            // Large integers overflow to float rather than failing.
            match text.parse::<i64>() {
                Ok(i) => Ok(Value::Int(i)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| self.err("invalid integer literal")),
            }
        }
    }
}

fn utf8_width(first: u8) -> usize {
    if first >= 0xF0 {
        4
    } else if first >= 0xE0 {
        3
    } else {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{arr, obj};

    #[test]
    fn clipped_is_a_char_prefix_of_the_full_rendering() {
        let long: Vec<Value> = (0..64).map(|i| Value::Float(i as f64 / 7.0)).collect();
        let values = [
            Value::Null,
            Value::Int(-12345),
            Value::Float(f64::NAN),
            Value::from("héllo \"wörld\" ✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓"),
            Value::array(Vec::new()),
            Value::array(long),
            arr![
                1,
                arr![2, arr![3, "ééééééééééééééééééééééééééééééééééééééé"]],
                4
            ],
            obj! {"a" => obj! {"b" => arr![1.5, 2.5, 3.5]}, "c" => "✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓"},
        ];
        for v in &values {
            let full = to_string(v);
            for max in 0..=full.chars().count() + 2 {
                let want: String = full.chars().take(max).collect();
                assert_eq!(to_string_clipped(v, max), want, "{full} at {max}");
            }
        }
    }

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "42", "-7", "3.5", "\"hi\""] {
            let v = from_str(text).unwrap();
            assert_eq!(to_string(&v), text);
        }
    }

    #[test]
    fn float_keeps_point() {
        assert_eq!(to_string(&Value::Float(5.0)), "5.0");
        let back = from_str("5.0").unwrap();
        assert_eq!(back, Value::Float(5.0));
    }

    #[test]
    fn nested_roundtrip() {
        let v = obj! {
            "task_id" => "1753457858.952133_0_3_973",
            "used" => obj! { "e0" => -155.033799510504, "frags" => obj!{ "label" => "C-H_3" } },
            "generated" => obj! { "bd_energy" => 98.64865792890485 },
            "telemetry" => arr![23.4, 53.8],
            "ok" => true,
        };
        let text = to_string(&v);
        let back = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn string_escapes() {
        let v = Value::Str("line1\nline2\t\"quoted\" \\slash".into());
        let text = to_string(&v);
        assert_eq!(from_str(&text).unwrap(), v);
    }

    #[test]
    fn unicode_escape() {
        let v = from_str("\"\\u00e9\\u20ac\"").unwrap();
        assert_eq!(v.as_str(), Some("é€"));
        // Surrogate pair for 😀 (U+1F600).
        let v = from_str("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn raw_utf8_passthrough() {
        let v = from_str("\"héllo wörld 😀\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo wörld 😀"));
    }

    #[test]
    fn errors_carry_offsets() {
        let e = from_str("{\"a\": }").unwrap_err();
        assert!(e.offset > 0);
        assert!(from_str("").is_err());
        assert!(from_str("[1,2").is_err());
        assert!(from_str("{\"a\":1} extra").is_err());
    }

    #[test]
    fn pretty_printing_is_stable() {
        let v = obj! {"b" => 1, "a" => arr![1, 2]};
        let pretty = to_string_pretty(&v);
        assert!(pretty.contains("\n"));
        assert_eq!(from_str(&pretty).unwrap(), v);
        // BTreeMap ordering: "a" before "b".
        assert!(pretty.find("\"a\"").unwrap() < pretty.find("\"b\"").unwrap());
    }

    #[test]
    fn nan_serializes_as_null() {
        assert_eq!(to_string(&Value::Float(f64::NAN)), "null");
    }

    #[test]
    fn big_int_overflows_to_float() {
        let v = from_str("99999999999999999999999").unwrap();
        assert!(matches!(v, Value::Float(_)));
    }

    #[test]
    fn listing1_message_parses() {
        // Abbreviated form of the paper's Listing 1.
        let text = r#"{
            "task_id": "1753457858.952133_0_3_973",
            "campaign_id": "0552ae57-1273-4ef8-a23b-c5ae6dd0c080",
            "activity_id": "run_individual_bde",
            "used": {"e0": -155.033799510504, "frags": {"label": "C-H_3", "fragment2": "[H]"}},
            "generated": {"bond_id": "C-H_3", "bd_energy": 98.64865792890485},
            "started_at": 1753457858.952133,
            "ended_at": 1753457859.009404,
            "hostname": "frontier00084.frontier.olcf.ornl.gov",
            "status": "FINISHED",
            "type": "task"
        }"#;
        let v = from_str(text).unwrap();
        assert_eq!(
            v.get_path("generated.bond_id").and_then(Value::as_str),
            Some("C-H_3")
        );
        assert_eq!(
            v.get_path("used.frags.label").and_then(Value::as_str),
            Some("C-H_3")
        );
    }
}
