//! A minimal, dependency-free JSON value with writer and parser —
//! just enough for the sweep checkpoint file (`checkpoint.jsonl`).
//!
//! Numbers are unsigned 64-bit integers only: every float in a
//! checkpoint is stored as its IEEE-754 bit pattern
//! (`f64::to_bits`), which round-trips exactly where a decimal
//! rendering would not — resumed sweeps must merge to byte-identical
//! artifacts. The parser is torn-line tolerant by construction: any
//! malformed input is a typed error the checkpoint loader can skip.

use std::fmt::Write as _;

/// A JSON value restricted to the checkpoint subset.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (floats travel as bit patterns).
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved when writing.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Wraps a float as its exact bit pattern.
    pub fn bits(f: f64) -> Value {
        Value::UInt(f.to_bits())
    }

    /// Object constructor shorthand.
    pub fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The value under `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer payload, if any.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The float decoded from a bit pattern, if this is an integer.
    pub fn as_bits_f64(&self) -> Option<f64> {
        self.as_u64().map(f64::from_bits)
    }

    /// The string payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool payload, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, if any.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to a single line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// `s` as a JSON string literal, quotes included.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(&mut out, s);
    out
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

/// Why a parse failed; carries the byte offset for diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset where parsing stopped.
    pub at: usize,
    /// What was wrong.
    pub reason: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.reason)
    }
}

/// Parses one complete JSON value; trailing input is an error (a
/// torn checkpoint line must not half-parse as valid).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(ParseError {
            at: pos,
            reason: "trailing input after value",
        });
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_byte(
    bytes: &[u8],
    pos: &mut usize,
    b: u8,
    reason: &'static str,
) -> Result<(), ParseError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(ParseError { at: *pos, reason })
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(ParseError {
            at: *pos,
            reason: "unexpected end of input",
        }),
        Some(b'n') => parse_literal(bytes, pos, b"null", Value::Null),
        Some(b't') => parse_literal(bytes, pos, b"true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, b"false", Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => {
                        return Err(ParseError {
                            at: *pos,
                            reason: "expected ',' or ']' in array",
                        })
                    }
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect_byte(bytes, pos, b':', "expected ':' after object key")?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => {
                        return Err(ParseError {
                            at: *pos,
                            reason: "expected ',' or '}' in object",
                        })
                    }
                }
            }
        }
        Some(b'0'..=b'9') => {
            let start = *pos;
            while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
            let digits = &input_slice(bytes, start, *pos);
            digits
                .parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| ParseError {
                    at: start,
                    reason: "integer out of u64 range",
                })
        }
        Some(_) => Err(ParseError {
            at: *pos,
            reason: "unexpected character",
        }),
    }
}

fn input_slice(bytes: &[u8], start: usize, end: usize) -> String {
    String::from_utf8_lossy(&bytes[start..end]).into_owned()
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &'static [u8],
    value: Value,
) -> Result<Value, ParseError> {
    if bytes.len() >= *pos + lit.len() && &bytes[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(ParseError {
            at: *pos,
            reason: "malformed literal",
        })
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect_byte(bytes, pos, b'"', "expected '\"'")?;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            None => {
                return Err(ParseError {
                    at: *pos,
                    reason: "unterminated string",
                })
            }
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| ParseError {
                    at: *pos,
                    reason: "invalid UTF-8 in string",
                });
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'u') => {
                        if bytes.len() < *pos + 5 {
                            return Err(ParseError {
                                at: *pos,
                                reason: "truncated \\u escape",
                            });
                        }
                        let hex = input_slice(bytes, *pos + 1, *pos + 5);
                        let code = u32::from_str_radix(&hex, 16).map_err(|_| ParseError {
                            at: *pos,
                            reason: "malformed \\u escape",
                        })?;
                        let c = char::from_u32(code).ok_or(ParseError {
                            at: *pos,
                            reason: "\\u escape is not a scalar value",
                        })?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => {
                        return Err(ParseError {
                            at: *pos,
                            reason: "unknown escape",
                        })
                    }
                }
                *pos += 1;
            }
            Some(&b) => {
                out.push(b);
                *pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Value::obj(vec![
            ("kind", Value::Str("cell".into())),
            ("n", Value::UInt(u64::MAX)),
            ("ok", Value::Bool(true)),
            ("none", Value::Null),
            (
                "items",
                Value::Arr(vec![Value::UInt(1), Value::Str("a\"b\\c\nd".into())]),
            ),
        ]);
        let text = v.to_json();
        assert_eq!(parse(&text).expect("round trip"), v);
    }

    #[test]
    fn floats_round_trip_exactly_as_bits() {
        for f in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, 1.0e-300, 0.1 + 0.2] {
            let text = Value::bits(f).to_json();
            let back = parse(&text)
                .expect("parses")
                .as_bits_f64()
                .expect("integer");
            assert_eq!(back.to_bits(), f.to_bits(), "{f} must round-trip");
        }
    }

    #[test]
    fn torn_lines_are_errors_not_panics() {
        for torn in [
            "",
            "{",
            "{\"kind\":\"cell\"",
            "{\"kind\":\"cell\",\"result\":{\"sent\":12",
            "nul",
            "\"unterminated",
            "[1,2",
            "{\"a\":1}trailing",
            "-5",
            "1.5",
            "{\"a\"1}",
        ] {
            assert!(parse(torn).is_err(), "{torn:?} must be rejected");
        }
    }

    #[test]
    fn control_chars_escape_and_parse() {
        let s = "\u{1}\u{2}tab\there";
        let text = Value::Str(s.into()).to_json();
        assert_eq!(parse(&text).expect("parses").as_str(), Some(s));
    }
}
