#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! Minimal JSON for what ADA writes as text: its label files, metrics
//! snapshots and trace exports. The formats are small and fixed, so a
//! small value model keeps the build dependency-free. Numbers are stored
//! as `f64`, which is exact for integers up to 2^53 — far beyond any
//! offset this system produces.
//!
//! Output is deterministic: objects serialize in insertion order and the
//! writer has a single canonical rendering (no whitespace).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (exact for integers below 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved and keys are looked up
    /// linearly (objects here have a handful of keys).
    Obj(Vec<(String, Value)>),
}

/// Parse or conversion failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Value {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Integer-valued number.
    pub fn num_u(n: u64) -> Value {
        Value::Num(n as f64)
    }

    /// String value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object field, or an error naming the missing key.
    pub fn field(&self, key: &str) -> Result<&Value, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError(format!("missing field '{}'", key)))
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Value::Str(s) => Ok(s),
            other => err(format!("expected string, got {:?}", other)),
        }
    }

    /// Non-negative integer content.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Ok(*n as u64),
            other => err(format!("expected unsigned integer, got {:?}", other)),
        }
    }

    /// Non-negative integer as `usize`.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        Ok(self.as_u64()? as usize)
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Result<&[Value], JsonError> {
        match self {
            Value::Arr(items) => Ok(items),
            other => err(format!("expected array, got {:?}", other)),
        }
    }

    /// Object pairs, if this is an object.
    pub fn as_obj(&self) -> Result<&[(String, Value)], JsonError> {
        match self {
            Value::Obj(pairs) => Ok(pairs),
            other => err(format!("expected object, got {:?}", other)),
        }
    }

    /// Canonical compact rendering.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Canonical compact rendering as bytes.
    pub fn to_vec(&self) -> Vec<u8> {
        self.to_json().into_bytes()
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{}", n);
                }
            }
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

/// Parse a JSON document (rejects trailing garbage).
pub fn parse(bytes: &[u8]) -> Result<Value, JsonError> {
    let text = std::str::from_utf8(bytes).map_err(|_| JsonError("invalid utf-8".into()))?;
    let mut p = Parser {
        chars: text.char_indices().peekable(),
        text,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.chars.peek().is_some() {
        return err("trailing characters after document");
    }
    Ok(v)
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    text: &'a str,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            self.chars.next();
        }
    }

    fn expect_char(&mut self, want: char) -> Result<(), JsonError> {
        match self.chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => err(format!("expected '{}' at byte {}, got '{}'", want, i, c)),
            None => err(format!("expected '{}', got end of input", want)),
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.chars.peek().copied() {
            Some((_, '{')) => self.object(),
            Some((_, '[')) => self.array(),
            Some((_, '"')) => Ok(Value::Str(self.string()?)),
            Some((_, 't')) => self.literal("true", Value::Bool(true)),
            Some((_, 'f')) => self.literal("false", Value::Bool(false)),
            Some((_, 'n')) => self.literal("null", Value::Null),
            Some((_, c)) if c == '-' || c.is_ascii_digit() => self.number(),
            Some((i, c)) => err(format!("unexpected '{}' at byte {}", c, i)),
            None => err("unexpected end of input"),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        for want in word.chars() {
            match self.chars.next() {
                Some((_, c)) if c == want => {}
                _ => return err(format!("invalid literal (expected '{}')", word)),
            }
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self
            .chars
            .peek()
            .map(|(i, _)| *i)
            .unwrap_or(self.text.len());
        let mut end = start;
        while let Some((i, c)) = self.chars.peek().copied() {
            if c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' || c.is_ascii_digit() {
                end = i + c.len_utf8();
                self.chars.next();
            } else {
                break;
            }
        }
        self.text[start..end]
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|_| JsonError(format!("invalid number '{}'", &self.text[start..end])))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_char('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                Some((_, '"')) => return Ok(out),
                Some((_, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'b')) => out.push('\u{8}'),
                    Some((_, 'f')) => out.push('\u{c}'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .chars
                                .next()
                                .and_then(|(_, c)| c.to_digit(16))
                                .ok_or_else(|| JsonError("bad \\u escape".into()))?;
                            code = code * 16 + d;
                        }
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return err(format!("bad escape {:?}", other)),
                },
                Some((_, c)) => out.push(c),
                None => return err("unterminated string"),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect_char('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if matches!(self.chars.peek(), Some((_, ']'))) {
            self.chars.next();
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.chars.next() {
                Some((_, ',')) => continue,
                Some((_, ']')) => return Ok(Value::Arr(items)),
                _ => return err("expected ',' or ']' in array"),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect_char('{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if matches!(self.chars.peek(), Some((_, '}'))) {
            self.chars.next();
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_char(':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.chars.next() {
                Some((_, ',')) => continue,
                Some((_, '}')) => return Ok(Value::Obj(pairs)),
                _ => return err("expected ',' or '}' in object"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let v = Value::obj(vec![
            ("name", Value::str("trj\"x\"")),
            ("natoms", Value::num_u(40923)),
            ("ok", Value::Bool(true)),
            ("none", Value::Null),
            (
                "ranges",
                Value::Arr(vec![
                    Value::Arr(vec![Value::num_u(0), Value::num_u(10)]),
                    Value::Arr(vec![Value::num_u(20), Value::num_u(30)]),
                ]),
            ),
        ]);
        let text = v.to_json();
        assert_eq!(parse(text.as_bytes()).unwrap(), v);
    }

    #[test]
    fn accessors() {
        let v = parse(br#"{"a": 3, "b": "x", "c": [1, 2]}"#).unwrap();
        assert_eq!(v.field("a").unwrap().as_u64().unwrap(), 3);
        assert_eq!(v.field("b").unwrap().as_str().unwrap(), "x");
        assert_eq!(v.field("c").unwrap().as_arr().unwrap().len(), 2);
        assert!(v.field("zzz").is_err());
        assert!(v.field("b").unwrap().as_u64().is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse(b"{not json").is_err());
        assert!(parse(b"").is_err());
        assert!(parse(b"{} trailing").is_err());
        assert!(parse(b"{\"a\": }").is_err());
        assert!(parse(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn whitespace_and_escapes() {
        let v = parse(b" { \"k\" : \"line\\nbreak\\u0041\" } ").unwrap();
        assert_eq!(v.field("k").unwrap().as_str().unwrap(), "line\nbreakA");
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Value::num_u(123456789).to_json(), "123456789");
        assert_eq!(Value::Num(1.5).to_json(), "1.5");
    }
}
