//! Offline stand-in for `serde_json`: prints and parses JSON text for the
//! vendored `serde` shim's [`Value`] model.
//!
//! Supports exactly the API the workspace uses: [`to_string`],
//! [`to_string_pretty`], [`from_str`] and [`Error`]. Maps serialize as arrays
//! of `[key, value]` pairs (see the serde shim docs), which is valid JSON and
//! round-trips through [`from_str`].

use serde::{Deserialize, Serialize, Value};

/// JSON (de)serialization error.
pub type Error = serde::Error;

/// Serialize `value` to compact JSON text.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serialize `value` to human-indented JSON text.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parse a value of type `T` from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    T::from_value(&v)
}

// ---------------------------------------------------------------------------
// Printing.
// ---------------------------------------------------------------------------

fn write_escaped(s: &str, out: &mut String) {
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

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    let pad = |out: &mut String, d: usize| {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * d));
        }
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                out.push_str(&format!("{f}"));
                if f.fract() == 0.0 && !format!("{f}").contains(['e', '.']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_escaped(s, out),
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
                pad(out, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            pad(out, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, depth + 1);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, depth + 1);
            }
            pad(out, depth);
            out.push('}');
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error::msg(format!(
                "unexpected input {other:?} at offset {}",
                self.pos
            ))),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(Error::msg(format!(
                "invalid literal at offset {}",
                self.pos
            )))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::msg("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.read_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: a low surrogate escape must
                                // follow (JSON encodes non-BMP characters as
                                // surrogate pairs).
                                if self.bytes.get(self.pos) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 1) != Some(&b'u')
                                {
                                    return Err(Error::msg("unpaired high surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.read_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error::msg("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(Error::msg("unpaired low surrogate"));
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::msg("bad \\u code point"))?,
                            );
                            continue;
                        }
                        other => {
                            return Err(Error::msg(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run of plain bytes up to the next
                    // quote or escape, validating UTF-8 once per run — one
                    // validation per *character* would make parsing
                    // quadratic in the document size.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error::msg("invalid UTF-8 in string"))?;
                    out.push_str(run);
                }
            }
        }
    }

    /// Read exactly four hex digits at the cursor (the XXXX of `\uXXXX`).
    fn read_hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::msg("truncated \\u escape"))?;
        let code = u32::from_str_radix(
            std::str::from_utf8(hex).map_err(|_| Error::msg("bad \\u escape"))?,
            16,
        )
        .map_err(|_| Error::msg("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("bad number"))?;
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::msg(format!("bad number `{text}`")))
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected `,` or `]`, got {other:?} at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected `,` or `}}`, got {other:?} at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_collections() {
        let v = vec![1u32, 2, 3];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[1,2,3]");
        assert_eq!(from_str::<Vec<u32>>(&s).unwrap(), v);

        let s = to_string(&Some("a\"b\n".to_string())).unwrap();
        assert_eq!(from_str::<Option<String>>(&s).unwrap().unwrap(), "a\"b\n");

        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<i64>("-12").unwrap(), -12);
        assert_eq!(from_str::<f64>("2.5").unwrap(), 2.5);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v: Vec<(String, u32)> = vec![("x".into(), 1), ("y".into(), 2)];
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        assert_eq!(from_str::<Vec<(String, u32)>>(&pretty).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<u32>("12 garbage").is_err());
        assert!(from_str::<u32>("\"str\"").is_err());
        assert!(from_str::<Vec<u32>>("[1,").is_err());
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            from_str::<String>("\"\\ud83d\\ude00\"").unwrap(),
            "\u{1F600}"
        );
        assert_eq!(from_str::<String>("\"\\u00e9x\"").unwrap(), "éx");
        assert!(from_str::<String>("\"\\ud83d\"").is_err(), "unpaired high");
        assert!(from_str::<String>("\"\\ude00\"").is_err(), "unpaired low");
        assert!(from_str::<String>("\"\\ud83d\\u0041\"").is_err());
    }

    /// `Serialize::stream` must emit exactly the events a walk of
    /// `to_value`'s tree emits — for every shape the derive supports and
    /// every container impl — or content hashes would depend on which of
    /// the two a caller happened to use.
    #[test]
    fn derived_stream_matches_the_value_tree_for_every_shape() {
        use serde::{Serialize, Sink};
        use std::collections::{BTreeMap, BTreeSet};

        #[derive(Default)]
        struct Log(Vec<String>);
        impl Sink for Log {
            fn null(&mut self) {
                self.0.push("null".into());
            }
            fn bool(&mut self, b: bool) {
                self.0.push(format!("bool {b}"));
            }
            fn int(&mut self, n: i64) {
                self.0.push(format!("int {n}"));
            }
            fn uint(&mut self, n: u64) {
                self.0.push(format!("uint {n}"));
            }
            fn float(&mut self, f: f64) {
                self.0.push(format!("float {f}"));
            }
            fn str(&mut self, s: &str) {
                self.0.push(format!("str {s:?}"));
            }
            fn array(&mut self, len: usize) {
                self.0.push(format!("array {len}"));
            }
            fn object(&mut self, len: usize) {
                self.0.push(format!("object {len}"));
            }
            fn key(&mut self, k: &str) {
                self.0.push(format!("key {k:?}"));
            }
        }

        #[derive(Serialize)]
        struct Unit;
        #[derive(Serialize)]
        struct Newtype(u32);
        #[derive(Serialize)]
        struct Pair(i8, String);
        #[derive(Serialize)]
        enum Choice {
            Plain,
            One(Newtype),
            Two(u8, bool),
            Named { x: f32, y: Option<char> },
        }
        #[derive(Serialize)]
        struct Everything {
            unit: Unit,
            pair: Pair,
            choices: Vec<Choice>,
            #[serde(skip)]
            _scratch: u64,
            map: BTreeMap<u16, (u8, String)>,
            set: BTreeSet<i64>,
            nothing: Option<u8>,
            boxed: Box<Newtype>,
            empty: (),
        }

        let value = Everything {
            unit: Unit,
            pair: Pair(-3, "p".into()),
            choices: vec![
                Choice::Plain,
                Choice::One(Newtype(7)),
                Choice::Two(1, true),
                Choice::Named {
                    x: 0.5,
                    y: Some('é'),
                },
                Choice::Named { x: 1.0, y: None },
            ],
            _scratch: 99,
            map: [(2, (3, "m".to_string()))].into_iter().collect(),
            set: [-1, 4].into_iter().collect(),
            nothing: None,
            boxed: Box::new(Newtype(8)),
            empty: (),
        };
        let (mut direct, mut via_tree) = (Log::default(), Log::default());
        value.stream(&mut direct);
        value.to_value().stream(&mut via_tree);
        assert_eq!(direct.0, via_tree.0);
        assert!(direct.0.contains(&"key \"choices\"".to_string()));
        assert!(!direct.0.iter().any(|e| e.contains("_scratch")));
    }
}
