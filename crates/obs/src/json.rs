//! Dependency-free JSON emission and validation.
//!
//! The exporters ([`crate::sink::JsonlSink`], [`crate::trace::ChromeTraceSink`],
//! [`crate::metrics::MetricsRegistry::to_json`]) render a fixed schema, so a
//! tiny escaping writer keeps this crate — and therefore the simulator's hot
//! path — free of external dependencies. [`validate`] is a strict
//! recursive-descent parser used by tests to assert exporter output is
//! well-formed JSON.

/// Escape `s` and wrap it in double quotes.
pub fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Render an `f64` as a JSON number (non-finite values become `null`,
/// which JSON cannot express otherwise).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `Display` for f64 never emits an exponent, so the output is
        // always a valid JSON number.
        s
    } else {
        "null".to_string()
    }
}

/// Incremental JSON object builder: `Obj::new().str("a", "x").num("b", 1.0).finish()`.
#[derive(Debug, Clone)]
pub struct Obj {
    buf: String,
}

impl Default for Obj {
    fn default() -> Self {
        Self::new()
    }
}

impl Obj {
    /// Start an empty object.
    pub fn new() -> Self {
        Self { buf: String::from("{") }
    }

    fn key(&mut self, k: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push_str(&quoted(k));
        self.buf.push(':');
    }

    /// Add a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(&quoted(v));
        self
    }

    /// Add a float field.
    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        self.buf.push_str(&num(v));
        self
    }

    /// Add an integer field.
    pub fn int(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Add a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Add a pre-rendered JSON value (object, array, …) verbatim.
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Close the object and return its JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Render an iterator of pre-rendered JSON values as a JSON array.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut buf = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&item);
    }
    buf.push(']');
    buf
}

/// Validate that `s` is one well-formed JSON document.
///
/// # Errors
/// Returns a message naming the byte offset of the first syntax error.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(|_| ())
}

/// A parsed JSON document.
///
/// Object keys keep insertion order is not needed for our fixed schemas, so
/// a `BTreeMap` gives deterministic iteration instead. Numbers are `f64`
/// (all values we emit fit without precision loss that matters for
/// comparison; integer counters up to 2^53 round-trip exactly).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object with deterministically ordered keys.
    Obj(std::collections::BTreeMap<String, Value>),
}

impl Value {
    /// Field lookup on an object; `None` for other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    pub fn as_obj(&self) -> Option<&std::collections::BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Parse one JSON document into a [`Value`] tree.
///
/// # Errors
/// Returns a message naming the byte offset of the first syntax error.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser { b: s.as_bytes(), i: 0 };
    p.ws();
    let v = p.parse_value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.eat(b'"')?;
        while let Some(c) = self.peek() {
            match c {
                b'"' => {
                    self.i += 1;
                    return Ok(());
                }
                b'\\' => {
                    self.i += 1;
                    match self.peek().ok_or_else(|| self.err("unterminated escape"))? {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => self.i += 1,
                        b'u' => {
                            self.i += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(h) if h.is_ascii_hexdigit() => self.i += 1,
                                    _ => return Err(self.err("bad \\u escape")),
                                }
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                0x00..=0x1F => return Err(self.err("raw control character in string")),
                _ => self.i += 1,
            }
        }
        Err(self.err("unterminated string"))
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'{' => self.parse_object(),
            b'[' => self.parse_array(),
            b'"' => self.parse_string().map(Value::Str),
            b't' => self.literal("true").map(|()| Value::Bool(true)),
            b'f' => self.literal("false").map(|()| Value::Bool(false)),
            b'n' => self.literal("null").map(|()| Value::Null),
            b'-' | b'0'..=b'9' => self.parse_number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn parse_object(&mut self) -> Result<Value, String> {
        let mut map = std::collections::BTreeMap::new();
        self.eat(b'{')?;
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.ws();
            let key = self.parse_string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            let val = self.parse_value()?;
            map.insert(key, val);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        let mut items = Vec::new();
        self.eat(b'[')?;
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.parse_value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        let start = self.i;
        self.string()?;
        // The validated span includes both quotes; unescape the interior.
        let raw = &self.b[start + 1..self.i - 1];
        let mut out = String::with_capacity(raw.len());
        let mut j = 0;
        while j < raw.len() {
            if raw[j] == b'\\' {
                j += 1;
                match raw[j] {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = std::str::from_utf8(&raw[j + 1..j + 5])
                            .map_err(|_| self.err("bad \\u escape"))?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                        // Surrogates never appear in our own output; map
                        // unpaired ones to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        j += 4;
                    }
                    _ => unreachable!("string() validated escapes"),
                }
                j += 1;
            } else {
                // Copy a full UTF-8 sequence (input was a valid &str).
                let len = match raw[j] {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                out.push_str(std::str::from_utf8(&raw[j..j + len]).expect("valid utf8"));
                j += len;
            }
        }
        Ok(out)
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        let start = self.i;
        self.number()?;
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii number");
        text.parse::<f64>().map(Value::Num).map_err(|_| self.err("number out of range"))
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let digits = |p: &mut Self| -> Result<(), String> {
            let start = p.i;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.i += 1;
            }
            if p.i == start {
                Err(p.err("expected digit"))
            } else {
                Ok(())
            }
        };
        digits(self)?;
        if self.peek() == Some(b'.') {
            self.i += 1;
            digits(self)?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            digits(self)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trip_is_valid() {
        let nasty = "a\"b\\c\nd\te\u{1}f — ünïcode";
        let doc = Obj::new().str("k", nasty).finish();
        validate(&doc).unwrap();
    }

    #[test]
    fn builder_produces_valid_json() {
        let inner = array(vec![num(1.5), "null".into(), quoted("x")]);
        let doc = Obj::new()
            .str("s", "v")
            .num("f", -2.25)
            .num("nan", f64::NAN)
            .int("i", 42)
            .bool("b", true)
            .bool("nb", false)
            .raw("arr", &inner)
            .finish();
        validate(&doc).unwrap();
        assert!(doc.contains("\"nan\":null"));
        assert!(doc.contains("\"b\":true"));
        assert!(doc.contains("\"nb\":false"));
    }

    #[test]
    fn validator_accepts_good_and_rejects_bad() {
        for good in [
            "{}",
            "[]",
            "  {\"a\": [1, 2.5, -3e-2, {\"b\": null}, true, false, \"\\u00e9\"]} ",
            "\"lone string\"",
            "-0.5",
        ] {
            validate(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\" 1}",
            "nul",
            "01abc",
            "\"unterminated",
            "{} extra",
            "{\"a\":1,}",
        ] {
            assert!(validate(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn parse_round_trips_builder_output() {
        let doc = Obj::new()
            .str("s", "a\"b\\c\nd\te — ünïcode")
            .num("f", -2.25)
            .int("i", 42)
            .bool("b", true)
            .raw("arr", &array(vec![num(1.5), "null".into()]))
            .finish();
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\nd\te — ünïcode"));
        assert_eq!(v.get("f").unwrap().as_num(), Some(-2.25));
        assert_eq!(v.get("i").unwrap().as_num(), Some(42.0));
        assert_eq!(v.get("b"), Some(&Value::Bool(true)));
        let arr = v.get("arr").unwrap().as_arr().unwrap();
        assert_eq!(arr, &[Value::Num(1.5), Value::Null]);
    }

    #[test]
    fn parse_handles_escapes_and_structure() {
        let v = parse("{\"k\": [\"\\u00e9\\u0041\", {\"n\": -3e-2}], \"e\": {}}").unwrap();
        let arr = v.get("k").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_str(), Some("éA"));
        assert_eq!(arr[1].get("n").unwrap().as_num(), Some(-0.03));
        assert!(v.get("e").unwrap().as_obj().unwrap().is_empty());
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "{} x"] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn empty_object_and_nested() {
        validate(&Obj::new().finish()).unwrap();
        let nested = Obj::new().raw("o", &Obj::new().int("x", 1).finish()).finish();
        assert_eq!(nested, "{\"o\":{\"x\":1}}");
        validate(&nested).unwrap();
    }
}
