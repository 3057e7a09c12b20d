//! The workspace's one hand-rolled JSON reader and writer.
//!
//! [`parse`] reads the full JSON grammar (objects, arrays, strings with
//! escapes, numbers, booleans, null) into a [`JsonValue`] tree, so the
//! profiler can load `Profile` JSON back (for `sympack-prof report` and
//! `chrome`) and the property tests can verify that the writers emit valid
//! JSON without reaching for an external crate. [`Obj`] and [`Arr`] write
//! every document.

/// A parsed JSON value. Object keys keep insertion order (a `Vec`, not a
/// map) — profiles are small and order-preserving output is nice for diffs.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// A count: a whole number in `0..=2^53` (each exact in an `f64`);
    /// anything else — `-1`, `1.5`, `1e300` — is `None`, never truncated.
    pub fn as_u64(&self) -> Option<u64> {
        let x = self.as_f64()?;
        (x >= 0.0 && x.fract() == 0.0 && x <= (1u64 << 53) as f64).then_some(x as u64)
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

// ----- writer -----
//
// The reverse direction: every JSON document in the workspace (metrics and
// telemetry snapshots, roofline samples, BENCH rows, profiles and Chrome
// traces) is emitted through these two builders instead of hand-rolled
// `format!` strings, so the formatting rules live in exactly one place:
// numbers use Rust's shortest-roundtrip `Display` (bit-deterministic for a
// given value) and strings go through `json_escape`. `finish` emits no
// whitespace; `finish_lines` puts one element per line, the layout of the
// committed profile and BENCH files (byte-compared by their tests).

/// Format an `f64` the way every writer in this crate does: `Display`
/// (shortest roundtrip). Non-finite values have no JSON spelling; callers
/// are expected to keep them out (empty-distribution quantiles are defined
/// as 0.0 for exactly this reason).
pub(crate) fn fmt_f64(v: f64) -> String {
    debug_assert!(v.is_finite(), "non-finite value in a JSON document");
    format!("{v}")
}

/// A JSON string literal: `s` escaped and in double quotes.
fn quote(s: &str) -> String {
    format!("\"{}\"", crate::json_escape(s))
}

/// `open`, the items separated by commas, `close`; with `lines`, each item
/// on a line of its own.
fn enclose(open: char, items: &[String], close: char, lines: bool) -> String {
    if lines {
        format!("{open}\n{}\n{close}", items.join(",\n"))
    } else {
        format!("{open}{}{close}", items.join(","))
    }
}

/// Builder for a JSON object: `Obj::new().u64("a", 1).finish()` →
/// `{"a":1}`. Field order is emission order; keys are escaped.
#[derive(Debug, Default)]
pub struct Obj {
    fields: Vec<String>,
}

impl Obj {
    /// Start an empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    fn field(mut self, k: &str, v: &str) -> Self {
        self.fields.push(format!("{}:{v}", quote(k)));
        self
    }

    /// Unsigned integer field.
    pub fn u64(self, k: &str, v: u64) -> Self {
        self.field(k, &v.to_string())
    }

    /// Float field (`Display` formatting, matching every writer here).
    pub fn f64(self, k: &str, v: f64) -> Self {
        self.field(k, &fmt_f64(v))
    }

    /// Boolean field.
    pub fn bool(self, k: &str, v: bool) -> Self {
        self.field(k, if v { "true" } else { "false" })
    }

    /// Escaped string field.
    pub fn str(self, k: &str, v: &str) -> Self {
        self.field(k, &quote(v))
    }

    /// Pre-rendered JSON field (a nested object/array built separately).
    pub fn raw(self, k: &str, v: &str) -> Self {
        self.field(k, v)
    }

    /// Close the object.
    pub fn finish(self) -> String {
        enclose('{', &self.fields, '}', false)
    }

    /// Close the object with one field per line.
    pub fn finish_lines(self) -> String {
        enclose('{', &self.fields, '}', true)
    }
}

/// Builder for a JSON array of pre-rendered elements.
#[derive(Debug, Default)]
pub struct Arr {
    items: Vec<String>,
}

impl Arr {
    /// Start an empty array.
    pub fn new() -> Self {
        Arr::default()
    }

    /// Append one pre-rendered JSON element.
    pub fn raw(mut self, v: impl Into<String>) -> Self {
        self.items.push(v.into());
        self
    }

    /// Append one pre-rendered element in place (loop-friendly).
    pub fn push(&mut self, v: impl Into<String>) {
        self.items.push(v.into());
    }

    /// Append one float element.
    pub fn f64(self, v: f64) -> Self {
        self.raw(fmt_f64(v))
    }

    /// Append one unsigned integer element.
    pub fn u64(self, v: u64) -> Self {
        self.raw(v.to_string())
    }

    /// Append one escaped string element.
    pub fn str(self, v: &str) -> Self {
        self.raw(quote(v))
    }

    /// Close the array.
    pub fn finish(self) -> String {
        enclose('[', &self.items, ']', false)
    }

    /// Close the array with one element per line.
    pub fn finish_lines(self) -> String {
        enclose('[', &self.items, ']', true)
    }
}

/// Collect pre-rendered elements: `rows.map(Row::to_json).collect::<Arr>()`.
impl FromIterator<String> for Arr {
    fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
        Arr {
            items: iter.into_iter().collect(),
        }
    }
}

/// Render a parsed [`JsonValue`] back to compact JSON (numbers via
/// `fmt_f64`, strings escaped). `parse(write(v)) == v` for any finite
/// tree; used by `sympack-top --replay` to normalize snapshots.
pub fn write(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(x) => fmt_f64(*x),
        JsonValue::Str(s) => quote(s),
        JsonValue::Arr(items) => items.iter().map(write).collect::<Arr>().finish(),
        JsonValue::Obj(fields) => fields
            .iter()
            .fold(Obj::new(), |o, (k, val)| o.raw(k, &write(val)))
            .finish(),
    }
}

/// Parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub pos: usize,
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parse a complete JSON document (exactly one value plus whitespace).
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced pos already
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid; copy the whole scalar through).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().unwrap();
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Read 4 hex digits starting at `pos` (the character after `u`),
    /// leaving `pos` one past the last digit.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            cp = cp * 16 + d;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v =
            parse(r#"{"a": [1, 2.5, -3e-2], "b": {"c": "x\ny", "d": null}, "e": true}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64().unwrap(),
            -0.03
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&JsonValue::Null));
        assert_eq!(v.get("e"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#""q\"b\\sAé😀""#).unwrap();
        assert_eq!(v.as_str(), Some("q\"b\\sAé😀"));
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        let v = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        assert!(parse("\"\\ud83d\"").is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("01a").is_err());
    }

    #[test]
    fn obj_and_arr_builders_emit_parseable_json() {
        let doc = Obj::new()
            .u64("count", 3)
            .f64("mean", 2.5)
            .bool("ok", true)
            .str("name", "weird\"quote\\slash\n")
            .raw("nested", &Obj::new().f64("x", -0.25).finish())
            .raw("list", &Arr::new().f64(1.0).f64(2.0).finish())
            .finish();
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("count").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("mean").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            v.get("name").unwrap().as_str(),
            Some("weird\"quote\\slash\n")
        );
        assert_eq!(
            v.get("nested").unwrap().get("x").unwrap().as_f64(),
            Some(-0.25)
        );
        assert_eq!(v.get("list").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(Obj::new().finish(), "{}");
        assert_eq!(Arr::new().finish(), "[]");
    }

    #[test]
    fn as_u64_takes_only_exact_counts() {
        let count = |doc: &str| parse(doc).unwrap().as_u64();
        assert_eq!(count("0"), Some(0));
        assert_eq!(count("42"), Some(42));
        assert_eq!(count("9007199254740992"), Some(1 << 53));
        for doc in ["-1", "1.5", "-235.7", "9007199254740994", "1e300", "\"7\""] {
            assert_eq!(count(doc), None, "{doc}");
        }
    }

    #[test]
    fn finish_lines_puts_one_element_per_line() {
        let obj = Obj::new().u64("a", 1).raw("b", &Arr::new().u64(2).finish());
        assert_eq!(obj.finish_lines(), "{\n\"a\":1,\n\"b\":[2]\n}");
        let arr: Arr = ["{}".to_string(), "[]".to_string()].into_iter().collect();
        assert_eq!(arr.str("c\"").finish_lines(), "[\n{},\n[],\n\"c\\\"\"\n]");
        assert_eq!(Arr::new().finish_lines(), "[\n\n]");
    }

    #[test]
    fn write_roundtrips_parsed_trees() {
        let doc = r#"{"a":[1,2.5,-0.03],"b":{"c":"x\ny","d":null},"e":true}"#;
        let v = parse(doc).unwrap();
        let out = write(&v);
        assert_eq!(parse(&out).unwrap(), v);
        // Idempotent: writing the reparse reproduces the same bytes.
        assert_eq!(write(&parse(&out).unwrap()), out);
    }

    #[test]
    fn roundtrips_escaped_writer_output() {
        let s = "weird\"name\\with\ncontrols\u{1}";
        let doc = format!("{{\"k\":\"{}\"}}", crate::json_escape(s));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(s));
    }
}
