//! A dependency-free JSON value: integer-exact emission and parsing.
//!
//! The engine's corpus formats only need objects, arrays, strings, booleans,
//! `null`, and *integers* (all schedule arithmetic is integral `u64`), so
//! numbers are carried as `i128` and floating-point literals are rejected on
//! parse — round trips are exact by construction.

use std::fmt;

/// A JSON value (numbers restricted to integers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (JSON number without fraction/exponent).
    Num(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: ordered key–value pairs (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0 && *n <= u64::MAX as i128 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as `usize`, if representable.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document (rejecting trailing garbage).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => write_escaped_str(s, f),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", Json::Str(k.clone()))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` as a quoted JSON string: `"`, `\`, `\n`, `\r`, `\t` escaped,
/// other control characters as `\u00xx`, everything else verbatim. The
/// single source of truth for the crate's string escaping — both
/// [`Json::Str`]'s `Display` and the allocation-free report byte writer
/// ([`crate::report::SolveReport::write_json_line`]) go through it, so the
/// two serialization paths cannot diverge.
pub(crate) fn write_escaped_str(s: &str, out: &mut impl fmt::Write) -> fmt::Result {
    out.write_str("\"")?;
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
    out.write_str("\"")
}

/// Length of the leading run of `bytes` that holds no `"` and no
/// backslash: the part of a JSON string every parser in the crate copies
/// verbatim, in one step rather than one character at a time.
pub(crate) fn unescaped_run(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .position(|&b| b == b'"' || b == b'\\')
        .unwrap_or(bytes.len())
}

/// The decimal `u64` at the start of `bytes`, spelled exactly as `{}`
/// formats it (no sign, no leading zero), and the number of bytes it
/// takes. `None` when there are no digits, a leading zero, or overflow.
pub(crate) fn canonical_u64(bytes: &[u8]) -> Option<(u64, usize)> {
    let digits = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
    if digits == 0 || (digits > 1 && bytes[0] == b'0') {
        return None;
    }
    let mut value = 0u64;
    for &b in &bytes[..digits] {
        value = value.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
    }
    Some((value, digits))
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem.
    pub at: usize,
    /// Description.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// The tree-building parser. NOTE: `crate::jsonl`'s `Scan` is a
/// non-materializing twin of this grammar (same tokens, same restrictions,
/// same error offsets/messages) for the streaming instance decoder — a
/// change to the lexing rules here (numbers, escapes, surrogates) must be
/// mirrored there; `jsonl`'s differential tests compare the two decoders
/// line by line and catch a divergence.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            reason: reason.into(),
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
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digit"));
        }
        // RFC 8259: no leading zeros ("-0" and "0" are fine, "007" is not).
        if self.pos - digits_start > 1 && self.bytes[digits_start] == b'0' {
            return Err(self.err("leading zeros are not allowed"));
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("floating-point numbers are not supported"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits");
        // `i128::from_str` errors (rather than wrapping) on out-of-range
        // literals, which we surface as a parse error.
        text.parse::<i128>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("integer out of range `{text}`")))
    }

    /// Reads 4 hex digits starting at byte offset `at`.
    fn hex4(&self, at: usize) -> Result<u32, JsonError> {
        self.bytes
            .get(at..at + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            let code = if (0xD800..0xDC00).contains(&hex) {
                                // High surrogate: a low surrogate must follow
                                // as another \uXXXX escape (RFC 8259 §7).
                                if self.bytes.get(self.pos + 1..self.pos + 3) != Some(b"\\u") {
                                    return Err(
                                        self.err("high surrogate not followed by \\u escape")
                                    );
                                }
                                let low = self.hex4(self.pos + 3)?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(
                                        self.err("high surrogate not followed by low surrogate")
                                    );
                                }
                                self.pos += 6;
                                0x10000 + ((hex - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                hex
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, so the run ends on a char boundary of the
                    // `&str` input and slicing it is O(1).
                    let end = self.pos + unescaped_run(&self.bytes[self.pos..]);
                    out.push_str(&self.text[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let v = Json::Obj(vec![
            ("id".into(), Json::Str("a \"b\"\n".into())),
            ("n".into(), Json::Num(-42)),
            ("ok".into(), Json::Bool(true)),
            ("xs".into(), Json::Arr(vec![Json::Num(1), Json::Null])),
            ("nested".into(), Json::Obj(vec![("k".into(), Json::Num(0))])),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_and_unicode() {
        let v = Json::parse(" { \"k\" : [ 1 , \"\\u00e9✓\" ] } ").unwrap();
        assert_eq!(
            v.get("k").unwrap().as_arr().unwrap()[1].as_str(),
            Some("é✓")
        );
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse("\"\\ud83d\\ude00 ok\"").unwrap();
        assert_eq!(v, Json::Str("😀 ok".into()));
        // Lone or malformed surrogates are rejected, not mis-decoded.
        assert!(Json::parse("\"\\ud83d\"").is_err());
        assert!(Json::parse("\"\\ud83d\\u0041\"").is_err());
        assert!(Json::parse("\"\\ude00\"").is_err());
    }

    #[test]
    fn rejects_floats_and_garbage() {
        assert!(Json::parse("1.5").is_err());
        assert!(Json::parse("1e3").is_err());
        assert!(Json::parse("{}extra").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn integer_literal_edge_cases() {
        // Exactly representable extremes round trip.
        assert_eq!(
            Json::parse(&i128::MAX.to_string()).unwrap(),
            Json::Num(i128::MAX)
        );
        assert_eq!(
            Json::parse(&i128::MIN.to_string()).unwrap(),
            Json::Num(i128::MIN)
        );
        // One past the extremes: a parse error, never a wrap or a panic.
        let too_big = "170141183460469231731687303715884105728"; // i128::MAX + 1
        let err = Json::parse(too_big).unwrap_err();
        assert!(err.reason.contains("out of range"), "{err}");
        assert!(Json::parse("-170141183460469231731687303715884105729").is_err());
        // Absurdly long literals are rejected, not truncated.
        let huge = "9".repeat(200);
        assert!(Json::parse(&huge).is_err());
        assert!(Json::parse(&format!("{{\"n\":{huge}}}")).is_err());
        // `-0` is valid JSON and parses to zero.
        assert_eq!(Json::parse("-0").unwrap(), Json::Num(0));
        assert_eq!(Json::parse("0").unwrap(), Json::Num(0));
        // Leading zeros are malformed per RFC 8259.
        assert!(Json::parse("007").is_err());
        assert!(Json::parse("-012").is_err());
        assert!(Json::parse("[01]").is_err());
        // A bare sign or non-digit after `-` is malformed.
        assert!(Json::parse("-").is_err());
        assert!(Json::parse("-x").is_err());
    }

    #[test]
    fn accessors() {
        let v = Json::parse("{\"m\":3,\"s\":\"x\"}").unwrap();
        assert_eq!(v.get("m").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("m").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(-1).as_u64(), None);
    }
}
