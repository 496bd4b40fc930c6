//! JSON-lines corpus I/O: one instance (or report) per line.
//!
//! Instance lines look like
//!
//! ```json
//! {"id":"uniform-0","machines":3,"classes":[[4,3],[5],[2,2,2]]}
//! ```
//!
//! mirroring [`msrs_core::io`]'s text format (`classes[c]` lists the job
//! sizes of class `c`; job ids are assigned class by class in order, exactly
//! as [`Instance::from_classes`]). Blank lines and `#`-prefixed lines are
//! ignored. Report lines are produced by
//! [`SolveReport::to_json`](crate::report::SolveReport::to_json).
//!
//! ## The streaming decoder
//!
//! [`LineDecoder`] parses an instance line **directly into reusable
//! buffers** — a [`msrs_core::InstanceBuilder`] for the flat class data and
//! a byte buffer for the id — without building a [`Json`] tree: after
//! warm-up, decoding a line performs zero heap allocations. It validates
//! the full line (syntax *and* instance invariants) with the same error
//! classification as the tree-based parser did: JSON syntax problems win
//! over semantic ones, and semantic checks fire in field order (`machines`,
//! then `classes`, then instance construction). [`read_instance_line`] is a
//! convenience wrapper that decodes one line into an owned
//! [`SolveRequest`].

use std::fmt;

use msrs_core::{Instance, InstanceBuilder, Time};

use crate::json::{Json, JsonError};
use crate::report::SolveRequest;

/// Errors reading an instance corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusError {
    /// A line failed to parse as JSON.
    Json {
        /// 1-based line number.
        line: usize,
        /// Underlying JSON error.
        error: JsonError,
    },
    /// A line parsed but did not describe a valid instance.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Description.
        reason: String,
    },
    /// The underlying reader failed (streaming input only).
    Io {
        /// 1-based number of the line being read when the error occurred.
        line: usize,
        /// Description of the I/O error.
        message: String,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Json { line, error } => write!(f, "line {line}: {error}"),
            CorpusError::Malformed { line, reason } => write!(f, "line {line}: {reason}"),
            CorpusError::Io { line, message } => write!(f, "line {line}: I/O error: {message}"),
        }
    }
}

impl std::error::Error for CorpusError {}

/// Serializes one instance (with an optional id) as a JSON line.
pub fn write_instance_line(id: Option<&str>, inst: &Instance) -> String {
    let mut obj = Vec::new();
    if let Some(id) = id {
        obj.push(("id".into(), Json::Str(id.into())));
    }
    obj.push(("machines".into(), Json::Num(inst.machines() as i128)));
    let classes: Vec<Json> = (0..inst.num_classes())
        .map(|c| {
            Json::Arr(
                inst.class_sizes(c)
                    .iter()
                    .map(|&p| Json::Num(p as i128))
                    .collect(),
            )
        })
        .collect();
    obj.push(("classes".into(), Json::Arr(classes)));
    Json::Obj(obj).to_string()
}

/// The first semantic problem found while scanning a line (reported only
/// after the whole line proved syntactically valid, mirroring the tree
/// parser's "parse everything, then extract" order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Semantic {
    BadMachines,
    BadClasses,
    EntryNotArray,
    BadSize,
}

impl Semantic {
    fn reason(self) -> &'static str {
        match self {
            Semantic::BadMachines => "missing or invalid `machines`",
            Semantic::BadClasses => "missing or invalid `classes`",
            Semantic::EntryNotArray => "`classes` entries must be arrays",
            Semantic::BadSize => "job sizes must be non-negative integers",
        }
    }
}

/// A reusable instance-line decoder: parses
/// `{"id":…,"machines":…,"classes":[[…]]}` straight into a retained
/// [`InstanceBuilder`] and id buffer. Steady-state decoding allocates
/// nothing; only [`LineDecoder::build_request`] (the cache-miss path)
/// materializes owned data.
#[derive(Debug, Default)]
pub struct LineDecoder {
    builder: InstanceBuilder,
    id_buf: Vec<u8>,
    /// Reusable unescaped-key buffer: schema keys are matched on their
    /// *decoded* spelling (`"machines"` is `"machines"`), exactly as
    /// the tree parser's `get()` did.
    key_buf: Vec<u8>,
    has_id: bool,
}

impl LineDecoder {
    /// A fresh decoder (buffers grow on first use, then persist).
    pub fn new() -> Self {
        LineDecoder::default()
    }

    /// Decodes one instance line. On `Ok`, the [`builder`](Self::builder)
    /// holds the instance's flat class data (already checked against the
    /// [`Instance`] construction invariants) and [`id`](Self::id) the
    /// optional request id.
    pub fn decode(&mut self, line_no: usize, line: &str) -> Result<(), CorpusError> {
        self.id_buf.clear();
        self.has_id = false;
        self.builder.reset(0);
        let mut p = Scan {
            bytes: line.as_bytes(),
            pos: 0,
        };
        let mut machines: Option<usize> = None;
        let mut seen_id = false;
        let mut seen_machines = false;
        let mut seen_classes = false;
        let mut classes_ok = false;
        let mut semantic: Option<Semantic> = None;

        let to_json_err = |error: JsonError| CorpusError::Json {
            line: line_no,
            error,
        };
        let malformed = |reason: String| CorpusError::Malformed {
            line: line_no,
            reason,
        };

        p.skip_ws();
        if p.peek() != Some(b'{') {
            // Any other *valid* JSON document is handled like the tree
            // parser handled it: parse fine, then fail field extraction.
            p.skip_value().map_err(to_json_err)?;
            p.skip_ws();
            if p.pos != p.bytes.len() {
                return Err(to_json_err(p.err("trailing characters after JSON value")));
            }
            return Err(malformed(Semantic::BadMachines.reason().into()));
        }
        p.pos += 1;
        p.skip_ws();
        if p.peek() == Some(b'}') {
            p.pos += 1;
        } else {
            loop {
                p.skip_ws();
                // Keys are matched on their *unescaped* spelling (decoded
                // into a reusable buffer), matching the tree parser — an
                // escaped `"machines"` is still the `machines` key.
                p.string_into(&mut self.key_buf).map_err(to_json_err)?;
                p.skip_ws();
                p.expect(b':').map_err(to_json_err)?;
                p.skip_ws();
                // Copy the discriminant out so the key buffer's borrow does
                // not overlap the `&mut self` uses inside the arms.
                #[derive(PartialEq)]
                enum Key {
                    Id,
                    Machines,
                    Classes,
                    Other,
                }
                let key = match self.key_buf.as_slice() {
                    b"id" => Key::Id,
                    b"machines" => Key::Machines,
                    b"classes" => Key::Classes,
                    _ => Key::Other,
                };
                match key {
                    Key::Id if !seen_id => {
                        seen_id = true;
                        if p.peek() == Some(b'"') {
                            p.string_into(&mut self.id_buf).map_err(to_json_err)?;
                            self.has_id = true;
                        } else {
                            p.skip_value().map_err(to_json_err)?;
                        }
                    }
                    Key::Machines if !seen_machines => {
                        seen_machines = true;
                        if matches!(p.peek(), Some(b'-' | b'0'..=b'9')) {
                            let n = p.number().map_err(to_json_err)?;
                            machines = usize::try_from(n).ok();
                        } else {
                            p.skip_value().map_err(to_json_err)?;
                        }
                        if machines.is_none() {
                            note(&mut semantic, Semantic::BadMachines);
                        }
                    }
                    Key::Classes if !seen_classes => {
                        seen_classes = true;
                        if p.peek() == Some(b'[') {
                            classes_ok = true;
                            self.scan_classes(&mut p, &mut semantic)
                                .map_err(to_json_err)?;
                        } else {
                            p.skip_value().map_err(to_json_err)?;
                            note(&mut semantic, Semantic::BadClasses);
                        }
                    }
                    _ => {
                        p.skip_value().map_err(to_json_err)?;
                    }
                }
                p.skip_ws();
                match p.peek() {
                    Some(b',') => p.pos += 1,
                    Some(b'}') => {
                        p.pos += 1;
                        break;
                    }
                    _ => return Err(to_json_err(p.err("expected `,` or `}`"))),
                }
            }
        }
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(to_json_err(p.err("trailing characters after JSON value")));
        }

        // Syntax was fine; now surface semantic problems in the tree
        // parser's extraction order.
        if semantic == Some(Semantic::BadMachines) || machines.is_none() {
            return Err(malformed(Semantic::BadMachines.reason().into()));
        }
        if !classes_ok {
            return Err(malformed(Semantic::BadClasses.reason().into()));
        }
        if let Some(s) = semantic {
            return Err(malformed(s.reason().into()));
        }
        self.builder.set_machines(machines.expect("checked above"));
        self.builder
            .validate()
            .map_err(|e| malformed(e.to_string()))
    }

    /// Parses the `classes` array (cursor on `[`) into the builder,
    /// recording — but not bailing on — semantic problems so the rest of
    /// the line is still syntax-checked.
    fn scan_classes(
        &mut self,
        p: &mut Scan<'_>,
        semantic: &mut Option<Semantic>,
    ) -> Result<(), JsonError> {
        p.pos += 1; // consume '['
        p.skip_ws();
        if p.peek() == Some(b']') {
            p.pos += 1;
            return Ok(());
        }
        loop {
            p.skip_ws();
            if p.peek() == Some(b'[') {
                p.pos += 1;
                self.builder.begin_class();
                p.skip_ws();
                if p.peek() == Some(b']') {
                    p.pos += 1;
                } else {
                    loop {
                        p.skip_ws();
                        if matches!(p.peek(), Some(b'-' | b'0'..=b'9')) {
                            let n = p.number()?;
                            match u64::try_from(n) {
                                Ok(size) => self.builder.push_size(size as Time),
                                Err(_) => note(semantic, Semantic::BadSize),
                            }
                        } else {
                            p.skip_value()?;
                            note(semantic, Semantic::BadSize);
                        }
                        p.skip_ws();
                        match p.peek() {
                            Some(b',') => p.pos += 1,
                            Some(b']') => {
                                p.pos += 1;
                                break;
                            }
                            _ => return Err(p.err("expected `,` or `]`")),
                        }
                    }
                }
            } else {
                p.skip_value()?;
                note(semantic, Semantic::EntryNotArray);
            }
            p.skip_ws();
            match p.peek() {
                Some(b',') => p.pos += 1,
                Some(b']') => {
                    p.pos += 1;
                    return Ok(());
                }
                _ => return Err(p.err("expected `,` or `]`")),
            }
        }
    }

    /// The decoded flat instance data of the last successful
    /// [`decode`](Self::decode).
    pub fn builder(&self) -> &InstanceBuilder {
        &self.builder
    }

    /// The decoded (unescaped) id bytes — always valid UTF-8 — if the line
    /// carried a string `id`.
    pub fn id(&self) -> Option<&[u8]> {
        self.has_id.then_some(self.id_buf.as_slice())
    }

    /// [`LineDecoder::id`] as `&str`.
    pub fn id_str(&self) -> Option<&str> {
        self.id()
            .map(|b| std::str::from_utf8(b).expect("decoder emits UTF-8"))
    }

    /// Materializes an owned [`SolveRequest`] from the decoded line (the
    /// cache-miss path; this is where the allocations happen).
    pub fn build_request(&self) -> SolveRequest {
        SolveRequest {
            id: self.id_str().map(str::to_owned),
            instance: self.builder.build().expect("decode validated the instance"),
        }
    }
}

/// Records the first semantic problem of a line (later ones are masked,
/// matching the tree parser's first-error extraction order).
fn note(slot: &mut Option<Semantic>, what: Semantic) {
    if slot.is_none() {
        *slot = Some(what);
    }
}

/// A validating scanner over one line: the same grammar (and the same error
/// offsets/messages) as [`Json::parse`], but nothing is materialized —
/// values are either skipped or written into caller buffers. NOTE: this is
/// deliberately a twin of `crate::json`'s `Parser` lexing rules (numbers,
/// escapes, surrogates); keep the two in sync — the differential tests
/// below compare both decoders against each other line by line.
struct Scan<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scan<'a> {
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

    fn literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    /// Validates and skips one JSON value of any shape.
    fn skip_value(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null"),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'"') => self.string_skip(),
            Some(b'[') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    self.skip_value()?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    self.string_skip()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    self.skip_value()?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number().map(|_| ()),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses an integer literal with the same restrictions as the tree
    /// parser (no floats, no leading zeros, i128 range).
    fn number(&mut self) -> Result<i128, JsonError> {
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
        let digits = &self.bytes[digits_start..self.pos];
        // Fast path for the overwhelmingly common case — short non-negative
        // literals (job sizes, machine counts): accumulate in `u64`, which
        // 18 digits can never overflow. Long or negative literals take the
        // generic checked path.
        if digits.len() <= 18 && self.bytes[start] != b'-' {
            let mut value: u64 = 0;
            for &b in digits {
                value = value * 10 + u64::from(b - b'0');
            }
            return Ok(value as i128);
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits");
        text.parse::<i128>()
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

    /// Validates a string, discarding its content.
    fn string_skip(&mut self) -> Result<(), JsonError> {
        self.string_impl(&mut None)
    }

    /// Validates a string, writing the unescaped UTF-8 bytes into `out`
    /// (cleared first).
    fn string_into(&mut self, out: &mut Vec<u8>) -> Result<(), JsonError> {
        out.clear();
        let mut sink = Some(out);
        self.string_impl(&mut sink)
    }

    fn string_impl(&mut self, out: &mut Option<&mut Vec<u8>>) -> Result<(), JsonError> {
        let push_char = |out: &mut Option<&mut Vec<u8>>, ch: char| {
            if let Some(buf) = out {
                let mut utf8 = [0u8; 4];
                buf.extend_from_slice(ch.encode_utf8(&mut utf8).as_bytes());
            }
        };
        self.expect(b'"')?;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => push_char(out, '"'),
                        Some(b'\\') => push_char(out, '\\'),
                        Some(b'/') => push_char(out, '/'),
                        Some(b'n') => push_char(out, '\n'),
                        Some(b'r') => push_char(out, '\r'),
                        Some(b't') => push_char(out, '\t'),
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
                            push_char(
                                out,
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash: the
                    // line is a `&str` and both delimiters are ASCII, so
                    // the run is whole UTF-8 scalars.
                    let end = self.pos + crate::json::unescaped_run(&self.bytes[self.pos..]);
                    if let Some(buf) = out {
                        buf.extend_from_slice(&self.bytes[self.pos..end]);
                    }
                    self.pos = end;
                }
            }
        }
    }
}

/// Parses one instance line into a [`SolveRequest`].
pub fn read_instance_line(line_no: usize, line: &str) -> Result<SolveRequest, CorpusError> {
    let mut decoder = LineDecoder::new();
    decoder.decode(line_no, line)?;
    Ok(decoder.build_request())
}

/// Parses a whole JSONL corpus (blank and `#` lines skipped).
pub fn read_corpus(text: &str) -> Result<Vec<SolveRequest>, CorpusError> {
    let mut decoder = LineDecoder::new();
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        decoder.decode(i + 1, line)?;
        out.push(decoder.build_request());
    }
    Ok(out)
}

/// Serializes a whole corpus as JSONL.
pub fn write_corpus<'a>(requests: impl IntoIterator<Item = &'a SolveRequest>) -> String {
    let mut out = String::new();
    for req in requests {
        out.push_str(&write_instance_line(req.id.as_deref(), &req.instance));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pre-rewrite reference decoder: a [`Json`] tree plus field
    /// extraction. The streaming [`LineDecoder`] must agree with it on
    /// every line — success values and error classification alike.
    fn read_instance_line_via_tree(
        line_no: usize,
        line: &str,
    ) -> Result<SolveRequest, CorpusError> {
        let v = Json::parse(line).map_err(|error| CorpusError::Json {
            line: line_no,
            error,
        })?;
        let malformed = |reason: &str| CorpusError::Malformed {
            line: line_no,
            reason: reason.to_string(),
        };
        let id = v.get("id").and_then(|j| j.as_str()).map(str::to_owned);
        let machines = v
            .get("machines")
            .and_then(Json::as_usize)
            .ok_or_else(|| malformed("missing or invalid `machines`"))?;
        let classes_json = v
            .get("classes")
            .and_then(Json::as_arr)
            .ok_or_else(|| malformed("missing or invalid `classes`"))?;
        let mut classes: Vec<Vec<Time>> = Vec::with_capacity(classes_json.len());
        for class in classes_json {
            let sizes = class
                .as_arr()
                .ok_or_else(|| malformed("`classes` entries must be arrays"))?;
            let sizes: Option<Vec<Time>> = sizes.iter().map(Json::as_u64).collect();
            classes
                .push(sizes.ok_or_else(|| malformed("job sizes must be non-negative integers"))?);
        }
        let instance =
            Instance::from_classes(machines, &classes).map_err(|e| CorpusError::Malformed {
                line: line_no,
                reason: e.to_string(),
            })?;
        Ok(SolveRequest { id, instance })
    }

    /// Asserts the streaming decoder and the tree reference agree on `line`
    /// (same request, or same error kind + line; byte offsets inside JSON
    /// errors may differ for interleaved-field lines).
    fn assert_agrees(line: &str) {
        let fast = read_instance_line(7, line);
        let tree = read_instance_line_via_tree(7, line);
        match (&fast, &tree) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.id, b.id, "{line}");
                assert_eq!(a.instance, b.instance, "{line}");
            }
            (Err(CorpusError::Json { line: la, .. }), Err(CorpusError::Json { line: lb, .. })) => {
                assert_eq!(la, lb, "{line}");
            }
            (
                Err(CorpusError::Malformed {
                    line: la,
                    reason: ra,
                }),
                Err(CorpusError::Malformed {
                    line: lb,
                    reason: rb,
                }),
            ) => {
                assert_eq!((la, ra), (lb, rb), "{line}");
            }
            other => panic!("decoders disagree on {line}: {other:?}"),
        }
    }

    #[test]
    fn instance_line_round_trip() {
        let inst = Instance::from_classes(3, &[vec![4, 3], vec![5], vec![2, 2, 2]]).unwrap();
        let line = write_instance_line(Some("x-1"), &inst);
        let req = read_instance_line(1, &line).unwrap();
        assert_eq!(req.id.as_deref(), Some("x-1"));
        assert_eq!(req.instance, inst);
    }

    #[test]
    fn decoder_agrees_with_tree_reference() {
        for line in [
            r#"{"id":"a","machines":2,"classes":[[1,2],[3]]}"#,
            r#"{"machines":1,"classes":[]}"#,
            r#"{"machines":1,"classes":[[]]}"#,
            r#" { "classes" : [ [ 1 ] ] , "machines" : 4 } "#,
            r#"{"id":"é \"q\" 😀","machines":2,"classes":[[0]]}"#,
            r#"{"id":7,"machines":2,"classes":[[1]]}"#,
            r#"{"extra":{"nested":[1,"x",null,true]},"machines":2,"classes":[[1]]}"#,
            r#"{"machines":2,"classes":[[1]],"machines":9}"#,
            r#"{"id":"a","id":"b","machines":2,"classes":[[1]]}"#,
            r#"{}"#,
            r#"{"machines":0,"classes":[[1]]}"#,
            r#"{"machines":-3,"classes":[[1]]}"#,
            r#"{"machines":2}"#,
            r#"{"machines":2,"classes":7}"#,
            r#"{"machines":2,"classes":[7]}"#,
            r#"{"machines":2,"classes":[[-1]]}"#,
            r#"{"machines":2,"classes":[[1.5]]}"#,
            r#"{"machines":2,"classes":[[01]]}"#,
            r#"{"machines":2,"classes":[[18446744073709551616]]}"#,
            r#"{"machines":2,"classes":[["x"]]}"#,
            r#"{"machines":2,"classes":[[1],"x"]}"#,
            r#"{"machines":2,"classes":[[1]]}extra"#,
            r#"{"machines":2,"classes":[[1]"#,
            r#"not json"#,
            r#"[1,2]"#,
            r#"{"machines":18446744073709551615,"classes":[[18446744073709551615],[1]]}"#,
            // Escaped spellings of schema keys are still those keys
            // (matched on the *unescaped* name, like the tree parser).
            r#"{"machine\u0073":2,"classes":[[1]]}"#,
            r#"{"i\u0064":"esc","machines":2,"classes":[[4],[5]]}"#,
            r#"{"\u0069d":7,"id":"second","machines":2,"classes":[[1]]}"#,
            r#"{"classe\u0073":[[9]],"machines":1,"classes":[[1,2]]}"#,
        ] {
            assert_agrees(line);
        }
    }

    /// Valid lines with multi-byte UTF-8 and escapes in ids and keys: the
    /// seeds the fuzzer mutates.
    const SEEDS: &[&str] = &[
        r#"{"id":"é \"q\" 😀","machines":2,"classes":[[0]]}"#,
        r#"{"id":"é😀\/","machines":3,"classes":[[1,2],[3]]}"#,
        r#"{"✓":"x","id":"a\\b\tc\n","machines":1,"classes":[[5],[]]}"#,
        r#" { "classes" : [ [ 7 , 8 ] ] , "machines" : 4 , "ключ" : [ null , true , { } ] } "#,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The streaming decoder agrees with the tree parser on mutated
        /// valid lines.
        #[test]
        fn decoder_agrees_with_tree_on_mutated_lines(
            seed in 0..SEEDS.len(),
            edits in prop::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 1..5),
        ) {
            let bytes = crate::report::tests::mutate(SEEDS[seed].as_bytes(), &edits);
            assert_agrees(&String::from_utf8_lossy(&bytes));
        }

        /// ... and on arbitrary input.
        #[test]
        fn decoder_agrees_with_tree_on_arbitrary_input(
            bytes in prop::collection::vec(any::<u8>(), 0..48),
            edits in prop::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 0..24),
        ) {
            let bytes = crate::report::tests::mutate(&bytes, &edits);
            assert_agrees(&String::from_utf8_lossy(&bytes));
        }
    }

    /// Decoding a string costs time linear in its length: a 1 MiB id
    /// (plain text, escapes and multi-byte characters) decodes in well
    /// under the bound even in a debug build.
    #[test]
    fn a_one_mebibyte_id_decodes_in_linear_time() {
        let (unit_json, unit) = (r#"ab\"é😀é\\"#, "ab\"é😀é\\");
        let repeats = (1 << 20) / unit_json.len();
        let line = format!(
            r#"{{"id":"{}","machines":2,"classes":[[1]]}}"#,
            unit_json.repeat(repeats)
        );
        let started = std::time::Instant::now();
        let req = read_instance_line(1, &line).unwrap();
        let tree = Json::parse(&line).unwrap();
        let elapsed = started.elapsed();
        let id = unit.repeat(repeats);
        assert_eq!(req.id.as_deref(), Some(id.as_str()));
        assert_eq!(tree.get("id").and_then(Json::as_str), Some(id.as_str()));
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "a {} byte line took {elapsed:?}",
            line.len()
        );
    }

    #[test]
    fn decoder_is_reusable_and_allocation_lean() {
        let mut d = LineDecoder::new();
        d.decode(1, r#"{"id":"a","machines":2,"classes":[[4,3],[5]]}"#)
            .unwrap();
        assert_eq!(d.id_str(), Some("a"));
        assert_eq!(d.builder().machines(), 2);
        assert_eq!(d.builder().sizes(), &[4, 3, 5]);
        assert_eq!(d.builder().offsets(), &[0, 2, 3]);
        // Reuse with a shorter, id-less line: no stale state.
        d.decode(2, r#"{"machines":1,"classes":[[9]]}"#).unwrap();
        assert_eq!(d.id(), None);
        assert_eq!(d.builder().sizes(), &[9]);
        assert_eq!(d.builder().offsets(), &[0, 1]);
        let req = d.build_request();
        assert_eq!(req.id, None);
        assert_eq!(req.instance.machines(), 1);
    }

    #[test]
    fn corpus_round_trip_with_comments() {
        // satellite() builds via from_classes, so the round trip is exact.
        let a = SolveRequest::with_id("a", msrs_gen::satellite(7, 2, 3, 4));
        let b = SolveRequest::new(msrs_gen::photolithography(2, 3, 4, 5));
        let text = format!("# corpus\n\n{}", write_corpus([&a, &b]));
        let back = read_corpus(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].id.as_deref(), Some("a"));
        assert_eq!(back[0].instance, a.instance);
        assert_eq!(back[1].id, None);
        assert_eq!(back[1].instance, b.instance);
    }

    #[test]
    fn interleaved_instances_round_trip_to_canonical_form() {
        // Generators that interleave classes (Instance::new) round-trip to
        // the class-by-class canonical job order: same machines, same
        // per-class size lists, and the serialized form is a fixpoint.
        let inst = msrs_gen::uniform(1, 2, 8, 3, 1, 9);
        let line = write_instance_line(None, &inst);
        let back = read_instance_line(1, &line).unwrap().instance;
        assert_eq!(back.machines(), inst.machines());
        assert_eq!(back.num_jobs(), inst.num_jobs());
        for c in 0..inst.num_classes() {
            assert_eq!(back.class_sizes(c), inst.class_sizes(c));
        }
        assert_eq!(write_instance_line(None, &back), line);
    }

    #[test]
    fn errors_carry_line_numbers() {
        match read_corpus("{\"machines\":2,\"classes\":[[1]]}\nnot json\n") {
            Err(CorpusError::Json { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Json error, got {other:?}"),
        }
        match read_corpus("{\"machines\":0,\"classes\":[[1]]}\n") {
            Err(CorpusError::Malformed { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}
