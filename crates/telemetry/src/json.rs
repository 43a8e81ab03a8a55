//! The workspace's one hand-rolled JSON codec.
//!
//! The workspace builds offline with no external crates, so JSON is written
//! and read by hand, once, here:
//!
//! - the **writer** ([`object`], [`ObjWriter`], [`ArrWriter`]) handles
//!   commas, key/string escaping, nesting and non-finite floats in one
//!   place; `swl stat --json`, layerbench's result records and the
//!   `kind`-tagged runtime JSONL are built with it;
//! - [`parse_flat`] is the read side: one *flat* object per line (numbers,
//!   strings, booleans, `null` — no nesting), enough to schema-gate a JSONL
//!   stream without a full JSON parser. Unsigned integers stay exact to
//!   `u64::MAX`, and a repeated key is an error;
//! - the [`Event`] codec ([`write_line`] / [`parse_line`]) keeps to a tiny
//!   subset of that — unsigned integers and fixed string tokens — and reads
//!   through [`parse_flat`]. The two are exact inverses over the subset,
//!   which `swl stat` and the replay tests rely on.

use crate::{Cause, Event, FaultKind, MergeKind, SpanKind};
use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal (with surrounding quotes),
/// escaping quotes, backslashes, and control characters.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn float_into(out: &mut String, v: f64, decimals: usize) {
    if v.is_finite() {
        let _ = write!(out, "{v:.decimals$}");
    } else {
        // JSON has no NaN/Infinity; null keeps the document valid and the
        // anomaly visible.
        out.push_str("null");
    }
}

/// Builds one JSON object, driving an [`ObjWriter`] through `f`.
///
/// # Example
///
/// ```
/// let line = flash_telemetry::json::object(|o| {
///     o.u64("threads", 4)
///         .f64("wall_s", 1.25, 3)
///         .str("bench", "demo \"quoted\"")
///         .arr("points", |a| {
///             a.obj(|p| {
///                 p.u64("depth", 8);
///             });
///         });
/// });
/// assert_eq!(
///     line,
///     "{\"threads\":4,\"wall_s\":1.250,\"bench\":\"demo \\\"quoted\\\"\",\
///      \"points\":[{\"depth\":8}]}"
/// );
/// ```
pub fn object(f: impl FnOnce(&mut ObjWriter)) -> String {
    let mut buf = String::with_capacity(128);
    buf.push('{');
    let mut writer = ObjWriter {
        out: &mut buf,
        first: true,
    };
    f(&mut writer);
    buf.push('}');
    buf
}

/// Writes the fields of one JSON object (see [`object`]).
pub struct ObjWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl ObjWriter<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        escape_into(self.out, key);
        self.out.push(':');
        self.out
    }

    /// Writes an unsigned integer field.
    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        let _ = write!(self.key(key), "{v}");
        self
    }

    /// Writes a float field with `decimals` fractional digits (`null` when
    /// not finite).
    pub fn f64(&mut self, key: &str, v: f64, decimals: usize) -> &mut Self {
        let out = self.key(key);
        float_into(out, v, decimals);
        self
    }

    /// Writes a boolean field.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        let _ = write!(self.key(key), "{v}");
        self
    }

    /// Writes an escaped string field.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        let out = self.key(key);
        escape_into(out, v);
        self
    }

    /// Writes a nested object field.
    pub fn obj(&mut self, key: &str, f: impl FnOnce(&mut ObjWriter)) -> &mut Self {
        let out = self.key(key);
        out.push('{');
        let mut writer = ObjWriter { out, first: true };
        f(&mut writer);
        self.out.push('}');
        self
    }

    /// Writes a nested array field.
    pub fn arr(&mut self, key: &str, f: impl FnOnce(&mut ArrWriter)) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        let mut writer = ArrWriter { out, first: true };
        f(&mut writer);
        self.out.push(']');
        self
    }
}

/// Writes the elements of one JSON array (see [`ObjWriter::arr`]).
pub struct ArrWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl ArrWriter<'_> {
    fn sep(&mut self) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out
    }

    /// Appends an unsigned integer element.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        let _ = write!(self.sep(), "{v}");
        self
    }

    /// Appends a float element with `decimals` fractional digits.
    pub fn f64(&mut self, v: f64, decimals: usize) -> &mut Self {
        let out = self.sep();
        float_into(out, v, decimals);
        self
    }

    /// Appends an escaped string element.
    pub fn str(&mut self, v: &str) -> &mut Self {
        let out = self.sep();
        escape_into(out, v);
        self
    }

    /// Appends an object element.
    pub fn obj(&mut self, f: impl FnOnce(&mut ObjWriter)) -> &mut Self {
        let out = self.sep();
        out.push('{');
        let mut writer = ObjWriter { out, first: true };
        f(&mut writer);
        self.out.push('}');
        self
    }
}

/// A scalar value decoded by [`parse_flat`].
#[derive(Debug, Clone, PartialEq)]
pub enum JsonScalar {
    /// A plain run of digits that fits a `u64`, kept exact.
    Int(u64),
    /// Any other JSON number: signed, fractional, exponent or out of `u64`
    /// range.
    Num(f64),
    /// A JSON string, unescaped.
    Str(String),
    /// A JSON boolean.
    Bool(bool),
    /// `null` — what the writer emits for a non-finite float.
    Null,
}

impl JsonScalar {
    /// The numeric value, if this scalar is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonScalar::Int(n) => Some(*n as f64),
            JsonScalar::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The exact value, if this scalar is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonScalar::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this scalar is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonScalar::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// The value under `key` in what [`parse_flat`] returned.
pub fn field<'a>(fields: &'a [(String, JsonScalar)], key: &str) -> Option<&'a JsonScalar> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parses one flat JSON object — string, number, boolean and `null` values
/// only — into `(key, value)` pairs in document order.
///
/// # Errors
///
/// A human-readable description of the first syntax problem; a key that
/// appears twice is one (every other JSON reader would keep the last value
/// or refuse, so a gate must not pass the line on the first).
pub fn parse_flat(line: &str) -> Result<Vec<(String, JsonScalar)>, String> {
    let inner = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("not wrapped in {}")?;
    let mut fields = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let (key, after_key) = parse_string(rest).map_err(|e| format!("key: {e}"))?;
        let after_colon = after_key
            .trim_start()
            .strip_prefix(':')
            .ok_or("expected ':' after key")?
            .trim_start();
        let (value, tail) = parse_value(after_colon)?;
        if field(&fields, &key).is_some() {
            return Err(format!("duplicate key {key:?}"));
        }
        fields.push((key, value));
        rest = tail.trim_start();
        if let Some(next) = rest.strip_prefix(',') {
            rest = next.trim_start();
            if rest.is_empty() {
                return Err("trailing comma".to_owned());
            }
        } else if !rest.is_empty() {
            return Err("expected ',' between fields".to_owned());
        }
    }
    Ok(fields)
}

/// Parses a leading JSON string literal, returning it unescaped plus the
/// remaining input.
fn parse_string(input: &str) -> Result<(String, &str), String> {
    let mut chars = input
        .strip_prefix('"')
        .ok_or("expected '\"'")?
        .char_indices();
    let mut out = String::new();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &input[i + 2..])),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let digit = chars
                            .next()
                            .and_then(|(_, c)| c.to_digit(16))
                            .ok_or("\\u needs 4 hex digits")?;
                        code = code * 16 + digit;
                    }
                    out.push(char::from_u32(code).ok_or("\\u escape is a surrogate")?);
                }
                Some((_, other)) => return Err(format!("unsupported escape \\{other}")),
                None => return Err("dangling escape".to_owned()),
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".to_owned())
}

fn parse_value(input: &str) -> Result<(JsonScalar, &str), String> {
    if input.starts_with('"') {
        let (s, tail) = parse_string(input)?;
        return Ok((JsonScalar::Str(s), tail));
    }
    if let Some(tail) = input.strip_prefix("true") {
        return Ok((JsonScalar::Bool(true), tail));
    }
    if let Some(tail) = input.strip_prefix("false") {
        return Ok((JsonScalar::Bool(false), tail));
    }
    if let Some(tail) = input.strip_prefix("null") {
        return Ok((JsonScalar::Null, tail));
    }
    let end = input
        .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .unwrap_or(input.len());
    if end == 0 {
        return Err("expected string, number, boolean, or null value".to_owned());
    }
    let (token, tail) = input.split_at(end);
    // Through `f64` an integer above 2^53 would come back rounded.
    let exact = token.bytes().all(|b| b.is_ascii_digit());
    if let Some(n) = token.parse::<u64>().ok().filter(|_| exact) {
        return Ok((JsonScalar::Int(n), tail));
    }
    let num = token
        .parse::<f64>()
        .map_err(|_| format!("bad number {token:?}"))?;
    Ok((JsonScalar::Num(num), tail))
}

/// Serialize one event as a single JSON object (no trailing newline).
pub fn to_line(event: &Event) -> String {
    let mut s = String::with_capacity(48);
    write_line(&mut s, event);
    s
}

/// Append one event as a single JSON object (no trailing newline) to `out`.
///
/// Writing into a caller-owned buffer lets the streaming sink serialize
/// without a per-event allocation.
pub fn write_line(out: &mut String, event: &Event) {
    match *event {
        Event::Meta {
            version,
            blocks,
            pages_per_block,
        } => {
            let _ = write!(
                out,
                "{{\"e\":\"meta\",\"v\":{version},\"blocks\":{blocks},\"ppb\":{pages_per_block}}}"
            );
        }
        Event::Endurance { limit } => {
            let _ = write!(out, "{{\"e\":\"endurance\",\"limit\":{limit}}}");
        }
        Event::HostWrite { lba } => {
            let _ = write!(out, "{{\"e\":\"host_write\",\"lba\":{lba}}}");
        }
        Event::HostRead { lba } => {
            let _ = write!(out, "{{\"e\":\"host_read\",\"lba\":{lba}}}");
        }
        Event::HostTrim { lba } => {
            let _ = write!(out, "{{\"e\":\"host_trim\",\"lba\":{lba}}}");
        }
        Event::Program { block, page } => {
            let _ = write!(out, "{{\"e\":\"program\",\"b\":{block},\"pg\":{page}}}");
        }
        Event::Erase { block, wear, cause } => {
            let _ = write!(
                out,
                "{{\"e\":\"erase\",\"b\":{block},\"w\":{wear},\"c\":\"{}\"}}",
                cause.token()
            );
        }
        Event::LiveCopy {
            from_block,
            to_block,
            cause,
        } => {
            let _ = write!(
                out,
                "{{\"e\":\"copy\",\"from\":{from_block},\"to\":{to_block},\"c\":\"{}\"}}",
                cause.token()
            );
        }
        Event::GcPick {
            key,
            invalid,
            valid,
            free_depth,
            candidates,
        } => {
            let _ = write!(
                out,
                "{{\"e\":\"gc_pick\",\"key\":{key},\"inv\":{invalid},\"val\":{valid},\"free\":{free_depth},\"cand\":{candidates}}}"
            );
        }
        Event::Merge { vba, kind } => {
            let _ = write!(
                out,
                "{{\"e\":\"merge\",\"vba\":{vba},\"kind\":\"{}\"}}",
                kind.token()
            );
        }
        Event::Retire { block } => {
            let _ = write!(out, "{{\"e\":\"retire\",\"b\":{block}}}");
        }
        Event::FaultInjected { block, kind } => {
            let _ = write!(
                out,
                "{{\"e\":\"fault\",\"b\":{block},\"kind\":\"{}\"}}",
                kind.token()
            );
        }
        Event::PowerCut { at_op, torn } => {
            let _ = write!(
                out,
                "{{\"e\":\"power_cut\",\"op\":{at_op},\"torn\":{}}}",
                u8::from(torn)
            );
        }
        Event::SwlInvoke {
            ecnt,
            fcnt,
            threshold,
        } => {
            let _ = write!(
                out,
                "{{\"e\":\"swl_invoke\",\"ecnt\":{ecnt},\"fcnt\":{fcnt},\"t\":{threshold}}}"
            );
        }
        Event::IntervalReset {
            interval,
            ecnt,
            fcnt,
        } => {
            let _ = write!(
                out,
                "{{\"e\":\"interval_reset\",\"n\":{interval},\"ecnt\":{ecnt},\"fcnt\":{fcnt}}}"
            );
        }
        Event::SpanBegin {
            id,
            parent,
            kind,
            at_ns,
        } => {
            let _ = write!(
                out,
                "{{\"e\":\"span_begin\",\"id\":{id},\"p\":{parent},\"k\":\"{}\",\"ns\":{at_ns}}}",
                kind.token()
            );
        }
        Event::SpanEnd { id, at_ns } => {
            let _ = write!(out, "{{\"e\":\"span_end\",\"id\":{id},\"ns\":{at_ns}}}");
        }
        Event::Channel { id } => {
            let _ = write!(out, "{{\"e\":\"chan\",\"ch\":{id}}}");
        }
    }
}

/// A malformed or unrecognized JSONL line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The line is not a flat JSON object ([`parse_flat`]'s message), or a
    /// number does not fit its field.
    Syntax(String),
    /// The `"e"` field names an event kind this version doesn't know.
    UnknownKind(String),
    /// A required field is missing for the given event kind.
    MissingField {
        /// Event kind being parsed.
        kind: &'static str,
        /// Name of the missing field.
        field: &'static str,
    },
    /// A cause/kind token has an unrecognized value.
    UnknownToken(String),
    /// A numeric field holds a string, or vice versa.
    WrongType(&'static str),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Syntax(what) => write!(f, "malformed JSONL line: {what}"),
            ParseError::UnknownKind(kind) => write!(f, "unknown event kind {kind:?}"),
            ParseError::MissingField { kind, field } => {
                write!(f, "event {kind:?} is missing field {field:?}")
            }
            ParseError::UnknownToken(token) => write!(f, "unknown enum token {token:?}"),
            ParseError::WrongType(field) => write!(f, "field {field:?} has the wrong type"),
        }
    }
}

impl std::error::Error for ParseError {}

type Fields = [(String, JsonScalar)];

fn num(fields: &Fields, kind: &'static str, name: &'static str) -> Result<u64, ParseError> {
    let value = field(fields, name).ok_or(ParseError::MissingField { kind, field: name })?;
    value.as_u64().ok_or(ParseError::WrongType(name))
}

fn num32(fields: &Fields, kind: &'static str, name: &'static str) -> Result<u32, ParseError> {
    u32::try_from(num(fields, kind, name)?)
        .map_err(|_| ParseError::Syntax(format!("{name:?} is out of range")))
}

fn token<'a>(
    fields: &'a Fields,
    kind: &'static str,
    name: &'static str,
) -> Result<&'a str, ParseError> {
    let value = field(fields, name).ok_or(ParseError::MissingField { kind, field: name })?;
    value.as_str().ok_or(ParseError::WrongType(name))
}

/// The value of `all` whose `token()` spelling is `tok`: each enum's tokens
/// are spelled once, in its `token`.
fn by_token<T: Copy, const N: usize>(
    all: [T; N],
    token: fn(T) -> &'static str,
    tok: &str,
) -> Result<T, ParseError> {
    let found = all.into_iter().find(|&value| token(value) == tok);
    found.ok_or_else(|| ParseError::UnknownToken(tok.to_string()))
}

fn cause(tok: &str) -> Result<Cause, ParseError> {
    by_token([Cause::Gc, Cause::Swl, Cause::External], Cause::token, tok)
}

fn fault_kind(tok: &str) -> Result<FaultKind, ParseError> {
    let all = [FaultKind::ProgramFail, FaultKind::EraseFail];
    by_token(all, FaultKind::token, tok)
}

fn span_kind(tok: &str) -> Result<SpanKind, ParseError> {
    use SpanKind::{Gc, HostRead, HostTrim, HostWrite, Merge, Swl};
    let all = [HostWrite, HostRead, HostTrim, Gc, Swl, Merge];
    by_token(all, SpanKind::token, tok)
}

fn merge_kind(tok: &str) -> Result<MergeKind, ParseError> {
    let all = [MergeKind::Full, MergeKind::Gc, MergeKind::Swl];
    by_token(all, MergeKind::token, tok)
}

/// Parse one JSONL line back into an [`Event`].
pub fn parse_line(line: &str) -> Result<Event, ParseError> {
    let fields = parse_flat(line).map_err(ParseError::Syntax)?;
    let kind =
        token(&fields, "?", "e").map_err(|_| ParseError::Syntax("missing \"e\" kind".into()))?;
    match kind {
        "meta" => Ok(Event::Meta {
            version: num32(&fields, "meta", "v")?,
            blocks: num32(&fields, "meta", "blocks")?,
            pages_per_block: num32(&fields, "meta", "ppb")?,
        }),
        "endurance" => Ok(Event::Endurance {
            limit: num(&fields, "endurance", "limit")?,
        }),
        "host_write" => Ok(Event::HostWrite {
            lba: num(&fields, "host_write", "lba")?,
        }),
        "host_read" => Ok(Event::HostRead {
            lba: num(&fields, "host_read", "lba")?,
        }),
        "host_trim" => Ok(Event::HostTrim {
            lba: num(&fields, "host_trim", "lba")?,
        }),
        "program" => Ok(Event::Program {
            block: num32(&fields, "program", "b")?,
            page: num32(&fields, "program", "pg")?,
        }),
        "erase" => Ok(Event::Erase {
            block: num32(&fields, "erase", "b")?,
            wear: num(&fields, "erase", "w")?,
            cause: cause(token(&fields, "erase", "c")?)?,
        }),
        "copy" => Ok(Event::LiveCopy {
            from_block: num32(&fields, "copy", "from")?,
            to_block: num32(&fields, "copy", "to")?,
            cause: cause(token(&fields, "copy", "c")?)?,
        }),
        "gc_pick" => Ok(Event::GcPick {
            key: num32(&fields, "gc_pick", "key")?,
            invalid: num32(&fields, "gc_pick", "inv")?,
            valid: num32(&fields, "gc_pick", "val")?,
            free_depth: num32(&fields, "gc_pick", "free")?,
            candidates: num32(&fields, "gc_pick", "cand")?,
        }),
        "merge" => Ok(Event::Merge {
            vba: num32(&fields, "merge", "vba")?,
            kind: merge_kind(token(&fields, "merge", "kind")?)?,
        }),
        "retire" => Ok(Event::Retire {
            block: num32(&fields, "retire", "b")?,
        }),
        "fault" => Ok(Event::FaultInjected {
            block: num32(&fields, "fault", "b")?,
            kind: fault_kind(token(&fields, "fault", "kind")?)?,
        }),
        "power_cut" => Ok(Event::PowerCut {
            at_op: num(&fields, "power_cut", "op")?,
            torn: num(&fields, "power_cut", "torn")? != 0,
        }),
        "swl_invoke" => Ok(Event::SwlInvoke {
            ecnt: num(&fields, "swl_invoke", "ecnt")?,
            fcnt: num(&fields, "swl_invoke", "fcnt")?,
            threshold: num(&fields, "swl_invoke", "t")?,
        }),
        "interval_reset" => Ok(Event::IntervalReset {
            interval: num(&fields, "interval_reset", "n")?,
            ecnt: num(&fields, "interval_reset", "ecnt")?,
            fcnt: num(&fields, "interval_reset", "fcnt")?,
        }),
        "span_begin" => Ok(Event::SpanBegin {
            id: num(&fields, "span_begin", "id")?,
            parent: num(&fields, "span_begin", "p")?,
            kind: span_kind(token(&fields, "span_begin", "k")?)?,
            at_ns: num(&fields, "span_begin", "ns")?,
        }),
        "span_end" => Ok(Event::SpanEnd {
            id: num(&fields, "span_end", "id")?,
            at_ns: num(&fields, "span_end", "ns")?,
        }),
        "chan" => Ok(Event::Channel {
            id: num32(&fields, "chan", "ch")?,
        }),
        other => Err(ParseError::UnknownKind(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<Event> {
        vec![
            Event::Meta {
                version: 1,
                blocks: 64,
                pages_per_block: 32,
            },
            Event::Endurance { limit: 10_000 },
            Event::HostWrite { lba: 12345 },
            Event::HostRead { lba: 0 },
            Event::HostTrim { lba: u64::MAX },
            Event::Program { block: 3, page: 31 },
            Event::Erase {
                block: 7,
                wear: 199,
                cause: Cause::Gc,
            },
            Event::Erase {
                block: 8,
                wear: 1,
                cause: Cause::Swl,
            },
            Event::Erase {
                block: 9,
                wear: 2,
                cause: Cause::External,
            },
            Event::LiveCopy {
                from_block: 4,
                to_block: 9,
                cause: Cause::Swl,
            },
            Event::GcPick {
                key: 11,
                invalid: 30,
                valid: 2,
                free_depth: 5,
                candidates: 40,
            },
            Event::Merge {
                vba: 6,
                kind: MergeKind::Full,
            },
            Event::Merge {
                vba: 7,
                kind: MergeKind::Gc,
            },
            Event::Merge {
                vba: 8,
                kind: MergeKind::Swl,
            },
            Event::Retire { block: 63 },
            Event::FaultInjected {
                block: 17,
                kind: FaultKind::ProgramFail,
            },
            Event::FaultInjected {
                block: 18,
                kind: FaultKind::EraseFail,
            },
            Event::PowerCut {
                at_op: 5000,
                torn: true,
            },
            Event::PowerCut {
                at_op: 0,
                torn: false,
            },
            Event::SwlInvoke {
                ecnt: 1000,
                fcnt: 9,
                threshold: 100,
            },
            Event::IntervalReset {
                interval: 2,
                ecnt: 1500,
                fcnt: 64,
            },
            Event::SpanBegin {
                id: 1,
                parent: 0,
                kind: SpanKind::HostWrite,
                at_ns: 0,
            },
            Event::SpanBegin {
                id: 2,
                parent: 1,
                kind: SpanKind::Gc,
                at_ns: 600_000,
            },
            Event::SpanBegin {
                id: 3,
                parent: 1,
                kind: SpanKind::Swl,
                at_ns: 2_100_000,
            },
            Event::SpanBegin {
                id: 4,
                parent: 3,
                kind: SpanKind::Merge,
                at_ns: 2_150_000,
            },
            Event::SpanBegin {
                id: 5,
                parent: 0,
                kind: SpanKind::HostRead,
                at_ns: 9_000_000,
            },
            Event::SpanBegin {
                id: 6,
                parent: 0,
                kind: SpanKind::HostTrim,
                at_ns: 9_050_000,
            },
            Event::SpanEnd {
                id: 1,
                at_ns: u64::MAX,
            },
            Event::Channel { id: 0 },
            Event::Channel { id: 3 },
        ]
    }

    #[test]
    fn round_trips_every_variant() {
        for event in all_variants() {
            let line = to_line(&event);
            let back = parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, event, "line was {line}");
        }
    }

    #[test]
    fn tolerates_surrounding_whitespace() {
        let line = format!("  {}  ", to_line(&Event::Retire { block: 5 }));
        assert_eq!(parse_line(&line).unwrap(), Event::Retire { block: 5 });
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_line("").is_err());
        assert!(parse_line("not json").is_err());
        assert!(parse_line("{\"e\":\"warp\"}").is_err());
        assert!(parse_line("{\"e\":\"retire\"}").is_err()); // missing b
        assert!(parse_line("{\"e\":\"retire\",\"b\":\"x\"}").is_err()); // wrong type
        assert!(parse_line("{\"e\":\"erase\",\"b\":1,\"w\":1,\"c\":\"??\"}").is_err());
        assert!(parse_line("{\"e\":\"retire\",\"b\":1,}").is_err()); // trailing comma
        assert!(parse_line("{\"e\":\"retire\",\"b\":1.0}").is_err()); // not an integer
        let twice = parse_line("{\"e\":\"retire\",\"b\":1,\"b\":2}").unwrap_err();
        assert!(twice.to_string().contains("duplicate key \"b\""), "{twice}");
    }

    #[test]
    fn parse_error_displays() {
        let err = parse_line("{\"e\":\"warp\"}").unwrap_err();
        assert!(err.to_string().contains("warp"));
    }

    #[test]
    fn escapes_hostile_strings() {
        let line = object(|o| {
            o.str("s", "a\"b\\c\nd\te\u{1}f");
        });
        assert_eq!(line, "{\"s\":\"a\\\"b\\\\c\\nd\\te\\u0001f\"}");
        let fields = parse_flat(&line).unwrap();
        assert_eq!(fields[0].0, "s");
        assert_eq!(fields[0].1.as_str(), Some("a\"b\\c\nd\te\u{1}f"));
    }

    #[test]
    fn nested_arrays_and_objects_compose() {
        let line = object(|o| {
            o.u64("n", 2).arr("rows", |a| {
                a.obj(|r| {
                    r.f64("x", 0.5, 2).bool("ok", true);
                });
                a.obj(|r| {
                    r.f64("x", f64::NAN, 2);
                });
            });
        });
        assert_eq!(
            line,
            "{\"n\":2,\"rows\":[{\"x\":0.50,\"ok\":true},{\"x\":null}]}"
        );
    }

    #[test]
    fn parse_flat_round_trips_scalars() {
        let line = object(|o| {
            o.u64("a", 42)
                .f64("b", -1.25, 3)
                .bool("c", false)
                .str("d", "x");
        });
        let fields = parse_flat(&line).unwrap();
        assert_eq!(fields[0], ("a".into(), JsonScalar::Int(42)));
        assert_eq!(fields[1], ("b".into(), JsonScalar::Num(-1.25)));
        assert_eq!(fields[2], ("c".into(), JsonScalar::Bool(false)));
        assert_eq!(fields[3], ("d".into(), JsonScalar::Str("x".into())));
    }

    #[test]
    fn parse_flat_rejects_garbage() {
        assert!(parse_flat("").is_err());
        assert!(parse_flat("{\"a\":}").is_err());
        assert!(parse_flat("{\"a\":1,}").is_err());
        assert!(parse_flat("{\"a\" 1}").is_err());
        assert!(parse_flat("{\"a\":\"unterminated}").is_err());
        assert!(parse_flat("{\"a\":\"bad\\q\"}").is_err());
    }

    #[test]
    fn reads_the_null_its_writer_emits_for_a_non_finite_float() {
        let line = object(|o| {
            o.f64("x", f64::NAN, 2)
                .f64("y", f64::INFINITY, 2)
                .u64("n", 1);
        });
        assert_eq!(line, "{\"x\":null,\"y\":null,\"n\":1}");
        let fields = parse_flat(&line).unwrap();
        assert_eq!(field(&fields, "x"), Some(&JsonScalar::Null));
        assert_eq!(field(&fields, "x").unwrap().as_num(), None);
        assert_eq!(field(&fields, "y").unwrap().as_str(), None);
        assert_eq!(field(&fields, "n").unwrap().as_num(), Some(1.0));
    }

    #[test]
    fn empty_object_is_valid() {
        assert_eq!(object(|_| {}), "{}");
        assert_eq!(parse_flat("{}").unwrap(), Vec::new());
    }
}
