//! Minimal hand-rolled JSON support for machine-readable run reports.
//!
//! The build environment has no registry access, so instead of `serde_json`
//! this module provides the small subset the workspace needs: a document
//! model ([`JsonValue`]), one **deterministic** text writer ([`JsonWriter`]:
//! insertion-ordered object keys, shortest-round-trip float formatting,
//! fixed 2-space indentation) and a strict recursive-descent parser.
//! Determinism matters because the CLI's batch reports are asserted
//! byte-identical across worker counts, and CI diffs bench medians across
//! runs.
//!
//! A document reaches text by events sent to a [`JsonSink`]: a
//! [`JsonValue`] walks itself into the writer, and a report description
//! can write straight into it without building a tree, or into a
//! [`JsonBuilder`] when a caller wants the tree.
//!
//! # Report schema
//!
//! Every machine-readable report emitted by this workspace (the `ja` CLI
//! subcommands and the criterion stand-in's `--json` output) shares one
//! versioned envelope:
//!
//! | key              | type   | meaning                                      |
//! |------------------|--------|----------------------------------------------|
//! | `schema_version` | int    | [`SCHEMA_VERSION`]; bumped on breaking change |
//! | `kind`           | string | `"batch"`, `"sweep"`, `"fit"`, `"inverse"`, `"compare"` or `"bench"` |
//!
//! plus kind-specific payload fields.  The authoritative field-by-field
//! description lives in the `ja --help` text (`crates/cli`); the criterion
//! stand-in replicates the envelope with a local constant that the
//! `ja bench-gate` subcommand cross-checks at consumption time.
//!
//! Non-finite numbers have no JSON representation; the writer emits `null`
//! for them rather than producing an unparsable document.

use std::error::Error;
use std::fmt::{self, Write as _};

/// Version of the shared report schema.  Consumers (CI's `bench-gate`, the
/// report tests) reject documents whose `schema_version` differs.
pub const SCHEMA_VERSION: i64 = 1;

/// Key under which every report states its schema version.
pub const SCHEMA_VERSION_KEY: &str = "schema_version";

/// A JSON document fragment.
///
/// Objects preserve insertion order (they are a `Vec` of pairs, not a map),
/// which keeps the writer deterministic and lets reports define a stable,
/// documented field order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialised without a decimal point).
    Int(i64),
    /// A floating-point number; non-finite values serialise as `null`.
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An empty object, ready for [`JsonValue::push`].
    pub fn object() -> Self {
        JsonValue::Object(Vec::new())
    }

    /// Appends a field to an object (panics on non-objects — report
    /// builders construct objects statically, so a misuse is a programming
    /// error, not a data error).
    ///
    /// # Panics
    ///
    /// Panics when `self` is not [`JsonValue::Object`].
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<JsonValue>) -> &mut Self {
        match self {
            JsonValue::Object(fields) => fields.push((key.into(), value.into())),
            other => panic!("JsonValue::push on non-object {other:?}"),
        }
        self
    }

    /// Builder-style [`JsonValue::push`].
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: impl Into<JsonValue>) -> Self {
        self.push(key, value);
        self
    }

    /// Looks a field up in an object (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float: [`JsonValue::Number`] directly or
    /// [`JsonValue::Int`] losslessly widened.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            JsonValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as an integer (floats are not coerced).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an object field list.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises the document with 2-space indentation and a trailing
    /// newline — the one canonical textual form (reports are diffed and
    /// compared byte-for-byte).
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.walk(&mut JsonWriter::indented(&mut out, 0), false);
        out.push('\n');
        out
    }

    /// Serialises the document in **canonical form**: object keys sorted
    /// bytewise at every nesting level, no whitespace, the same number and
    /// string formatting as the pretty writer.  Two documents that carry
    /// the same data — regardless of the order their object fields were
    /// written or parsed in — produce identical canonical strings, which is
    /// what makes [`content_hash`] usable as a content address: a client
    /// may emit its request fields in any order and still land on the same
    /// cache entry.
    ///
    /// Duplicate keys (the document model allows them; the strict parser
    /// does not reject them) keep their relative order after the stable
    /// sort, so even degenerate documents canonicalise deterministically.
    pub fn canonical_string(&self) -> String {
        let mut out = String::new();
        self.walk(&mut JsonWriter::compact(&mut out), true);
        out
    }

    /// Serialises the document **compactly in insertion order**: no
    /// whitespace, the same number and string formatting as the pretty
    /// writer, object keys left exactly where the builder put them.
    ///
    /// This is the one-line form used for streaming NDJSON records
    /// (`ja batch --format ndjson`): unlike [`to_pretty_string`]
    /// (multi-line) it fits one record per line, and unlike
    /// [`canonical_string`](Self::canonical_string) (key-sorted, for content
    /// addressing) it preserves the schema's documented field order, so a
    /// record is the compact rendering of exactly the document the stored
    /// report would contain.
    ///
    /// [`to_pretty_string`]: Self::to_pretty_string
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.walk(&mut JsonWriter::compact(&mut out), false);
        out
    }

    /// Builds a document from the events `describe` sends to a
    /// [`JsonBuilder`] — the tree form of a description whose text form
    /// goes to a [`JsonWriter`].
    ///
    /// # Panics
    ///
    /// Panics when `describe` does not send exactly one complete value.
    pub fn build(describe: impl FnOnce(&mut JsonBuilder)) -> JsonValue {
        let mut builder = JsonBuilder {
            open: Vec::new(),
            key: None,
            done: None,
        };
        describe(&mut builder);
        builder.finish()
    }

    /// Sends the document to `sink`, each object's keys in insertion order
    /// or, with `sort_keys`, sorted bytewise (a stable sort).
    fn walk<S: JsonSink>(&self, sink: &mut S, sort_keys: bool) {
        match self {
            JsonValue::Null => sink.null(),
            JsonValue::Bool(b) => sink.bool(*b),
            JsonValue::Int(v) => sink.int(*v),
            JsonValue::Number(v) => sink.number(*v),
            JsonValue::String(s) => sink.string(s),
            JsonValue::Array(items) => {
                sink.begin_array();
                for item in items {
                    item.walk(sink, sort_keys);
                }
                sink.end_array();
            }
            JsonValue::Object(fields) => {
                sink.begin_object();
                let member = |(key, value): &(String, JsonValue)| {
                    sink.key(key);
                    value.walk(sink, sort_keys);
                };
                if sort_keys {
                    let mut order: Vec<&(String, JsonValue)> = fields.iter().collect();
                    order.sort_by(|a, b| a.0.cmp(&b.0));
                    order.into_iter().for_each(member);
                } else {
                    fields.iter().for_each(member);
                }
                sink.end_object();
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset and message on malformed
    /// input, nesting deeper than 128 levels, or numbers outside `f64`.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_whitespace();
        let value = parser.parse_value(0)?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after JSON document"));
        }
        Ok(value)
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.to_pretty_string().trim_end())
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        // Counters beyond i64 lose nothing by going through f64's `null`
        // escape hatch in practice, but stay exact for every realistic count.
        match i64::try_from(v) {
            Ok(v) => JsonValue::Int(v),
            Err(_) => JsonValue::Number(v as f64),
        }
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::from(v as u64)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Number(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::String(v.to_owned())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::String(v)
    }
}

impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> Self {
        JsonValue::Array(v)
    }
}

/// Receives a JSON value as a sequence of events: the one interface a
/// report description writes through.  [`JsonWriter`] renders the events
/// as text, [`JsonBuilder`] assembles them into a [`JsonValue`], so one
/// description yields both forms.
///
/// A container opens with [`begin_object`](Self::begin_object) or
/// [`begin_array`](Self::begin_array) and closes with the matching
/// [`end_object`](Self::end_object) or [`end_array`](Self::end_array);
/// inside an object, each value follows its [`key`](Self::key).
pub trait JsonSink {
    /// Opens an object.
    fn begin_object(&mut self);
    /// Closes the innermost open container, an object.
    fn end_object(&mut self);
    /// Opens an array.
    fn begin_array(&mut self);
    /// Closes the innermost open container, an array.
    fn end_array(&mut self);
    /// Names the next value of the open object.
    fn key(&mut self, key: &str);
    /// `null`.
    fn null(&mut self);
    /// `true` / `false`.
    fn bool(&mut self, value: bool);
    /// An integer.
    fn int(&mut self, value: i64);
    /// A float; a non-finite one is written as `null`.
    fn number(&mut self, value: f64);
    /// A string.
    fn string(&mut self, value: &str);

    /// An object member holding a number, boolean or null, converted as
    /// [`JsonValue::from`] converts it (so a `u64` beyond `i64::MAX` is a
    /// float).
    fn field(&mut self, key: &str, value: impl Into<JsonValue>)
    where
        Self: Sized,
    {
        self.key(key);
        value.into().walk(self, false);
    }

    /// An object member holding a string.
    fn field_str(&mut self, key: &str, value: &str) {
        self.key(key);
        self.string(value);
    }
}

/// The one JSON text formatter: renders [`JsonSink`] events into a
/// `String`, compact or indented.  Every number, string and whitespace
/// rule of the workspace's JSON text lives here:
///
/// * integers in decimal; floats as the shortest decimal that round-trips
///   (`{:?}`, so `-0.0` keeps its sign and `1.0` its point); non-finite
///   floats as `null`;
/// * strings with `"`, `\`, `\n`, `\r` and `\t` escaped by name, other
///   control characters as `\u00XX`, everything else passed through as
///   UTF-8;
/// * compact: no whitespace at all; indented: one member per line, two
///   spaces per nesting level, `": "` after keys; in both, an empty
///   container is its two brackets alone.
///
/// Numbers and escapes are formatted straight into the output string.
#[derive(Debug)]
pub struct JsonWriter<'a> {
    out: &'a mut String,
    indented: bool,
    /// The nesting level a value written at the top sits at.
    base: usize,
    /// The nesting level of the open container's members.
    level: usize,
    /// The open container has no member yet.
    empty: bool,
    /// A key was just written; the next value follows it.
    after_key: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending compact text to `out`.
    pub fn compact(out: &'a mut String) -> Self {
        Self::new(out, false, 0)
    }

    /// A writer appending indented text to `out`, for a value that sits at
    /// nesting `level` of its document (`0` for a whole document): the
    /// text can be spliced with [`raw`](Self::raw) into a document written
    /// at that level.
    pub fn indented(out: &'a mut String, level: usize) -> Self {
        Self::new(out, true, level)
    }

    fn new(out: &'a mut String, indented: bool, level: usize) -> Self {
        Self {
            out,
            indented,
            base: level,
            level,
            empty: true,
            after_key: false,
        }
    }

    /// Splices `text` — one value, rendered by a writer of the same layout
    /// for this position's nesting level — as the next value.
    pub fn raw(&mut self, text: &str) {
        self.before_value();
        self.out.push_str(text);
    }

    /// Places the separator and line break that precede a value: none
    /// after a key or at the top, else those of a new container member.
    fn before_value(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.level > self.base {
            self.before_member();
        }
    }

    fn before_member(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.line_break();
    }

    /// Starts a new line at the current level (nothing when compact).
    fn line_break(&mut self) {
        if self.indented {
            self.out.push('\n');
            for _ in 0..self.level {
                self.out.push_str("  ");
            }
        }
    }

    fn open(&mut self, bracket: char) {
        self.before_value();
        self.out.push(bracket);
        self.level += 1;
        self.empty = true;
    }

    fn close(&mut self, bracket: char) {
        self.level -= 1;
        if !self.empty {
            self.line_break();
        }
        self.out.push(bracket);
        self.empty = false;
    }

    fn escaped(&mut self, s: &str) {
        let out = &mut *self.out;
        out.push('"');
        // Bytes below 0x80 are whole characters, so every escaped byte and
        // the byte after it start a character, and the runs between them
        // are copied as they are.
        let mut run = 0;
        for (i, byte) in s.bytes().enumerate() {
            let escape = match byte {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            out.push_str(&s[run..i]);
            if escape.is_empty() {
                // Writing to a `String` cannot fail.
                let _ = write!(out, "\\u{byte:04x}");
            } else {
                out.push_str(escape);
            }
            run = i + 1;
        }
        out.push_str(&s[run..]);
        out.push('"');
    }
}

impl JsonSink for JsonWriter<'_> {
    fn begin_object(&mut self) {
        self.open('{');
    }

    fn begin_array(&mut self) {
        self.open('[');
    }

    fn end_object(&mut self) {
        self.close('}');
    }

    fn end_array(&mut self) {
        self.close(']');
    }

    fn key(&mut self, key: &str) {
        self.before_member();
        self.escaped(key);
        self.out.push_str(if self.indented { ": " } else { ":" });
        self.after_key = true;
    }

    fn null(&mut self) {
        self.before_value();
        self.out.push_str("null");
    }

    fn bool(&mut self, value: bool) {
        self.before_value();
        self.out.push_str(if value { "true" } else { "false" });
    }

    fn int(&mut self, value: i64) {
        self.before_value();
        let _ = write!(self.out, "{value}");
    }

    fn number(&mut self, value: f64) {
        self.before_value();
        if value.is_finite() {
            // `{:?}` prints the shortest decimal that round-trips.
            let _ = write!(self.out, "{value:?}");
        } else {
            self.out.push_str("null");
        }
    }

    fn string(&mut self, value: &str) {
        self.before_value();
        self.escaped(value);
    }
}

/// Assembles [`JsonSink`] events into a [`JsonValue`]; see
/// [`JsonValue::build`].
#[derive(Debug)]
pub struct JsonBuilder {
    /// The open containers, innermost last, each with the key it will be
    /// stored under in its parent object.
    open: Vec<(Option<String>, JsonValue)>,
    /// The key of the next member of the innermost open object.
    key: Option<String>,
    /// The finished top-level value.
    done: Option<JsonValue>,
}

impl JsonBuilder {
    fn finish(self) -> JsonValue {
        assert!(
            self.open.is_empty(),
            "JsonBuilder: a container was left open"
        );
        self.done.expect("JsonBuilder: no value was described")
    }

    fn value(&mut self, value: JsonValue) {
        let key = self.key.take();
        match self.open.last_mut() {
            Some((_, JsonValue::Object(fields))) => {
                fields.push((
                    key.expect("JsonBuilder: an object member needs a key"),
                    value,
                ));
            }
            Some((_, JsonValue::Array(items))) => items.push(value),
            Some(_) => unreachable!("only containers are left open"),
            None => {
                assert!(self.done.is_none(), "JsonBuilder: a second top-level value");
                self.done = Some(value);
            }
        }
    }

    fn open(&mut self, container: JsonValue) {
        let key = self.key.take();
        self.open.push((key, container));
    }

    fn close(&mut self) {
        let (key, container) = self
            .open
            .pop()
            .expect("JsonBuilder: a close without an open container");
        self.key = key;
        self.value(container);
    }
}

impl JsonSink for JsonBuilder {
    fn begin_object(&mut self) {
        self.open(JsonValue::object());
    }

    fn end_object(&mut self) {
        self.close();
    }

    fn begin_array(&mut self) {
        self.open(JsonValue::Array(Vec::new()));
    }

    fn end_array(&mut self) {
        self.close();
    }

    fn key(&mut self, key: &str) {
        self.key = Some(key.to_owned());
    }

    fn null(&mut self) {
        self.value(JsonValue::Null);
    }

    fn bool(&mut self, value: bool) {
        self.value(JsonValue::Bool(value));
    }

    fn int(&mut self, value: i64) {
        self.value(JsonValue::Int(value));
    }

    fn number(&mut self, value: f64) {
        self.value(JsonValue::Number(value));
    }

    fn string(&mut self, value: &str) {
        self.value(JsonValue::String(value.to_owned()));
    }
}

/// A stable 128-bit content address of a JSON document: the FNV-1a hash of
/// its [canonical form](JsonValue::canonical_string).
///
/// Properties the serving cache relies on:
///
/// * **Key-order independence.** Reordering object fields anywhere in the
///   document does not change the hash (canonicalisation sorts keys).
/// * **Content sensitivity.** Changing any value, adding or removing any
///   field, or changing a number's value changes the canonical bytes and
///   therefore the hash.
/// * **Stability.** The hash is a pure function of the document — no
///   randomised hasher state — so it is identical across processes, runs
///   and machines, which lets cache keys appear in logs, reports and
///   tests.
///
/// 128 bits make accidental collisions implausible for any realistic cache
/// population (the birthday bound at 2^64 entries), which matters because
/// the result cache serves hits **without** re-checking the request.
pub fn content_hash(value: &JsonValue) -> u128 {
    let mut digest = StreamDigest::new();
    digest.update(value.canonical_string().as_bytes());
    digest.value()
}

/// An incremental 128-bit FNV-1a digest over a byte stream.
///
/// This is the same hash as [`content_hash`] (offset basis and prime from
/// the FNV spec), exposed as a running accumulator so it can digest data
/// that is produced piecewise — the streaming NDJSON writer hashes each
/// record line as it is emitted and seals the result into the final
/// manifest line.
///
/// The entire digest state is the current 128-bit value, so a digest can be
/// **suspended and resumed across processes**: a batch checkpoint stores
/// [`state`](Self::state) (as hex) and a resumed run continues from
/// [`from_state`](Self::from_state), producing the same final value as an
/// uninterrupted run over the same bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamDigest {
    state: u128,
}

impl StreamDigest {
    const OFFSET_BASIS: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;

    /// A fresh digest (FNV-1a offset basis).
    pub fn new() -> Self {
        Self {
            state: Self::OFFSET_BASIS,
        }
    }

    /// Rehydrates a digest from a previously captured [`state`](Self::state).
    pub fn from_state(state: u128) -> Self {
        Self { state }
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut hash = self.state;
        for &byte in bytes {
            hash ^= u128::from(byte);
            hash = hash.wrapping_mul(Self::PRIME);
        }
        self.state = hash;
    }

    /// The digest of everything folded in so far.
    pub fn value(&self) -> u128 {
        self.state
    }

    /// The resumable internal state (identical to [`value`](Self::value)
    /// for FNV-1a, but named separately so checkpoint code reads as what it
    /// is: a suspension point, not a final digest).
    pub fn state(&self) -> u128 {
        self.state
    }
}

impl Default for StreamDigest {
    fn default() -> Self {
        Self::new()
    }
}

/// A parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input at which the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl Error for JsonError {}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting deeper than 128 levels"));
        }
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.error(format!("unexpected byte `{}`", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, literal: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{literal}`")))
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value(depth + 1)?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one go.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.parse_hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\uXXXX` with a low surrogate.
                            let c = if (0xd800..0xdc00).contains(&code) {
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let low = self.parse_hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.error("invalid unicode escape"))?);
                        }
                        other => {
                            return Err(self.error(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| self.error("invalid \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let first_digit = self.peek();
        let int_digits = self.consume_digits();
        if int_digits == 0 {
            return Err(self.error("expected digits in number"));
        }
        if int_digits > 1 && first_digit == Some(b'0') {
            return Err(self.error("leading zeros are not allowed"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if self.consume_digits() == 0 {
                return Err(self.error("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.consume_digits() == 0 {
                return Err(self.error("expected digits in exponent"));
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(JsonValue::Int(v));
            }
        }
        let v: f64 = text
            .parse()
            .map_err(|_| self.error(format!("invalid number `{text}`")))?;
        if v.is_finite() {
            Ok(JsonValue::Number(v))
        } else {
            Err(self.error(format!("number `{text}` overflows f64")))
        }
    }

    fn consume_digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    #[test]
    fn writer_is_deterministic_and_ordered() {
        let doc = JsonValue::object()
            .with(SCHEMA_VERSION_KEY, SCHEMA_VERSION)
            .with("kind", "batch")
            .with("entries", JsonValue::Array(vec![JsonValue::Null]));
        let a = doc.to_pretty_string();
        let b = doc.to_pretty_string();
        assert_eq!(a, b);
        let version = a.find("schema_version").unwrap();
        let kind = a.find("kind").unwrap();
        assert!(version < kind, "insertion order preserved:\n{a}");
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn writer_places_separators_indentation_and_spliced_values() {
        let doc =
            JsonValue::parse(r#"{"a": [], "b": {}, "c": [1, {"d": null, "e": [true]}], "f": "x"}"#)
                .unwrap();
        let pretty = "{\n  \"a\": [],\n  \"b\": {},\n  \"c\": [\n    1,\n    {\n      \
                      \"d\": null,\n      \"e\": [\n        true\n      ]\n    }\n  ],\n  \
                      \"f\": \"x\"\n}\n";
        assert_eq!(doc.to_pretty_string(), pretty);
        assert_eq!(
            doc.to_compact_string(),
            r#"{"a":[],"b":{},"c":[1,{"d":null,"e":[true]}],"f":"x"}"#
        );

        // `c`'s second item rendered on its own for its level, then spliced.
        let mut item = String::new();
        let mut writer = JsonWriter::indented(&mut item, 2);
        doc.get("c").unwrap().as_array().unwrap()[1].walk(&mut writer, false);
        let mut spliced = String::new();
        let mut writer = JsonWriter::indented(&mut spliced, 0);
        writer.begin_object();
        for (key, value) in doc.as_object().unwrap() {
            writer.key(key);
            if key == "c" {
                writer.begin_array();
                writer.int(1);
                writer.raw(&item);
                writer.end_array();
            } else {
                value.walk(&mut writer, false);
            }
        }
        writer.end_object();
        assert_eq!(format!("{spliced}\n"), pretty);
    }

    #[test]
    fn writer_escapes_quotes_backslashes_and_control_characters_only() {
        let text = "\"\\\n\r\t\u{1}\u{1f} \u{7f}é😀\u{2028}";
        assert_eq!(
            JsonValue::from(text).to_compact_string(),
            "\"\\\"\\\\\\n\\r\\t\\u0001\\u001f \u{7f}é😀\u{2028}\""
        );
    }

    #[test]
    fn floats_round_trip_through_writer_and_parser() {
        for v in [0.1, 1.0 / 3.0, 1.6e6, -2.006543210987654, 1e-300, 0.0] {
            let text = JsonValue::Number(v).to_pretty_string();
            let parsed = JsonValue::parse(&text).unwrap();
            let back = parsed.as_f64().expect("number");
            assert_eq!(back.to_bits(), v.to_bits(), "{v} via {text}");
        }
    }

    #[test]
    fn non_finite_numbers_serialise_as_null() {
        assert_eq!(JsonValue::Number(f64::NAN).to_pretty_string(), "null\n");
        assert_eq!(
            JsonValue::Number(f64::INFINITY).to_pretty_string(),
            "null\n"
        );
    }

    #[test]
    fn integers_stay_integers() {
        let text = JsonValue::Int(4000).to_pretty_string();
        assert_eq!(text, "4000\n");
        assert_eq!(JsonValue::parse("4000").unwrap(), JsonValue::Int(4000));
        assert_eq!(
            JsonValue::parse("4000.0").unwrap(),
            JsonValue::Number(4000.0)
        );
        assert_eq!(JsonValue::from(3_usize), JsonValue::Int(3));
        assert_eq!(
            JsonValue::from(u64::MAX),
            JsonValue::Number(u64::MAX as f64)
        );
    }

    #[test]
    fn escaping_round_trips() {
        let nasty = "quote\" backslash\\ newline\n tab\t control\u{0001} unicode µ";
        let text = JsonValue::String(nasty.to_owned()).to_pretty_string();
        let parsed = JsonValue::parse(&text).unwrap();
        assert_eq!(parsed.as_str(), Some(nasty));
    }

    #[test]
    fn parser_accepts_the_report_shapes() {
        let text = r#"{
            "schema_version": 1,
            "kind": "bench",
            "benches": {"fig1/sweep": 1234.5, "other": 7}
        }"#;
        let doc = JsonValue::parse(text).unwrap();
        assert_eq!(
            doc.get(SCHEMA_VERSION_KEY).and_then(JsonValue::as_i64),
            Some(1)
        );
        assert_eq!(doc.get("kind").and_then(JsonValue::as_str), Some("bench"));
        let benches = doc.get("benches").unwrap().as_object().unwrap();
        assert_eq!(benches.len(), 2);
        assert_eq!(benches[0].1.as_f64(), Some(1234.5));
        assert_eq!(benches[1].1.as_f64(), Some(7.0));
    }

    #[test]
    fn parser_handles_arrays_literals_and_unicode_escapes() {
        let doc = JsonValue::parse(r#"[true, false, null, "\u00b5\ud83d\ude00", 1e-3]"#).unwrap();
        let items = doc.as_array().unwrap();
        assert_eq!(items[0], JsonValue::Bool(true));
        assert_eq!(items[1], JsonValue::Bool(false));
        assert_eq!(items[2], JsonValue::Null);
        assert_eq!(items[3].as_str(), Some("µ😀"));
        assert_eq!(items[4].as_f64(), Some(1e-3));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "\"bad escape \\q\"",
            "\"unpaired \\ud800 surrogate\"",
            "1e999",
            "[1] trailing",
            "01",
        ] {
            let err = JsonValue::parse(bad).expect_err(&format!("`{bad}` must be rejected"));
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(JsonValue::parse(&deep).is_err());
        let deep_objects = "{\"a\":".repeat(200) + "0" + &"}".repeat(200);
        assert!(JsonValue::parse(&deep_objects).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn accessors_return_none_on_mismatched_types() {
        let doc = JsonValue::parse("{\"a\": [1, 2]}").unwrap();
        assert!(doc.get("missing").is_none());
        assert!(doc.as_array().is_none());
        assert!(doc.get("a").unwrap().as_object().is_none());
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 2);
        assert!(JsonValue::Null.as_f64().is_none());
        assert!(JsonValue::Bool(true).as_str().is_none());
        assert!(JsonValue::Int(1).as_f64() == Some(1.0));
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn push_on_non_object_panics() {
        JsonValue::Null.push("key", 1i64);
    }

    #[test]
    fn canonical_form_sorts_keys_and_strips_whitespace() {
        let doc = JsonValue::parse(r#"{"b": [1, {"z": null, "a": 2.5}], "a": "x"}"#).unwrap();
        assert_eq!(
            doc.canonical_string(),
            r#"{"a":"x","b":[1,{"a":2.5,"z":null}]}"#
        );
        // Canonical text is itself valid JSON carrying the same data.
        let reparsed = JsonValue::parse(&doc.canonical_string()).unwrap();
        assert_eq!(reparsed.canonical_string(), doc.canonical_string());
    }

    #[test]
    fn content_hash_ignores_key_order_at_every_level() {
        let a = JsonValue::parse(
            r#"{"kind": "batch_request", "schema_version": 1,
                "grid": {"dh_max": [10], "excitation": [{"kind": "fig1", "step": 100}]}}"#,
        )
        .unwrap();
        let b = JsonValue::parse(
            r#"{"grid": {"excitation": [{"step": 100, "kind": "fig1"}], "dh_max": [10]},
                "schema_version": 1, "kind": "batch_request"}"#,
        )
        .unwrap();
        assert_eq!(content_hash(&a), content_hash(&b));
    }

    #[test]
    fn content_hash_changes_with_any_axis() {
        let base = r#"{"kind": "batch_request", "schema_version": 1,
            "grid": {"material": ["date2006"], "dh_max": [10],
                     "excitation": [{"kind": "major", "peak": 10000, "step": 100}]}}"#;
        let hash = |text: &str| content_hash(&JsonValue::parse(text).unwrap());
        let baseline = hash(base);
        for changed in [
            // A different schema version is a different cache universe.
            base.replace("\"schema_version\": 1", "\"schema_version\": 2"),
            base.replace("date2006", "hard-steel"),
            base.replace("\"dh_max\": [10]", "\"dh_max\": [25]"),
            base.replace("\"step\": 100", "\"step\": 50"),
            base.replace("\"peak\": 10000", "\"peak\": 10001"),
            base.replace("\"kind\": \"major\"", "\"kind\": \"fig1\""),
            // An added field changes the address too.
            base.replace("\"dh_max\": [10]", "\"dh_max\": [10, 25]"),
        ] {
            assert_ne!(baseline, hash(&changed), "{changed}");
        }
        // Array order is data, not layout: a reordered axis is a
        // different grid (the cartesian expansion order changes).
        assert_ne!(
            hash(r#"{"dh_max": [10, 25]}"#),
            hash(r#"{"dh_max": [25, 10]}"#)
        );
        // The hash is a pure function of the content: stable across calls
        // (and across processes — no randomised hasher state).
        assert_eq!(baseline, hash(base));
    }

    #[test]
    fn display_matches_pretty_writer() {
        let doc = JsonValue::object().with("a", 1i64);
        assert_eq!(format!("{doc}"), doc.to_pretty_string().trim_end());
    }

    #[test]
    fn compact_string_preserves_insertion_order() {
        let doc = JsonValue::object()
            .with("zeta", 1i64)
            .with("alpha", JsonValue::Array(vec![1i64.into(), 0.5.into()]))
            .with(
                "nested",
                JsonValue::object()
                    .with("b", true)
                    .with("a", JsonValue::Null),
            );
        assert_eq!(
            doc.to_compact_string(),
            r#"{"zeta":1,"alpha":[1,0.5],"nested":{"b":true,"a":null}}"#
        );
        // Same scalar formatting as the pretty writer (shortest round-trip
        // floats, non-finite -> null), no trailing newline.
        assert_eq!(JsonValue::Number(f64::NAN).to_compact_string(), "null");
        assert_eq!(JsonValue::Number(0.1).to_compact_string(), "0.1");
        // A compact document reparses to the same value.
        let reparsed = JsonValue::parse(&doc.to_compact_string()).unwrap();
        assert_eq!(reparsed.to_compact_string(), doc.to_compact_string());
    }

    #[test]
    fn compact_string_matches_canonical_when_keys_are_sorted() {
        // On documents whose keys are already in sorted order the two
        // compact writers must agree byte-for-byte.
        let doc = JsonValue::object()
            .with("a", 1i64)
            .with("b", "x")
            .with("c", JsonValue::Array(vec![JsonValue::Null]));
        assert_eq!(doc.to_compact_string(), doc.canonical_string());
    }

    #[test]
    fn stream_digest_matches_content_hash() {
        let doc = JsonValue::object().with("kind", "batch").with("n", 3i64);
        let mut digest = StreamDigest::new();
        digest.update(doc.canonical_string().as_bytes());
        assert_eq!(digest.value(), content_hash(&doc));
    }

    #[test]
    fn stream_digest_is_chunking_independent_and_resumable() {
        let payload = b"{\"index\":0}\n{\"index\":1}\n";
        let mut whole = StreamDigest::new();
        whole.update(payload);
        // Byte-at-a-time chunking lands on the same value.
        let mut chunked = StreamDigest::new();
        for byte in payload.iter() {
            chunked.update(std::slice::from_ref(byte));
        }
        assert_eq!(whole.value(), chunked.value());
        // Suspending after the first line and resuming from the captured
        // state (the checkpoint/resume round trip) also agrees.
        let mut first = StreamDigest::new();
        first.update(&payload[..12]);
        let mut resumed = StreamDigest::from_state(first.state());
        resumed.update(&payload[12..]);
        assert_eq!(whole.value(), resumed.value());
        // And an empty digest reports the FNV offset basis.
        assert_eq!(StreamDigest::new().value(), StreamDigest::default().value());
    }

    /// Arbitrary bytes, read as text the way a caller holding bytes would.
    fn arbitrary_text() -> impl Strategy<Value = String> {
        collection::vec(0usize..256, 0..96).prop_map(|bytes| {
            let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
            String::from_utf8_lossy(&bytes).into_owned()
        })
    }

    /// JSON punctuation, literals and their near misses, `\u` escapes
    /// (lone surrogates included), out-of-range numbers and nesting past
    /// the depth limit.
    const JSON_TOKENS: [&str; 40] = [
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        " ",
        "\n",
        "\"",
        "\\",
        "\"k\"",
        "\"\\u0041\"",
        "\"\\ud800\"",
        "\"\\udc00\"",
        "\"\\ud83d\\ude00\"",
        "\"\\ud83d\\u0041\"",
        "\"\\u12\"",
        "\"\\uzzzz\"",
        "\"\\x\"",
        "\"\u{1}\"",
        "1e999",
        "-1e999",
        "1e-999",
        "-0",
        "0",
        "-",
        "01",
        "1.",
        ".5",
        "1.5e+7",
        "9223372036854775808",
        "true",
        "false",
        "null",
        "nul",
        "tru",
        "é",
        "\u{feff}",
        "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[",
        "{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":",
    ];

    /// A document of up to 24 vocabulary tokens; the two nesting tokens
    /// (the only ones over 20 bytes) repeat four times, so a document can
    /// nest 200 deep.
    fn json_soup() -> impl Strategy<Value = String> {
        collection::vec(0usize..JSON_TOKENS.len(), 0..24).prop_map(|tokens| {
            tokens
                .into_iter()
                .map(|token| match JSON_TOKENS[token] {
                    nest if nest.len() > 20 => nest.repeat(4),
                    token => token.to_owned(),
                })
                .collect()
        })
    }

    /// Parses `text` without panicking; a success re-renders to a document
    /// that parses back to the same value, and an error points inside the
    /// input.
    fn assert_parse_is_total(text: &str) {
        match JsonValue::parse(text) {
            Ok(value) => {
                let rendered = value.to_compact_string();
                assert_eq!(JsonValue::parse(&rendered), Ok(value), "{text:?}");
            }
            Err(err) => assert!(err.offset <= text.len(), "{text:?}: {err}"),
        }
    }

    const DOC_INTS: [i64; 5] = [0, -1, 42, i64::MIN, i64::MAX];
    const DOC_NUMBERS: [f64; 11] = [
        0.0,
        -0.0,
        1.5,
        -2.25e-300,
        1e300,
        0.1,
        -7.0e15,
        3.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    const DOC_STRINGS: [&str; 8] = [
        "",
        "a",
        "quote\"",
        "back\\slash",
        "nl\n\ttab\r",
        "\u{1}ctl\u{1f}",
        "é ü",
        "\u{2028}",
    ];
    /// Few keys, so objects often repeat one; "a" is listed twice.
    const DOC_KEYS: [&str; 6] = ["b", "a", "", "a", "é", "k\"ey"];

    /// A document built from a stream of choices: objects and arrays
    /// nested three deep, duplicate keys, strings that need escaping,
    /// `-0.0` and non-finite numbers.
    fn document(choices: &mut impl Iterator<Item = usize>, depth: usize) -> JsonValue {
        let Some(c) = choices.next() else {
            return JsonValue::Null;
        };
        let pick = c / 8;
        // The root is always a container; the next two levels may hold
        // any kind, the fourth scalars only.
        let kind = match depth {
            0 => 6 + c % 2,
            1..=2 => c % 8,
            _ => c % 6,
        };
        match kind {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(pick % 2 == 1),
            2 => JsonValue::Int(DOC_INTS[pick % DOC_INTS.len()]),
            3 => JsonValue::Number(DOC_NUMBERS[pick % DOC_NUMBERS.len()]),
            4 | 5 => JsonValue::String(DOC_STRINGS[pick % DOC_STRINGS.len()].to_owned()),
            6 => JsonValue::Array(
                (0..pick % 4)
                    .map(|_| document(choices, depth + 1))
                    .collect(),
            ),
            _ => JsonValue::Object(
                (0..pick % 4)
                    .map(|i| {
                        let key = DOC_KEYS[(pick / 4 + i) % DOC_KEYS.len()].to_owned();
                        (key, document(choices, depth + 1))
                    })
                    .collect(),
            ),
        }
    }

    /// The value a document's text parses back to: non-finite numbers are
    /// written as `null`.
    fn as_written(value: &JsonValue) -> JsonValue {
        match value {
            JsonValue::Number(v) if !v.is_finite() => JsonValue::Null,
            JsonValue::Array(items) => JsonValue::Array(items.iter().map(as_written).collect()),
            JsonValue::Object(fields) => JsonValue::Object(
                fields
                    .iter()
                    .map(|(key, value)| (key.clone(), as_written(value)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    /// A copy with every object's keys stably sorted, at every level.
    fn key_sorted(value: &JsonValue) -> JsonValue {
        match value {
            JsonValue::Array(items) => JsonValue::Array(items.iter().map(key_sorted).collect()),
            JsonValue::Object(fields) => {
                let mut fields: Vec<(String, JsonValue)> = fields
                    .iter()
                    .map(|(key, value)| (key.clone(), key_sorted(value)))
                    .collect();
                fields.sort_by(|a, b| a.0.cmp(&b.0));
                JsonValue::Object(fields)
            }
            other => other.clone(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn parse_never_panics_on_arbitrary_bytes(text in arbitrary_text()) {
            assert_parse_is_total(&text);
        }

        #[test]
        fn parse_never_panics_on_token_soup(text in json_soup()) {
            assert_parse_is_total(&text);
        }

        /// The three text forms of one writer agree: pretty and compact
        /// text parse back to the written value (`-0.0` keeps its sign,
        /// which `==` alone would not show), and canonical text is the
        /// compact text of the recursively key-sorted document.
        #[test]
        fn pretty_compact_and_canonical_text_agree(
            choices in collection::vec(0usize..1 << 20, 0..48),
        ) {
            let doc = document(&mut choices.into_iter(), 0);
            let written = as_written(&doc);
            for text in [doc.to_pretty_string(), doc.to_compact_string()] {
                let parsed = JsonValue::parse(&text).expect("writer output parses");
                prop_assert_eq!(&parsed, &written, "{}", text);
                prop_assert_eq!(parsed.to_compact_string(), written.to_compact_string());
            }
            prop_assert_eq!(doc.canonical_string(), key_sorted(&doc).to_compact_string());
        }
    }
}
