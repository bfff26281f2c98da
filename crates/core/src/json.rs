//! A small, dependency-free JSON value model, parser, and emitter.
//!
//! The workspace builds without registry access, so instead of `serde` +
//! `serde_json` the report/config types get the two traits defined here
//! from one declaration. The surface is deliberately tiny:
//!
//! * [`Json`] — a JSON document as a tree of values. Integers are kept
//!   exact (separate [`Json::UInt`]/[`Json::Int`] variants) so `u64`
//!   counters survive a round trip without `f64` truncation.
//! * [`ToJson`] / [`FromJson`] — conversion traits, implemented for the
//!   primitives plus `Vec<T>`, `Option<T>` and `[T; N]`.
//! * [`json_record!`](crate::json_record) — the derive stand-in: wraps a
//!   literal `struct` or `enum` declaration and emits both impls in
//!   declaration order (and, for an all-`u64` report, its relaxed-atomic
//!   tally), so a field is spelled exactly once.
//! * [`to_string`] / [`to_string_pretty`] / [`from_str`] — the
//!   `serde_json`-shaped entry points the harness uses.
//!
//! Compact output does not build a tree: [`ToJson::write_json`] appends
//! a value's text straight to a `String`, and [`to_string`] is that
//! writer. Records, integers, strings, options and sequences write their
//! own bytes; a hand-written [`ToJson`] impl that only has `to_json`
//! still works, through the tree. Both paths print the same bytes.
//! Parsing always builds a [`Json`] tree.
//!
//! Enum encodings follow serde's *externally tagged* convention so the
//! artifact files keep the same shape they had under serde: a unit variant
//! is a bare string (`"SpaceSaving"`), a data-carrying variant is a
//! one-entry object (`{"Count": 7}`).
//!
//! AUDIT: total — the parser reads attacker-controlled query frames;
//! enforced by `cargo xtask audit` (lint-totality).

use std::fmt::Write as _;

/// Error raised by parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

/// Convenience alias for fallible JSON operations.
pub type JsonResult<T> = std::result::Result<T, JsonError>;

fn err<T>(msg: impl Into<String>) -> JsonResult<T> {
    Err(JsonError(msg.into()))
}

/// A JSON value.
///
/// Object member order is preserved (members are a `Vec`, not a map): the
/// emitters write fields in insertion order and duplicate keys are not
/// checked for.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal, kept exact.
    UInt(u64),
    /// A negative integer literal, kept exact.
    Int(i64),
    /// A fractional or exponent-form number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Member lookup on an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Member lookup that errors (with the key name) when absent.
    pub fn field(&self, key: &str) -> JsonResult<&Json> {
        self.get(key)
            .ok_or_else(|| JsonError(format!("missing field `{key}`")))
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer (including a
    /// float with an exact integral value, e.g. `1e3`).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(v) => Some(v),
            Json::Int(v) => u64::try_from(v).ok(),
            Json::Float(v) if v >= 0.0 && v <= u64::MAX as f64 && v.fract() == 0.0 => {
                Some(v as u64)
            }
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::UInt(v) => i64::try_from(v).ok(),
            Json::Int(v) => Some(v),
            Json::Float(v)
                if v.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(&v) =>
            {
                Some(v as i64)
            }
            _ => None,
        }
    }

    /// The value as `f64`, for any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(v) => Some(v as f64),
            Json::Int(v) => Some(v as f64),
            Json::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Serialize compactly (no whitespace).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialize with two-space indentation, `serde_json::to_string_pretty`
    /// style.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => b.write_json(out),
            Json::UInt(v) => write_u64(out, *v),
            Json::Int(v) => write_i64(out, *v),
            Json::Float(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items, |out, v, d| {
                    v.write(out, indent, d);
                });
            }
            Json::Obj(members) => {
                write_seq(out, indent, depth, '{', '}', members, |out, (k, v), d| {
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d);
                });
            }
        }
    }
}

/// Append `v` in decimal — the digits `write!` prints, without a trip
/// through `core::fmt`.
fn write_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    for slot in digits.iter_mut().rev() {
        *slot = b'0' + (v % 10) as u8;
        start -= 1;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    let digits = digits.get(start..).unwrap_or_default();
    out.push_str(std::str::from_utf8(digits).unwrap_or_default());
}

/// Append `v` in decimal, with a leading `-` when negative.
fn write_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    write_u64(out, v.unsigned_abs());
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        // JSON has no Infinity/NaN literal; serde_json errors here. These
        // never occur in the report types, so degrade to null.
        out.push_str("null");
    }
}

/// Append `s` as a JSON string literal.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    items: &[T],
    mut item: impl FnMut(&mut String, &T, usize),
) {
    out.push(open);
    if items.is_empty() {
        out.push(close);
        return;
    }
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            for _ in 0..w * (depth + 1) {
                out.push(' ');
            }
        }
        item(out, v, depth + 1);
    }
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
    out.push(close);
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

impl std::str::FromStr for Json {
    type Err = JsonError;

    fn from_str(s: &str) -> JsonResult<Json> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// How deep arrays and objects may nest. The parser recurses once per
/// level, so without a bound a frame of nested `[` would overflow the
/// stack of the thread reading it; no document this crate writes nests
/// more than a handful of levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// The bytes from `start` up to the cursor.
    fn since(&self, start: usize) -> &[u8] {
        self.bytes.get(start..self.pos).unwrap_or_default()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> JsonResult<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> JsonResult<Json> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        if rest.starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> JsonResult<Json> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if self.depth >= MAX_DEPTH => err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => err("unexpected end of input"),
        }
    }

    /// Parse one array or object one level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> JsonResult<Json>) -> JsonResult<Json> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> JsonResult<Json> {
        self.eat(b'[')?;
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
                _ => return err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> JsonResult<Json> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> JsonResult<String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(self.since(start))
                    .map_err(|_| JsonError("invalid utf-8 in string".into()))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    s.push(self.escape()?);
                }
                _ => return err("unterminated string"),
            }
        }
    }

    fn escape(&mut self) -> JsonResult<char> {
        let c = self.peek().ok_or_else(|| JsonError("bad escape".into()))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: a second \uXXXX must follow.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.eat(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return err("invalid low surrogate");
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return err("lone high surrogate");
                    }
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| JsonError("invalid code point".into()))?
            }
            _ => return err(format!("invalid escape `\\{}`", c as char)),
        })
    }

    fn hex4(&mut self) -> JsonResult<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| JsonError("bad \\u escape".into()))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| JsonError("bad hex digit".into()))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> JsonResult<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(self.since(start))
            .map_err(|_| JsonError("invalid number".into()))?;
        if !fractional {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError(format!("invalid number `{text}`")))
    }
}

// ---------------------------------------------------------------------------
// Conversion traits
// ---------------------------------------------------------------------------

/// Conversion into JSON: a [`Json`] tree, or compact text.
pub trait ToJson {
    /// Build the JSON representation.
    fn to_json(&self) -> Json;

    /// Append the compact text of [`ToJson::to_json`] to `out`. The
    /// default prints the tree; the impls in this module and the ones
    /// [`json_record!`](crate::json_record) generates write directly,
    /// byte for byte the same.
    fn write_json(&self, out: &mut String) {
        self.to_json().write(out, None, 0);
    }
}

/// Conversion back from a [`Json`] tree.
pub trait FromJson: Sized {
    /// Reconstruct a value, validating shape and field presence.
    fn from_json(v: &Json) -> JsonResult<Self>;
}

/// Serialize compactly, `serde_json::to_string` style, through
/// [`ToJson::write_json`].
pub fn to_string<T: ToJson + ?Sized>(v: &T) -> String {
    let mut out = String::new();
    v.write_json(&mut out);
    out
}

/// Serialize with indentation, `serde_json::to_string_pretty` style.
pub fn to_string_pretty<T: ToJson + ?Sized>(v: &T) -> String {
    v.to_json().pretty()
}

/// Parse then convert, `serde_json::from_str` style.
pub fn from_str<T: FromJson>(s: &str) -> JsonResult<T> {
    T::from_json(&s.parse::<Json>()?)
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }

    fn write_json(&self, out: &mut String) {
        self.write(out, None, 0);
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> JsonResult<Self> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> JsonResult<Self> {
        v.as_bool().ok_or_else(|| JsonError("expected bool".into()))
    }
}

macro_rules! json_uint {
    ($($t:ty),*) => {
        $(
            impl ToJson for $t {
                fn to_json(&self) -> Json {
                    Json::UInt(*self as u64)
                }

                fn write_json(&self, out: &mut String) {
                    write_u64(out, *self as u64);
                }
            }

            impl FromJson for $t {
                fn from_json(v: &Json) -> JsonResult<Self> {
                    let raw = v
                        .as_u64()
                        .ok_or_else(|| JsonError("expected unsigned integer".into()))?;
                    <$t>::try_from(raw)
                        .map_err(|_| JsonError("integer out of range".into()))
                }
            }
        )*
    };
}

json_uint!(u8, u16, u32, u64, usize);

macro_rules! json_int {
    ($($t:ty),*) => {
        $(
            impl ToJson for $t {
                fn to_json(&self) -> Json {
                    let v = *self as i64;
                    if v < 0 { Json::Int(v) } else { Json::UInt(v as u64) }
                }

                fn write_json(&self, out: &mut String) {
                    write_i64(out, *self as i64);
                }
            }

            impl FromJson for $t {
                fn from_json(v: &Json) -> JsonResult<Self> {
                    let raw = v
                        .as_i64()
                        .ok_or_else(|| JsonError("expected integer".into()))?;
                    <$t>::try_from(raw)
                        .map_err(|_| JsonError("integer out of range".into()))
                }
            }
        )*
    };
}

json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }

    fn write_json(&self, out: &mut String) {
        write_f64(out, *self);
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> JsonResult<Self> {
        v.as_f64()
            .ok_or_else(|| JsonError("expected number".into()))
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Float(*self as f64)
    }

    fn write_json(&self, out: &mut String) {
        write_f64(out, *self as f64);
    }
}

impl FromJson for f32 {
    fn from_json(v: &Json) -> JsonResult<Self> {
        Ok(f64::from_json(v)? as f32)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }

    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> JsonResult<Self> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError("expected string".into()))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }

    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

/// Append `items` as a JSON array.
fn write_array<T: ToJson>(out: &mut String, items: &[T]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }

    fn write_json(&self, out: &mut String) {
        write_array(out, self);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> JsonResult<Self> {
        v.as_arr()
            .ok_or_else(|| JsonError("expected array".into()))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }

    fn write_json(&self, out: &mut String) {
        write_array(out, self);
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }

    fn write_json(&self, out: &mut String) {
        write_array(out, self);
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> JsonResult<Self> {
        let items = Vec::<T>::from_json(v)?;
        let n = items.len();
        items
            .try_into()
            .map_err(|_| JsonError(format!("expected array of length {N}, got {n}")))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> JsonResult<Self> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

macro_rules! json_tuple {
    ($($name:ident : $idx:tt),+ ; $len:expr) => {
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn to_json(&self) -> Json {
                Json::Arr(vec![$(self.$idx.to_json()),+])
            }

        }

        impl<$($name: FromJson),+> FromJson for ($($name,)+) {
            fn from_json(v: &Json) -> JsonResult<Self> {
                let items = v.as_arr().ok_or_else(|| JsonError("expected array".into()))?;
                if items.len() != $len {
                    return err(format!("expected {}-tuple, got {} items", $len, items.len()));
                }
                let item = |i: usize| items.get(i).unwrap_or(&Json::Null);
                Ok(($($name::from_json(item($idx))?,)+))
            }
        }
    };
}

json_tuple!(A:0; 1);
json_tuple!(A:0, B:1; 2);
json_tuple!(A:0, B:1, C:2; 3);
json_tuple!(A:0, B:1, C:2, D:3; 4);

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }

    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

// ---------------------------------------------------------------------------
// Declared-once records
// ---------------------------------------------------------------------------

/// Decode member `key` of object `v`; a missing member or a wrong type is
/// reported with the field's name.
pub fn field<T: FromJson>(v: &Json, key: &str) -> JsonResult<T> {
    T::from_json(v.field(key)?).map_err(|e| JsonError(format!("field `{key}`: {}", e.0)))
}

/// Decompose an externally-tagged enum value: `"Variant"` or
/// `{"Variant": payload}`.
pub fn variant(v: &Json) -> JsonResult<(&str, Option<&Json>)> {
    match v {
        Json::Str(name) => Ok((name, None)),
        Json::Obj(members) => match members.as_slice() {
            [(name, payload)] => Ok((name.as_str(), Some(payload))),
            _ => err("expected an enum variant"),
        },
        _ => err("expected an enum variant"),
    }
}

/// Build the externally-tagged form of a data-carrying variant.
pub fn tagged(name: &str, payload: Json) -> Json {
    Json::Obj(vec![(name.to_string(), payload)])
}

/// Open a member of the object being written: a comma unless it is the
/// first member, then `key`, the member's quoted name and colon.
#[doc(hidden)]
pub fn write_key(out: &mut String, key: &str) {
    // A written value never ends in `{`, so this is the object's opener.
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push_str(key);
}

/// Declare a type once and get [`ToJson`] + [`FromJson`] for it.
///
/// The body is the literal item — attributes, doc comments, visibility
/// and all — so the source reads (and greps, and lints) as an ordinary
/// declaration:
///
/// ```
/// cots_core::json_record! {
///     /// A point on the wire.
///     #[derive(Debug, PartialEq)]
///     pub struct Point {
///         /// Abscissa.
///         pub x: u64,
///         /// Absent in frames written before labels existed.
///         pub label: Option<String> = None,
///     }
/// }
/// let p: Point = cots_core::json::from_str(r#"{"x":3}"#).unwrap();
/// assert_eq!(cots_core::json::to_string(&p), r#"{"x":3,"label":null}"#);
/// ```
///
/// * A **struct** becomes an object with one member per field, in
///   declaration order. Every member must be present on decode unless
///   the field carries `= default`; errors name the field. Type
///   parameters are allowed (`struct Entry<K> { .. }`).
/// * An **enum** uses the externally tagged convention of this module:
///   `"Unit"`, `{"Newtype": value}`, `{"Struct": {"field": ..}}`.
/// * A struct of `u64` counters followed by `tally Name;` also gets its
///   shared mirror: `Name` holds one relaxed `AtomicU64` per field, an
///   adder named after each field, and `snapshot()` freezing the totals
///   into the struct. The counts are statistics, not synchronization.
#[macro_export]
macro_rules! json_record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty ),* $(,)?
        }
        $(#[$tmeta:meta])*
        tally $tally:ident;
    ) => {
        $crate::json_record! {
            $(#[$meta])*
            $vis struct $name { $( $(#[$fmeta])* $fvis $field : $fty ),* }
        }

        $(#[$tmeta])*
        #[derive(Debug, Default)]
        $vis struct $tally {
            $( $field: ::std::sync::atomic::AtomicU64, )*
        }

        impl $tally {
            /// Fresh tally with all counters zero.
            pub fn new() -> Self {
                Self::default()
            }

            $(
                #[doc = concat!("Add `n` to `", stringify!($field), "`.")]
                #[inline]
                pub fn $field(&self, n: u64) {
                    self.$field.fetch_add(n, ::std::sync::atomic::Ordering::Relaxed);
                }
            )*

            /// Freeze the totals.
            pub fn snapshot(&self) -> $name {
                $name {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )*
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $(<$($gen:ident),+>)? {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty $(= $default:expr)? ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name $(<$($gen),+>)? {
            $( $(#[$fmeta])* $fvis $field : $fty, )*
        }

        impl<$($($gen: $crate::json::ToJson),+)?> $crate::json::ToJson for $name<$($($gen),+)?> {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $( (stringify!($field).to_string(), $crate::json::ToJson::to_json(&self.$field)), )*
                ])
            }

            fn write_json(&self, out: &mut String) {
                $crate::json_record!(@object out, $( $field: &self.$field ),*);
            }
        }

        impl<$($($gen: $crate::json::FromJson),+)?> $crate::json::FromJson for $name<$($($gen),+)?> {
            fn from_json(v: &$crate::json::Json) -> $crate::json::JsonResult<Self> {
                Ok(Self {
                    $( $field: $crate::json_record!(@field v, $field $(, $default)?), )*
                })
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident $(<$($gen:ident),+>)? { $($body:tt)* }
    ) => {
        $crate::json_record! {
            @enum ($(#[$meta])* $vis enum $name ($($($gen),+)?)) out () () () () $($body)*
        }
    };

    (@field $v:ident, $field:ident) => {
        $crate::json::field($v, stringify!($field))?
    };
    (@field $v:ident, $field:ident, $default:expr) => {
        match $v.get(stringify!($field)) {
            Some(_) => $crate::json::field($v, stringify!($field))?,
            None => $default,
        }
    };

    // One object, members in declaration order, written into `$out`.
    (@object $out:ident, $( $field:ident : $value:expr ),*) => {{
        $out.push('{');
        $(
            $crate::json::write_key($out, concat!("\"", stringify!($field), "\":"));
            $crate::json::ToJson::write_json($value, $out);
        )*
        $out.push('}');
    }};

    // Enum variants are munched one at a time into four accumulators:
    // the declaration body, the `to_json` arms, the `write_json` arms
    // and the `from_json` arms.
    (
        @enum $head:tt $out:ident ($($decl:tt)*) ($($to:tt)*) ($($write:tt)*) ($($from:tt)*)
        $(#[$vmeta:meta])* $variant:ident {
            $( $(#[$fmeta:meta])* $field:ident : $fty:ty ),* $(,)?
        } $(, $($rest:tt)*)?
    ) => {
        $crate::json_record! {
            @enum $head $out
            ($($decl)* $(#[$vmeta])* $variant { $( $(#[$fmeta])* $field : $fty ),* },)
            ($($to)* Self::$variant { $($field),* } => $crate::json::tagged(
                stringify!($variant),
                $crate::json::Json::Obj(vec![
                    $( (stringify!($field).to_string(), $crate::json::ToJson::to_json($field)), )*
                ]),
            ),)
            ($($write)* Self::$variant { $($field),* } => {
                $out.push_str(concat!("{\"", stringify!($variant), "\":"));
                $crate::json_record!(@object $out, $( $field: $field ),*);
                $out.push('}');
            })
            ($($from)* (stringify!($variant), Some(p)) => Ok(Self::$variant {
                $( $field: $crate::json::field(p, stringify!($field))?, )*
            }),)
            $($($rest)*)?
        }
    };
    (
        @enum $head:tt $out:ident ($($decl:tt)*) ($($to:tt)*) ($($write:tt)*) ($($from:tt)*)
        $(#[$vmeta:meta])* $variant:ident ( $inner:ty ) $(, $($rest:tt)*)?
    ) => {
        $crate::json_record! {
            @enum $head $out
            ($($decl)* $(#[$vmeta])* $variant($inner),)
            ($($to)* Self::$variant(inner) => $crate::json::tagged(
                stringify!($variant),
                $crate::json::ToJson::to_json(inner),
            ),)
            ($($write)* Self::$variant(inner) => {
                $out.push_str(concat!("{\"", stringify!($variant), "\":"));
                $crate::json::ToJson::write_json(inner, $out);
                $out.push('}');
            })
            ($($from)* (stringify!($variant), Some(p)) => {
                Ok(Self::$variant($crate::json::FromJson::from_json(p)?))
            })
            $($($rest)*)?
        }
    };
    (
        @enum $head:tt $out:ident ($($decl:tt)*) ($($to:tt)*) ($($write:tt)*) ($($from:tt)*)
        $(#[$vmeta:meta])* $variant:ident $(, $($rest:tt)*)?
    ) => {
        $crate::json_record! {
            @enum $head $out
            ($($decl)* $(#[$vmeta])* $variant,)
            ($($to)* Self::$variant => $crate::json::Json::Str(stringify!($variant).to_string()),)
            ($($write)* Self::$variant => $out.push_str(concat!("\"", stringify!($variant), "\"")),)
            ($($from)* (stringify!($variant), None) => Ok(Self::$variant),)
            $($($rest)*)?
        }
    };
    (
        @enum ($(#[$meta:meta])* $vis:vis enum $name:ident ($($gen:ident),*)) $out:ident
        ($($decl:tt)*) ($($to:tt)*) ($($write:tt)*) ($($from:tt)*)
    ) => {
        $(#[$meta])*
        $vis enum $name<$($gen),*> { $($decl)* }

        impl<$($gen: $crate::json::ToJson),*> $crate::json::ToJson for $name<$($gen),*> {
            fn to_json(&self) -> $crate::json::Json {
                match self { $($to)* }
            }

            fn write_json(&self, $out: &mut String) {
                match self { $($write)* }
            }
        }

        impl<$($gen: $crate::json::FromJson),*> $crate::json::FromJson for $name<$($gen),*> {
            fn from_json(v: &$crate::json::Json) -> $crate::json::JsonResult<Self> {
                match $crate::json::variant(v)? {
                    $($from)*
                    (name, _) => Err($crate::json::JsonError(format!(
                        "unknown {} variant `{name}`",
                        stringify!($name)
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!("null".parse::<Json>().unwrap(), Json::Null);
        assert_eq!("true".parse::<Json>().unwrap(), Json::Bool(true));
        assert_eq!("42".parse::<Json>().unwrap(), Json::UInt(42));
        assert_eq!("-7".parse::<Json>().unwrap(), Json::Int(-7));
        assert_eq!("1.5".parse::<Json>().unwrap(), Json::Float(1.5));
        assert_eq!("1e3".parse::<Json>().unwrap(), Json::Float(1000.0));
        assert_eq!(
            "\"hi\\n\\u0041\"".parse::<Json>().unwrap(),
            Json::Str("hi\nA".into())
        );
    }

    #[test]
    fn parses_structures() {
        let v: Json = r#" {"a": [1, 2, {"b": null}], "c": "x"} "#.parse().unwrap();
        assert_eq!(v.field("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.field("c").unwrap().as_str(), Some("x"));
        assert!(v.field("missing").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!("".parse::<Json>().is_err());
        assert!("{".parse::<Json>().is_err());
        assert!("[1,]".parse::<Json>().is_err());
        assert!("nul".parse::<Json>().is_err());
        assert!("1 2".parse::<Json>().is_err());
        assert!("\"unterminated".parse::<Json>().is_err());
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(deep(MAX_DEPTH).parse::<Json>().is_ok());
        let e = deep(MAX_DEPTH + 1).parse::<Json>().unwrap_err();
        assert!(e.0.contains("nesting deeper"), "{e}");
        // A frame's worth of openers is an error, not a crash.
        assert!("[{\"a\":".repeat(1 << 20).parse::<Json>().is_err());
    }

    #[test]
    fn u64_round_trip_is_exact() {
        let big = u64::MAX - 1;
        let s = to_string(&big);
        assert_eq!(from_str::<u64>(&s).unwrap(), big);
    }

    #[test]
    fn surrogate_pairs() {
        let v: Json = "\"\\ud83d\\ude00\"".parse().unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        assert!("\"\\ud83d\"".parse::<Json>().is_err());
    }

    #[test]
    fn string_escaping_round_trip() {
        let original = "line\nbreak \"quote\" back\\slash \u{1}".to_string();
        let back: String = from_str(&to_string(&original)).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn pretty_output_shape() {
        let v = Json::obj(vec![
            ("a", Json::UInt(1)),
            ("b", Json::Arr(vec![Json::Bool(true)])),
        ]);
        assert_eq!(v.dump(), r#"{"a":1,"b":[true]}"#);
        let pretty = v.pretty();
        assert!(pretty.contains("\n  \"a\": 1"));
        assert_eq!(pretty.parse::<Json>().unwrap(), v);
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<Option<u32>> = vec![Some(3), None, Some(5)];
        let back: Vec<Option<u32>> = from_str(&to_string(&v)).unwrap();
        assert_eq!(back, v);
        let arr = [1.5f64, 2.5, -3.25];
        let back: [f64; 3] = from_str(&to_string(&arr)).unwrap();
        assert_eq!(back, arr);
        assert!(from_str::<[f64; 2]>(&to_string(&arr)).is_err());
    }

    crate::json_record! {
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        struct Inner {
            hits: u64,
            misses: u64,
        }

        tally InnerTally;
    }

    crate::json_record! {
        #[derive(Debug, Clone, PartialEq)]
        struct Outer<K> {
            key: K,
            label: Option<String>,
            inner: Inner,
            rows: Vec<Inner>,
            added_later: u32 = 7,
        }
    }

    crate::json_record! {
        #[derive(Debug, Clone, PartialEq)]
        enum Shape<K> {
            Empty,
            Tagged(K),
            Sized { width: u32, inner: Inner },
        }
    }

    fn outer() -> Outer<u64> {
        Outer {
            key: 9,
            label: None,
            inner: Inner { hits: 1, misses: 2 },
            rows: vec![Inner { hits: 3, misses: 4 }],
            added_later: 5,
        }
    }

    #[test]
    fn record_encodes_in_declaration_order_and_round_trips() {
        let text = to_string(&outer());
        assert_eq!(
            text,
            r#"{"key":9,"label":null,"inner":{"hits":1,"misses":2},"rows":[{"hits":3,"misses":4}],"added_later":5}"#
        );
        assert_eq!(from_str::<Outer<u64>>(&text).unwrap(), outer());
        let labelled = Outer {
            label: Some("x".into()),
            rows: vec![],
            ..outer()
        };
        assert_eq!(
            from_str::<Outer<u64>>(&to_string(&labelled)).unwrap(),
            labelled
        );
    }

    #[test]
    fn record_errors_name_the_field() {
        let missing = r#"{"key":9,"inner":{"hits":1,"misses":2},"rows":[]}"#;
        let e = from_str::<Outer<u64>>(missing).unwrap_err();
        assert_eq!(
            e.0, "missing field `label`",
            "`Option` members must be present"
        );
        let wrong = r#"{"key":9,"label":null,"inner":{"hits":"one","misses":2},"rows":[]}"#;
        let e = from_str::<Outer<u64>>(wrong).unwrap_err();
        assert_eq!(
            e.0,
            "field `inner`: field `hits`: expected unsigned integer"
        );
        let wrong_row =
            r#"{"key":9,"label":null,"inner":{"hits":1,"misses":2},"rows":[{"hits":1}]}"#;
        let e = from_str::<Outer<u64>>(wrong_row).unwrap_err();
        assert_eq!(e.0, "field `rows`: missing field `misses`");
        assert!(from_str::<Outer<u64>>("[]").is_err());
    }

    #[test]
    fn defaulted_field_may_be_absent_but_not_malformed() {
        let absent = r#"{"key":9,"label":null,"inner":{"hits":1,"misses":2},"rows":[]}"#;
        assert_eq!(from_str::<Outer<u64>>(absent).unwrap().added_later, 7);
        let malformed =
            r#"{"key":9,"label":null,"inner":{"hits":1,"misses":2},"rows":[],"added_later":-1}"#;
        let e = from_str::<Outer<u64>>(malformed).unwrap_err();
        assert!(e.0.starts_with("field `added_later`"), "{e}");
    }

    #[test]
    fn enum_uses_external_tags() {
        let sized = Shape::<u64>::Sized {
            width: 2,
            inner: Inner { hits: 1, misses: 0 },
        };
        for (shape, text) in [
            (Shape::Empty, r#""Empty""#),
            (Shape::Tagged(4), r#"{"Tagged":4}"#),
            (
                sized,
                r#"{"Sized":{"width":2,"inner":{"hits":1,"misses":0}}}"#,
            ),
        ] {
            assert_eq!(to_string(&shape), text);
            assert_eq!(from_str::<Shape<u64>>(text).unwrap(), shape);
        }
        let e = from_str::<Shape<u64>>(r#""Round""#).unwrap_err();
        assert_eq!(e.0, "unknown Shape variant `Round`");
        // A unit variant with a payload, or a data variant without one,
        // is not the variant.
        assert!(from_str::<Shape<u64>>(r#"{"Empty":{}}"#).is_err());
        assert!(from_str::<Shape<u64>>(r#""Tagged""#).is_err());
        let e = from_str::<Shape<u64>>(r#"{"Sized":{"width":2}}"#).unwrap_err();
        assert_eq!(e.0, "missing field `inner`");
        assert!(from_str::<Shape<u64>>(r#"{"Empty":1,"Tagged":2}"#).is_err());
    }

    #[test]
    fn tally_mirrors_the_record_field_for_field() {
        let t = std::sync::Arc::new(InnerTally::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        t.hits(2);
                    }
                });
            }
        });
        t.misses(1);
        assert_eq!(
            t.snapshot(),
            Inner {
                hits: 8000,
                misses: 1
            }
        );
    }

    #[test]
    fn out_of_range_integers_rejected() {
        assert!(from_str::<u8>("300").is_err());
        assert!(from_str::<u64>("-1").is_err());
        assert!(from_str::<u32>("1.5").is_err());
    }
}
