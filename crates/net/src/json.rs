//! JSON for every export: one writer and the one reader.
//!
//! The writer ([`object`], [`Obj`], [`Arr`]) owns separators, string
//! escaping and fixed-precision floats, so an emitter only names its
//! fields and values. The reader ([`parse`], [`Json`]) accepts every
//! escape the writer emits; the CLI's `ttrace diff` and the benchmark's
//! result files read through it. Both are dependency-free and
//! deterministic: same values in, same bytes out.

use std::fmt::Write as _;

// ---- writer ----

/// A value that renders as one JSON scalar.
pub trait Scalar {
    /// Append the rendered value to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! display_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

display_scalar!(bool, u16, u32, u64, usize, i64);

impl Scalar for str {
    fn write_json(&self, out: &mut String) {
        quote(out, self);
    }
}

impl Scalar for String {
    fn write_json(&self, out: &mut String) {
        quote(out, self);
    }
}

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// `None` renders as `null`.
impl<T: Scalar> Scalar for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// A float with a fixed number of decimals (`Fixed(0.25, 4)` renders
/// `0.2500`). JSON has no NaN or infinity, so a non-finite value renders
/// as `null`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fixed(pub f64, pub usize);

impl Scalar for Fixed {
    fn write_json(&self, out: &mut String) {
        if self.0.is_finite() {
            let _ = write!(out, "{:.*}", self.1, self.0);
        } else {
            out.push_str("null");
        }
    }
}

/// Append `s` as a JSON string literal: `"`, `\`, newline, carriage
/// return and tab take their short escapes, every other control character
/// `\u00XX`, and everything else (non-ASCII included) is copied as is.
fn quote(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// The members of an object being written; see [`object`].
pub struct Obj<'a> {
    out: &'a mut String,
    first: bool,
}

/// The elements of an array being written.
pub struct Arr<'a> {
    out: &'a mut String,
    first: bool,
}

/// Write `{...}` into `out`, `f` filling in the members.
fn write_obj(out: &mut String, f: impl FnOnce(&mut Obj<'_>)) {
    out.push('{');
    f(&mut Obj {
        out: &mut *out,
        first: true,
    });
    out.push('}');
}

/// Write `[...]` into `out`, `f` filling in the elements.
fn write_arr(out: &mut String, f: impl FnOnce(&mut Arr<'_>)) {
    out.push('[');
    f(&mut Arr {
        out: &mut *out,
        first: true,
    });
    out.push(']');
}

/// One JSON object as a string, `f` writing its members in order.
///
/// ```
/// use cards_net::json::{object, Fixed};
/// let s = object(|o| {
///     o.field("name", "kv").field("ratio", Fixed(0.5, 2));
///     o.arr("xs", |a| {
///         a.item(1u64).item(2u64);
///     });
/// });
/// assert_eq!(s, r#"{"name":"kv","ratio":0.50,"xs":[1,2]}"#);
/// ```
pub fn object(f: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut s = String::new();
    write_obj(&mut s, f);
    s
}

impl Obj<'_> {
    /// Start member `k`: separator, quoted key, colon.
    fn key(&mut self, k: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        quote(self.out, k);
        self.out.push(':');
        self.out
    }

    /// A scalar member.
    pub fn field(&mut self, k: &str, v: impl Scalar) -> &mut Self {
        v.write_json(self.key(k));
        self
    }

    /// An object member, `f` writing its members.
    pub fn obj(&mut self, k: &str, f: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        write_obj(self.key(k), f);
        self
    }

    /// An array member, `f` writing its elements.
    pub fn arr(&mut self, k: &str, f: impl FnOnce(&mut Arr<'_>)) -> &mut Self {
        write_arr(self.key(k), f);
        self
    }
}

impl Arr<'_> {
    /// Start the next element: separator only.
    fn next(&mut self) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out
    }

    /// A scalar element.
    pub fn item(&mut self, v: impl Scalar) -> &mut Self {
        v.write_json(self.next());
        self
    }

    /// An object element, `f` writing its members.
    pub fn obj(&mut self, f: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        write_obj(self.next(), f);
        self
    }

    /// An array element, `f` writing its elements.
    pub fn arr(&mut self, f: impl FnOnce(&mut Arr<'_>)) -> &mut Self {
        write_arr(self.next(), f);
        self
    }
}

// ---- reader ----

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All numbers; the emitters only produce values representable here.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs, so diffs render in emitter order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric field as u64 (saturating at 0 for negatives).
    pub fn u64_of(&self, key: &str) -> u64 {
        match self.get(key) {
            Some(Json::Num(n)) if *n >= 0.0 => *n as u64,
            _ => 0,
        }
    }

    /// String field, or empty.
    pub fn str_of(&self, key: &str) -> &str {
        match self.get(key) {
            Some(Json::Str(s)) => s,
            _ => "",
        }
    }

    /// Array field, or empty slice.
    pub fn arr_of(&self, key: &str) -> &[Json] {
        match self.get(key) {
            Some(Json::Arr(v)) => v,
            _ => &[],
        }
    }

    /// Object field's key/value pairs, or empty slice.
    pub fn obj_of(&self, key: &str) -> &[(String, Json)] {
        match self.get(key) {
            Some(Json::Obj(kv)) => kv,
            _ => &[],
        }
    }
}

/// Maximum container nesting. The emitters stay under a dozen levels;
/// anything deeper is hostile or corrupt input, and recursing on it would
/// overflow the stack before the parser hit end-of-input.
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document; trailing content is an error.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut i = 0usize;
    let v = value(src, &mut i, 0)?;
    skip_ws(src.as_bytes(), &mut i);
    if i != src.len() {
        return Err(format!("trailing content at byte {i}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(src: &str, i: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {i}"));
    }
    let b = src.as_bytes();
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => obj(src, i, depth),
        Some(b'[') => arr(src, i, depth),
        Some(b'"') => Ok(Json::Str(string(src, i)?)),
        Some(b't') => lit(b, i, "true", Json::Bool(true)),
        Some(b'f') => lit(b, i, "false", Json::Bool(false)),
        Some(b'n') => lit(b, i, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => num(src, i),
        Some(c) => Err(format!("unexpected byte {c:?} at {i:?}")),
        None => Err("unexpected end of input".into()),
    }
}

fn lit(b: &[u8], i: &mut usize, word: &str, v: Json) -> Result<Json, String> {
    if b[*i..].starts_with(word.as_bytes()) {
        *i += word.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *i))
    }
}

fn num(src: &str, i: &mut usize) -> Result<Json, String> {
    let b = src.as_bytes();
    let start = *i;
    while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *i += 1;
    }
    src[start..*i]
        .parse()
        .map(Json::Num)
        .map_err(|_| format!("bad number at byte {start}"))
}

/// Four hex digits of a `\u` escape starting at byte `at`.
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let digits = b
        .get(at..at + 4)
        .and_then(|d| std::str::from_utf8(d).ok())
        .filter(|d| d.bytes().all(|c| c.is_ascii_hexdigit()));
    match digits {
        Some(d) => Ok(u32::from_str_radix(d, 16).expect("four hex digits")),
        None => Err(format!("bad \\u escape at byte {at}")),
    }
}

/// A string literal starting at the opening quote at byte `*i`.
fn string(src: &str, i: &mut usize) -> Result<String, String> {
    let b = src.as_bytes();
    *i += 1; // opening quote
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash in one piece:
        // both are ASCII, so the run ends on a character boundary.
        let start = *i;
        while *i < b.len() && b[*i] != b'"' && b[*i] != b'\\' {
            *i += 1;
        }
        out.push_str(&src[start..*i]);
        match b.get(*i) {
            Some(b'"') => {
                *i += 1;
                return Ok(out);
            }
            Some(_) => {
                let esc = b.get(*i + 1).copied();
                *i += 2;
                let c = match esc {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'u') => {
                        // The writer only escapes control characters, so
                        // UTF-16 surrogate pairs are not read.
                        let code = hex4(b, *i)?;
                        *i += 4;
                        char::from_u32(code)
                            .ok_or_else(|| format!("surrogate escape before byte {}", *i))?
                    }
                    Some(c) => return Err(format!("unsupported escape \\{}", c as char)),
                    None => return Err("unterminated escape".into()),
                };
                out.push(c);
            }
            None => return Err("unterminated string".into()),
        }
    }
}

fn obj(src: &str, i: &mut usize, depth: usize) -> Result<Json, String> {
    let b = src.as_bytes();
    *i += 1; // '{'
    let mut kv = Vec::new();
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(Json::Obj(kv));
    }
    loop {
        skip_ws(b, i);
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *i));
        }
        let k = string(src, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *i));
        }
        *i += 1;
        let v = value(src, i, depth + 1)?;
        kv.push((k, v));
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(Json::Obj(kv));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *i)),
        }
    }
}

fn arr(src: &str, i: &mut usize, depth: usize) -> Result<Json, String> {
    let b = src.as_bytes();
    *i += 1; // '['
    let mut out = Vec::new();
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(value(src, i, depth + 1)?);
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *i)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn parses_nested_document() {
        let j = parse(r#"{"a":1,"b":[true,null,"x\n"],"c":{"d":-2.5}}"#).unwrap();
        assert_eq!(j.u64_of("a"), 1);
        assert_eq!(j.arr_of("b").len(), 3);
        assert_eq!(j.arr_of("b")[2], Json::Str("x\n".into()));
        assert_eq!(j.get("c").unwrap().get("d"), Some(&Json::Num(-2.5)));
    }

    #[test]
    fn preserves_key_order() {
        let j = parse(r#"{"z":0,"a":1,"m":2}"#).unwrap();
        let keys: Vec<&str> = match &j {
            Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!(),
        };
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse(r#"{"k" 1}"#).is_err());
        assert!(parse(r#""\u12""#).is_err());
        assert!(
            parse(r#""\ud83d\ude00""#).is_err(),
            "surrogates are not read"
        );
        assert!(parse(r#""\q""#).is_err());
        assert!(parse("\"\\").is_err());
    }

    #[test]
    fn depth_cap_rejects_hostile_nesting_without_overflow() {
        // Before the cap, 100k unclosed brackets would recurse once per
        // byte and blow the stack; now it must be a parse error.
        for open in ["[", "{\"k\":"] {
            let hostile = open.repeat(100_000);
            let err = parse(&hostile).unwrap_err();
            assert!(err.contains("nesting deeper than"), "got: {err}");
        }
        // Nesting at the cap still parses.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let too_deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&too_deep).is_err());
    }

    #[test]
    fn roundtrips_real_ttrace_shape() {
        let j = parse(
            r#"{"schema":"cards-ttrace-v1","phases":{"guard":10,"wire":40},"sites":[{"site":3,"func":"main","block":"loop","ops":2,"cycles":100}]}"#,
        )
        .unwrap();
        assert_eq!(j.str_of("schema"), "cards-ttrace-v1");
        assert_eq!(j.obj_of("phases")[1].0, "wire");
        assert_eq!(j.arr_of("sites")[0].u64_of("cycles"), 100);
    }

    #[test]
    fn reads_every_escape_the_writer_emits() {
        let j = parse(r#""q\" b\\ \n\r\t \u0001\u001F é € 😀""#).unwrap();
        assert_eq!(j, Json::Str("q\" b\\ \n\r\t \u{1}\u{1f} é € 😀".into()));
        assert!(parse(r#""\/""#).is_err(), "escapes the writer never emits");
    }

    #[test]
    fn writer_escapes_and_separates() {
        let s = object(|o| {
            o.field("s", "a\"b\\c\nd\r\t\u{1}\u{1f}\u{7f}é")
                .field("n", None::<u64>)
                .field("i", -3i64)
                .field("f", Fixed(2.0 / 3.0, 4))
                .field("nan", Fixed(f64::NAN, 1))
                .obj("e", |_| {})
                .arr("a", |a| {
                    a.item(true).obj(|o| {
                        o.field("k", 1u32);
                    });
                    a.arr(|_| {});
                });
        });
        assert_eq!(
            s,
            "{\"s\":\"a\\\"b\\\\c\\nd\\r\\t\\u0001\\u001f\u{7f}é\",\"n\":null,\"i\":-3,\
             \"f\":0.6667,\"nan\":null,\"e\":{},\"a\":[true,{\"k\":1},[]]}"
        );
    }

    #[test]
    fn writer_output_reads_back_for_seeded_strings() {
        // Quotes, backslashes, every control character, DEL, and text of
        // one to four UTF-8 bytes, drawn at random lengths.
        let mut alphabet: Vec<char> = (0u32..0x20).filter_map(char::from_u32).collect();
        alphabet.extend([
            '"', '\\', '/', 'a', 'Z', '0', ' ', '\u{7f}', 'é', 'ß', '€', '中', '😀',
        ]);
        let mut rng = SplitMix64::new(0x15);
        for _ in 0..2_000 {
            let len = rng.next_below(24) as usize;
            let s: String = (0..len)
                .map(|_| alphabet[rng.next_below(alphabet.len() as u64) as usize])
                .collect();
            let doc = object(|o| {
                o.field(&s, &s).arr("v", |a| {
                    a.item(&s);
                });
            });
            let j = parse(&doc).unwrap_or_else(|e| panic!("{doc:?}: {e}"));
            assert_eq!(j.str_of(&s), s);
            assert_eq!(j.arr_of("v"), [Json::Str(s.clone())]);
        }
    }
}
