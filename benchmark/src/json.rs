//! JSON for result files and `BENCHMARK.json`. Reading reuses the CLI's
//! dependency-free reader (the CLI is a binary crate, so its module is
//! included by path); this file adds the writers' string and number
//! formatting, limited to what that reader accepts.

#[path = "../../crates/cli/src/jsonx.rs"]
mod jsonx;

pub use jsonx::{parse, Json};

/// Numeric member `key` of an object.
pub fn num_of(j: &Json, key: &str) -> Option<f64> {
    match j.get(key) {
        Some(Json::Num(n)) => Some(*n),
        _ => None,
    }
}

/// A JSON string literal for `s`. The reader takes only the `\"`, `\\`,
/// `\n` and `\t` escapes, so any other control character becomes a space.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as JSON: every digit Rust's shortest round-trip form gives,
/// and `0` for a non-finite value (JSON has no NaN).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_and_num_round_trip() {
        let s = "a\"b\\c\nd\te";
        assert_eq!(parse(&quote(s)).unwrap(), Json::Str(s.into()));
        assert_eq!(quote("x\u{1}\ry"), "\"x  y\"");
        let x = 0.1 + 0.2;
        assert_eq!(parse(&num(x)).unwrap(), Json::Num(x));
        assert_eq!(parse(&num(1e-9)).unwrap(), Json::Num(1e-9));
        assert_eq!(num(f64::NAN), "0");
    }
}
