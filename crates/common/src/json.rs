//! One JSON writer for every emitter of the workspace, and the
//! validator their tests check the output with.
//!
//! The workspace has no JSON dependency. [`JsonWriter`] owns quoting
//! and escaping, the commas between members and the refusal of numbers
//! JSON cannot carry; emitters choose only the number format.

use std::fmt::Write as _;

/// A value [`JsonWriter`] can write.
pub trait Value {
    /// Appends the value's JSON text to `out`.
    fn write_to(&self, out: &mut String);
}

macro_rules! display_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write_to(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

display_values!(u8, u32, u64, usize, bool);

/// A string: quoted, with `"`, `\` and control bytes escaped.
impl Value for &str {
    fn write_to(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' | '\\' => out.extend(['\\', c]),
                c if c < ' ' => _ = write!(out, "\\u{:04x}", u32::from(c)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

/// A float with a fixed number of decimals: `Fixed(0.25, 3)` → `0.250`.
///
/// # Panics
///
/// Writing panics on NaN or an infinity, which JSON cannot carry.
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

impl Value for Fixed {
    fn write_to(&self, out: &mut String) {
        let Fixed(v, decimals) = *self;
        assert!(v.is_finite(), "{v} is not a finite number");
        let _ = write!(out, "{v:.decimals$}");
    }
}

/// A JSON document — or JSON Lines, ended by [`JsonWriter::line`] —
/// under construction.
///
/// # Examples
///
/// ```
/// use nocem_common::json::{Fixed, JsonWriter};
/// let mut w = JsonWriter::new();
/// w.object(|w| {
///     w.field("name", "a\"b").field("share", Fixed(0.5, 2));
///     w.key("rows").array(|w| _ = w.object(|w| _ = w.field("id", 1u32)));
/// });
/// assert_eq!(w.finish(), r#"{"name":"a\"b","share":0.50,"rows":[{"id":1}]}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next member needs a comma before it.
    comma: bool,
}

impl JsonWriter {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// The output, after the separator the next member needs.
    fn next(&mut self) -> &mut String {
        if std::mem::replace(&mut self.comma, true) {
            self.out.push(',');
        }
        &mut self.out
    }

    /// Writes an array element, or the value after [`JsonWriter::key`].
    fn value(&mut self, v: impl Value) -> &mut Self {
        v.write_to(self.next());
        self
    }

    /// Writes an object key; its value comes next.
    pub fn key(&mut self, key: &str) -> &mut Self {
        key.write_to(self.next());
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes one object member.
    pub fn field(&mut self, key: &str, v: impl Value) -> &mut Self {
        self.key(key).value(v)
    }

    /// Writes one object member when `v` is present.
    pub fn maybe(&mut self, key: &str, v: Option<impl Value>) -> &mut Self {
        if let Some(v) = v {
            self.field(key, v);
        }
        self
    }

    /// Writes an object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('{', '}', body)
    }

    /// Writes an array whose elements `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('[', ']', body)
    }

    fn nest(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.next().push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    /// Ends a JSON Lines record: the next value starts a new document.
    pub fn line(&mut self) -> &mut Self {
        self.out.push('\n');
        self.comma = false;
        self
    }

    /// The finished text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Checks that `s` is one JSON document: the RFC 8259 grammar, minus
/// the surrogate-pair rules of `\u` escapes.
///
/// # Errors
///
/// Returns the byte offset of the first syntax error.
///
/// # Examples
///
/// ```
/// use nocem_common::json::validate_json;
/// assert!(validate_json("{\"a\":[1,2.5,-3e2,true,null,\"x\"]}").is_ok());
/// assert!(validate_json("{\"a\":}").is_err());
/// assert!(validate_json("01").is_err());
/// ```
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    match value(b).map(ws) {
        Ok([]) => Ok(()),
        Ok(rest) | Err(rest) => Err(format!("syntax error at offset {}", b.len() - rest.len())),
    }
}

/// The input after one parsed item, or the input where it broke.
type Parsed<'a> = Result<&'a [u8], &'a [u8]>;

fn ws(s: &[u8]) -> &[u8] {
    let n = s.iter().take_while(|c| b" \t\n\r".contains(c)).count();
    &s[n..]
}

fn value(s: &[u8]) -> Parsed<'_> {
    let s = ws(s);
    match s.first() {
        Some(b'{') => members(&s[1..], b'}', true),
        Some(b'[') => members(&s[1..], b']', false),
        Some(b'"') => string(&s[1..]),
        Some(b'-' | b'0'..=b'9') => number(s),
        _ => [&b"true"[..], b"false", b"null"]
            .iter()
            .find_map(|lit| s.strip_prefix(*lit))
            .ok_or(s),
    }
}

/// An object's (`keyed`) or an array's members and closing bracket.
fn members(mut s: &[u8], close: u8, keyed: bool) -> Parsed<'_> {
    if let Some(rest) = ws(s).strip_prefix(&[close]) {
        return Ok(rest);
    }
    loop {
        if keyed {
            s = ws(s);
            s = string(s.strip_prefix(b"\"").ok_or(s)?)?;
            s = ws(s);
            s = s.strip_prefix(b":").ok_or(s)?;
        }
        s = ws(value(s)?);
        match s {
            [b',', rest @ ..] => s = rest,
            [c, rest @ ..] if *c == close => return Ok(rest),
            _ => return Err(s),
        }
    }
}

/// A string's body and closing quote.
fn string(mut s: &[u8]) -> Parsed<'_> {
    loop {
        s = match s {
            [b'"', rest @ ..] => return Ok(rest),
            [b'\\', b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't', rest @ ..] => rest,
            [b'\\', b'u', hex @ .., _]
                if hex.len() >= 4 && hex[..4].iter().all(u8::is_ascii_hexdigit) =>
            {
                &s[6..]
            }
            [c, rest @ ..] if *c >= 0x20 && *c != b'\\' => rest,
            _ => return Err(s),
        };
    }
}

/// A number; its integer part has no leading zero.
fn number(s: &[u8]) -> Parsed<'_> {
    let (int, mut s) = digits(s.strip_prefix(b"-").unwrap_or(s))?;
    if int.len() > 1 && int[0] == b'0' {
        return Err(int);
    }
    if let Some(fraction) = s.strip_prefix(b".") {
        s = digits(fraction)?.1;
    }
    if let Some(exp) = s.strip_prefix(b"e").or_else(|| s.strip_prefix(b"E")) {
        let unsigned = exp.strip_prefix(b"+").or_else(|| exp.strip_prefix(b"-"));
        s = digits(unsigned.unwrap_or(exp))?.1;
    }
    Ok(s)
}

/// A non-empty run of digits, and the input after it.
fn digits(s: &[u8]) -> Result<(&[u8], &[u8]), &[u8]> {
    match s.iter().take_while(|c| c.is_ascii_digit()).count() {
        0 => Err(s),
        n => Ok(s.split_at(n)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(body: impl FnOnce(&mut JsonWriter)) -> String {
        let mut w = JsonWriter::new();
        body(&mut w);
        w.finish()
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_bytes() {
        let s = text(|w| _ = w.object(|w| _ = w.field("k\"\n", "q\"b\\n\n\t\u{1}\u{1f} é")));
        assert_eq!(s, r#"{"k\"\u000a":"q\"b\\n\u000a\u0009\u0001\u001f é"}"#);
        validate_json(&s).unwrap();
    }

    #[test]
    fn empty_and_nested_containers_and_lines_separate_members() {
        assert_eq!(
            text(|w| _ = w.object(|_| {}).line().array(|_| {})),
            "{}\n[]"
        );
        let s = text(|w| {
            w.object(|w| {
                w.key("a").object(|_| {}).key("b").array(|_| {});
                w.maybe("none", None::<u64>).maybe("some", Some(true));
                w.key("c")
                    .array(|w| _ = w.array(|_| {}).value(7usize).object(|_| {}));
            });
        });
        assert_eq!(s, r#"{"a":{},"b":[],"some":true,"c":[[],7,{}]}"#);
        validate_json(&s).unwrap();
    }

    #[test]
    fn numbers_keep_their_format_and_refuse_non_finite_values() {
        let s = text(|w| {
            w.value(Fixed(0.1234567, 6)).value(Fixed(-2.0, 3));
            w.value(u64::MAX);
        });
        assert_eq!(s, "0.123457,-2.000,18446744073709551615");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let written = std::panic::catch_unwind(|| text(|w| _ = w.value(Fixed(bad, 3))));
            assert!(written.is_err(), "{bad} was written");
        }
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for good in [
            "null",
            "0",
            "-0",
            "0.5",
            "-0.5e3",
            "-12.5e-3",
            "[]",
            "{}",
            r#"{"k":[{"a":"b\n\u00e9"},false]}"#,
            r#" { "x" : 1 } "#,
        ] {
            assert!(validate_json(good).is_ok(), "{good}");
        }
        for bad in [
            "",
            "{",
            "[1,]",
            r#"{"a":}"#,
            r#"{"a" 1}"#,
            "01e",
            "01",
            "-007",
            "[00]",
            r#"{"a":012.5}"#,
            r#""unterminated"#,
            r#""\u12""#,
            "nul",
            "{} garbage",
        ] {
            assert!(validate_json(bad).is_err(), "{bad}");
        }
    }
}
