//! The two JSON scalars the benchmark writes by hand (the workspace has
//! no JSON dependency; `nocem_telemetry::validate_json` checks the
//! output in the tests).

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit `v` has (Rust prints the shortest
/// text that reads back as the same `f64`, never in exponent form).
///
/// # Panics
///
/// Panics on NaN or an infinity, which JSON cannot carry and no metric
/// may be.
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(93.0), "93");
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(0.000000123), "0.000000123");
        assert_eq!(number(-2.5e15), "-2500000000000000");
    }
}
