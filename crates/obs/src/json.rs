//! Minimal JSON writer used by the built-in sinks.
//!
//! The trace and metrics exporters stream their (small, fixed) shapes —
//! the trace-event array and the flat metrics map — directly as text
//! instead of building a `serde_json` tree first: traces can hold
//! hundreds of thousands of events, formatting cannot fail, and the
//! output stays byte-stable across serde versions. The `serde` derives
//! remain on the exported record types (`ChromeEvent`, `ArgValue`,
//! `TrackId`) for library consumers that want them.

/// Append `s` as a JSON string literal (quoted, escaped).
pub(crate) fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Simulator labels never need escaping: copy them in one go.
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
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `v` as a JSON number. `Display` for `f64` prints the shortest
/// decimal that round-trips, which is always a valid JSON number;
/// non-finite values become `null` (matching `serde_json`).
pub(crate) fn write_f64(out: &mut String, v: f64) {
    use std::fmt::Write;
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn str_of(s: &str) -> String {
        let mut out = String::new();
        write_str(&mut out, s);
        out
    }

    fn num_of(v: f64) -> String {
        let mut out = String::new();
        write_f64(&mut out, v);
        out
    }

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(str_of("plain"), r#""plain""#);
        assert_eq!(str_of("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(str_of("a\nb\tc"), r#""a\nb\tc""#);
        assert_eq!(str_of("\u{01}"), "\"\\u0001\"");
        assert_eq!(str_of("µs ✓"), "\"µs ✓\"");
    }

    #[test]
    fn numbers_round_trip_and_nonfinite_is_null() {
        assert_eq!(num_of(0.0), "0");
        assert_eq!(num_of(1.5), "1.5");
        assert_eq!(num_of(-0.25), "-0.25");
        assert_eq!(num_of(f64::NAN), "null");
        assert_eq!(num_of(f64::INFINITY), "null");
        let v: f64 = 1234.000244140625; // exact in binary; must round-trip
        assert_eq!(num_of(v).parse::<f64>().unwrap(), v);
    }
}
