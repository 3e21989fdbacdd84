//! Minimal JSON syntax checker for the bench binaries.
//!
//! The bench binaries emit machine-read JSON lines (`BENCH_adapt.json`,
//! `BENCH_fault.json`, `BENCH_compress.json`) built by hand with
//! `format!`. A malformed line — a missing brace after an edit, a NaN
//! formatted as `NaN` — would corrupt the accumulated history silently.
//! Each binary validates its line with [`assert_valid`] *before*
//! appending, so `scripts/check.sh` fails loudly instead. (No external JSON crate: the repo is dependency-free by
//! policy; a strict recursive-descent recognizer is ~100 lines.)

/// Checks that `s` is exactly one valid JSON value (leading/trailing
/// whitespace allowed).
pub fn validate(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut pos = skip_ws(b, 0);
    pos = value(b, pos)?;
    pos = skip_ws(b, pos);
    if pos != b.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(())
}

/// Panics (with the offending text) unless `s` is valid JSON.
pub fn assert_valid(s: &str) {
    if let Err(e) = validate(s) {
        panic!("malformed JSON line ({e}): {s}");
    }
}

fn skip_ws(b: &[u8], mut pos: usize) -> usize {
    while pos < b.len() && matches!(b[pos], b' ' | b'\t' | b'\n' | b'\r') {
        pos += 1;
    }
    pos
}

fn value(b: &[u8], pos: usize) -> Result<usize, String> {
    match b.get(pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, "true"),
        Some(b'f') => literal(b, pos, "false"),
        Some(b'n') => literal(b, pos, "null"),
        Some(b'-' | b'0'..=b'9') => number(b, pos),
        Some(&c) => Err(format!("unexpected byte {:?} at {pos}", c as char)),
        None => Err(format!("unexpected end of input at byte {pos}")),
    }
}

fn literal(b: &[u8], pos: usize, lit: &str) -> Result<usize, String> {
    if b[pos..].starts_with(lit.as_bytes()) {
        Ok(pos + lit.len())
    } else {
        Err(format!("bad literal at byte {pos} (expected {lit})"))
    }
}

fn object(b: &[u8], mut pos: usize) -> Result<usize, String> {
    pos = skip_ws(b, pos + 1); // past '{'
    if b.get(pos) == Some(&b'}') {
        return Ok(pos + 1);
    }
    loop {
        pos = string(b, pos)?;
        pos = skip_ws(b, pos);
        if b.get(pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        pos = skip_ws(b, pos + 1);
        pos = value(b, pos)?;
        pos = skip_ws(b, pos);
        match b.get(pos) {
            Some(b',') => pos = skip_ws(b, pos + 1),
            Some(b'}') => return Ok(pos + 1),
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn array(b: &[u8], mut pos: usize) -> Result<usize, String> {
    pos = skip_ws(b, pos + 1); // past '['
    if b.get(pos) == Some(&b']') {
        return Ok(pos + 1);
    }
    loop {
        pos = value(b, pos)?;
        pos = skip_ws(b, pos);
        match b.get(pos) {
            Some(b',') => pos = skip_ws(b, pos + 1),
            Some(b']') => return Ok(pos + 1),
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn string(b: &[u8], pos: usize) -> Result<usize, String> {
    if b.get(pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}"));
    }
    let mut i = pos + 1;
    while let Some(&c) = b.get(i) {
        match c {
            b'"' => return Ok(i + 1),
            b'\\' => match b.get(i + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => i += 2,
                Some(b'u') => {
                    let hex = b
                        .get(i + 2..i + 6)
                        .ok_or_else(|| format!("truncated \\u escape at byte {i}"))?;
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at byte {i}"));
                    }
                    i += 6;
                }
                _ => return Err(format!("bad escape at byte {i}")),
            },
            0x00..=0x1f => return Err(format!("raw control character at byte {i}")),
            _ => i += 1,
        }
    }
    Err(format!("unterminated string starting at byte {pos}"))
}

fn number(b: &[u8], mut pos: usize) -> Result<usize, String> {
    let start = pos;
    if b.get(pos) == Some(&b'-') {
        pos += 1;
    }
    match b.get(pos) {
        Some(b'0') => pos += 1,
        Some(b'1'..=b'9') => {
            while matches!(b.get(pos), Some(b'0'..=b'9')) {
                pos += 1;
            }
        }
        _ => return Err(format!("bad number at byte {start}")),
    }
    if b.get(pos) == Some(&b'.') {
        pos += 1;
        if !matches!(b.get(pos), Some(b'0'..=b'9')) {
            return Err(format!("bad fraction at byte {pos}"));
        }
        while matches!(b.get(pos), Some(b'0'..=b'9')) {
            pos += 1;
        }
    }
    if matches!(b.get(pos), Some(b'e' | b'E')) {
        pos += 1;
        if matches!(b.get(pos), Some(b'+' | b'-')) {
            pos += 1;
        }
        if !matches!(b.get(pos), Some(b'0'..=b'9')) {
            return Err(format!("bad exponent at byte {pos}"));
        }
        while matches!(b.get(pos), Some(b'0'..=b'9')) {
            pos += 1;
        }
    }
    Ok(pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_bench_style_lines() {
        validate(r#"{"dataset":"xmark","nodes":120000,"speedup":2.5}"#).unwrap();
        validate(r#"{"a":[1,2.5e-3,-0.75],"b":{"c":true,"d":null},"e":""}"#).unwrap();
        validate("  42 ").unwrap();
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(validate(r#"{"a":1"#).is_err(), "unterminated object");
        assert!(validate(r#"{"a":NaN}"#).is_err(), "NaN is not JSON");
        assert!(validate(r#"{"a":inf}"#).is_err(), "inf is not JSON");
        assert!(validate(r#"{"a":1,}"#).is_err(), "trailing comma");
        assert!(validate(r#"{"a":01}"#).is_err(), "leading zero");
        assert!(validate(r#"{"a":1} extra"#).is_err(), "trailing garbage");
        assert!(validate(r#"{'a':1}"#).is_err(), "single quotes");
        assert!(validate("").is_err(), "empty input");
    }

    #[test]
    #[should_panic(expected = "malformed JSON line")]
    fn assert_valid_panics_on_garbage() {
        assert_valid("{broken");
    }
}
