//! A minimal JSON reader/writer for the record baselines.
//!
//! The workspace builds offline with std-only stubs (no serde), and the
//! baselines only need flat objects of strings and numbers — so this is a
//! deliberately small recursive-descent parser covering the full JSON
//! grammar (objects, arrays, strings with escapes, numbers, literals)
//! without any mapping machinery.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An object, in source order (duplicate keys are kept as-is).
    Object(Vec<(String, Json)>),
    /// An array.
    Array(Vec<Json>),
    /// A string.
    String(String),
    /// A number.
    Number(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    /// The object entries, if this is an object.
    pub(crate) fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Serializes human-readably: two-space indentation, one entry per
    /// line — the format the committed baseline files use. The single
    /// JSON writer for the workspace: `BenchResult::to_json` — and
    /// through it the `bless` refresh of `tests/records/` — renders
    /// through here, so baseline files can never drift in dialect.
    pub(crate) fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let open_sep = format!("\n{}", "  ".repeat(depth + 1));
        let close_sep = format!("\n{}", "  ".repeat(depth));
        match self {
            Json::Object(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&open_sep);
                    out.push_str(&quote(key));
                    out.push_str(": ");
                    value.render_into(out, depth + 1);
                }
                out.push_str(&close_sep);
                out.push('}');
            }
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&open_sep);
                    item.render_into(out, depth + 1);
                }
                out.push_str(&close_sep);
                out.push(']');
            }
            Json::String(s) => out.push_str(&quote(s)),
            Json::Number(n) => out.push_str(&number(*n)),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Null => out.push_str("null"),
        }
    }
}

/// Serializes a string with JSON escaping.
pub(crate) fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serializes a finite number. `Display` for `f64` is the shortest text
/// that parses back to the same bits, never uses an exponent, and prints
/// integers without a fraction (`-0.0` as `-0`, sign kept) — the
/// property the gate's bit-exact `exact` class rests on. A non-finite
/// value renders as text [`parse`] refuses, since JSON has no spelling
/// for it.
pub fn number(n: f64) -> String {
    format!("{n}")
}

/// Parses a JSON document.
///
/// # Errors
///
/// A human-readable message with the byte offset of the failure.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", byte as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut entries = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(entries));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        entries.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(entries));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (keys/notes may hold any text).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && (bytes[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                let chunk = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                out.push_str(chunk);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid number")?;
    text.parse::<f64>()
        .map(Json::Number)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_gate_schema() {
        let doc = r#"{
            "bench": "workload_mix",
            "exact": {"total_commands": 1217, "violations": 0},
            "modeled": {"device_time_s": 1.21409, "energy": 1.6e-1},
            "empty": {},
            "list": [1, "two", null, true]
        }"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("bench").unwrap().as_str(), Some("workload_mix"));
        let exact = v.get("exact").unwrap();
        assert_eq!(
            exact.get("total_commands").unwrap().as_number(),
            Some(1217.0)
        );
        let modeled = v.get("modeled").unwrap();
        assert!((modeled.get("energy").unwrap().as_number().unwrap() - 0.16).abs() < 1e-12);
        assert_eq!(v.get("empty").unwrap().as_object(), Some(&[][..]));
        assert_eq!(
            v.get("list").unwrap(),
            &Json::Array(vec![
                Json::Number(1.0),
                Json::String("two".into()),
                Json::Null,
                Json::Bool(true)
            ])
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "tabs\t quotes\" slashes\\ newlines\n unicode \u{2192}";
        let quoted = quote(original);
        let v = parse(&quoted).unwrap();
        assert_eq!(v.as_str(), Some(original));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("{\"a\": 1e}").is_err());
    }

    #[test]
    fn render_round_trips_in_the_baseline_dialect() {
        let value = Json::Object(vec![
            (
                "exact".into(),
                Json::Object(vec![
                    ("total_commands".into(), Json::Number(1217.0)),
                    ("violations".into(), Json::Number(0.0)),
                ]),
            ),
            ("empty".into(), Json::Object(vec![])),
            (
                "list".into(),
                Json::Array(vec![Json::Number(1.0), Json::Bool(false), Json::Null]),
            ),
            ("note".into(), Json::String("a \"quoted\" note".into())),
        ]);
        let pretty = value.render_pretty();
        assert_eq!(parse(&pretty).unwrap(), value);
        assert_eq!(
            pretty,
            "{\n  \"exact\": {\n    \"total_commands\": 1217,\n    \"violations\": 0\n  },\n  \
             \"empty\": {},\n  \"list\": [\n    1,\n    false,\n    null\n  ],\n  \
             \"note\": \"a \\\"quoted\\\" note\"\n}"
        );
    }

    #[test]
    fn number_formatting_is_stable() {
        // Around "prints as an integer": a signed zero, a plain fraction,
        // both sides of 1e15 and of the i64 range, a small magnitude.
        let edges = [
            (1217.0, "1217"),
            (1.25, "1.25"),
            (0.0, "0"),
            (-0.0, "-0"),
            (0.5, "0.5"),
            (1e15 - 1.0, "999999999999999"),
            (1e15, "1000000000000000"),
            (2f64.powi(63), "9223372036854776000"),
            (1e-7, "0.0000001"),
        ];
        for (n, text) in edges {
            assert_eq!(number(n), text);
        }
        let extremes = [0.161591, 0.1 + 0.2, f64::MAX, f64::MIN_POSITIVE, 5e-324];
        for n in edges.map(|(n, _)| n).into_iter().chain(extremes) {
            let back = parse(&number(n)).unwrap().as_number().unwrap();
            assert_eq!(back.to_bits(), n.to_bits(), "{n:e}");
        }
        // JSON cannot spell these: refused on the way back in, not altered.
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(parse(&number(n)).is_err(), "{n}");
        }
    }
}
