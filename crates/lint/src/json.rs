//! Machine-readable findings: the versioned `vecmem-lint/findings-v1`
//! JSON document, rendered and parsed by hand (the linter is std-only by
//! design, so it cannot lean on serde).
//!
//! The renderer is the contract; the parser exists so the schema can be
//! round-trip tested and so the workspace gate test
//! (`tests/linter.rs`) checks the real document's structure. Both handle exactly the subset of JSON the schema uses —
//! objects, arrays, strings, and unsigned integers.

use crate::rules::Violation;
use crate::workspace::LintRun;

/// Schema identifier stamped into every document; bump the suffix on any
/// field change.
pub const FINDINGS_SCHEMA: &str = "vecmem-lint/findings-v1";

/// Escapes a string for a JSON string literal (quotes, backslashes,
/// control characters; everything else passes through as UTF-8).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a lint run as a `findings-v1` document: schema tag, file and
/// suppression counts, one finding object per violation (in the run's
/// deterministic order), and the call-graph resolution notes.
#[must_use]
pub fn render_findings(run: &LintRun) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{FINDINGS_SCHEMA}\",\n"));
    out.push_str(&format!("  \"files\": {},\n", run.files));
    out.push_str(&format!("  \"suppressed\": {},\n", run.suppressed));
    out.push_str("  \"findings\": [");
    for (i, v) in run.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"hint\": \"{}\"}}",
            escape(v.rule),
            escape(&v.file),
            v.line,
            escape(&v.message),
            escape(v.hint)
        ));
    }
    if !run.violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str("  \"notes\": [");
    for (i, n) in run.notes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\"", escape(n)));
    }
    if !run.notes.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// One GCC-style diagnostic line (`file:line: warning: message [rule]`),
/// the format editors and CI annotators already know how to link.
#[must_use]
pub fn gcc_line(v: &Violation) -> String {
    format!("{}:{}: warning: {} [{}]", v.file, v.line, v.message, v.rule)
}

/// A parsed JSON value — just enough structure for the round-trip test
/// and artifact consumers.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number shape the schema emits).
    Num(u64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object; `None` on other shapes or a missing
    /// key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            Self::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
/// Returns a rendered message with the byte offset on malformed input or
/// trailing garbage.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b'0'..=b'9') => parse_num(bytes, pos),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(JsonValue::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(JsonValue::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(JsonValue::Null)
        }
        _ => Err(format!("unexpected input at byte {pos}", pos = *pos)),
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    *pos += 1; // {
    let mut members = Vec::new();
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        if !members.is_empty() {
            if bytes.get(*pos) != Some(&b',') {
                return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos));
            }
            *pos += 1;
            skip_ws(bytes, pos);
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    *pos += 1; // [
    let mut items = Vec::new();
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        if !items.is_empty() {
            if bytes.get(*pos) != Some(&b',') {
                return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos));
            }
            *pos += 1;
        }
        items.push(parse_value(bytes, pos)?);
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let start = *pos;
    let mut out = String::new();
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let esc = bytes
                    .get(*pos)
                    .ok_or_else(|| format!("unterminated escape at byte {pos}", pos = *pos))?;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| format!("short \\u escape at byte {pos}", pos = *pos))?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    other => return Err(format!("unknown escape `\\{}`", *other as char)),
                }
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 scalar.
                let s = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| format!("invalid UTF-8 at byte {pos}", pos = *pos))?;
                let c = s.chars().next().ok_or("empty remainder")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
    Err(format!("unterminated string starting at byte {start}"))
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "bad number")?;
    text.parse::<u64>()
        .map(JsonValue::Num)
        .map_err(|e| format!("bad number `{text}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\n\t\r"), "x\\n\\t\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain — utf8 ✓"), "plain — utf8 ✓");
    }

    #[test]
    fn parse_round_trips_escapes() {
        let v = parse("\"a\\\"b\\\\c\\n\\u0041\"").expect("parses");
        assert_eq!(v, JsonValue::Str("a\"b\\c\nA".to_string()));
    }

    #[test]
    fn parse_rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn findings_document_round_trips() {
        let run = LintRun {
            violations: vec![Violation {
                rule: "L6",
                file: "crates/x/src/a.rs".to_string(),
                line: 7,
                message: "allocation (`vec!`) in \"quoted\" fn".to_string(),
                hint: "hoist the buffer",
            }],
            suppressed: 3,
            files: 2,
            notes: vec!["trait dispatch on `advance` fans out to 4 candidates".to_string()],
        };
        let doc = render_findings(&run);
        let v = parse(&doc).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(JsonValue::as_str),
            Some(FINDINGS_SCHEMA)
        );
        assert_eq!(v.get("files").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(v.get("suppressed").and_then(JsonValue::as_u64), Some(3));
        let findings = v.get("findings").and_then(JsonValue::as_arr).expect("arr");
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].get("rule").and_then(JsonValue::as_str),
            Some("L6")
        );
        assert_eq!(findings[0].get("line").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(
            findings[0].get("message").and_then(JsonValue::as_str),
            Some("allocation (`vec!`) in \"quoted\" fn")
        );
        let notes = v.get("notes").and_then(JsonValue::as_arr).expect("arr");
        assert_eq!(notes.len(), 1);
    }

    #[test]
    fn gcc_lines_carry_file_line_and_rule() {
        let v = Violation {
            rule: "L7",
            file: "crates/x/src/a.rs".to_string(),
            line: 12,
            message: "`.unwrap()` in `x::f`".to_string(),
            hint: "",
        };
        assert_eq!(
            gcc_line(&v),
            "crates/x/src/a.rs:12: warning: `.unwrap()` in `x::f` [L7]"
        );
    }
}
