//! Hand-rolled JSON: escaping for the writers, the field-list renderer
//! both committed schemas share, and a flat-object parser for
//! `isasgd report`.
//!
//! The build is offline, so there is no serde. Trace lines are *flat* JSON
//! objects (string/number/bool/null values, no nesting), which keeps the
//! parser here total and small. The trace writer lives in
//! [`crate::Event::to_jsonl`].

/// Escape a string for embedding inside JSON double quotes.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// The `[{"name": …, "type": …}, …]` list `TRACE_SCHEMA.json` and
/// `WIRE_SCHEMA.json` write for every field list, one entry per line at
/// `indent` + 2, the closing bracket at `indent`. Names and types are
/// Rust tokens (no quote or backslash to escape); a type's spacing is
/// `stringify!`'s choice, so it is pinned here: no spaces, `", "` after
/// each comma.
pub fn schema_fields(fields: &[(&str, &str)], indent: &str) -> String {
    let rows: Vec<String> = fields
        .iter()
        .map(|(name, ty)| {
            let ty = ty.replace(' ', "").replace(',', ", ");
            format!("{{\"name\": \"{name}\", \"type\": \"{ty}\"}}")
        })
        .collect();
    format!(
        "[\n{indent}  {}\n{indent}]",
        rows.join(&format!(",\n{indent}  "))
    )
}

/// One parsed JSON scalar.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also produced for non-finite floats on the writer side).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer token (no sign, fraction or exponent) that fits `u64`,
    /// held exactly: counts, ids, byte totals, microseconds.
    Int(u64),
    /// Any other JSON number.
    Num(f64),
    /// A JSON string with escapes resolved.
    Str(String),
}

impl JsonValue {
    /// The value as a non-negative integer, if it was written as one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse one flat JSONL object into `(key, value)` pairs in source order.
///
/// Total: malformed input yields `Err` with a position-carrying message,
/// never a panic. Nested objects/arrays are rejected (trace lines are flat
/// by construction).
pub fn parse_jsonl_line(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.value()?;
            fields.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => {}
                Some(b'}') => break,
                other => return Err(p.fail(&format!("expected ',' or '}}', got {other:?}"))),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.fail("trailing bytes after object"));
    }
    Ok(fields)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn fail(&self, what: &str) -> String {
        format!("json parse error at byte {}: {what}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(self.fail(&format!("expected {:?}, got {other:?}", want as char))),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = self
                            .bytes
                            .get(self.pos..self.pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| self.fail("bad \\u escape"))?;
                        self.pos += 4;
                        out.push(char::from_u32(hex).ok_or_else(|| self.fail("bad codepoint"))?);
                    }
                    other => return Err(self.fail(&format!("bad escape {other:?}"))),
                },
                Some(b) if b < 0x20 => return Err(self.fail("raw control byte in string")),
                Some(b) => {
                    // Re-assemble UTF-8 runs byte-for-byte; the input is a
                    // &str so multi-byte sequences are already valid.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.fail("bad utf-8"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'{' | b'[') => Err(self.fail("nested values are not part of the trace schema")),
            other => Err(self.fail(&format!("expected a value, got {other:?}"))),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes.get(self.pos..self.pos + word.len()) == Some(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.fail(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.fail("bad number bytes"))?;
        // A token starts with `-` or a digit, so `u64` takes exactly the
        // all-digit ones that fit; everything else is a float.
        text.parse::<u64>()
            .map(JsonValue::Int)
            .or_else(|_| text.parse::<f64>().map(JsonValue::Num))
            .map_err(|_| self.fail("bad number"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_event_lines() {
        let line = "{\"ts_us\":42,\"event\":\"handshake\",\"node\":0,\"respawn\":false,\
                    \"dur_us\":1234}";
        let fields = parse_jsonl_line(line).unwrap();
        assert_eq!(fields[0], ("ts_us".into(), JsonValue::Int(42)));
        assert_eq!(fields[1].1.as_str(), Some("handshake"));
        assert_eq!(fields[3].1, JsonValue::Bool(false));
        assert_eq!(fields[4].1.as_u64(), Some(1234));
    }

    #[test]
    fn resolves_escapes_and_unicode() {
        let fields = parse_jsonl_line("{\"k\":\"a\\\"b\\\\c\\u0041 é\"}").unwrap();
        assert_eq!(fields[0].1.as_str(), Some("a\"b\\cA é"));
    }

    #[test]
    fn rejects_malformed_input_without_panicking() {
        for bad in [
            "",
            "{",
            "{}x",
            "{\"k\":}",
            "{\"k\":1,}",
            "{\"k\":[1]}",
            "{\"k\":{}}",
            "{\"k\":01a}",
            "{\"k\":\"\\q\"}",
            "not json at all",
        ] {
            assert!(parse_jsonl_line(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parses_empty_object_null_and_floats() {
        assert!(parse_jsonl_line("{}").unwrap().is_empty());
        let fields = parse_jsonl_line("{\"a\":null,\"b\":-1.5e3}").unwrap();
        assert_eq!(fields[0].1, JsonValue::Null);
        assert_eq!(fields[1].1.as_f64(), Some(-1500.0));
        assert_eq!(fields[1].1.as_u64(), None);
    }

    #[test]
    fn integers_are_exact_up_to_u64_max_and_floats_above() {
        let fields = parse_jsonl_line(
            "{\"a\":18446744073709551615,\"b\":18446744073709551616,\"c\":9007199254740993,\
             \"d\":-0,\"e\":7.0,\"f\":1e3}",
        )
        .unwrap();
        assert_eq!(fields[0].1, JsonValue::Int(u64::MAX));
        assert_eq!(fields[0].1.as_f64(), Some(u64::MAX as f64));
        // One past u64::MAX no longer fits: it is a float, not an error.
        assert_eq!(fields[1].1, JsonValue::Num(18446744073709551616.0));
        assert_eq!(fields[1].1.as_u64(), None);
        // 2^53 + 1 is not an f64; it survives as an integer.
        assert_eq!(fields[2].1.as_u64(), Some((1 << 53) + 1));
        // Sign, fraction or exponent make a float, whatever its value.
        for f in &fields[3..] {
            assert!(matches!(f.1, JsonValue::Num(_)), "{f:?}");
            assert_eq!(f.1.as_u64(), None, "{f:?}");
        }
    }

    #[test]
    fn escape_json_covers_controls() {
        assert_eq!(escape_json("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
