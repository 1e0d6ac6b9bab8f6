//! The one JSON value type: [`parse`] reads the JSONL event log this crate
//! emits, the BENCH `results/*.json` reports and fault plans, and
//! [`Json::render`] pretty-prints the BENCH reports. No dependencies, no
//! allocations beyond the value tree.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Finite floats render as shortest-roundtrip; NaN/inf render as null.
    Num(f64),
    /// An unsigned integer: [`parse`] reads every unsigned integer literal
    /// that fits in a `u64` as one.
    UInt(u64),
    Str(String),
    Arr(Vec<Json>),
    /// Fields in insertion order.
    Obj(Vec<(String, Json)>),
    /// Pre-rendered JSON embedded verbatim (no re-indentation); [`parse`]
    /// never yields it. Splices a fault plan's own serialization into a
    /// report, so the plan text in `results/BENCH_*.json` is byte for byte
    /// what `FaultPlan::from_json` replays.
    Raw(String),
}

impl Json {
    /// An object of `fields`, in order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value under `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::UInt(n) => Some(*n as i64),
            Json::Num(n) => Some(*n as i64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Pretty-prints with 2-space indentation (the layout
    /// `serde_json::to_string_pretty` gave the first result files).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    // Keep integral floats distinguishable from ints, as
                    // serde_json does (`1.0`, not `1`).
                    if *x == x.trunc() && x.abs() < 1e15 {
                        out.push_str(&format!("{x:.1}"));
                    } else {
                        out.push_str(&format!("{x}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Raw(s) => out.push_str(s),
            Json::Str(s) => {
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
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.render_into(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, indent + 1);
                    out.push_str(&format!("\"{k}\": "));
                    v.render_into(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

pub fn parse(s: &str) -> Result<Json, String> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.i)),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.i += 1;
        }
        let txt = std::str::from_utf8(&self.b[start..self.i]).map_err(|_| "utf8".to_string())?;
        if let Ok(u) = txt.parse::<u64>() {
            return Ok(Json::UInt(u));
        }
        txt.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number '{txt}': {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.i + 4 >= self.b.len() {
                                return Err("short \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.b[self.i + 1..self.i + 5])
                                .map_err(|_| "utf8".to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u".to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    self.i += 1;
                }
                Some(c) => {
                    // Multi-byte UTF-8 passes through verbatim.
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (self.i + len).min(self.b.len());
                    out.push_str(std::str::from_utf8(&self.b[self.i..end]).map_err(|_| "utf8".to_string())?);
                    self.i = end;
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_event_line() {
        let v = parse(r#"{"t":1234,"ev":"pkt","src":0,"verdict":"loss","nested":[1,2.5,-3],"ok":true,"none":null}"#).unwrap();
        assert_eq!(v.get("t").unwrap().as_u64(), Some(1234));
        assert_eq!(v.get("ev").unwrap().as_str(), Some("pkt"));
        assert_eq!(v.get("verdict").unwrap().as_str(), Some("loss"));
        assert_eq!(v.get("nested").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("nested").unwrap().as_arr().unwrap()[2].as_i64(), Some(-3));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("none"), Some(&Json::Null));
    }

    #[test]
    fn strings_escape() {
        let v = parse(r#"{"k":"a\"b\\c\nd"}"#).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("a\"b\\c\nd"));
    }

    #[test]
    fn unsigned_integers_parse_exactly() {
        assert_eq!(parse("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
        assert_eq!(parse("9007199254740993").unwrap().as_u64(), Some(9_007_199_254_740_993));
        // Past u64, signed or fractional: a float, read as before.
        assert_eq!(parse("18446744073709551616").unwrap(), Json::Num(18446744073709551616.0));
        assert_eq!(parse("-3").unwrap(), Json::Num(-3.0));
        assert_eq!(parse("2.5").unwrap().as_u64(), Some(2));
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("7").unwrap().as_f64(), Some(7.0));
    }

    #[test]
    fn renders_nested_pretty() {
        let v = Json::obj([
            ("name", Json::Str("fig\"8\"".into())),
            ("vals", Json::Arr(vec![Json::UInt(1), Json::Num(2.5), Json::Num(3.0)])),
            ("empty", Json::Arr(vec![])),
        ]);
        let s = v.render();
        assert!(s.contains("\"name\": \"fig\\\"8\\\"\""));
        assert!(s.contains("2.5"));
        assert!(s.contains("3.0"), "integral float keeps decimal: {s}");
        assert!(s.contains("\"empty\": []"));
    }

    #[test]
    fn render_then_parse_round_trips() {
        let v = Json::obj([
            ("schema_version", Json::UInt(3)),
            ("s", Json::Str("tab\there \"q\" \\ \u{1}".into())),
            ("cells", Json::Arr(vec![Json::obj([("x", Json::Num(0.25)), ("n", Json::Null)]), Json::Bool(false)])),
            ("obj", Json::obj([])),
        ]);
        assert_eq!(parse(&v.render()).unwrap(), v);
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
    }
}
