//! Tiny JSON emitter — replaces `serde`/`serde_json` for result files so
//! the workspace builds offline (see README "offline builds"). Emission
//! only, plus the schema-version sniff `BenchReport::save` uses to retire
//! pre-versioned result files instead of silently mixing schemas.

/// Schema version stamped into every `results/BENCH_*.json` roll-up.
///
/// * v1 (implicit): no `schema_version` field — reports through PR 3.
/// * v2: adds `schema_version`; cells carry one flat meter set, zero
///   where a layer never ran.
/// * v3: cells group their counters by layer (`sched`, `sctp`, `tcp`,
///   `net`, `udp`, `hol`) and carry a group only for a layer that
///   ran; the runtime's poll count is `sched.polls_total`.
///
/// Bump this when a field changes meaning or disappears; adding fields is
/// backward-compatible and does not need a bump.
pub const SCHEMA_VERSION: u64 = 3;

/// Best-effort schema version of a previously written report.
///
/// Files that predate versioning (v1) have no `schema_version` key and
/// report 1. This is a sniff, not a parse: the writer only ever emits
/// `"schema_version": <int>` on its own line, so a substring scan is
/// exact for our own files and harmlessly approximate for foreign ones.
pub fn sniff_schema_version(text: &str) -> u64 {
    let Some(at) = text.find("\"schema_version\"") else { return 1 };
    let rest = &text[at + "\"schema_version\"".len()..];
    let digits: String = rest
        .chars()
        .skip_while(|c| *c == ':' || c.is_whitespace())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().unwrap_or(1)
}

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    Bool(bool),
    /// Finite floats render as shortest-roundtrip; NaN/inf render as null.
    Num(f64),
    UInt(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
    /// Pre-rendered JSON embedded verbatim (no re-indentation). Used to
    /// splice a [`netsim::FaultPlan`]'s own serialization into a report so
    /// the plan text in `results/BENCH_*.json` is byte-for-byte what
    /// `FaultPlan::from_json` replays.
    Raw(String),
}

impl Json {
    /// The value under `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value of an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// Pretty-prints with 2-space indentation (what `serde_json::to_string_pretty`
    /// produced for the existing result files).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
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

/// Conversion into [`Json`] — the replacement for `serde::Serialize` here.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

macro_rules! impl_to_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::UInt(*self as u64)
            }
        }
    )*};
}
impl_to_json_uint!(u8, u16, u32, u64, usize);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_pretty() {
        let v = Json::Obj(vec![
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
    fn schema_sniff_reads_version_or_defaults_to_v1() {
        assert_eq!(sniff_schema_version("{\n  \"schema_version\": 2,\n  \"fig\": \"x\"\n}"), 2);
        assert_eq!(sniff_schema_version("{\"schema_version\":17}"), 17);
        // Pre-versioned files (through PR 3) have no key at all.
        assert_eq!(sniff_schema_version("{\n  \"fig\": \"fig10\"\n}"), 1);
        assert_eq!(sniff_schema_version(""), 1);
        // Garbage after the key degrades to v1, never panics.
        assert_eq!(sniff_schema_version("\"schema_version\": \"two\""), 1);
    }
}
