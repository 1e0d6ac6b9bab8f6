//! BENCH report JSON: the schema version and the conversion of results
//! into [`Json`], the value type `trace::json` both parses and renders.
//! Replaces `serde`/`serde_json` so the workspace builds offline (see
//! README "offline builds").

pub use trace::json::Json;

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

/// The `schema_version` a report's text declares; `None` for a file that
/// predates versioning (v1) or does not parse.
pub fn schema_version(text: &str) -> Option<u64> {
    trace::json::parse(text).ok()?.get("schema_version")?.as_u64()
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
    fn schema_version_is_parsed_or_absent() {
        assert_eq!(schema_version("{\n  \"schema_version\": 2,\n  \"fig\": \"x\"\n}"), Some(2));
        assert_eq!(schema_version("{\"schema_version\":17}"), Some(17));
        // Pre-versioned (v1) files have no key at all.
        assert_eq!(schema_version("{\n  \"fig\": \"fig10\"\n}"), None);
        assert_eq!(schema_version(""), None);
        // A version that is not an integer, or one only quoted inside a
        // string, is no version.
        assert_eq!(schema_version("{\"schema_version\": \"two\"}"), None);
        assert_eq!(schema_version("{\"note\": \"\\\"schema_version\\\": 3\"}"), None);
    }
}
