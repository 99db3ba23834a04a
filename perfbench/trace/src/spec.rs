//! Field access on the benchmark's JSON spec.  The spec is written by
//! `perfbench/run.py`, so a missing or mistyped field is a bug in the
//! benchmark and panics with the field's name.

use ja_hysteresis::json::JsonValue;

pub fn field<'a>(spec: &'a JsonValue, key: &str) -> &'a JsonValue {
    spec.get(key)
        .unwrap_or_else(|| panic!("benchmark spec lacks `{key}`"))
}

pub fn num(spec: &JsonValue, key: &str) -> f64 {
    field(spec, key)
        .as_f64()
        .unwrap_or_else(|| panic!("benchmark spec field `{key}` is not a number"))
}

pub fn opt_num(spec: &JsonValue, key: &str) -> Option<f64> {
    spec.get(key).and_then(JsonValue::as_f64)
}

pub fn text<'a>(spec: &'a JsonValue, key: &str) -> &'a str {
    field(spec, key)
        .as_str()
        .unwrap_or_else(|| panic!("benchmark spec field `{key}` is not a string"))
}

pub fn strings(spec: &JsonValue, key: &str) -> Vec<String> {
    field(spec, key)
        .as_array()
        .unwrap_or_else(|| panic!("benchmark spec field `{key}` is not an array"))
        .iter()
        .map(|value| value.as_str().expect("string array").to_owned())
        .collect()
}
