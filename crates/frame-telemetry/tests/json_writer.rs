//! The vendored `serde_json` writer renders every Stats, Trace and
//! flight-dump JSON text this workspace emits. Its output is pinned byte
//! for byte here so writer optimisations cannot change what clients and
//! stored dumps see.

use serde::Value;

/// Golden text for integers at both ends of their range, negatives,
/// floats, escapes and nesting, in both layouts.
#[test]
fn writer_output_is_byte_identical_to_the_golden_text() {
    let v = Value::Object(vec![
        ("max".to_string(), Value::U64(u64::MAX)),
        ("zero".to_string(), Value::U64(0)),
        ("neg".to_string(), Value::I64(-42)),
        ("min".to_string(), Value::I64(i64::MIN)),
        (
            "floats".to_string(),
            Value::Array(vec![
                Value::F64(1.5),
                Value::F64(-2.0),
                Value::F64(1e20),
                Value::F64(0.1),
                Value::F64(f64::NAN),
                Value::F64(-3.25e-7),
            ]),
        ),
        (
            "nested".to_string(),
            Value::Object(vec![
                ("empty_arr".to_string(), Value::Array(vec![])),
                ("empty_obj".to_string(), Value::Object(vec![])),
                (
                    "deep".to_string(),
                    Value::Array(vec![
                        Value::Array(vec![Value::Object(vec![("k".to_string(), Value::Null)])]),
                        Value::Bool(true),
                    ]),
                ),
                (
                    "s".to_string(),
                    Value::Str("tab\there \"q\" \u{1} \u{e9}".to_string()),
                ),
            ]),
        ),
    ]);
    let compact = concat!(
        r#"{"max":18446744073709551615,"zero":0,"neg":-42,"min":-9223372036854775808,"#,
        r#""floats":[1.5,-2.0,100000000000000000000,0.1,null,-0.000000325],"#,
        r#""nested":{"empty_arr":[],"empty_obj":{},"deep":[[{"k":null}],true],"#,
        r#""s":"tab\there \"q\" \u0001 é"}}"#
    );
    assert_eq!(serde_json::to_string(&v).unwrap(), compact);
    let pretty = r#"{
  "max": 18446744073709551615,
  "zero": 0,
  "neg": -42,
  "min": -9223372036854775808,
  "floats": [
    1.5,
    -2.0,
    100000000000000000000,
    0.1,
    null,
    -0.000000325
  ],
  "nested": {
    "empty_arr": [],
    "empty_obj": {},
    "deep": [
      [
        {
          "k": null
        }
      ],
      true
    ],
    "s": "tab\there \"q\" \u0001 é"
  }
}"#;
    assert_eq!(serde_json::to_string_pretty(&v).unwrap(), pretty);
}
