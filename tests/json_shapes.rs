//! JSON shapes the workspace's documents rely on, checked end to end
//! through `serde::json` and the derive macros: struct fields in
//! declaration order (an `Option` field as `null` or its value), enum
//! variants by shape, map keys quoted, and a whole `RunStats` report.

use std::collections::BTreeMap;

use serde::json::{parse_document, to_string};
use serde::Serialize;
use shortcut_mining::core::{Experiment, Policy};
use shortcut_mining::model::zoo;

#[derive(Serialize)]
struct Nested {
    id: u64,
    name: String,
    values: Vec<f64>,
    flag: bool,
    missing: Option<i32>,
}

#[test]
fn scalars_and_structs() {
    let n = Nested {
        id: 7,
        name: "x".into(),
        values: vec![1.5, 2.0],
        flag: true,
        missing: None,
    };
    assert_eq!(
        to_string(&n).unwrap(),
        r#"{"id":7,"name":"x","values":[1.5,2],"flag":true,"missing":null}"#
    );
}

#[test]
fn enums_serialize_by_shape() {
    #[derive(Serialize)]
    enum E {
        Unit,
        Newtype(u32),
        Tuple(u32, u32),
        Struct { a: u32 },
    }
    assert_eq!(to_string(&E::Unit).unwrap(), r#""Unit""#);
    assert_eq!(to_string(&E::Newtype(3)).unwrap(), r#"{"Newtype":3}"#);
    assert_eq!(to_string(&E::Tuple(1, 2)).unwrap(), r#"{"Tuple":[1,2]}"#);
    assert_eq!(
        to_string(&E::Struct { a: 5 }).unwrap(),
        r#"{"Struct":{"a":5}}"#
    );
}

#[test]
fn maps_quote_keys() {
    let mut m = BTreeMap::new();
    m.insert(2u32, "two");
    m.insert(1u32, "one");
    assert_eq!(to_string(&m).unwrap(), r#"{"1":"one","2":"two"}"#);
}

#[test]
fn parser_reads_back_what_the_serializer_writes() {
    let n = Nested {
        id: 7,
        name: "q\"\\\n\tü".into(),
        values: vec![1.5, -2.0, 3e-4],
        flag: false,
        missing: Some(-3),
    };
    let json = to_string(&n).unwrap();
    let v = parse_document(&json).unwrap();
    assert_eq!(v.field::<u64>("id").unwrap(), 7);
    assert_eq!(v.field::<String>("name").unwrap(), "q\"\\\n\tü");
    assert_eq!(
        v.field::<Vec<f64>>("values").unwrap(),
        vec![1.5, -2.0, 3e-4]
    );
    assert_eq!(v.field::<Option<i32>>("missing").unwrap(), Some(-3));
}

#[test]
fn run_stats_serialize_end_to_end() {
    let stats = Experiment::default_config().run(&zoo::toy_residual(1), Policy::shortcut_mining());
    let json = to_string(&stats).unwrap();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains(r#""architecture":"shortcut-mining""#));
    assert!(json.contains(r#""layers":["#));
    // Balanced braces/brackets (cheap structural sanity).
    let opens = json.matches('{').count() + json.matches('[').count();
    let closes = json.matches('}').count() + json.matches(']').count();
    assert_eq!(opens, closes);
}
