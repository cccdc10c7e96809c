//! The vendored `serde_derive` grew container-level and enum-variant
//! `#[serde(rename = "...")]` for the graph format's wire spellings. These
//! tests pin the attribute semantics at the derive level — wire tags, error
//! messages, round-trips — and check back-compat: documents written by the
//! pre-rename derive (every existing `FaultPlan` / `AccelConfig` JSON) still
//! parse unchanged.

use serde::json::{from_str, to_string};
use serde::{Deserialize, Serialize};
use shortcut_mining::accel::AccelConfig;
use shortcut_mining::core::{FaultPlan, Protection, RecoveryPolicy};
use shortcut_mining::model::graph::{GraphDoc, GraphOp, JunctionKind};

/// Exercises every renamed variant shape: unit, newtype, struct — plus an
/// unrenamed variant mixed in, and a container-level rename.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename = "wire_shape")]
enum Shape {
    #[serde(rename = "dot")]
    Point,
    #[serde(rename = "circle")]
    Round {
        radius: f64,
    },
    #[serde(rename = "tag")]
    Label(String),
    Square {
        side: f64,
    },
}

#[test]
fn variant_renames_control_the_wire_tag() {
    assert_eq!(to_string(&Shape::Point).unwrap(), r#""dot""#);
    assert_eq!(
        to_string(&Shape::Round { radius: 2.0 }).unwrap(),
        r#"{"circle":{"radius":2}}"#
    );
    assert_eq!(
        to_string(&Shape::Label("a".into())).unwrap(),
        r#"{"tag":"a"}"#
    );
    // Unrenamed variants keep the Rust spelling.
    assert_eq!(
        to_string(&Shape::Square { side: 1.0 }).unwrap(),
        r#"{"Square":{"side":1}}"#
    );
}

#[test]
fn variant_renames_round_trip() {
    for shape in [
        Shape::Point,
        Shape::Round { radius: 0.5 },
        Shape::Label("x".into()),
        Shape::Square { side: 3.0 },
    ] {
        let json = to_string(&shape).unwrap();
        assert_eq!(from_str::<Shape>(&json).unwrap(), shape, "{json}");
    }
}

#[test]
fn rust_spellings_of_renamed_variants_are_not_accepted() {
    // The rename *replaces* the wire name; the old spelling must not keep
    // working silently (that would fork the format).
    assert!(from_str::<Shape>(r#""Point""#).is_err());
    assert!(from_str::<Shape>(r#"{"Round":{"radius":1}}"#).is_err());
}

#[test]
fn unknown_variant_errors_use_the_container_wire_name() {
    let err = from_str::<Shape>(r#""blob""#).unwrap_err().to_string();
    assert!(
        err.contains("unknown variant `blob` for wire_shape"),
        "container rename missing from: {err}"
    );
}

#[test]
fn graph_op_uses_the_renamed_wire_spellings() {
    // The consumers of the new attributes: every graph op serializes under
    // its format spelling, unit variants as bare strings.
    assert_eq!(to_string(&GraphOp::GlobalAvgPool).unwrap(), r#""gap""#);
    assert_eq!(to_string(&GraphOp::Concat).unwrap(), r#""concat""#);
    assert_eq!(
        to_string(&GraphOp::Fc { out_features: 10 }).unwrap(),
        r#"{"fc":{"out_features":10}}"#
    );
    assert_eq!(to_string(&JunctionKind::Add).unwrap(), r#""add""#);
    let err = from_str::<GraphOp>(r#""softmax""#).unwrap_err().to_string();
    assert!(err.contains("unknown variant `softmax` for op"), "{err}");
}

#[test]
fn pre_rename_fault_plan_documents_still_parse() {
    // A FaultPlan serialized by the previous derive generation (no rename
    // support): field names and enum tags must read back unchanged.
    let plan = FaultPlan::new(7)
        .with_bank_failures(0.25)
        .with_dram_faults(0.1)
        .with_weight_faults(0.01, Protection::Ecc)
        .with_recovery(RecoveryPolicy::RefetchTile);
    let json = to_string(&plan).unwrap();
    // Unrenamed enums keep their Rust spellings on the wire...
    assert!(json.contains(r#""Ecc""#), "{json}");
    assert!(json.contains(r#""RefetchTile""#), "{json}");
    // ...and a document using those spellings parses to the same plan.
    assert_eq!(from_str::<FaultPlan>(&json).unwrap(), plan);
}

#[test]
fn pre_rename_accel_config_documents_still_parse() {
    let cfg = AccelConfig::default().with_fm_capacity(96 << 10);
    let json = to_string(&cfg).unwrap();
    assert_eq!(from_str::<AccelConfig>(&json).unwrap(), cfg);
}

#[test]
fn graph_documents_round_trip_through_the_derived_impls() {
    let doc = GraphDoc::from_json(include_str!("../examples/branchy_concat.json"))
        .expect("example parses");
    let reparsed = GraphDoc::from_json(&doc.to_json()).expect("reserialized form parses");
    assert_eq!(reparsed, doc);
}
