//! Ingestion conformance suite for the `sm-graph-v1` network format.
//!
//! Three contracts, per DESIGN.md ("Network graph format & ingestion"):
//!
//! 1. **Round-trip fidelity** — every zoo network exports to a document that
//!    reloads as a structurally *equal* [`Network`], so liveness analysis and
//!    simulation statistics are byte-identical to the zoo-built original.
//! 2. **Malformed-input totality** — generated document mutations (edge
//!    deletion, shape perturbation, cycle introduction, duplicate ids,
//!    unknown op kinds) always yield the matching typed [`GraphError`];
//!    loading never panics and never silently accepts a broken document.
//! 3. **Shortcut detection** — skip distances and junction kinds recovered
//!    from an ingested document match the known structure exactly, including
//!    U-Net-style long skips the zoo cannot express.
//!
//! Case counts scale with `PROPTEST_CASES` (raised by the nightly workflow).

use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

use shortcut_mining::accel::AccelConfig;
use shortcut_mining::core::{Experiment, Policy};
use shortcut_mining::model::graph::{
    self, GraphDoc, GraphError, GraphOp, JunctionKind, ShortcutReport,
};
use shortcut_mining::model::liveness::Liveness;
use shortcut_mining::model::{zoo, Network};

/// Small networks cheap enough to simulate inside a property loop. Indexed
/// by the proptest `net_tag` below.
fn tiny_nets(batch: usize) -> Vec<Network> {
    vec![
        zoo::toy_residual(batch),
        zoo::resnet_tiny(2, batch),
        zoo::squeezenet_tiny(batch),
        zoo::densenet_tiny(3, batch),
        zoo::mobilenet_tiny(batch),
    ]
}

/// Export → reload, panicking on any loader refusal (these documents are
/// ours, so a refusal is a bug).
fn reload(net: &Network) -> Network {
    graph::load(&graph::export_json(net)).expect("exported documents always reload")
}

#[test]
fn every_zoo_network_round_trips_structurally() {
    // The full registry, not just the tiny nets: equality is a pure graph
    // check, so ResNet-152 and DenseNet-169 cost nothing here.
    for net in zoo::extended_networks(1) {
        let back = reload(&net);
        assert_eq!(back, net, "{} round-trip changed the network", net.name());
        assert_eq!(
            Liveness::of(&back),
            Liveness::of(&net),
            "{} round-trip changed liveness",
            net.name()
        );
        assert_eq!(
            ShortcutReport::of(&back),
            ShortcutReport::of(&net),
            "{} round-trip changed shortcut structure",
            net.name()
        );
    }
}

#[test]
fn export_is_a_fixed_point() {
    // Exporting the reloaded network reproduces the document byte for byte.
    for net in tiny_nets(1) {
        let doc = graph::export_json(&net);
        assert_eq!(graph::export_json(&reload(&net)), doc, "{}", net.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Round-trip conformance over the zoo × config grid: the reloaded
    /// network simulates byte-identically to the original.
    #[test]
    fn round_trip_simulates_byte_identically(
        net_tag in 0usize..5,
        batch in 1usize..3,
        pool_kib in 32u64..512,
        mine in 0usize..2,
    ) {
        let net = &tiny_nets(batch)[net_tag];
        let back = reload(net);
        prop_assert_eq!(&back, net);

        let cfg = AccelConfig::default().with_fm_capacity(pool_kib * 1024);
        let policy = if mine == 1 { Policy::shortcut_mining() } else { Policy::swap_only() };
        let exp = Experiment::new(cfg);
        let a = serde::json::to_string(&exp.run(net, policy)).expect("serializable");
        let b = serde::json::to_string(&exp.run(&back, policy)).expect("serializable");
        prop_assert_eq!(a, b, "ingested copy diverged under {:?}", cfg);
    }

    /// Edge deletion: re-pointing an input at an id that is not in the
    /// document is always a typed dangling-edge error.
    #[test]
    fn deleted_edges_are_reported_as_dangling(
        net_tag in 0usize..5,
        node_pick in 0usize..1000,
    ) {
        let mut doc = graph::export(&tiny_nets(1)[net_tag]);
        let k = node_pick % doc.nodes.len();
        let node = doc.nodes[k].id.clone();
        doc.nodes[k].inputs[0] = "severed".to_string();
        match doc.lower() {
            Err(GraphError::DanglingEdge { node: n, input }) => {
                prop_assert_eq!(n, node);
                prop_assert_eq!(input, "severed".to_string());
            }
            other => return Err(TestCaseError::fail(format!("expected DanglingEdge, got {other:?}"))),
        }
    }

    /// Duplicate ids are rejected before anything else can misattribute the
    /// edges hanging off the reused name.
    #[test]
    fn duplicated_ids_are_rejected(
        net_tag in 0usize..5,
        picks in (0usize..1000, 0usize..1000),
    ) {
        let mut doc = graph::export(&tiny_nets(1)[net_tag]);
        let i = picks.0 % doc.nodes.len();
        let j = (i + 1 + picks.1 % (doc.nodes.len() - 1)) % doc.nodes.len();
        doc.nodes[j].id = doc.nodes[i].id.clone();
        let dup = doc.nodes[i].id.clone();
        prop_assert_eq!(doc.lower(), Err(GraphError::DuplicateId(dup)));
    }

    /// Cycle introduction: feeding an early node from the terminal node (which
    /// transitively depends on it) must be reported as a cycle, not looped on
    /// or misread as a shape problem.
    #[test]
    fn introduced_cycles_are_detected(
        net_tag in 0usize..5,
        node_pick in 0usize..1000,
    ) {
        let mut doc = graph::export(&tiny_nets(1)[net_tag]);
        let last = doc.nodes.last().expect("non-empty").id.clone();
        let k = node_pick % (doc.nodes.len() - 1);
        doc.nodes[k].inputs[0] = last;
        match doc.lower() {
            Err(GraphError::Cycle { .. }) => {}
            other => return Err(TestCaseError::fail(format!("expected Cycle, got {other:?}"))),
        }
    }

    /// Shape perturbation: zeroing any input dimension is a typed shape
    /// error attributed to the input, not a panic downstream.
    #[test]
    fn perturbed_input_shapes_are_typed_errors(
        net_tag in 0usize..5,
        dim in 0usize..4,
    ) {
        let mut doc = graph::export(&tiny_nets(1)[net_tag]);
        match dim {
            0 => doc.input.n = 0,
            1 => doc.input.c = 0,
            2 => doc.input.h = 0,
            _ => doc.input.w = 0,
        }
        match doc.lower() {
            Err(GraphError::Shape { node, .. }) => prop_assert_eq!(node, "input".to_string()),
            other => return Err(TestCaseError::fail(format!("expected Shape, got {other:?}"))),
        }
    }

    /// Emptying a node's input list violates its op arity, whatever the op.
    #[test]
    fn emptied_input_lists_violate_arity(
        net_tag in 0usize..5,
        node_pick in 0usize..1000,
    ) {
        let mut doc = graph::export(&tiny_nets(1)[net_tag]);
        let k = node_pick % doc.nodes.len();
        let node = doc.nodes[k].id.clone();
        doc.nodes[k].inputs.clear();
        match doc.lower() {
            Err(GraphError::Arity { node: n, got, .. }) => {
                prop_assert_eq!(n, node);
                prop_assert_eq!(got, 0);
            }
            other => return Err(TestCaseError::fail(format!("expected Arity, got {other:?}"))),
        }
    }

    /// Unknown op kinds are reported by name, whatever identifier appears.
    #[test]
    fn unknown_op_kinds_are_reported_by_name(
        family in 0usize..5,
        suffix in 0usize..1000,
    ) {
        let base = ["softmax", "batchnorm", "upsample", "lstm", "shuffle"][family];
        let kind = if suffix == 0 { base.to_string() } else { format!("{base}{suffix}") };
        assert!(!graph::OP_KINDS.contains(&kind.as_str()));
        let doc = format!(
            r#"{{"format":"sm-graph-v1","name":"m","input":{{"n":1,"c":3,"h":8,"w":8}},
               "nodes":[{{"id":"x","op":{{"{kind}":{{}}}},"inputs":["input"]}}]}}"#
        );
        match graph::load(&doc) {
            Err(GraphError::UnknownOp { node, op }) => {
                prop_assert_eq!(node, "x".to_string());
                prop_assert_eq!(op, kind);
            }
            other => return Err(TestCaseError::fail(format!("expected UnknownOp, got {other:?}"))),
        }
    }

    /// Truncating a well-formed document anywhere is a parse error — never a
    /// panic, never a silently accepted prefix.
    #[test]
    fn truncated_documents_fail_typed(
        net_tag in 0usize..5,
        cut in 1usize..1000,
    ) {
        let body = graph::export_json(&tiny_nets(1)[net_tag]);
        let cut = cut % (body.len() - 1);
        // Stay on a char boundary (the documents are ASCII, but be exact).
        let prefix: String = body.chars().take(cut).collect();
        match graph::load(&prefix) {
            Err(GraphError::Parse(_)) | Err(GraphError::Schema(_)) => {}
            Ok(_) => return Err(TestCaseError::fail(format!(
                "truncation at {cut} of {} bytes was accepted", body.len()
            ))),
            Err(e) => return Err(TestCaseError::fail(format!("unexpected class {e:?}"))),
        }
    }
}

/// A producer-channel perturbation that survives locally but breaks the
/// junction downstream must be attributed to the junction node.
#[test]
fn junction_shape_mismatch_is_attributed_to_the_junction() {
    let mut doc = graph::export(&zoo::toy_residual(1));
    let c1 = doc
        .nodes
        .iter_mut()
        .find(|n| n.id == "c1")
        .expect("toy_residual has c1");
    match &mut c1.op {
        GraphOp::Conv { out_channels, .. } => *out_channels += 1,
        other => panic!("c1 is a conv, got {other:?}"),
    }
    match doc.lower() {
        // c1 feeds both c2 (any width is fine) and the add (must match c3).
        Err(GraphError::Shape { node, .. }) => assert_eq!(node, "add"),
        other => panic!("expected Shape at the add junction, got {other:?}"),
    }
}

#[test]
fn unet_example_detects_long_skips() {
    let net = graph::load(include_str!("../examples/unet_long_skip.json")).expect("example loads");
    let report = ShortcutReport::of(&net);
    assert_eq!(report.adds(), 0);
    assert_eq!(report.concats(), 3);
    assert_eq!(report.max_skip(), 9);
    let mut skips: Vec<(String, String, usize)> = report
        .hits
        .iter()
        .map(|h| (h.producer.clone(), h.consumer.clone(), h.skip))
        .collect();
    skips.sort();
    assert_eq!(
        skips,
        vec![
            ("enc1".to_string(), "skip1".to_string(), 9),
            ("enc2".to_string(), "skip2".to_string(), 6),
            ("enc3".to_string(), "skip3".to_string(), 3),
        ],
        "U-Net long-skip distances must be recovered exactly"
    );
    assert!(report
        .hits
        .iter()
        .all(|h| h.junction == JunctionKind::Concat));
}

#[test]
fn branchy_example_detects_mixed_junctions() {
    let net = graph::load(include_str!("../examples/branchy_concat.json")).expect("example loads");
    let report = ShortcutReport::of(&net);
    assert_eq!((report.adds(), report.concats()), (1, 2));
    assert_eq!(report.max_skip(), 5);
    let add = report
        .hits
        .iter()
        .find(|h| h.junction == JunctionKind::Add)
        .expect("stem residual");
    assert_eq!(
        (add.producer.as_str(), add.consumer.as_str(), add.skip),
        ("stem", "residual", 5)
    );
    let mut concat_skips: Vec<usize> = report
        .hits
        .iter()
        .filter(|h| h.junction == JunctionKind::Concat)
        .map(|h| h.skip)
        .collect();
    concat_skips.sort_unstable();
    assert_eq!(
        concat_skips,
        vec![1, 2],
        "1x1 and 3x3 branches skip the 5x5"
    );
}

/// Hand-written fixture with a known add-style skip: detection must report
/// exactly one hit with the exact distance, nothing else.
#[test]
fn hand_written_add_fixture_matches_exactly() {
    let doc = r#"{
      "format": "sm-graph-v1",
      "name": "skip3_add",
      "input": {"n": 1, "c": 4, "h": 8, "w": 8},
      "nodes": [
        {"id": "a", "op": {"conv": {"out_channels": 4, "kernel": 3, "stride": 1, "pad": 1, "relu": true}}, "inputs": ["input"]},
        {"id": "b", "op": {"conv": {"out_channels": 4, "kernel": 3, "stride": 1, "pad": 1, "relu": true}}, "inputs": ["a"]},
        {"id": "c", "op": {"conv": {"out_channels": 4, "kernel": 3, "stride": 1, "pad": 1, "relu": true}}, "inputs": ["b"]},
        {"id": "d", "op": {"conv": {"out_channels": 4, "kernel": 3, "stride": 1, "pad": 1}}, "inputs": ["c"]},
        {"id": "j", "op": {"add": {"relu": true}}, "inputs": ["a", "d"]}
      ]
    }"#;
    let net = graph::load(doc).expect("fixture loads");
    let report = ShortcutReport::of(&net);
    assert_eq!(report.hits.len(), 1);
    let hit = &report.hits[0];
    assert_eq!(
        (
            hit.producer.as_str(),
            hit.consumer.as_str(),
            hit.skip,
            hit.junction
        ),
        ("a", "j", 3, JunctionKind::Add)
    );
}

/// The loader accepts any topological node order. A scrambled document may
/// legitimately lower to a *different* (earliest-ready) schedule than the
/// zoo's, but the result must be deterministic and equivalent layer for
/// layer: same ops, same shapes, same named edges.
#[test]
fn scrambled_node_order_lowers_to_an_equivalent_network() {
    use std::collections::BTreeSet;
    let structure = |n: &Network| -> BTreeSet<(String, String, Vec<String>)> {
        n.layers()
            .iter()
            .map(|l| {
                (
                    l.name.clone(),
                    format!("{:?} {:?}", l.kind, l.out_shape),
                    l.inputs.iter().map(|&i| n.layer(i).name.clone()).collect(),
                )
            })
            .collect()
    };
    for net in tiny_nets(1) {
        let mut doc = graph::export(&net);
        doc.nodes.reverse();
        let json = doc.to_json();
        let lower = || {
            GraphDoc::from_json(&json)
                .expect("re-serialized document parses")
                .lower()
                .expect("reversed document still lowers")
        };
        let back = lower();
        assert_eq!(
            back,
            lower(),
            "{}: lowering must be deterministic",
            net.name()
        );
        assert_eq!(
            structure(&back),
            structure(&net),
            "{}: scrambling changed the graph itself",
            net.name()
        );
    }
}

/// The ingested examples are simulatable end-to-end, not just loadable: the
/// acceptance path behind `smctl report --net-file examples/…`.
#[test]
fn examples_simulate_under_shortcut_mining() {
    for doc in [
        include_str!("../examples/unet_long_skip.json"),
        include_str!("../examples/branchy_concat.json"),
    ] {
        let net = graph::load(doc).expect("example loads");
        let exp = Experiment::new(AccelConfig::default());
        let cmp = exp.compare(&net);
        assert!(
            cmp.mined.fm_traffic_bytes() < cmp.baseline.fm_traffic_bytes(),
            "{}: mining must pay off on a shortcut-rich ingested net",
            net.name()
        );
    }
}
