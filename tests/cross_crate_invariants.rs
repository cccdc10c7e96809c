//! Cross-crate integration tests: the system-level invariants of DESIGN.md,
//! exercised through the public umbrella API.

use shortcut_mining::accel::{AccelConfig, BaselineAccelerator, FusedLayerAccelerator, RunStats};
use shortcut_mining::core::{Experiment, Policy, ShortcutMiner};
use shortcut_mining::mem::TrafficClass;
use shortcut_mining::model::zoo;

fn configs() -> Vec<AccelConfig> {
    vec![
        AccelConfig::default(),
        AccelConfig::default().with_fm_capacity(96 << 10),
        AccelConfig::default().with_fm_capacity(2 << 20),
        AccelConfig::default().with_dram_bandwidth(16.0),
    ]
}

#[test]
fn sm_never_exceeds_fused_baseline_fm_traffic_anywhere() {
    for cfg in configs() {
        for net in [
            zoo::resnet18(1),
            zoo::resnet50(1),
            zoo::squeezenet_v11(1),
            zoo::squeezenet_v10_complex_bypass(1),
            zoo::vgg16(1),
            zoo::alexnet(1),
            zoo::plain18(1),
        ] {
            let base = BaselineAccelerator::new(cfg)
                .with_fused_junctions()
                .simulate(&net);
            let sm = ShortcutMiner::new(cfg, Policy::shortcut_mining()).simulate(&net);
            assert!(
                sm.stats.fm_traffic_bytes() <= base.fm_traffic_bytes(),
                "{} at {:?}",
                net.name(),
                cfg.sram.fm_bytes()
            );
        }
    }
}

#[test]
fn reuse_disabled_equals_fused_baseline_for_every_class() {
    for cfg in configs() {
        for net in [zoo::resnet34(1), zoo::squeezenet_v10_simple_bypass(2)] {
            let base = BaselineAccelerator::new(cfg)
                .with_fused_junctions()
                .simulate(&net);
            let off = ShortcutMiner::new(cfg, Policy::reuse_disabled()).simulate(&net);
            for class in TrafficClass::ALL {
                assert_eq!(
                    off.stats.ledger.class_bytes(class),
                    base.ledger.class_bytes(class),
                    "{} class {class}",
                    net.name()
                );
            }
        }
    }
}

#[test]
fn ledger_totals_equal_per_layer_sums() {
    let exp = Experiment::default_config();
    for policy in [Policy::baseline(), Policy::shortcut_mining()] {
        let stats = exp.run(&zoo::resnet50(1), policy);
        let layer_fm: u64 = stats.layers.iter().map(|l| l.traffic.feature_map()).sum();
        let layer_total: u64 = stats.layers.iter().map(|l| l.traffic.total()).sum();
        assert_eq!(layer_fm, stats.fm_traffic_bytes(), "{policy:?}");
        assert_eq!(layer_total, stats.total_traffic_bytes(), "{policy:?}");
        let cycle_sum: u64 = stats.layers.iter().map(|l| l.cycles.total).sum();
        assert_eq!(cycle_sum, stats.total_cycles, "{policy:?}");
    }
}

#[test]
fn mining_adds_nothing_on_networks_without_shortcuts() {
    // On plain/VGG topologies the mining procedures have no shortcut edges
    // to exploit: swap-only must equal the full policy.
    let exp = Experiment::default_config();
    for net in [zoo::plain34(1), zoo::vgg16(1), zoo::alexnet(1)] {
        let swap = exp.run(&net, Policy::swap_only());
        let full = exp.run(&net, Policy::shortcut_mining());
        assert_eq!(
            swap.fm_traffic_bytes(),
            full.fm_traffic_bytes(),
            "{}",
            net.name()
        );
        assert_eq!(
            full.ledger.class_bytes(TrafficClass::ShortcutRead),
            0,
            "{}",
            net.name()
        );
    }
}

#[test]
fn residual_networks_benefit_more_than_their_plain_twins() {
    let exp = Experiment::default_config();
    let res = exp.compare(&zoo::resnet34(1));
    let plain = exp.compare(&zoo::plain34(1));
    assert!(
        res.traffic_reduction() > plain.traffic_reduction(),
        "resnet {} vs plain {}",
        res.traffic_reduction(),
        plain.traffic_reduction()
    );
}

#[test]
fn weight_traffic_is_identical_across_architectures() {
    // Shortcut Mining touches feature maps only; weights must match the
    // baseline byte for byte.
    let exp = Experiment::default_config();
    for net in [zoo::resnet50(1), zoo::squeezenet_v10(1), zoo::vgg16(1)] {
        let base = exp.run(&net, Policy::baseline());
        let sm = exp.run(&net, Policy::shortcut_mining());
        assert_eq!(
            base.ledger.class_bytes(TrafficClass::WeightRead),
            sm.ledger.class_bytes(TrafficClass::WeightRead),
            "{}",
            net.name()
        );
    }
}

#[test]
fn every_architecture_plans_every_layer_the_same_way() {
    // One cost model: a layer's MACs and weight traffic depend on the layer
    // alone, never on the architecture around it — including the rule that
    // fully-connected weights too big for the weight buffer stream once per
    // image.
    let cfg = AccelConfig::default();
    let plan = |run: &RunStats| -> Vec<(usize, u64, u64)> {
        run.layers
            .iter()
            .map(|l| (l.id, l.macs, l.traffic.class(TrafficClass::WeightRead)))
            .collect()
    };
    let mut mismatches = Vec::new();
    for batch in [1, 2, 4] {
        for net in zoo::extended_networks(batch) {
            let runs = [
                BaselineAccelerator::new(cfg).simulate(&net),
                BaselineAccelerator::new(cfg)
                    .with_fused_junctions()
                    .simulate(&net),
                FusedLayerAccelerator::new(cfg).simulate(&net),
                ShortcutMiner::new(cfg, Policy::shortcut_mining())
                    .simulate(&net)
                    .stats,
            ];
            let reference = plan(&runs[0]);
            assert_eq!(reference.len(), net.len() - 1, "{}", net.name());
            for run in &runs[1..] {
                let layers = plan(run);
                assert_eq!(layers.len(), reference.len(), "{}", run.architecture);
                for (got, want) in layers.iter().zip(&reference) {
                    if got != want {
                        mismatches.push(format!(
                            "{} b{batch} {} layer {}: (id, macs, weight bytes) {got:?} != {want:?}",
                            net.name(),
                            run.architecture,
                            want.0
                        ));
                    }
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} mismatches:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

#[test]
fn simulation_is_deterministic() {
    let exp = Experiment::default_config();
    let net = zoo::resnet50(1);
    let a = exp.run_traced(&net, Policy::shortcut_mining());
    let b = exp.run_traced(&net, Policy::shortcut_mining());
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.trace, b.trace);
}

#[test]
fn retention_records_are_well_formed() {
    let run =
        Experiment::default_config().run_traced(&zoo::resnet152(1), Policy::shortcut_mining());
    assert!(!run.retention.is_empty());
    for r in &run.retention {
        assert!(r.junction > r.producer);
        assert_eq!(r.skip, r.junction - r.producer - 1);
        assert!((0.0..=1.0).contains(&r.resident_fraction), "{r:?}");
    }
}

#[test]
fn capacity_zero_pressure_degrades_gracefully() {
    // One-bank pool: almost nothing can be retained but the simulation must
    // stay consistent and never beat physics (traffic >= boundary IO).
    let cfg = AccelConfig::default().with_fm_capacity(4 << 10);
    let net = zoo::resnet18(1);
    let sm = ShortcutMiner::new(cfg, Policy::shortcut_mining()).simulate(&net);
    let min_io = (net.input().out_elems() + net.layers().last().unwrap().out_elems()) as u64 * 2;
    assert!(sm.stats.fm_traffic_bytes() >= min_io);
}
