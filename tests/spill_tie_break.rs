//! Spill-victim ties must not make results depend on hash order.
//!
//! GoogLeNet's inception branches leave several resident feature maps
//! whose next use is the same concat junction, so the spill victim is
//! often chosen among ties. The simulator keeps live feature maps in a
//! `HashMap`; unless ties break by feature-map index, the victim — and
//! every traffic and cycle figure after it — follows the map's per-process
//! hash order. This file is its own test binary, so it owns the
//! process-global thread count.

use serde::json::to_string;
use shortcut_mining::accel::AccelConfig;
use shortcut_mining::core::parallel::{par_map_stream, set_threads, threads};
use shortcut_mining::core::{Experiment, Policy, SpillOrder};
use shortcut_mining::model::zoo;

/// The `smctl compare googlenet --json` document under both spill orders,
/// each run on the worker pool.
fn render() -> String {
    let net = zoo::googlenet(1);
    let exp = Experiment::new(AccelConfig::default());
    let policies = [
        Policy::baseline(),
        Policy::shortcut_mining(),
        Policy::shortcut_mining().with_spill_order(SpillOrder::NearestJunctionFirst),
    ];
    let runs = par_map_stream(&policies, threads(), |&p| exp.run(&net, p), |_, _| {}, None)
        .expect("a dispatch without a cancel check is never cancelled");
    to_string(&runs).expect("run stats serialize")
}

#[test]
fn googlenet_compare_is_byte_identical_across_runs_and_thread_counts() {
    set_threads(Some(1));
    let reference = render();
    for run in 0..4 {
        assert_eq!(render(), reference, "1-thread run {run} diverged");
    }
    set_threads(Some(4));
    for run in 0..4 {
        assert_eq!(render(), reference, "4-thread run {run} diverged");
    }
    set_threads(None);
}
