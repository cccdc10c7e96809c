//! Parallel sweeps must be byte-identical to serial ones.
//!
//! `sm_core::parallel::par_map_stream` preserves input order, so the
//! rendered tables and serialized JSON of every parallelized experiment are
//! required to match exactly between `--threads 1` and `--threads N`. A
//! single test function owns the whole comparison because the thread count
//! is a process-global setting.

use serde::json::to_string;
use shortcut_mining::accel::AccelConfig;
use shortcut_mining::bench::cas::{KeyedNet, RunCtx};
use shortcut_mining::bench::experiments::{
    all_tables, chaos_degradation, chaos_grid, chaos_grid3, control_path_sweep, retry_budget_sweep,
    DEFAULT_CONTROL_PATH_RATES, DEFAULT_FRACTIONS, DEFAULT_GRID_FRACTIONS, DEFAULT_GRID_RATES,
    DEFAULT_GRID_SITE_RATES, DEFAULT_RETRY_BUDGETS,
};
use shortcut_mining::bench::sweep::SweepAxes;
use shortcut_mining::core::parallel::set_threads;
use shortcut_mining::model::zoo;

/// Renders every parallelized experiment at the current thread setting.
fn render_all() -> String {
    let cfg = AccelConfig::default();
    let net = zoo::resnet_tiny(2, 1);
    // Every table of the paper's evaluation (`all_experiments`).
    let mut out: String = all_tables(cfg).iter().map(|t| t.render()).collect();
    let keyed = KeyedNet::new(net.clone());
    let plain = RunCtx::default();
    let curve_axes = SweepAxes {
        seed: 9,
        dram_rate: 0.05,
        fractions: Some(DEFAULT_FRACTIONS.to_vec()),
        ..SweepAxes::default()
    };
    let curve = chaos_degradation(&keyed, cfg, &curve_axes, &plain, &mut ()).unwrap();
    out.push_str(&curve.table().render());
    out.push_str(&to_string(&curve).expect("curve serializes"));
    let study = retry_budget_sweep(&net, cfg, 9, 0.2, &DEFAULT_RETRY_BUDGETS);
    out.push_str(&study.table().render());
    out.push_str(&to_string(&study).expect("study serializes"));
    let grid_axes = SweepAxes {
        seed: 9,
        retry_budget: Some(8),
        fractions: Some(DEFAULT_GRID_FRACTIONS.to_vec()),
        rates: Some(DEFAULT_GRID_RATES.to_vec()),
        site_rates: Some(DEFAULT_GRID_SITE_RATES.to_vec()),
        ..SweepAxes::default()
    };
    let grid = chaos_grid(&keyed, cfg, &grid_axes, &plain, &mut ()).unwrap();
    out.push_str(&grid.table().render());
    out.push_str(&to_string(&grid).expect("grid serializes"));
    let grid3 = chaos_grid3(&keyed, cfg, &grid_axes, &plain, &mut ()).unwrap();
    for t in grid3.tables() {
        out.push_str(&t.render());
    }
    out.push_str(&to_string(&grid3).expect("grid3 serializes"));
    let control_axes = SweepAxes {
        seed: 9,
        rates: Some(DEFAULT_CONTROL_PATH_RATES.to_vec()),
        ..SweepAxes::default()
    };
    let control = control_path_sweep(&keyed, cfg, &control_axes, &plain, &mut ()).unwrap();
    out.push_str(&control.table().render());
    out.push_str(&to_string(&control).expect("control-path study serializes"));
    out
}

#[test]
fn one_thread_and_many_threads_render_identical_bytes() {
    set_threads(Some(1));
    let serial = render_all();
    for threads in [2, 4, 8] {
        set_threads(Some(threads));
        let parallel = render_all();
        assert_eq!(
            serial, parallel,
            "output at {threads} threads diverged from serial output"
        );
    }
    set_threads(None);
}
