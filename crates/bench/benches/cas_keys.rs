//! Result-cache key derivation and entry round trips, by input size.
//!
//! A warm `smctl serve` hit costs a network fingerprint (once per network
//! value), one key per cell, and one probe plus decode per cell. This
//! bench prices each step separately:
//!
//! * `content_fingerprint` over networks from 4 to 150+ layers — what the
//!   service's zoo memo and [`KeyedNet`] avoid repeating;
//! * a sweep's chaos keys via full [`cell_key`] per cell vs one
//!   [`KeyPrefix`] per sweep plus a hashed tail per cell;
//! * entry encode (`to_json`), decode (`from_json`) and a warm store probe
//!   (`CacheSession::get`) per cell type.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use serde::Serialize;
use sm_accel::AccelConfig;
use sm_bench::cas::{cell_key, content_fingerprint, KeyPrefix, KeyedNet, ResultCache};
use sm_bench::experiments::{chaos_grid3, compare_cells, ChaosGrid3Cell, ComparisonCell};
use sm_bench::json::{from_json, to_json};
use sm_core::{FaultPlan, Policy};
use sm_model::zoo;

const NETS: [&str; 4] = ["toy_residual", "resnet18", "resnet50", "resnet152"];

fn bench_fingerprint(c: &mut Criterion) {
    for name in NETS {
        let net = zoo::try_by_name(name, 1).unwrap();
        c.bench_function(
            format!("content_fingerprint {name} ({} layers)", net.len()),
            |b| b.iter(|| black_box(content_fingerprint(&net).unwrap())),
        );
    }
}

/// Mirror of the chaos sweeps' key inputs (private to the experiments).
#[derive(Serialize)]
struct ChaosKeyInputs {
    network: String,
    net_fingerprint: String,
    config: AccelConfig,
    policy: Policy,
    plan: FaultPlan,
}

fn bench_keys(c: &mut Criterion) {
    let net = KeyedNet::new(zoo::resnet50(1));
    let inputs = |plan: FaultPlan| ChaosKeyInputs {
        network: net.net().name().to_string(),
        net_fingerprint: net.fingerprint().to_string(),
        config: AccelConfig::default(),
        policy: Policy::shortcut_mining(),
        plan,
    };
    for cells in [1u64, 9, 64] {
        let plans: Vec<FaultPlan> = (0..cells)
            .map(|i| FaultPlan::new(i).with_dram_faults(0.01 * i as f64))
            .collect();
        c.bench_function(format!("chaos keys full cell_key x{cells}"), |b| {
            b.iter(|| {
                for plan in &plans {
                    black_box(cell_key("chaos-grid-cell", &inputs(plan.clone())).unwrap());
                }
            })
        });
        c.bench_function(format!("chaos keys prefix-hashed x{cells}"), |b| {
            b.iter(|| {
                let head = inputs(FaultPlan::default());
                let prefix = KeyPrefix::new("chaos-grid-cell", &head, &head.plan).unwrap();
                for plan in &plans {
                    black_box(prefix.key(plan).unwrap());
                }
            })
        });
    }
}

fn bench_entries(c: &mut Criterion) {
    let net = zoo::toy_residual(1);
    let grid = chaos_grid3(
        &net,
        AccelConfig::default(),
        1,
        &[0.1],
        &[0.05],
        &[0.3],
        None,
    );
    let grid_cell: ChaosGrid3Cell = grid.cells[0].clone();
    let cmp_cell: ComparisonCell = compare_cells(
        AccelConfig::default(),
        &[KeyedNet::new(net)],
        None,
        |_, _, _| {},
    )
    .remove(0);

    let dir = std::env::temp_dir().join(format!("sm-bench-cas-keys-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultCache::open(&dir).unwrap();
    let session = store.session();

    macro_rules! round_trip {
        ($label:literal, $cell:expr, $ty:ty) => {{
            let cell = $cell;
            let payload = to_json(&cell).unwrap();
            let bytes = payload.len();
            c.bench_function(format!("entry encode {} ({bytes} B)", $label), |b| {
                b.iter(|| black_box(to_json(&cell).unwrap()))
            });
            c.bench_function(format!("entry decode {} ({bytes} B)", $label), |b| {
                b.iter(|| black_box(from_json::<$ty>(&payload).unwrap()))
            });
            let key = cell_key("bench-entry", &$label).unwrap();
            session.put(key, &cell);
            c.bench_function(format!("entry warm probe {} ({bytes} B)", $label), |b| {
                b.iter(|| black_box(session.get::<$ty>(key).unwrap()))
            });
        }};
    }
    round_trip!("ChaosGrid3Cell", grid_cell, ChaosGrid3Cell);
    round_trip!("ComparisonCell", cmp_cell, ComparisonCell);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_fingerprint, bench_keys, bench_entries);
criterion_main!(benches);
