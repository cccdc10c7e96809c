//! Tiling-plan memo cache: cold planning cost vs warm lookup cost.
//!
//! `plan_conv_cached` backs every per-layer schedule decision in the
//! baseline, fused and Shortcut Mining paths; sweeps replan identical
//! layers hundreds of times, so the warm path is what experiment wall-clock
//! actually sees.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use sm_accel::tiling::{plan_cache_clear, plan_conv_cached, ConvDims, TileCaps};
use sm_accel::AccelConfig;
use sm_model::zoo;

fn key_set() -> (Vec<ConvDims>, TileCaps) {
    let caps = TileCaps {
        ifm_bytes: 64 << 10,
        ofm_bytes: 64 << 10,
        weight_tile_bytes: 32 << 10,
        weight_total_bytes: 64 << 10,
    };
    let keys = (0..64)
        .map(|i| ConvDims {
            batch: 1,
            in_c: 32 + 8 * (i % 8),
            in_h: 28 + (i / 8),
            in_w: 28 + (i / 8),
            out_c: 64,
            out_h: 28 + (i / 8),
            out_w: 28 + (i / 8),
            kernel: 3,
            stride: 1,
            pad: 1,
        })
        .collect();
    (keys, caps)
}

fn bench_plan_cache(c: &mut Criterion) {
    let (keys, caps) = key_set();
    let plan_all = || {
        for &dims in &keys {
            black_box(plan_conv_cached(dims, caps, 64, 64, 2));
        }
    };
    // The lookups one simulated ResNet-152 makes: its convolutions at the
    // default configuration's tile capacities, every one a hit when warm.
    let cfg = AccelConfig::default();
    let net = zoo::resnet152(1);
    let convs: Vec<ConvDims> = net
        .layers()
        .iter()
        .filter_map(|layer| ConvDims::from_layer(&net, layer))
        .collect();
    let net_caps = cfg.tile_caps();
    let plan_net = || {
        for &dims in &convs {
            let plan = plan_conv_cached(dims, net_caps, cfg.pe_rows, cfg.pe_cols, cfg.elem_bytes);
            black_box(plan);
        }
    };

    let mut g = c.benchmark_group("plan_cache");
    g.throughput(Throughput::Elements(keys.len() as u64));
    g.bench_function("cold_64_keys", |b| {
        b.iter(|| {
            plan_cache_clear();
            plan_all();
        });
    });
    g.bench_function("warm_64_keys", |b| {
        plan_all(); // populate once
        b.iter(plan_all);
    });
    g.throughput(Throughput::Elements(convs.len() as u64));
    g.bench_function("warm_resnet152_convs", |b| {
        plan_net(); // populate once
        b.iter(plan_net);
    });
    g.finish();
}

criterion_group!(benches, bench_plan_cache);
criterion_main!(benches);
