//! Tiling design-space exploration latency: planning every convolution of
//! ResNet-34 / ResNet-152 (done once per layer per run, so it must be fast).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use sm_accel::tiling::{plan_conv, ConvDims};
use sm_accel::AccelConfig;
use sm_model::zoo;

fn bench_dse(c: &mut Criterion) {
    let cfg = AccelConfig::default();
    let caps = cfg.tile_caps();
    let mut g = c.benchmark_group("tiling_dse");

    for (name, net) in [
        ("resnet34", zoo::resnet34(1)),
        ("resnet152", zoo::resnet152(1)),
    ] {
        let dims: Vec<ConvDims> = net
            .layers()
            .iter()
            .filter_map(|l| ConvDims::from_layer(&net, l))
            .collect();
        g.bench_function(format!("plan_all_convs_{name}"), |b| {
            b.iter(|| {
                for d in &dims {
                    black_box(plan_conv(
                        *d,
                        caps,
                        cfg.pe_rows,
                        cfg.pe_cols,
                        cfg.elem_bytes,
                    ));
                }
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_dse);
criterion_main!(benches);
