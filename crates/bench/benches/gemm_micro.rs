//! GEMM microkernel vs scalar oracle on the Ext-16 headline replay shapes,
//! plus cost-aware vs FIFO dispatch on a deliberately skewed sweep grid.
//!
//! The first group quantifies the packed register-blocked kernel's win on
//! the exact im2col shapes the replay path runs; the nightly speed floor in
//! `tests/speed_floors.rs` asserts ≥4× on the first of them. The second
//! group pits `par_map_weighted` (largest-cost-first) against plain
//! `par_map` (FIFO chunking) on a ResNet-152 + SqueezeNet mixed grid, where
//! a FIFO split can strand the one enormous network at the end of a
//! worker's queue.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use sm_accel::AccelConfig;
use sm_core::parallel::{par_map, par_map_weighted};
use sm_core::{Experiment, Policy};
use sm_model::{zoo, Network};
use sm_tensor::ops::{gemm_nt, gemm_nt_micro};
use sm_tensor::{Shape4, Tensor};

/// Ext-16 replay shapes: `(rows, cols, m)` im2col matrices of the layers
/// that dominate golden-executor wall time (ResNet mid-network 3×3 convs,
/// a SqueezeNet expand, and the downsample projection).
const REPLAY_SHAPES: &[(usize, usize, usize)] = &[
    (3136, 576, 64),  // 64c 56x56 k3 - the headline floor shape
    (784, 1152, 128), // 128c 28x28 k3
    (3136, 64, 256),  // squeeze 1x1 expand
    (784, 256, 512),  // 1x1 projection
];

fn bench_gemm(c: &mut Criterion) {
    for &(rows, cols, m) in REPLAY_SHAPES {
        let a = Tensor::random(Shape4::new(1, 1, rows, cols), 11).into_vec();
        let b = Tensor::random(Shape4::new(1, 1, m, cols), 12).into_vec();
        let mut g = c.benchmark_group(format!("gemm_{rows}x{cols}x{m}"));
        g.sample_size(10);
        g.throughput(Throughput::Elements(rows as u64 * cols as u64 * m as u64));
        g.bench_function("scalar_gemm_nt", |bch| {
            bch.iter(|| black_box(gemm_nt(&a, &b, rows, cols, m)));
        });
        g.bench_function("packed_gemm_nt_micro", |bch| {
            bch.iter(|| black_box(gemm_nt_micro(&a, &b, rows, cols, m)));
        });
        g.finish();
    }
}

/// A skewed sweep: one ResNet-152 (the whale) plus a school of SqueezeNets.
/// FIFO chunking gives whichever worker drew the whale the longest queue;
/// largest-cost-first isolates it immediately.
fn skewed_grid() -> Vec<Network> {
    let mut nets = vec![zoo::squeezenet_v10_simple_bypass(1); 6];
    nets.insert(3, zoo::resnet152(1));
    nets
}

fn run_cell(net: &Network) -> u64 {
    let exp = Experiment::new(AccelConfig::default());
    exp.run(net, Policy::shortcut_mining()).total_cycles
}

fn bench_dispatch(c: &mut Criterion) {
    let nets = skewed_grid();
    let threads = 4;
    let mut g = c.benchmark_group("skewed_sweep_dispatch");
    g.sample_size(10);
    g.bench_function("fifo_par_map", |b| {
        b.iter(|| black_box(par_map(&nets, threads, run_cell)));
    });
    g.bench_function("cost_aware_par_map_weighted", |b| {
        b.iter(|| {
            black_box(par_map_weighted(
                &nets,
                threads,
                |net| net.total_macs(),
                run_cell,
            ))
        });
    });
    g.finish();
}

criterion_group!(benches, bench_gemm, bench_dispatch);
criterion_main!(benches);
