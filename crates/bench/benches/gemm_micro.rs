//! GEMM microkernel vs scalar oracle on the Ext-16 headline replay shapes.
//!
//! Quantifies the packed register-blocked kernel's win on the exact im2col
//! shapes the replay path runs; the nightly speed floor in
//! `tests/speed_floors.rs` asserts ≥4× on the first of them.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

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

criterion_group!(benches, bench_gemm);
criterion_main!(benches);
