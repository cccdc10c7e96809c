//! Wall-clock speed floors, asserted nightly on a release build:
//!
//! ```text
//! cargo test --release -q --test speed_floors -- --ignored
//! ```
//!
//! Each floor is a ratio of two timings taken on the same host, so it
//! holds on any machine; both tests are ignored by default so that
//! ordinary (debug) test runs never time anything. Each also checks that
//! the fast path computes exactly what the slow one does.

use std::sync::Mutex;
use std::time::Instant;

use shortcut_mining::accel::AccelConfig;
use shortcut_mining::bench::cas::{CacheSession, KeyedNet, ResultCache, RunCtx};
use shortcut_mining::bench::experiments::chaos_grid;
use shortcut_mining::bench::sweep::SweepAxes;
use shortcut_mining::model::zoo;
use shortcut_mining::tensor::ops::{gemm_nt, gemm_nt_micro};
use shortcut_mining::tensor::{Shape4, Tensor};

/// Least speedup each fast path must keep over its slow twin.
const FLOOR: f64 = 4.0;

/// Held while timing: the harness runs tests in parallel, and two timed
/// tests sharing the cores would slow each other down.
static TIMING: Mutex<()> = Mutex::new(());

/// Median wall time of `reps` calls of `f`, in milliseconds.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

#[test]
#[ignore = "wall-clock floor; nightly runs it in release"]
fn packed_gemm_microkernel_is_at_least_4x_the_scalar_oracle() {
    let _timing = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    // The 64-channel 56x56 3x3 convolution of the ResNet mid-network,
    // lowered by im2col: output positions x patch elements against filters.
    let (rows, cols, m) = (56 * 56, 64 * 3 * 3, 64);
    let a = Tensor::random(Shape4::new(1, 1, rows, cols), 9).into_vec();
    let b = Tensor::random(Shape4::new(1, 1, m, cols), 10).into_vec();
    let (mut scalar, mut micro) = (Vec::new(), Vec::new());
    let scalar_ms = median_ms(5, || scalar = gemm_nt(&a, &b, rows, cols, m));
    let micro_ms = median_ms(5, || micro = gemm_nt_micro(&a, &b, rows, cols, m));
    assert_eq!(
        micro, scalar,
        "the microkernel diverged from the scalar oracle"
    );
    let speedup = scalar_ms / micro_ms;
    assert!(
        speedup >= FLOOR,
        "gemm {rows}x{cols}x{m}: microkernel speedup {speedup:.2}x is below the {FLOOR}x floor \
         ({scalar_ms:.1} ms scalar vs {micro_ms:.1} ms microkernel)"
    );
}

#[test]
#[ignore = "wall-clock floor; nightly runs it in release"]
fn warm_result_cache_grid_is_at_least_4x_the_cold_run() {
    let _timing = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    // The `smctl chaos --grid` headline pair over a dense 6 x 5 fraction x
    // rate plane: 60 cells amortize each run's network fingerprint, so the
    // warm runs weigh cache reads against real simulation time.
    let cfg = AccelConfig::default();
    let nets = [zoo::resnet34(1), zoo::squeezenet_v10_simple_bypass(1)];
    let axes = SweepAxes {
        seed: 5,
        retry_budget: Some(8),
        fractions: Some(vec![0.0, 0.05, 0.1, 0.2, 0.3, 0.5]),
        rates: Some(vec![0.0, 0.01, 0.05, 0.1, 0.2]),
        ..SweepAxes::default()
    };
    let run_grids = |session: &CacheSession<'_>| {
        let ctx = RunCtx {
            cache: Some(session),
            cancel: None,
        };
        nets.iter()
            .map(|net| {
                let net = KeyedNet::new(net.clone());
                chaos_grid(&net, cfg, &axes, &ctx, &mut ()).expect("no cancel check")
            })
            .collect::<Vec<_>>()
    };
    // Both sides are medians of three runs: each cold run fills its own
    // fresh store (opened before the clock starts), and the warm runs
    // replay the last one.
    let dirs: Vec<_> = (0..3)
        .map(|i| {
            let dir = format!("sm-speed-floor-cas-{}-{i}", std::process::id());
            std::env::temp_dir().join(dir)
        })
        .collect();
    let stores: Vec<_> = dirs
        .iter()
        .map(|dir| {
            let _ = std::fs::remove_dir_all(dir);
            ResultCache::open(dir).expect("temp result-cache dir")
        })
        .collect();
    let cold_sessions: Vec<_> = stores.iter().map(ResultCache::session).collect();
    let mut fresh = cold_sessions.iter();
    let mut cold = Vec::new();
    let cold_ms = median_ms(3, || {
        cold = run_grids(fresh.next().expect("one fresh store per cold run"));
    });
    let warm_session = stores[2].session();
    let mut warm = Vec::new();
    let warm_ms = median_ms(3, || warm = run_grids(&warm_session));
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    assert_eq!(warm, cold, "the warm grids diverged from the cold run");
    assert_eq!(warm_session.stats().misses, 0, "the warm runs missed");
    let speedup = cold_ms / warm_ms;
    assert!(
        speedup >= FLOOR,
        "warm result-cache grid speedup {speedup:.2}x is below the {FLOOR}x floor \
         ({cold_ms:.1} ms cold vs {warm_ms:.1} ms warm)"
    );
}
