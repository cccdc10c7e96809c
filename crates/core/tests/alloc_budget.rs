//! Heap allocations per simulated layer, counted by a global allocator.
//!
//! A figure regeneration simulates about 53,000 layers, so an allocation
//! per layer is a measurable share of its time. With the tile-plan memo
//! warm, a baseline layer allocates only its report's name, and a Shortcut
//! Mining layer adds its amortized trace and retention growth. The counts
//! are deterministic on any host; this binary holds a single test so that
//! no other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sm_accel::{AccelConfig, BaselineAccelerator};
use sm_core::{Policy, ShortcutMiner, SimOptions};
use sm_model::{zoo, Network};

/// Most heap allocations a baseline layer may make, on average.
const BASELINE_BUDGET: f64 = 1.5;

/// Most heap allocations a Shortcut Mining layer may make, on average.
const SHORTCUT_MINING_BUDGET: f64 = 3.0;

/// Counts every `alloc` and `realloc` (`alloc_zeroed` defaults to `alloc`).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations per simulated layer (every layer but the input) of one
/// call of `simulate`, made after a first call has warmed the plan memo.
fn allocations_per_layer(net: &Network, mut simulate: impl FnMut()) -> f64 {
    simulate();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    simulate();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    allocations as f64 / (net.len() - 1) as f64
}

#[test]
fn a_simulated_layer_stays_within_its_allocation_budget() {
    let cfg = AccelConfig::default();
    let baseline = BaselineAccelerator::new(cfg);
    let miner = ShortcutMiner::new(cfg, Policy::shortcut_mining());
    let options = SimOptions::default();
    for net in [
        zoo::resnet152(1),
        zoo::densenet121(1),
        zoo::squeezenet_v10_simple_bypass(1),
    ] {
        let base = allocations_per_layer(&net, || {
            baseline.try_simulate(&net).expect("zoo networks simulate");
        });
        let sm = allocations_per_layer(&net, || {
            miner
                .try_simulate(&net, &options)
                .expect("zoo networks simulate");
        });
        assert!(
            base <= BASELINE_BUDGET,
            "{}: a baseline layer makes {base:.2} allocations, over its budget of \
             {BASELINE_BUDGET}",
            net.name()
        );
        assert!(
            sm <= SHORTCUT_MINING_BUDGET,
            "{}: a Shortcut Mining layer makes {sm:.2} allocations, over its budget of \
             {SHORTCUT_MINING_BUDGET}",
            net.name()
        );
    }
}
