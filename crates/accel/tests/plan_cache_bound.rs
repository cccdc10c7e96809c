//! The tile-plan memo holds at most `PLAN_CACHE_MAX_PLANS` plans.
//!
//! The memo is process-wide, so this check has a test binary of its own:
//! no other test shares the memo or moves its hit and miss counters.

use sm_accel::tiling::{
    plan_conv, plan_conv_cached, ConvDims, PlanCacheSnapshot, TileCaps, PLAN_CACHE_MAX_PLANS,
};

const CAPS: TileCaps = TileCaps {
    ifm_bytes: 64 << 10,
    ofm_bytes: 64 << 10,
    weight_tile_bytes: 64 << 10,
    weight_total_bytes: 1 << 20,
};

/// A small 1×1 convolution; each `i` is a distinct memo key.
fn dims(i: usize) -> ConvDims {
    ConvDims {
        batch: 1,
        in_c: 1,
        in_h: 2,
        in_w: 2,
        out_c: i + 1,
        out_h: 2,
        out_w: 2,
        kernel: 1,
        stride: 1,
        pad: 0,
    }
}

fn cached(i: usize) -> sm_accel::tiling::TilePlan {
    plan_conv_cached(dims(i), CAPS, 16, 16, 2)
}

#[test]
fn a_full_memo_is_cleared_before_the_next_insert() {
    let fill = PlanCacheSnapshot::take();
    for i in 0..=PLAN_CACHE_MAX_PLANS {
        assert_eq!(cached(i), plan_conv(dims(i), CAPS, 16, 16, 2), "key {i}");
    }
    assert_eq!(fill.delta(), (0, PLAN_CACHE_MAX_PLANS as u64 + 1));

    // The last insert found the memo full and cleared it: the first key
    // is gone, the last one is kept.
    let first = PlanCacheSnapshot::take();
    assert_eq!(cached(0), plan_conv(dims(0), CAPS, 16, 16, 2));
    assert_eq!(first.delta(), (0, 1), "the first key must miss again");
    let last = PlanCacheSnapshot::take();
    assert_eq!(
        cached(PLAN_CACHE_MAX_PLANS),
        plan_conv(dims(PLAN_CACHE_MAX_PLANS), CAPS, 16, 16, 2)
    );
    assert_eq!(last.delta(), (1, 0), "the last key must hit");
}
