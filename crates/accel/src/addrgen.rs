//! DRAM address-stream generation for the accelerator's transfer patterns.
//!
//! Feeds the DDR row-buffer model in `sm_mem::ddr` with the actual address
//! sequences the DMA engines issue, so the per-channel effective bandwidths
//! used by the cycle model can be *derived*:
//!
//! * [`weight_stream`] — weights are packed contiguously and stream
//!   sequentially: near-peak bandwidth.
//! * [`fm_tile_stream`] — a feature-map tile load in NCHW layout issues one
//!   short span per (channel, tile-row); the channel stride is `H*W*elem`
//!   bytes (≈ a DRAM page for mid-network layers), so consecutive spans hop
//!   rows and the effective bandwidth collapses toward the row-miss floor.
//! * [`effective_fm_bandwidth`] — replays a layer's full tile schedule and
//!   returns the payload bytes per cycle the FM channel actually sustains.

use sm_mem::ddr::{DdrChannel, DdrCost};

use crate::tiling::{ConvDims, TilePlan};

/// Sequential weight stream of `bytes` starting at `base`.
pub fn weight_stream(base: u64, bytes: u64) -> impl Iterator<Item = (u64, u64)> {
    std::iter::once((base, bytes))
}

/// Address spans of one input-tile load: output tile rows `[r0, r1)` ×
/// columns `[c0, c1)` across all input channels, NCHW row-major layout with
/// element size `elem_bytes`, feature map based at `base`.
///
/// One span per (channel, input row): the contiguous run of columns the
/// (halo-expanded) tile touches.
pub fn fm_tile_spans(
    dims: ConvDims,
    (r0, r1): (usize, usize),
    (c0, c1): (usize, usize),
    elem_bytes: u64,
    base: u64,
) -> Vec<(u64, u64)> {
    let clip = |o0: usize, o1: usize, extent: usize| -> (usize, usize) {
        let lo = (o0 * dims.stride) as isize - dims.pad as isize;
        let hi = ((o1 - 1) * dims.stride + dims.kernel) as isize - dims.pad as isize;
        (
            (lo.max(0) as usize).min(extent),
            (hi.max(0) as usize).min(extent),
        )
    };
    let (y0, y1) = clip(r0, r1, dims.in_h);
    let (x0, x1) = clip(c0, c1, dims.in_w);
    let row_bytes = (x1 - x0) as u64 * elem_bytes;
    let mut spans = Vec::with_capacity(dims.in_c * (y1.saturating_sub(y0)));
    for c in 0..dims.in_c {
        for y in y0..y1 {
            let addr = base + (((c * dims.in_h + y) * dims.in_w + x0) as u64) * elem_bytes;
            if row_bytes > 0 {
                spans.push((addr, row_bytes));
            }
        }
    }
    spans
}

/// Full tile-load address stream of a planned layer (one image).
pub fn fm_tile_stream(
    dims: ConvDims,
    plan: &TilePlan,
    elem_bytes: u64,
    base: u64,
) -> Vec<(u64, u64)> {
    let mut spans = Vec::new();
    for r0 in (0..dims.out_h).step_by(plan.tr.max(1)) {
        let r1 = (r0 + plan.tr).min(dims.out_h);
        for c0 in (0..dims.out_w).step_by(plan.tc.max(1)) {
            let c1 = (c0 + plan.tc).min(dims.out_w);
            spans.extend(fm_tile_spans(dims, (r0, r1), (c0, c1), elem_bytes, base));
        }
    }
    spans
}

/// Replays a layer's tile-load stream through a DDR channel and returns the
/// cost.
///
/// The channel is reset first, so the cost is a pure function of `dims`,
/// the plan's tile extents `plan.tr` × `plan.tc`, `elem_bytes` and the
/// channel's timings: no row a previous stream left open reaches it.
/// Callers may therefore replay each distinct shape once and reuse the
/// cost, as Ext-10's bandwidth derivation does.
pub fn fm_stream_cost(
    channel: &mut DdrChannel,
    dims: ConvDims,
    plan: &TilePlan,
    elem_bytes: u64,
) -> DdrCost {
    channel.reset();
    channel.cost_of_stream(fm_tile_stream(dims, plan, elem_bytes, 0))
}

/// Effective payload bandwidth (bytes/cycle) the FM channel sustains on a
/// layer's input-tile pattern.
pub fn effective_fm_bandwidth(
    channel: &mut DdrChannel,
    dims: ConvDims,
    plan: &TilePlan,
    elem_bytes: u64,
) -> f64 {
    fm_stream_cost(channel, dims, plan, elem_bytes).effective_bytes_per_cycle()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiling::{plan_conv, TileCaps};
    use sm_mem::ddr::DdrTimings;

    fn dims() -> ConvDims {
        // A ResNet conv3_x-like layer: 128ch 28x28, 3x3 s1 p1.
        ConvDims {
            batch: 1,
            in_c: 128,
            in_h: 28,
            in_w: 28,
            out_c: 128,
            out_h: 28,
            out_w: 28,
            kernel: 3,
            stride: 1,
            pad: 1,
        }
    }

    fn small_caps() -> TileCaps {
        TileCaps {
            ifm_bytes: 16 << 10,
            ofm_bytes: 16 << 10,
            weight_tile_bytes: 64 << 10,
            weight_total_bytes: 512 << 10,
        }
    }

    #[test]
    fn tile_spans_cover_the_expected_bytes() {
        let d = dims();
        let spans = fm_tile_spans(d, (0, 28), (0, 28), 2, 0);
        // Whole feature map in one tile: C*H rows of W*elem bytes.
        assert_eq!(spans.len(), 128 * 28);
        let total: u64 = spans.iter().map(|(_, l)| l).sum();
        assert_eq!(total, d.ifm_elems() * 2);
    }

    #[test]
    fn weights_sustain_far_more_bandwidth_than_fm_tiles() {
        let mut ch = DdrChannel::new(DdrTimings::default()).expect("default geometry");
        let w_cost = ch.cost_of_stream(weight_stream(0, 4 << 20));
        let w_eff = w_cost.effective_bytes_per_cycle();

        let d = dims();
        let plan = plan_conv(d, small_caps(), 64, 64, 2);
        let fm_eff = effective_fm_bandwidth(&mut ch, d, &plan, 2);

        assert!(w_eff > 55.0, "weights {w_eff}");
        assert!(fm_eff < w_eff / 3.0, "fm {fm_eff} vs weights {w_eff}");
        assert!(
            fm_eff > 1.0,
            "fm bandwidth should not collapse to zero: {fm_eff}"
        );
    }

    #[test]
    fn wider_rows_improve_fm_locality() {
        // A 1x1 conv on a wide map streams long contiguous rows: much
        // better row locality than a deep narrow map.
        let wide = ConvDims {
            batch: 1,
            in_c: 16,
            in_h: 112,
            in_w: 112,
            out_c: 16,
            out_h: 112,
            out_w: 112,
            kernel: 1,
            stride: 1,
            pad: 0,
        };
        let narrow = ConvDims {
            in_c: 512,
            in_h: 7,
            in_w: 7,
            out_c: 512,
            out_h: 7,
            out_w: 7,
            ..wide
        };
        let mut ch = DdrChannel::new(DdrTimings::default()).expect("default geometry");
        let caps = small_caps();
        let w_plan = plan_conv(wide, caps, 64, 64, 2);
        let n_plan = plan_conv(narrow, caps, 64, 64, 2);
        let wide_eff = effective_fm_bandwidth(&mut ch, wide, &w_plan, 2);
        let narrow_eff = effective_fm_bandwidth(&mut ch, narrow, &n_plan, 2);
        assert!(
            wide_eff > narrow_eff,
            "wide {wide_eff} !> narrow {narrow_eff}"
        );
    }

    #[test]
    fn stream_cost_does_not_depend_on_what_the_channel_replayed_before() {
        let d = dims();
        let plan = plan_conv(d, small_caps(), 64, 64, 2);
        let fresh = fm_stream_cost(
            &mut DdrChannel::new(DdrTimings::default()).expect("default geometry"),
            d,
            &plan,
            2,
        );

        // Another shape's stream, then a weight stream, leave rows open.
        let other = ConvDims {
            in_c: 64,
            in_h: 56,
            in_w: 56,
            out_c: 64,
            out_h: 56,
            out_w: 56,
            ..d
        };
        let other_plan = plan_conv(other, small_caps(), 64, 64, 2);
        let mut ch = DdrChannel::new(DdrTimings::default()).expect("default geometry");
        assert_ne!(fm_stream_cost(&mut ch, other, &other_plan, 2), fresh);
        assert_eq!(fm_stream_cost(&mut ch, d, &plan, 2), fresh);
        ch.cost_of_stream(weight_stream(4096, 3 << 20));
        assert_eq!(fm_stream_cost(&mut ch, d, &plan, 2), fresh);
    }

    #[test]
    fn stream_cost_matches_requested_traffic() {
        let d = dims();
        let plan = plan_conv(d, small_caps(), 64, 64, 2);
        let mut ch = DdrChannel::new(DdrTimings::default()).expect("default geometry");
        let cost = fm_stream_cost(&mut ch, d, &plan, 2);
        // The replayed payload equals the halo-expanded fetch the traffic
        // model charges (per image).
        assert_eq!(
            cost.bytes_requested,
            d.halo_expanded_ifm_elems(plan.tr, plan.tc) * 2
        );
    }
}
