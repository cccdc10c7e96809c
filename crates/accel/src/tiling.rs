//! Per-layer tiling design-space exploration and the DRAM traffic formulas
//! that follow from a chosen tiling.
//!
//! The modeled loop nest is the classic output-stationary tiled convolution
//! (Zhang et al., FPGA'15 lineage): output channels unroll across PE rows
//! (`Tm`), input channels across PE columns (`Tn`), and the spatial output is
//! processed in `Tr × Tc` tiles sized to the buffers. Two loop orders trade
//! input re-reads against weight re-reads:
//!
//! * **Input-stationary** — spatial tiles outermost: each (halo-expanded)
//!   input tile is fetched once; the layer's weights are re-streamed once per
//!   spatial tile (unless they fit in the weight buffer entirely).
//! * **Weight-stationary** — output-channel groups outermost: weights are
//!   fetched once; the input is re-streamed once per `Tm`-group (unless the
//!   whole input feature map fits on chip).
//!
//! [`plan_conv`] picks the tile size and loop order minimizing total DRAM
//! traffic for the available capacities. The same planner serves the baseline
//! and Shortcut Mining — the paper's gain comes from *cross-layer* reuse, so
//! the per-layer schedule is held identical to isolate it.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

use serde::Serialize;

use sm_model::{ConvSpec, Layer, LayerKind, Network};
use sm_tensor::Shape4;

/// Convolution dimensions flattened out of the layer IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct ConvDims {
    /// Batch size.
    pub batch: usize,
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Output channels.
    pub out_c: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
    /// Kernel extent.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Padding.
    pub pad: usize,
}

impl ConvDims {
    /// Extracts dimensions from a convolution layer of `net`.
    ///
    /// Returns `None` for non-convolution layers and for a convolution
    /// without an input.
    pub fn from_layer(net: &Network, layer: &Layer) -> Option<ConvDims> {
        let LayerKind::Conv(spec) = layer.kind else {
            return None;
        };
        let in_shape = net.in_shapes(layer.id).next()?;
        Some(ConvDims::new(in_shape, spec, layer.out_shape))
    }

    /// Builds dimensions from explicit shapes.
    pub fn new(input: Shape4, spec: ConvSpec, output: Shape4) -> ConvDims {
        ConvDims {
            batch: input.n,
            in_c: input.c,
            in_h: input.h,
            in_w: input.w,
            out_c: output.c,
            out_h: output.h,
            out_w: output.w,
            kernel: spec.kernel,
            stride: spec.stride,
            pad: spec.pad,
        }
    }

    /// Input feature-map elements per image.
    pub fn ifm_elems(&self) -> u64 {
        (self.in_c * self.in_h * self.in_w) as u64
    }

    /// Output feature-map elements per image.
    pub fn ofm_elems(&self) -> u64 {
        (self.out_c * self.out_h * self.out_w) as u64
    }

    /// Weight elements of the layer.
    pub fn weight_elems(&self) -> u64 {
        (self.out_c * self.in_c * self.kernel * self.kernel) as u64
    }

    /// Multiply-accumulates for the full batch.
    pub fn macs(&self) -> u64 {
        self.batch as u64 * self.ofm_elems() * (self.in_c * self.kernel * self.kernel) as u64
    }

    /// Input rows actually touched by output rows `[o0, o1)`, clipped to
    /// the real input extent. When the kernel covers the stride the touched
    /// set is one contiguous span; a kernel smaller than its stride skips
    /// rows, leaving disjoint pieces (the DMA fetches them with a strided
    /// 2-D descriptor, so skipped rows are never transferred). A window
    /// that starts past the input (an output extent too large for the
    /// stride) touches no rows.
    fn in_span(&self, o0: usize, o1: usize, in_extent: usize) -> u64 {
        debug_assert!(o0 < o1);
        let clip = |a0: usize, a1: usize| -> u64 {
            let lo = (a0 * self.stride) as isize - self.pad as isize;
            let hi = ((a1 - 1) * self.stride + self.kernel) as isize - self.pad as isize;
            let lo = lo.max(0) as usize;
            let hi = (hi.max(0) as usize).min(in_extent);
            hi.saturating_sub(lo) as u64
        };
        if self.kernel >= self.stride {
            clip(o0, o1)
        } else {
            (o0..o1).map(|o| clip(o, o + 1)).sum()
        }
    }

    /// Total input elements fetched when the output is processed in
    /// `tr × tc` spatial tiles: halo rows/columns are re-fetched at tile
    /// boundaries. Separable in rows × columns.
    pub fn halo_expanded_ifm_elems(&self, tr: usize, tc: usize) -> u64 {
        let rows: u64 = (0..self.out_h)
            .step_by(tr.max(1))
            .map(|o0| self.in_span(o0, (o0 + tr).min(self.out_h), self.in_h))
            .sum();
        let cols: u64 = (0..self.out_w)
            .step_by(tc.max(1))
            .map(|o0| self.in_span(o0, (o0 + tc).min(self.out_w), self.in_w))
            .sum();
        rows * cols * self.in_c as u64
    }
}

/// Loop-order choice of the tiled schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum LoopOrder {
    /// Spatial tiles outermost; inputs fetched once, weights re-streamed.
    InputStationary,
    /// Output-channel groups outermost; weights fetched once, inputs
    /// re-streamed.
    WeightStationary,
}

/// Buffer capacities available to the per-layer schedule, in bytes.
///
/// For the baseline these are the halves of the fixed double buffers; for
/// Shortcut Mining they are whatever the controller granted the streaming
/// logical buffers for this layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct TileCaps {
    /// Capacity for streaming input tiles.
    pub ifm_bytes: u64,
    /// Capacity for collecting output tiles.
    pub ofm_bytes: u64,
    /// Capacity for one weight tile (half the weight buffer).
    pub weight_tile_bytes: u64,
    /// Full weight-buffer capacity (for whole-layer weight residency).
    pub weight_total_bytes: u64,
}

/// A chosen tiling plus the DRAM traffic it implies for the whole batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TilePlan {
    /// Output channels in parallel.
    pub tm: usize,
    /// Input channels in parallel.
    pub tn: usize,
    /// Output tile rows.
    pub tr: usize,
    /// Output tile columns.
    pub tc: usize,
    /// Loop order.
    pub order: LoopOrder,
    /// Spatial tiles per image.
    pub spatial_tiles: u64,
    /// Input bytes fetched from DRAM for the whole batch.
    pub ifm_dram_bytes: u64,
    /// Weight bytes fetched from DRAM for the whole batch.
    pub weight_dram_bytes: u64,
    /// Output bytes written to DRAM for the whole batch.
    pub ofm_dram_bytes: u64,
    /// Whether the whole input feature map fits in the input capacity.
    pub ifm_resident: bool,
    /// Whether the whole layer's weights fit in the weight buffer.
    pub weights_resident: bool,
}

impl TilePlan {
    /// Total DRAM traffic of the plan.
    pub fn total_dram_bytes(&self) -> u64 {
        self.ifm_dram_bytes + self.weight_dram_bytes + self.ofm_dram_bytes
    }
}

fn tiles(total: usize, tile: usize) -> u64 {
    (total.div_ceil(tile.max(1))) as u64
}

/// Plans a convolution: largest feasible square-ish spatial tile, then the
/// loop order with less DRAM traffic.
///
/// `pe_rows`/`pe_cols` bound the channel unrolls; `elem_bytes` is the
/// datatype width. The returned plan always satisfies the capacity
/// constraints (the spatial tile degenerates to 1×1 in the worst case; the
/// channel unrolls shrink only if even a 1×1 tile cannot fit).
///
/// # Example
///
/// ```
/// use sm_accel::tiling::{plan_conv, ConvDims, TileCaps};
///
/// let dims = ConvDims {
///     batch: 1, in_c: 64, in_h: 56, in_w: 56,
///     out_c: 64, out_h: 56, out_w: 56,
///     kernel: 3, stride: 1, pad: 1,
/// };
/// let caps = TileCaps {
///     ifm_bytes: 64 << 10, ofm_bytes: 64 << 10,
///     weight_tile_bytes: 128 << 10, weight_total_bytes: 256 << 10,
/// };
/// let plan = plan_conv(dims, caps, 64, 64, 2);
/// // The output is always written exactly once.
/// assert_eq!(plan.ofm_dram_bytes, 64 * 56 * 56 * 2);
/// ```
pub fn plan_conv(
    dims: ConvDims,
    caps: TileCaps,
    pe_rows: usize,
    pe_cols: usize,
    elem_bytes: u64,
) -> TilePlan {
    let mut tm = pe_rows.min(dims.out_c).max(1);
    let mut tn = pe_cols.min(dims.in_c).max(1);

    // Shrink channel unrolls until a 1x1 output tile fits at all.
    loop {
        let ifm_min = (tn * dims.kernel * dims.kernel) as u64 * elem_bytes;
        let ofm_min = tm as u64 * elem_bytes;
        let w_min = (tm * tn * dims.kernel * dims.kernel) as u64 * elem_bytes;
        if (ifm_min <= caps.ifm_bytes
            && ofm_min <= caps.ofm_bytes
            && w_min <= caps.weight_tile_bytes)
            || (tm == 1 && tn == 1)
        {
            break;
        }
        if tm >= tn && tm > 1 {
            tm /= 2;
        } else if tn > 1 {
            tn /= 2;
        }
    }

    // Choose the spatial tile shape by searching halving candidates of the
    // tile width, taking for each the tallest feasible tile, and keeping the
    // shape with the least halo-expanded input traffic (tie-break: more
    // outputs per tile, fewer weight re-streams). The candidate set depends
    // only on the output extent, so growing the buffers can only improve
    // the chosen plan.
    let fits = |tr: usize, tc: usize| -> bool {
        let in_rows = ((tr - 1) * dims.stride + dims.kernel) as u64;
        let in_cols = ((tc - 1) * dims.stride + dims.kernel) as u64;
        let ifm_tile = tn as u64 * in_rows * in_cols * elem_bytes;
        let ofm_tile = (tm * tr * tc) as u64 * elem_bytes;
        ifm_tile <= caps.ifm_bytes && ofm_tile <= caps.ofm_bytes
    };
    let mut best: Option<(usize, usize, u64)> = None;
    let mut tc_cand = dims.out_w;
    loop {
        let mut tr_cand = dims.out_h;
        while tr_cand > 1 && !fits(tr_cand, tc_cand) {
            tr_cand = tr_cand.div_ceil(2);
        }
        if fits(tr_cand, tc_cand) {
            let halo = dims.halo_expanded_ifm_elems(tr_cand, tc_cand);
            let better = match best {
                None => true,
                Some((br, bc, bh)) => halo < bh || (halo == bh && tr_cand * tc_cand > br * bc),
            };
            if better {
                best = Some((tr_cand, tc_cand, halo));
            }
        }
        if tc_cand == 1 {
            break;
        }
        tc_cand = tc_cand.div_ceil(2);
    }
    let (tr, tc) = best.map_or((1, 1), |(r, c, _)| (r, c));

    let spatial_tiles = tiles(dims.out_h, tr) * tiles(dims.out_w, tc);
    let m_groups = tiles(dims.out_c, tm);
    let batch = dims.batch as u64;

    let ifm_bytes_full = dims.ifm_elems() * elem_bytes;
    let w_bytes = dims.weight_elems() * elem_bytes;
    let ofm_bytes = dims.ofm_elems() * elem_bytes * batch;
    let halo_bytes = dims.halo_expanded_ifm_elems(tr, tc) * elem_bytes;
    // A single pass fetches only the *touched* input elements (a strided
    // kernel smaller than its stride skips rows/columns entirely); this is
    // the single-tile halo, and per-tile halos only add to it.
    let touched_bytes = dims.halo_expanded_ifm_elems(dims.out_h, dims.out_w) * elem_bytes;

    let ifm_resident = ifm_bytes_full <= caps.ifm_bytes;
    let weights_resident = w_bytes <= caps.weight_total_bytes;

    // Input-stationary: inputs once (touched set when resident, halo-expanded
    // tiles otherwise), weights once if resident, else once per spatial tile.
    let is_ifm = if ifm_resident {
        touched_bytes
    } else {
        halo_bytes
    } * batch;
    let is_w = if weights_resident {
        w_bytes
    } else {
        w_bytes * spatial_tiles * batch
    };

    // Weight-stationary: weights once (per image if they must be
    // re-streamed), inputs once per output-channel group unless resident.
    let ws_ifm = if ifm_resident {
        touched_bytes * batch
    } else {
        halo_bytes * m_groups * batch
    };
    let ws_w = if weights_resident {
        w_bytes
    } else {
        w_bytes * batch
    };

    let (order, ifm_dram_bytes, weight_dram_bytes) = if is_ifm + is_w <= ws_ifm + ws_w {
        (LoopOrder::InputStationary, is_ifm, is_w)
    } else {
        (LoopOrder::WeightStationary, ws_ifm, ws_w)
    };

    TilePlan {
        tm,
        tn,
        tr,
        tc,
        order,
        spatial_tiles,
        ifm_dram_bytes,
        weight_dram_bytes,
        ofm_dram_bytes: ofm_bytes,
        ifm_resident,
        weights_resident,
    }
}

/// Cache key: everything [`plan_conv`] is a pure function of (17 words).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    dims: ConvDims,
    caps: TileCaps,
    pe_rows: usize,
    pe_cols: usize,
    elem_bytes: u64,
}

/// Multiplier of [`fold`]: odd, with well-mixed bits (the 64-bit golden
/// ratio).
const FOLD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Folded multiply: the low half of `x · FOLD_MUL` XOR its high half.
fn fold(x: u64) -> u64 {
    let product = u128::from(x) * u128::from(FOLD_MUL);
    (product as u64) ^ ((product >> 64) as u64)
}

/// Seeds [`PlanHasher`]s: one random seed per process, drawn from std's
/// `RandomState`, so the memo stays keyed against crafted shapes.
#[derive(Debug, Clone, Copy)]
struct PlanHashState {
    seed: u64,
}

impl PlanHashState {
    fn random() -> Self {
        PlanHashState {
            seed: RandomState::new().hash_one(0u64),
        }
    }
}

impl BuildHasher for PlanHashState {
    type Hasher = PlanHasher;

    fn build_hasher(&self) -> PlanHasher {
        PlanHasher { state: self.seed }
    }
}

/// The memo's hasher, a keyed folded multiply in the style of foldhash:
/// each word is mixed in as `fold(state ^ word)`, and `finish` folds once
/// more so that a difference in the high half of the last word still
/// reaches the low bits the table indexes by.
#[derive(Debug, Clone, Copy)]
struct PlanHasher {
    state: u64,
}

impl Hasher for PlanHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.state = fold(self.state ^ word);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        fold(self.state)
    }
}

type PlanMemo = HashMap<PlanKey, TilePlan, PlanHashState>;

/// Most plans [`plan_conv_cached`] keeps; an insert into a full memo
/// clears it first. Regenerating every figure inserts about 4,000 plans,
/// so only a long-running `smctl serve` that keeps sweeping new
/// capacities reaches the bound. A full memo takes about 27 MB: 208-byte
/// entries in a table of 131,072 buckets.
pub const PLAN_CACHE_MAX_PLANS: usize = 65_536;

static PLAN_CACHE: OnceLock<RwLock<PlanMemo>> = OnceLock::new();
static PLAN_HITS: AtomicU64 = AtomicU64::new(0);
static PLAN_MISSES: AtomicU64 = AtomicU64::new(0);

fn plan_cache() -> &'static RwLock<PlanMemo> {
    PLAN_CACHE.get_or_init(|| RwLock::new(HashMap::with_hasher(PlanHashState::random())))
}

/// Memoized [`plan_conv`]: identical `(dims, caps, pe_rows, pe_cols,
/// elem_bytes)` queries return the cached plan instead of re-running the
/// tile search.
///
/// The planner is a pure function of its arguments, so the cache is safe to
/// share process-wide — the baseline accelerator, the fused-chain estimator
/// and the Shortcut Mining simulator all consult the same map, and repeated
/// sweep points (a capacity sweep re-visits every other layer of a network
/// unchanged) stop paying for the design-space exploration. The cache is
/// thread-safe; parallel sweep workers share it, and it holds at most
/// [`PLAN_CACHE_MAX_PLANS`] plans.
///
/// The memo hashes its 17-word key with a folded multiply seeded once per
/// process, not std's SipHash: a hit costs about a third as much. It stays
/// keyed because ingested graph documents reach it, and an unkeyed hash
/// would let crafted shapes force collisions.
pub fn plan_conv_cached(
    dims: ConvDims,
    caps: TileCaps,
    pe_rows: usize,
    pe_cols: usize,
    elem_bytes: u64,
) -> TilePlan {
    let key = PlanKey {
        dims,
        caps,
        pe_rows,
        pe_cols,
        elem_bytes,
    };
    let cache = plan_cache();
    if let Some(plan) = cache.read().expect("plan cache poisoned").get(&key) {
        PLAN_HITS.fetch_add(1, Ordering::Relaxed);
        return *plan;
    }
    PLAN_MISSES.fetch_add(1, Ordering::Relaxed);
    let plan = plan_conv(dims, caps, pe_rows, pe_cols, elem_bytes);
    let mut memo = cache.write().expect("plan cache poisoned");
    if memo.len() >= PLAN_CACHE_MAX_PLANS {
        memo.clear();
    }
    memo.insert(key, plan);
    plan
}

/// `(hits, misses)` observed by [`plan_conv_cached`] since process start
/// (or the last [`plan_cache_clear`]).
pub fn plan_cache_stats() -> (u64, u64) {
    (
        PLAN_HITS.load(Ordering::Relaxed),
        PLAN_MISSES.load(Ordering::Relaxed),
    )
}

/// Empties the plan cache and resets the hit/miss counters (benchmarks use
/// this to measure the cold path).
pub fn plan_cache_clear() {
    plan_cache().write().expect("plan cache poisoned").clear();
    PLAN_HITS.store(0, Ordering::Relaxed);
    PLAN_MISSES.store(0, Ordering::Relaxed);
}

/// Handle-based view of the plan-cache counters: captures the totals at
/// creation so [`PlanCacheSnapshot::delta`] reports only the hits and
/// misses observed *since*, without resetting the process-global counters.
///
/// This is the scoped alternative to the [`plan_cache_stats`] +
/// [`plan_cache_clear`] pattern: clearing is destructive (it empties the
/// memo and zeroes every other observer's baseline), so concurrent
/// observers — e.g. service requests sharing one process — each take their
/// own snapshot and read their own delta without smearing each other.
#[derive(Debug, Clone, Copy)]
pub struct PlanCacheSnapshot {
    hits: u64,
    misses: u64,
}

impl PlanCacheSnapshot {
    /// Captures the current process-global counters as the baseline.
    pub fn take() -> PlanCacheSnapshot {
        let (hits, misses) = plan_cache_stats();
        PlanCacheSnapshot { hits, misses }
    }

    /// `(hits, misses)` accrued since this snapshot was taken.
    pub fn delta(&self) -> (u64, u64) {
        let (hits, misses) = plan_cache_stats();
        (
            hits.saturating_sub(self.hits),
            misses.saturating_sub(self.misses),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims_56x56() -> ConvDims {
        // A ResNet-34 conv2_x layer: 64 -> 64 channels, 56x56, 3x3 s1 p1.
        ConvDims {
            batch: 1,
            in_c: 64,
            in_h: 56,
            in_w: 56,
            out_c: 64,
            out_h: 56,
            out_w: 56,
            kernel: 3,
            stride: 1,
            pad: 1,
        }
    }

    fn big_caps() -> TileCaps {
        TileCaps {
            ifm_bytes: 1 << 20,
            ofm_bytes: 1 << 20,
            weight_tile_bytes: 256 << 10,
            weight_total_bytes: 512 << 10,
        }
    }

    #[test]
    fn resident_input_is_read_once() {
        let plan = plan_conv(dims_56x56(), big_caps(), 64, 64, 2);
        assert!(plan.ifm_resident);
        assert_eq!(plan.ifm_dram_bytes, 64 * 56 * 56 * 2);
        assert!(plan.weights_resident);
        assert_eq!(plan.weight_dram_bytes, 64 * 64 * 9 * 2);
        assert_eq!(plan.ofm_dram_bytes, 64 * 56 * 56 * 2);
    }

    #[test]
    fn tiny_buffers_force_tiling_with_halo_overhead() {
        let caps = TileCaps {
            ifm_bytes: 16 << 10,
            ofm_bytes: 16 << 10,
            weight_tile_bytes: 16 << 10,
            weight_total_bytes: 32 << 10,
        };
        let plan = plan_conv(dims_56x56(), caps, 64, 64, 2);
        assert!(!plan.ifm_resident);
        assert!(plan.spatial_tiles > 1);
        // Halo makes the streamed input strictly exceed the raw input.
        assert!(plan.ifm_dram_bytes > 64 * 56 * 56 * 2);
        // The constraints hold for the chosen tile.
        let in_rows = ((plan.tr - 1) + 3) as u64;
        let in_cols = ((plan.tc - 1) + 3) as u64;
        assert!(plan.tn as u64 * in_rows * in_cols * 2 <= caps.ifm_bytes);
        assert!((plan.tm * plan.tr * plan.tc) as u64 * 2 <= caps.ofm_bytes);
    }

    #[test]
    fn windows_past_the_input_touch_nothing() {
        // At stride 2-4 a 56x56 output is too large for a 56x56 input: the
        // last output rows' windows start past the input and touch no
        // rows, so no tile fetches more than the whole input.
        let tight = TileCaps {
            ifm_bytes: 16 << 10,
            ofm_bytes: 16 << 10,
            weight_tile_bytes: 16 << 10,
            weight_total_bytes: 32 << 10,
        };
        for stride in 2..=4 {
            let d = ConvDims {
                stride,
                ..dims_56x56()
            };
            for caps in [big_caps(), tight] {
                let plan = plan_conv(d, caps, 64, 64, 2);
                for (tr, tc) in [(plan.tr, plan.tc), (1, 1), (7, 5), (56, 56)] {
                    let rows = d.out_h.div_ceil(tr) * d.in_h;
                    let cols = d.out_w.div_ceil(tc) * d.in_w;
                    let bound = (rows * cols * d.in_c) as u64;
                    let elems = d.halo_expanded_ifm_elems(tr, tc);
                    assert!(elems <= bound, "stride {stride}, {tr}x{tc}: {elems}");
                }
            }
        }
    }

    #[test]
    fn halo_expansion_is_exact_for_whole_fm_tile() {
        let d = dims_56x56();
        // One tile covering everything: the halo-expanded fetch equals the
        // full input feature map (padding contributes nothing).
        assert_eq!(d.halo_expanded_ifm_elems(56, 56), d.ifm_elems());
        // 28x28 tiles: each of the 2x2 tiles reads (28+2)-ish rows/cols with
        // clipping at the borders: rows = (0..28 -> 29) + (28..56 -> 29).
        assert_eq!(d.halo_expanded_ifm_elems(28, 28), 58 * 58 * 64);
    }

    #[test]
    fn strided_conv_halo() {
        let d = ConvDims {
            batch: 1,
            in_c: 3,
            in_h: 224,
            in_w: 224,
            out_c: 64,
            out_h: 112,
            out_w: 112,
            kernel: 7,
            stride: 2,
            pad: 3,
        };
        // Full-FM tile reads exactly the input once.
        assert_eq!(d.halo_expanded_ifm_elems(112, 112), d.ifm_elems());
        assert_eq!(d.macs(), 64 * 112 * 112 * 3 * 49);
    }

    #[test]
    fn loop_order_tracks_traffic_balance() {
        // FM-heavy layer with weights that fit: input-stationary or
        // weight-stationary are equal-cost on inputs; the planner must not
        // multiply weight traffic.
        let plan = plan_conv(dims_56x56(), big_caps(), 16, 16, 2);
        assert_eq!(plan.weight_dram_bytes, 64 * 64 * 9 * 2);

        // Weight-heavy layer (non-resident weights, several spatial tiles,
        // small input): re-streaming weights per spatial tile would be far
        // worse than re-streaming the input per channel group, so
        // weight-stationary wins.
        let d = ConvDims {
            batch: 1,
            in_c: 512,
            in_h: 14,
            in_w: 14,
            out_c: 512,
            out_h: 14,
            out_w: 14,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let caps = TileCaps {
            ifm_bytes: 8 << 10,
            ofm_bytes: 8 << 10,
            weight_tile_bytes: 64 << 10,
            weight_total_bytes: 128 << 10,
        };
        let plan = plan_conv(d, caps, 64, 64, 2);
        assert!(plan.spatial_tiles > 1);
        assert!(!plan.weights_resident);
        assert_eq!(plan.order, LoopOrder::WeightStationary);
        assert_eq!(plan.weight_dram_bytes, d.weight_elems() * 2);
        // The input is re-streamed once per output-channel group.
        assert!(plan.ifm_dram_bytes >= d.ifm_elems() * 2 * (512 / 64));
    }

    #[test]
    fn batch_scales_fm_traffic_not_resident_weights() {
        let mut d = dims_56x56();
        d.batch = 4;
        let plan = plan_conv(d, big_caps(), 64, 64, 2);
        assert_eq!(plan.ofm_dram_bytes, 4 * 64 * 56 * 56 * 2);
        assert_eq!(plan.ifm_dram_bytes, 4 * 64 * 56 * 56 * 2);
        assert_eq!(plan.weight_dram_bytes, 64 * 64 * 9 * 2);
    }

    #[test]
    fn degenerate_capacity_still_produces_a_legal_plan() {
        let caps = TileCaps {
            ifm_bytes: 64,
            ofm_bytes: 64,
            weight_tile_bytes: 64,
            weight_total_bytes: 64,
        };
        let plan = plan_conv(dims_56x56(), caps, 64, 64, 2);
        assert!(plan.tm >= 1 && plan.tn >= 1);
        assert!(plan.tr >= 1 && plan.tc >= 1);
        let w_tile = (plan.tm * plan.tn * 9) as u64 * 2;
        assert!(w_tile <= 64 || (plan.tm == 1 && plan.tn == 1));
    }

    #[test]
    fn conv_dims_macs_agree_with_layer_macs() {
        // Two independent MAC counters (layer IR vs conv dims) must agree
        // on every convolution of a real network.
        let net = sm_model::zoo::resnet50(2);
        for layer in net.layers() {
            if let Some(d) = ConvDims::from_layer(&net, layer) {
                assert_eq!(
                    d.macs(),
                    layer.macs(net.in_shapes(layer.id)),
                    "{}",
                    layer.name
                );
            }
        }
    }

    #[test]
    fn cached_plan_equals_uncached_plan() {
        // Exercise distinct keys (dims × caps) and re-query each: the
        // cached result must be exactly the planner's, hit or miss.
        let caps_a = big_caps();
        let caps_b = TileCaps {
            ifm_bytes: 16 << 10,
            ofm_bytes: 16 << 10,
            weight_tile_bytes: 16 << 10,
            weight_total_bytes: 32 << 10,
        };
        for caps in [caps_a, caps_b] {
            for batch in [1usize, 2, 4] {
                let mut d = dims_56x56();
                d.batch = batch;
                let direct = plan_conv(d, caps, 64, 64, 2);
                assert_eq!(plan_conv_cached(d, caps, 64, 64, 2), direct);
                assert_eq!(plan_conv_cached(d, caps, 64, 64, 2), direct, "warm");
            }
        }
        let (hits, misses) = plan_cache_stats();
        assert!(hits >= 6, "every re-query must hit: {hits}");
        assert!(misses >= 6 || hits > 6, "first queries miss: {misses}");
    }

    /// The 17 words of a key, in field order: a 3x3 convolution with
    /// 56x56 outputs at the default PE geometry, over an input large
    /// enough that any one word can grow by 255 and every output row still
    /// reads inside it (the planner assumes consistent shapes).
    fn base_words() -> [u64; 17] {
        let (c, d) = (big_caps(), dims_56x56());
        let d = ConvDims {
            in_h: 1 << 14,
            in_w: 1 << 14,
            ..d
        };
        [
            d.batch as u64,
            d.in_c as u64,
            d.in_h as u64,
            d.in_w as u64,
            d.out_c as u64,
            d.out_h as u64,
            d.out_w as u64,
            d.kernel as u64,
            d.stride as u64,
            d.pad as u64,
            c.ifm_bytes,
            c.ofm_bytes,
            c.weight_tile_bytes,
            c.weight_total_bytes,
            64,
            64,
            2,
        ]
    }

    fn key_of(w: [u64; 17]) -> PlanKey {
        let u = |i: usize| w[i] as usize;
        PlanKey {
            dims: ConvDims {
                batch: u(0),
                in_c: u(1),
                in_h: u(2),
                in_w: u(3),
                out_c: u(4),
                out_h: u(5),
                out_w: u(6),
                kernel: u(7),
                stride: u(8),
                pad: u(9),
            },
            caps: TileCaps {
                ifm_bytes: w[10],
                ofm_bytes: w[11],
                weight_tile_bytes: w[12],
                weight_total_bytes: w[13],
            },
            pe_rows: u(14),
            pe_cols: u(15),
            elem_bytes: w[16],
        }
    }

    /// Keys that differ from the base key only in `word`, by `i << shift`
    /// for `i` in `0..count`.
    fn keys_varying(word: usize, shift: u32, count: u64) -> impl Iterator<Item = PlanKey> {
        (0..count).map(move |i| {
            let mut w = base_words();
            w[word] = w[word].wrapping_add(i << shift);
            key_of(w)
        })
    }

    #[test]
    fn memo_hash_spreads_every_key_word_like_a_random_hash() {
        // 16,384 keys into 16,384 buckets (the low 14 bits): a random hash
        // fills 1 - (1 - 1/n)^n of them, about 10,360.
        const KEYS: u64 = 1 << 14;
        let n = KEYS as f64;
        let random_fill = n * (1.0 - (1.0 - 1.0 / n).powf(n));
        for seed in [0, 0x0123_4567_89ab_cdef] {
            let state = PlanHashState { seed };
            for word in 0..17 {
                for shift in [0, 32] {
                    let mut filled = vec![false; KEYS as usize];
                    for key in keys_varying(word, shift, KEYS) {
                        filled[(state.hash_one(key) % KEYS) as usize] = true;
                    }
                    let filled = filled.iter().filter(|&&f| f).count();
                    assert!(
                        filled as f64 >= 0.9 * random_fill,
                        "seed {seed:#x}, word {word}, shift {shift}: {filled} buckets filled, \
                         a random hash fills {random_fill:.0}"
                    );
                }
            }
        }
    }

    #[test]
    fn memo_hash_depends_on_the_seed() {
        let key = key_of(base_words());
        let hash = |seed| PlanHashState { seed }.hash_one(key);
        assert_ne!(hash(1), hash(2));
        assert_eq!(hash(1), hash(1));
    }

    #[test]
    fn memo_returns_the_planner_result_for_every_varied_key() {
        // The `i << 32` key sets overflow the planner's arithmetic, so the
        // memo is checked on the first 256 keys of each `i` set: a miss,
        // then a hit, must both equal the planner.
        for word in 0..17 {
            for key in keys_varying(word, 0, 256) {
                let PlanKey {
                    dims,
                    caps,
                    pe_rows,
                    pe_cols,
                    elem_bytes,
                } = key;
                let direct = plan_conv(dims, caps, pe_rows, pe_cols, elem_bytes);
                for _ in 0..2 {
                    let cached = plan_conv_cached(dims, caps, pe_rows, pe_cols, elem_bytes);
                    assert_eq!(cached, direct, "word {word}: {key:?}");
                }
            }
        }
    }

    #[test]
    fn from_layer_extracts_conv_dims() {
        let net = sm_model::zoo::resnet34(1);
        let layer = net.layer_by_name("conv1").unwrap();
        let d = ConvDims::from_layer(&net, layer).unwrap();
        assert_eq!(d.in_c, 3);
        assert_eq!(d.out_c, 64);
        assert_eq!(d.out_h, 112);
        let pool = net.layer_by_name("pool1").unwrap();
        assert!(ConvDims::from_layer(&net, pool).is_none());
    }
}
