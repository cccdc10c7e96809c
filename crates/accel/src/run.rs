//! The simulator core every architecture shares.
//!
//! The paper's comparison is fair only if the baseline and Shortcut Mining
//! plan each layer the same way, so that every traffic difference comes
//! from cross-layer reuse alone. [`layer_work`] is that one per-layer cost
//! model (tile plan, compute cycles, weight traffic); each simulator adds
//! only its own feature-map traffic rule. [`RunBuilder`] is the one roll-up
//! of per-layer traffic into the ledger, the cycle model and the reports.

use sm_buffer::BufferStats;
use sm_mem::{ClassTotals, DramModel, Ledger, TrafficClass};
use sm_model::{Layer, LayerId, LayerKind, Network};

use crate::cycles::{
    conv_compute_cycles, dram_cycles, fc_compute_cycles, vector_compute_cycles, LayerCycles,
};
use crate::tiling::{plan_conv_cached, ConvDims, TileCaps, TilePlan};
use crate::{AccelConfig, AccelError, FaultStats, LayerPerfSummary, LayerReport, RunStats};

/// The architecture-independent cost of one layer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerWork {
    /// Cycles of arithmetic on the PE array.
    pub compute_cycles: u64,
    /// Weight bytes streamed from DRAM.
    pub weight_bytes: u64,
    /// The tile plan of a convolution; `None` for every other kind.
    pub plan: Option<TilePlan>,
}

impl LayerWork {
    /// DRAM bytes of reading operand `op` of `layer` in full: a
    /// convolution's input at its tile plan's streaming cost (halo and
    /// channel-group re-reads), any other operand once.
    pub fn operand_bytes(&self, net: &Network, layer: &Layer, op: usize, elem: u64) -> u64 {
        match (op, &self.plan) {
            (0, Some(plan)) => plan.ifm_dram_bytes,
            _ => net.layer(layer.inputs[op]).out_elems() as u64 * elem,
        }
    }
}

/// Plans one layer of `net` with tile capacities `caps` (see
/// [`AccelConfig::tile_caps`]): its compute cycles, its weight traffic, and
/// for a convolution the tile plan behind both.
///
/// Fully-connected weights that fit the weight buffer are fetched once per
/// batch; larger ones stream once per image.
///
/// # Errors
///
/// [`AccelError::NotConv`] when a convolution's dimensions cannot be
/// derived from the network.
pub fn layer_work(
    cfg: &AccelConfig,
    net: &Network,
    layer: &Layer,
    caps: TileCaps,
) -> Result<LayerWork, AccelError> {
    let elem = cfg.elem_bytes;
    let lanes = cfg.pe_rows * cfg.pe_cols;
    let work = |compute_cycles, weight_bytes| LayerWork {
        compute_cycles,
        weight_bytes,
        plan: None,
    };
    Ok(match layer.kind {
        LayerKind::Input | LayerKind::ConcatChannels => LayerWork::default(),
        LayerKind::Conv(_) => {
            let dims = ConvDims::from_layer(net, layer).ok_or_else(|| AccelError::NotConv {
                layer: layer.name.clone(),
            })?;
            let plan = plan_conv_cached(dims, caps, cfg.pe_rows, cfg.pe_cols, elem);
            LayerWork {
                compute_cycles: conv_compute_cycles(dims, plan.tm, plan.tn),
                weight_bytes: plan.weight_dram_bytes,
                plan: Some(plan),
            }
        }
        LayerKind::DepthwiseConv(spec) => {
            // One filter per channel: only the PE rows parallelize
            // (channels); the column dimension idles — the well-known poor
            // utilization of depthwise layers on MAC arrays.
            let in_shape = net.layer(layer.inputs[0]).out_shape;
            work(
                in_shape.n as u64
                    * in_shape.c.div_ceil(cfg.pe_rows) as u64
                    * (layer.out_shape.h * layer.out_shape.w) as u64
                    * (spec.kernel * spec.kernel) as u64,
                (in_shape.c * spec.kernel * spec.kernel) as u64 * elem,
            )
        }
        LayerKind::Pool(spec) => work(
            vector_compute_cycles(
                layer.out_elems() as u64 * (spec.kernel * spec.kernel) as u64,
                lanes,
            ),
            0,
        ),
        LayerKind::GlobalAvgPool => work(
            vector_compute_cycles(net.layer(layer.inputs[0]).out_elems() as u64, lanes),
            0,
        ),
        LayerKind::Fc { out_features } => {
            let in_shape = net.layer(layer.inputs[0]).out_shape;
            let in_features = in_shape.per_image();
            let batch = in_shape.n;
            let w_bytes = (out_features * in_features) as u64 * elem;
            let passes = if w_bytes <= cfg.sram.weight_bytes {
                1
            } else {
                batch as u64
            };
            work(
                fc_compute_cycles(batch, in_features, out_features, cfg.pe_rows, cfg.pe_cols),
                w_bytes * passes,
            )
        }
        LayerKind::EltwiseAdd { .. } => {
            work(vector_compute_cycles(layer.out_elems() as u64, lanes), 0)
        }
    })
}

/// Class of an operand read from DRAM: a producer that is not the
/// consumer's immediate predecessor makes it a shortcut re-read.
pub fn read_class(producer: LayerId, consumer: LayerId) -> TrafficClass {
    if producer.index() + 1 < consumer.index() {
        TrafficClass::ShortcutRead
    } else {
        TrafficClass::IfmRead
    }
}

/// What injected faults add to one layer on top of its fault-free cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCost {
    /// Feature-map bytes re-transferred (already in the layer's `Retry`
    /// traffic; this only routes them to the feature-map channel).
    pub fm_retry_bytes: u64,
    /// Weight bytes re-transferred, routed to the weight channel.
    pub weight_retry_bytes: u64,
    /// Extra PE-array cycles: recomputed lanes and replayed layers.
    pub compute_cycles: u64,
    /// Extra pipeline cycles: retry backoff, ECC checks, rebuild stalls.
    pub stall_cycles: u64,
}

/// Rolls per-layer traffic up into one [`RunStats`]: fills the ledger,
/// applies the double-buffered cycle model, sums the totals and writes one
/// [`LayerReport`] per layer.
#[derive(Debug)]
pub struct RunBuilder<'a> {
    cfg: AccelConfig,
    net: &'a Network,
    fm_dram: DramModel,
    weight_dram: DramModel,
    ledger: Ledger,
    layers: Vec<LayerReport>,
    total_cycles: u64,
    macs: u64,
}

impl<'a> RunBuilder<'a> {
    /// Starts an empty run of `net` on `cfg`.
    pub fn new(cfg: &AccelConfig, net: &'a Network) -> Self {
        RunBuilder {
            cfg: *cfg,
            net,
            fm_dram: DramModel::new(cfg.fm_dram),
            weight_dram: DramModel::new(cfg.weight_dram),
            ledger: Ledger::new(),
            layers: Vec::with_capacity(net.len()),
            total_cycles: 0,
            macs: 0,
        }
    }

    /// Adds one layer: `compute_cycles` of arithmetic, `traffic` across
    /// the chip boundary (including any `Retry` bytes) and the extra work
    /// faults caused. Returns the layer's report so a caller can attach
    /// its own attribution.
    pub fn push(
        &mut self,
        layer: &Layer,
        compute_cycles: u64,
        traffic: ClassTotals,
        faults: FaultCost,
    ) -> &mut LayerReport {
        let id = layer.id.index();
        for class in TrafficClass::ALL {
            self.ledger.record(id, class, traffic.class(class));
        }
        let cycles = LayerCycles::combine(
            compute_cycles + faults.compute_cycles,
            dram_cycles(&self.fm_dram, traffic.feature_map() + faults.fm_retry_bytes),
            dram_cycles(
                &self.weight_dram,
                traffic.class(TrafficClass::WeightRead) + faults.weight_retry_bytes,
            ),
            self.cfg.layer_overhead + faults.stall_cycles,
        );
        self.total_cycles += cycles.total;
        let macs = layer.macs(self.net.in_shapes(layer.id));
        self.macs += macs;
        self.layers.push(LayerReport {
            id,
            name: layer.name.clone(),
            kind: layer.kind.mnemonic(),
            cycles,
            traffic,
            macs,
            perf: LayerPerfSummary::from_cycles(cycles),
        });
        self.layers.last_mut().expect("a report was just pushed")
    }

    /// The ledger of every layer pushed so far.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Seals the run. `buffer_stats` of `None` means the architecture keeps
    /// nothing on chip across layers, so its only SRAM activity is at the
    /// boundary: every byte entering or leaving DRAM passes through an
    /// on-chip buffer once.
    pub fn finish(
        self,
        architecture: &str,
        buffer_stats: Option<BufferStats>,
        faults: FaultStats,
    ) -> RunStats {
        let totals = self.ledger.totals();
        RunStats {
            network: self.net.name().to_string(),
            batch: self.net.input().out_shape.n,
            architecture: architecture.to_string(),
            total_cycles: self.total_cycles,
            macs: self.macs,
            ledger: self.ledger,
            layers: self.layers,
            buffer_stats: buffer_stats.unwrap_or(BufferStats {
                sram_bytes_written: totals.reads(),
                sram_bytes_read: totals.writes(),
                ..BufferStats::default()
            }),
            faults,
            clock_hz: self.cfg.clock_hz,
        }
    }
}
