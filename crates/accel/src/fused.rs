//! Fused-layer accelerator — the related-work alternative baseline.
//!
//! Layer-fusion accelerators (Alwani et al., MICRO 2016 lineage) evaluate
//! *chains* of adjacent layers in one pass: the intermediate feature map is
//! held in on-chip line buffers and never visits DRAM. This is the other
//! published answer to feature-map traffic — and the instructive contrast
//! with Shortcut Mining: fusion reuses **adjacent** maps only. A feature
//! map with a second, non-adjacent consumer (every shortcut source) ends a
//! fusion chain and still round-trips through DRAM, so residual and bypass
//! networks keep paying for their shortcut data.
//!
//! The model here is the line-buffer (recompute-free) variant, which is the
//! *optimistic* fusion design point: each fused boundary needs
//! `K_next × W × C` elements of line buffering for the producer's map, and
//! chains grow greedily while the line buffers fit in half the feature-map
//! SRAM (the other half streams the chain's external input/output). Being
//! optimistic for fusion makes the comparison conservative for Shortcut
//! Mining.

use sm_mem::{ClassTotals, TrafficClass};
use sm_model::{Layer, LayerId, LayerKind, Network};

use crate::run::{layer_work, read_class, FaultCost, RunBuilder};
use crate::{AccelConfig, AccelError, FaultStats, RunStats};

/// The fused-layer accelerator simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedLayerAccelerator {
    config: AccelConfig,
}

impl FusedLayerAccelerator {
    /// Creates the simulator.
    pub fn new(config: AccelConfig) -> Self {
        FusedLayerAccelerator { config }
    }

    /// The hardware configuration.
    pub fn config(&self) -> AccelConfig {
        self.config
    }

    /// Whether `layer` can sit in the *interior* of a fusion chain: a
    /// single-input conv/pool/depthwise whose output has exactly one
    /// consumer, scheduled immediately after it.
    fn fusible_interior(net: &Network, layer: &Layer) -> bool {
        let kind_ok = matches!(
            layer.kind,
            LayerKind::Conv(_) | LayerKind::Pool(_) | LayerKind::DepthwiseConv(_)
        );
        let consumers = net.consumers(layer.id);
        kind_ok
            && layer.inputs.len() == 1
            && consumers.len() == 1
            && consumers[0].index() == layer.id.index() + 1
    }

    /// Line-buffer bytes needed to fuse across `producer → consumer`: the
    /// consumer's kernel height worth of the producer's rows.
    fn line_buffer_bytes(net: &Network, producer: LayerId, consumer: &Layer, elem: u64) -> u64 {
        let p = net.layer(producer).out_shape;
        let k = match consumer.kind {
            LayerKind::Conv(s) => s.kernel,
            LayerKind::DepthwiseConv(s) => s.kernel,
            LayerKind::Pool(s) => s.kernel,
            _ => 1,
        };
        (k * p.w * p.c) as u64 * elem
    }

    /// Partitions the network into fusion chains (each a run of layer ids).
    pub fn fusion_chains(&self, net: &Network) -> Vec<Vec<LayerId>> {
        let elem = self.config.elem_bytes;
        let budget = self.config.sram.fm_bytes() / 2;
        let mut chains: Vec<Vec<LayerId>> = Vec::new();
        let mut current: Vec<LayerId> = Vec::new();
        let mut lines: u64 = 0;
        for layer in &net.layers()[1..] {
            if let Some(&last) = current.last() {
                let extra = Self::line_buffer_bytes(net, last, layer, elem);
                let extendable = Self::fusible_interior(net, net.layer(last))
                    && layer.inputs.len() == 1
                    && layer.inputs[0] == last
                    && matches!(
                        layer.kind,
                        LayerKind::Conv(_) | LayerKind::Pool(_) | LayerKind::DepthwiseConv(_)
                    )
                    && lines + extra <= budget;
                if extendable {
                    lines += extra;
                    current.push(layer.id);
                    continue;
                }
                chains.push(std::mem::take(&mut current));
                lines = 0;
            }
            current.push(layer.id);
        }
        if !current.is_empty() {
            chains.push(current);
        }
        chains
    }

    /// Simulates a full network.
    ///
    /// # Panics
    ///
    /// Panics on malformed networks; see
    /// [`FusedLayerAccelerator::try_simulate`] for the non-panicking variant.
    pub fn simulate(&self, net: &Network) -> RunStats {
        self.try_simulate(net).expect("well-formed network")
    }

    /// Simulates a full network, surfacing model preconditions as typed
    /// errors instead of panicking.
    ///
    /// # Errors
    ///
    /// [`AccelError::NotConv`] when a convolution layer's dimensions cannot
    /// be derived, [`AccelError::EmptyChain`] on an internal fusion bug.
    pub fn try_simulate(&self, net: &Network) -> Result<RunStats, AccelError> {
        let cfg = self.config;
        let elem = cfg.elem_bytes;
        let mut run = RunBuilder::new(&cfg, net);
        for chain in self.fusion_chains(net) {
            let head = *chain.first().ok_or(AccelError::EmptyChain)?;
            let tail = *chain.last().ok_or(AccelError::EmptyChain)?;
            for &lid in &chain {
                let layer = net.layer(lid);
                let work = layer_work(&cfg, net, layer, cfg.tile_caps())?;
                let mut traffic = ClassTotals::new();
                // Operand reads: only the chain head reads from DRAM;
                // interior layers consume line buffers. Non-chain operands
                // (junction shortcut inputs) always come from DRAM.
                for (op, &pid) in layer.inputs.iter().enumerate() {
                    if op == 0 && lid != head {
                        continue;
                    }
                    let bytes = work.operand_bytes(net, layer, op, elem);
                    traffic.record(read_class(pid, lid), bytes);
                }
                // Output write: only the chain tail reaches DRAM.
                if lid == tail {
                    traffic.record(TrafficClass::OfmWrite, layer.out_elems() as u64 * elem);
                }
                traffic.record(TrafficClass::WeightRead, work.weight_bytes);
                run.push(layer, work.compute_cycles, traffic, FaultCost::default());
            }
        }
        Ok(run.finish("fused-layer", None, FaultStats::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BaselineAccelerator;
    use sm_model::zoo;

    fn accel() -> FusedLayerAccelerator {
        FusedLayerAccelerator::new(AccelConfig::default())
    }

    #[test]
    fn chains_cover_every_layer_exactly_once() {
        for net in [
            zoo::resnet34(1),
            zoo::vgg16(1),
            zoo::squeezenet_v10_simple_bypass(1),
        ] {
            let chains = accel().fusion_chains(&net);
            let mut ids: Vec<usize> = chains
                .iter()
                .flat_map(|c| c.iter().map(|l| l.index()))
                .collect();
            ids.sort_unstable();
            let expect: Vec<usize> = (1..net.len()).collect();
            assert_eq!(ids, expect, "{}", net.name());
        }
    }

    #[test]
    fn shortcut_sources_terminate_chains() {
        // A shortcut source has two consumers, so no chain may contain a
        // shortcut source in its interior.
        let net = zoo::resnet34(1);
        let chains = accel().fusion_chains(&net);
        let sources = net.shortcut_sources();
        for chain in &chains {
            for &lid in &chain[..chain.len() - 1] {
                assert!(
                    !sources.contains(&lid),
                    "shortcut source {} fused past its fork",
                    net.layer(lid).name
                );
            }
        }
        // VGG (no shortcuts) fuses long chains; ResNet's chains are short.
        let vgg_max = accel()
            .fusion_chains(&zoo::vgg16(1))
            .iter()
            .map(Vec::len)
            .max()
            .unwrap();
        assert!(
            vgg_max >= 3,
            "vgg should fuse multi-layer chains: {vgg_max}"
        );
    }

    #[test]
    fn fusion_beats_baseline_but_not_shortcut_mining_on_resnet() {
        let cfg = AccelConfig::default();
        let net = zoo::resnet34(1);
        let base = BaselineAccelerator::new(cfg).simulate(&net);
        let fused = accel().simulate(&net);
        assert!(fused.fm_traffic_bytes() < base.fm_traffic_bytes());
        // Shortcut re-reads remain: fusion cannot keep shortcut data.
        assert!(fused.ledger.class_bytes(TrafficClass::ShortcutRead) > 0);
        assert_eq!(
            fused.ledger.class_bytes(TrafficClass::WeightRead),
            base.ledger.class_bytes(TrafficClass::WeightRead)
        );
    }

    #[test]
    fn fused_output_writes_only_at_chain_tails() {
        let net = zoo::vgg16(1);
        let fused = accel().simulate(&net);
        let chains = accel().fusion_chains(&net);
        let writes = fused
            .layers
            .iter()
            .filter(|l| l.traffic.class(TrafficClass::OfmWrite) > 0)
            .count();
        assert_eq!(writes, chains.len());
    }
}
