use sm_mem::{ClassTotals, TrafficClass};
use sm_model::{Layer, LayerKind, Network};

use crate::run::{layer_work, read_class, FaultCost, LayerWork, RunBuilder};
use crate::{AccelConfig, AccelError, FaultStats, RunStats};

/// The conventional fixed-buffer accelerator — the paper's comparison point.
///
/// Every layer streams its inputs from DRAM and its output back to DRAM;
/// nothing survives a layer boundary on chip. Two junction behaviours are
/// modeled:
///
/// * **Unfused junctions** (default — the paper's comparison point): an
///   accelerator without shortcut support runs each element-wise addition
///   or concatenation as a separate pass, reading every operand from DRAM
///   and writing the result back.
/// * **Fused junctions** ([`BaselineAccelerator::with_fused_junctions`]): a
///   stronger hypothetical baseline that folds the addition into the
///   preceding convolution's output streaming (costing only the shortcut
///   operand re-read) and concatenates by address aliasing. Used as an
///   ablation, and as the exact equivalence anchor for the
///   `reuse-disabled` logical-buffer policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineAccelerator {
    config: AccelConfig,
    fused_junctions: bool,
}

impl BaselineAccelerator {
    /// Creates the baseline with unfused junctions (the paper's comparison
    /// point).
    pub fn new(config: AccelConfig) -> Self {
        BaselineAccelerator {
            config,
            fused_junctions: false,
        }
    }

    /// Switches to the stronger fused-junction variant (ablation).
    pub fn with_fused_junctions(mut self) -> Self {
        self.fused_junctions = true;
        self
    }

    /// The hardware configuration.
    pub fn config(&self) -> AccelConfig {
        self.config
    }

    /// Simulates a full network, producing traffic and cycle statistics.
    ///
    /// # Panics
    ///
    /// Panics on malformed networks; see [`BaselineAccelerator::try_simulate`]
    /// for the non-panicking variant.
    pub fn simulate(&self, net: &Network) -> RunStats {
        self.try_simulate(net).expect("well-formed network")
    }

    /// Simulates a full network, surfacing model preconditions as typed
    /// errors instead of panicking.
    ///
    /// # Errors
    ///
    /// [`AccelError::NotConv`] when a convolution layer's dimensions cannot
    /// be derived from the network.
    pub fn try_simulate(&self, net: &Network) -> Result<RunStats, AccelError> {
        let cfg = self.config;
        let mut run = RunBuilder::new(&cfg, net);
        for layer in &net.layers()[1..] {
            let work = layer_work(&cfg, net, layer, cfg.tile_caps())?;
            let traffic = self.layer_traffic(net, layer, &work);
            run.push(layer, work.compute_cycles, traffic, FaultCost::default());
        }
        let architecture = if self.fused_junctions {
            "baseline-fused"
        } else {
            "baseline"
        };
        Ok(run.finish(architecture, None, FaultStats::default()))
    }

    /// DRAM traffic of one layer under baseline rules: every operand read
    /// in full, every output written back.
    fn layer_traffic(&self, net: &Network, layer: &Layer, work: &LayerWork) -> ClassTotals {
        let elem = self.config.elem_bytes;
        let mut traffic = ClassTotals::new();
        traffic.record(TrafficClass::WeightRead, work.weight_bytes);
        match layer.kind {
            // A fused addition folds into the producing conv's output
            // streaming: only non-adjacent operands cross the chip boundary
            // again.
            LayerKind::EltwiseAdd { .. } if self.fused_junctions => {
                for (op, &pid) in layer.inputs.iter().enumerate() {
                    if read_class(pid, layer.id) == TrafficClass::ShortcutRead {
                        let bytes = work.operand_bytes(net, layer, op, elem);
                        traffic.record(TrafficClass::ShortcutRead, bytes);
                    }
                }
            }
            // A fused concatenation aliases addresses: free.
            LayerKind::ConcatChannels if self.fused_junctions => {}
            _ => {
                for (op, &pid) in layer.inputs.iter().enumerate() {
                    let bytes = work.operand_bytes(net, layer, op, elem);
                    traffic.record(read_class(pid, layer.id), bytes);
                }
                traffic.record(TrafficClass::OfmWrite, layer.out_elems() as u64 * elem);
            }
        }
        traffic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_model::zoo;

    fn accel() -> BaselineAccelerator {
        BaselineAccelerator::new(AccelConfig::default())
    }

    #[test]
    fn every_layer_output_round_trips_through_dram() {
        let net = zoo::toy_residual(1);
        let stats = accel().simulate(&net);
        // Unfused baseline: every layer (convs and the junction) writes its
        // full output to DRAM.
        let out_bytes: u64 = net.layers()[1..]
            .iter()
            .map(|l| l.out_elems() as u64 * 2)
            .sum();
        assert_eq!(stats.ledger.class_bytes(TrafficClass::OfmWrite), out_bytes);

        // The fused ablation folds the junction into its producer.
        let fused = accel().with_fused_junctions().simulate(&net);
        let add_bytes = net.layer_by_name("add").unwrap().out_elems() as u64 * 2;
        assert_eq!(
            fused.ledger.class_bytes(TrafficClass::OfmWrite),
            out_bytes - add_bytes
        );
    }

    #[test]
    fn shortcut_operand_is_re_read_at_the_junction() {
        let net = zoo::toy_residual(1);
        let stats = accel().simulate(&net);
        let c1_bytes = net.layer_by_name("c1").unwrap().out_elems() as u64 * 2;
        assert_eq!(
            stats.ledger.class_bytes(TrafficClass::ShortcutRead),
            c1_bytes
        );
    }

    #[test]
    fn unfused_junctions_cost_more() {
        let net = zoo::resnet34(1);
        let unfused = accel().simulate(&net);
        let fused = accel().with_fused_junctions().simulate(&net);
        assert!(unfused.fm_traffic_bytes() > fused.fm_traffic_bytes());
        assert_eq!(unfused.architecture, "baseline");
        assert_eq!(fused.architecture, "baseline-fused");
    }

    #[test]
    fn concat_is_free_only_under_fusion() {
        let net = zoo::squeezenet_v10(1);
        let fused = accel().with_fused_junctions().simulate(&net);
        for report in fused.layers.iter().filter(|l| l.kind == "concat") {
            assert_eq!(report.traffic.total(), 0, "{}", report.name);
        }
        let unfused = accel().simulate(&net);
        let costly = unfused
            .layers
            .iter()
            .filter(|l| l.kind == "concat" && l.traffic.total() > 0)
            .count();
        assert_eq!(
            costly, 8,
            "all eight fire concats pay in the unfused baseline"
        );
    }

    #[test]
    fn plain_network_has_no_shortcut_traffic() {
        let net = zoo::plain34(1);
        let stats = accel().simulate(&net);
        assert_eq!(stats.ledger.class_bytes(TrafficClass::ShortcutRead), 0);
        assert_eq!(stats.ledger.class_bytes(TrafficClass::SpillWrite), 0);
    }

    #[test]
    fn cycles_and_macs_accumulate() {
        let net = zoo::resnet18(1);
        let stats = accel().simulate(&net);
        assert_eq!(stats.macs, net.total_macs());
        let sum: u64 = stats.layers.iter().map(|l| l.cycles.total).sum();
        assert_eq!(stats.total_cycles, sum);
        assert!(stats.throughput_gops() > 0.0);
    }

    #[test]
    fn batch_scales_fm_traffic_linearly_for_fm_classes() {
        let s1 = accel().simulate(&zoo::resnet18(1));
        let s4 = accel().simulate(&zoo::resnet18(4));
        assert_eq!(s4.fm_traffic_bytes(), 4 * s1.fm_traffic_bytes());
        // Weights are amortized across the batch wherever they are resident,
        // so weight traffic grows sublinearly.
        let w1 = s1.ledger.class_bytes(TrafficClass::WeightRead);
        let w4 = s4.ledger.class_bytes(TrafficClass::WeightRead);
        assert!(w4 < 4 * w1);
        assert!(w4 >= w1);
    }

    #[test]
    fn resnet34_fm_traffic_magnitude_is_sane() {
        // Per-image FM data of ResNet-34 is a few tens of MB once every
        // layer round-trips; the exact value depends on halo overheads.
        let stats = accel().simulate(&zoo::resnet34(1));
        let mb = stats.fm_traffic_bytes() as f64 / 1e6;
        assert!((10.0..80.0).contains(&mb), "got {mb} MB");
    }
}
