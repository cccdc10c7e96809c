use serde::Serialize;

use sm_buffer::BufferStats;
use sm_mem::{ClassTotals, EnergyBreakdown, EnergyModel, Ledger};

use crate::cycles::LayerCycles;
use crate::perf::LayerPerfSummary;

/// Counters describing injected faults and the recovery work they caused.
///
/// All-zero for fault-free runs, so every architecture reports the same
/// shape and degradation studies can diff runs field by field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct FaultStats {
    /// Physical banks revoked from the pool.
    pub banks_failed: usize,
    /// Bytes evacuated to DRAM while revoking owned banks.
    pub evicted_bytes: u64,
    /// DRAM transfer attempts that failed and were retried.
    pub dram_retries: u64,
    /// Extra cycles spent stalled in retry backoff (DRAM retries plus
    /// parity-detected site strikes).
    pub retry_stall_cycles: u64,
    /// Residency-corruption events detected and repaired by re-fetch.
    pub corruptions: u64,
    /// Weight-SRAM words struck while a layer's weights were live.
    pub weight_faults: u64,
    /// PE MAC lanes struck during a layer's compute.
    pub pe_faults: u64,
    /// Site strikes detected by parity and repaired (weight refetch or
    /// lane recompute).
    pub parity_detections: u64,
    /// Site strikes corrected in place by ECC.
    pub ecc_corrections: u64,
    /// Site strikes left unprotected: silent value corruption, observable
    /// only through the functional checker.
    pub silent_faults: u64,
    /// Bytes that paid the per-access ECC check tax (feeds the energy
    /// model's ECC component).
    pub ecc_bytes: u64,
    /// BCU mapping-table entries struck while routing a live buffer.
    pub bcu_faults: u64,
    /// Multi-bit strikes ECC detected but could not correct (DUEs), each
    /// handed to the recovery policy.
    pub due_events: u64,
    /// DUEs repaired by re-DMAing the layer's source data from DRAM.
    pub recovered_refetch: u64,
    /// DUEs repaired by re-executing the layer from resident inputs.
    pub recovered_recompute: u64,
    /// Scheduler-state structures (retention table, pin set, spill queue)
    /// struck at a layer boundary.
    pub scheduler_faults: u64,
    /// DUEs repaired by rolling back to the last layer-boundary checkpoint
    /// of scheduler metadata and replaying forward.
    pub recovered_rollback: u64,
    /// DUE events broken down by fault plane; sums to `due_events`.
    #[serde(rename = "due_events_per_plane")]
    pub due_per_plane: PlaneCounters,
    /// Recovery events broken down by fault plane; sums to
    /// `recovered_refetch + recovered_recompute + recovered_rollback`.
    #[serde(rename = "recoveries_per_plane")]
    pub recovered_per_plane: PlaneCounters,
}

impl FaultStats {
    /// Whether any fault was recorded.
    pub fn any(&self) -> bool {
        *self != FaultStats::default()
    }
}

/// Which hardware plane a fault event belongs to, for per-plane
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// Data plane: the weight SRAM.
    Data,
    /// Compute plane: the PE array.
    Compute,
    /// Control plane: the BCU mapping table.
    Control,
    /// Scheduler plane: retention table, pin set, spill queue.
    Scheduler,
}

/// Event counters split by fault plane. Each field mirrors a [`Plane`]
/// variant; all-zero for fault-free runs so the JSON shape is stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct PlaneCounters {
    /// Data-plane (weight SRAM) events.
    pub data: u64,
    /// Compute-plane (PE array) events.
    pub compute: u64,
    /// Control-plane (BCU mapping table) events.
    pub control: u64,
    /// Scheduler-plane (retention table / pin set / spill queue) events.
    pub scheduler: u64,
}

impl PlaneCounters {
    /// Mutable counter for one plane.
    pub fn slot(&mut self, plane: Plane) -> &mut u64 {
        match plane {
            Plane::Data => &mut self.data,
            Plane::Compute => &mut self.compute,
            Plane::Control => &mut self.control,
            Plane::Scheduler => &mut self.scheduler,
        }
    }

    /// Sum over all planes.
    pub fn total(&self) -> u64 {
        self.data + self.compute + self.control + self.scheduler
    }
}

/// Per-layer outcome of a simulated run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LayerReport {
    /// Schedule index of the layer.
    pub id: usize,
    /// Layer name.
    pub name: String,
    /// Operator mnemonic (`conv`, `add`, …).
    pub kind: &'static str,
    /// Cycle breakdown.
    pub cycles: LayerCycles,
    /// DRAM traffic attributed to this layer.
    pub traffic: ClassTotals,
    /// Multiply-accumulates performed.
    pub macs: u64,
    /// Where the layer's cycles went, plus its fault exposure.
    pub perf: LayerPerfSummary,
}

/// Outcome of simulating one network on one architecture.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunStats {
    /// Network name.
    pub network: String,
    /// Batch size.
    pub batch: usize,
    /// Architecture label (`"baseline"`, `"shortcut-mining"`, …).
    pub architecture: String,
    /// End-to-end cycles.
    pub total_cycles: u64,
    /// Total multiply-accumulates.
    pub macs: u64,
    /// Off-chip traffic ledger.
    pub ledger: Ledger,
    /// Per-layer reports in schedule order.
    pub layers: Vec<LayerReport>,
    /// On-chip buffer activity.
    pub buffer_stats: BufferStats,
    /// Injected-fault and recovery counters (all zero when fault-free).
    pub faults: FaultStats,
    /// Fabric clock used for time-domain conversions.
    pub clock_hz: f64,
}

impl RunStats {
    /// Off-chip feature-map bytes — the paper's primary metric.
    pub fn fm_traffic_bytes(&self) -> u64 {
        self.ledger.fm_bytes()
    }

    /// All off-chip bytes including weights.
    pub fn total_traffic_bytes(&self) -> u64 {
        self.ledger.total_bytes()
    }

    /// Wall-clock seconds of the run.
    pub fn runtime_seconds(&self) -> f64 {
        self.total_cycles as f64 / self.clock_hz
    }

    /// Sustained arithmetic throughput in GOP/s (2 ops per MAC, the
    /// convention FPGA accelerator papers report).
    pub fn throughput_gops(&self) -> f64 {
        2.0 * self.macs as f64 / self.runtime_seconds() / 1e9
    }

    /// Inference throughput in images per second.
    pub fn images_per_second(&self) -> f64 {
        self.batch as f64 / self.runtime_seconds()
    }

    /// Energy estimate under the given model, including the ECC tax for
    /// any protected accesses this run performed.
    pub fn energy(&self, model: &EnergyModel) -> EnergyBreakdown {
        model.estimate_with_ecc(
            &self.ledger,
            self.buffer_stats.sram_bytes(),
            self.macs,
            self.faults.ecc_bytes,
        )
    }

    /// Ratio of this run's feature-map traffic to a reference run's
    /// (`self / reference`); the paper reports `1 - ratio` as "traffic
    /// reduction".
    pub fn fm_traffic_ratio(&self, reference: &RunStats) -> f64 {
        self.fm_traffic_bytes() as f64 / reference.fm_traffic_bytes().max(1) as f64
    }

    /// Speedup of this run over a reference run (`reference_cycles /
    /// self_cycles`).
    pub fn speedup_over(&self, reference: &RunStats) -> f64 {
        reference.total_cycles as f64 / self.total_cycles.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_mem::TrafficClass;

    fn stats(cycles: u64, fm: u64) -> RunStats {
        let mut ledger = Ledger::new();
        ledger.record(1, TrafficClass::IfmRead, fm);
        ledger.record(1, TrafficClass::WeightRead, 500);
        RunStats {
            network: "toy".into(),
            batch: 2,
            architecture: "baseline".into(),
            total_cycles: cycles,
            macs: 1_000_000,
            ledger,
            layers: Vec::new(),
            buffer_stats: BufferStats::default(),
            faults: FaultStats::default(),
            clock_hz: 1e6,
        }
    }

    #[test]
    fn derived_metrics() {
        let s = stats(1_000_000, 4000);
        assert_eq!(s.fm_traffic_bytes(), 4000);
        assert_eq!(s.total_traffic_bytes(), 4500);
        assert!((s.runtime_seconds() - 1.0).abs() < 1e-12);
        assert!((s.throughput_gops() - 0.002).abs() < 1e-9);
        assert!((s.images_per_second() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn comparisons() {
        let base = stats(1_000_000, 4000);
        let sm = stats(500_000, 1000);
        assert!((sm.fm_traffic_ratio(&base) - 0.25).abs() < 1e-12);
        assert!((sm.speedup_over(&base) - 2.0).abs() < 1e-12);
    }
}
