use serde::{Deserialize, Serialize};

use sm_buffer::{BankPoolConfig, FixedBufferConfig};
use sm_mem::DramConfig;

use crate::tiling::TileCaps;

/// On-chip SRAM plan shared by both architectures.
///
/// The comparison in the paper is iso-capacity: the baseline's fixed IFM/OFM
/// buffers and Shortcut Mining's bank pool are carved from the same
/// feature-map SRAM budget; the weight buffer is identical in both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SramPlan {
    /// Feature-map SRAM organized as a bank pool (Shortcut Mining view).
    pub fm_pool: BankPoolConfig,
    /// Weight buffer capacity in bytes (double-buffered internally).
    pub weight_bytes: u64,
}

impl SramPlan {
    /// Feature-map SRAM capacity in bytes.
    pub const fn fm_bytes(&self) -> u64 {
        self.fm_pool.total_bytes()
    }

    /// The baseline's view of the same SRAM: the feature-map capacity is
    /// split statically in half between the IFM and OFM buffers.
    pub const fn as_fixed(&self) -> FixedBufferConfig {
        let half = self.fm_bytes() / 2;
        FixedBufferConfig::new(half, self.fm_bytes() - half, self.weight_bytes)
    }
}

/// Hardware configuration of the simulated accelerator.
///
/// The defaults model the paper's FPGA-class prototype: a 64×64 MAC array at
/// a 200 MHz fabric clock, 16-bit fixed-point data, 320 KiB of feature-map
/// SRAM in 32 banks, a 512 KiB weight buffer, and two independent DDR3
/// channels (the VC709 board carries two SODIMMs). The weight channel runs
/// near peak (long sequential bursts); the feature-map channel is de-rated
/// to its effective bandwidth for short, strided tile transfers. These
/// values were calibrated so the baseline-vs-Shortcut-Mining comparison
/// lands near the paper's headline numbers — see EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccelConfig {
    /// PE array rows — output channels computed in parallel (`Tm` unroll).
    pub pe_rows: usize,
    /// PE array columns — input channels consumed in parallel (`Tn` unroll).
    pub pe_cols: usize,
    /// Fabric clock in Hz.
    pub clock_hz: f64,
    /// Bytes per activation/weight element (2 = 16-bit fixed point).
    pub elem_bytes: u64,
    /// On-chip SRAM plan.
    pub sram: SramPlan,
    /// DRAM channel carrying feature maps.
    pub fm_dram: DramConfig,
    /// DRAM channel carrying weights.
    pub weight_dram: DramConfig,
    /// Fixed per-layer pipeline overhead in cycles (control setup, pipeline
    /// fill/drain).
    pub layer_overhead: u64,
}

impl Default for AccelConfig {
    fn default() -> Self {
        // Weight channel: 12.8 GB/s sequential at a 200 MHz fabric clock
        // (64 B/cycle). Feature-map channel: de-rated to 1.2 GB/s effective
        // (6 B/cycle) for short strided tile bursts.
        let weight_chan = DramConfig {
            bytes_per_cycle: 64.0,
            burst_bytes: 64,
            transfer_latency: 30,
            clock_hz: 200.0e6,
        };
        let fm_chan = DramConfig {
            bytes_per_cycle: 6.0,
            ..weight_chan
        };
        AccelConfig {
            pe_rows: 64,
            pe_cols: 64,
            clock_hz: 200.0e6,
            elem_bytes: 2,
            sram: SramPlan {
                fm_pool: BankPoolConfig::new(32, 10 * 1024), // 320 KiB in 32 banks
                weight_bytes: 512 * 1024,
            },
            fm_dram: fm_chan,
            weight_dram: weight_chan,
            layer_overhead: 200,
        }
    }
}

impl AccelConfig {
    /// Peak multiply-accumulates per cycle.
    pub fn macs_per_cycle(&self) -> u64 {
        (self.pe_rows * self.pe_cols) as u64
    }

    /// Peak arithmetic throughput in GMAC/s.
    pub fn peak_gmacs(&self) -> f64 {
        self.macs_per_cycle() as f64 * self.clock_hz / 1e9
    }

    /// Returns a copy with the feature-map SRAM resized to `bytes`,
    /// preserving the bank count (used by the capacity-sweep experiment).
    pub fn with_fm_capacity(mut self, bytes: u64) -> Self {
        let banks = self.sram.fm_pool.bank_count.max(1);
        self.sram.fm_pool = BankPoolConfig::new(banks, (bytes / banks as u64).max(1));
        self
    }

    /// Returns a copy with both DRAM channels scaled to `bytes_per_cycle`.
    pub fn with_dram_bandwidth(mut self, bytes_per_cycle: f64) -> Self {
        self.fm_dram.bytes_per_cycle = bytes_per_cycle;
        self.weight_dram.bytes_per_cycle = bytes_per_cycle;
        self
    }

    /// Tile capacities every architecture plans a layer with: the halves of
    /// the baseline's fixed buffers. Sharing them keeps per-layer schedules
    /// identical across architectures, so only cross-layer reuse differs.
    pub fn tile_caps(&self) -> TileCaps {
        let fixed = self.sram.as_fixed();
        TileCaps {
            ifm_bytes: fixed.ifm_half(),
            ofm_bytes: fixed.ofm_half(),
            weight_tile_bytes: fixed.weight_half(),
            weight_total_bytes: fixed.weight_bytes,
        }
    }

    /// Seconds per cycle at the configured clock.
    pub fn cycle_seconds(&self) -> f64 {
        1.0 / self.clock_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_iso_capacity_between_architectures() {
        let c = AccelConfig::default();
        let fixed = c.sram.as_fixed();
        assert_eq!(fixed.ifm_bytes + fixed.ofm_bytes, c.sram.fm_bytes());
        assert_eq!(fixed.weight_bytes, c.sram.weight_bytes);
        assert_eq!(c.sram.fm_bytes(), 320 << 10);
    }

    #[test]
    fn peak_rates() {
        let c = AccelConfig::default();
        assert_eq!(c.macs_per_cycle(), 4096);
        assert!((c.peak_gmacs() - 819.2).abs() < 1e-6);
        assert!((c.cycle_seconds() - 5e-9).abs() < 1e-15);
    }

    #[test]
    fn with_fm_capacity_keeps_bank_count() {
        let c = AccelConfig::default().with_fm_capacity(2 << 20);
        assert_eq!(c.sram.fm_pool.bank_count, 32);
        assert_eq!(c.sram.fm_bytes(), 2 << 20);
    }

    #[test]
    fn with_dram_bandwidth_scales_both_channels() {
        let c = AccelConfig::default().with_dram_bandwidth(32.0);
        assert_eq!(c.fm_dram.bytes_per_cycle, 32.0);
        assert_eq!(c.weight_dram.bytes_per_cycle, 32.0);
    }
}
