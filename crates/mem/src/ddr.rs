//! DDR row-buffer timing model.
//!
//! The top-level experiments use per-channel *effective* bandwidths (the
//! feature-map channel is de-rated relative to the weight channel). This
//! module derives those numbers from first principles instead of asserting
//! them: a banked, open-page DDR3 state machine charges each 64-byte burst
//! either a row-hit cost or a full precharge-activate-CAS sequence, so the
//! effective bandwidth of an access pattern falls out of replaying its
//! address stream ([`DdrChannel::cost_of_stream`]).
//!
//! Sequential weight streams hit open rows almost always and run near peak;
//! feature-map tile fetches hop across rows (channel stride ≈ one DRAM row)
//! and issue short spans that waste burst payload, measuring ~40% of peak
//! on real tile schedules. The `ext_ddr_bandwidth` experiment quantifies
//! this per network and records how it bounds (but does not fully explain)
//! the calibrated FM-channel de-rating — see EXPERIMENTS.md Ext-10.
//!
//! # Geometry contract
//!
//! `burst_bytes`, `row_bytes` and `banks` must each be a non-zero power of
//! two; [`DdrChannel::new`] refuses any other geometry with a
//! [`DdrGeometryError`]. Every burst of a replay is then mapped to its bank
//! and row with shifts and a mask instead of three divisions and a
//! modulo. Real DDR parts have power-of-two geometry, so no model loses
//! anything to the contract.

use std::fmt;

use serde::Serialize;

/// DDR timing and geometry parameters, expressed in accelerator clock
/// cycles (the defaults model DDR3-1600 behind a 200 MHz fabric: peak one
/// 64-byte burst per fabric cycle).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DdrTimings {
    /// Bytes transferred per burst.
    pub burst_bytes: u64,
    /// Cycles a burst occupies the data bus at peak.
    pub burst_cycles: u64,
    /// Row-precharge time (close an open row).
    pub t_rp: u64,
    /// Row-activate time (open a row).
    pub t_rcd: u64,
    /// Column-access latency overlapping factor — extra cycles charged on a
    /// row miss beyond precharge+activate.
    pub t_cas: u64,
    /// Independent banks per channel.
    pub banks: usize,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
}

impl Default for DdrTimings {
    fn default() -> Self {
        // DDR3-1600, 8 banks, 8 KiB pages, timings ~13.75 ns each at a
        // 5 ns fabric cycle.
        DdrTimings {
            burst_bytes: 64,
            burst_cycles: 1,
            t_rp: 3,
            t_rcd: 3,
            t_cas: 3,
            banks: 8,
            row_bytes: 8 * 1024,
        }
    }
}

impl DdrTimings {
    /// Peak bandwidth in bytes per cycle.
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        self.burst_bytes as f64 / self.burst_cycles.max(1) as f64
    }
}

/// Cost summary of replaying one address stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct DdrCost {
    /// Payload bytes the stream requested.
    pub bytes_requested: u64,
    /// Bytes actually moved on the bus (whole bursts).
    pub bytes_on_bus: u64,
    /// Total cycles the channel was occupied.
    pub cycles: u64,
    /// Bursts that hit an open row.
    pub row_hits: u64,
    /// Bursts that required precharge + activate.
    pub row_misses: u64,
}

impl DdrCost {
    /// Effective payload bandwidth in bytes per cycle.
    pub fn effective_bytes_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.bytes_requested as f64 / self.cycles as f64
    }

    /// Fraction of bursts that hit an open row.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            return 0.0;
        }
        self.row_hits as f64 / total as f64
    }
}

/// A DDR geometry [`DdrChannel::new`] refuses: one of its fields is zero or
/// not a power of two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DdrGeometryError {
    /// The offending [`DdrTimings`] field.
    pub field: &'static str,
    /// Its value.
    pub value: u64,
}

impl fmt::Display for DdrGeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DDR {} must be a non-zero power of two, got {}",
            self.field, self.value
        )
    }
}

impl std::error::Error for DdrGeometryError {}

/// `log2(value)` when `value` is a non-zero power of two.
fn log2_exact(field: &'static str, value: u64) -> Result<u32, DdrGeometryError> {
    if value.is_power_of_two() {
        Ok(value.trailing_zeros())
    } else {
        Err(DdrGeometryError { field, value })
    }
}

/// One DDR channel with open-page row-buffer state per bank.
///
/// Address mapping: columns fill a row, rows interleave across banks
/// (`row_id % banks`), so sequential streams rotate banks at page
/// boundaries — the standard layout that makes long streams fast.
///
/// # Example
///
/// ```
/// use sm_mem::ddr::{DdrChannel, DdrTimings};
///
/// let mut ch = DdrChannel::new(DdrTimings::default()).expect("power-of-two geometry");
/// let sequential = ch.cost_of_stream([(0u64, 1u64 << 20)]);
/// ch.reset();
/// let hopping = ch.cost_of_stream((0..1024u64).map(|i| (i * 8192, 64u64)));
/// assert!(sequential.effective_bytes_per_cycle() > hopping.effective_bytes_per_cycle());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DdrChannel {
    timings: DdrTimings,
    /// `log2(burst_bytes)`.
    burst_shift: u32,
    /// `log2(row_bytes)`.
    row_shift: u32,
    /// `log2(banks)`.
    bank_shift: u32,
    /// `banks - 1`.
    bank_mask: u64,
    open_rows: Vec<Option<u64>>,
}

impl DdrChannel {
    /// Creates a channel with all rows closed.
    ///
    /// # Errors
    ///
    /// [`DdrGeometryError`] when `burst_bytes`, `row_bytes` or `banks` is
    /// zero or not a power of two (see the module's geometry contract).
    pub fn new(timings: DdrTimings) -> Result<Self, DdrGeometryError> {
        Ok(DdrChannel {
            burst_shift: log2_exact("burst_bytes", timings.burst_bytes)?,
            row_shift: log2_exact("row_bytes", timings.row_bytes)?,
            bank_shift: log2_exact("banks", timings.banks as u64)?,
            bank_mask: timings.banks as u64 - 1,
            open_rows: vec![None; timings.banks],
            timings,
        })
    }

    /// The timing parameters.
    pub fn timings(&self) -> DdrTimings {
        self.timings
    }

    /// Resets all banks to closed.
    pub fn reset(&mut self) {
        self.open_rows.iter_mut().for_each(|r| *r = None);
    }

    /// Charges one span `[addr, addr + len)`, splitting it into bursts.
    fn access_span(&mut self, addr: u64, len: u64, cost: &mut DdrCost) {
        if len == 0 {
            return;
        }
        let t = self.timings;
        cost.bytes_requested += len;
        // Burst-aligned coverage of the span.
        let first_burst = addr >> self.burst_shift;
        let last_burst = (addr + len - 1) >> self.burst_shift;
        for burst in first_burst..=last_burst {
            let row_id = (burst << self.burst_shift) >> self.row_shift;
            let bank = (row_id & self.bank_mask) as usize;
            let row_in_bank = row_id >> self.bank_shift;
            cost.bytes_on_bus += t.burst_bytes;
            if self.open_rows[bank] == Some(row_in_bank) {
                cost.row_hits += 1;
                cost.cycles += t.burst_cycles;
            } else {
                let penalty = if self.open_rows[bank].is_some() {
                    t.t_rp
                } else {
                    0
                };
                cost.row_misses += 1;
                cost.cycles += penalty + t.t_rcd + t.t_cas + t.burst_cycles;
                self.open_rows[bank] = Some(row_in_bank);
            }
        }
    }

    /// Replays an address stream of `(addr, len)` spans and returns its
    /// cost. Bank state persists across calls; use [`DdrChannel::reset`]
    /// between independent measurements.
    pub fn cost_of_stream(&mut self, spans: impl IntoIterator<Item = (u64, u64)>) -> DdrCost {
        let mut cost = DdrCost::default();
        for (addr, len) in spans {
            self.access_span(addr, len, &mut cost);
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The division-based replay the shifts replaced, kept as the oracle:
    /// the same state machine with `open_rows` passed in.
    fn oracle_cost(t: DdrTimings, open_rows: &mut [Option<u64>], spans: &[(u64, u64)]) -> DdrCost {
        let mut cost = DdrCost::default();
        for &(addr, len) in spans {
            if len == 0 {
                continue;
            }
            cost.bytes_requested += len;
            let first_burst = addr / t.burst_bytes;
            let last_burst = (addr + len - 1) / t.burst_bytes;
            for burst in first_burst..=last_burst {
                let byte_addr = burst * t.burst_bytes;
                let row_id = byte_addr / t.row_bytes;
                let bank = (row_id % t.banks as u64) as usize;
                let row_in_bank = row_id / t.banks as u64;
                cost.bytes_on_bus += t.burst_bytes;
                if open_rows[bank] == Some(row_in_bank) {
                    cost.row_hits += 1;
                    cost.cycles += t.burst_cycles;
                } else {
                    let penalty = if open_rows[bank].is_some() { t.t_rp } else { 0 };
                    cost.row_misses += 1;
                    cost.cycles += penalty + t.t_rcd + t.t_cas + t.burst_cycles;
                    open_rows[bank] = Some(row_in_bank);
                }
            }
        }
        cost
    }

    /// The default geometry and two others: (burst bytes, row bytes, banks).
    const GEOMETRIES: [(u64, u64, usize); 3] =
        [(64, 8 << 10, 8), (32, 2 << 10, 16), (128, 16 << 10, 4)];

    fn timings(burst_bytes: u64, row_bytes: u64, banks: usize) -> DdrTimings {
        DdrTimings {
            burst_bytes,
            row_bytes,
            banks,
            ..DdrTimings::default()
        }
    }

    fn spans() -> impl Strategy<Value = Vec<(u64, u64)>> {
        prop::collection::vec((0u64..1 << 22, 0u64..20_000), 0..64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Shift-and-mask replay equals the division oracle on every
        /// geometry, including the bank state a second stream inherits.
        #[test]
        fn shifted_replay_matches_the_division_oracle(first in spans(), second in spans()) {
            for (burst_bytes, row_bytes, banks) in GEOMETRIES {
                let t = timings(burst_bytes, row_bytes, banks);
                let mut ch = DdrChannel::new(t).expect("power-of-two geometry");
                let mut open_rows = vec![None; banks];
                for stream in [&first, &second] {
                    let expected = oracle_cost(t, &mut open_rows, stream);
                    prop_assert_eq!(ch.cost_of_stream(stream.iter().copied()), expected);
                }
            }
        }
    }

    #[test]
    fn non_power_of_two_geometry_is_a_typed_error() {
        for bad in [0u64, 3, 48, 96, 1000] {
            let cases = [
                ("burst_bytes", timings(bad, 8 << 10, 8)),
                ("row_bytes", timings(64, bad, 8)),
                ("banks", timings(64, 8 << 10, bad as usize)),
            ];
            for (field, t) in cases {
                assert_eq!(
                    DdrChannel::new(t),
                    Err(DdrGeometryError { field, value: bad }),
                    "{field} = {bad}"
                );
            }
        }
        let err = DdrChannel::new(timings(64, 8 << 10, 6)).expect_err("6 banks");
        assert_eq!(
            err.to_string(),
            "DDR banks must be a non-zero power of two, got 6"
        );
        for (burst_bytes, row_bytes, banks) in GEOMETRIES {
            assert!(DdrChannel::new(timings(burst_bytes, row_bytes, banks)).is_ok());
        }
    }

    #[test]
    fn sequential_stream_runs_near_peak() {
        let mut ch = DdrChannel::new(DdrTimings::default()).expect("default geometry");
        // 1 MiB sequential: one miss per 8 KiB row, hits otherwise.
        let cost = ch.cost_of_stream([(0u64, 1 << 20)]);
        assert_eq!(cost.bytes_requested, 1 << 20);
        assert_eq!(cost.row_misses, (1 << 20) / (8 * 1024));
        assert!(cost.row_hit_rate() > 0.99);
        let eff = cost.effective_bytes_per_cycle();
        assert!(eff > 0.93 * 64.0, "effective {eff}");
    }

    #[test]
    fn page_hopping_stream_collapses_bandwidth() {
        let mut ch = DdrChannel::new(DdrTimings::default()).expect("default geometry");
        // 64 bytes from the start of every 8 KiB page: all misses.
        let spans = (0..1024u64).map(|i| (i * 8 * 1024, 64u64));
        let cost = ch.cost_of_stream(spans);
        assert_eq!(cost.row_hits, 0);
        assert_eq!(cost.row_misses, 1024);
        let eff = cost.effective_bytes_per_cycle();
        assert!(eff < 0.2 * 64.0, "effective {eff}");
    }

    #[test]
    fn short_spans_waste_burst_payload() {
        let mut ch = DdrChannel::new(DdrTimings::default()).expect("default geometry");
        // 40-byte spans with 128-byte stride: each span costs a whole burst
        // (sometimes two when straddling), so bus bytes exceed payload.
        let spans = (0..100u64).map(|i| (i * 128, 40u64));
        let cost = ch.cost_of_stream(spans);
        assert!(cost.bytes_on_bus > cost.bytes_requested);
        assert!(cost.effective_bytes_per_cycle() < 64.0);
    }

    #[test]
    fn revisiting_an_open_row_hits() {
        let mut ch = DdrChannel::new(DdrTimings::default()).expect("default geometry");
        let first = ch.cost_of_stream([(0u64, 64u64)]);
        assert_eq!(first.row_misses, 1);
        let second = ch.cost_of_stream([(64u64, 64u64)]);
        assert_eq!(second.row_hits, 1);
        assert_eq!(second.cycles, 1);
        ch.reset();
        let third = ch.cost_of_stream([(0u64, 64u64)]);
        assert_eq!(third.row_misses, 1);
    }

    #[test]
    fn banks_hold_independent_rows() {
        let t = DdrTimings::default();
        let mut ch = DdrChannel::new(t).expect("default geometry");
        // Rows 0..8 map to banks 0..8: opening all of them keeps all open.
        let spans: Vec<(u64, u64)> = (0..8u64).map(|r| (r * t.row_bytes, 64u64)).collect();
        let open = ch.cost_of_stream(spans.clone());
        assert_eq!(open.row_misses, 8);
        let again = ch.cost_of_stream(spans);
        assert_eq!(again.row_hits, 8);
        assert_eq!(again.row_misses, 0);
    }

    #[test]
    fn empty_and_zero_len_streams_cost_nothing() {
        let mut ch = DdrChannel::new(DdrTimings::default()).expect("default geometry");
        assert_eq!(ch.cost_of_stream([]).cycles, 0);
        assert_eq!(ch.cost_of_stream([(100u64, 0u64)]).cycles, 0);
        assert_eq!(DdrCost::default().effective_bytes_per_cycle(), 0.0);
        assert_eq!(DdrCost::default().row_hit_rate(), 0.0);
    }
}
