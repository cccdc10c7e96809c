//! Sensitivity studies: Fig. 14 (on-chip capacity sweep) and Fig. 15
//! (batch-size sweep).
//!
//! Both sweeps fan their (x-value, network) grid out over
//! [`sm_core::parallel`]; the result tables are assembled serially from the
//! order-preserving map, so output is identical at any thread count. The
//! grids are strongly skewed — ResNet-152 at batch 8 costs ~400× what
//! SqueezeNet at batch 1 does — so dispatch is cost-aware by MAC count.

use sm_accel::AccelConfig;
use sm_core::Experiment;

use super::headline::{compare_cell_keys, compare_cells, keyed_networks, run_compare_cell};
use crate::cas::{cached_cells, CacheKey, CacheSession, KeyedNet};
use crate::report::{pct, Table};

/// Sweep result: reduction (and speedup) per (x-value, network).
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// `(x_value, network, traffic_reduction, speedup)` rows.
    pub rows: Vec<(u64, String, f64, f64)>,
    /// Rendered table.
    pub table: Table,
}

/// Fig. 14: feature-map traffic reduction as the feature-map SRAM capacity
/// sweeps from 64 KiB to 4 MiB (default config otherwise).
pub fn fig14_capacity_sweep(base: AccelConfig, batch: usize) -> SweepResult {
    fig14_capacity_sweep_cached(base, batch, None)
}

/// [`fig14_capacity_sweep`] with per-cell result-cache consultation: only
/// (capacity, network) cells missing from `cache` are simulated (delta
/// simulation); output is byte-identical to the uncached sweep. Each cell
/// is keyed by the capacity-adjusted config, so cells are shared with any
/// other comparison at the same (network, config).
pub fn fig14_capacity_sweep_cached(
    base: AccelConfig,
    batch: usize,
    cache: Option<&CacheSession<'_>>,
) -> SweepResult {
    let nets = keyed_networks(batch);
    let mut table = Table::new(
        "Fig 14 - traffic reduction vs on-chip feature-map capacity",
        &["capacity (KiB)", "network", "reduction", "speedup"],
    );
    const CAPACITIES_KIB: [u64; 8] = [64, 128, 256, 320, 512, 1024, 2048, 4096];
    let configs = CAPACITIES_KIB.map(|kib| base.with_fm_capacity(kib * 1024));
    // Capacity-major points; each network's keys share one hashed prefix.
    let points: Vec<(usize, usize)> = (0..CAPACITIES_KIB.len())
        .flat_map(|c| (0..nets.len()).map(move |i| (c, i)))
        .collect();
    let per_net: Vec<Vec<CacheKey>> = nets.iter().map(|n| compare_cell_keys(n, configs)).collect();
    let keys: Vec<CacheKey> = points.iter().map(|&(c, i)| per_net[i][c]).collect();
    let cells = cached_cells(
        cache,
        &points,
        &keys,
        |&(_, i)| nets[i].net().total_macs(),
        |&(c, i)| run_compare_cell(&Experiment::new(configs[c]), nets[i].net()),
        |_, _, _| {},
    );
    let rows: Vec<(u64, String, f64, f64)> = points
        .iter()
        .zip(cells)
        .map(|(&(c, _), cell)| {
            let kib = CAPACITIES_KIB[c];
            (kib, cell.network, cell.traffic_reduction, cell.speedup)
        })
        .collect();
    for (kib, name, red, sp) in &rows {
        table.row(&[
            kib.to_string(),
            name.clone(),
            pct(*red),
            format!("{sp:.2}x"),
        ]);
    }
    SweepResult { rows, table }
}

/// Fig. 15: feature-map traffic reduction as the batch size sweeps 1–8.
pub fn fig15_batch_sweep(config: AccelConfig) -> SweepResult {
    fig15_batch_sweep_cached(config, None)
}

/// [`fig15_batch_sweep`] with per-cell result-cache consultation: only
/// (batch, network) cells missing from `cache` are simulated (delta
/// simulation); output is byte-identical to the uncached sweep. The batch
/// size is baked into each network's shapes, so the shared comparison-cell
/// key distinguishes batches through the network content fingerprint.
pub fn fig15_batch_sweep_cached(
    config: AccelConfig,
    cache: Option<&CacheSession<'_>>,
) -> SweepResult {
    let mut table = Table::new(
        "Fig 15 - traffic reduction vs batch size",
        &["batch", "network", "reduction", "speedup"],
    );
    let points: Vec<KeyedNet> = [1usize, 2, 4, 8]
        .iter()
        .flat_map(|&batch| keyed_networks(batch))
        .collect();
    let rows: Vec<(u64, String, f64, f64)> = compare_cells(config, &points, cache, |_, _, _| {})
        .into_iter()
        .map(|c| (c.batch, c.network, c.traffic_reduction, c.speedup))
        .collect();
    for (batch, name, red, sp) in &rows {
        table.row(&[
            batch.to_string(),
            name.clone(),
            pct(*red),
            format!("{sp:.2}x"),
        ]);
    }
    SweepResult { rows, table }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_grows_with_capacity() {
        let r = fig14_capacity_sweep(AccelConfig::default(), 1);
        for net in ["resnet34", "resnet152"] {
            let series: Vec<f64> = r
                .rows
                .iter()
                .filter(|(_, n, ..)| n == net)
                .map(|(_, _, red, _)| *red)
                .collect();
            assert!(series.len() >= 6);
            // Monotone non-decreasing within noise: the largest capacity
            // must clearly beat the smallest.
            assert!(
                series.last().unwrap() > &(series.first().unwrap() + 0.2),
                "{net}: {series:?}"
            );
            for w in series.windows(2) {
                assert!(w[1] >= w[0] - 0.02, "{net} regressed: {series:?}");
            }
        }
    }

    #[test]
    fn reduction_shrinks_with_batch() {
        // Larger batches inflate working sets, so the fixed pool covers a
        // smaller fraction: reduction at batch 8 < reduction at batch 1.
        let r = fig15_batch_sweep(AccelConfig::default());
        for net in ["resnet34", "resnet152"] {
            let at = |b: u64| -> f64 {
                r.rows
                    .iter()
                    .find(|(batch, n, ..)| *batch == b && n == net)
                    .unwrap()
                    .2
            };
            assert!(at(8) < at(1), "{net}: batch8 {} !< batch1 {}", at(8), at(1));
            assert!(at(8) > 0.0, "{net} still reduces at batch 8");
        }
    }
}
