//! Sensitivity studies: Fig. 14 (on-chip capacity sweep) and Fig. 15
//! (batch-size sweep).
//!
//! Both sweeps walk their (x-value, network) grid in a plain loop, x-value
//! major; `all_tables` runs the figures themselves concurrently.

use sm_accel::AccelConfig;
use sm_model::zoo;

use super::headline::compare_networks;
use crate::report::{pct, Table};

/// The Fig. 14 capacity axis (KiB), also the default axis of the
/// service's `capacity-sweep` requests.
pub const DEFAULT_CAPACITIES_KIB: [u64; 8] = [64, 128, 256, 320, 512, 1024, 2048, 4096];

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
    let nets = zoo::evaluated_networks(batch);
    let mut table = Table::new(
        "Fig 14 - traffic reduction vs on-chip feature-map capacity",
        &["capacity (KiB)", "network", "reduction", "speedup"],
    );
    let rows: Vec<(u64, String, f64, f64)> = DEFAULT_CAPACITIES_KIB
        .into_iter()
        .flat_map(|kib| {
            compare_networks(base.with_fm_capacity(kib * 1024), &nets)
                .into_iter()
                .map(move |cell| (kib, cell.network, cell.traffic_reduction, cell.speedup))
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
    let mut table = Table::new(
        "Fig 15 - traffic reduction vs batch size",
        &["batch", "network", "reduction", "speedup"],
    );
    let nets: Vec<_> = [1usize, 2, 4, 8]
        .iter()
        .flat_map(|&batch| zoo::evaluated_networks(batch))
        .collect();
    let rows: Vec<(u64, String, f64, f64)> = compare_networks(config, &nets)
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
