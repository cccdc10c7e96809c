//! The headline comparisons: Fig. 10 (feature-map traffic reduction),
//! Fig. 11 (traffic breakdown by category) and Fig. 13 (throughput).
//!
//! Per-network simulations are independent, so each figure fans out over
//! [`sm_core::parallel`]; tables are assembled serially from the
//! order-preserving results. The fan-outs are cost-aware: network MAC
//! counts differ by ~50× between SqueezeNet and ResNet-152, so dispatching
//! largest-first keeps a big network from serializing the tail of a sweep.

use serde::{Deserialize, Serialize};

use sm_accel::AccelConfig;
use sm_core::parallel::par_map_weighted_auto;
use sm_core::{Experiment, Policy};
use sm_mem::TrafficClass;
use sm_model::{zoo, Network};

use sm_core::parallel::{CancelCheck, Cancelled};

use crate::cas::{cached_cells_cancellable, CacheKey, CacheSession, KeyPrefix, KeyedNet};
use crate::paper;
use crate::report::{geomean, mb, pct, Table};

/// One cached baseline-vs-shortcut-mining comparison: the primitive values
/// every headline and sensitivity row derives from, stored directly so a
/// cache hit reproduces the row bit-for-bit (`f64` round-trips exactly
/// through the shortest-repr JSON serialization).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonCell {
    /// Network name.
    pub network: String,
    /// Batch size baked into the network's shapes.
    pub batch: u64,
    /// Baseline off-chip feature-map bytes.
    pub base_fm_bytes: u64,
    /// Shortcut-mining off-chip feature-map bytes.
    pub mined_fm_bytes: u64,
    /// Feature-map traffic reduction (Fig. 10 / 14 / 15 metric).
    pub traffic_reduction: f64,
    /// Baseline sustained throughput in GOP/s.
    pub base_gops: f64,
    /// Shortcut-mining sustained throughput in GOP/s.
    pub mined_gops: f64,
    /// Cycle-level speedup of shortcut mining over the baseline.
    pub speedup: f64,
    /// Shortcut-mining images per second.
    pub mined_images_per_second: f64,
}

/// Everything a [`ComparisonCell`] is a function of: the network (by
/// content fingerprint) and the accelerator config. The baseline vs
/// shortcut-mining policy pair is fixed and encoded in the key's kind tag.
/// `config` stays last: it is what a capacity sweep varies (see
/// [`compare_cell_keys`]).
#[derive(Serialize)]
pub(crate) struct CompareKeyInputs {
    pub(crate) network: String,
    pub(crate) net_fingerprint: String,
    pub(crate) config: AccelConfig,
}

impl CompareKeyInputs {
    fn of(net: &KeyedNet, config: AccelConfig) -> CompareKeyInputs {
        CompareKeyInputs {
            network: net.net().name().to_string(),
            net_fingerprint: net.fingerprint().to_string(),
            config,
        }
    }
}

/// The comparison-cell keys of one network under each of `configs`, in
/// order. Shared by Fig. 10/13/14/15 and the service, so e.g. a full report
/// warms the cells once and every later figure (or service request) over
/// the same (network, config) hits. The network head of the key is hashed
/// once ([`KeyPrefix`]); each key equals `cell_key("compare-cell", ..)`
/// over the full [`CompareKeyInputs`].
pub(crate) fn compare_cell_keys(
    net: &KeyedNet,
    configs: impl IntoIterator<Item = AccelConfig>,
) -> Vec<CacheKey> {
    let inputs = CompareKeyInputs::of(net, AccelConfig::default());
    let prefix = KeyPrefix::new("compare-cell", &inputs, &inputs.config)
        .expect("compare cell inputs serialize");
    configs
        .into_iter()
        .map(|config| prefix.key(&config).expect("configs serialize"))
        .collect()
}

/// Runs the baseline-vs-mined comparison and captures the primitives.
pub(crate) fn run_compare_cell(exp: &Experiment, net: &Network) -> ComparisonCell {
    let cmp = exp.compare(net);
    ComparisonCell {
        network: net.name().to_string(),
        batch: net.input().out_shape.n as u64,
        base_fm_bytes: cmp.baseline.fm_traffic_bytes(),
        mined_fm_bytes: cmp.mined.fm_traffic_bytes(),
        traffic_reduction: cmp.traffic_reduction(),
        base_gops: cmp.baseline.throughput_gops(),
        mined_gops: cmp.mined.throughput_gops(),
        speedup: cmp.speedup(),
        mined_images_per_second: cmp.mined.images_per_second(),
    }
}

/// Baseline-vs-mined comparison cells for a set of networks under one
/// config, with per-cell result-cache consultation: cells already in
/// `cache` are read back and only the missing networks are simulated.
/// Cost-aware dispatch by MAC count; order preserved; `on_cell` streams
/// each cell as it resolves in input order. Each network comes as a
/// [`KeyedNet`], so its fingerprint is computed once by whoever built it.
pub fn compare_cells(
    config: AccelConfig,
    nets: &[KeyedNet],
    cache: Option<&CacheSession<'_>>,
    on_cell: impl FnMut(usize, bool, &ComparisonCell),
) -> Vec<ComparisonCell> {
    compare_cells_cancellable(config, nets, cache, on_cell, None)
        .expect("a sweep without a cancel source cannot be cancelled")
}

/// [`compare_cells`] with a cooperative cancel check (deadlines, dead
/// clients): consulted before dispatch and before each computed cell.
///
/// # Errors
///
/// Returns [`Cancelled`] when the check fired before the sweep completed.
pub fn compare_cells_cancellable(
    config: AccelConfig,
    nets: &[KeyedNet],
    cache: Option<&CacheSession<'_>>,
    on_cell: impl FnMut(usize, bool, &ComparisonCell),
    cancel: Option<CancelCheck<'_>>,
) -> Result<Vec<ComparisonCell>, Cancelled> {
    let exp = Experiment::new(config);
    let keys: Vec<CacheKey> = nets
        .iter()
        .flat_map(|n| compare_cell_keys(n, [config]))
        .collect();
    cached_cells_cancellable(
        cache,
        nets,
        &keys,
        |n| n.net().total_macs(),
        |n| run_compare_cell(&exp, n.net()),
        on_cell,
        cancel,
    )
}

/// The evaluated networks at `batch`, each fingerprinted once.
pub(crate) fn keyed_networks(batch: usize) -> Vec<KeyedNet> {
    zoo::evaluated_networks(batch)
        .into_iter()
        .map(KeyedNet::new)
        .collect()
}

/// Fig. 10 data: feature-map traffic, baseline vs Shortcut Mining.
#[derive(Debug, Clone)]
pub struct TrafficResult {
    /// `(network, baseline_bytes, sm_bytes, reduction)` rows.
    pub rows: Vec<(String, u64, u64, f64)>,
    /// Rendered table.
    pub table: Table,
}

/// Regenerates the headline traffic figure on the evaluated networks.
pub fn fig10_traffic_reduction(config: AccelConfig, batch: usize) -> TrafficResult {
    fig10_traffic_reduction_cached(config, batch, None)
}

/// [`fig10_traffic_reduction`] with per-network result-cache consultation:
/// only networks missing from `cache` are simulated (delta simulation);
/// output is byte-identical to the uncached figure.
pub fn fig10_traffic_reduction_cached(
    config: AccelConfig,
    batch: usize,
    cache: Option<&CacheSession<'_>>,
) -> TrafficResult {
    let mut table = Table::new(
        "Fig 10 - off-chip feature-map traffic (baseline vs shortcut mining)",
        &[
            "network",
            "baseline (MiB)",
            "mined (MiB)",
            "reduction",
            "paper",
        ],
    );
    let nets = keyed_networks(batch);
    let rows: Vec<(String, u64, u64, f64)> = compare_cells(config, &nets, cache, |_, _, _| {})
        .into_iter()
        .map(|c| {
            (
                c.network,
                c.base_fm_bytes,
                c.mined_fm_bytes,
                c.traffic_reduction,
            )
        })
        .collect();
    for (name, base, mined, reduction) in &rows {
        let paper_red = paper::TRAFFIC_REDUCTION
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| pct(*r))
            .unwrap_or_default();
        table.row(&[
            name.clone(),
            mb(*base),
            mb(*mined),
            pct(*reduction),
            paper_red,
        ]);
    }
    TrafficResult { rows, table }
}

/// Fig. 11 data: per-category feature-map traffic for both architectures.
#[derive(Debug, Clone)]
pub struct BreakdownResult {
    /// `(network, architecture, class, bytes)` rows.
    pub rows: Vec<(String, String, TrafficClass, u64)>,
    /// Rendered table.
    pub table: Table,
}

/// Regenerates the traffic-breakdown figure.
pub fn fig11_traffic_breakdown(config: AccelConfig, batch: usize) -> BreakdownResult {
    let exp = Experiment::new(config);
    let mut table = Table::new(
        "Fig 11 - traffic breakdown by category (MiB)",
        &[
            "network",
            "architecture",
            "ifm_read",
            "ofm_write",
            "shortcut_read",
            "spill_write",
            "spill_read",
            "weight_read",
        ],
    );
    let nets = zoo::evaluated_networks(batch);
    let points: Vec<(usize, Policy)> = (0..nets.len())
        .flat_map(|i| {
            [Policy::baseline(), Policy::shortcut_mining()]
                .into_iter()
                .map(move |p| (i, p))
        })
        .collect();
    let runs = par_map_weighted_auto(
        &points,
        |(i, _)| nets[*i].total_macs(),
        |(i, policy)| {
            let stats = exp.run(&nets[*i], *policy);
            let classes: Vec<(TrafficClass, u64)> = TrafficClass::ALL
                .into_iter()
                .map(|class| (class, stats.ledger.class_bytes(class)))
                .collect();
            (nets[*i].name().to_string(), stats.architecture, classes)
        },
    );
    let mut rows = Vec::new();
    for (name, architecture, classes) in runs {
        let mut cells = vec![name.clone(), architecture.clone()];
        for (class, bytes) in classes {
            cells.push(mb(bytes));
            rows.push((name.clone(), architecture.clone(), class, bytes));
        }
        table.row(&cells);
    }
    BreakdownResult { rows, table }
}

/// Fig. 13 data: throughput comparison.
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    /// `(network, baseline_gops, sm_gops, speedup)` rows.
    pub rows: Vec<(String, f64, f64, f64)>,
    /// Geometric-mean speedup (the abstract's 1.93×).
    pub geomean_speedup: f64,
    /// Rendered table.
    pub table: Table,
}

/// Regenerates the throughput figure.
pub fn fig13_throughput(config: AccelConfig, batch: usize) -> ThroughputResult {
    fig13_throughput_cached(config, batch, None)
}

/// [`fig13_throughput`] with per-network result-cache consultation: only
/// networks missing from `cache` are simulated (delta simulation); output
/// is byte-identical to the uncached figure. Cells are shared with
/// [`fig10_traffic_reduction_cached`], so a report regenerating both
/// figures simulates each network once.
pub fn fig13_throughput_cached(
    config: AccelConfig,
    batch: usize,
    cache: Option<&CacheSession<'_>>,
) -> ThroughputResult {
    let mut table = Table::new(
        "Fig 13 - throughput (baseline vs shortcut mining)",
        &[
            "network",
            "baseline GOP/s",
            "mined GOP/s",
            "speedup",
            "img/s mined",
        ],
    );
    let nets = keyed_networks(batch);
    let results: Vec<(String, f64, f64, f64, f64)> =
        compare_cells(config, &nets, cache, |_, _, _| {})
            .into_iter()
            .map(|c| {
                (
                    c.network,
                    c.base_gops,
                    c.mined_gops,
                    c.speedup,
                    c.mined_images_per_second,
                )
            })
            .collect();
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for (name, base, mined, speedup, imgs) in results {
        table.row(&[
            name.clone(),
            format!("{base:.1}"),
            format!("{mined:.1}"),
            format!("{speedup:.2}x"),
            format!("{imgs:.1}"),
        ]);
        rows.push((name, base, mined, speedup));
        speedups.push(speedup);
    }
    let geomean_speedup = geomean(&speedups);
    table.row(&[
        "geomean".to_string(),
        String::new(),
        String::new(),
        format!(
            "{geomean_speedup:.2}x (paper: {:.2}x)",
            paper::THROUGHPUT_GAIN
        ),
        String::new(),
    ]);
    ThroughputResult {
        rows,
        geomean_speedup,
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_reductions_track_the_paper() {
        let r = fig10_traffic_reduction(AccelConfig::default(), 1);
        assert_eq!(r.rows.len(), 3);
        for (name, _, _, reduction) in &r.rows {
            let paper_val = paper::TRAFFIC_REDUCTION
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap();
            // Same winner, same ballpark: within 15 percentage points.
            assert!(
                (reduction - paper_val).abs() < 0.15,
                "{name}: measured {reduction:.3} vs paper {paper_val}"
            );
        }
        // Ordering: ResNet-34 > SqueezeNet > ResNet-152, as in the paper.
        let get = |n: &str| r.rows.iter().find(|(name, ..)| name == n).unwrap().3;
        assert!(get("resnet34") > get("squeezenet_v10_simple_bypass"));
        assert!(get("squeezenet_v10_simple_bypass") > get("resnet152"));
    }

    #[test]
    fn breakdown_shows_shortcut_reads_only_in_baseline_heavy_form() {
        let r = fig11_traffic_breakdown(AccelConfig::default(), 1);
        let sum = |arch: &str, class: TrafficClass| -> u64 {
            r.rows
                .iter()
                .filter(|(_, a, c, _)| a == arch && *c == class)
                .map(|(_, _, _, b)| b)
                .sum()
        };
        assert!(sum("baseline", TrafficClass::ShortcutRead) > 0);
        assert!(
            sum("shortcut-mining", TrafficClass::ShortcutRead)
                < sum("baseline", TrafficClass::ShortcutRead)
        );
        assert_eq!(sum("baseline", TrafficClass::SpillWrite), 0);
    }

    #[test]
    fn throughput_gain_is_near_the_paper() {
        let r = fig13_throughput(AccelConfig::default(), 1);
        assert!(
            (r.geomean_speedup - paper::THROUGHPUT_GAIN).abs() < 0.35,
            "geomean {}",
            r.geomean_speedup
        );
        for (_, base, mined, speedup) in &r.rows {
            assert!(mined > base);
            assert!(*speedup > 1.0);
        }
    }
}
