//! Experiment implementations, one per paper table/figure.
//!
//! | Experiment | Function | Regenerates |
//! |---|---|---|
//! | Fig. 2 | [`fig2_shortcut_share`] | shortcut share of FM data (~40%) |
//! | Table 1 | [`table1_networks`] | network characteristics |
//! | Table 2 | [`table2_config`] | accelerator configuration |
//! | Fig. 10 | [`fig10_traffic_reduction`] | headline FM traffic reduction |
//! | Fig. 11 | [`fig11_traffic_breakdown`] | per-category traffic breakdown |
//! | Fig. 12 | [`fig12_per_block`] | per-block traffic (ResNet-34) |
//! | Fig. 13 | [`fig13_throughput`] | throughput gain (1.93×) |
//! | Fig. 14 | [`fig14_capacity_sweep`] | sensitivity to on-chip capacity |
//! | Fig. 15 | [`fig15_batch_sweep`] | sensitivity to batch size |
//! | Fig. 16 | [`fig16_energy`] | DRAM / total energy reduction |
//! | Table 3 | [`table3_ablation`] | procedure ablation |
//! | Fig. 17 | [`fig17_intermediate_layers`] | retention across N layers |
//! | Ext. 1 | [`ext_new_workloads`] | GoogLeNet / DenseNet (beyond the paper) |
//! | Ext. 2 | [`ext_bandwidth_sweep`] | speedup vs FM bandwidth |
//! | Ext. 3 | [`ext_capacity_requirements`] | capacity planning bounds |
//! | Ext. 4 | [`ext_spill_order`] | spill-victim order ablation |
//! | Ext. 5 | [`ext_datatype`] | 8/16/32-bit datatype sensitivity |
//! | Ext. 6 | [`chaos_degradation`] | graceful degradation under injected faults |
//! | Ext. 7 | [`retry_budget_study`] | retry-budget sensitivity under DRAM faults |
//! | Ext. 8 | [`chaos_grid`] | 2-D bank-failure × DRAM-fault degradation grid |
//! | Ext. 14 | [`control_path_sweep`] | BCU-strike recovery-policy ladder |
//! | Ext. 15 | [`scheduler_sweep`] | scheduler-state strikes vs four recovery tiers |

mod ablation;
mod chaos;
mod energy;
mod extensions;
mod headline;
mod motivation;
mod per_block;
mod retention;
mod sensitivity;

pub use ablation::{table3_ablation, AblationResult};
pub use chaos::{
    chaos_degradation, chaos_grid, chaos_grid3, control_path_sweep, retry_budget_study,
    retry_budget_sweep, scheduler_sweep, ChaosCurve, ChaosGrid, ChaosGrid3, ChaosGrid3Cell,
    ChaosGridCell, ChaosPoint, ControlPathPoint, ControlPathStudy, RetryBudgetPoint,
    RetryBudgetStudy, SchedulerPoint, SchedulerStudy, CONTROL_PATH_DOUBLE_RATE,
    CONTROL_PATH_POLICIES, CONTROL_PATH_TRIPLE_RATE, DEFAULT_CONTROL_PATH_RATES, DEFAULT_FRACTIONS,
    DEFAULT_GRID_FRACTIONS, DEFAULT_GRID_RATES, DEFAULT_GRID_SITE_RATES, DEFAULT_RETRY_BUDGETS,
    DEFAULT_SCHEDULER_RATES, SCHEDULER_DOUBLE_RATE, SCHEDULER_POLICIES, SCHEDULER_TRIPLE_RATE,
};
pub use energy::{fig16_energy, EnergyResult};
pub use extensions::{
    ext_architecture_comparison, ext_bandwidth_sweep, ext_batch_schedule, ext_bcu_overhead,
    ext_bound_breakdown, ext_capacity_requirements, ext_datatype, ext_ddr_bandwidth,
    ext_new_workloads, ext_pipeline_validation, ext_share_vs_benefit, ext_spill_order,
    ExtSweepResult,
};
pub use headline::{
    compare_cells, fig10_traffic_reduction, fig11_traffic_breakdown, fig13_throughput,
    BreakdownResult, ComparisonCell, ThroughputResult, TrafficResult,
};
pub use motivation::{fig2_shortcut_share, table1_networks, table2_config, ShareResult};
pub use per_block::{fig12_per_block, PerBlockResult};
pub use retention::{fig17_intermediate_layers, RetentionResult};
pub use sensitivity::{
    fig14_capacity_sweep, fig15_batch_sweep, SweepResult, DEFAULT_CAPACITIES_KIB,
};

/// Every table of the full evaluation at batch 1, in figure order.
///
/// The twelve builders are independent, so they run concurrently on the
/// worker pool ([`sm_core::parallel`]); the returned order (and therefore
/// any rendering of it) is the same at every thread count, which
/// `tests/parallel_determinism.rs` checks. This is the workload behind the
/// `all_experiments` binary (the one entry point for the paper's figures)
/// and so behind the benchmark's `figures` workload.
pub fn all_tables(cfg: sm_accel::AccelConfig) -> Vec<crate::report::Table> {
    type Job = Box<dyn Fn() -> crate::report::Table + Sync>;
    let jobs: Vec<Job> = vec![
        Box::new(move || fig2_shortcut_share(1).table),
        Box::new(move || table1_networks(1)),
        Box::new(move || table2_config(cfg)),
        Box::new(move || fig10_traffic_reduction(cfg, 1).table),
        Box::new(move || fig11_traffic_breakdown(cfg, 1).table),
        Box::new(move || fig12_per_block(cfg, 1).table),
        Box::new(move || fig13_throughput(cfg, 1).table),
        Box::new(move || fig14_capacity_sweep(cfg, 1).table),
        Box::new(move || fig15_batch_sweep(cfg).table),
        Box::new(move || fig16_energy(cfg, 1).table),
        Box::new(move || table3_ablation(cfg, 1).table),
        Box::new(move || fig17_intermediate_layers(cfg, 1).table),
    ];
    sm_core::parallel::par_map(&jobs, sm_core::parallel::threads(), |job| job())
}

#[cfg(test)]
mod tests {
    //! Key-equality properties: the prefix-hashed keys the sweeps use must
    //! equal [`cell_key`] over the full inputs bit for bit, or every store
    //! written before (or by the other path) would be orphaned.

    use std::sync::OnceLock;

    use proptest::prelude::*;
    use proptest::test_runner::ProptestConfig;

    use sm_accel::AccelConfig;
    use sm_core::{FaultPlan, Policy, Protection, RecoveryPolicy};
    use sm_model::zoo;

    use super::chaos::{chaos_keys, ChaosKeyInputs};
    use super::headline::{compare_cell_keys, CompareKeyInputs};
    use crate::cas::{cell_key, CacheKey, KeyedNet};

    /// The kind tags of the six chaos sweeps.
    const CHAOS_KINDS: [&str; 6] = [
        "chaos-point",
        "chaos-grid-cell",
        "chaos-grid3-cell",
        "control-path-point",
        "scheduler-point",
        "retry-budget-point",
    ];

    const RECOVERY: [RecoveryPolicy; 4] = [
        RecoveryPolicy::Abort,
        RecoveryPolicy::RefetchTile,
        RecoveryPolicy::RecomputeLayer,
        RecoveryPolicy::Checkpoint,
    ];

    /// Zoo networks the properties draw from, fingerprinted once per run.
    fn nets() -> &'static [KeyedNet] {
        static NETS: OnceLock<Vec<KeyedNet>> = OnceLock::new();
        NETS.get_or_init(|| {
            ["toy_residual", "resnet18", "squeezenet_v11", "googlenet"]
                .into_iter()
                .flat_map(|name| [1, 2].map(|batch| zoo::try_by_name(name, batch).unwrap()))
                .map(KeyedNet::new)
                .collect()
        })
    }

    /// A fault plan touching every field family the sweeps vary: seed,
    /// rates, retry budget, site and control-path strikes, recovery.
    fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
        (
            0u64..1_000_000,
            (0.0f64..1.0, 0.0f64..0.6),
            (0u32..16, 0u64..500),
            0.0f64..1.0,
            (0.0f64..1.0, 0.0f64..1.0),
            0usize..RECOVERY.len(),
        )
            .prop_map(
                |(seed, (banks, dram), (budget, stall), site, (bcu, sched), r)| {
                    FaultPlan::new(seed)
                        .with_bank_failures(banks)
                        .with_dram_faults(dram)
                        .with_retry_budget(budget, stall)
                        .with_weight_faults(site, Protection::Parity)
                        .with_pe_faults(site, Protection::Parity)
                        .with_bcu_faults(bcu, Protection::Ecc)
                        .with_scheduler_faults(sched, Protection::Ecc)
                        .with_multi_bit(0.4, 0.1)
                        .with_recovery(RECOVERY[r])
                },
            )
    }

    fn config(kib: u64) -> AccelConfig {
        AccelConfig::default().with_fm_capacity(kib * 1024)
    }

    /// Keys name the entries of stores already on disk, so their bytes are
    /// a published format: these two were written by the release that
    /// introduced the store. A change here orphans every existing store and
    /// must come with a `CACHE_SCHEMA_VERSION` bump.
    #[test]
    fn keys_match_the_published_format() {
        let net = KeyedNet::new(zoo::toy_residual(1));
        let plan = FaultPlan::new(7)
            .with_bank_failures(0.0)
            .with_dram_faults(0.0);
        let chaos = chaos_keys("chaos-grid-cell", &net, &AccelConfig::default(), [plan]);
        assert_eq!(chaos[0].hex(), "698a4ec0ae4be2ed9c9ec3c381f6801e");
        let compare = compare_cell_keys(&net, [AccelConfig::default()]);
        assert_eq!(compare[0].hex(), "3f8e3163c60f029cfb1f1df2503b70a4");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn chaos_prefix_keys_equal_full_cell_keys(
            kind in 0usize..CHAOS_KINDS.len(),
            net in 0usize..8,
            kib in 16u64..8192,
            plans in prop::collection::vec(plan_strategy(), 1..8),
        ) {
            let (kind, net, config) = (CHAOS_KINDS[kind], &nets()[net], config(kib));
            let full: Vec<CacheKey> = plans
                .iter()
                .map(|plan| {
                    let inputs = ChaosKeyInputs {
                        network: net.net().name().to_string(),
                        net_fingerprint: net.fingerprint().to_string(),
                        config,
                        policy: Policy::shortcut_mining(),
                        plan: plan.clone(),
                    };
                    cell_key(kind, &inputs).unwrap()
                })
                .collect();
            prop_assert_eq!(chaos_keys(kind, net, &config, plans), full);
        }

        #[test]
        fn compare_prefix_keys_equal_full_cell_keys(
            net in 0usize..8,
            kibs in prop::collection::vec(16u64..8192, 1..10),
        ) {
            let net = &nets()[net];
            let configs: Vec<AccelConfig> = kibs.iter().map(|&kib| config(kib)).collect();
            let full: Vec<CacheKey> = configs
                .iter()
                .map(|&config| {
                    let inputs = CompareKeyInputs {
                        network: net.net().name().to_string(),
                        net_fingerprint: net.fingerprint().to_string(),
                        config,
                    };
                    cell_key("compare-cell", &inputs).unwrap()
                })
                .collect();
            prop_assert_eq!(compare_cell_keys(net, configs), full);
        }
    }
}
