//! Conformance properties of the control-path fault model and the DUE
//! recovery engine.
//!
//! The recovery policies make externally checkable promises:
//!
//! * `RefetchTile` perturbs *only* the `Retry` traffic class: every other
//!   ledger class is byte-identical to the fault-free run, and the retry
//!   bytes are monotone in the strike rate at a fixed seed (the dedicated
//!   site stream makes lower-rate strike sets subsets of higher-rate ones).
//! * `RecomputeLayer` never moves more DRAM bytes than `RefetchTile` for
//!   the same strike stream, and its recovery is *free* (zero Retry bytes)
//!   exactly when the struck layer's inputs were fully resident on chip —
//!   the shortcut-mining payoff.
//! * Correctable (single-bit) strikes leave the whole ledger byte-identical
//!   to the fault-free run: the SECDED tax is paid in cycles/energy only.
//! * An unprotected BCU mapping-table strike is silent in the analytic run
//!   but can never hide from the value-level replay, which names the
//!   misrouted logical buffer.

use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

use serde::json::to_string;
use shortcut_mining::accel::AccelConfig;
use shortcut_mining::core::functional::verify_value_preservation_with;
use shortcut_mining::core::{
    Experiment, FaultPlan, Policy, Protection, RecoveryAction, RecoveryBudget, RecoveryPolicy,
    SimOptions, TraceEvent,
};
use shortcut_mining::mem::TrafficClass;
use shortcut_mining::model::{zoo, Network};

fn tiny_nets() -> Vec<Network> {
    vec![
        zoo::toy_residual(1),
        zoo::resnet_tiny(2, 1),
        zoo::squeezenet_tiny(1),
        zoo::densenet_tiny(3, 1),
    ]
}

/// Every ledger class except `Retry`.
const NON_RETRY: [TrafficClass; 6] = [
    TrafficClass::IfmRead,
    TrafficClass::OfmWrite,
    TrafficClass::ShortcutRead,
    TrafficClass::SpillWrite,
    TrafficClass::SpillRead,
    TrafficClass::WeightRead,
];

/// A BCU-table plan where every strike is a double-bit DUE (no silent
/// aliasing, no correctable singles), routed to `policy`.
fn due_plan(seed: u64, rate: f64, policy: RecoveryPolicy) -> FaultPlan {
    FaultPlan::new(seed)
        .with_bcu_faults(rate, Protection::Ecc)
        .with_multi_bit(1.0, 0.0)
        .with_recovery(policy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DUEs recovered by `RefetchTile` add only Retry-class bytes: every
    /// other traffic class matches the fault-free run exactly, retry
    /// traffic appears iff a DUE landed, and the value replay still passes.
    #[test]
    fn refetch_due_recovery_adds_only_retry_bytes(
        seed in 0u64..10_000,
        rate in 0.0f64..1.0,
        net_tag in 0usize..4,
    ) {
        let net = &tiny_nets()[net_tag];
        let exp = Experiment::default_config();
        let clean = exp
            .run_checked(net, Policy::shortcut_mining(), &SimOptions::checked())
            .expect("fault-free checked run succeeds");
        let plan = due_plan(seed, rate, RecoveryPolicy::RefetchTile);
        let run = exp
            .run_checked(net, Policy::shortcut_mining(), &SimOptions::with_faults(plan.clone()))
            .expect("refetch recovery never aborts");
        for class in NON_RETRY {
            prop_assert_eq!(
                run.stats.ledger.class_bytes(class),
                clean.stats.ledger.class_bytes(class),
                "{:?} changed under {:?}",
                class,
                &plan
            );
        }
        let retry = run.stats.ledger.class_bytes(TrafficClass::Retry);
        prop_assert_eq!(
            run.stats.faults.due_events > 0,
            retry > 0,
            "DUEs and retry traffic must coincide under {:?}",
            &plan
        );
        prop_assert_eq!(run.stats.faults.due_events, run.stats.faults.recovered_refetch);
        prop_assert_eq!(run.stats.faults.recovered_recompute, 0);
        prop_assert_eq!(run.stats.faults.silent_faults, 0);
        prop_assert!(
            run.stats.total_cycles >= clean.stats.total_cycles,
            "recovery cannot make a run faster"
        );
        verify_value_preservation_with(
            net,
            AccelConfig::default(),
            Policy::shortcut_mining(),
            7,
            &SimOptions::with_faults(plan.clone()),
        )
        .map_err(|e| TestCaseError::fail(format!("refetch replay failed: {e} under {plan:?}")))?;
    }

    /// For the same strike stream, `RecomputeLayer` never moves more DRAM
    /// bytes than `RefetchTile` — recomputing from still-resident inputs
    /// streams at most what the struck layer fetched from DRAM anyway,
    /// while a tile refetch re-DMAs every operand.
    #[test]
    fn recompute_retry_traffic_never_exceeds_refetch(
        seed in 0u64..10_000,
        rate in 0.0f64..1.0,
        net_tag in 0usize..4,
    ) {
        let net = &tiny_nets()[net_tag];
        let exp = Experiment::default_config();
        let refetch = exp
            .run_checked(
                net,
                Policy::shortcut_mining(),
                &SimOptions::with_faults(due_plan(seed, rate, RecoveryPolicy::RefetchTile)),
            )
            .expect("refetch run");
        let recompute = exp
            .run_checked(
                net,
                Policy::shortcut_mining(),
                &SimOptions::with_faults(due_plan(seed, rate, RecoveryPolicy::RecomputeLayer)),
            )
            .expect("recompute run");
        // Same seed, same stream: identical strike sets and DUE counts.
        prop_assert_eq!(refetch.stats.faults.due_events, recompute.stats.faults.due_events);
        prop_assert_eq!(
            recompute.stats.faults.recovered_recompute,
            recompute.stats.faults.due_events
        );
        for class in NON_RETRY {
            prop_assert_eq!(
                recompute.stats.ledger.class_bytes(class),
                refetch.stats.ledger.class_bytes(class)
            );
        }
        prop_assert!(
            recompute.stats.ledger.class_bytes(TrafficClass::Retry)
                <= refetch.stats.ledger.class_bytes(TrafficClass::Retry),
            "recompute moved more bytes than refetch at seed {} rate {}",
            seed,
            rate
        );
    }

    /// Correctable (single-bit) strikes are transparent at the traffic
    /// level: the whole off-chip ledger is byte-identical to the fault-free
    /// run regardless of the strike rate, and no DUE or recovery fires.
    #[test]
    fn correctable_only_runs_leave_the_ledger_untouched(
        seed in 0u64..10_000,
        rate in 0.0f64..1.0,
        net_tag in 0usize..4,
    ) {
        let net = &tiny_nets()[net_tag];
        let exp = Experiment::default_config();
        let clean = exp
            .run_checked(net, Policy::shortcut_mining(), &SimOptions::checked())
            .expect("fault-free checked run succeeds");
        // Width distribution (0, 0): every strike is a corrected single.
        let plan = FaultPlan::new(seed).with_bcu_faults(rate, Protection::Ecc);
        let run = exp
            .run_checked(net, Policy::shortcut_mining(), &SimOptions::with_faults(plan.clone()))
            .expect("CE-only runs never abort");
        prop_assert_eq!(
            to_string(&clean.stats.ledger).expect("ledger serializes"),
            to_string(&run.stats.ledger).expect("ledger serializes"),
            "a corrected strike changed the ledger under {:?}",
            &plan
        );
        prop_assert_eq!(run.stats.faults.due_events, 0);
        prop_assert_eq!(run.stats.faults.silent_faults, 0);
        prop_assert_eq!(
            run.stats.faults.bcu_faults > 0,
            run.stats.faults.ecc_corrections > 0,
            "every landed strike must be corrected under {:?}",
            &plan
        );
    }

    /// Tightening the refetch allowance never increases total traffic:
    /// budget exhaustion escalates to tiers that are cheaper per DUE
    /// (recompute, then rollback), so retry bytes are monotone
    /// non-decreasing in the refetch budget and the unlimited plan is the
    /// most expensive of all.
    #[test]
    fn raising_the_refetch_budget_never_reduces_traffic(
        seed in 0u64..10_000,
        rate in 0.0f64..1.0,
        budget in 0u32..4,
        net_tag in 0usize..4,
    ) {
        let net = &tiny_nets()[net_tag];
        let exp = Experiment::default_config();
        let run_with = |refetches: Option<u32>| {
            let plan = due_plan(seed, rate, RecoveryPolicy::RefetchTile)
                .with_recovery_budget(RecoveryBudget {
                    refetches,
                    ..RecoveryBudget::default()
                });
            exp.run_checked(net, Policy::shortcut_mining(), &SimOptions::with_faults(plan))
                .expect("overflow lands on unlimited cheaper tiers")
        };
        let tight = run_with(Some(budget));
        let loose = run_with(Some(budget + 1));
        let unlimited = run_with(None);
        // Budgets never perturb the strike stream itself.
        prop_assert_eq!(tight.stats.faults.due_events, unlimited.stats.faults.due_events);
        prop_assert!(tight.stats.faults.recovered_refetch <= u64::from(budget));
        let retry = |run: &shortcut_mining::core::SmRun|
            run.stats.ledger.class_bytes(TrafficClass::Retry);
        prop_assert!(
            retry(&tight) <= retry(&loose),
            "raising the refetch budget from {} reduced traffic: {} > {}",
            budget,
            retry(&tight),
            retry(&loose)
        );
        prop_assert!(
            retry(&loose) <= retry(&unlimited),
            "a budgeted run out-spent the unlimited plan: {} > {}",
            retry(&loose),
            retry(&unlimited)
        );
    }

    /// An unprotected mapping-table strike is invisible to the analytic
    /// run but is always caught by the value replay, which localizes the
    /// misroute to a logical buffer.
    #[test]
    fn unprotected_bcu_strikes_never_survive_replay(
        seed in 0u64..10_000,
        net_tag in 0usize..4,
    ) {
        let net = &tiny_nets()[net_tag];
        let exp = Experiment::default_config();
        let plan = FaultPlan::new(seed).with_bcu_faults(1.0, Protection::None);
        let run = exp
            .run_checked(net, Policy::shortcut_mining(), &SimOptions::with_faults(plan.clone()))
            .expect("silent misroutes never abort the analytic run");
        prop_assert!(run.stats.faults.bcu_faults > 0, "rate 1.0 must strike");
        prop_assert_eq!(run.stats.faults.bcu_faults, run.stats.faults.silent_faults);
        prop_assert_eq!(run.stats.ledger.class_bytes(TrafficClass::Retry), 0);
        let err = verify_value_preservation_with(
            net,
            AccelConfig::default(),
            Policy::shortcut_mining(),
            7,
            &SimOptions::with_faults(plan),
        )
        .expect_err("a silent BCU misroute must fail the value replay");
        let msg = err.to_string();
        prop_assert!(
            msg.contains("logical buffer"),
            "diagnostic must name the struck buffer: {}",
            msg
        );
    }
}

/// Retry traffic under `RefetchTile` is monotone in the strike rate at a
/// fixed seed: the dedicated site stream draws a fixed number of variates
/// per layer, so lower-rate strike sets are subsets of higher-rate ones.
#[test]
fn refetch_retry_traffic_is_monotone_in_rate() {
    const LADDER: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
    for net in tiny_nets() {
        let exp = Experiment::default_config();
        let series: Vec<u64> = LADDER
            .iter()
            .map(|&rate| {
                let plan = due_plan(23, rate, RecoveryPolicy::RefetchTile);
                let run = exp
                    .run_checked(
                        &net,
                        Policy::shortcut_mining(),
                        &SimOptions::with_faults(plan),
                    )
                    .unwrap_or_else(|e| panic!("{}: rate {rate}: {e}", net.name()));
                run.stats.ledger.class_bytes(TrafficClass::Retry)
            })
            .collect();
        assert_eq!(
            series[0],
            0,
            "{}: rate 0 must produce no retries",
            net.name()
        );
        for (i, w) in series.windows(2).enumerate() {
            assert!(
                w[1] >= w[0],
                "{}: retry bytes fell from {} to {} between rates {} and {}",
                net.name(),
                w[0],
                w[1],
                LADDER[i],
                LADDER[i + 1]
            );
        }
        assert!(
            *series.last().unwrap() > series[0],
            "{}: rate 1.0 must refetch at least one struck layer",
            net.name()
        );
    }
}

/// `RecomputeLayer`'s recovery traffic is exactly the struck layers' DRAM
/// operand traffic from the fault-free run — in particular zero (a free
/// recovery) for every layer whose inputs were fully resident on chip.
#[test]
fn recompute_recovery_bytes_equal_resident_shortfall() {
    for net in tiny_nets() {
        let exp = Experiment::default_config();
        let clean = exp
            .run_checked(&net, Policy::shortcut_mining(), &SimOptions::checked())
            .expect("fault-free run");
        let run = exp
            .run_checked(
                &net,
                Policy::shortcut_mining(),
                &SimOptions::with_faults(due_plan(23, 1.0, RecoveryPolicy::RecomputeLayer)),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", net.name()));
        let recoveries: Vec<(usize, u64)> = run
            .trace
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Recovery {
                    layer,
                    action: RecoveryAction::Recomputed,
                    retry_bytes,
                    ..
                } => Some((*layer, *retry_bytes)),
                _ => None,
            })
            .collect();
        assert!(
            !recoveries.is_empty(),
            "{}: rate 1.0 must recover at least one layer",
            net.name()
        );
        let mut expected = 0u64;
        let mut free_recoveries = 0usize;
        for &(layer, bytes) in &recoveries {
            // Trace events carry layer *ids* (the network input is 0);
            // `stats.layers` is schedule-indexed, so match by id.
            let t = &clean
                .stats
                .layers
                .iter()
                .find(|l| l.id == layer)
                .unwrap_or_else(|| panic!("{}: no layer with id {layer}", net.name()))
                .traffic;
            let shortfall = t.class(TrafficClass::IfmRead)
                + t.class(TrafficClass::ShortcutRead)
                + t.class(TrafficClass::SpillRead);
            assert_eq!(
                bytes,
                shortfall,
                "{} layer {layer}: recovery bytes must equal the layer's DRAM operand bytes",
                net.name()
            );
            expected += shortfall;
            if shortfall == 0 {
                free_recoveries += 1;
            }
        }
        assert_eq!(
            run.stats.ledger.class_bytes(TrafficClass::Retry),
            expected,
            "{}: total retry must be the sum over recovered layers",
            net.name()
        );
        // The headline payoff: at the default capacity most tiny-net
        // operands are resident, so some recoveries move zero DRAM bytes.
        assert!(
            free_recoveries > 0,
            "{}: expected at least one residency-free recovery",
            net.name()
        );
    }
}

/// A scheduler DUE on the very first layer finds no checkpoint to roll
/// back to (snapshots are taken at layer boundaries, so none precedes the
/// first layer): the `Checkpoint` tier degrades to recompute accounting
/// for exactly that strike, then rolls back everywhere a consistent
/// snapshot exists.
#[test]
fn first_layer_scheduler_strike_falls_back_to_recompute() {
    for net in tiny_nets() {
        let exp = Experiment::default_config();
        let plan = FaultPlan::new(23)
            .with_scheduler_faults(1.0, Protection::Ecc)
            .with_multi_bit(1.0, 0.0)
            .with_recovery(RecoveryPolicy::Checkpoint);
        let run = exp
            .run_checked(
                &net,
                Policy::shortcut_mining(),
                &SimOptions::with_faults(plan),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", net.name()));
        let actions: Vec<RecoveryAction> = run
            .trace
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Recovery { action, .. } => Some(*action),
                _ => None,
            })
            .collect();
        assert_eq!(
            actions.len() as u64,
            run.stats.faults.due_events,
            "{}",
            net.name()
        );
        assert!(
            actions.len() >= 2,
            "{}: rate 1.0 must strike every boundary",
            net.name()
        );
        assert_eq!(
            actions[0],
            RecoveryAction::Recomputed,
            "{}: no checkpoint precedes the first layer",
            net.name()
        );
        assert!(
            actions[1..]
                .iter()
                .all(|&a| a == RecoveryAction::RolledBack),
            "{}: every later boundary has a consistent snapshot: {:?}",
            net.name(),
            actions
        );
        assert_eq!(run.stats.faults.recovered_recompute, 1, "{}", net.name());
        assert_eq!(
            run.stats.faults.recovered_rollback,
            run.stats.faults.due_events - 1,
            "{}",
            net.name()
        );
    }
}

/// Nightly-only: the recovery contracts hold on a mid-size ImageNet
/// network — recompute never exceeds refetch, non-Retry classes match the
/// fault-free ledger, and both policies survive a full-rate DUE storm.
#[test]
fn nightly_midsize_recovery_conformance() {
    if std::env::var("SM_NIGHTLY").map_or(true, |v| v != "1") {
        eprintln!("skipping nightly recovery conformance (set SM_NIGHTLY=1 to run)");
        return;
    }
    let net = zoo::resnet18(1);
    let exp = Experiment::default_config();
    let clean = exp
        .run_checked(&net, Policy::shortcut_mining(), &SimOptions::checked())
        .expect("fault-free run");
    let refetch = exp
        .run_checked(
            &net,
            Policy::shortcut_mining(),
            &SimOptions::with_faults(due_plan(99, 1.0, RecoveryPolicy::RefetchTile)),
        )
        .expect("refetch run");
    let recompute = exp
        .run_checked(
            &net,
            Policy::shortcut_mining(),
            &SimOptions::with_faults(due_plan(99, 1.0, RecoveryPolicy::RecomputeLayer)),
        )
        .expect("recompute run");
    assert!(refetch.stats.faults.due_events > 0);
    assert_eq!(
        refetch.stats.faults.due_events,
        recompute.stats.faults.due_events
    );
    for class in NON_RETRY {
        assert_eq!(
            refetch.stats.ledger.class_bytes(class),
            clean.stats.ledger.class_bytes(class),
            "{class:?} changed under refetch"
        );
        assert_eq!(
            recompute.stats.ledger.class_bytes(class),
            clean.stats.ledger.class_bytes(class),
            "{class:?} changed under recompute"
        );
    }
    let (re_bytes, rc_bytes) = (
        refetch.stats.ledger.class_bytes(TrafficClass::Retry),
        recompute.stats.ledger.class_bytes(TrafficClass::Retry),
    );
    assert!(re_bytes > 0);
    assert!(
        rc_bytes < re_bytes,
        "recompute ({rc_bytes}) must beat refetch ({re_bytes}) on ResNet-18"
    );
}
