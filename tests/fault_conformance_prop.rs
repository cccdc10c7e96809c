//! Conformance properties of the weight-SRAM / PE-array fault sites.
//!
//! The protection policies make externally checkable promises:
//!
//! * `Ecc` is *transparent at the traffic level*: any seeded site-fault
//!   plan leaves the off-chip ledger byte-identical to the fault-free run
//!   (the tax is paid in cycles and energy only), and value-preservation
//!   replay still passes.
//! * `Parity` is *value-safe and monotone*: replay passes at any rate, and
//!   the `TrafficClass::Retry` bytes charged for weight refetches never
//!   decrease as the fault rate grows at a fixed seed (the site stream
//!   draws a fixed number of variates per layer, so lower-rate strike sets
//!   are subsets of higher-rate ones by construction).

use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

use serde::json::to_string;
use shortcut_mining::accel::AccelConfig;
use shortcut_mining::core::functional::verify_value_preservation_with;
use shortcut_mining::core::{Experiment, FaultPlan, Policy, Protection, SimOptions};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ECC-protected site faults never change what crosses the chip
    /// boundary: the serialized traffic ledger matches the fault-free
    /// run byte for byte, cycles only ever grow (the check tax), and the
    /// functional replay reconstructs identical values.
    #[test]
    fn ecc_runs_reproduce_fault_free_traffic_exactly(
        seed in 0u64..10_000,
        weight_rate in 0.0f64..1.0,
        pe_rate in 0.0f64..1.0,
        net_tag in 0usize..4,
    ) {
        let net = &tiny_nets()[net_tag];
        let exp = Experiment::default_config();
        let clean = exp
            .run_checked(net, Policy::shortcut_mining(), &SimOptions::checked())
            .expect("fault-free checked run succeeds");
        let plan = FaultPlan::new(seed)
            .with_weight_faults(weight_rate, Protection::Ecc)
            .with_pe_faults(pe_rate, Protection::Ecc);
        let run = exp
            .run_checked(net, Policy::shortcut_mining(), &SimOptions::with_faults(plan.clone()))
            .expect("ECC runs never abort");
        let clean_ledger = to_string(&clean.stats.ledger).expect("ledger serializes");
        let ecc_ledger = to_string(&run.stats.ledger).expect("ledger serializes");
        prop_assert_eq!(
            clean_ledger,
            ecc_ledger,
            "ECC changed the traffic ledger under {:?}",
            plan
        );
        prop_assert_eq!(run.stats.ledger.class_bytes(TrafficClass::Retry), 0);
        prop_assert!(
            run.stats.total_cycles >= clean.stats.total_cycles,
            "the ECC tax cannot make a run faster"
        );
        prop_assert_eq!(run.stats.faults.silent_faults, 0);
        prop_assert_eq!(run.stats.faults.parity_detections, 0);
        verify_value_preservation_with(
            net,
            AccelConfig::default(),
            Policy::shortcut_mining(),
            7,
            &SimOptions::with_faults(plan.clone()),
        )
        .map_err(|e| TestCaseError::fail(format!("ECC replay failed: {e} under {plan:?}")))?;
    }

    /// Parity-protected site faults are always repaired: replay passes at
    /// any seeded rate, silent corruption is impossible, and every weight
    /// strike shows up as retry traffic.
    #[test]
    fn parity_runs_pass_replay_at_any_rate(
        seed in 0u64..10_000,
        weight_rate in 0.0f64..1.0,
        pe_rate in 0.0f64..1.0,
        net_tag in 0usize..4,
    ) {
        let net = &tiny_nets()[net_tag];
        let exp = Experiment::default_config();
        let plan = FaultPlan::new(seed)
            .with_weight_faults(weight_rate, Protection::Parity)
            .with_pe_faults(pe_rate, Protection::Parity);
        let run = exp
            .run_checked(net, Policy::shortcut_mining(), &SimOptions::with_faults(plan.clone()))
            .expect("parity runs never abort");
        prop_assert_eq!(run.stats.faults.silent_faults, 0);
        prop_assert_eq!(
            run.stats.faults.weight_faults > 0,
            run.stats.ledger.class_bytes(TrafficClass::Retry) > 0,
            "weight strikes and retry traffic must coincide under {:?}",
            plan
        );
        verify_value_preservation_with(
            net,
            AccelConfig::default(),
            Policy::shortcut_mining(),
            7,
            &SimOptions::with_faults(plan.clone()),
        )
        .map_err(|e| TestCaseError::fail(format!("parity replay failed: {e} under {plan:?}")))?;
    }
}

/// Retry traffic under parity is monotone in the fault rate at a fixed
/// seed — the dedicated site stream guarantees lower-rate strike sets are
/// subsets of higher-rate ones — and strictly grows from rate 0 (never a
/// strike) to rate 1 (every weight-carrying layer struck).
#[test]
fn parity_retry_traffic_is_monotone_in_rate() {
    const LADDER: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
    for net in tiny_nets() {
        let exp = Experiment::default_config();
        let series: Vec<u64> = LADDER
            .iter()
            .map(|&rate| {
                let plan = FaultPlan::new(23)
                    .with_weight_faults(rate, Protection::Parity)
                    .with_pe_faults(rate, Protection::Parity);
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
            "{}: rate 1.0 must refetch every weight-carrying layer",
            net.name()
        );
    }
}

/// The unprotected policy is the contrast case: a guaranteed strike with
/// `Protection::None` is invisible to the traffic ledger and the cycle
/// model but cannot hide from the value-level replay.
#[test]
fn unprotected_strikes_are_silent_until_replay() {
    let net = zoo::resnet_tiny(2, 1);
    let exp = Experiment::default_config();
    let plan = FaultPlan::new(3).with_pe_faults(1.0, Protection::None);
    let run = exp
        .run_checked(
            &net,
            Policy::shortcut_mining(),
            &SimOptions::with_faults(plan.clone()),
        )
        .expect("silent faults never abort the analytic run");
    assert!(run.stats.faults.silent_faults > 0);
    assert_eq!(run.stats.ledger.class_bytes(TrafficClass::Retry), 0);
    assert!(
        verify_value_preservation_with(
            &net,
            AccelConfig::default(),
            Policy::shortcut_mining(),
            7,
            &SimOptions::with_faults(plan),
        )
        .is_err(),
        "a silent PE strike must fail the value replay"
    );
}

/// Nightly-only: the ECC-transparency and parity-monotonicity contracts
/// hold on a mid-size ImageNet network, not just CIFAR-scale graphs.
#[test]
fn nightly_midsize_site_fault_conformance() {
    if std::env::var("SM_NIGHTLY").map_or(true, |v| v != "1") {
        eprintln!("skipping nightly site-fault conformance (set SM_NIGHTLY=1 to run)");
        return;
    }
    let net = zoo::resnet18(1);
    let exp = Experiment::default_config();
    let clean = exp
        .run_checked(&net, Policy::shortcut_mining(), &SimOptions::checked())
        .expect("fault-free run");
    let ecc = FaultPlan::new(99)
        .with_weight_faults(0.5, Protection::Ecc)
        .with_pe_faults(0.5, Protection::Ecc);
    let run = exp
        .run_checked(
            &net,
            Policy::shortcut_mining(),
            &SimOptions::with_faults(ecc),
        )
        .expect("ECC run");
    assert_eq!(
        to_string(&clean.stats.ledger).unwrap(),
        to_string(&run.stats.ledger).unwrap()
    );
    let mut prev = 0u64;
    for rate in [0.0, 0.5, 1.0] {
        let plan = FaultPlan::new(99).with_weight_faults(rate, Protection::Parity);
        let retry = exp
            .run_checked(
                &net,
                Policy::shortcut_mining(),
                &SimOptions::with_faults(plan),
            )
            .expect("parity run")
            .stats
            .ledger
            .class_bytes(TrafficClass::Retry);
        assert!(retry >= prev, "retry bytes fell at rate {rate}");
        prev = retry;
    }
    assert!(prev > 0);
}
