//! Serde round-trips for every serializable configuration type: a config
//! written by `to_json` must read back equal via `from_json`, including
//! non-default values, so experiment configs can be stored and replayed.

use serde::json::{from_str, to_string};
use shortcut_mining::accel::{AccelConfig, SramPlan};
use shortcut_mining::buffer::BankPoolConfig;
use shortcut_mining::core::{AllocPriority, FaultPlan, Policy, Protection, SpillOrder};
use shortcut_mining::mem::DramConfig;

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::Deserialize + PartialEq + std::fmt::Debug,
{
    let json = to_string(value).unwrap_or_else(|e| panic!("serialize: {e}"));
    from_str(&json).unwrap_or_else(|e| panic!("deserialize {json}: {e}"))
}

#[test]
fn accel_config_roundtrips() {
    for cfg in [
        AccelConfig::default(),
        AccelConfig::default().with_fm_capacity(96 << 10),
        AccelConfig::default().with_dram_bandwidth(16.0),
    ] {
        assert_eq!(roundtrip(&cfg), cfg);
    }
}

#[test]
fn bank_pool_config_roundtrips() {
    let pool = BankPoolConfig::new(48, 8 * 1024);
    assert_eq!(roundtrip(&pool), pool);
}

#[test]
fn sram_plan_roundtrips() {
    let plan = SramPlan {
        fm_pool: BankPoolConfig::new(16, 20 * 1024),
        weight_bytes: 256 * 1024,
    };
    assert_eq!(roundtrip(&plan), plan);
}

#[test]
fn dram_config_roundtrips() {
    let chan = DramConfig {
        bytes_per_cycle: 6.5,
        burst_bytes: 128,
        transfer_latency: 42,
        clock_hz: 150.0e6,
    };
    assert_eq!(roundtrip(&chan), chan);
}

#[test]
fn every_policy_roundtrips() {
    for policy in [
        Policy::baseline(),
        Policy::reuse_disabled(),
        Policy::swap_only(),
        Policy::mining_only(),
        Policy::shortcut_mining(),
        Policy::shortcut_mining().with_swap_by_copy(),
        Policy::shortcut_mining().with_adaptive_tiling(),
        Policy::shortcut_mining().with_spill_order(SpillOrder::NearestJunctionFirst),
    ] {
        assert_eq!(roundtrip(&policy), policy);
    }
}

#[test]
fn policy_enums_roundtrip_as_variant_names() {
    let json = to_string(&SpillOrder::NearestJunctionFirst).unwrap();
    assert_eq!(json, r#""NearestJunctionFirst""#);
    assert_eq!(
        from_str::<SpillOrder>(&json).unwrap(),
        SpillOrder::NearestJunctionFirst
    );
    assert_eq!(
        from_str::<AllocPriority>(r#""OutputFirst""#).unwrap(),
        AllocPriority::OutputFirst
    );
    assert!(from_str::<AllocPriority>(r#""Nonsense""#).is_err());
}

#[test]
fn mismatched_shapes_error_instead_of_defaulting() {
    assert!(from_str::<AccelConfig>(r#"{"pe_rows":64}"#).is_err());
    assert!(from_str::<DramConfig>("[1,2,3]").is_err());
    assert!(from_str::<Policy>("null").is_err());
}

#[test]
fn fault_plan_roundtrips_with_site_fields() {
    let plan = FaultPlan::new(11)
        .with_bank_failures(0.2)
        .with_dram_faults(0.05)
        .with_weight_faults(0.1, Protection::Parity)
        .with_pe_faults(0.3, Protection::Ecc);
    assert_eq!(roundtrip(&plan), plan);
}

#[test]
fn serde_rename_controls_the_wire_key_and_roundtrips() {
    // Field-level `#[serde(rename)]` support in the vendored derive: the
    // wire key is the renamed one (alone and combined with `default`).
    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Renamed {
        #[serde(rename = "wire_name")]
        local_name: u32,
        #[serde(default, rename = "optional_wire")]
        optional_local: f64,
    }
    let value = Renamed {
        local_name: 7,
        optional_local: 0.5,
    };
    let json = to_string(&value).unwrap();
    assert!(json.contains(r#""wire_name":7"#), "{json}");
    assert!(json.contains(r#""optional_wire":0.5"#), "{json}");
    assert!(!json.contains("local_name"), "{json}");
    assert_eq!(roundtrip(&value), value);
    // The renamed key is the only accepted spelling; the Rust name errors.
    assert!(from_str::<Renamed>(r#"{"local_name":7}"#).is_err());
    // A renamed `default` field may still be absent.
    assert_eq!(
        from_str::<Renamed>(r#"{"wire_name":7}"#).unwrap(),
        Renamed {
            local_name: 7,
            optional_local: 0.0,
        }
    );
}

#[test]
fn fault_plan_roundtrips_with_control_path_fields() {
    use shortcut_mining::core::RecoveryPolicy;
    let plan = FaultPlan::new(23)
        .with_bcu_faults(0.2, Protection::Ecc)
        .with_multi_bit(0.4, 0.1)
        .with_recovery(RecoveryPolicy::RecomputeLayer);
    assert_eq!(roundtrip(&plan), plan);
    // The width/recovery fields serialize under their renamed wire keys.
    let json = to_string(&plan).unwrap();
    assert!(json.contains(r#""multi_bit_double_rate":0.4"#), "{json}");
    assert!(json.contains(r#""multi_bit_triple_rate":0.1"#), "{json}");
    assert!(
        json.contains(r#""recovery_policy":"RecomputeLayer""#),
        "{json}"
    );
    assert!(!json.contains("mbu_double_rate"), "{json}");
}

#[test]
fn pre_control_path_fault_plan_json_still_loads() {
    // A plan serialized before the BCU / multi-bit / recovery fields
    // existed: the six original fields plus the weight/PE site fields.
    // `#[serde(default)]` must fill the control-path fields with
    // inject-nothing defaults instead of erroring.
    let json = r#"{
        "seed": 9,
        "bank_fail_fraction": 0.1,
        "dram_fault_rate": 0.02,
        "max_retries": 4,
        "retry_stall_cycles": 96,
        "corruption_rate": 0.0,
        "weight_fault_rate": 0.2,
        "weight_protection": "Ecc",
        "pe_fault_rate": 0.1,
        "pe_protection": "Parity"
    }"#;
    let plan: FaultPlan = from_str(json).unwrap_or_else(|e| panic!("old plan: {e}"));
    assert_eq!(plan.seed, 9);
    assert_eq!(plan.weight_protection, Protection::Ecc);
    assert_eq!(plan.bcu_fault_rate, 0.0);
    assert_eq!(plan.bcu_protection, Protection::None);
    assert_eq!(plan.mbu_double_rate, 0.0);
    assert_eq!(plan.mbu_triple_rate, 0.0);
    assert_eq!(plan.recovery, shortcut_mining::core::RecoveryPolicy::Abort);
    // A present-but-malformed control-path field is still a hard error.
    let bad = r#"{
        "seed": 1,
        "bank_fail_fraction": 0.0,
        "dram_fault_rate": 0.0,
        "max_retries": 3,
        "retry_stall_cycles": 64,
        "corruption_rate": 0.0,
        "recovery_policy": "RollbackEpoch"
    }"#;
    assert!(from_str::<FaultPlan>(bad).is_err());
}

#[test]
fn pre_site_fault_plan_json_still_loads() {
    // A plan serialized before the weight-SRAM / PE-array fields existed:
    // exactly the original six fields. `#[serde(default)]` must fill the
    // site fields with inject-nothing defaults instead of erroring.
    let json = r#"{
        "seed": 42,
        "bank_fail_fraction": 0.25,
        "dram_fault_rate": 0.1,
        "max_retries": 5,
        "retry_stall_cycles": 128,
        "corruption_rate": 0.05
    }"#;
    let plan: FaultPlan = from_str(json).unwrap_or_else(|e| panic!("old plan: {e}"));
    assert_eq!(plan.seed, 42);
    assert_eq!(plan.max_retries, 5);
    assert_eq!(plan.weight_fault_rate, 0.0);
    assert_eq!(plan.weight_protection, Protection::None);
    assert_eq!(plan.pe_fault_rate, 0.0);
    assert_eq!(plan.pe_protection, Protection::None);
    // Defaulting tolerates *absent* keys only: a present-but-malformed
    // site field must still be a hard error.
    let bad = r#"{
        "seed": 1,
        "bank_fail_fraction": 0.0,
        "dram_fault_rate": 0.0,
        "max_retries": 3,
        "retry_stall_cycles": 64,
        "corruption_rate": 0.0,
        "weight_protection": "Hamming"
    }"#;
    assert!(from_str::<FaultPlan>(bad).is_err());
    // And the original fields are still mandatory.
    assert!(from_str::<FaultPlan>(r#"{"seed": 1}"#).is_err());
}
