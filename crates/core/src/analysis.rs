//! Capacity planning analysis: how much on-chip SRAM a network needs for
//! Shortcut Mining to deliver its full benefit.
//!
//! Three quantities matter to an architect sizing the bank pool:
//!
//! * [`peak_live_bytes`] — the liveness lower bound: the largest set of
//!   feature-map bytes simultaneously alive under the schedule. No pool
//!   smaller than this can ever keep everything on chip.
//! * [`ReuseBounds::ideal_reduction`] — the traffic reduction at effectively
//!   infinite capacity: the ceiling set by the network topology (boundary
//!   I/O and streaming overheads remain).
//! * [`ReuseBounds::capacity_for_fraction`] — the smallest pool (via
//!   bisection over simulated runs) achieving a target fraction of that
//!   ceiling.

use serde::Serialize;

use sm_accel::{AccelConfig, BaselineAccelerator};
use sm_model::liveness::Liveness;
use sm_model::Network;

use crate::{Policy, ShortcutMiner, SimError, SimOptions};

/// Capacity used as "effectively infinite" for the ideal-reduction probe.
const INFINITE_CAPACITY: u64 = 1 << 30;

/// Liveness lower bound on the pool capacity for an all-on-chip schedule,
/// in bytes at the configuration's element width.
pub fn peak_live_bytes(net: &Network, elem_bytes: u64) -> u64 {
    let (peak_elems, _) = Liveness::of(net).peak_live_elems();
    peak_elems as u64 * elem_bytes
}

/// Reduction achieved by `policy` at feature-map capacity `bytes`, against
/// the baseline at the *same* capacity (iso-capacity comparison).
///
/// Returns [`SimError::Analysis`] for malformed questions (an empty network
/// or a zero-byte pool) instead of panicking deep inside the simulators, and
/// propagates any simulation error from either run.
pub fn reduction_at_capacity(
    net: &Network,
    base_config: AccelConfig,
    policy: Policy,
    bytes: u64,
) -> Result<f64, SimError> {
    if net.layers().is_empty() {
        return Err(SimError::Analysis {
            message: "cannot compute a traffic reduction for an empty network".into(),
        });
    }
    if bytes == 0 {
        return Err(SimError::Analysis {
            message: "feature-map capacity of 0 bytes admits no schedule".into(),
        });
    }
    let cfg = base_config.with_fm_capacity(bytes);
    let base = BaselineAccelerator::new(cfg).try_simulate(net)?;
    let sm = ShortcutMiner::new(cfg, policy).try_simulate(net, &SimOptions::default())?;
    Ok(1.0 - sm.stats.fm_traffic_bytes() as f64 / base.fm_traffic_bytes().max(1) as f64)
}

/// Reuse bounds of one network under one configuration/policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ReuseBounds {
    /// Liveness lower bound in bytes.
    pub peak_live_bytes: u64,
    /// Traffic reduction at effectively infinite capacity.
    pub ideal_reduction: f64,
    /// Reduction at the configuration's own capacity.
    pub configured_reduction: f64,
}

impl ReuseBounds {
    /// Computes the bounds for `net`, propagating any simulation or
    /// malformed-input error from the two probe runs.
    pub fn of(net: &Network, config: AccelConfig, policy: Policy) -> Result<ReuseBounds, SimError> {
        Ok(ReuseBounds {
            peak_live_bytes: peak_live_bytes(net, config.elem_bytes),
            ideal_reduction: reduction_at_capacity(net, config, policy, INFINITE_CAPACITY)?,
            configured_reduction: reduction_at_capacity(
                net,
                config,
                policy,
                config.sram.fm_bytes(),
            )?,
        })
    }

    /// Smallest feature-map capacity (bisection, 8 KiB resolution) at
    /// which `policy` achieves at least `fraction` of these bounds' ideal
    /// reduction; `net`, `config` and `policy` must be the ones the bounds
    /// were computed for. Reusing the ideal saves re-simulating the 1 GiB
    /// probe. Returns `Ok(None)` when even an effectively infinite pool
    /// misses the target (fraction > 1), and [`SimError::Analysis`] for a
    /// fraction that is not a finite non-negative number.
    pub fn capacity_for_fraction(
        &self,
        net: &Network,
        config: AccelConfig,
        policy: Policy,
        fraction: f64,
    ) -> Result<Option<u64>, SimError> {
        if !fraction.is_finite() || fraction < 0.0 {
            return Err(SimError::Analysis {
                message: format!("target fraction {fraction} is not a finite non-negative number"),
            });
        }
        let ideal = self.ideal_reduction;
        let target = ideal * fraction;
        if ideal < target {
            return Ok(None);
        }
        let (mut lo, mut hi) = (8u64 * 1024, INFINITE_CAPACITY);
        if reduction_at_capacity(net, config, policy, lo)? >= target {
            return Ok(Some(lo));
        }
        // Invariant: reduction(lo) < target <= reduction(hi). Reduction is
        // monotone in capacity up to simulation granularity; bisection
        // finds the crossover to 8 KiB.
        while hi - lo > 8 * 1024 {
            let mid = lo + (hi - lo) / 2;
            if reduction_at_capacity(net, config, policy, mid)? >= target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Ok(Some(hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_model::zoo;

    #[test]
    fn ideal_reduction_is_an_upper_bound() {
        let cfg = AccelConfig::default();
        for net in [zoo::resnet34(1), zoo::squeezenet_v10_simple_bypass(1)] {
            let b = ReuseBounds::of(&net, cfg, Policy::shortcut_mining()).expect("valid input");
            assert!(
                b.ideal_reduction >= b.configured_reduction - 1e-9,
                "{}: {b:?}",
                net.name()
            );
            assert!(
                b.ideal_reduction > 0.9,
                "{}: {}",
                net.name(),
                b.ideal_reduction
            );
            assert!(b.peak_live_bytes > 0);
        }
    }

    #[test]
    fn peak_live_tracks_the_biggest_stage() {
        // ResNet-34's peak live set is around the stem/conv2 boundary:
        // several hundred KiB at 16-bit.
        let bytes = peak_live_bytes(&zoo::resnet34(1), 2);
        assert!((1 << 20..16 << 20).contains(&bytes), "{bytes}");
        // The toy network's peak is tiny.
        let toy = peak_live_bytes(&zoo::toy_residual(1), 2);
        assert!(toy < 8 << 10, "{toy}");
    }

    #[test]
    fn capacity_bisection_finds_a_sufficient_pool() {
        let cfg = AccelConfig::default();
        let net = zoo::resnet_tiny(2, 1);
        let cap = ReuseBounds::of(&net, cfg, Policy::shortcut_mining())
            .expect("valid input")
            .capacity_for_fraction(&net, cfg, Policy::shortcut_mining(), 0.95)
            .expect("valid input")
            .expect("achievable");
        let at_cap =
            reduction_at_capacity(&net, cfg, Policy::shortcut_mining(), cap).expect("valid");
        let ideal =
            reduction_at_capacity(&net, cfg, Policy::shortcut_mining(), 1 << 30).expect("valid");
        assert!(at_cap >= 0.95 * ideal - 1e-9, "{at_cap} vs {ideal}");
        // And it is genuinely small for a CIFAR-scale network.
        assert!(cap <= 1 << 20, "{cap}");
    }

    #[test]
    fn malformed_questions_become_typed_errors() {
        let cfg = AccelConfig::default();
        let net = zoo::toy_residual(1);
        // Zero capacity is refused up front, not deep in the simulator.
        let err = reduction_at_capacity(&net, cfg, Policy::shortcut_mining(), 0)
            .expect_err("zero capacity");
        assert!(matches!(err, SimError::Analysis { .. }), "{err}");
        // A non-finite target fraction is refused the same way.
        let bounds = ReuseBounds::of(&net, cfg, Policy::shortcut_mining()).expect("valid input");
        for bad in [f64::NAN, f64::INFINITY, -0.5] {
            let err = bounds
                .capacity_for_fraction(&net, cfg, Policy::shortcut_mining(), bad)
                .expect_err("bad fraction");
            assert!(matches!(err, SimError::Analysis { .. }), "{err}");
        }
        // An over-unity fraction is a well-formed question with answer "no".
        let none = bounds
            .capacity_for_fraction(&net, cfg, Policy::shortcut_mining(), 1.5)
            .expect("well-formed question");
        assert_eq!(none, None);
    }
}
