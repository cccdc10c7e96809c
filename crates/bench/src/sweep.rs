//! The sweep registry: the one dispatch point behind `smctl serve` and
//! `smctl chaos`.
//!
//! A [`SweepKind`] names a sweep on the wire (`chaos-grid`, …) and runs it
//! on one network: [`SweepKind::run`] takes the request's [`SweepAxes`], a
//! [`RunCtx`] (result-cache session and cancel check) and a [`CellSink`]
//! that receives every cell in index order as it resolves, and returns a
//! [`SweepOutput`] that serializes to the sweep's result document. The
//! sink is a generic parameter, so streaming a cell costs no dynamic
//! dispatch.
//!
//! | kind | sweep | cell type |
//! |---|---|---|
//! | `chaos-curve` | [`chaos_degradation`] | [`ChaosPoint`](crate::experiments::ChaosPoint) |
//! | `chaos-grid` | [`chaos_grid`] | [`ChaosGridCell`](crate::experiments::ChaosGridCell) |
//! | `chaos-grid3` | [`chaos_grid3`] | [`ChaosGrid3Cell`](crate::experiments::ChaosGrid3Cell) |
//! | `control-path` | [`control_path_sweep`] | [`ControlPathPoint`](crate::experiments::ControlPathPoint) |
//! | `scheduler` | [`scheduler_sweep`] | [`SchedulerPoint`](crate::experiments::SchedulerPoint) |
//! | `retry-budget` | [`retry_budget_study`] | [`RetryBudgetPoint`](crate::experiments::RetryBudgetPoint) |
//! | `compare` | [`compare_cells`] at the base config | [`ComparisonCell`] |
//! | `capacity-sweep` | [`compare_cells`] per capacity | [`ComparisonCell`] |

use serde::{Serialize, Serializer};

use sm_accel::AccelConfig;
use sm_core::parallel::Cancelled;

use crate::cas::{KeyedNet, RunCtx};
use crate::experiments::{
    chaos_degradation, chaos_grid, chaos_grid3, compare_cells, control_path_sweep,
    retry_budget_study, scheduler_sweep, ChaosCurve, ChaosGrid, ChaosGrid3, ComparisonCell,
    ControlPathStudy, RetryBudgetStudy, SchedulerStudy, DEFAULT_CAPACITIES_KIB,
};
use crate::report::Table;

/// The axes and fault settings of one sweep. Each kind reads only the
/// fields it sweeps; an axis left `None` takes the kind's default (e.g.
/// [`DEFAULT_GRID_FRACTIONS`](crate::experiments::DEFAULT_GRID_FRACTIONS)
/// for `chaos-grid`).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxes {
    /// Fault-plan seed shared by every cell (default 42).
    pub seed: u64,
    /// Per-attempt DRAM failure probability of `chaos-curve` and
    /// `retry-budget` (default 0.01).
    pub dram_rate: f64,
    /// Retry-budget override; `None` keeps the fault-plan default.
    /// `retry-budget` sweeps `budgets` instead.
    pub retry_budget: Option<u32>,
    /// Bank-failure fractions (`chaos-curve`, `chaos-grid`, `chaos-grid3`).
    pub fractions: Option<Vec<f64>>,
    /// DRAM fault rates (`chaos-grid`, `chaos-grid3`) or strike rates
    /// (`control-path`, `scheduler`).
    pub rates: Option<Vec<f64>>,
    /// Site-strike rates (`chaos-grid3`).
    pub site_rates: Option<Vec<f64>>,
    /// Retry budgets (`retry-budget`).
    pub budgets: Option<Vec<u32>>,
    /// Feature-map SRAM capacities in KiB (`capacity-sweep`).
    pub capacities_kib: Option<Vec<u64>>,
}

impl Default for SweepAxes {
    fn default() -> Self {
        SweepAxes {
            seed: 42,
            dram_rate: 0.01,
            retry_budget: None,
            fractions: None,
            rates: None,
            site_rates: None,
            budgets: None,
            capacities_kib: None,
        }
    }
}

/// Receives a sweep's cells in strictly ascending index order as they
/// resolve; `cached` says whether the result store answered the cell.
pub trait CellSink {
    /// Takes cell `index`.
    fn cell<T: Serialize>(&mut self, index: usize, cached: bool, data: &T);
}

/// Discards every cell: for callers that only want the finished result.
impl CellSink for () {
    fn cell<T: Serialize>(&mut self, _: usize, _: bool, _: &T) {}
}

/// Every sweep `smctl serve` answers, by wire name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepKind {
    /// `chaos-curve`: bank-failure fractions at one DRAM fault rate.
    ChaosCurve,
    /// `chaos-grid`: bank-failure fraction × DRAM fault rate.
    ChaosGrid,
    /// `chaos-grid3`: the grid × weight-SRAM/PE site-strike rate.
    ChaosGrid3,
    /// `control-path`: BCU strikes against the recovery-policy ladder.
    ControlPath,
    /// `scheduler`: scheduler-state strikes against all four tiers.
    Scheduler,
    /// `retry-budget`: DRAM retry budgets at one fault rate.
    RetryBudget,
    /// `compare`: baseline vs Shortcut Mining at the base config.
    Compare,
    /// `capacity-sweep`: `compare` at each feature-map capacity.
    CapacitySweep,
}

impl SweepKind {
    /// Every kind, in the order error messages list them.
    pub const ALL: [SweepKind; 8] = [
        SweepKind::ChaosCurve,
        SweepKind::ChaosGrid,
        SweepKind::ChaosGrid3,
        SweepKind::ControlPath,
        SweepKind::Scheduler,
        SweepKind::RetryBudget,
        SweepKind::Compare,
        SweepKind::CapacitySweep,
    ];

    /// The wire name requests use.
    pub fn name(self) -> &'static str {
        match self {
            SweepKind::ChaosCurve => "chaos-curve",
            SweepKind::ChaosGrid => "chaos-grid",
            SweepKind::ChaosGrid3 => "chaos-grid3",
            SweepKind::ControlPath => "control-path",
            SweepKind::Scheduler => "scheduler",
            SweepKind::RetryBudget => "retry-budget",
            SweepKind::Compare => "compare",
            SweepKind::CapacitySweep => "capacity-sweep",
        }
    }

    /// The kind whose wire name is `name`.
    pub fn parse(name: &str) -> Option<SweepKind> {
        SweepKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The error message for a `name` outside the registry, listing every
    /// kind.
    pub fn unknown(name: &str) -> String {
        let names = SweepKind::ALL.map(SweepKind::name);
        let (last, rest) = names.split_last().expect("the registry is not empty");
        format!(
            "unknown kind {name:?} (expected {}, or {last})",
            rest.join(", ")
        )
    }

    /// Runs this sweep on `net` under `config`, streaming every cell to
    /// `sink` in index order.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] when `ctx`'s cancel check fired first.
    pub fn run<S: CellSink>(
        self,
        net: &KeyedNet,
        config: AccelConfig,
        axes: &SweepAxes,
        ctx: &RunCtx<'_>,
        sink: &mut S,
    ) -> Result<SweepOutput, Cancelled> {
        Ok(match self {
            SweepKind::ChaosCurve => {
                SweepOutput::Curve(chaos_degradation(net, config, axes, ctx, sink)?)
            }
            SweepKind::ChaosGrid => SweepOutput::Grid(chaos_grid(net, config, axes, ctx, sink)?),
            SweepKind::ChaosGrid3 => SweepOutput::Grid3(chaos_grid3(net, config, axes, ctx, sink)?),
            SweepKind::ControlPath => {
                SweepOutput::ControlPath(control_path_sweep(net, config, axes, ctx, sink)?)
            }
            SweepKind::Scheduler => {
                SweepOutput::Scheduler(scheduler_sweep(net, config, axes, ctx, sink)?)
            }
            SweepKind::RetryBudget => {
                SweepOutput::RetryBudget(retry_budget_study(net, config, axes, ctx, sink)?)
            }
            SweepKind::Compare => SweepOutput::Compare(compare_cells(net, &[config], ctx, sink)?),
            SweepKind::CapacitySweep => {
                let configs: Vec<AccelConfig> = axes
                    .capacities_kib
                    .as_deref()
                    .unwrap_or(&DEFAULT_CAPACITIES_KIB)
                    .iter()
                    .map(|&kib| config.with_fm_capacity(kib * 1024))
                    .collect();
                SweepOutput::Compare(compare_cells(net, &configs, ctx, sink)?)
            }
        })
    }
}

/// The finished result of one [`SweepKind::run`]; it serializes as the
/// wrapped study (or, for the comparison kinds, the cell list).
#[derive(Debug)]
pub enum SweepOutput {
    /// A `chaos-curve` result.
    Curve(ChaosCurve),
    /// A `chaos-grid` result.
    Grid(ChaosGrid),
    /// A `chaos-grid3` result.
    Grid3(ChaosGrid3),
    /// A `control-path` result.
    ControlPath(ControlPathStudy),
    /// A `scheduler` result.
    Scheduler(SchedulerStudy),
    /// A `retry-budget` result.
    RetryBudget(RetryBudgetStudy),
    /// A `compare` or `capacity-sweep` result, one cell per config.
    Compare(Vec<ComparisonCell>),
}

impl SweepOutput {
    /// The result document, as compact JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string(self).expect("sweep results serialize")
    }

    /// The text tables `smctl chaos` prints. Comparison cells have none:
    /// `smctl compare` and the figures render comparisons themselves.
    pub fn tables(&self) -> Vec<Table> {
        match self {
            SweepOutput::Curve(c) => vec![c.table()],
            SweepOutput::Grid(g) => vec![g.table()],
            SweepOutput::Grid3(g) => g.tables(),
            SweepOutput::ControlPath(s) => vec![s.table()],
            SweepOutput::Scheduler(s) => vec![s.table()],
            SweepOutput::RetryBudget(s) => vec![s.table()],
            SweepOutput::Compare(_) => Vec::new(),
        }
    }
}

impl Serialize for SweepOutput {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            SweepOutput::Curve(c) => c.serialize(serializer),
            SweepOutput::Grid(g) => g.serialize(serializer),
            SweepOutput::Grid3(g) => g.serialize(serializer),
            SweepOutput::ControlPath(s) => s.serialize(serializer),
            SweepOutput::Scheduler(s) => s.serialize(serializer),
            SweepOutput::RetryBudget(s) => s.serialize(serializer),
            SweepOutput::Compare(cells) => cells.serialize(serializer),
        }
    }
}

#[cfg(test)]
mod tests {
    use sm_model::zoo;

    use super::*;
    use crate::cas::ResultCache;
    use crate::service::{run_serve, ServeOptions};

    /// Records which cells arrived, in arrival order.
    #[derive(Default)]
    struct Recorder(Vec<(usize, bool)>);

    impl CellSink for Recorder {
        fn cell<T: Serialize>(&mut self, index: usize, cached: bool, _: &T) {
            self.0.push((index, cached));
        }
    }

    #[test]
    fn every_kind_parses_from_its_wire_name() {
        for kind in SweepKind::ALL {
            assert_eq!(SweepKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(SweepKind::parse("nope"), None);
        assert_eq!(SweepKind::parse("Chaos-Grid"), None);
    }

    #[test]
    fn unknown_kind_message_lists_the_registry() {
        assert_eq!(
            SweepKind::unknown("nope"),
            "unknown kind \"nope\" (expected chaos-curve, chaos-grid, chaos-grid3, \
             control-path, scheduler, retry-budget, compare, or capacity-sweep)"
        );
    }

    #[test]
    fn served_results_equal_the_registry_run_for_every_kind() {
        let dir = std::env::temp_dir().join(format!("sm-sweep-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultCache::open(&dir).unwrap();
        let net = KeyedNet::new(zoo::toy_residual(1));
        let requests: String = SweepKind::ALL
            .iter()
            .map(|k| {
                format!(
                    "{{\"id\":\"{0}\",\"kind\":\"{0}\",\"network\":\"toy_residual\"}}\n",
                    k.name()
                )
            })
            .collect();
        let mut out = Vec::new();
        run_serve(
            requests.as_bytes(),
            &mut out,
            &store,
            &ServeOptions::default(),
        )
        .unwrap();
        let out = String::from_utf8(out).unwrap();
        for kind in SweepKind::ALL {
            let done = out
                .lines()
                .find(|l| {
                    l.starts_with(&format!("{{\"id\":\"{}\",\"event\":\"done\"", kind.name()))
                })
                .unwrap_or_else(|| panic!("no done event for {}:\n{out}", kind.name()));
            let served = done
                .split("\"result\":")
                .nth(1)
                .and_then(|r| r.split(",\"cache\":").next())
                .unwrap();
            let mut cells = Recorder::default();
            let direct = kind
                .run(
                    &net,
                    AccelConfig::default(),
                    &SweepAxes::default(),
                    &RunCtx::default(),
                    &mut cells,
                )
                .unwrap();
            assert_eq!(served, direct.to_json(), "{}", kind.name());
            // Every cell reached the sink once, in index order, computed.
            let expected: Vec<(usize, bool)> = (0..cells.0.len()).map(|i| (i, false)).collect();
            assert!(!cells.0.is_empty(), "{}", kind.name());
            assert_eq!(cells.0, expected, "{}", kind.name());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
