//! Command-line interface logic for the `smctl` binary.
//!
//! Parsing and command execution live here (unit-testable); `src/bin/smctl.rs`
//! is a thin `main`. No argument-parsing dependency: the grammar is
//! [`USAGE`], ten subcommands with a handful of `--key value` options, and
//! each subcommand accepts exactly the flags its entry there lists.

use std::fmt;

use serde::json::to_string;
use sm_accel::AccelConfig;
use sm_bench::cas::{KeyedNet, RunCtx};
use sm_bench::experiments::{compare_cells, DEFAULT_CAPACITIES_KIB};
use sm_bench::sweep::{SweepAxes, SweepKind};
use sm_core::functional::verify_value_preservation;
use sm_core::{analysis, Experiment, Policy, SpillOrder};
use sm_model::stats::NetworkStats;
use sm_model::{zoo, Network};

/// Parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List available networks with their statistics.
    Networks,
    /// Baseline-vs-policy comparison on one network.
    Compare {
        /// Network name (see [`network_by_name`]).
        network: String,
        /// Feature-map SRAM capacity override in KiB.
        capacity_kib: Option<u64>,
        /// Batch size (default 1).
        batch: usize,
        /// Policy name (default `shortcut-mining`).
        policy: Policy,
        /// Emit the two `RunStats` as a JSON document instead of text.
        json: bool,
    },
    /// Reuse bounds and capacity planning for one network.
    Analyze {
        /// Network name.
        network: String,
        /// Batch size (default 1).
        batch: usize,
    },
    /// Value-preservation check (tiny networks only — golden execution).
    Verify {
        /// Network name.
        network: String,
        /// Input/weight seed (default 42).
        seed: u64,
    },
    /// Capacity sweep: traffic reduction and speedup from 64 KiB to 4 MiB.
    Sweep {
        /// Network name.
        network: String,
        /// Batch size (default 1).
        batch: usize,
    },
    /// Per-layer traffic/cycle report under both architectures.
    Layers {
        /// Network name.
        network: String,
        /// Batch size (default 1).
        batch: usize,
    },
    /// Graceful-degradation sweep under injected faults.
    Chaos {
        /// Network name, or `headline` for ResNet-34 + SqueezeNet.
        network: String,
        /// Batch size (default 1).
        batch: usize,
        /// The sweep, chosen by at most one mode flag: `chaos-curve` (no
        /// flag), `retry-budget` (`--budget-sweep`), `chaos-grid`
        /// (`--grid`), `chaos-grid3` (`--grid --site-rate`), `control-path`
        /// (`--control-path`) or `scheduler` (`--scheduler`).
        kind: SweepKind,
        /// Seed (`--seed`), DRAM fault rate (`--dram-rate`), retry-budget
        /// override (`--retry-budget`) and site-strike rates
        /// (`--site-rate`); every other axis takes the kind's default.
        axes: SweepAxes,
        /// Persistent content-addressed result cache directory
        /// (`--cache-dir`): cells already in the cache are loaded instead of
        /// re-simulated, and computed cells are written back.
        cache_dir: Option<String>,
        /// Load the network from a graph JSON file (`--net-file`) instead of
        /// the zoo; replaces the network name and fixes the batch.
        net_file: Option<String>,
        /// Emit the degradation curves as a JSON document instead of text.
        json: bool,
    },
    /// Per-layer performance telemetry: cycle/stall breakdown, occupancy,
    /// and (under injected faults) per-layer DUE vulnerability.
    Report {
        /// Network name.
        network: String,
        /// Batch size (default 1).
        batch: usize,
        /// Policy name (default `shortcut-mining`).
        policy: Policy,
        /// Emit one record per layer instead of the run-level totals.
        per_layer: bool,
        /// Emit JSON instead of a text table.
        json: bool,
        /// Fault-plan seed (default 42; only used when faults are active).
        seed: u64,
        /// Per-attempt DRAM failure probability (default 0 — fault-free).
        dram_rate: f64,
        /// Site-strike rate on the weight SRAM and PE array (ECC-protected,
        /// refetch recovery), populating the per-layer DUE column.
        site_rate: Option<f64>,
        /// Load the network from a graph JSON file (`--net-file`) instead of
        /// the zoo; replaces the network name and fixes the batch.
        net_file: Option<String>,
    },
    /// Export a zoo network as a graph JSON document (`sm-graph-v1`).
    Export {
        /// Network name.
        network: String,
        /// Batch size baked into the exported input shape (default 1).
        batch: usize,
        /// Write the document here instead of printing it.
        out: Option<String>,
    },
    /// Resident sweep service: newline-delimited JSON requests on stdin,
    /// streamed JSON events on stdout, one shared result cache.
    Serve {
        /// Result-cache directory shared by every request (`--cache-dir`,
        /// required: a store serves cells by input key alone, so no default
        /// directory is shared between builds).
        cache_dir: String,
        /// Maximum concurrently executing requests (`--max-inflight`;
        /// default: the worker-thread count).
        max_inflight: Option<usize>,
        /// Deadline applied to requests without their own `deadline_ms`
        /// field (`--default-deadline-ms`).
        default_deadline_ms: Option<u64>,
        /// Bound on on-disk cache size in bytes (`--cache-max-bytes`);
        /// least-recently-used entries are evicted past the bound.
        cache_max_bytes: Option<u64>,
        /// Uniform injected I/O fault rate for the store
        /// (`--io-fault-rate`, testing/soak only).
        io_fault_rate: Option<f64>,
        /// Seed for the injected-fault plan (`--io-fault-seed`,
        /// default 42).
        io_fault_seed: u64,
        /// Pin `ms` fields to 0 so outputs compare bytewise
        /// (`--deterministic`).
        deterministic: bool,
    },
}

/// CLI error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// Usage text.
pub const USAGE: &str = "\
smctl — Shortcut Mining simulator CLI

USAGE:
  smctl networks
  smctl compare <network> [--capacity <KiB>] [--batch <n>] [--policy <name>] [--json]
  smctl analyze <network> [--batch <n>]
  smctl verify  <network> [--seed <n>]
  smctl sweep   <network> [--batch <n>]
  smctl layers  <network> [--batch <n>]
  smctl chaos   [<network>|headline] [--net-file <path>] [--batch <n>]
                [--seed <n>] [--dram-rate <p>]
                [--retry-budget <n>] [--budget-sweep] [--grid]
                [--site-rate <p,p,...>] [--control-path] [--scheduler]
                [--cache-dir <path>] [--json]
                (network defaults to `headline` = ResNet-34 + SqueezeNet;
                at most one of --budget-sweep, --grid, --control-path,
                --scheduler)
  smctl report  [<network>] [--net-file <path>] [--batch <n>] [--policy <name>]
                [--per-layer] [--seed <n>] [--dram-rate <p>] [--site-rate <p>]
                [--json]
  smctl export  <network> [--batch <n>] [--out <path>]
                (emit the network as a graph JSON document; such documents —
                including hand-written DAGs the zoo cannot express — feed
                back in through --net-file)
  smctl serve   --cache-dir <path> [--max-inflight <n>]
                [--default-deadline-ms <ms>] [--cache-max-bytes <n>]
                [--io-fault-rate <p>] [--io-fault-seed <n>] [--deterministic]
                (newline-delimited JSON sweep requests on stdin, streamed
                JSON events on stdout; see sm_bench::service docs)

Every command also accepts --threads <n> (worker count for parallel
sweeps, default = all cores). Output is byte-identical at any thread
count.

POLICIES:
  baseline | reuse-disabled | swap-only | mining-only | shortcut-mining
  shortcut-mining-copy-swap | shortcut-mining-nearest-spill

NETWORKS:
  run `smctl networks` for the list (resnet18/34/50/101/152, plain18/34,
  squeezenet_v10[_simple_bypass|_complex_bypass], squeezenet_v11, vgg16,
  alexnet, googlenet, densenet121/169, mobilenet_v1/v2, toy_residual,
  resnet_tiny20, squeezenet_tiny, densenet_tiny4, mobilenet_tiny)";

/// Resolves a network by CLI name (thin wrapper over [`zoo::try_by_name`],
/// the shared registry).
pub fn network_by_name(name: &str, batch: usize) -> Option<Network> {
    zoo::try_by_name(name, batch).ok()
}

/// Loads a network from a graph JSON file (`sm-graph-v1`; see
/// [`sm_model::graph`]). Shortcut structure — adds, concats, arbitrary skip
/// distances — is detected from the lowered schedule, so an ingested network
/// behaves exactly like a zoo one downstream.
pub fn load_net_file(path: &str) -> Result<Network, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read network graph {path}: {e}")))?;
    sm_model::graph::load(&text)
        .map_err(|e| CliError(format!("cannot load network graph {path}: {e}")))
}

/// Resolves a policy by CLI name.
pub fn policy_by_name(name: &str) -> Option<Policy> {
    Some(match name {
        "baseline" => Policy::baseline(),
        "reuse-disabled" => Policy::reuse_disabled(),
        "swap-only" => Policy::swap_only(),
        "mining-only" => Policy::mining_only(),
        "shortcut-mining" => Policy::shortcut_mining(),
        "shortcut-mining-copy-swap" => Policy::shortcut_mining().with_swap_by_copy(),
        "shortcut-mining-nearest-spill" => {
            Policy::shortcut_mining().with_spill_order(SpillOrder::NearestJunctionFirst)
        }
        _ => return None,
    })
}

/// The flags each subcommand reads: exactly those its [`USAGE`] entry
/// lists in brackets (the global `--threads` is taken out before parsing).
/// Any other flag is rejected, so none is accepted and then ignored.
const FLAGS: [(&str, &str); 10] = [
    ("networks", ""),
    ("compare", "--capacity --batch --policy --json"),
    ("analyze", "--batch"),
    ("verify", "--seed"),
    ("sweep", "--batch"),
    ("layers", "--batch"),
    (
        "chaos",
        "--net-file --batch --seed --dram-rate --retry-budget --budget-sweep --grid \
         --site-rate --control-path --scheduler --cache-dir --json",
    ),
    (
        "report",
        "--net-file --batch --policy --per-layer --seed --dram-rate --site-rate --json",
    ),
    ("export", "--batch --out"),
    (
        "serve",
        "--cache-dir --max-inflight --default-deadline-ms --cache-max-bytes \
         --io-fault-rate --io-fault-seed --deterministic",
    ),
];

fn unknown_flag(cmd: &str, flag: &str) -> CliError {
    CliError(format!("unknown flag {flag:?} for {cmd}"))
}

/// Fails unless [`FLAGS`] lists `flag` for `cmd`.
fn check_flag(cmd: &str, flag: &str) -> Result<(), CliError> {
    let listed = FLAGS
        .iter()
        .any(|(c, flags)| *c == cmd && flags.split_whitespace().any(|f| f == flag));
    if listed {
        Ok(())
    } else {
        Err(unknown_flag(cmd, flag))
    }
}

fn take_value<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    flag: &str,
) -> Result<&'a str, CliError> {
    args.next()
        .ok_or_else(|| CliError(format!("{flag} requires a value")))
}

/// Parses a probability flag value: a number in [0, 1] (so not NaN nor
/// infinite). `what` names the quantity in the error message.
fn parse_probability(v: &str, what: &str) -> Result<f64, CliError> {
    v.trim()
        .parse::<f64>()
        .ok()
        .filter(|p| (0.0..=1.0).contains(p))
        .ok_or_else(|| {
            CliError(format!(
                "invalid {what} {v:?} (probability in [0, 1] expected)"
            ))
        })
}

fn parse_batch(v: &str) -> Result<usize, CliError> {
    v.parse()
        .ok()
        .filter(|&b: &usize| b > 0)
        .ok_or_else(|| CliError(format!("invalid batch {v:?}")))
}

/// Parses command-line arguments (without the program name).
///
/// # Errors
///
/// Returns a user-facing [`CliError`] on unknown commands, flags, networks
/// or malformed numbers.
pub fn parse<'a>(args: impl IntoIterator<Item = &'a str>) -> Result<Command, CliError> {
    let mut it = args.into_iter();
    let cmd = it.next().ok_or_else(|| CliError(USAGE.to_string()))?;
    match cmd {
        "networks" => {
            it.try_for_each(|arg| check_flag(cmd, arg))?;
            Ok(Command::Networks)
        }
        "serve" => {
            let mut cache_dir = None;
            let mut max_inflight = None;
            let mut default_deadline_ms = None;
            let mut cache_max_bytes = None;
            let mut io_fault_rate = None;
            let mut io_fault_seed = 42;
            let mut deterministic = false;
            while let Some(flag) = it.next() {
                check_flag(cmd, flag)?;
                match flag {
                    "--cache-dir" => cache_dir = Some(take_value(&mut it, flag)?.to_string()),
                    "--deterministic" => deterministic = true,
                    "--max-inflight" => {
                        let v = take_value(&mut it, flag)?;
                        max_inflight =
                            Some(v.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(|| {
                                CliError(format!(
                                    "invalid max inflight {v:?} (positive integer expected)"
                                ))
                            })?);
                    }
                    "--default-deadline-ms" => {
                        let v = take_value(&mut it, flag)?;
                        default_deadline_ms = Some(v.parse::<u64>().map_err(|_| {
                            CliError(format!("invalid deadline {v:?} (milliseconds expected)"))
                        })?);
                    }
                    "--cache-max-bytes" => {
                        let v = take_value(&mut it, flag)?;
                        cache_max_bytes =
                            Some(v.parse::<u64>().ok().filter(|&n| n > 0).ok_or_else(|| {
                                CliError(format!(
                                    "invalid cache bound {v:?} (positive byte count expected)"
                                ))
                            })?);
                    }
                    "--io-fault-rate" => {
                        let v = take_value(&mut it, flag)?;
                        io_fault_rate = Some(parse_probability(v, "fault rate")?);
                    }
                    "--io-fault-seed" => {
                        let v = take_value(&mut it, flag)?;
                        io_fault_seed = v.parse::<u64>().map_err(|_| {
                            CliError(format!("invalid fault seed {v:?} (integer expected)"))
                        })?;
                    }
                    other => return Err(unknown_flag(cmd, other)),
                }
            }
            let cache_dir =
                cache_dir.ok_or_else(|| CliError("serve requires --cache-dir <path>".into()))?;
            Ok(Command::Serve {
                cache_dir,
                max_inflight,
                default_deadline_ms,
                cache_max_bytes,
                io_fault_rate,
                io_fault_seed,
                deterministic,
            })
        }
        "export" => {
            let network = it
                .next()
                .ok_or_else(|| CliError("export requires a network name".to_string()))?;
            let mut batch = 1usize;
            let mut out = None;
            while let Some(flag) = it.next() {
                check_flag(cmd, flag)?;
                match flag {
                    "--out" => out = Some(take_value(&mut it, flag)?.to_string()),
                    "--batch" => batch = parse_batch(take_value(&mut it, flag)?)?,
                    other => return Err(unknown_flag(cmd, other)),
                }
            }
            if network_by_name(network, 1).is_none() {
                return Err(CliError(format!(
                    "unknown network {network:?} — run `smctl networks`"
                )));
            }
            Ok(Command::Export {
                network: network.to_string(),
                batch,
                out,
            })
        }
        "compare" | "analyze" | "verify" | "sweep" | "layers" | "chaos" | "report" => {
            // `chaos` may omit the network (or lead with a flag): it
            // defaults to the headline pair. `report` may lead with a flag
            // too, for the `--net-file` form.
            let first = match it.next() {
                Some(arg) => arg,
                None if cmd == "chaos" => "headline",
                None => return Err(CliError(format!("{cmd} requires a network name"))),
            };
            let (network, pending_flag) = if first.starts_with("--") && cmd == "chaos" {
                ("headline".to_string(), Some(first))
            } else if first.starts_with("--") && cmd == "report" {
                (String::new(), Some(first))
            } else {
                (first.to_string(), None)
            };
            let mut it = pending_flag.into_iter().chain(it);
            let mut capacity_kib = None;
            let mut batch = 1usize;
            let mut policy = Policy::shortcut_mining();
            let mut seed = 42u64;
            let mut json = false;
            let mut dram_rate = 0.01f64;
            let mut retry_budget = None;
            let mut mode: Option<&str> = None;
            let mut site_rates = None;
            let mut per_layer = false;
            let mut dram_rate_given = false;
            let mut cache_dir = None;
            let mut net_file = None;
            let mut batch_given = false;
            while let Some(flag) = it.next() {
                check_flag(cmd, flag)?;
                match flag {
                    "--json" => json = true,
                    "--per-layer" => per_layer = true,
                    "--cache-dir" => cache_dir = Some(take_value(&mut it, flag)?.to_string()),
                    "--net-file" => net_file = Some(take_value(&mut it, flag)?.to_string()),
                    "--budget-sweep" | "--grid" | "--control-path" | "--scheduler" => {
                        if let Some(other) = mode.filter(|&m| m != flag) {
                            return Err(CliError(format!(
                                "{other} and {flag} select different sweeps; pass one"
                            )));
                        }
                        mode = Some(flag);
                    }
                    "--site-rate" => {
                        let v = take_value(&mut it, flag)?;
                        let rates = v
                            .split(',')
                            .map(|s| parse_probability(s, "site rate"))
                            .collect::<Result<Vec<f64>, CliError>>()?;
                        site_rates = Some(rates);
                    }
                    "--retry-budget" => {
                        let v = take_value(&mut it, flag)?;
                        retry_budget = Some(v.parse().map_err(|_| {
                            CliError(format!("invalid retry budget {v:?} (integer expected)"))
                        })?);
                    }
                    "--capacity" => {
                        let v = take_value(&mut it, flag)?;
                        capacity_kib = Some(v.parse().map_err(|_| {
                            CliError(format!("invalid capacity {v:?} (KiB expected)"))
                        })?);
                    }
                    "--batch" => {
                        batch = parse_batch(take_value(&mut it, flag)?)?;
                        batch_given = true;
                    }
                    "--policy" => {
                        let v = take_value(&mut it, flag)?;
                        policy = policy_by_name(v)
                            .ok_or_else(|| CliError(format!("unknown policy {v:?}")))?;
                    }
                    "--seed" => {
                        let v = take_value(&mut it, flag)?;
                        seed = v
                            .parse()
                            .map_err(|_| CliError(format!("invalid seed {v:?}")))?;
                    }
                    "--dram-rate" => {
                        dram_rate = parse_probability(take_value(&mut it, flag)?, "dram rate")?;
                        dram_rate_given = true;
                    }
                    other => return Err(unknown_flag(cmd, other)),
                }
            }
            let headline = cmd == "chaos" && network == "headline";
            if net_file.is_some() {
                if batch_given {
                    return Err(CliError(
                        "--batch cannot be combined with --net-file (the batch is \
                         part of the graph's input shape)"
                            .into(),
                    ));
                }
                if !network.is_empty() && !headline {
                    return Err(CliError(
                        "--net-file replaces the network name; drop one of the two".into(),
                    ));
                }
            } else if network.is_empty() {
                return Err(CliError(format!("{cmd} requires a network name")));
            } else if !headline && network_by_name(&network, 1).is_none() {
                return Err(CliError(format!(
                    "unknown network {network:?} — run `smctl networks`"
                )));
            }
            if cmd == "chaos" && site_rates.is_some() && mode != Some("--grid") {
                return Err(CliError("--site-rate requires --grid".into()));
            }
            Ok(match cmd {
                "report" => {
                    let site_rate = match site_rates.as_deref() {
                        None => None,
                        Some([s]) => Some(*s),
                        Some(_) => {
                            return Err(CliError("report takes a single --site-rate value".into()))
                        }
                    };
                    Command::Report {
                        network,
                        batch,
                        policy,
                        per_layer,
                        json,
                        seed,
                        // Reports are fault-free unless a rate is requested
                        // (the chaos default of 0.01 does not apply here).
                        dram_rate: if dram_rate_given { dram_rate } else { 0.0 },
                        site_rate,
                        net_file,
                    }
                }
                "compare" => Command::Compare {
                    network,
                    capacity_kib,
                    batch,
                    policy,
                    json,
                },
                "analyze" => Command::Analyze { network, batch },
                "sweep" => Command::Sweep { network, batch },
                "layers" => Command::Layers { network, batch },
                "chaos" => Command::Chaos {
                    network,
                    batch,
                    kind: match (mode, &site_rates) {
                        (Some("--grid"), Some(_)) => SweepKind::ChaosGrid3,
                        (Some("--grid"), None) => SweepKind::ChaosGrid,
                        (Some("--budget-sweep"), _) => SweepKind::RetryBudget,
                        (Some("--control-path"), _) => SweepKind::ControlPath,
                        (Some("--scheduler"), _) => SweepKind::Scheduler,
                        _ => SweepKind::ChaosCurve,
                    },
                    axes: SweepAxes {
                        seed,
                        dram_rate,
                        retry_budget,
                        site_rates,
                        ..SweepAxes::default()
                    },
                    cache_dir,
                    net_file,
                    json,
                },
                _ => Command::Verify { network, seed },
            })
        }
        other => Err(CliError(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

/// Executes a command, returning the report text.
///
/// # Errors
///
/// Returns a [`CliError`] when a verification fails or a network cannot be
/// built at the requested batch.
pub fn execute(cmd: &Command) -> Result<String, CliError> {
    use std::fmt::Write as _;
    let mut out = String::new();
    match cmd {
        Command::Networks => {
            let _ = writeln!(
                out,
                "{:30} {:>7} {:>9} {:>10} {:>15}",
                "network", "layers", "GMACs", "params(M)", "shortcut share"
            );
            for net in zoo::extended_networks(1) {
                let s = NetworkStats::of(&net);
                let _ = writeln!(
                    out,
                    "{:30} {:>7} {:>9.2} {:>10.1} {:>14.1}%",
                    net.name(),
                    s.layer_count,
                    s.macs as f64 / 1e9,
                    s.weight_elems as f64 / 1e6,
                    100.0 * s.shortcut_share()
                );
            }
        }
        Command::Compare {
            network,
            capacity_kib,
            batch,
            policy,
            json,
        } => {
            let net = network_by_name(network, *batch)
                .ok_or_else(|| CliError(format!("unknown network {network:?}")))?;
            let mut cfg = AccelConfig::default();
            if let Some(kib) = capacity_kib {
                cfg = cfg.with_fm_capacity(kib * 1024);
            }
            let exp = Experiment::new(cfg);
            let base = exp.run(&net, Policy::baseline());
            let run = exp.run(&net, *policy);
            if *json {
                let doc = (&base, &run);
                let body = to_string(&doc).map_err(|e| CliError(e.to_string()))?;
                let _ = writeln!(out, "{body}");
                return Ok(out);
            }
            let _ = writeln!(
                out,
                "{} batch {} | fm SRAM {} KiB",
                net.name(),
                batch,
                cfg.sram.fm_bytes() / 1024
            );
            for s in [&base, &run] {
                let _ = writeln!(
                    out,
                    "{:28} fm {:9.2} MiB  total {:9.2} MiB  {:7.1} GOP/s  {:7.1} img/s",
                    s.architecture,
                    s.fm_traffic_bytes() as f64 / (1 << 20) as f64,
                    s.total_traffic_bytes() as f64 / (1 << 20) as f64,
                    s.throughput_gops(),
                    s.images_per_second()
                );
            }
            let _ = writeln!(
                out,
                "reduction {:.1}%  speedup {:.2}x",
                100.0 * (1.0 - run.fm_traffic_ratio(&base)),
                run.speedup_over(&base)
            );
        }
        Command::Analyze { network, batch } => {
            let net = network_by_name(network, *batch)
                .ok_or_else(|| CliError(format!("unknown network {network:?}")))?;
            let cfg = AccelConfig::default();
            let bounds = analysis::ReuseBounds::of(&net, cfg, Policy::shortcut_mining())
                .map_err(|e| CliError(format!("analysis failed: {e}")))?;
            let cap95 = bounds
                .capacity_for_fraction(&net, cfg, Policy::shortcut_mining(), 0.95)
                .map_err(|e| CliError(format!("analysis failed: {e}")))?;
            let _ = writeln!(out, "{} batch {batch}", net.name());
            let _ = writeln!(
                out,
                "peak live set:        {} KiB",
                bounds.peak_live_bytes / 1024
            );
            let _ = writeln!(
                out,
                "ideal reduction:      {:.1}%",
                100.0 * bounds.ideal_reduction
            );
            let _ = writeln!(
                out,
                "configured reduction: {:.1}% at {} KiB",
                100.0 * bounds.configured_reduction,
                cfg.sram.fm_bytes() / 1024
            );
            match cap95 {
                Some(c) => {
                    let _ = writeln!(out, "capacity for 95% of ideal: {} KiB", c / 1024);
                }
                None => {
                    let _ = writeln!(out, "capacity for 95% of ideal: unreachable");
                }
            }
        }
        Command::Sweep { network, batch } => {
            let net = network_by_name(network, *batch)
                .ok_or_else(|| CliError(format!("unknown network {network:?}")))?;
            let configs = DEFAULT_CAPACITIES_KIB
                .map(|kib| AccelConfig::default().with_fm_capacity(kib * 1024));
            let cells = compare_cells(&KeyedNet::new(net), &configs, &RunCtx::default(), &mut ())
                .expect("a sweep without a cancel check cannot be cancelled");
            let _ = writeln!(
                out,
                "{:>10}  {:>10}  {:>8}  {:>12}",
                "KiB", "reduction", "speedup", "fm MiB mined"
            );
            for (kib, cell) in DEFAULT_CAPACITIES_KIB.iter().zip(&cells) {
                let _ = writeln!(
                    out,
                    "{:>10}  {:>9.1}%  {:>7.2}x  {:>12.2}",
                    kib,
                    100.0 * cell.traffic_reduction,
                    cell.speedup,
                    cell.mined_fm_bytes as f64 / (1 << 20) as f64
                );
            }
        }
        Command::Layers { network, batch } => {
            let net = network_by_name(network, *batch)
                .ok_or_else(|| CliError(format!("unknown network {network:?}")))?;
            let exp = Experiment::new(AccelConfig::default());
            let base = exp.run(&net, Policy::baseline());
            let mined = exp.run(&net, Policy::shortcut_mining());
            let _ = writeln!(
                out,
                "{:24} {:>7} | {:>10} {:>10} {:>6} | {:>10} {:>10} {:>6}",
                "layer",
                "kind",
                "base KiB",
                "base kcyc",
                "bound",
                "mined KiB",
                "mined kcyc",
                "bound"
            );
            let bound_tag = |c: &sm_accel::cycles::LayerCycles| match c.bound_by() {
                sm_accel::cycles::Bound::Compute => "comp",
                sm_accel::cycles::Bound::FeatureMapTraffic => "fm",
                sm_accel::cycles::Bound::WeightTraffic => "wgt",
            };
            for (b, m) in base.layers.iter().zip(&mined.layers) {
                let _ = writeln!(
                    out,
                    "{:24} {:>7} | {:>10.1} {:>10.1} {:>6} | {:>10.1} {:>10.1} {:>6}",
                    b.name,
                    b.kind,
                    b.traffic.feature_map() as f64 / 1024.0,
                    b.cycles.total as f64 / 1e3,
                    bound_tag(&b.cycles),
                    m.traffic.feature_map() as f64 / 1024.0,
                    m.cycles.total as f64 / 1e3,
                    bound_tag(&m.cycles),
                );
            }
        }
        Command::Chaos {
            network,
            batch,
            kind,
            axes,
            cache_dir,
            net_file,
            json,
        } => {
            let nets: Vec<Network> = if let Some(path) = net_file {
                vec![load_net_file(path)?]
            } else if network == "headline" {
                vec![
                    zoo::resnet34(*batch),
                    zoo::squeezenet_v10_simple_bypass(*batch),
                ]
            } else {
                vec![network_by_name(network, *batch)
                    .ok_or_else(|| CliError(format!("unknown network {network:?}")))?]
            };
            // The result cache only engages when a directory is named, so
            // plain runs stay free of filesystem side effects. The stats
            // line goes to text output only: JSON output must stay
            // byte-identical between cold and warm runs.
            let store = cache_dir
                .as_deref()
                .map(|dir| {
                    sm_bench::cas::ResultCache::open(std::path::Path::new(dir))
                        .map_err(|e| CliError(format!("cannot open cache at {dir}: {e}")))
                })
                .transpose()?;
            let session = store.as_ref().map(|s| s.session());
            let ctx = RunCtx {
                cache: session.as_ref(),
                cancel: None,
            };
            let outputs = nets
                .into_iter()
                .map(|net| {
                    let net = KeyedNet::new(net);
                    kind.run(&net, AccelConfig::default(), axes, &ctx, &mut ())
                        .expect("a sweep without a cancel check cannot be cancelled")
                })
                .collect::<Vec<_>>();
            if *json {
                let body = to_string(&outputs).map_err(|e| CliError(e.to_string()))?;
                let _ = writeln!(out, "{body}");
                return Ok(out);
            }
            for table in outputs.iter().flat_map(|o| o.tables()) {
                let _ = writeln!(out, "{}", table.render());
            }
            if let Some(s) = &session {
                let st = s.stats();
                let _ = writeln!(
                    out,
                    "result cache: {} hits, {} misses, {} evictions, \
                     {} B read, {} B written",
                    st.hits, st.misses, st.evictions, st.bytes_read, st.bytes_written
                );
            }
        }
        Command::Report {
            network,
            batch,
            policy,
            per_layer,
            json,
            seed,
            dram_rate,
            site_rate,
            net_file,
        } => {
            use sm_core::{FaultPlan, Protection, RecoveryPolicy, SimOptions};
            let net = match net_file {
                Some(path) => load_net_file(path)?,
                None => network_by_name(network, *batch)
                    .ok_or_else(|| CliError(format!("unknown network {network:?}")))?,
            };
            let exp = Experiment::new(AccelConfig::default());
            let faults_active = *dram_rate > 0.0 || site_rate.is_some();
            let stats = if faults_active {
                if !policy.logical_buffers {
                    return Err(CliError(
                        "fault-attributed reports need a logical-buffer policy \
                         (the baseline accelerator has no fault model)"
                            .into(),
                    ));
                }
                let mut plan = FaultPlan::new(*seed).with_dram_faults(*dram_rate);
                if let Some(s) = site_rate {
                    // ECC with a visible DUE mass and refetch recovery: the
                    // configuration that makes the per-layer DUE column
                    // meaningful without aborting the run.
                    plan = plan
                        .with_weight_faults(*s, Protection::Ecc)
                        .with_pe_faults(*s, Protection::Ecc)
                        .with_multi_bit(0.2, 0.05)
                        .with_recovery(RecoveryPolicy::RefetchTile);
                }
                exp.run_checked(&net, *policy, &SimOptions::with_faults(plan))
                    .map_err(|e| CliError(format!("report run failed: {e}")))?
                    .stats
            } else {
                exp.run(&net, *policy)
            };
            if *json {
                let body = if *per_layer {
                    to_string(&stats.layers).map_err(|e| CliError(e.to_string()))?
                } else {
                    to_string(&stats).map_err(|e| CliError(e.to_string()))?
                };
                let _ = writeln!(out, "{body}");
                return Ok(out);
            }
            let _ = writeln!(
                out,
                "{} batch {} | {} | total {:.2} Mcycles",
                stats.network,
                stats.batch,
                stats.architecture,
                stats.total_cycles as f64 / 1e6
            );
            if *per_layer {
                let _ = writeln!(
                    out,
                    "{:24} {:>7} | {:>10} {:>10} {:>9} {:>9} {:>5} {:>6}",
                    "layer",
                    "kind",
                    "comp kcyc",
                    "dram kcyc",
                    "rtry kcyc",
                    "bank kcyc",
                    "DUEs",
                    "occ%"
                );
                for l in &stats.layers {
                    let p = &l.perf;
                    let _ = writeln!(
                        out,
                        "{:24} {:>7} | {:>10.1} {:>10.1} {:>9.1} {:>9.1} {:>5} {:>5.1}%",
                        l.name,
                        l.kind,
                        p.compute_cycles as f64 / 1e3,
                        p.dram_stall_cycles as f64 / 1e3,
                        p.retry_stall_cycles as f64 / 1e3,
                        p.bank_conflict_stall_cycles as f64 / 1e3,
                        p.due_events,
                        100.0 * p.occupancy,
                    );
                }
            }
            let (mut comp, mut dram, mut rtry, mut bank, mut dues) = (0u64, 0u64, 0u64, 0u64, 0u64);
            for l in &stats.layers {
                comp += l.perf.compute_cycles;
                dram += l.perf.dram_stall_cycles;
                rtry += l.perf.retry_stall_cycles;
                bank += l.perf.bank_conflict_stall_cycles;
                dues += l.perf.due_events;
            }
            let _ = writeln!(
                out,
                "totals: compute {:.2} Mcyc | dram stall {:.2} Mcyc | retry stall {:.2} Mcyc \
                 | bank-conflict {:.2} Mcyc | DUEs {} | occupancy {:.1}%",
                comp as f64 / 1e6,
                dram as f64 / 1e6,
                rtry as f64 / 1e6,
                bank as f64 / 1e6,
                dues,
                100.0 * comp as f64 / stats.total_cycles.max(1) as f64,
            );
        }
        Command::Export {
            network,
            batch,
            out: path,
        } => {
            let net = network_by_name(network, *batch)
                .ok_or_else(|| CliError(format!("unknown network {network:?}")))?;
            let body = sm_model::graph::export_json(&net);
            match path {
                Some(p) => {
                    std::fs::write(p, body.as_bytes())
                        .map_err(|e| CliError(format!("cannot write {p}: {e}")))?;
                    let report = sm_model::graph::ShortcutReport::of(&net);
                    let _ = writeln!(
                        out,
                        "{}: graph written to {p} ({} layers, {} add / {} concat \
                         junctions, max skip {})",
                        net.name(),
                        net.layers().len() - 1,
                        report.adds(),
                        report.concats(),
                        report.max_skip(),
                    );
                }
                // Bare export prints the document itself so it can be piped.
                None => {
                    let _ = writeln!(out, "{body}");
                }
            }
        }
        Command::Serve {
            cache_dir,
            max_inflight,
            default_deadline_ms,
            cache_max_bytes,
            io_fault_rate,
            io_fault_seed,
            deterministic,
        } => {
            let dir = std::path::Path::new(cache_dir);
            let store_options = sm_bench::cas::StoreOptions {
                max_bytes: *cache_max_bytes,
                faults: io_fault_rate
                    .map(|rate| sm_bench::iofault::IoFaultPlan::uniform(*io_fault_seed, rate)),
            };
            let store = sm_bench::cas::ResultCache::open_with(dir, store_options)
                .map_err(|e| CliError(format!("cannot open cache at {}: {e}", dir.display())))?;
            let serve_options = sm_bench::service::ServeOptions {
                max_inflight: max_inflight.unwrap_or(0), // 0 = worker-thread count
                default_deadline_ms: *default_deadline_ms,
                deterministic_timing: *deterministic,
            };
            // Events stream straight to stdout as cells complete; the
            // returned report stays empty. The unlocked stdout handle is
            // Send, which the emitter thread requires.
            let stdin = std::io::stdin();
            sm_bench::service::run_serve(stdin.lock(), std::io::stdout(), &store, &serve_options)
                .map_err(|e| CliError(format!("serve failed: {e}")))?;
        }
        Command::Verify { network, seed } => {
            let net = network_by_name(network, 1)
                .ok_or_else(|| CliError(format!("unknown network {network:?}")))?;
            if net.total_macs() > 200_000_000 {
                return Err(CliError(format!(
                    "{network} is too large for golden execution; use a *_tiny or toy network"
                )));
            }
            verify_value_preservation(
                &net,
                AccelConfig::default(),
                Policy::shortcut_mining(),
                *seed,
            )
            .map_err(|e| CliError(format!("value preservation FAILED: {e}")))?;
            let _ = writeln!(
                out,
                "{}: value preservation OK (seed {seed}) — outputs bit-identical to the golden model",
                net.name()
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_compare_with_flags() {
        let cmd = parse([
            "compare",
            "resnet34",
            "--capacity",
            "512",
            "--batch",
            "2",
            "--policy",
            "swap-only",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Compare {
                network: "resnet34".into(),
                capacity_kib: Some(512),
                batch: 2,
                policy: Policy::swap_only(),
                json: false,
            }
        );
    }

    #[test]
    fn rejects_unknown_things() {
        assert!(parse(["frobnicate"]).is_err());
        assert!(parse(["compare"]).is_err());
        assert!(parse(["compare", "notanet"]).is_err());
        assert!(parse(["compare", "resnet34", "--policy", "nope"]).is_err());
        assert!(parse(["compare", "resnet34", "--capacity", "abc"]).is_err());
        assert!(parse(["compare", "resnet34", "--capacity"]).is_err());
        assert!(parse(["compare", "resnet34", "--wat", "1"]).is_err());
        assert!(parse([]).is_err());
    }

    #[test]
    fn flags_a_subcommand_does_not_read_are_rejected() {
        // One loop used to parse the union of seven subcommands' flags, so
        // each of these exited 0 with its flag ignored.
        for args in [
            &["verify", "toy_residual", "--capacity", "64"][..],
            &["verify", "toy_residual", "--json"],
            &["verify", "toy_residual", "--per-layer"],
            &["verify", "toy_residual", "--dram-rate", "0.5"],
            &["verify", "toy_residual", "--cache-dir", "/nonexistent"],
            &["verify", "toy_residual", "--policy", "baseline"],
            &["layers", "toy_residual", "--policy", "baseline"],
            &["report", "toy_residual", "--capacity", "32"],
            &["compare", "toy_residual", "--dram-rate", "0.9"],
            &["compare", "toy_residual", "--site-rate", "0.5"],
            &["chaos", "toy_residual", "--policy", "baseline"],
            &["analyze", "toy_residual", "--seed", "3"],
            &["sweep", "toy_residual", "--json"],
            &["networks", "--json"],
            &["export", "toy_residual", "--json"],
            &["serve", "--json"],
        ] {
            let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
            let err = parse(args.iter().copied()).unwrap_err();
            assert_eq!(err.0, format!("unknown flag {flag:?} for {}", args[0]));
        }
    }

    #[test]
    fn each_subcommand_reads_exactly_the_flags_its_usage_entry_lists() {
        for (cmd, flags) in FLAGS {
            let entry = USAGE
                .split("\n  smctl ")
                .find(|e| e.split_whitespace().next() == Some(cmd))
                .unwrap_or_else(|| panic!("no USAGE entry for {cmd}"));
            // Optional flags open a `[...]` group; a required one stands
            // before the first group (`serve --cache-dir <path>`).
            let (head, groups) = entry.split_once('[').unwrap_or((entry, ""));
            let mut listed: Vec<&str> = head
                .split_whitespace()
                .chain(groups.split('[').filter_map(|s| s.split([' ', ']']).next()))
                .filter(|f| f.starts_with("--"))
                .collect();
            let mut table: Vec<&str> = flags.split_whitespace().collect();
            listed.sort_unstable();
            table.sort_unstable();
            assert_eq!(listed, table, "{cmd}");
            // Every listed flag reaches a parse arm: it may lack its value,
            // but it is never unknown.
            let network = if matches!(cmd, "networks" | "serve") {
                None
            } else {
                Some("toy_residual")
            };
            for flag in table {
                let args = std::iter::once(cmd).chain(network).chain([flag]);
                if let Err(e) = parse(args) {
                    assert!(!e.0.starts_with("unknown flag"), "{cmd} {flag}: {e}");
                }
            }
        }
    }

    #[test]
    fn networks_command_lists_the_zoo() {
        let out = execute(&Command::Networks).unwrap();
        for name in ["resnet152", "densenet121", "googlenet", "vgg16"] {
            assert!(out.contains(name), "{name} missing");
        }
    }

    #[test]
    fn compare_runs_end_to_end() {
        let out = execute(&parse(["compare", "toy_residual"]).unwrap()).unwrap();
        assert!(out.contains("baseline"));
        assert!(out.contains("shortcut-mining"));
        assert!(out.contains("reduction"));
    }

    #[test]
    fn analyze_reports_bounds() {
        let out = execute(&parse(["analyze", "resnet_tiny20"]).unwrap()).unwrap();
        assert!(out.contains("peak live set"));
        assert!(out.contains("ideal reduction"));
    }

    #[test]
    fn verify_accepts_tiny_rejects_huge() {
        let ok = execute(&parse(["verify", "squeezenet_tiny"]).unwrap()).unwrap();
        assert!(ok.contains("value preservation OK"));
        let err = execute(&parse(["verify", "resnet152"]).unwrap()).unwrap_err();
        assert!(err.0.contains("too large"));
    }

    #[test]
    fn sweep_runs_and_is_monotone() {
        let out = execute(&parse(["sweep", "resnet_tiny20"]).unwrap()).unwrap();
        assert!(out.contains("4096"));
        assert!(out.lines().count() >= 9);
    }

    #[test]
    fn layers_report_covers_every_layer() {
        let out = execute(&parse(["layers", "toy_residual"]).unwrap()).unwrap();
        assert!(out.contains("c1"));
        assert!(out.contains("add"));
        // Header + 5 layers.
        assert!(out.lines().count() >= 6);
    }

    #[test]
    fn chaos_parses_and_runs_on_a_tiny_network() {
        let cmd = parse([
            "chaos",
            "toy_residual",
            "--seed",
            "7",
            "--dram-rate",
            "0.05",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Chaos {
                network: "toy_residual".into(),
                batch: 1,
                kind: SweepKind::ChaosCurve,
                axes: SweepAxes {
                    seed: 7,
                    dram_rate: 0.05,
                    retry_budget: None,
                    site_rates: None,
                    ..SweepAxes::default()
                },
                cache_dir: None,
                net_file: None,
                json: false,
            }
        );
        let out = execute(&cmd).unwrap();
        assert!(out.contains("chaos degradation"));
        assert!(out.contains("ok"));
    }

    #[test]
    fn chaos_headline_emits_json_for_both_networks() {
        let out = execute(&parse(["chaos", "headline", "--json"]).unwrap()).unwrap();
        assert!(out.trim_start().starts_with('['));
        assert!(out.contains(r#""network":"resnet34""#));
        assert!(out.contains(r#""network":"squeezenet_v10_simple_bypass""#));
        assert!(out.contains(r#""fail_fraction":"#));
        assert!(out.contains(r#""throughput_gops":"#));
        // `headline` is chaos-only.
        assert!(parse(["compare", "headline"]).is_err());
    }

    #[test]
    fn chaos_budget_flags_parse_and_sweep_runs() {
        let cmd = parse([
            "chaos",
            "toy_residual",
            "--retry-budget",
            "5",
            "--budget-sweep",
            "--dram-rate",
            "0.2",
        ])
        .unwrap();
        match &cmd {
            Command::Chaos { kind, axes, .. } => {
                assert_eq!(axes.retry_budget, Some(5));
                assert_eq!(*kind, SweepKind::RetryBudget);
            }
            other => panic!("parsed {other:?}"),
        }
        let out = execute(&cmd).unwrap();
        assert!(out.contains("retry-budget sensitivity"));
        assert!(parse(["chaos", "toy_residual", "--retry-budget", "x"]).is_err());
    }

    #[test]
    fn chaos_grid_parses_runs_and_emits_json() {
        let cmd = parse(["chaos", "toy_residual", "--grid", "--dram-rate", "0.2"]).unwrap();
        match &cmd {
            Command::Chaos { kind, .. } => assert_eq!(*kind, SweepKind::ChaosGrid),
            other => panic!("parsed {other:?}"),
        }
        let out = execute(&cmd).unwrap();
        assert!(out.contains("chaos degradation grid"));
        assert!(out.contains("banks failed"));
        let json_out =
            execute(&parse(["chaos", "toy_residual", "--grid", "--json"]).unwrap()).unwrap();
        assert!(json_out.trim_start().starts_with('['));
        assert!(json_out.contains(r#""bank_fail_fraction":"#));
        assert!(json_out.contains(r#""dram_fault_rate":"#));
    }

    #[test]
    fn chaos_grid3_parses_runs_and_emits_json() {
        let cmd = parse(["chaos", "toy_residual", "--grid", "--site-rate", "0.0,0.5"]).unwrap();
        match &cmd {
            Command::Chaos { kind, axes, .. } => {
                assert_eq!(*kind, SweepKind::ChaosGrid3);
                assert_eq!(axes.site_rates.as_deref(), Some(&[0.0, 0.5][..]));
            }
            other => panic!("parsed {other:?}"),
        }
        let out = execute(&cmd).unwrap();
        assert!(out.contains("site rate 0.5"));
        assert!(out.contains("banks failed"));
        let json_out = execute(
            &parse([
                "chaos",
                "toy_residual",
                "--grid",
                "--site-rate",
                "0.5",
                "--json",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(json_out.contains(r#""site_fault_rate":"#));
        // Malformed lists and a bare --site-rate are rejected.
        assert!(parse(["chaos", "toy_residual", "--grid", "--site-rate", "x"]).is_err());
        assert!(parse(["chaos", "toy_residual", "--grid", "--site-rate", "1.5"]).is_err());
        assert!(parse(["chaos", "toy_residual", "--site-rate", "0.1"]).is_err());
    }

    #[test]
    fn chaos_control_path_defaults_to_headline_and_reports_policies() {
        // A flag right after `chaos` (or nothing at all) defaults the
        // network to the headline pair.
        match parse(["chaos", "--control-path"]).unwrap() {
            Command::Chaos { network, kind, .. } => {
                assert_eq!(network, "headline");
                assert_eq!(kind, SweepKind::ControlPath);
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(matches!(
            parse(["chaos"]).unwrap(),
            Command::Chaos { network, .. } if network == "headline"
        ));
        // Other commands still require an explicit network.
        assert!(parse(["analyze"]).is_err());
        // Run on a tiny network to keep the test fast.
        let out =
            execute(&parse(["chaos", "toy_residual", "--control-path", "--seed", "11"]).unwrap())
                .unwrap();
        assert!(out.contains("control-path degradation"));
        for policy in ["Abort", "RefetchTile", "RecomputeLayer"] {
            assert!(out.contains(policy), "missing {policy}:\n{out}");
        }
        let json_out =
            execute(&parse(["chaos", "toy_residual", "--control-path", "--json"]).unwrap())
                .unwrap();
        assert!(json_out.contains(r#""recovered_recompute":"#));
    }

    #[test]
    fn chaos_scheduler_reports_all_four_tiers() {
        // A flag right after `chaos` defaults the network to the headline
        // pair, same as --control-path.
        match parse(["chaos", "--scheduler"]).unwrap() {
            Command::Chaos { network, kind, .. } => {
                assert_eq!(network, "headline");
                assert_eq!(kind, SweepKind::Scheduler);
            }
            other => panic!("parsed {other:?}"),
        }
        // Run on a tiny network to keep the test fast.
        let out =
            execute(&parse(["chaos", "toy_residual", "--scheduler", "--seed", "13"]).unwrap())
                .unwrap();
        assert!(out.contains("scheduler-state degradation"));
        for policy in ["Abort", "RefetchTile", "RecomputeLayer", "Checkpoint"] {
            assert!(out.contains(policy), "missing {policy}:\n{out}");
        }
        let json_out =
            execute(&parse(["chaos", "toy_residual", "--scheduler", "--json"]).unwrap()).unwrap();
        assert!(json_out.contains(r#""recovered_rollback":"#));
        assert!(json_out.contains(r#""scheduler_fault_rate":"#));
    }

    #[test]
    fn conflicting_chaos_modes_are_rejected() {
        // Two mode flags used to run whichever one `execute` checked first
        // and exit 0; the kind is now chosen once, at parse time.
        for (a, b) in [
            ("--grid", "--scheduler"),
            ("--budget-sweep", "--control-path"),
            ("--scheduler", "--budget-sweep"),
            ("--control-path", "--grid"),
        ] {
            let err = parse(["chaos", "toy_residual", a, b]).unwrap_err();
            assert!(err.0.contains(a) && err.0.contains(b), "{err}");
        }
        // Repeating one mode is no conflict, and --site-rate still turns
        // the grid into the 3-D volume.
        assert!(matches!(
            parse(["chaos", "toy_residual", "--grid", "--grid"]).unwrap(),
            Command::Chaos {
                kind: SweepKind::ChaosGrid,
                ..
            }
        ));
        assert!(matches!(
            parse([
                "chaos",
                "--grid",
                "--site-rate",
                "0.1",
                "--retry-budget",
                "8"
            ])
            .unwrap(),
            Command::Chaos {
                kind: SweepKind::ChaosGrid3,
                ..
            }
        ));
        assert!(parse(["chaos", "toy_residual", "--scheduler", "--site-rate", "0.1"]).is_err());
    }

    #[test]
    fn report_command_parses_and_runs_per_layer() {
        let cmd = parse(["report", "toy_residual", "--per-layer"]).unwrap();
        assert_eq!(
            cmd,
            Command::Report {
                network: "toy_residual".into(),
                batch: 1,
                policy: Policy::shortcut_mining(),
                per_layer: true,
                json: false,
                seed: 42,
                dram_rate: 0.0,
                site_rate: None,
                net_file: None,
            }
        );
        let out = execute(&cmd).unwrap();
        assert!(out.contains("comp kcyc"));
        assert!(out.contains("c1"));
        assert!(out.contains("totals:"));
        // report requires an explicit network and a single site rate.
        assert!(parse(["report"]).is_err());
        assert!(parse(["report", "toy_residual", "--site-rate", "0.1,0.2"]).is_err());
    }

    #[test]
    fn report_emits_per_layer_perf_json() {
        let out =
            execute(&parse(["report", "resnet_tiny20", "--per-layer", "--json"]).unwrap()).unwrap();
        assert!(out.trim_start().starts_with('['));
        for field in [
            r#""compute_cycles":"#,
            r#""dram_stall_cycles":"#,
            r#""retry_stall_cycles":"#,
            r#""bank_conflict_stall_cycles":"#,
            r#""due_events":"#,
            r#""occupancy":"#,
        ] {
            assert!(out.contains(field), "missing {field}");
        }
    }

    #[test]
    fn report_attributes_faults_per_layer() {
        // A hot DRAM fault rate guarantees at least one retried transfer on
        // a tiny network, which must surface as per-layer retry stall.
        let out = execute(
            &parse([
                "report",
                "toy_residual",
                "--dram-rate",
                "0.2",
                "--per-layer",
                "--json",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains(r#""retry_stall_cycles":"#));
        let total_retry: u64 = out
            .split(r#""retry_stall_cycles":"#)
            .skip(1)
            .filter_map(|s| {
                s.split(|c: char| !c.is_ascii_digit())
                    .next()
                    .and_then(|d| d.parse::<u64>().ok())
            })
            .sum();
        assert!(total_retry > 0, "expected nonzero retry stall:\n{out}");
        // Baseline policy cannot host the fault model.
        let err = execute(
            &parse([
                "report",
                "toy_residual",
                "--policy",
                "baseline",
                "--dram-rate",
                "0.5",
            ])
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.0.contains("logical-buffer"));
    }

    #[test]
    fn probability_flags_reject_values_outside_zero_to_one() {
        // The simulator would clamp such a rate (or ignore NaN) while the
        // report echoes the value given.
        for v in ["NaN", "inf", "-3", "1.5"] {
            for cmd in ["chaos", "report"] {
                let err = parse([cmd, "toy_residual", "--dram-rate", v]).unwrap_err();
                assert!(err.0.contains("probability in [0, 1]"), "{cmd} {v}: {err}");
            }
            let site = parse(["chaos", "toy_residual", "--grid", "--site-rate", v]);
            assert!(site.is_err(), "--site-rate {v}");
            let io = parse(["serve", "--cache-dir", "c", "--io-fault-rate", v]);
            assert!(io.is_err(), "--io-fault-rate {v}");
        }
        for v in ["0", "1"] {
            assert!(parse(["chaos", "toy_residual", "--dram-rate", v]).is_ok());
            assert!(parse(["report", "toy_residual", "--dram-rate", v]).is_ok());
        }
    }

    #[test]
    fn serve_and_warm_floor_flags_parse() {
        let err = parse(["serve"]).unwrap_err();
        assert!(err.0.contains("--cache-dir"), "{err}");
        assert_eq!(
            parse(["serve", "--cache-dir", "/tmp/c"]).unwrap(),
            Command::Serve {
                cache_dir: "/tmp/c".into(),
                max_inflight: None,
                default_deadline_ms: None,
                cache_max_bytes: None,
                io_fault_rate: None,
                io_fault_seed: 42,
                deterministic: false,
            }
        );
        assert_eq!(
            parse([
                "serve",
                "--cache-dir",
                "/tmp/c",
                "--max-inflight",
                "4",
                "--default-deadline-ms",
                "500",
                "--cache-max-bytes",
                "65536",
                "--io-fault-rate",
                "0.2",
                "--io-fault-seed",
                "7",
                "--deterministic",
            ])
            .unwrap(),
            Command::Serve {
                cache_dir: "/tmp/c".into(),
                max_inflight: Some(4),
                default_deadline_ms: Some(500),
                cache_max_bytes: Some(65536),
                io_fault_rate: Some(0.2),
                io_fault_seed: 7,
                deterministic: true,
            }
        );
        assert!(parse(["serve", "--wat"]).is_err());
        assert!(parse(["serve", "--cache-dir"]).is_err());
        assert!(parse(["serve", "--max-inflight", "0"]).is_err());
        assert!(parse(["serve", "--cache-max-bytes", "0"]).is_err());
        assert!(parse(["serve", "--io-fault-rate", "1.5"]).is_err());
    }

    #[test]
    fn chaos_cache_dir_makes_warm_runs_byte_identical() {
        let dir = std::env::temp_dir().join(format!("smctl-cli-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap();
        let cached = parse([
            "chaos",
            "toy_residual",
            "--grid",
            "--json",
            "--cache-dir",
            dir_s,
        ])
        .unwrap();
        let cold = execute(&cached).unwrap();
        let warm = execute(&cached).unwrap();
        assert_eq!(cold, warm, "warm JSON must be byte-identical to cold");
        // The cache leaves output identical to an uncached run.
        let plain =
            execute(&parse(["chaos", "toy_residual", "--grid", "--json"]).unwrap()).unwrap();
        assert_eq!(cold, plain);
        // Text output surfaces the cache counters; this third run over the
        // same grid is all hits.
        let txt =
            execute(&parse(["chaos", "toy_residual", "--grid", "--cache-dir", dir_s]).unwrap())
                .unwrap();
        assert!(txt.contains("result cache:"), "{txt}");
        assert!(txt.contains("0 misses"), "{txt}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_advertised_policy_resolves() {
        for p in [
            "baseline",
            "reuse-disabled",
            "swap-only",
            "mining-only",
            "shortcut-mining",
            "shortcut-mining-copy-swap",
            "shortcut-mining-nearest-spill",
        ] {
            assert!(policy_by_name(p).is_some(), "{p}");
        }
    }

    #[test]
    fn export_and_net_file_round_trip() {
        // Bare export prints the document itself.
        let doc = execute(&parse(["export", "toy_residual"]).unwrap()).unwrap();
        assert!(doc.contains("\"format\":\"sm-graph-v1\""));

        let dir = std::env::temp_dir().join(format!("smctl-export-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.json");
        let p = path.to_str().unwrap();
        let msg = execute(&parse(["export", "toy_residual", "--out", p]).unwrap()).unwrap();
        assert!(msg.contains("graph written"));
        assert!(msg.contains("junctions"));

        // A report driven by the exported file is byte-identical to the
        // zoo-driven one: ingestion reproduces the schedule exactly.
        let via_file = execute(&parse(["report", "--net-file", p, "--json"]).unwrap()).unwrap();
        let via_zoo = execute(&parse(["report", "toy_residual", "--json"]).unwrap()).unwrap();
        assert_eq!(via_file, via_zoo);

        // Malformed documents surface as typed CLI errors, not panics.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, b"{\"format\":\"sm-graph-v1\"").unwrap();
        let err =
            execute(&parse(["report", "--net-file", bad.to_str().unwrap()]).unwrap()).unwrap_err();
        assert!(err.0.contains("cannot load network graph"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn net_file_flag_is_guarded() {
        // --net-file replaces the network name and bakes in the batch.
        assert!(parse(["report", "toy_residual", "--net-file", "x.json"]).is_err());
        assert!(parse(["report", "--net-file", "x.json", "--batch", "2"]).is_err());
        // Only report and chaos take it.
        assert!(parse(["compare", "toy_residual", "--net-file", "x.json"]).is_err());
        // chaos takes it in place of the headline default, not alongside a
        // named network.
        assert!(parse(["chaos", "--net-file", "x.json"]).is_ok());
        assert!(parse(["chaos", "toy_residual", "--net-file", "x.json"]).is_err());
        // export validates its network name up front.
        assert!(parse(["export"]).is_err());
        assert!(parse(["export", "notanet"]).is_err());
        assert!(parse(["export", "toy_residual", "--wat"]).is_err());
        // A missing file is a CliError, not a panic.
        let err =
            execute(&parse(["report", "--net-file", "/nonexistent/x.json"]).unwrap()).unwrap_err();
        assert!(err.0.contains("cannot read network graph"), "{err}");
    }
}
