//! The traced run: per-layer numbers for one workload.
//!
//! For a serve workload it replays the set-up requests and then the first
//! [`TRACE_REQS`] timed requests in-process, on one worker thread, calling
//! the public entry points the service calls, in the order it calls them:
//!
//! 1. `serde::json::parse_document`
//! 2. `sm_model::zoo::try_by_name` / `sm_model::graph::load`
//! 3. `sm_bench::cas::content_fingerprint`
//! 4. `sm_bench::cas::cell_key`
//! 5. `CacheSession::get`
//! 6. `Experiment::run_checked` / `Experiment::compare` (misses only)
//! 7. `CacheSession::put` (misses only)
//! 8. `serde::json::to_string` (every cell, then the result and stats)
//!
//! with a span around each call, kept in memory and written at the end as a
//! Chrome trace-event file. The replay runs with spans off and on, and the
//! difference is the tracing overhead. The same requests are also served
//! by the real `smctl` (for key fidelity and worker busy share) and by the
//! in-process `run_serve` (for the service's own overhead, and as the
//! answers the replay's results must equal byte for byte). The end-to-end
//! runs are never traced.
//!
//! For `figures` it times each figure and table builder the two binaries
//! call, from a cold tiling-plan cache, and counts regenerations whose
//! output differs from a one-thread reference.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use serde::de::Value;
use serde::json::{parse_document, to_string};
use serde::{Deserialize, Serialize};
use sm_accel::tiling::{plan_cache_clear, PlanCacheSnapshot};
use sm_accel::AccelConfig;
use sm_bench::cas::{
    cell_key, content_fingerprint, CacheKey, CacheSession, CacheStats, ResultCache,
    CACHE_SCHEMA_VERSION,
};
use sm_bench::experiments::*;
use sm_bench::service::{run_serve, ServeOptions};
use sm_core::parallel::set_threads;
use sm_core::{Experiment, FaultPlan, Policy, Protection, SimError, SimOptions, SmRun};
use sm_mem::TrafficClass;
use sm_model::{graph, zoo, Network};

use crate::gen::{self, Workload};
use crate::host::{number, Ctx, Report};
use crate::serve::{done_result, drive, split_event, Server, Tracker};
use crate::stats::median;

/// Timed requests replayed per serve workload.
pub const TRACE_REQS: usize = 500;

/// Cold-cache passes over the figure builders; each builder reports the
/// median of its passes.
const FIGURE_PASSES: usize = 5;

/// Regenerations compared with the one-thread reference.
const FIGURE_REGENS: usize = 6;

/// Rounds of untraced replay, traced replay and in-process service; each
/// reports its fastest round, which keeps host noise out of the tracing
/// overhead and the service overhead.
const PASS_ROUNDS: usize = 3;

/// Every per-layer metric, in report order, with its unit. A workload that
/// does not exercise a layer reports 0 for it.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &'static str); 32] = [
        ("json.parse_us", "us"),
        ("json.parse_mb_per_s", "MB/s"),
        ("json.encode_us_per_cell", "us"),
        ("model.graph_load_us", "us"),
        ("model.zoo_build_us", "us"),
        ("cas.fingerprint_us", "us"),
        ("cas.fingerprint_calls_per_req", "count"),
        ("cas.key_us_per_cell", "us"),
        ("cas.probe_us_per_cell", "us"),
        ("cas.put_us_per_cell", "us"),
        ("cas.bytes_written_per_put", "B"),
        ("cas.store_mb", "MB"),
        ("cas.hit_ratio", "ratio"),
        ("cas.bytes_read_per_hit", "B"),
        ("cas.evictions", "count"),
        ("cas.write_failures", "count"),
        ("sim.chaos_us_per_cell", "us"),
        ("sim.compare_us_per_cell", "us"),
        ("sim.ns_per_layer", "ns"),
        ("tiling.plan_hit_ratio", "ratio"),
        ("sim.error_cells", "count"),
        ("sim.modeled_cycles_total", "cycles"),
        ("sim.fm_bytes_total", "B"),
        ("service.inproc_us_per_req", "us"),
        ("service.overhead_us_per_req", "us"),
        ("service.events_per_req", "count"),
        ("service.bytes_out_per_req", "B"),
        ("parallel.busy_share", "ratio"),
        ("trace.overhead_pct", "%"),
        ("trace.key_match_ratio", "ratio"),
        ("trace.result_match_ratio", "ratio"),
        ("figures.divergent_outputs", "count"),
    ];
    fixed
        .into_iter()
        .map(|(n, u)| (n.to_string(), u))
        .chain(
            figure_builders()
                .into_iter()
                .map(|(n, _)| (format!("experiments.{n}_ms"), "ms")),
        )
        .collect()
}

/// One timed call.
struct Span {
    name: &'static str,
    req: usize,
    start: Duration,
    dur: Duration,
}

/// Span recorder; with `on == false` it calls through without reading the
/// clock, which is the untraced baseline of the overhead measurement.
struct Tracer {
    on: bool,
    t0: Instant,
    req: usize,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            req: 0,
            spans: Vec::new(),
        }
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let dur = start.elapsed();
        self.spans.push(Span {
            name,
            req: self.req,
            start: start - self.t0,
            dur,
        });
        r
    }

    /// Total time of the spans called `name`.
    fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur)
            .sum()
    }
}

/// Field-for-field mirror of the key inputs of the chaos sweeps
/// (`ChaosKeyInputs`, private to `sm_bench::experiments`). Serialized by
/// the same derive, it yields the same key; `trace.key_match_ratio`
/// reports when it stops doing so.
#[derive(Serialize)]
struct ChaosKeyInputs {
    network: String,
    net_fingerprint: String,
    config: AccelConfig,
    policy: Policy,
    plan: FaultPlan,
}

/// Field-for-field mirror of the comparison cells' key inputs
/// (`CompareKeyInputs`, private to `sm_bench::experiments`).
#[derive(Serialize)]
struct CompareKeyInputs {
    network: String,
    net_fingerprint: String,
    config: AccelConfig,
}

/// Work counted during a replay (the spans carry the times).
#[derive(Default)]
struct Counts {
    requests: usize,
    parse_bytes: usize,
    zoo_builds: usize,
    graph_loads: usize,
    fingerprints: usize,
    cells: usize,
    puts: usize,
    chaos_runs: usize,
    compare_runs: usize,
    layers: usize,
    error_cells: usize,
    modeled_cycles: u64,
    fm_bytes: u64,
}

/// The request fields the generated workloads use, with the service's
/// defaults.
struct Request {
    kind: String,
    network: String,
    seed: u64,
    dram_rate: f64,
    fractions: Option<Vec<f64>>,
    rates: Option<Vec<f64>>,
    site_rates: Option<Vec<f64>>,
    capacities_kib: Option<Vec<u64>>,
    graph: Option<String>,
}

fn request_fields(v: &Value) -> Result<Request, String> {
    let err = |e: serde::de::DeError| e.to_string();
    Ok(Request {
        kind: v.field("kind").map_err(err)?,
        network: v.field_opt("network").map_err(err)?.unwrap_or_default(),
        seed: v.field_opt("seed").map_err(err)?.unwrap_or(42),
        dram_rate: v.field_opt("dram_rate").map_err(err)?.unwrap_or(0.01),
        fractions: v.field_opt("fractions").map_err(err)?,
        rates: v.field_opt("rates").map_err(err)?,
        site_rates: v.field_opt("site_rates").map_err(err)?,
        capacities_kib: v.field_opt("capacities_kib").map_err(err)?,
        graph: v.field_opt("graph").map_err(err)?,
    })
}

/// State one replay pass threads through its requests.
struct Replay<'s> {
    t: Tracer,
    c: Counts,
    session: CacheSession<'s>,
    keys: Vec<CacheKey>,
}

impl Replay<'_> {
    /// One request, as `handle_request` in `sm_bench::service` serves it;
    /// returns the result JSON its `done` event carries.
    fn request(&mut self, line: &str) -> Result<String, String> {
        self.c.requests += 1;
        self.c.parse_bytes += line.len();
        let value = self
            .t
            .span("json.parse", || parse_document(line))
            .map_err(|e| e.to_string())?;
        let req = request_fields(&value)?;
        let net = match &req.graph {
            Some(doc) => {
                self.c.graph_loads += 1;
                self.t
                    .span("model.graph_load", || graph::load(doc))
                    .map_err(|e| e.to_string())?
            }
            None => {
                self.c.zoo_builds += 1;
                self.t
                    .span("model.zoo_build", || zoo::try_by_name(&req.network, 1))
                    .map_err(|e| e.to_string())?
            }
        };
        let config = AccelConfig::default();
        let name = net.name().to_string();
        let result = match req.kind.as_str() {
            "chaos-curve" => {
                let fractions = req.fractions.unwrap_or(DEFAULT_FRACTIONS.to_vec());
                let base = FaultPlan::new(req.seed).with_dram_faults(req.dram_rate);
                let plans: Vec<FaultPlan> = fractions
                    .iter()
                    .map(|&f| base.clone().with_bank_failures(f))
                    .collect();
                let points = self.chaos(&net, config, "chaos-point", &plans, |i, run| {
                    chaos_point(fractions[i], run)
                });
                self.encode(&ChaosCurve {
                    network: name,
                    seed: req.seed,
                    dram_fault_rate: req.dram_rate,
                    max_retries: base.max_retries,
                    points,
                })
            }
            "chaos-grid" => {
                let fractions = req.fractions.unwrap_or(DEFAULT_GRID_FRACTIONS.to_vec());
                let rates = req.rates.unwrap_or(DEFAULT_GRID_RATES.to_vec());
                let pairs: Vec<(f64, f64)> = fractions
                    .iter()
                    .flat_map(|&f| rates.iter().map(move |&r| (f, r)))
                    .collect();
                let plans: Vec<FaultPlan> = pairs
                    .iter()
                    .map(|&(f, r)| {
                        FaultPlan::new(req.seed)
                            .with_bank_failures(f)
                            .with_dram_faults(r)
                    })
                    .collect();
                let cells = self.chaos(&net, config, "chaos-grid-cell", &plans, |i, run| {
                    grid_cell(pairs[i], run)
                });
                self.encode(&ChaosGrid {
                    network: name,
                    seed: req.seed,
                    fractions,
                    rates,
                    cells,
                })
            }
            "chaos-grid3" => {
                let fractions = req.fractions.unwrap_or(DEFAULT_GRID_FRACTIONS.to_vec());
                let rates = req.rates.unwrap_or(DEFAULT_GRID_RATES.to_vec());
                let site_rates = req.site_rates.unwrap_or(DEFAULT_GRID_SITE_RATES.to_vec());
                let triples: Vec<(f64, f64, f64)> = fractions
                    .iter()
                    .flat_map(|&f| {
                        let site_rates = &site_rates;
                        rates
                            .iter()
                            .flat_map(move |&r| site_rates.iter().map(move |&s| (f, r, s)))
                    })
                    .collect();
                let plans: Vec<FaultPlan> = triples
                    .iter()
                    .map(|&(f, r, s)| {
                        FaultPlan::new(req.seed)
                            .with_bank_failures(f)
                            .with_dram_faults(r)
                            .with_weight_faults(s, Protection::Parity)
                            .with_pe_faults(s, Protection::Parity)
                    })
                    .collect();
                let cells = self.chaos(&net, config, "chaos-grid3-cell", &plans, |i, run| {
                    grid3_cell(triples[i], run)
                });
                self.encode(&ChaosGrid3 {
                    network: name,
                    seed: req.seed,
                    fractions,
                    rates,
                    site_rates,
                    cells,
                })
            }
            "compare" => {
                let cells = self.compare(&net, &[config]);
                self.encode(&cells)
            }
            "capacity-sweep" => {
                let caps = req
                    .capacities_kib
                    .unwrap_or(sm_bench::service::DEFAULT_CAPACITIES_KIB.to_vec());
                let configs: Vec<AccelConfig> = caps
                    .iter()
                    .map(|&kib| config.with_fm_capacity(kib * 1024))
                    .collect();
                let cells = self.compare(&net, &configs);
                self.encode(&cells)
            }
            other => return Err(format!("the replay does not serve kind {other:?}")),
        };
        let stats = self.session.stats();
        black_box(self.encode(&stats));
        Ok(result)
    }

    fn encode<T: Serialize>(&mut self, value: &T) -> String {
        self.t
            .span("json.encode", || to_string(value))
            .expect("result serialization is infallible")
    }

    /// Probes every key, then resolves cells in order: a hit is encoded, a
    /// miss is simulated, stored and encoded.
    fn cells<T: Serialize + Deserialize>(
        &mut self,
        keys: Vec<CacheKey>,
        mut compute: impl FnMut(&mut Self, usize) -> T,
    ) -> Vec<T> {
        let session = &self.session;
        let t = &mut self.t;
        let hits: Vec<Option<T>> = keys
            .iter()
            .map(|&k| t.span("cas.get", || session.get::<T>(k)))
            .collect();
        let mut cells = Vec::with_capacity(keys.len());
        for (i, hit) in hits.into_iter().enumerate() {
            let cell = match hit {
                Some(cell) => cell,
                None => {
                    let cell = compute(self, i);
                    let (session, key) = (&self.session, keys[i]);
                    self.t.span("cas.put", || session.put(key, &cell));
                    self.c.puts += 1;
                    cell
                }
            };
            black_box(self.encode(&cell));
            self.c.cells += 1;
            cells.push(cell);
        }
        self.keys.extend(keys);
        cells
    }

    /// A chaos sweep: one fingerprint per request, one key per plan.
    fn chaos<T: Serialize + Deserialize>(
        &mut self,
        net: &Network,
        config: AccelConfig,
        kind: &str,
        plans: &[FaultPlan],
        cell: impl Fn(usize, Result<SmRun, SimError>) -> T,
    ) -> Vec<T> {
        self.c.fingerprints += 1;
        let fp = self
            .t
            .span("cas.fingerprint", || content_fingerprint(net))
            .expect("networks serialize");
        let keys: Vec<CacheKey> = plans
            .iter()
            .map(|plan| {
                let inputs = ChaosKeyInputs {
                    network: net.name().to_string(),
                    net_fingerprint: fp.clone(),
                    config,
                    policy: Policy::shortcut_mining(),
                    plan: plan.clone(),
                };
                self.t
                    .span("cas.cell_key", || cell_key(kind, &inputs))
                    .expect("chaos cell inputs serialize")
            })
            .collect();
        let exp = Experiment::new(config);
        self.cells(keys, |r, i| {
            let options = SimOptions::with_faults(plans[i].clone());
            let run = r.t.span("sim.run_checked", || {
                exp.run_checked(net, Policy::shortcut_mining(), &options)
            });
            r.c.chaos_runs += 1;
            r.c.layers += net.len();
            match &run {
                Ok(run) => {
                    r.c.modeled_cycles += run.stats.total_cycles;
                    r.c.fm_bytes += run.stats.fm_traffic_bytes();
                }
                Err(_) => r.c.error_cells += 1,
            }
            cell(i, run)
        })
    }

    /// Comparison cells, one per config; like the service, each key takes
    /// its own network fingerprint.
    fn compare(&mut self, net: &Network, configs: &[AccelConfig]) -> Vec<ComparisonCell> {
        let keys: Vec<CacheKey> = configs
            .iter()
            .map(|&config| {
                self.c.fingerprints += 1;
                let fp = self
                    .t
                    .span("cas.fingerprint", || content_fingerprint(net))
                    .expect("networks serialize");
                let inputs = CompareKeyInputs {
                    network: net.name().to_string(),
                    net_fingerprint: fp,
                    config,
                };
                self.t
                    .span("cas.cell_key", || cell_key("compare-cell", &inputs))
                    .expect("compare cell inputs serialize")
            })
            .collect();
        self.cells(keys, |r, i| {
            let exp = Experiment::new(configs[i]);
            let cmp = r.t.span("sim.compare", || exp.compare(net));
            r.c.compare_runs += 1;
            r.c.layers += 2 * net.len();
            r.c.modeled_cycles += cmp.baseline.total_cycles + cmp.mined.total_cycles;
            r.c.fm_bytes += cmp.baseline.fm_traffic_bytes() + cmp.mined.fm_traffic_bytes();
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
        })
    }
}

fn chaos_point(fail_fraction: f64, run: Result<SmRun, SimError>) -> ChaosPoint {
    match run {
        Ok(run) => ChaosPoint {
            fail_fraction,
            banks_failed: run.stats.faults.banks_failed,
            completed: true,
            error: None,
            fm_bytes: run.stats.fm_traffic_bytes(),
            total_bytes: run.stats.total_traffic_bytes(),
            retry_bytes: run.stats.ledger.class_bytes(TrafficClass::Retry),
            evicted_bytes: run.stats.faults.evicted_bytes,
            total_cycles: run.stats.total_cycles,
            throughput_gops: run.stats.throughput_gops(),
        },
        Err(e) => ChaosPoint {
            fail_fraction,
            banks_failed: 0,
            completed: false,
            error: Some(e.to_string()),
            fm_bytes: 0,
            total_bytes: 0,
            retry_bytes: 0,
            evicted_bytes: 0,
            total_cycles: 0,
            throughput_gops: 0.0,
        },
    }
}

fn grid_cell((f, r): (f64, f64), run: Result<SmRun, SimError>) -> ChaosGridCell {
    let (completed, error, fm_bytes, total_bytes, retry_bytes, total_cycles) = outcome(run);
    ChaosGridCell {
        bank_fail_fraction: f,
        dram_fault_rate: r,
        completed,
        error,
        fm_bytes,
        total_bytes,
        retry_bytes,
        total_cycles,
    }
}

fn grid3_cell((f, r, s): (f64, f64, f64), run: Result<SmRun, SimError>) -> ChaosGrid3Cell {
    let (completed, error, fm_bytes, total_bytes, retry_bytes, total_cycles) = outcome(run);
    ChaosGrid3Cell {
        bank_fail_fraction: f,
        dram_fault_rate: r,
        site_fault_rate: s,
        completed,
        error,
        fm_bytes,
        total_bytes,
        retry_bytes,
        total_cycles,
    }
}

/// The fields the grid cells share, zero for a refused run.
fn outcome(run: Result<SmRun, SimError>) -> (bool, Option<String>, u64, u64, u64, u64) {
    match run {
        Ok(run) => (
            true,
            None,
            run.stats.fm_traffic_bytes(),
            run.stats.total_traffic_bytes(),
            run.stats.ledger.class_bytes(TrafficClass::Retry),
            run.stats.total_cycles,
        ),
        Err(e) => (false, Some(e.to_string()), 0, 0, 0, 0),
    }
}

/// One in-process replay pass: the set-up lines untraced, then the timed
/// lines with spans on or off, from a cold plan cache and an empty store.
struct Pass {
    wall: Duration,
    t: Tracer,
    c: Counts,
    store: CacheStats,
    plan: (u64, u64),
    keys: Vec<CacheKey>,
    /// The result JSON of each timed request.
    results: Vec<String>,
    store_bytes: u64,
}

fn replay(setup: &[String], timed: &[String], dir: &Path, on: bool) -> Result<Pass, String> {
    plan_cache_clear();
    let store = ResultCache::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut r = Replay {
        t: Tracer::new(false),
        c: Counts::default(),
        session: store.session(),
        keys: Vec::new(),
    };
    for line in setup {
        r.session = store.session();
        r.request(line)?;
    }
    r.c = Counts::default();
    r.t = Tracer::new(on);
    let before = store.stats();
    let plan = PlanCacheSnapshot::take();
    let mut results = Vec::with_capacity(timed.len());
    let start = Instant::now();
    for (i, line) in timed.iter().enumerate() {
        r.t.req = i;
        r.session = store.session();
        let at = Instant::now();
        results.push(r.request(line)?);
        if on {
            let dur = at.elapsed();
            let start = at - r.t.t0;
            r.t.spans.push(Span {
                name: "request",
                req: i,
                start,
                dur,
            });
        }
    }
    let wall = start.elapsed();
    let after = store.stats();
    let delta = CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        bytes_read: after.bytes_read - before.bytes_read,
        bytes_written: after.bytes_written - before.bytes_written,
        write_failures: after.write_failures - before.write_failures,
        ..CacheStats::default()
    };
    Ok(Pass {
        wall,
        t: r.t,
        c: r.c,
        store: delta,
        plan: plan.delta(),
        keys: r.keys,
        results,
        store_bytes: dir_bytes(dir),
    })
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The in-process service (`run_serve` at one worker and one request in
/// flight, on in-memory I/O) over the set-up lines, then timed over the
/// timed lines; returns that time and the output.
fn inproc_serve(
    setup: &[String],
    timed: &[String],
    dir: &Path,
) -> Result<(Duration, Vec<u8>), String> {
    plan_cache_clear();
    let store = ResultCache::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let options = ServeOptions {
        max_inflight: 1,
        ..ServeOptions::default()
    };
    let io = |e: std::io::Error| e.to_string();
    run_serve(
        setup.join("\n").as_bytes(),
        std::io::sink(),
        &store,
        &options,
    )
    .map_err(io)?;
    let input = timed.join("\n");
    let mut out = Vec::new();
    let start = Instant::now();
    run_serve(input.as_bytes(), &mut out, &store, &options).map_err(io)?;
    Ok((start.elapsed(), out))
}

/// Share of `replayed` results (the timed requests in order, ids `r0`, `r1`,
/// …) whose bytes equal the `result` of the `done` event for the same id in
/// the service's output `served`. Below 1 the replay's copies of the
/// service's request handling and cell builders have drifted from it.
fn result_match_ratio(replayed: &[String], served: &[u8]) -> f64 {
    let served = String::from_utf8_lossy(served);
    let answers: HashMap<u64, &str> = served
        .lines()
        .filter_map(|line| match split_event(line)? {
            (id, "done", rest) => Some((id, done_result(rest)?)),
            _ => None,
        })
        .collect();
    let matched = replayed
        .iter()
        .enumerate()
        .filter(|&(i, r)| answers.get(&(i as u64)) == Some(&r.as_str()))
        .count();
    div(matched as f64, replayed.len() as f64)
}

/// The traced run of `w`.
pub fn run(ctx: &Ctx, w: Workload, seed: u64) -> Result<Report, String> {
    set_threads(Some(1));
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let (attempted, failed, spans) = if w == Workload::Figures {
        figures(ctx, &mut values)?
    } else {
        serve(ctx, w, seed, &mut values)?
    };
    write_chrome_trace(&ctx.out.join(format!("trace-{}.json", w.name())), w, &spans)?;
    let mut report = Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    for (name, unit) in per_layer_metrics() {
        let value = values.get(&name).copied().unwrap_or(0.0);
        report.push(name, value, unit);
    }
    Ok(report)
}

/// Divides, reporting 0 where nothing was measured.
fn div(total: f64, over: f64) -> f64 {
    if over == 0.0 {
        0.0
    } else {
        total / over
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn serve(
    ctx: &Ctx,
    w: Workload,
    seed: u64,
    v: &mut BTreeMap<String, f64>,
) -> Result<(usize, usize, Vec<Span>), String> {
    let plan = gen::serve_plan(w, seed, 1, &ctx.root)?;
    // What fills the store before timing: the preparation where there is
    // one (its set-up only re-reads it), else the set-up.
    let warmup = if plan.prepare.is_empty() {
        &plan.setup
    } else {
        &plan.prepare
    };
    let timed_idx = &plan.timed[..TRACE_REQS.min(plan.timed.len())];
    let lines = |idx: &[usize]| -> Vec<String> {
        idx.iter()
            .enumerate()
            .map(|(i, &r)| plan.pool[r].line(i as u64))
            .collect()
    };
    let (setup, timed) = (lines(warmup), lines(timed_idx));
    ctx.sweep_stores();

    // The real service over the same requests: the store its keys must
    // match, and the wall time its two workers had for the timed part.
    let smctl_store = ctx.store("trace-smctl");
    let mut tracker = Tracker::default();
    let mut server = Server::spawn(&ctx.bin("smctl"), &smctl_store).map_err(|e| e.to_string())?;
    let served = drive(&mut server, &mut tracker, &plan.pool, warmup, None).and_then(|_| {
        let start = Instant::now();
        drive(&mut server, &mut tracker, &plan.pool, timed_idx, None)?;
        Ok(start.elapsed())
    });
    let e2e_wall = match served.and_then(|wall| server.shutdown().map(|()| wall)) {
        Ok(wall) => wall,
        Err(e) => {
            eprintln!("smbench: {}: {e}", w.name());
            tracker.abandon();
            Duration::ZERO
        }
    };

    // Untraced and traced replays and the in-process service, in rounds;
    // each keeps its fastest pass. Every pass starts from an empty store,
    // after the previous pass's writes reached disk.
    let mut best: [Option<Pass>; 2] = [None, None];
    let mut inproc: Option<(Duration, Vec<u8>)> = None;
    for round in 0..PASS_ROUNDS {
        for on in [false, true] {
            let dir = ctx.store(&format!("trace-{round}-{on}"));
            crate::host::sync();
            let pass = replay(&setup, &timed, &dir, on)?;
            let _ = std::fs::remove_dir_all(&dir);
            let slot = &mut best[usize::from(on)];
            if slot.as_ref().is_none_or(|b| pass.wall < b.wall) {
                *slot = Some(pass);
            }
        }
        let dir = ctx.store(&format!("trace-{round}-inproc"));
        crate::host::sync();
        let served = inproc_serve(&setup, &timed, &dir)?;
        let _ = std::fs::remove_dir_all(&dir);
        if inproc.as_ref().is_none_or(|b| served.0 < b.0) {
            inproc = Some(served);
        }
    }
    let ([Some(off), Some(on)], Some((inproc, out))) = (best, inproc) else {
        unreachable!("every kind of pass ran")
    };

    let matched = on
        .keys
        .iter()
        .filter(|k| {
            smctl_store
                .join(format!("v{CACHE_SCHEMA_VERSION}"))
                .join(format!("{}.json", k.hex()))
                .is_file()
        })
        .count();
    ctx.sweep_stores();
    let result_match = result_match_ratio(&on.results, &out);
    if result_match < 1.0 {
        eprintln!(
            "smbench: WARNING: {}: only {result_match} of the replayed results equal the \
             service's; the replay no longer mirrors sm_bench::service",
            w.name()
        );
    }

    // Times in microseconds; a quotient over nothing measured reads 0.
    let (t, c, st) = (&on.t, &on.c, &on.store);
    let span = |name: &str| us(t.total(name));
    let sim = span("sim.run_checked") + span("sim.compare");
    let layers: f64 = t
        .spans
        .iter()
        .filter(|s| s.name != "request")
        .map(|s| us(s.dur))
        .sum();
    let n = c.requests as f64;
    let cells = c.cells as f64;
    let events = out.iter().filter(|&&b| b == b'\n').count();
    let values = [
        ("json.parse_us", div(span("json.parse"), n)),
        // Bytes per microsecond are megabytes per second.
        (
            "json.parse_mb_per_s",
            div(c.parse_bytes as f64, span("json.parse")),
        ),
        ("json.encode_us_per_cell", div(span("json.encode"), cells)),
        (
            "model.graph_load_us",
            div(span("model.graph_load"), c.graph_loads as f64),
        ),
        (
            "model.zoo_build_us",
            div(span("model.zoo_build"), c.zoo_builds as f64),
        ),
        (
            "cas.fingerprint_us",
            div(span("cas.fingerprint"), c.fingerprints as f64),
        ),
        (
            "cas.fingerprint_calls_per_req",
            div(c.fingerprints as f64, n),
        ),
        ("cas.key_us_per_cell", div(span("cas.cell_key"), cells)),
        ("cas.probe_us_per_cell", div(span("cas.get"), cells)),
        ("cas.put_us_per_cell", div(span("cas.put"), c.puts as f64)),
        (
            "cas.bytes_written_per_put",
            div(st.bytes_written as f64, c.puts as f64),
        ),
        ("cas.store_mb", on.store_bytes as f64 / 1e6),
        (
            "cas.hit_ratio",
            div(st.hits as f64, (st.hits + st.misses) as f64),
        ),
        (
            "cas.bytes_read_per_hit",
            div(st.bytes_read as f64, st.hits as f64),
        ),
        ("cas.evictions", st.evictions as f64),
        ("cas.write_failures", st.write_failures as f64),
        (
            "sim.chaos_us_per_cell",
            div(span("sim.run_checked"), c.chaos_runs as f64),
        ),
        (
            "sim.compare_us_per_cell",
            div(span("sim.compare"), c.compare_runs as f64),
        ),
        ("sim.ns_per_layer", div(sim * 1e3, c.layers as f64)),
        (
            "tiling.plan_hit_ratio",
            div(on.plan.0 as f64, (on.plan.0 + on.plan.1) as f64),
        ),
        ("sim.error_cells", c.error_cells as f64),
        ("sim.modeled_cycles_total", c.modeled_cycles as f64),
        ("sim.fm_bytes_total", c.fm_bytes as f64),
        ("service.inproc_us_per_req", div(us(inproc), n)),
        ("service.overhead_us_per_req", div(us(inproc) - layers, n)),
        ("service.events_per_req", div(events as f64, n)),
        ("service.bytes_out_per_req", div(out.len() as f64, n)),
        ("parallel.busy_share", div(sim, us(e2e_wall) * 2.0)),
        (
            "trace.overhead_pct",
            (div(us(on.wall), us(off.wall)) - 1.0) * 100.0,
        ),
        (
            "trace.key_match_ratio",
            div(matched as f64, on.keys.len() as f64),
        ),
        ("trace.result_match_ratio", result_match),
    ];
    v.extend(values.map(|(name, value)| (name.to_string(), value)));

    print_self_times(w.name(), &on.t);
    Ok((tracker.attempted, tracker.failed, on.t.spans))
}

/// Prints each layer's self time: its spans' durations, less the part of
/// them covered by child spans (only `request` spans have children).
fn print_self_times(workload: &str, t: &Tracer) {
    let mut totals: BTreeMap<&str, (usize, Duration)> = BTreeMap::new();
    for s in &t.spans {
        let e = totals.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur;
    }
    let replay = totals.get("request").map_or(Duration::ZERO, |e| e.1);
    let children: Duration = totals
        .iter()
        .filter(|(name, _)| **name != "request")
        .map(|(_, e)| e.1)
        .sum();
    for (name, (calls, total)) in &totals {
        let own = if *name == "request" {
            total.saturating_sub(children)
        } else {
            *total
        };
        println!(
            "{workload:<13} {:<40} {:>20} ms  {calls} calls, {:.1}% of the replay",
            format!("self.{name}"),
            number(own.as_secs_f64() * 1e3),
            own.as_secs_f64() * 100.0 / replay.as_secs_f64().max(f64::MIN_POSITIVE)
        );
    }
}

/// A figure or table builder, called for its work only.
type Builder = Box<dyn Fn()>;

/// The builders `all_experiments` and `ext_experiments` call, by name, in
/// the order they call them.
fn figure_builders() -> Vec<(&'static str, Builder)> {
    macro_rules! b {
        ($name:ident($($arg:expr),*)) => {
            (stringify!($name), Box::new(move || {
                black_box($name($($arg),*));
            }) as Builder)
        };
    }
    let cfg = AccelConfig::default();
    vec![
        b!(fig2_shortcut_share(1)),
        b!(table1_networks(1)),
        b!(table2_config(cfg)),
        b!(fig10_traffic_reduction(cfg, 1)),
        b!(fig11_traffic_breakdown(cfg, 1)),
        b!(fig12_per_block(cfg, 1)),
        b!(fig13_throughput(cfg, 1)),
        b!(fig14_capacity_sweep(cfg, 1)),
        b!(fig15_batch_sweep(cfg)),
        b!(fig16_energy(cfg, 1)),
        b!(table3_ablation(cfg, 1)),
        b!(fig17_intermediate_layers(cfg, 1)),
        b!(ext_new_workloads(cfg, 1)),
        b!(ext_bandwidth_sweep(cfg, 1)),
        b!(ext_capacity_requirements(cfg, 1)),
        b!(ext_spill_order(cfg, 1)),
        b!(ext_datatype(cfg, 1)),
        b!(ext_pipeline_validation(cfg, 1)),
        b!(ext_share_vs_benefit(cfg, 1)),
        b!(ext_batch_schedule(cfg)),
        b!(ext_bound_breakdown(cfg, 1)),
        b!(ext_ddr_bandwidth(cfg, 1)),
        b!(ext_bcu_overhead(cfg)),
        b!(ext_architecture_comparison(cfg, 1)),
        b!(retry_budget_sweep(
            &zoo::resnet34(1),
            cfg,
            42,
            0.05,
            &DEFAULT_RETRY_BUDGETS
        )),
    ]
}

/// Times every builder from a cold plan cache, [`FIGURE_PASSES`] times,
/// and counts two-thread regenerations that differ from a one-thread one.
fn figures(ctx: &Ctx, v: &mut BTreeMap<String, f64>) -> Result<(usize, usize, Vec<Span>), String> {
    let builders = figure_builders();
    let mut t = Tracer::new(true);
    for pass in 0..FIGURE_PASSES {
        plan_cache_clear();
        t.req = pass;
        for (name, build) in &builders {
            t.span(name, build);
        }
    }
    for (name, _) in &builders {
        let ms: Vec<f64> = t
            .spans
            .iter()
            .filter(|s| s.name == *name)
            .map(|s| s.dur.as_secs_f64() * 1e3)
            .collect();
        v.insert(format!("experiments.{name}_ms"), median(&ms));
    }

    let io = |e: std::io::Error| format!("figures: {e}");
    let reference = crate::figures::regenerate(ctx, 1).map_err(io)?;
    let mut failed = usize::from(!reference.ok);
    let mut divergent = 0;
    for _ in 0..FIGURE_REGENS {
        let r = crate::figures::regenerate(ctx, 2).map_err(io)?;
        failed += usize::from(!r.ok);
        divergent += usize::from(r.ok && r.outputs != reference.outputs);
    }
    v.insert("figures.divergent_outputs".into(), divergent as f64);
    Ok((1 + FIGURE_REGENS, failed, t.spans))
}

/// Writes spans as Chrome trace-event JSON (opens in Perfetto): one
/// complete event per span, times in microseconds, the request index in
/// `args.req`.
fn write_chrome_trace(path: &Path, w: Workload, spans: &[Span]) -> Result<(), String> {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\"args\":{{\"req\":{}}}}}",
            s.name,
            w.name(),
            number(us(s.start)),
            number(us(s.dur)),
            s.req
        );
    }
    out.push_str("\n]}\n");
    std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_match_the_done_events_of_the_same_ids() {
        let served = concat!(
            r#"{"id":"r0","event":"accepted","kind":"compare"}"#,
            "\n",
            r#"{"id":"r0","event":"done","ms":1.0,"result":[{"a":1}],"cache":{"hits":0}}"#,
            "\n",
            r#"{"id":"r1","event":"done","ms":1.0,"result":[{"a":2}],"cache":{"hits":0}}"#,
            "\n",
        );
        let replayed = |r: &[&str]| r.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let ratio = |r: &[&str]| result_match_ratio(&replayed(r), served.as_bytes());
        assert_eq!(ratio(&[r#"[{"a":1}]"#, r#"[{"a":2}]"#]), 1.0);
        assert_eq!(ratio(&[r#"[{"a":1}]"#, r#"[{"a":3}]"#]), 0.5);
        // A third request the service never answered does not match.
        assert_eq!(ratio(&[r#"[{"a":1}]"#, r#"[{"a":2}]"#, "[]"]), 2.0 / 3.0);
    }
}
