//! Seeded request streams for the benchmark's workloads.
//!
//! Every stream is a pure function of `--seed`: the program under test only
//! ever sees the generated request lines. Streams are built in *blocks*
//! that contain every (network, kind) combination of a workload once, in a
//! seeded order, so two seeds differ in order, fault seeds and capacities
//! but not in the mix of work. That keeps run-to-run spread down to what
//! the host adds.

use std::collections::HashSet;
use std::path::Path;

use sm_bench::experiments::{
    DEFAULT_FRACTIONS, DEFAULT_GRID_FRACTIONS, DEFAULT_GRID_RATES, DEFAULT_GRID_SITE_RATES,
};
use sm_model::{graph, zoo};

/// SplitMix64: a tiny generator whose output is fixed forever, so a seed
/// names the same request stream in every later version of the benchmark.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw from `0..n` (modulo bias is irrelevant here).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// A fault seed; kept below 2^48 so it reads the same in any JSON tool.
    fn fault_seed(&mut self) -> u64 {
        self.next_u64() >> 16
    }
}

/// The benchmark's workloads (see README.md for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeCold,
    ServeWarm,
    ServeDelta,
    ServeIngest,
    Figures,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ServeCold,
        Workload::ServeWarm,
        Workload::ServeDelta,
        Workload::ServeIngest,
        Workload::Figures,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCold => "serve-cold",
            Workload::ServeWarm => "serve-warm",
            Workload::ServeDelta => "serve-delta",
            Workload::ServeIngest => "serve-ingest",
            Workload::Figures => "figures",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Zoo networks of the serve workloads. GoogLeNet is left out on purpose:
/// its results are not reproducible across processes (see README.md), and
/// a result that differs between two passes of one line is a failure.
const SERVE_NETS: [&str; 12] = [
    "resnet18",
    "resnet34",
    "resnet50",
    "resnet101",
    "resnet152",
    "squeezenet_v10",
    "squeezenet_v10_simple_bypass",
    "squeezenet_v10_complex_bypass",
    "squeezenet_v11",
    "densenet121",
    "mobilenet_v2",
    "vgg16",
];

const COLD_KINDS: [&str; 4] = ["chaos-curve", "chaos-grid", "chaos-grid3", "capacity-sweep"];

/// One block of the cold stream: every network and kind once.
const COLD_BLOCK: usize = SERVE_NETS.len() * COLD_KINDS.len();

/// Cold requests each round's set-up serves: one block.
pub const COLD_PRIME: usize = COLD_BLOCK;

/// Distinct requests of `serve-warm`: the first ten blocks of the cold
/// stream, written to the store before the rounds and replayed while
/// timing.
pub const WARM_SET: usize = 10 * COLD_BLOCK;

/// The per-network streams of `serve-delta`.
pub const DELTA_NETS: [&str; 6] = [
    "resnet34",
    "resnet50",
    "resnet152",
    "squeezenet_v11",
    "densenet121",
    "mobilenet_v2",
];

/// Width of the sliding DRAM-rate window of a `serve-delta` request; each
/// request slides one step past the previous one of its stream.
const DELTA_WINDOW: usize = 10;

/// Bank-failure rows of a `serve-delta` grid.
const DELTA_FRACTIONS: [f64; 3] = [0.0, 0.1, 0.3];

/// Rounds of the `serve-delta` streams (one request per stream each)
/// each set-up serves; the first fills a whole window, the rest slide it.
const DELTA_SETUP_ROUNDS: usize = 5;

/// Zoo networks `serve-ingest` exports as inline graph documents, each at
/// batch 1 and 2; the example graphs under `examples/` ride along.
pub const INGEST_NETS: [&str; 6] = [
    "resnet18",
    "resnet50",
    "resnet152",
    "squeezenet_v11",
    "densenet121",
    "mobilenet_v2",
];

/// Capacity axis (KiB) of the `serve-ingest` capacity sweeps.
pub const INGEST_CAPS: [u64; 4] = [128, 512, 2048, 8192];

/// Capacity values (KiB) a cold capacity sweep draws from: `32..32 + N`.
const COLD_CAP_RANGE: u64 = 16384;

/// Requests a timed slice may need, per second of the whole window: over
/// ten times what a 2-core host serves in a slice. The stream is cut there;
/// a host fast enough to exhaust it ends a slice early and the run says so. The
/// workloads that write the store are slower, and the cold stream's
/// capacity draws must not run out, so theirs is capped lower.
const REQS_PER_SECOND: usize = 8000;
const WRITE_REQS_PER_SECOND: usize = 2000;

/// One request without its id: the members of the JSON object that follow
/// `"id"`, plus the cell count its axes imply.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    pub body: String,
    pub cells: usize,
}

impl Req {
    /// The request line with id `r<id>`.
    pub fn line(&self, id: u64) -> String {
        format!("{{\"id\":\"r{id}\",{}}}", self.body)
    }
}

/// A serve workload's requests, as indices into `pool`.
pub struct Plan {
    pub pool: Vec<Req>,
    /// Served once, untimed, into a store every round then reopens; empty
    /// when each round starts from an empty store.
    pub prepare: Vec<usize>,
    /// Served by each round's set-up, before its timed slice.
    pub setup: Vec<usize>,
    /// The timed stream; every round's slice serves it from its start.
    pub timed: Vec<usize>,
}

/// The `"network":…` member naming a zoo network.
pub fn zoo_target(name: &str) -> String {
    format!("\"network\":\"{name}\"")
}

/// The `"graph":…` member carrying a graph document as a JSON string.
pub fn graph_target(doc: &str) -> String {
    let quoted = serde::json::to_string(&doc).expect("string serialization is infallible");
    format!("\"graph\":{quoted}")
}

/// A `chaos-curve`, `chaos-grid` or `chaos-grid3` request on the service's
/// default axes.
pub fn chaos(kind: &str, target: &str, seed: u64) -> Req {
    let cells = match kind {
        "chaos-curve" => DEFAULT_FRACTIONS.len(),
        "chaos-grid" => DEFAULT_GRID_FRACTIONS.len() * DEFAULT_GRID_RATES.len(),
        "chaos-grid3" => {
            DEFAULT_GRID_FRACTIONS.len() * DEFAULT_GRID_RATES.len() * DEFAULT_GRID_SITE_RATES.len()
        }
        other => panic!("not a chaos kind: {other}"),
    };
    Req {
        body: format!("\"kind\":\"{kind}\",{target},\"seed\":{seed}"),
        cells,
    }
}

/// A `capacity-sweep` request over `caps` (KiB).
pub fn capacity_sweep(target: &str, caps: &[u64]) -> Req {
    Req {
        body: format!(
            "\"kind\":\"capacity-sweep\",{target},\"capacities_kib\":{}",
            list(caps)
        ),
        cells: caps.len(),
    }
}

/// A `compare` request (one cell).
pub fn compare(target: &str) -> Req {
    Req {
        body: format!("\"kind\":\"compare\",{target}"),
        cells: 1,
    }
}

/// A `chaos-grid` request whose DRAM-rate axis is the window of
/// [`DELTA_WINDOW`] rates starting at step `start` of the ladder `i/10000`.
pub fn sliding_grid(target: &str, seed: u64, start: usize) -> Req {
    let rates: Vec<f64> = (start..start + DELTA_WINDOW)
        .map(|i| i as f64 / 10_000.0)
        .collect();
    Req {
        body: format!(
            "\"kind\":\"chaos-grid\",{target},\"seed\":{seed},\"fractions\":{},\"rates\":{}",
            list(&DELTA_FRACTIONS),
            list(&rates)
        ),
        cells: DELTA_FRACTIONS.len() * DELTA_WINDOW,
    }
}

fn list<T: std::fmt::Display>(items: &[T]) -> String {
    let parts: Vec<String> = items.iter().map(T::to_string).collect();
    format!("[{}]", parts.join(","))
}

/// The first `n` requests of the cold stream: blocks of every
/// [`SERVE_NETS`] × cold-kind pair in seeded order, unique fault seeds, and
/// capacity values never repeated for a network, so every cell misses.
fn cold_pool(seed: u64, n: usize) -> Vec<Req> {
    // Each block draws four capacities per network; the range must outlast
    // the stream or the draw below could not find an unused value.
    assert!(
        (n / COLD_BLOCK + 1) * 4 < COLD_CAP_RANGE as usize,
        "cold stream of {n} requests would exhaust the capacity range"
    );
    let mut rng = Rng::new(seed ^ 0xC01D);
    let mut caps_used: HashSet<(usize, u64)> = HashSet::new();
    let mut pool = Vec::with_capacity(n + COLD_BLOCK);
    while pool.len() < n {
        let mut block: Vec<(usize, &str)> = (0..SERVE_NETS.len())
            .flat_map(|net| COLD_KINDS.iter().map(move |&kind| (net, kind)))
            .collect();
        rng.shuffle(&mut block);
        for (net, kind) in block {
            let target = zoo_target(SERVE_NETS[net]);
            pool.push(if kind == "capacity-sweep" {
                let mut caps = Vec::new();
                while caps.len() < 4 {
                    let kib = 32 + rng.below(COLD_CAP_RANGE);
                    if caps_used.insert((net, kib)) {
                        caps.push(kib);
                    }
                }
                capacity_sweep(&target, &caps)
            } else {
                chaos(kind, &target, rng.fault_seed())
            });
        }
    }
    pool.truncate(n);
    pool
}

/// The graph documents `serve-ingest` sends inline: [`INGEST_NETS`] at
/// batch 1 and 2, exported by the model crate, then `examples/*.json` in
/// name order.
fn ingest_docs(root: &Path) -> Result<Vec<String>, String> {
    let mut docs = Vec::new();
    for name in INGEST_NETS {
        for batch in [1, 2] {
            let net = zoo::try_by_name(name, batch).map_err(|e| format!("{name}: {e}"))?;
            docs.push(graph::export_json(&net));
        }
    }
    let dir = root.join("examples");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    for path in files {
        docs.push(
            std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
        );
    }
    Ok(docs)
}

/// The requests of a serve workload for a window of `seconds`.
///
/// # Panics
///
/// Panics on [`Workload::Figures`], which sends no requests.
pub fn serve_plan(w: Workload, seed: u64, seconds: u64, root: &Path) -> Result<Plan, String> {
    let seconds = seconds.max(1) as usize;
    let cap = REQS_PER_SECOND * seconds;
    let write_cap = WRITE_REQS_PER_SECOND * seconds;
    Ok(match w {
        Workload::ServeCold => Plan {
            pool: cold_pool(seed, COLD_PRIME + write_cap),
            prepare: Vec::new(),
            setup: (0..COLD_PRIME).collect(),
            timed: (COLD_PRIME..COLD_PRIME + write_cap).collect(),
        },
        Workload::ServeWarm => Plan {
            pool: cold_pool(seed, WARM_SET),
            prepare: (0..WARM_SET).collect(),
            setup: (0..WARM_SET).collect(),
            timed: (0..cap).map(|i| i % WARM_SET).collect(),
        },
        Workload::ServeDelta => {
            let mut rng = Rng::new(seed ^ 0xDE17A);
            let seeds: Vec<u64> = DELTA_NETS.iter().map(|_| rng.fault_seed()).collect();
            let setup = DELTA_SETUP_ROUNDS * DELTA_NETS.len();
            let mut pool = Vec::new();
            while pool.len() < setup + write_cap {
                let step = pool.len() / DELTA_NETS.len();
                let mut streams: Vec<usize> = (0..DELTA_NETS.len()).collect();
                rng.shuffle(&mut streams);
                for s in streams {
                    pool.push(sliding_grid(&zoo_target(DELTA_NETS[s]), seeds[s], step));
                }
            }
            Plan {
                prepare: Vec::new(),
                setup: (0..setup).collect(),
                timed: (setup..pool.len()).collect(),
                pool,
            }
        }
        Workload::ServeIngest => {
            let mut rng = Rng::new(seed ^ 0x16E57);
            let mut pool = Vec::new();
            for doc in ingest_docs(root)? {
                let target = graph_target(&doc);
                pool.push(compare(&target));
                pool.push(capacity_sweep(&target, &INGEST_CAPS));
            }
            let mut timed = Vec::with_capacity(cap + pool.len());
            while timed.len() < cap {
                let mut pass: Vec<usize> = (0..pool.len()).collect();
                rng.shuffle(&mut pass);
                timed.extend(pass);
            }
            Plan {
                prepare: (0..pool.len()).collect(),
                setup: (0..pool.len()).collect(),
                timed,
                pool,
            }
        }
        Workload::Figures => panic!("figures sends no serve requests"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> &'static Path {
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
    }

    fn first_lines(w: Workload, seed: u64, n: usize) -> Vec<String> {
        let plan = serve_plan(w, seed, 1, root()).unwrap();
        plan.setup
            .iter()
            .chain(&plan.timed)
            .take(n)
            .enumerate()
            .map(|(i, &r)| plan.pool[r].line(i as u64))
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_bytes_and_another_seed_does_not() {
        for w in [
            Workload::ServeCold,
            Workload::ServeWarm,
            Workload::ServeDelta,
            Workload::ServeIngest,
        ] {
            let a = first_lines(w, 7, 300);
            assert_eq!(a, first_lines(w, 7, 300), "{}", w.name());
            assert_ne!(a, first_lines(w, 8, 300), "{}", w.name());
        }
    }

    #[test]
    fn warm_replays_the_head_of_the_cold_stream() {
        let cold = cold_pool(3, WARM_SET);
        let warm = serve_plan(Workload::ServeWarm, 3, 1, root()).unwrap();
        assert_eq!(warm.pool, cold);
        assert!(warm.timed.iter().all(|&i| i < WARM_SET));
    }

    #[test]
    fn cold_cells_never_repeat() {
        // A chaos cell is keyed by its request's fault seed, a capacity cell
        // by (network, capacity): both must be unique across the stream.
        let mut cells = HashSet::new();
        for r in cold_pool(11, 2000) {
            let (head, caps) = r
                .body
                .split_once(",\"capacities_kib\":")
                .unwrap_or((&r.body, ""));
            if caps.is_empty() {
                assert!(cells.insert(r.body.clone()), "{}", r.body);
            }
            for kib in caps
                .trim_matches(['[', ']'])
                .split(',')
                .filter(|k| !k.is_empty())
            {
                assert!(cells.insert(format!("{head} {kib}")), "{head} {kib}");
            }
        }
    }

    #[test]
    fn delta_requests_share_nine_tenths_of_their_cells_with_the_previous_one() {
        let plan = serve_plan(Workload::ServeDelta, 5, 1, root()).unwrap();
        let resnet34: Vec<&Req> = plan
            .pool
            .iter()
            .filter(|r| r.body.contains("\"resnet34\""))
            .take(2)
            .collect();
        let rates = |r: &Req| r.body.split("\"rates\":").nth(1).unwrap().to_string();
        assert_eq!(
            rates(resnet34[0]),
            "[0,0.0001,0.0002,0.0003,0.0004,0.0005,0.0006,0.0007,0.0008,0.0009]"
        );
        assert!(rates(resnet34[1]).starts_with("[0.0001,"));
        assert!(rates(resnet34[1]).ends_with(",0.001]"));
    }
}
