//! Resident sweep service behind `smctl serve`.
//!
//! A long-running process reads newline-delimited JSON sweep requests from
//! its input, schedules the missing cells largest-cost-first over the
//! existing worker pool ([`sm_core::parallel`]), and streams JSON events
//! back as cells complete. All requests share one content-addressed
//! [`ResultCache`], so a second request overlapping a first is answered
//! almost entirely from cache (delta simulation); each request gets its own
//! [`CacheSession`](crate::cas::CacheSession) so concurrent clients see
//! unsmeared per-request hit rates.
//!
//! # Protocol
//!
//! One request per line:
//!
//! ```json
//! {"id":"r1","kind":"chaos-grid","network":"toy_residual","seed":7}
//! ```
//!
//! Fields: `id` (any string, echoed on every response), `kind` (see below),
//! `network` (zoo name; see `smctl networks`), and optional `batch`
//! (default 1), `seed` (default 42), `dram_rate` (default 0.01),
//! `retry_budget`, `fractions`, `rates`, `site_rates`, `budgets`,
//! `capacities_kib` — each overriding the sweep's default axis — plus:
//!
//! * `deadline_ms` — per-request deadline; an overrunning sweep is
//!   cancelled at cell granularity and answered with a typed
//!   `{"event":"error","reason":"deadline"}` instead of hanging the line.
//! * `graph` — an inline `sm-graph-v1` document **as a JSON string**
//!   (i.e. the document itself JSON-escaped), lowered via
//!   [`sm_model::graph::load`]; takes precedence over `net_file` and
//!   `network`.
//! * `net_file` — path to a graph document on the server's filesystem.
//!
//! Ingested networks fold their full content fingerprint
//! ([`crate::cas::content_fingerprint`]) into every cell key, so two
//! different graphs sharing a name never alias in the store. For `graph` /
//! `net_file` requests the `batch` field is ignored — the batch is baked
//! into the document's input shape. Zoo networks are built and
//! fingerprinted once per `(name, batch)` and kept in a small bounded memo
//! for the life of the service, so a warm request pays only for probes
//! and encoding.
//!
//! The `kind` field names a [`SweepKind`] — the registry in
//! [`crate::sweep`] lists every kind with its sweep and cell type — and the
//! axis fields fill its [`SweepAxes`]. The network is resolved before the
//! kind is looked up, so a request naming both an unknown network and an
//! unknown kind reports the network.
//!
//! # Concurrency and the deterministic mux
//!
//! Up to [`ServeOptions::max_inflight`] requests execute concurrently.
//! Every request writes its events to a private queue, and a single
//! emitter thread drains those queues **in request-admission order**: all
//! of request 1's events, then all of request 2's, and so on. Each
//! request's stream is internally ordered (`accepted` → `cell` in index
//! order → `done`/`error`), so when the requests in flight share no cells
//! the *entire output* is byte-identical to sequential serving at any
//! `max_inflight` and any worker-thread count. Requests that do share
//! cells race to compute them: the `cached` flags and `cache` counts then
//! depend on which request got there first, but every `result` payload is
//! still the sequential one.
//!
//! ```json
//! {"id":"r1","event":"accepted","kind":"chaos-grid"}
//! {"id":"r1","event":"cell","index":0,"cached":false,"data":{...}}
//! {"id":"r1","event":"done","ms":12.5,"result":{...},"cache":{"hits":0,"misses":12,...}}
//! ```
//!
//! (`ms` is wall-clock; [`ServeOptions::deterministic_timing`] pins it to
//! `0.000` so whole outputs can be compared bytewise across runs.)
//!
//! Malformed or unserviceable requests produce a single
//! `{"id":...,"event":"error","reason":...,"message":...}` line
//! (`reason` ∈ `bad-request` / `unserviceable` / `deadline` /
//! `write-failed`) and the service keeps reading. A line that is not
//! UTF-8 or is longer than [`MAX_LINE_BYTES`] is a `bad-request` with an
//! empty id; an over-long line is skipped without being stored. A request
//! whose sweep would run more than [`MAX_CELLS_PER_REQUEST`] cells is a
//! `bad-request` too, answered before `accepted`. EOF on the input ends
//! the service.
//!
//! # Client failures and store health
//!
//! The first failed client write latches: the request in flight is
//! cancelled at cell granularity (no point simulating for a dead pipe),
//! remaining output is discarded, and `run_serve` returns the original
//! write error after unwinding. Storage-health transitions of the shared
//! store (Healthy → Degraded → Offline, see
//! [`StoreHealth`](crate::cas::StoreHealth)) are surfaced in-band as
//! `{"id":...,"event":"health","state":...}` events attributed to the
//! request that observed the transition.

use std::collections::VecDeque;
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serde::json::{parse_document, to_string};
use serde::Serialize;

use sm_accel::AccelConfig;
use sm_core::parallel::{threads, Cancelled};
use sm_model::{graph, zoo};

use crate::cas::{KeyedNet, ResultCache, RunCtx};
use crate::sweep::{CellSink, SweepAxes, SweepKind};

/// Default capacity axis (KiB) for `capacity-sweep` requests — the Fig. 14
/// sweep's axis.
pub use crate::experiments::DEFAULT_CAPACITIES_KIB;

/// Zoo networks the service keeps built and fingerprinted, by
/// `(name, batch)`; the least recently used one makes room for a new one.
const ZOO_MEMO_ENTRIES: usize = 32;

/// The service's memo of zoo networks, each with its content fingerprint.
///
/// Zoo builders are pure functions of `(name, batch)`, so a memoized
/// network is exactly what a rebuild would produce and serving from the
/// memo cannot change a byte of output. It spares a warm request the
/// rebuild and, above all, the whole-network serialization behind the
/// fingerprint. Inline `graph` and `net_file` networks are never memoized:
/// files change and documents are unbounded.
#[derive(Default)]
struct ZooMemo {
    /// Most recently used last.
    entries: Mutex<VecDeque<MemoEntry>>,
}

/// One memoized zoo network, keyed by `(name, batch)`.
type MemoEntry = ((String, usize), Arc<KeyedNet>);

impl ZooMemo {
    fn get_or_build(&self, name: &str, batch: usize) -> Result<Arc<KeyedNet>, String> {
        let find = |entries: &VecDeque<MemoEntry>| {
            entries
                .iter()
                .position(|((n, b), _)| n == name && *b == batch)
        };
        {
            let mut entries = self.entries.lock().expect("zoo memo lock");
            if let Some(at) = find(&entries) {
                let entry = entries.remove(at).expect("found entries are in range");
                let net = Arc::clone(&entry.1);
                entries.push_back(entry);
                return Ok(net);
            }
        }
        // Built outside the lock, so a cold build never stalls other
        // requests; a racing build of the same network is merely redundant.
        let net = zoo::try_by_name(name, batch)
            .map_err(|e| format!("unknown network {name:?} at batch {batch}: {e}"))?;
        let net = Arc::new(KeyedNet::new(net));
        let mut entries = self.entries.lock().expect("zoo memo lock");
        if find(&entries).is_none() {
            if entries.len() == ZOO_MEMO_ENTRIES {
                entries.pop_front();
            }
            entries.push_back(((name.to_string(), batch), Arc::clone(&net)));
        }
        Ok(net)
    }
}

/// Service configuration for [`run_serve`].
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Maximum concurrently executing requests; `0` = worker-thread count
    /// ([`sm_core::parallel::threads`]). The default is `1` (sequential).
    pub max_inflight: usize,
    /// Deadline applied to requests that don't carry their own
    /// `deadline_ms` field. `None` = no default deadline.
    pub default_deadline_ms: Option<u64>,
    /// Emit `"ms":0.000` in `done` events so whole outputs are bytewise
    /// comparable across runs (the CI serve smoke relies on this).
    pub deterministic_timing: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_inflight: 1,
            default_deadline_ms: None,
            deterministic_timing: false,
        }
    }
}

/// One parsed sweep request.
#[derive(Debug, Clone)]
struct Request {
    id: String,
    kind: String,
    network: String,
    batch: usize,
    axes: SweepAxes,
    deadline_ms: Option<u64>,
    net_file: Option<String>,
    graph: Option<String>,
}

/// Longest request line [`run_serve`] reads, in bytes before the newline.
/// A longer line is answered `bad-request` without being stored, and the
/// next line is served. The largest zoo graph export is about 23 KB.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Most cells one request may ask for ([`SweepKind::cells`]). A request
/// over the cap is answered `bad-request` before it is accepted, so its
/// keys are never derived nor probed. The largest request in CI or the
/// benchmark streams has 30 cells.
pub const MAX_CELLS_PER_REQUEST: usize = 4096;

/// Reads the next request line into `buf`: `Ok(None)` at end of input,
/// otherwise the line without its line ending, or why it cannot be a
/// request (longer than [`MAX_LINE_BYTES`], or not UTF-8). `buf` grows
/// with the line, never to the cap up front, and the rest of an over-long
/// line is consumed without being stored.
fn read_line<'b>(
    input: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
) -> io::Result<Option<Result<&'b str, String>>> {
    buf.clear();
    let limit = MAX_LINE_BYTES as u64 + 1;
    if io::Read::take(&mut *input, limit).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_LINE_BYTES {
        input.skip_until(b'\n')?;
        return Ok(Some(Err(format!(
            "request line longer than {MAX_LINE_BYTES} bytes"
        ))));
    }
    Ok(Some(std::str::from_utf8(buf).map_err(|e| {
        format!("request line is not valid UTF-8: {e}")
    })))
}

fn parse_request(line: &str) -> Result<Request, (String, String)> {
    let value = parse_document(line).map_err(|e| (String::new(), e.to_string()))?;
    // The id is recovered first so even a shape error can be attributed.
    let id: String = value.field_opt("id").ok().flatten().unwrap_or_default();
    let fail = |msg: String| (id.clone(), msg);
    let defaults = SweepAxes::default();
    let kind: String = value.field("kind").map_err(|e| fail(e.to_string()))?;
    let network: String = value
        .field_opt("network")
        .map_err(|e| fail(e.to_string()))?
        .unwrap_or_default();
    let req = Request {
        kind,
        network,
        batch: value
            .field_opt("batch")
            .map_err(|e| fail(e.to_string()))?
            .unwrap_or(1),
        axes: SweepAxes {
            seed: value
                .field_opt("seed")
                .map_err(|e| fail(e.to_string()))?
                .unwrap_or(defaults.seed),
            dram_rate: value
                .field_opt("dram_rate")
                .map_err(|e| fail(e.to_string()))?
                .unwrap_or(defaults.dram_rate),
            retry_budget: value
                .field_opt("retry_budget")
                .map_err(|e| fail(e.to_string()))?,
            fractions: value
                .field_opt("fractions")
                .map_err(|e| fail(e.to_string()))?,
            rates: value.field_opt("rates").map_err(|e| fail(e.to_string()))?,
            site_rates: value
                .field_opt("site_rates")
                .map_err(|e| fail(e.to_string()))?,
            budgets: value
                .field_opt("budgets")
                .map_err(|e| fail(e.to_string()))?,
            capacities_kib: value
                .field_opt("capacities_kib")
                .map_err(|e| fail(e.to_string()))?,
        },
        deadline_ms: value
            .field_opt("deadline_ms")
            .map_err(|e| fail(e.to_string()))?,
        net_file: value
            .field_opt("net_file")
            .map_err(|e| fail(e.to_string()))?,
        graph: value.field_opt("graph").map_err(|e| fail(e.to_string()))?,
        id,
    };
    // An unknown kind is left for `handle_request`, which reports the
    // network first.
    match SweepKind::parse(&req.kind).map(|kind| kind.cells(&req.axes)) {
        Some(cells) if cells > MAX_CELLS_PER_REQUEST => Err((
            req.id,
            format!("request has {cells} cells; at most {MAX_CELLS_PER_REQUEST} are served"),
        )),
        _ => Ok(req),
    }
}

/// Writes one request's event lines as they arrive. Streaming is the point
/// of the service, so the output is flushed whenever no further line is
/// ready yet and at the end of the request; lines that are already queued
/// together (a run of cache hits) go out in one write.
fn emit_stream(rx: &mpsc::Receiver<String>, out: &mut impl Write) -> io::Result<()> {
    loop {
        let line = match rx.try_recv() {
            Ok(line) => line,
            Err(mpsc::TryRecvError::Disconnected) => return out.flush(),
            Err(mpsc::TryRecvError::Empty) => {
                out.flush()?;
                match rx.recv() {
                    Ok(line) => line,
                    Err(mpsc::RecvError) => return Ok(()),
                }
            }
        };
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
    }
}

fn quoted(s: &str) -> String {
    to_string(&s).expect("string serialization is infallible")
}

fn error_line(id: &str, reason: &str, message: &str) -> String {
    format!(
        r#"{{"id":{},"event":"error","reason":{},"message":{}}}"#,
        quoted(id),
        quoted(reason),
        quoted(message)
    )
}

/// Counting semaphore bounding concurrently executing requests.
struct Inflight {
    slots: Mutex<usize>,
    freed: Condvar,
}

impl Inflight {
    fn new(slots: usize) -> Inflight {
        Inflight {
            slots: Mutex::new(slots.max(1)),
            freed: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut slots = self.slots.lock().expect("inflight lock");
        while *slots == 0 {
            slots = self.freed.wait(slots).expect("inflight lock");
        }
        *slots -= 1;
    }

    fn release(&self) {
        *self.slots.lock().expect("inflight lock") += 1;
        self.freed.notify_one();
    }
}

/// Serves sweep requests from `input` until EOF, writing JSON event lines
/// to `output`. All requests share `store`; each gets a fresh session. Up
/// to `options.max_inflight` requests execute concurrently, with output
/// muxed deterministically in request-admission order (see the module
/// docs — the bytes are identical to sequential serving when in-flight
/// requests share no cells, and the results are identical always).
///
/// # Errors
///
/// Returns the first I/O error raised by `input` or `output` (after
/// cancelling in-flight work). Request-level failures — bad JSON, unknown
/// kinds or networks, missed deadlines — are reported in-band as typed
/// `error` events and do not stop the service.
pub fn run_serve(
    input: impl BufRead,
    output: impl Write + Send,
    store: &ResultCache,
    options: &ServeOptions,
) -> io::Result<()> {
    let max_inflight = if options.max_inflight == 0 {
        threads()
    } else {
        options.max_inflight
    };
    // First client-write failure: latched as the master cancel signal for
    // every in-flight request and returned from run_serve.
    let write_failed = AtomicBool::new(false);
    let write_error: Mutex<Option<io::Error>> = Mutex::new(None);
    // Store-health transitions already surfaced to the client.
    let last_health = AtomicU64::new(0);
    let inflight = Inflight::new(max_inflight);
    let zoo_memo = ZooMemo::default();
    // The mux: per-request line queues, drained in admission order.
    let (mux_tx, mux_rx) = mpsc::channel::<mpsc::Receiver<String>>();
    let mut input_error: Option<io::Error> = None;

    std::thread::scope(|scope| {
        let write_failed = &write_failed;
        let write_error = &write_error;
        let last_health = &last_health;
        let inflight = &inflight;
        let zoo_memo = &zoo_memo;
        scope.spawn({
            let mut output = io::BufWriter::new(output);
            move || {
                for rx in mux_rx {
                    if write_failed.load(Ordering::Relaxed) {
                        continue; // discard everything for a dead client
                    }
                    if let Err(e) = emit_stream(&rx, &mut output) {
                        write_failed.store(true, Ordering::Relaxed);
                        *write_error.lock().expect("write-error lock") = Some(e);
                    }
                }
            }
        });
        let mut input = input;
        let mut buf = Vec::new();
        while !write_failed.load(Ordering::Relaxed) {
            let line = match read_line(&mut input, &mut buf) {
                Ok(Some(line)) => line,
                Ok(None) => break,
                Err(e) => {
                    input_error = Some(e);
                    break;
                }
            };
            if matches!(line, Ok(l) if l.trim().is_empty()) {
                continue;
            }
            let (tx, rx) = mpsc::channel::<String>();
            if mux_tx.send(rx).is_err() {
                break;
            }
            let req = match line
                .map_err(|msg| (String::new(), msg))
                .and_then(parse_request)
            {
                Ok(req) => req,
                Err((id, msg)) => {
                    let _ = tx.send(error_line(&id, "bad-request", &msg));
                    continue;
                }
            };
            let _ = tx.send(format!(
                r#"{{"id":{},"event":"accepted","kind":{}}}"#,
                quoted(&req.id),
                quoted(&req.kind)
            ));
            // Admission order is fixed above (the mux already holds this
            // request's queue); the semaphore only bounds execution.
            inflight.acquire();
            scope.spawn(move || {
                handle_request(
                    &req,
                    store,
                    zoo_memo,
                    &tx,
                    options,
                    write_failed,
                    last_health,
                );
                inflight.release();
            });
        }
        drop(mux_tx);
    });

    if let Some(e) = write_error.lock().expect("write-error lock").take() {
        return Err(e);
    }
    if let Some(e) = input_error {
        return Err(e);
    }
    Ok(())
}

/// Resolves the request's network, fingerprinted: inline `graph` document,
/// then `net_file`, then zoo name (through the memo). Ingested graphs carry
/// their batch in the input shape; zoo names use the request's `batch`
/// field.
///
/// Kept out of line: inlined into `handle_request`'s large body, graph
/// loading ran ~1.5x slower (ResNet-152 document, 2-vCPU x86-64 VM).
#[inline(never)]
fn resolve_network(req: &Request, zoo_memo: &ZooMemo) -> Result<Arc<KeyedNet>, String> {
    let ingested = if let Some(doc) = &req.graph {
        graph::load(doc).map_err(|e| format!("invalid inline graph: {e}"))?
    } else if let Some(path) = &req.net_file {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read net_file {path:?}: {e}"))?;
        graph::load(&text).map_err(|e| format!("invalid network file {path:?}: {e}"))?
    } else {
        return zoo_memo.get_or_build(&req.network, req.batch);
    };
    Ok(Arc::new(KeyedNet::new(ingested)))
}

/// Surfaces a store-health transition (at most once per transition across
/// all requests) as an in-band `health` event on this request's stream.
fn maybe_emit_health(
    store: &ResultCache,
    tx: &mpsc::Sender<String>,
    last_health: &AtomicU64,
    id: &str,
) {
    let (state, transitions) = store.health_snapshot();
    let seen = last_health.fetch_max(transitions, Ordering::Relaxed);
    if seen < transitions {
        let _ = tx.send(format!(
            r#"{{"id":{},"event":"health","state":{},"transitions":{transitions}}}"#,
            quoted(id),
            quoted(state.as_str())
        ));
    }
}

/// Streams a request's cells as `cell` events, each followed by a health
/// check so store-state transitions surface promptly.
struct EventSink<'a> {
    id: &'a str,
    store: &'a ResultCache,
    tx: &'a mpsc::Sender<String>,
    last_health: &'a AtomicU64,
}

impl CellSink for EventSink<'_> {
    fn cell<T: Serialize>(&mut self, index: usize, cached: bool, data: &T) {
        let payload = to_string(data).expect("cell serialization is infallible");
        let _ = self.tx.send(format!(
            r#"{{"id":{},"event":"cell","index":{index},"cached":{cached},"data":{payload}}}"#,
            quoted(self.id)
        ));
        maybe_emit_health(self.store, self.tx, self.last_health, self.id);
    }
}

fn handle_request(
    req: &Request,
    store: &ResultCache,
    zoo_memo: &ZooMemo,
    tx: &mpsc::Sender<String>,
    options: &ServeOptions,
    write_failed: &AtomicBool,
    last_health: &AtomicU64,
) {
    let t0 = Instant::now();
    let deadline_ms = req.deadline_ms.or(options.default_deadline_ms);
    let deadline = deadline_ms.map(|ms| t0 + Duration::from_millis(ms));
    let net = match resolve_network(req, zoo_memo) {
        Ok(net) => net,
        Err(msg) => {
            let _ = tx.send(error_line(&req.id, "unserviceable", &msg));
            return;
        }
    };
    let Some(kind) = SweepKind::parse(&req.kind) else {
        let _ = tx.send(error_line(
            &req.id,
            "unserviceable",
            &SweepKind::unknown(&req.kind),
        ));
        return;
    };
    let session = store.session();
    // Master cancel: a dead client or an expired deadline stops the sweep
    // at the next cell boundary.
    let cancel = move || {
        write_failed.load(Ordering::Relaxed) || deadline.is_some_and(|d| Instant::now() >= d)
    };
    let ctx = RunCtx {
        cache: Some(&session),
        cancel: Some(&cancel),
    };
    let mut sink = EventSink {
        id: &req.id,
        store,
        tx,
        last_health,
    };
    let result = match kind.run(&net, AccelConfig::default(), &req.axes, &ctx, &mut sink) {
        Ok(output) => output.to_json(),
        Err(Cancelled) => {
            let (reason, msg) = if write_failed.load(Ordering::Relaxed) {
                (
                    "write-failed",
                    "client write failed; request aborted".to_string(),
                )
            } else {
                (
                    "deadline",
                    format!("deadline of {} ms exceeded", deadline_ms.unwrap_or(0)),
                )
            };
            let _ = tx.send(error_line(&req.id, reason, &msg));
            return;
        }
    };
    // A transition on the final put would otherwise go unreported.
    maybe_emit_health(store, tx, last_health, &req.id);
    let cache = to_string(&session.stats()).expect("stats serialization is infallible");
    let ms = if options.deterministic_timing {
        0.0
    } else {
        t0.elapsed().as_secs_f64() * 1e3
    };
    let _ = tx.send(format!(
        r#"{{"id":{},"event":"done","ms":{ms:.3},"result":{result},"cache":{cache}}}"#,
        quoted(&req.id)
    ));
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;

    fn tmp_store(tag: &str) -> ResultCache {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("sm-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::open(&dir).unwrap()
    }

    fn serve(store: &ResultCache, input: &str) -> Vec<String> {
        serve_bytes(store, input.as_bytes())
    }

    fn serve_bytes(store: &ResultCache, input: &[u8]) -> Vec<String> {
        let mut out = Vec::new();
        run_serve(input, &mut out, store, &ServeOptions::default()).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn streams_cells_then_done_and_second_request_hits_cache() {
        let store = tmp_store("overlap");
        let req = r#"{"id":"r1","kind":"chaos-grid","network":"toy_residual","seed":7,"fractions":[0.0,0.3],"rates":[0.0,0.2]}"#;
        let lines = serve(&store, &format!("{req}\n{}\n", req.replace("r1", "r2")));

        // Request r1: accepted, 4 cell events (all computed), done.
        assert!(lines[0].contains(r#""id":"r1","event":"accepted","kind":"chaos-grid""#));
        let r1_cells: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains(r#""id":"r1","event":"cell""#))
            .collect();
        assert_eq!(r1_cells.len(), 4);
        assert!(r1_cells.iter().all(|l| l.contains(r#""cached":false"#)));
        let r1_done = lines
            .iter()
            .find(|l| l.contains(r#""id":"r1","event":"done""#))
            .unwrap();
        assert!(r1_done.contains(r#""misses":4"#));

        // Request r2 overlaps 100%: every cell cached, zero misses.
        let r2_cells: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains(r#""id":"r2","event":"cell""#))
            .collect();
        assert_eq!(r2_cells.len(), 4);
        assert!(r2_cells.iter().all(|l| l.contains(r#""cached":true"#)));
        let r2_done = lines
            .iter()
            .find(|l| l.contains(r#""id":"r2","event":"done""#))
            .unwrap();
        assert!(r2_done.contains(r#""hits":4"#));
        assert!(r2_done.contains(r#""misses":0"#));

        // Byte-identical results across the two requests.
        let payload = |l: &str| {
            l.split(r#""result":"#)
                .nth(1)
                .unwrap()
                .split(r#","cache":"#)
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(payload(r1_done), payload(r2_done));
    }

    #[test]
    fn cell_events_arrive_in_index_order() {
        let store = tmp_store("order");
        let lines = serve(
            &store,
            r#"{"id":"q","kind":"retry-budget","network":"toy_residual","dram_rate":0.2,"budgets":[0,1,2]}"#,
        );
        let indices: Vec<usize> = lines
            .iter()
            .filter(|l| l.contains(r#""event":"cell""#))
            .map(|l| {
                l.split(r#""index":"#)
                    .nth(1)
                    .unwrap()
                    .split(',')
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert_eq!(indices, vec![0, 1, 2]);
    }

    #[test]
    fn bad_requests_get_error_events_and_the_service_keeps_going() {
        let store = tmp_store("errors");
        let input = "not json\n\
                     {\"id\":\"a\",\"kind\":\"wat\",\"network\":\"toy_residual\"}\n\
                     {\"id\":\"b\",\"kind\":\"compare\",\"network\":\"nope\"}\n\
                     {\"id\":\"c\",\"kind\":\"compare\",\"network\":\"toy_residual\"}\n";
        let lines = serve(&store, input);
        assert!(lines[0].contains(r#""id":"","event":"error""#));
        assert!(lines[0].contains(r#""reason":"bad-request""#));
        assert!(lines
            .iter()
            .any(|l| l.contains(r#""id":"a","event":"error""#)
                && l.contains(r#""reason":"unserviceable""#)
                && l.contains("unknown kind")));
        assert!(lines
            .iter()
            .any(|l| l.contains(r#""id":"b","event":"error""#) && l.contains("unknown network")));
        assert!(lines
            .iter()
            .any(|l| l.contains(r#""id":"c","event":"done""#)));
    }

    #[test]
    fn an_unknown_network_is_reported_before_an_unknown_kind() {
        let store = tmp_store("unknown-both");
        let lines = serve(&store, r#"{"id":"u","kind":"nope","network":"nonet"}"#);
        let error = lines
            .iter()
            .find(|l| l.contains(r#""id":"u","event":"error""#))
            .expect("an error event");
        assert!(error.contains(r#""reason":"unserviceable""#), "{error}");
        assert!(error.contains("unknown network"), "{error}");
        assert!(!error.contains("unknown kind"), "{error}");
    }

    #[test]
    fn nesting_bomb_is_a_bad_request_and_the_next_line_is_served() {
        // 300,000 `[` used to overflow the parser's stack and abort the
        // process before line 3 was read.
        let store = tmp_store("nesting-bomb");
        let ok = r#"{"id":"a","kind":"compare","network":"toy_residual"}"#;
        let input = format!(
            "{ok}\n{}\n{}\n",
            "[".repeat(300_000),
            ok.replace("\"a\"", "\"c\"")
        );
        let lines = serve(&store, &input);
        assert!(lines[0].contains(r#""id":"a","event":"accepted""#));
        assert!(lines
            .iter()
            .any(|l| l.contains(r#""id":"a","event":"done""#)));
        let bomb = lines
            .iter()
            .find(|l| l.contains(r#""event":"error""#))
            .expect("the bomb is answered");
        assert!(
            bomb.contains(r#""id":"","event":"error","reason":"bad-request""#),
            "{bomb}"
        );
        assert!(bomb.contains("nesting deeper than 128"), "{bomb}");
        assert!(lines
            .iter()
            .any(|l| l.contains(r#""id":"c","event":"done""#)));
    }

    /// Serves `ok`, then `bad`, then `ok` again under id `c`, and returns
    /// the one error event; both good lines must be answered.
    fn serve_around(tag: &str, bad: &[u8]) -> String {
        let store = tmp_store(tag);
        let ok = r#"{"id":"a","kind":"compare","network":"toy_residual"}"#;
        let mut input = format!("{ok}\n").into_bytes();
        input.extend_from_slice(bad);
        input.extend_from_slice(format!("\n{}\n", ok.replace("\"a\"", "\"c\"")).as_bytes());
        let lines = serve_bytes(&store, &input);
        for id in ["a", "c"] {
            let done = format!(r#""id":"{id}","event":"done""#);
            assert!(lines.iter().any(|l| l.contains(&done)), "{id}: {lines:?}");
        }
        let errors: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains(r#""event":"error""#))
            .collect();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(
            errors[0].contains(r#""id":"","event":"error","reason":"bad-request""#),
            "{}",
            errors[0]
        );
        errors[0].clone()
    }

    #[test]
    fn invalid_utf8_line_is_a_bad_request_and_the_next_line_is_served() {
        let error = serve_around("utf8", b"{\"id\":\"b\xff\xfe\"}");
        assert!(error.contains("not valid UTF-8"), "{error}");
    }

    #[test]
    fn over_long_line_is_a_bad_request_and_the_next_line_is_served() {
        let error = serve_around("long-line", &vec![b'['; MAX_LINE_BYTES + 1]);
        assert!(error.contains("longer than 1048576 bytes"), "{error}");
    }

    #[test]
    fn a_line_of_exactly_the_cap_is_not_rejected_for_its_length() {
        let store = tmp_store("cap-line");
        let ok = r#"{"id":"a","kind":"compare","network":"toy_residual"}"#;
        let line = format!("{ok}{}", " ".repeat(MAX_LINE_BYTES - ok.len()));
        assert_eq!(line.len(), MAX_LINE_BYTES);
        let lines = serve(&store, &format!("{line}\n"));
        assert!(
            lines
                .iter()
                .any(|l| l.contains(r#""id":"a","event":"done""#)),
            "{lines:?}"
        );
    }

    /// A `chaos-grid` request line over `fractions` × `rates` zeros.
    fn grid_request(id: &str, fractions: usize, rates: usize) -> String {
        let axis = |n: usize| format!("[{}]", vec!["0.0"; n].join(","));
        format!(
            r#"{{"id":"{id}","kind":"chaos-grid","network":"toy_residual","fractions":{},"rates":{},"deadline_ms":1}}"#,
            axis(fractions),
            axis(rates)
        )
    }

    #[test]
    fn an_over_cap_request_is_a_bad_request_and_the_next_line_is_served() {
        // Every key of a request used to be derived and probed before its
        // first cancel check: 600 x 600 cells cost seconds and ~90 MiB
        // before the deadline error arrived.
        let store = tmp_store("cell-cap");
        let ok = r#"{"id":"ok","kind":"compare","network":"toy_residual"}"#;
        let over = MAX_CELLS_PER_REQUEST + 1;
        let lines = serve(&store, &format!("{}\n{ok}\n", grid_request("big", over, 1)));
        assert!(
            lines[0].contains(r#""id":"big","event":"error","reason":"bad-request""#),
            "{lines:?}"
        );
        let message = format!("{over} cells; at most {MAX_CELLS_PER_REQUEST}");
        assert!(lines[0].contains(&message), "{}", lines[0]);
        assert!(
            lines[1].contains(r#""id":"ok","event":"accepted""#),
            "{lines:?}"
        );
        assert!(lines
            .iter()
            .any(|l| l.contains(r#""id":"ok","event":"done""#)));
        // The cap itself is admitted.
        assert!(parse_request(&grid_request("cap", MAX_CELLS_PER_REQUEST, 1)).is_ok());
    }

    #[test]
    fn capacity_sweep_shares_cells_with_compare() {
        let store = tmp_store("share");
        // The capacity sweep at 512 KiB and a compare at the default config
        // are distinct cells; re-running the sweep hits every one.
        let sweep = r#"{"id":"s1","kind":"capacity-sweep","network":"toy_residual","capacities_kib":[64,512]}"#;
        let lines = serve(&store, &format!("{sweep}\n{}\n", sweep.replace("s1", "s2")));
        let done = |id: &str| {
            lines
                .iter()
                .find(|l| l.contains(&format!(r#""id":"{id}","event":"done""#)))
                .unwrap()
                .clone()
        };
        assert!(done("s1").contains(r#""misses":2"#));
        assert!(done("s2").contains(r#""hits":2"#));
        assert!(done("s2").contains(r#""misses":0"#));
    }

    #[test]
    fn expired_deadline_cancels_with_a_typed_error_and_zero_cells() {
        let store = tmp_store("deadline");
        let lines = serve(
            &store,
            r#"{"id":"d","kind":"chaos-grid","network":"toy_residual","deadline_ms":0}"#,
        );
        assert!(lines[0].contains(r#""id":"d","event":"accepted""#));
        let error = lines
            .iter()
            .find(|l| l.contains(r#""event":"error""#))
            .expect("deadline error emitted");
        assert!(error.contains(r#""reason":"deadline""#), "{error}");
        assert!(
            !lines.iter().any(|l| l.contains(r#""event":"cell""#)),
            "deadline 0 must emit zero cells"
        );
        assert!(!lines.iter().any(|l| l.contains(r#""event":"done""#)));
        // The same request without the deadline completes normally.
        let ok = serve(
            &store,
            r#"{"id":"d2","kind":"chaos-grid","network":"toy_residual"}"#,
        );
        assert!(ok.iter().any(|l| l.contains(r#""id":"d2","event":"done""#)));
    }

    #[test]
    fn inline_graph_and_net_file_requests_are_served() {
        let store = tmp_store("graph");
        let net = zoo::toy_residual(1);
        let doc = graph::export_json(&net);

        // Inline graph: the document travels as a JSON string field.
        let inline = format!(r#"{{"id":"g1","kind":"compare","graph":{}}}"#, quoted(&doc));
        // net_file: same document from the server's filesystem.
        let path = std::env::temp_dir().join(format!("sm-serve-graph-{}.json", std::process::id()));
        std::fs::write(&path, &doc).unwrap();
        let from_file = format!(
            r#"{{"id":"g2","kind":"compare","net_file":{}}}"#,
            quoted(&path.to_string_lossy())
        );
        // Zoo request for the same network: must share the cache cells,
        // because the ingested graph round-trips to the identical network.
        let by_name = r#"{"id":"g3","kind":"compare","network":"toy_residual"}"#;

        let lines = serve(&store, &format!("{inline}\n{from_file}\n{by_name}\n"));
        let done = |id: &str| {
            lines
                .iter()
                .find(|l| l.contains(&format!(r#""id":"{id}","event":"done""#)))
                .unwrap_or_else(|| panic!("no done for {id}: {lines:?}"))
                .clone()
        };
        assert!(done("g1").contains(r#""misses":1"#));
        assert!(done("g2").contains(r#""hits":1"#), "{}", done("g2"));
        assert!(done("g3").contains(r#""hits":1"#), "{}", done("g3"));
        // A *different* graph with the same name must not alias: rename-proof
        // keys come from the content fingerprint.
        let other = graph::export_json(&zoo::toy_residual(2));
        let aliased = format!(
            r#"{{"id":"g4","kind":"compare","graph":{}}}"#,
            quoted(&other)
        );
        let lines = serve(&store, &format!("{aliased}\n"));
        let g4 = lines
            .iter()
            .find(|l| l.contains(r#""id":"g4","event":"done""#))
            .unwrap();
        assert!(g4.contains(r#""misses":1"#), "{g4}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interleaved_serving_is_byte_identical_to_sequential() {
        let store_seq = tmp_store("mux-seq");
        let store_par = tmp_store("mux-par");
        let reqs: String = (0..4)
            .map(|i| {
                format!(
                    r#"{{"id":"m{i}","kind":"chaos-curve","network":"toy_residual","seed":{i},"fractions":[0.0,0.2]}}"#,
                )
            })
            .collect::<Vec<_>>()
            .join("\n");
        let opts_seq = ServeOptions {
            deterministic_timing: true,
            ..ServeOptions::default()
        };
        let opts_par = ServeOptions {
            max_inflight: 4,
            deterministic_timing: true,
            ..ServeOptions::default()
        };
        let mut seq = Vec::new();
        run_serve(reqs.as_bytes(), &mut seq, &store_seq, &opts_seq).unwrap();
        let mut par = Vec::new();
        run_serve(reqs.as_bytes(), &mut par, &store_par, &opts_par).unwrap();
        assert_eq!(
            String::from_utf8(seq).unwrap(),
            String::from_utf8(par).unwrap(),
            "the admission-order mux must make interleaving invisible"
        );
    }

    /// A writer that fails with `BrokenPipe` after a byte budget — the
    /// closed-client-pipe case.
    struct FailingWriter {
        budget: usize,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget < buf.len() {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "client went away",
                ));
            }
            self.budget -= buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn client_write_failure_aborts_the_request_and_surfaces_the_error() {
        let store = tmp_store("write-fail");
        // The pipe closes immediately: even the `accepted` line fails.
        // The old service swallowed this (`let _ = emit(...)`) and kept
        // simulating for a dead client; now the first failure latches and
        // run_serve reports it.
        let out = FailingWriter { budget: 0 };
        let err = run_serve(
            r#"{"id":"w","kind":"chaos-grid","network":"toy_residual"}"#.as_bytes(),
            out,
            &store,
            &ServeOptions::default(),
        )
        .expect_err("the latched write error must surface");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    /// Every name `zoo::try_by_name` resolves, aliases included.
    const ZOO_NAMES: [&str; 24] = [
        "resnet18",
        "resnet34",
        "resnet50",
        "resnet101",
        "resnet152",
        "plain18",
        "plain34",
        "squeezenet_v10",
        "squeezenet_v10_simple_bypass",
        "squeezenet",
        "squeezenet_v10_complex_bypass",
        "squeezenet_v11",
        "vgg16",
        "alexnet",
        "googlenet",
        "mobilenet_v1",
        "mobilenet_v2",
        "mobilenet_tiny",
        "densenet121",
        "densenet169",
        "toy_residual",
        "resnet_tiny20",
        "squeezenet_tiny",
        "densenet_tiny4",
    ];

    #[test]
    fn memoized_fingerprints_equal_fresh_ones_for_every_zoo_network() {
        let memo = ZooMemo::default();
        for batch in [1, 2] {
            for name in ZOO_NAMES {
                let fresh = zoo::try_by_name(name, batch).unwrap();
                let keyed = memo.get_or_build(name, batch).unwrap();
                assert_eq!(keyed.net(), &fresh, "{name} at batch {batch}");
                assert_eq!(
                    keyed.fingerprint(),
                    crate::cas::content_fingerprint(&fresh).unwrap(),
                    "{name} at batch {batch}"
                );
            }
        }
        // The memo is bounded: the oldest entries made room for the newest,
        // and a hit hands back the very same value without a rebuild.
        let entries = memo.entries.lock().unwrap().len();
        assert_eq!(entries, ZOO_MEMO_ENTRIES);
        let a = memo.get_or_build("squeezenet_tiny", 2).unwrap();
        let b = memo.get_or_build("squeezenet_tiny", 2).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(memo.get_or_build("nope", 1).is_err());
    }
}
