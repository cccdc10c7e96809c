//! Closed-loop load against a real `smctl serve` process, and the transcript
//! checks that decide whether each request succeeded.
//!
//! One load-generator process drives the service over one stdin/stdout pipe
//! pair with two threads: the main thread writes requests and checks
//! events, a reader thread timestamps response lines as they arrive.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sm_core::hash::fnv64;

use crate::gen::{self, Req, Workload};
use crate::host::{Ctx, Report, ROUNDS};
use crate::stats::Sample;

/// Percentile `latency_tail_ms` reports: a 25-second window holds
/// thousands of requests, so p99 has well over ten samples beyond it.
const TAIL_PERCENTILE: f64 = 99.0;

/// Requests outstanding at once: the closed loop's client count. It
/// matches `--max-inflight` and `--threads` of the served process.
const INFLIGHT: usize = 2;

/// A response slower than this means the service hung.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `smctl serve --threads 2 --max-inflight 2` over one store.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
    next_id: u64,
}

impl Server {
    pub fn spawn(smctl: &Path, store: &Path) -> io::Result<Server> {
        let mut child = Command::new(smctl)
            .args([
                "serve",
                "--threads",
                "2",
                "--max-inflight",
                "2",
                "--cache-dir",
            ])
            .arg(store)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        Ok(Server {
            stdin: child.stdin.take(),
            child,
            lines,
            reader: Some(reader),
            next_id: 0,
        })
    }

    /// Sends `req` and returns the id it went out under.
    fn send(&mut self, req: &Req) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = req.line(id);
        line.push('\n');
        let stdin = self.stdin.as_mut().expect("stdin open until shutdown");
        stdin.write_all(line.as_bytes())?;
        Ok(id)
    }

    /// The next response line, with the time it arrived.
    fn recv(&self) -> io::Result<(Instant, String)> {
        self.lines
            .recv_timeout(RESPONSE_TIMEOUT)
            .map_err(|e| match e {
                RecvTimeoutError::Timeout => {
                    io::Error::new(io::ErrorKind::TimedOut, "smctl serve sent nothing for 60 s")
                }
                RecvTimeoutError::Disconnected => io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "smctl serve closed its output",
                ),
            })
    }

    /// Closes the service's input, so it drains and exits, and waits for it.
    pub fn shutdown(mut self) -> io::Result<()> {
        drop(self.stdin.take());
        let status = self.child.wait()?;
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!(
                "smctl serve exited with {status}"
            )))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Abandoned before shutdown (an error path): stop it outright.
        if self.stdin.take().is_some() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// One request between `send` and its `done` or `error`.
struct Pending {
    body_hash: u64,
    expected_cells: usize,
    sent: Instant,
    first_cell: Option<Instant>,
    accepted: u32,
    cells: usize,
    in_order: bool,
    timed: bool,
}

/// Checks transcripts request by request and collects the timed samples.
///
/// A request fails unless it gets exactly one `accepted` and one `done`,
/// exactly as many `cell` events as its axes imply, with indices 0, 1, …
/// in order, and a `result` whose bytes equal those of every earlier answer
/// to the same request body.
#[derive(Default)]
pub struct Tracker {
    pending: HashMap<u64, Pending>,
    /// Request-body hash → result hash, over every pass of the run.
    pub results: HashMap<u64, u64>,
    pub attempted: usize,
    pub failed: usize,
    first_failure: Option<String>,
    /// Timed requests that succeeded.
    pub samples: Vec<Sample>,
}

impl Tracker {
    pub fn sent(&mut self, id: u64, req: &Req, at: Instant, timed: bool) {
        self.attempted += 1;
        self.pending.insert(
            id,
            Pending {
                body_hash: fnv64(req.body.as_bytes()),
                expected_cells: req.cells,
                sent: at,
                first_cell: None,
                accepted: 0,
                cells: 0,
                in_order: true,
                timed,
            },
        );
    }

    /// Feeds one response line; returns whether it finished a request.
    pub fn on_line(&mut self, line: &str, at: Instant) -> bool {
        let Some((id, event, rest)) = split_event(line) else {
            self.fail(format!("unattributable line: {}", clip(line)));
            return false;
        };
        let Some(p) = self.pending.get_mut(&id) else {
            self.fail(format!(
                "{event} event for request r{id}, which is not pending"
            ));
            return false;
        };
        match event {
            "accepted" => p.accepted += 1,
            "cell" => {
                if field_u64(rest, "\"index\":") != Some(p.cells as u64) {
                    p.in_order = false;
                }
                p.cells += 1;
                p.first_cell.get_or_insert(at);
            }
            "health" => {}
            "done" => {
                self.finish(id, done_result(rest).ok_or("done without a result"), at);
                return true;
            }
            "error" => {
                self.finish(id, Err("error event"), at);
                return true;
            }
            other => self.fail(format!("unknown event {other:?} for r{id}")),
        }
        false
    }

    fn finish(&mut self, id: u64, result: Result<&str, &str>, at: Instant) {
        let p = self
            .pending
            .remove(&id)
            .expect("finish of a pending request");
        let mut problems = Vec::new();
        if p.accepted != 1 {
            problems.push(format!("{} accepted events", p.accepted));
        }
        if p.cells != p.expected_cells {
            problems.push(format!("{} cells, expected {}", p.cells, p.expected_cells));
        }
        if !p.in_order {
            problems.push("cell indices out of order".into());
        }
        match result {
            Ok(result) => {
                let hash = fnv64(result.as_bytes());
                if *self.results.entry(p.body_hash).or_insert(hash) != hash {
                    problems
                        .push("result differs from an earlier answer to the same request".into());
                }
            }
            Err(why) => problems.push(why.to_string()),
        }
        if !problems.is_empty() {
            self.fail(format!("r{id}: {}", problems.join(", ")));
            return;
        }
        if p.timed {
            self.samples.push(Sample {
                latency_ms: ms(at - p.sent),
                first_ms: p.first_cell.map(|first| ms(first - p.sent)),
                cells: p.cells,
            });
        }
    }

    /// Counts every request still pending as failed (it never got `done`).
    pub fn abandon(&mut self) {
        let ids: Vec<u64> = self.pending.keys().copied().collect();
        for id in ids {
            self.pending.remove(&id);
            self.fail(format!("r{id}: no done event"));
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            eprintln!("smbench: failure: {why}");
            self.first_failure = Some(why);
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn clip(line: &str) -> String {
    line.chars().take(120).collect()
}

/// Splits `{"id":"r<n>","event":"<e>",…` into `(n, e, rest)` without a
/// full JSON parse; the load generator shares the host's two cores with
/// the service, so it stays cheap.
pub fn split_event(line: &str) -> Option<(u64, &str, &str)> {
    let rest = line.strip_prefix("{\"id\":\"r")?;
    let (id, rest) = rest.split_once('"')?;
    let rest = rest.strip_prefix(",\"event\":\"")?;
    let (event, rest) = rest.split_once('"')?;
    Some((id.parse().ok()?, event, rest))
}

/// The `result` JSON of a `done` event, from the `rest` [`split_event`]
/// returns: the service writes it between `"result":` and `,"cache":`.
pub fn done_result(rest: &str) -> Option<&str> {
    let start = rest.find("\"result\":")? + "\"result\":".len();
    let end = rest.rfind(",\"cache\":")?;
    rest.get(start..end)
}

fn field_u64(rest: &str, key: &str) -> Option<u64> {
    let tail = &rest[rest.find(key)? + key.len()..];
    let end = tail
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Serves `order` (indices into `pool`) as a closed loop of [`INFLIGHT`]
/// clients, each sending its next request when its last one finishes. No
/// request is sent after `stop_at`; the outstanding ones are drained.
/// Returns whether the stream ran out before `stop_at`.
pub fn drive(
    server: &mut Server,
    tracker: &mut Tracker,
    pool: &[Req],
    order: &[usize],
    stop_at: Option<Instant>,
) -> io::Result<bool> {
    let mut sent = 0usize;
    let mut outstanding = 0usize;
    loop {
        let sending = sent < order.len() && stop_at.is_none_or(|s| Instant::now() < s);
        if sending && outstanding < INFLIGHT {
            let req = &pool[order[sent]];
            let at = Instant::now();
            let id = server.send(req)?;
            tracker.sent(id, req, at, stop_at.is_some());
            sent += 1;
            outstanding += 1;
        } else if outstanding == 0 {
            return Ok(sent == order.len() && stop_at.is_some_and(|s| Instant::now() < s));
        } else {
            let (at, line) = server.recv()?;
            if tracker.on_line(&line, at) {
                outstanding -= 1;
            }
        }
    }
}

/// One end-to-end run of a serve workload: the untimed preparation where
/// the workload has one, then [`ROUNDS`] rounds of a set-up and a timed
/// slice, together `seconds` long.
pub fn run(ctx: &Ctx, w: Workload, seed: u64, seconds: u64) -> Result<(Report, Tracker), String> {
    let plan = gen::serve_plan(w, seed, seconds, &ctx.root)?;
    ctx.sweep_stores();
    let mut tracker = Tracker::default();
    let outcome = timed_run(ctx, &plan, seconds, &mut tracker);
    let (setup_s, window_s) = match outcome {
        Ok(times) => times,
        Err(e) => {
            eprintln!("smbench: {}: {e}", w.name());
            tracker.abandon();
            (vec![0.0], 0.0)
        }
    };
    ctx.sweep_stores();
    let report = Report::end_to_end(
        w.name(),
        tracker.attempted,
        tracker.failed,
        &setup_s,
        window_s,
        &tracker.samples,
        TAIL_PERCENTILE,
    )?;
    Ok((report, tracker))
}

/// The preparation and the rounds; returns the set-up times and the
/// summed length of the timed slices in seconds.
///
/// Each round starts a service, serves the set-up requests (one `setup_s`
/// sample), then serves the timed stream from its start for
/// `seconds / ROUNDS`, so the set-up samples and the timed slices spread
/// over the whole run instead of bunching at its start. With a preparation,
/// every round reopens the prepared store and its timed slice only reads
/// it. Without one, each round starts from an empty store of its own, kept
/// until the run ends: deleting it sooner would put the removal's disk
/// traffic into a later slice.
fn timed_run(
    ctx: &Ctx,
    plan: &gen::Plan,
    seconds: u64,
    tracker: &mut Tracker,
) -> io::Result<(Vec<f64>, f64)> {
    let prepared = ctx.store("prepared");
    if !plan.prepare.is_empty() {
        let mut s = Server::spawn(&ctx.bin("smctl"), &prepared)?;
        drive(&mut s, tracker, &plan.pool, &plan.prepare, None)?;
        s.shutdown()?;
        crate::host::sync();
    }
    let slice = Duration::from_secs_f64(seconds as f64 / ROUNDS as f64);
    let mut setup_s = Vec::new();
    let mut window_s = 0.0;
    for k in 0..ROUNDS {
        let store = if plan.prepare.is_empty() {
            ctx.store(&format!("round{k}"))
        } else {
            prepared.clone()
        };
        let start = Instant::now();
        let mut server = Server::spawn(&ctx.bin("smctl"), &store)?;
        drive(&mut server, tracker, &plan.pool, &plan.setup, None)?;
        setup_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let exhausted = drive(
            &mut server,
            tracker,
            &plan.pool,
            &plan.timed,
            Some(start + slice),
        )?;
        let elapsed = start.elapsed().as_secs_f64();
        window_s += elapsed;
        if exhausted {
            eprintln!("smbench: warning: request stream ran out after {elapsed:.2} s");
        }
        server.shutdown()?;
        crate::host::sync();
    }
    Ok((setup_s, window_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One request of every kind and axis shape the workloads send, on the
    /// tiny `toy_residual` network, through the real service: checks that the
    /// cell counts the generator expects are the ones `smctl` streams.
    fn smoke(ctx: &Ctx) -> Result<Tracker, String> {
        let zoo = gen::zoo_target("toy_residual");
        let doc = sm_model::graph::export_json(&sm_model::zoo::toy_residual(1));
        let graph = gen::graph_target(&doc);
        let pool = vec![
            gen::chaos("chaos-curve", &zoo, 1),
            gen::chaos("chaos-grid", &zoo, 2),
            gen::chaos("chaos-grid3", &zoo, 3),
            gen::capacity_sweep(&zoo, &[64, 512, 4096]),
            gen::sliding_grid(&zoo, 4, 7),
            gen::compare(&graph),
            gen::capacity_sweep(&graph, &gen::INGEST_CAPS),
        ];
        let order: Vec<usize> = (0..pool.len()).collect();
        let store = ctx.store("smoke");
        let mut tracker = Tracker::default();
        let mut server = Server::spawn(&ctx.bin("smctl"), &store).map_err(|e| e.to_string())?;
        let served = drive(&mut server, &mut tracker, &pool, &order, None);
        if let Err(e) = served.and_then(|_| server.shutdown()) {
            eprintln!("smbench: smoke: {e}");
            tracker.abandon();
        }
        let _ = std::fs::remove_dir_all(&store);
        Ok(tracker)
    }

    #[test]
    fn expected_cell_counts_match_a_smoke_run_of_the_built_smctl() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let ctx = Ctx::at(root).expect("build the binaries first: benchmark/run.sh");
        let t = smoke(&ctx).unwrap();
        assert_eq!((t.attempted, t.failed), (7, 0), "{:?}", t.first_failure);
    }

    fn req(cells: usize) -> Req {
        Req {
            body: "\"kind\":\"compare\",\"network\":\"x\"".into(),
            cells,
        }
    }

    fn feed(tracker: &mut Tracker, lines: &[&str]) {
        let now = Instant::now();
        for line in lines {
            tracker.on_line(line, now);
        }
    }

    #[test]
    fn a_well_formed_transcript_passes() {
        let mut t = Tracker::default();
        t.sent(0, &req(2), Instant::now(), true);
        feed(
            &mut t,
            &[
                r#"{"id":"r0","event":"accepted","kind":"compare"}"#,
                r#"{"id":"r0","event":"cell","index":0,"cached":false,"data":{}}"#,
                r#"{"id":"r0","event":"cell","index":1,"cached":false,"data":{}}"#,
                r#"{"id":"r0","event":"done","ms":1.0,"result":[1,2],"cache":{"hits":0}}"#,
            ],
        );
        assert_eq!((t.attempted, t.failed, t.samples.len()), (1, 0, 1));
        assert_eq!(
            (t.samples[0].cells, t.samples[0].first_ms.is_some()),
            (2, true)
        );
    }

    #[test]
    fn out_of_order_indices_fail() {
        let mut t = Tracker::default();
        t.sent(3, &req(2), Instant::now(), true);
        feed(
            &mut t,
            &[
                r#"{"id":"r3","event":"accepted","kind":"compare"}"#,
                r#"{"id":"r3","event":"cell","index":1,"cached":false,"data":{}}"#,
                r#"{"id":"r3","event":"cell","index":0,"cached":false,"data":{}}"#,
                r#"{"id":"r3","event":"done","ms":1.0,"result":[],"cache":{}}"#,
            ],
        );
        assert_eq!((t.failed, t.samples.len()), (1, 0));
    }

    #[test]
    fn a_missing_done_fails() {
        let mut t = Tracker::default();
        t.sent(0, &req(1), Instant::now(), false);
        feed(
            &mut t,
            &[
                r#"{"id":"r0","event":"accepted","kind":"compare"}"#,
                r#"{"id":"r0","event":"cell","index":0,"cached":false,"data":{}}"#,
            ],
        );
        assert_eq!(t.failed, 0);
        t.abandon();
        assert_eq!(t.failed, 1);
    }

    #[test]
    fn wrong_cell_counts_errors_and_duplicate_events_fail() {
        let mut t = Tracker::default();
        t.sent(0, &req(2), Instant::now(), true);
        t.sent(1, &req(0), Instant::now(), true);
        t.sent(2, &req(0), Instant::now(), true);
        feed(
            &mut t,
            &[
                // r0: one cell short.
                r#"{"id":"r0","event":"accepted","kind":"compare"}"#,
                r#"{"id":"r0","event":"cell","index":0,"cached":false,"data":{}}"#,
                r#"{"id":"r0","event":"done","ms":1.0,"result":[],"cache":{}}"#,
                // r1: an error event instead of done.
                r#"{"id":"r1","event":"accepted","kind":"compare"}"#,
                r#"{"id":"r1","event":"error","reason":"deadline","message":"x"}"#,
                // r2: done twice; the second is for a request no longer pending.
                r#"{"id":"r2","event":"accepted","kind":"compare"}"#,
                r#"{"id":"r2","event":"done","ms":1.0,"result":[],"cache":{}}"#,
                r#"{"id":"r2","event":"done","ms":1.0,"result":[],"cache":{}}"#,
                r#"not json"#,
            ],
        );
        assert_eq!(t.failed, 4);
        assert_eq!(t.samples.len(), 1);
    }

    #[test]
    fn a_result_that_changes_between_passes_fails() {
        let mut t = Tracker::default();
        let done = |id: u64, result: &str| {
            format!(r#"{{"id":"r{id}","event":"done","ms":1.0,"result":{result},"cache":{{}}}}"#)
        };
        for (id, result) in [(0, "[1]"), (1, "[1]"), (2, "[2]")] {
            t.sent(id, &req(0), Instant::now(), false);
            feed(
                &mut t,
                &[
                    &format!(r#"{{"id":"r{id}","event":"accepted","kind":"compare"}}"#),
                    &done(id, result),
                ],
            );
        }
        assert_eq!(t.failed, 1);
    }
}
