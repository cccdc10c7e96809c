//! Deterministic parallel execution for independent work items.
//!
//! Every sweep in the evaluation pipeline — capacity sweeps, batch sweeps,
//! chaos degradation curves, the headline comparisons — runs many
//! *independent, deterministic* simulations. [`par_map`] fans those out over
//! a scoped worker pool (`std::thread::scope`, no external dependency) while
//! **preserving input order**: the result vector is index-for-index what the
//! serial loop would produce, so parallel output is byte-identical to serial
//! output and the thread count is purely a wall-clock knob.
//!
//! The thread count resolves in priority order:
//!
//! 1. an explicit `--threads <n>` flag, applied via [`set_threads`] (the
//!    [`parse_threads_flag`] helper strips it from an argv for the
//!    binaries);
//! 2. the `SM_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! Work is distributed dynamically (an atomic next-item counter), so skewed
//! item costs — ResNet-152 next to SqueezeNet — still balance. When a cost
//! estimate is available up front (network MAC counts), [`par_map_weighted`]
//! instead assigns items largest-first by a static greedy schedule, which
//! bounds the makespan without sacrificing byte-identity;
//! [`par_map_stream`] runs that same schedule while streaming results in
//! input order under an optional cancel check.
//!
//! Parallelism is **one level deep**: a dispatch made on a worker that
//! [`par_map`] or [`par_map_stream`] spawned runs inline on that worker,
//! through the same serial path as `threads == 1`, instead of starting a
//! second pool. `all_experiments` runs its twelve table builders on the
//! pool and each builder sweeps its own points; with nested pools every
//! builder paid a pool spawn per sweep and oversubscribed the cores.
//! Threads the pool did not spawn (the main thread, `smctl serve`'s request
//! threads) fan out as before. Results come back in serial order either
//! way, so the rule changes wall-clock time only.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Set on the workers [`par_map`] and [`par_map_stream`] spawn.
    static POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The worker count a dispatch of `items` items actually uses: 1 on a pool
/// worker (the one-level rule), else `threads` capped by the item count.
fn workers_for(items: usize, threads: usize) -> usize {
    if POOL_WORKER.with(Cell::get) {
        1
    } else {
        threads.min(items).max(1)
    }
}

/// Process-wide thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker count used by [`threads`] (the `--threads`
/// flag of the binaries lands here). `None` or `Some(0)` clears the
/// override.
pub fn set_threads(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// The worker count parallel sweeps use: the [`set_threads`] override if
/// set, else `SM_THREADS` if parseable and non-zero, else the machine's
/// available parallelism (1 when even that is unknown).
pub fn threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `SM_THREADS` as a positive worker count, when set and well-formed.
fn env_threads() -> Option<usize> {
    std::env::var("SM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Strips `--threads <n>` from an argument list, returning the parsed count.
///
/// Shared by `smctl` and the figure binaries so every entry point spells the
/// flag the same way. The flag may appear anywhere; the last occurrence
/// wins.
///
/// # Errors
///
/// Returns a user-facing message when the value is missing or not a
/// positive integer.
pub fn parse_threads_flag(args: &mut Vec<String>) -> Result<Option<usize>, String> {
    let mut parsed = None;
    while let Some(pos) = args.iter().position(|a| a == "--threads") {
        if pos + 1 >= args.len() {
            return Err("--threads requires a value".into());
        }
        let value = args[pos + 1].clone();
        let n: usize =
            value.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                format!("invalid thread count {value:?} (positive integer expected)")
            })?;
        args.drain(pos..pos + 2);
        parsed = Some(n);
    }
    Ok(parsed)
}

/// Maps `f` over `items` on `threads` scoped workers, preserving order.
///
/// The output is exactly `items.iter().map(f).collect()` — workers claim
/// items through an atomic counter and tag each result with its index, so
/// scheduling nondeterminism never reaches the caller. With `threads <= 1`
/// (or one item), or when called on a pool worker, the call degenerates to
/// the serial loop, no threads spawned.
///
/// # Example
///
/// ```
/// use sm_core::parallel::par_map;
///
/// let xs = vec![3u64, 1, 4, 1, 5];
/// assert_eq!(par_map(&xs, 4, |x| x * 2), vec![6, 2, 8, 2, 10]);
/// ```
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = workers_for(items.len(), threads);
    if workers == 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, U)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                POOL_WORKER.with(|w| w.set(true));
                let mut mine: Vec<(usize, U)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    mine.push((i, f(&items[i])));
                }
                mine
            }));
        }
        for handle in handles {
            tagged.extend(handle.join().expect("sweep worker panicked"));
        }
    });
    tagged.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(tagged.len(), items.len());
    tagged.into_iter().map(|(_, u)| u).collect()
}

/// Cost-aware [`par_map`]: dispatches the most expensive items first so a
/// skewed batch (ResNet-152 next to SqueezeNet) never strands one worker on
/// the big item while the others idle.
///
/// `cost` is an *estimate* (e.g. a network's MAC count) consulted once per
/// item up front. Items are assigned to workers by static greedy
/// longest-processing-time scheduling: walk the items in descending
/// estimated cost (ties broken by ascending index) and give each to the
/// worker with the smallest assigned load so far (ties broken by lowest
/// worker id). The assignment is a pure function of `(costs, threads)` —
/// no racy work-stealing — and each worker runs its queue in that fixed
/// order, so for a deterministic `f` the output is exactly
/// `items.iter().map(f).collect()` at every thread count: order-preserved
/// and byte-identical. The thread count and cost function are purely
/// wall-clock knobs.
///
/// # Example
///
/// ```
/// use sm_core::parallel::{par_map, par_map_weighted};
///
/// let xs = vec![3u64, 100, 4, 1, 5];
/// let weighted = par_map_weighted(&xs, 4, |&x| x, |x| x * 2);
/// assert_eq!(weighted, par_map(&xs, 4, |x| x * 2));
/// ```
pub fn par_map_weighted<T, U, F, C>(items: &[T], threads: usize, cost: C, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
    C: Fn(&T) -> u64,
{
    par_map_stream(items, threads, cost, f, |_, _| {}, None)
        .expect("a dispatch without a cancel check cannot be cancelled")
}

/// Cancellation predicate consulted between work items by
/// [`par_map_stream`]. Returning `true` asks the dispatch to stop before
/// the next item; items already running complete normally, so
/// cancellation lands on item boundaries (cell granularity for the sweep
/// service's deadlines).
pub type CancelCheck<'a> = &'a (dyn Fn() -> bool + Sync);

/// Typed "the dispatch was cancelled" error returned by [`par_map_stream`]
/// when its [`CancelCheck`] fired before every item completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dispatch cancelled")
    }
}

impl std::error::Error for Cancelled {}

/// The static greedy longest-processing-time schedule described on
/// [`par_map_weighted`]: one queue of item indices per worker.
fn lpt_queues<T>(items: &[T], workers: usize, cost: impl Fn(&T) -> u64) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(cost(&items[i])), i));
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); workers];
    let mut loads = vec![0u64; workers];
    for &i in &order {
        let w = (0..workers)
            .min_by_key(|&w| (loads[w], w))
            .expect("workers > 0");
        loads[w] = loads[w].saturating_add(cost(&items[i]).max(1));
        queues[w].push(i);
    }
    queues
}

/// [`par_map_weighted`] that streams each result to `on_ready` **in input
/// order** as soon as the contiguous prefix up to it has completed, with
/// optional cooperative cancellation — the dispatch behind the resident
/// sweep service, which emits a JSON line per finished cell while later
/// cells are still running.
///
/// Work assignment is the [`par_map_weighted`] LPT schedule, so the
/// returned vector is byte-identical to the serial
/// `items.iter().map(f).collect()` at every thread count, and
/// `on_ready(i, &result[i])` fires exactly once per item with `i` strictly
/// ascending. `on_ready` runs on the calling thread; workers hand results
/// over a channel rather than invoking the callback themselves, so the
/// callback needs no synchronization and observes results in order even
/// when items complete out of order.
///
/// Workers consult `cancel` before starting each item and stop claiming
/// work once it returns `true`. The contiguous in-order prefix that
/// completed is still delivered through `on_ready`; if any item was
/// abandoned the call returns [`Cancelled`]. Cancellation is best-effort
/// on item boundaries: items already executing run to completion, and a
/// check that first returns `true` after the last item was claimed yields
/// `Ok`. A check that never fires leaves the output exactly as with
/// `cancel = None`.
///
/// # Errors
///
/// Returns [`Cancelled`] when the check fired before every item ran.
pub fn par_map_stream<T, U, F, C, G>(
    items: &[T],
    threads: usize,
    cost: C,
    f: F,
    mut on_ready: G,
    cancel: Option<CancelCheck<'_>>,
) -> Result<Vec<U>, Cancelled>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
    C: Fn(&T) -> u64,
    G: FnMut(usize, &U),
{
    let cancelled = || cancel.is_some_and(|c| c());
    let workers = workers_for(items.len(), threads);
    if workers == 1 {
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            if cancelled() {
                return Err(Cancelled);
            }
            let u = f(item);
            on_ready(i, &u);
            out.push(u);
        }
        return Ok(out);
    }

    let queues = lpt_queues(items, workers, cost);
    let mut slots: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel::<(usize, U)>();
        let f = &f;
        let cancelled = &cancelled;
        for queue in &queues {
            let tx = tx.clone();
            scope.spawn(move || {
                POOL_WORKER.with(|w| w.set(true));
                for &i in queue {
                    if cancelled() {
                        break;
                    }
                    // A send only fails when the receiver is gone, which
                    // only happens if this scope is already unwinding.
                    let _ = tx.send((i, f(&items[i])));
                }
            });
        }
        drop(tx);
        // Drain on the calling thread, emitting the in-order frontier as it
        // becomes contiguous. Under cancellation the channel closes early
        // and the frontier stops short of the end.
        let mut frontier = 0usize;
        for (i, u) in rx {
            slots[i] = Some(u);
            while let Some(Some(u)) = slots.get(frontier) {
                on_ready(frontier, u);
                frontier += 1;
            }
        }
    });
    slots
        .into_iter()
        .collect::<Option<Vec<U>>>()
        .ok_or(Cancelled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_at_every_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64, 200] {
            assert_eq!(par_map(&items, threads, |x| x * x), expect, "{threads}");
        }
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(par_map(&none, 8, |x| *x).is_empty());
        assert_eq!(par_map(&[7u32], 8, |x| x + 1), vec![8]);
    }

    #[test]
    fn unbalanced_items_still_land_in_slot_order() {
        // Make early items slow so late items finish first.
        let items: Vec<u64> = (0..16).collect();
        let out = par_map(&items, 4, |&x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x * 10
        });
        assert_eq!(out, (0..16).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_map_is_byte_identical_to_serial_under_adversarial_costs() {
        let items: Vec<u64> = (0..41).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        type CostFn = fn(&u64) -> u64;
        let costs: [(&str, CostFn); 4] = [
            ("reverse-sorted", |x: &u64| u64::MAX - *x),
            ("all-equal", |_: &u64| 7),
            ("ascending", |x: &u64| *x),
            ("zero", |_: &u64| 0),
        ];
        for (label, cost) in costs {
            for threads in [1usize, 3, 8] {
                let weighted = par_map_weighted(&items, threads, cost, |x| x * 3 + 1);
                assert_eq!(weighted, expect, "{label} at {threads} threads");
                assert_eq!(
                    weighted,
                    par_map(&items, threads, |x| x * 3 + 1),
                    "{label} at {threads} threads vs par_map"
                );
            }
        }
    }

    #[test]
    fn weighted_map_handles_empty_and_singleton_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(par_map_weighted(&none, 8, |_| 1, |x| *x).is_empty());
        assert_eq!(par_map_weighted(&[7u32], 8, |_| 1, |x| x + 1), vec![8]);
    }

    #[test]
    fn weighted_map_isolates_the_dominant_item_on_its_own_worker() {
        // With 2 workers and costs [1, 1, 10, 1, 1], greedy LPT assigns the
        // 10-cost item first (alone, since the four 1-cost items sum to 4 <
        // 10); verify by recording which thread ran each item.
        use std::sync::Mutex;
        type Claims = Vec<(std::thread::ThreadId, u64)>;
        let items: Vec<u64> = vec![1, 1, 10, 1, 1];
        let claims: Mutex<Claims> = Mutex::new(Vec::new());
        let _ = par_map_weighted(
            &items,
            2,
            |&c| c,
            |&c| {
                claims
                    .lock()
                    .unwrap()
                    .push((std::thread::current().id(), c));
                c
            },
        );
        let claims = claims.into_inner().unwrap();
        let big_thread = claims.iter().find(|(_, c)| *c == 10).unwrap().0;
        let on_big: Vec<u64> = claims
            .iter()
            .filter(|(t, _)| *t == big_thread)
            .map(|(_, c)| *c)
            .collect();
        assert_eq!(on_big, vec![10], "dominant item shares no worker");
    }

    #[test]
    fn streamed_results_arrive_in_order_and_match_par_map() {
        let items: Vec<u64> = (0..53).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 7 + 1).collect();
        for threads in [1usize, 2, 4, 16] {
            let mut seen: Vec<usize> = Vec::new();
            let out = par_map_stream(
                &items,
                threads,
                |&x| x,
                |x| x * 7 + 1,
                |i, u| {
                    assert_eq!(*u, expect[i], "value at {i}");
                    seen.push(i);
                },
                None,
            )
            .unwrap();
            assert_eq!(out, expect, "{threads} threads");
            assert_eq!(seen, (0..items.len()).collect::<Vec<_>>(), "{threads}");
        }
    }

    #[test]
    fn stream_handles_empty_and_singleton_inputs() {
        let none: Vec<u32> = Vec::new();
        let mut calls = 0;
        let out = par_map_stream(&none, 8, |_| 1, |x| *x, |_, _| calls += 1, None);
        assert!(out.unwrap().is_empty());
        assert_eq!(calls, 0);
        let out = par_map_stream(&[7u32], 8, |_| 1, |x| x + 1, |_, _| calls += 1, None);
        assert_eq!((out.unwrap(), calls), (vec![8], 1));
    }

    #[test]
    fn stream_emits_in_order_even_when_later_items_finish_first() {
        // Item 0 is slow; the callback must still see 0 before 1..n.
        let items: Vec<u64> = (0..8).collect();
        let mut seen = Vec::new();
        par_map_stream(
            &items,
            4,
            |_| 1,
            |&x| {
                if x == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                x
            },
            |i, _| seen.push(i),
            None,
        )
        .unwrap();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn stream_without_a_cancel_check_matches_par_map_weighted() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 5 + 2).collect();
        for threads in [1usize, 2, 4] {
            let mut seen = Vec::new();
            let out = par_map_stream(
                &items,
                threads,
                |&x| x,
                |x| x * 5 + 2,
                |i, _| seen.push(i),
                None,
            )
            .unwrap();
            assert_eq!(out, expect, "{threads} threads");
            assert_eq!(seen, (0..items.len()).collect::<Vec<_>>());
            let weighted = par_map_weighted(&items, threads, |&x| x, |x| x * 5 + 2);
            assert_eq!(out, weighted, "{threads} threads");
        }
    }

    #[test]
    fn never_firing_cancel_check_is_byte_identical_to_none() {
        let items: Vec<u64> = (0..29).collect();
        let never = || false;
        for threads in [1usize, 3, 8] {
            let run = |cancel: Option<CancelCheck<'_>>| {
                par_map_stream(&items, threads, |&x| x, |x| x * 9, |_, _| {}, cancel)
            };
            let checked = run(Some(&never)).unwrap();
            let unchecked = run(None).unwrap();
            assert_eq!(checked, unchecked, "{threads} threads");
        }
    }

    #[test]
    fn pre_fired_cancel_returns_cancelled_without_running_items() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<u64> = (0..16).collect();
        let ran = AtomicUsize::new(0);
        let always = || true;
        for threads in [1usize, 4] {
            let r = par_map_stream(
                &items,
                threads,
                |_| 1,
                |&x| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    x
                },
                |_, _| {},
                Some(&always),
            );
            assert_eq!(r, Err(Cancelled), "{threads} threads");
        }
        assert_eq!(ran.load(Ordering::Relaxed), 0, "no item may start");
    }

    #[test]
    fn mid_flight_cancel_stops_on_item_boundaries_and_streams_the_prefix() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<u64> = (0..64).collect();
        let ran = AtomicUsize::new(0);
        // Fire after the fourth item starts: later items are abandoned.
        let cancel = || ran.load(Ordering::Relaxed) >= 4;
        let mut seen = Vec::new();
        let r = par_map_stream(
            &items,
            2,
            |_| 1,
            |&x| {
                ran.fetch_add(1, Ordering::Relaxed);
                x
            },
            |i, _| seen.push(i),
            Some(&cancel),
        );
        assert_eq!(r, Err(Cancelled));
        assert!(
            ran.load(Ordering::Relaxed) < items.len(),
            "cancellation must abandon the tail"
        );
        // The streamed prefix is contiguous from zero.
        assert_eq!(seen, (0..seen.len()).collect::<Vec<_>>());
    }

    #[test]
    fn a_dispatch_on_a_pool_worker_runs_inline_on_that_worker() {
        type Tagged = (std::thread::ThreadId, u64);
        let inner: Vec<u64> = (0..9).collect();
        let expect: Vec<u64> = inner.iter().map(|x| x * 3).collect();
        let tagged = |x: &u64| (std::thread::current().id(), x * 3);
        // Every entry point, called on a worker of either pool kind.
        let nested = |_: &u64| -> (std::thread::ThreadId, [Vec<Tagged>; 3]) {
            let plain = par_map(&inner, 4, tagged);
            let weighted = par_map_weighted(&inner, 4, |&x| x, tagged);
            let streamed = par_map_stream(&inner, 4, |&x| x, tagged, |_, _| {}, None)
                .expect("no cancel check");
            (std::thread::current().id(), [plain, weighted, streamed])
        };
        let outer: Vec<u64> = (0..4).collect();
        let main = std::thread::current().id();
        let runs = [
            par_map(&outer, 2, nested),
            par_map_weighted(&outer, 2, |_| 1, nested),
        ];
        for (worker, maps) in runs.into_iter().flatten() {
            assert_ne!(worker, main, "the outer dispatch must use its pool");
            for map in maps {
                assert!(
                    map.iter().all(|(t, _)| *t == worker),
                    "item left its worker"
                );
                let values: Vec<u64> = map.into_iter().map(|(_, u)| u).collect();
                assert_eq!(values, expect);
            }
        }
    }

    #[test]
    fn a_dispatch_from_a_plain_scoped_thread_still_fans_out() {
        // `smctl serve` runs each request on a plain `std::thread::scope`
        // thread; its sweeps must keep their pool.
        let ids = std::thread::scope(|scope| {
            scope
                .spawn(|| par_map_weighted(&[1u64, 1], 2, |&c| c, |_| std::thread::current().id()))
                .join()
                .expect("request thread panicked")
        });
        assert_ne!(
            ids[0], ids[1],
            "two equal-cost items at 2 threads use two workers"
        );
    }

    #[test]
    fn threads_flag_parses_and_strips() {
        let mut args: Vec<String> = ["chaos", "--threads", "4", "toy_residual"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_threads_flag(&mut args), Ok(Some(4)));
        assert_eq!(args, ["chaos", "toy_residual"]);

        let mut none: Vec<String> = vec!["networks".into()];
        assert_eq!(parse_threads_flag(&mut none), Ok(None));

        let mut bad: Vec<String> = vec!["--threads".into(), "zero?".into()];
        assert!(parse_threads_flag(&mut bad).is_err());
        let mut missing: Vec<String> = vec!["--threads".into()];
        assert!(parse_threads_flag(&mut missing).is_err());

        let mut twice: Vec<String> = ["--threads", "2", "--threads", "6"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_threads_flag(&mut twice), Ok(Some(6)));
        assert!(twice.is_empty());
    }

    #[test]
    fn thread_count_resolution_is_sane() {
        // Whatever the environment, the resolved count is positive.
        assert!(threads() >= 1);
    }
}
