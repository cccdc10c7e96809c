//! Deterministic parallel execution for independent work items.
//!
//! The sweeps behind `smctl chaos` and `smctl serve` run many *independent,
//! deterministic* simulations, and `all_experiments` builds twelve
//! independent tables. [`par_map_stream`] fans such items out over a scoped
//! worker pool (`std::thread::scope`, no external dependency) while
//! **preserving input order**: the result vector is index-for-index what
//! the serial loop would produce, so parallel output is byte-identical to
//! serial output and the thread count is purely a wall-clock knob.
//!
//! The thread count is an explicit `--threads <n>` flag, applied via
//! [`set_threads`] (the [`parse_threads_flag`] helper strips it from an
//! argv for the binaries), else [`std::thread::available_parallelism`].
//!
//! Workers claim the next unclaimed item from a shared atomic counter, so
//! skewed item costs still balance: a worker that finishes early (a cell
//! that aborts on its first fault) takes the next item while a slow one
//! runs on.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker count used by [`threads`] (the `--threads`
/// flag of the binaries lands here). `None` or `Some(0)` clears the
/// override.
pub fn set_threads(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// The worker count parallel sweeps use: the [`set_threads`] override if
/// set, else the machine's available parallelism (1 when even that is
/// unknown).
pub fn threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        forced => forced,
    }
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

/// Maps `f` over `items` on up to `threads` scoped workers and streams each
/// result to `on_ready` **in input order** as soon as the contiguous prefix
/// up to it has completed, with optional cooperative cancellation — the
/// dispatch behind the resident sweep service, which emits a JSON line per
/// finished cell while later cells are still running.
///
/// The returned vector is exactly `items.iter().map(f).collect()` at every
/// thread count, and `on_ready(i, &result[i])` fires exactly once per item
/// with `i` strictly ascending. Workers claim items through an atomic
/// counter and hand results over a channel; `on_ready` runs on the calling
/// thread, so the callback needs no synchronization and observes results in
/// order even when items complete out of order. With one worker (`threads
/// <= 1` or one item) the call is the serial loop, no threads spawned.
///
/// Workers consult `cancel` before claiming each item and stop once it
/// returns `true`. Items are claimed in index order and every claimed item
/// runs to completion, so the items that ran — all streamed through
/// `on_ready` — are a contiguous prefix; if any item was abandoned the call
/// returns [`Cancelled`]. A check that first returns `true` after the last
/// item was claimed yields `Ok`, and a check that never fires leaves the
/// output exactly as with `cancel = None`.
///
/// # Errors
///
/// Returns [`Cancelled`] when the check fired before every item ran.
///
/// # Example
///
/// ```
/// use sm_core::parallel::par_map_stream;
///
/// let xs = vec![3u64, 1, 4, 1, 5];
/// let mut seen = Vec::new();
/// let out = par_map_stream(&xs, 4, |x| x * 2, |i, _| seen.push(i), None);
/// assert_eq!(out, Ok(vec![6, 2, 8, 2, 10]));
/// assert_eq!(seen, [0, 1, 2, 3, 4]);
/// ```
pub fn par_map_stream<T, U, F, G>(
    items: &[T],
    threads: usize,
    f: F,
    mut on_ready: G,
    cancel: Option<CancelCheck<'_>>,
) -> Result<Vec<U>, Cancelled>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
    G: FnMut(usize, &U),
{
    let cancelled = || cancel.is_some_and(|c| c());
    let workers = threads.min(items.len()).max(1);
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

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel::<(usize, U)>();
        let (f, next, cancelled) = (&f, &next, &cancelled);
        for _ in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || {
                while !cancelled() {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
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
    use std::time::{Duration, Instant};

    /// `par_map_stream` without a cancel check, recording the stream order.
    fn map_in_order<T: Sync, U: Send>(
        items: &[T],
        threads: usize,
        f: impl Fn(&T) -> U + Sync,
    ) -> (Vec<U>, Vec<usize>) {
        let mut seen = Vec::new();
        let out = par_map_stream(items, threads, f, |i, _| seen.push(i), None)
            .expect("a dispatch without a cancel check is never cancelled");
        (out, seen)
    }

    #[test]
    fn preserves_order_at_every_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64, 200] {
            let (out, seen) = map_in_order(&items, threads, |x| x * x);
            assert_eq!(out, expect, "{threads}");
            assert_eq!(seen, (0..items.len()).collect::<Vec<_>>(), "{threads}");
        }
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        let none: Vec<u32> = Vec::new();
        assert_eq!(map_in_order(&none, 8, |x| *x), (vec![], vec![]));
        assert_eq!(map_in_order(&[7u32], 8, |x| x + 1), (vec![8], vec![0]));
    }

    #[test]
    fn stream_emits_in_order_even_when_later_items_finish_first() {
        // Item 0 is slow; the callback must still see 0 before 1..n.
        let items: Vec<u64> = (0..8).collect();
        let (out, seen) = map_in_order(&items, 4, |&x| {
            if x == 0 {
                std::thread::sleep(Duration::from_millis(10));
            }
            x
        });
        assert_eq!(out, items);
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn a_slow_item_does_not_hold_back_the_items_after_it() {
        // Item 0 waits until every other item has run. Claiming from a
        // shared counter lets the second worker take items 1..=8 meanwhile;
        // a static split would queue items 2, 4, 6 and 8 behind item 0.
        let items: Vec<usize> = (0..9).collect();
        let done = AtomicUsize::new(0);
        let (out, _) = map_in_order(&items, 2, |&i| {
            if i > 0 {
                done.fetch_add(1, Ordering::SeqCst);
                return true;
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while done.load(Ordering::SeqCst) < items.len() - 1 {
                if Instant::now() > deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            true
        });
        assert!(out[0], "item 0 timed out waiting for items 1..=8");
    }

    #[test]
    fn never_firing_cancel_check_is_byte_identical_to_none() {
        let items: Vec<u64> = (0..29).collect();
        let never = || false;
        for threads in [1usize, 3, 8] {
            let run = |cancel: Option<CancelCheck<'_>>| {
                par_map_stream(&items, threads, |x| x * 9, |_, _| {}, cancel)
            };
            let checked = run(Some(&never)).unwrap();
            let unchecked = run(None).unwrap();
            assert_eq!(checked, unchecked, "{threads} threads");
        }
    }

    #[test]
    fn pre_fired_cancel_returns_cancelled_without_running_items() {
        let items: Vec<u64> = (0..16).collect();
        let ran = AtomicUsize::new(0);
        let always = || true;
        for threads in [1usize, 4] {
            let r = par_map_stream(
                &items,
                threads,
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
        let items: Vec<u64> = (0..64).collect();
        let ran = AtomicUsize::new(0);
        // Fire after the fourth item starts: later items are abandoned.
        let cancel = || ran.load(Ordering::Relaxed) >= 4;
        let mut seen = Vec::new();
        let r = par_map_stream(
            &items,
            2,
            |&x| {
                ran.fetch_add(1, Ordering::Relaxed);
                x
            },
            |i, _| seen.push(i),
            Some(&cancel),
        );
        assert_eq!(r, Err(Cancelled));
        let ran = ran.load(Ordering::Relaxed);
        assert!(ran < items.len(), "cancellation must abandon the tail");
        // Every item that ran is streamed, as a contiguous prefix from zero.
        assert_eq!(seen, (0..ran).collect::<Vec<_>>());
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
        // Whatever the machine, the resolved count is positive.
        assert!(threads() >= 1);
    }
}
