//! Property suite for concurrent request interleaving in `smctl serve`
//! (`sm_bench::service`).
//!
//! Covered properties:
//!
//! * mux determinism — for requests that share no cells, the whole
//!   service output is byte-identical to sequential serving at every
//!   `(worker threads, max_inflight)` combination, with each run against
//!   its own cold store;
//! * result determinism — for requests that do share cells, which
//!   in-flight request computes a shared cell first is a race, so `cached`
//!   flags and `cache` counts may differ from sequential serving, but every
//!   `result` payload is identical;
//! * per-request stream order — within one request the events always read
//!   `accepted` → `cell` (in index order) → `done`;
//! * deadline typing — an already-expired deadline yields a typed
//!   `{"event":"error","reason":"deadline"}` and zero cells, even when
//!   every cell is warm in the cache.

use std::fs;
use std::path::PathBuf;

use shortcut_mining::bench::cas::ResultCache;
use shortcut_mining::bench::service::{run_serve, ServeOptions};
use shortcut_mining::core::parallel::set_threads;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sm-serve-prop-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Four disjoint chaos-grid requests: different seeds mean zero shared
/// cells, so every interleaving does the same work.
fn disjoint_requests() -> String {
    (0..4)
        .map(|i| {
            format!(
                r#"{{"id":"c{i}","kind":"chaos-grid","network":"toy_residual","seed":{i},"fractions":[0.0,0.3],"rates":[0.0,0.2]}}"#
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Four requests on one network that share cells: two identical grids, a
/// grid overlapping them in one column, and a comparison.
fn overlapping_requests() -> String {
    let grid = |id: &str, rates: &str| {
        format!(
            r#"{{"id":"{id}","kind":"chaos-grid","network":"toy_residual","seed":7,"fractions":[0.0,0.3],"rates":{rates}}}"#
        )
    };
    [
        grid("o0", "[0.0,0.2]"),
        grid("o1", "[0.0,0.2]"),
        grid("o2", "[0.0,0.1]"),
        r#"{"id":"o3","kind":"compare","network":"toy_residual"}"#.to_string(),
    ]
    .join("\n")
}

fn serve_cold(tag: &str, input: &str, options: &ServeOptions) -> String {
    let dir = tmp_dir(tag);
    let store = ResultCache::open(&dir).unwrap();
    let mut out = Vec::new();
    run_serve(input.as_bytes(), &mut out, &store, options).unwrap();
    let _ = fs::remove_dir_all(&dir);
    String::from_utf8(out).unwrap()
}

/// Thread count is process-global, so one test owns the whole matrix.
#[test]
fn interleaved_output_is_byte_identical_across_threads_and_inflight() {
    let input = disjoint_requests();
    let reference = {
        set_threads(Some(1));
        serve_cold(
            "ref",
            &input,
            &ServeOptions {
                max_inflight: 1,
                deterministic_timing: true,
                ..ServeOptions::default()
            },
        )
    };

    // The reference run is well-formed: per-request streams are internally
    // ordered even before comparing whole outputs.
    for id in ["c0", "c1", "c2", "c3"] {
        let events: Vec<&str> = reference
            .lines()
            .filter(|l| l.contains(&format!(r#""id":"{id}","#)))
            .collect();
        assert!(events[0].contains(r#""event":"accepted""#), "{id}");
        assert!(events.last().unwrap().contains(r#""event":"done""#), "{id}");
        let indices: Vec<usize> = events
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
        assert_eq!(indices, vec![0, 1, 2, 3], "{id}");
    }

    for threads in [1usize, 2] {
        set_threads(Some(threads));
        for max_inflight in [1usize, 2, 4] {
            let got = serve_cold(
                &format!("t{threads}-m{max_inflight}"),
                &input,
                &ServeOptions {
                    max_inflight,
                    deterministic_timing: true,
                    ..ServeOptions::default()
                },
            );
            assert_eq!(
                got, reference,
                "output diverged at {threads} threads, max_inflight {max_inflight}"
            );
        }
    }
    set_threads(None);
}

#[test]
fn overlapping_requests_return_sequential_results_at_any_inflight() {
    // Each `done` line up to its `cache` stats: id, timing pinned by
    // deterministic mode, and the result payload.
    let results = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| l.contains(r#""event":"done""#))
            .map(|l| l.split(r#","cache":"#).next().unwrap().to_string())
            .collect()
    };
    let input = overlapping_requests();
    let options = |max_inflight| ServeOptions {
        max_inflight,
        deterministic_timing: true,
        ..ServeOptions::default()
    };
    let reference = results(&serve_cold("overlap-ref", &input, &options(1)));
    assert_eq!(reference.len(), 4, "{reference:?}");
    for max_inflight in [2usize, 4] {
        for round in 0..3 {
            let got = results(&serve_cold(
                &format!("overlap-m{max_inflight}-{round}"),
                &input,
                &options(max_inflight),
            ));
            assert_eq!(got, reference, "max_inflight {max_inflight}, round {round}");
        }
    }
}

#[test]
fn expired_deadline_is_typed_and_emits_no_cells_even_when_warm() {
    let dir = tmp_dir("deadline");
    let store = ResultCache::open(&dir).unwrap();
    let warm = r#"{"id":"w","kind":"chaos-grid","network":"toy_residual","fractions":[0.0,0.3],"rates":[0.0,0.2]}"#;
    let expired = warm.replace(r#""id":"w""#, r#""id":"x","deadline_ms":0"#);
    let mut out = Vec::new();
    run_serve(
        format!("{warm}\n{expired}\n").as_bytes(),
        &mut out,
        &store,
        &ServeOptions::default(),
    )
    .unwrap();
    let text = String::from_utf8(out).unwrap();
    // The warm-up request completed; the expired one was cancelled before
    // its first cell despite every cell being a guaranteed cache hit.
    assert!(text.contains(r#""id":"w","event":"done""#));
    let x_events: Vec<&str> = text
        .lines()
        .filter(|l| l.contains(r#""id":"x","#))
        .collect();
    assert_eq!(x_events.len(), 2, "{x_events:?}");
    assert!(x_events[0].contains(r#""event":"accepted""#));
    assert!(x_events[1].contains(r#""event":"error""#));
    assert!(x_events[1].contains(r#""reason":"deadline""#));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn default_deadline_applies_to_requests_without_their_own() {
    let dir = tmp_dir("default-deadline");
    let store = ResultCache::open(&dir).unwrap();
    let req = r#"{"id":"d","kind":"chaos-grid","network":"toy_residual"}"#;
    let mut out = Vec::new();
    run_serve(
        format!("{req}\n").as_bytes(),
        &mut out,
        &store,
        &ServeOptions {
            default_deadline_ms: Some(0),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains(r#""reason":"deadline""#), "{text}");
    assert!(!text.contains(r#""event":"done""#));
    let _ = fs::remove_dir_all(&dir);
}
