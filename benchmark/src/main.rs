//! `smbench`, the repository benchmark (see `benchmark/README.md`).
//!
//! ```text
//! smbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One run: prints every metric, then a one-line JSON result.
//!     --trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones.
//! smbench --seed <n> [--seconds <s>]
//!     The whole set: three end-to-end runs and one traced run per
//!     workload, each in its own process; writes benchmark/out/results.json.
//! ```
//!
//! Run it from the repository root through `benchmark/run.sh`, which
//! builds the binaries first. The exit code is 0 when every output check
//! passed, 1 when one failed, 2 when the benchmark could not run.

mod figures;
mod gen;
mod host;
mod serve;
mod stats;
mod trace;

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use serde::de::Value;

use gen::Workload;
use host::{number, Ctx, Report};

const USAGE: &str = "usage:
  smbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  smbench --seed <n> [--seconds <s>]
workloads: serve-cold serve-warm serve-delta serve-ingest figures";

/// Default length of a timed window (`BENCHMARK.json` passes its own
/// `run_seconds`): long enough for `figures` to put ten regenerations
/// beyond its p90 on a slow host.
const DEFAULT_SECONDS: u64 = 15;

/// End-to-end runs per workload in the whole set.
const WHOLE_SET_RUNS: usize = 3;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                parsed.workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => parsed.seed = number(&value)?,
            "--seconds" => parsed.seconds = number(&value)?.max(1),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| {
        let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
        let ctx = Ctx::at(root)?;
        if let Some(w) = args.workload {
            one_run(&ctx, w, &args)
        } else {
            whole_set(&ctx, &args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("smbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn hashes_file(ctx: &Ctx, w: Workload) -> std::path::PathBuf {
    ctx.out.join(format!("result-hashes-{}.txt", w.name()))
}

fn one_run(ctx: &Ctx, w: Workload, args: &Args) -> Result<bool, String> {
    let report = if args.trace {
        trace::run(ctx, w, args.seed)?
    } else if w == Workload::Figures {
        figures::run(ctx, args.seconds)?
    } else {
        let (report, tracker) = serve::run(ctx, w, args.seed, args.seconds)?;
        // Request-body → result hashes, for the whole set's check that one
        // request line gets the same answer in every run and workload.
        let mut lines = String::new();
        for (body, result) in &tracker.results {
            let _ = writeln!(lines, "{body:016x} {result:016x}");
        }
        std::fs::write(hashes_file(ctx, w), lines).map_err(|e| e.to_string())?;
        report
    };
    report.print(w.name());
    Ok(report.correct)
}

/// Runs one `smbench` child (a fresh process, like each run `BENCHMARK.json`
/// names) and parses the result line it prints last.
fn child_run(ctx: &Ctx, w: Workload, args: &Args, trace: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(&ctx.root)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let parsed = parse_report(last).map_err(|e| format!("{}: no result line ({e})", w.name()))?;
    if !out.status.success() && parsed.correct {
        return Err(format!("{}: exited with {}", w.name(), out.status));
    }
    Ok(parsed)
}

fn parse_report(line: &str) -> Result<Report, String> {
    let v = serde::json::parse_document(line).map_err(|e| e.to_string())?;
    let err = |e: serde::de::DeError| e.to_string();
    let metrics = match &v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == "metrics"),
        _ => None,
    };
    let Some((_, Value::Map(metrics))) = metrics else {
        return Err("no metrics object".into());
    };
    let mut report = Report {
        correct: v.field("correct").map_err(err)?,
        attempted: v.field("attempted").map_err(err)?,
        failed: v.field("failed").map_err(err)?,
        metrics: Vec::new(),
    };
    for (name, m) in metrics {
        let unit: String = m.field("unit").map_err(err)?;
        report.push(name.clone(), m.field("value").map_err(err)?, &unit);
    }
    Ok(report)
}

/// Every workload: [`WHOLE_SET_RUNS`] end-to-end runs, then one traced run, each in a
/// child process; then the cross-run result check and `results.json`.
fn whole_set(ctx: &Ctx, args: &Args) -> Result<bool, String> {
    let mut results = String::new();
    let mut answers: HashMap<String, String> = HashMap::new();
    let mut conflicts = 0usize;
    let (mut attempted, mut failed) = (0usize, 0usize);
    for w in Workload::ALL {
        let mut e2e: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
        let (mut w_attempted, mut w_failed) = (0usize, 0usize);
        for _ in 0..WHOLE_SET_RUNS {
            let _ = std::fs::remove_file(hashes_file(ctx, w));
            let r = child_run(ctx, w, args, false)?;
            w_attempted += r.attempted;
            w_failed += r.failed;
            for m in r.metrics {
                e2e.entry(m.name)
                    .or_insert((m.unit, Vec::new()))
                    .1
                    .push(m.value);
            }
            for line in std::fs::read_to_string(hashes_file(ctx, w))
                .unwrap_or_default()
                .lines()
            {
                let (body, result) = line.split_once(' ').unwrap_or((line, ""));
                let known = answers
                    .entry(body.to_string())
                    .or_insert(result.to_string());
                if known != result {
                    conflicts += 1;
                }
            }
        }
        let traced = child_run(ctx, w, args, true)?;
        w_attempted += traced.attempted;
        w_failed += traced.failed;
        attempted += w_attempted;
        failed += w_failed;

        let sep = if results.is_empty() { "" } else { "," };
        let _ = write!(
            results,
            "{sep}\n    \"{}\": {{\"attempted\": {w_attempted}, \"failed\": {w_failed}, \
             \"error_rate\": {}, \"end_to_end\": {{",
            w.name(),
            number(w_failed as f64 / w_attempted.max(1) as f64)
        );
        for (i, (name, (unit, values))) in e2e.iter().enumerate() {
            let (q1, med, q3) = stats::quartiles(values);
            let listed: Vec<String> = values.iter().map(|&v| number(v)).collect();
            let _ = write!(
                results,
                "{}\n      \"{name}\": {{\"unit\": \"{unit}\", \"median\": {}, \"q1\": {}, \
                 \"q3\": {}, \"n\": {}, \"values\": [{}]}}",
                if i == 0 { "" } else { "," },
                number(med),
                number(q1),
                number(q3),
                values.len(),
                listed.join(", ")
            );
        }
        results.push_str("\n    }, \"per_layer\": {");
        for (i, m) in traced.metrics.iter().enumerate() {
            let _ = write!(
                results,
                "{}\n      \"{}\": {{\"unit\": \"{}\", \"value\": {}}}",
                if i == 0 { "" } else { "," },
                m.name,
                m.unit,
                number(m.value)
            );
        }
        results.push_str("\n    }}");
    }
    if conflicts > 0 {
        eprintln!(
            "smbench: failure: {conflicts} request lines got different results in different runs"
        );
    }
    failed += conflicts;

    let mut provenance = String::new();
    for (i, (key, value)) in host::provenance(ctx).iter().enumerate() {
        let quoted = serde::json::to_string(value).expect("string serialization is infallible");
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(provenance, "{sep}\n    \"{key}\": {quoted}");
    }
    let json = format!(
        "{{\n  \"seed\": {},\n  \"runs_per_workload\": {},\n  \"seconds_per_run\": {},\n  \
         \"sizes\": {{\"cold_prime_requests\": {}, \"warm_set_requests\": {}, \
         \"delta_streams\": {}, \"ingest_networks\": {}, \"trace_requests\": {}}},\n  \
         \"provenance\": {{{provenance}\n  }},\n  \"attempted\": {attempted},\n  \
         \"failed\": {failed},\n  \"error_rate\": {},\n  \"cross_run_result_conflicts\": {conflicts},\n  \
         \"workloads\": {{{results}\n  }}\n}}\n",
        args.seed,
        WHOLE_SET_RUNS,
        args.seconds,
        gen::COLD_PRIME,
        gen::WARM_SET,
        gen::DELTA_NETS.len(),
        gen::INGEST_NETS.len(),
        trace::TRACE_REQS,
        number(failed as f64 / attempted.max(1) as f64),
    );
    let path = ctx.out.join("results.json");
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "whole set: {attempted} attempted, {failed} failed; wrote {}",
        path.display()
    );
    Ok(failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_printed_report_parses_back() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: Vec::new(),
        };
        r.push("setup_s", 0.8127, "s");
        r.push("req_per_s", 312.5, "1/s");
        let back = parse_report(&r.json()).unwrap();
        assert_eq!(back.json(), r.json());
    }

    #[test]
    fn flags_parse() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload serve-warm --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::ServeWarm));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--runs 3").is_err());
    }
}
