//! Where the benchmark finds the program and keeps its files, what it
//! reads about the host, and the report every run prints.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::stats::{median, percentile, Sample};

/// Rounds of one end-to-end run: each is a set-up (one `setup_s` sample)
/// followed by a timed slice of the run's window. `setup_s` is the median
/// of the rounds' set-ups.
pub const ROUNDS: usize = 7;

/// Paths of one benchmark run. Everything the run writes lives under
/// `out`, inside the checkout.
pub struct Ctx {
    /// The checkout root (the working directory of the run).
    pub root: PathBuf,
    /// Where cargo put the release binaries.
    bin_dir: PathBuf,
    /// `benchmark/out`.
    pub out: PathBuf,
}

impl Ctx {
    /// Resolves the paths under `root` with `CARGO_TARGET_DIR` (relative to
    /// `root`; default `target`), and checks the binaries the run drives
    /// exist.
    pub fn at(root: PathBuf) -> Result<Ctx, String> {
        if !root.join("Cargo.toml").is_file() || !root.join("crates").is_dir() {
            return Err(format!(
                "{} is not the repository root (no Cargo.toml and crates/)",
                root.display()
            ));
        }
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target"));
        let ctx = Ctx {
            bin_dir: root.join(target).join("release"),
            out: root.join("benchmark").join("out"),
            root,
        };
        for bin in ["smctl", "all_experiments", "ext_experiments"] {
            if !ctx.bin(bin).is_file() {
                return Err(format!(
                    "{} is missing; build with benchmark/run.sh",
                    ctx.bin(bin).display()
                ));
            }
        }
        std::fs::create_dir_all(ctx.out.join("tmp"))
            .map_err(|e| format!("cannot create {}: {e}", ctx.out.display()))?;
        Ok(ctx)
    }

    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }

    /// A result-store directory private to this process.
    pub fn store(&self, tag: &str) -> PathBuf {
        self.out
            .join("tmp")
            .join(format!("smbench-{}-{tag}", std::process::id()))
    }

    /// Deletes stores left by earlier runs, then flushes the deletes to
    /// disk. A cold run that starts while the file system still writes back
    /// the removal of a large store runs up to twice as long, so this runs
    /// before anything is timed and is not part of set-up time.
    pub fn sweep_stores(&self) {
        if let Ok(entries) = std::fs::read_dir(self.out.join("tmp")) {
            for e in entries.filter_map(Result::ok) {
                if e.file_name().to_string_lossy().starts_with("smbench-") {
                    let _ = std::fs::remove_dir_all(e.path());
                }
            }
        }
        sync();
    }
}

/// Flushes dirty pages to disk (`sync`), waiting for it to finish.
pub fn sync() {
    let _ = Command::new("sync").status();
}

/// Peak resident set size, in MB, of the largest child process this
/// process has waited for. Each benchmark run is its own process, so this
/// is the peak of the program the run measured.
pub fn children_peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
    // which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of 64-bit Linux, which `getrusage` fills and does not
    // retain.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.maxrss as f64 * 1024.0 / 1e6
}

/// One named metric of a run.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What one run prints: its metrics, then the one-line JSON result.
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        });
    }

    /// The end-to-end metrics of a run from its set-up times and the
    /// samples of its timed window of `window_s` seconds; `latency_tail_ms`
    /// is the `tail`-th percentile. A run with failures reports 0 for its
    /// latencies, which mean nothing then.
    pub fn end_to_end(
        workload: &str,
        attempted: usize,
        failed: usize,
        setup_s: &[f64],
        window_s: f64,
        samples: &[Sample],
        tail: f64,
    ) -> Result<Report, String> {
        let mut report = Report {
            correct: failed == 0,
            attempted,
            failed,
            metrics: Vec::new(),
        };
        let rate = |n: usize| {
            if window_s > 0.0 {
                n as f64 / window_s
            } else {
                0.0
            }
        };
        let pct = |v: &[f64], p: f64| {
            if failed > 0 {
                return Ok(0.0);
            }
            percentile(v, p).ok_or_else(|| {
                format!(
                    "{workload}: {} samples cannot support p{p}; run longer",
                    v.len()
                )
            })
        };
        // The count the latency percentiles rest on; printed, not reported.
        print_metric(workload, "latency_samples", samples.len() as f64, "count");
        let latency: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        let first: Vec<f64> = samples.iter().filter_map(|s| s.first_ms).collect();
        report.push("setup_s", median(setup_s), "s");
        report.push("req_per_s", rate(samples.len()), "1/s");
        report.push(
            "cells_per_s",
            rate(samples.iter().map(|s| s.cells).sum()),
            "1/s",
        );
        report.push("latency_p50_ms", pct(&latency, 50.0)?, "ms");
        report.push("latency_tail_ms", pct(&latency, tail)?, "ms");
        report.push("ttfc_p50_ms", pct(&first, 50.0)?, "ms");
        report.push("peak_rss_mb", children_peak_rss_mb(), "MB");
        Ok(report)
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                metrics,
                "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    /// Prints one `name value unit` line per metric, then the result line.
    pub fn print(&self, workload: &str) {
        for m in &self.metrics {
            print_metric(workload, &m.name, m.value, &m.unit);
        }
        println!("{}", self.json());
    }
}

/// Prints one human-readable `workload name value unit` line.
pub fn print_metric(workload: &str, name: &str, value: f64, unit: &str) {
    println!("{workload:<13} {name:<40} {:>20} {unit}", number(value));
}

/// A JSON number with every digit measured; a non-finite value (which
/// JSON cannot hold) becomes 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Facts about the host and build that a reader needs to compare numbers.
pub fn provenance(ctx: &Ctx) -> Vec<(&'static str, String)> {
    let cmd = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .current_dir(&ctx.root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let git_rev = if ctx.root.join(".git").exists() {
        cmd("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".to_string()
    };
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map(|n| n.to_string())
                .unwrap_or_else(|_| "unknown".into()),
        ),
        ("cpu_model", cpu),
        ("rustc", cmd("rustc", &["-V"])),
        (
            "build_profile",
            "release (opt-level 3, debug = true)".into(),
        ),
        ("git_rev", git_rev),
        ("store_fs_type", fs_type(&ctx.out.join("tmp"))),
    ]
}

/// File-system type of the mount holding `path`, from `/proc/mounts`.
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, dir, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(dir).then(|| (dir.len(), ty.to_string()))
        })
        .max()
        .map(|(_, ty)| ty)
        .unwrap_or_else(|| "unknown".to_string())
}
