//! The `figures` workload: regenerating every figure and table, one
//! `all_experiments` + `ext_experiments` pair at a time, as a researcher
//! does.

use std::io::{self, Read};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::host::{print_metric, Ctx, Report, ROUNDS};
use crate::stats::Sample;

/// The binaries of one regeneration, in the order they run.
const BINARIES: [&str; 2] = ["all_experiments", "ext_experiments"];

/// Percentile `latency_tail_ms` reports. A 25-second window holds only
/// 275–430 regenerations, so p99 would rest on three or four samples; p90
/// keeps at least ten beyond it.
const TAIL_PERCENTILE: f64 = 90.0;

/// One regeneration: both binaries, one after the other.
pub struct Regen {
    /// From the first spawn to the second exit.
    pub wall: Duration,
    /// From the first spawn to the first byte `all_experiments` prints.
    pub first_byte: Option<Duration>,
    /// Standard output of each binary.
    pub outputs: Vec<Vec<u8>>,
    /// Both exited 0 and printed something.
    pub ok: bool,
}

pub fn regenerate(ctx: &Ctx, threads: usize) -> io::Result<Regen> {
    let start = Instant::now();
    let mut first_byte = None;
    let mut outputs = Vec::new();
    let mut ok = true;
    for (i, bin) in BINARIES.iter().enumerate() {
        let (out, first, success) = run_bin(&ctx.bin(bin), threads, start)?;
        if i == 0 {
            first_byte = first;
        }
        ok &= success && !out.is_empty();
        outputs.push(out);
    }
    Ok(Regen {
        wall: start.elapsed(),
        first_byte,
        outputs,
        ok,
    })
}

/// Runs `bin --threads <threads>`; returns its stdout, when (since `start`)
/// the first byte of it arrived, and whether it exited 0.
fn run_bin(
    bin: &Path,
    threads: usize,
    start: Instant,
) -> io::Result<(Vec<u8>, Option<Duration>, bool)> {
    let mut child = Command::new(bin)
        .args(["--threads", &threads.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let mut out = Vec::new();
    let mut first = None;
    let mut buf = [0u8; 16 * 1024];
    let read = loop {
        match stdout.read(&mut buf) {
            Ok(0) => break Ok(()),
            Ok(n) => {
                first.get_or_insert_with(|| start.elapsed());
                out.extend_from_slice(&buf[..n]);
            }
            Err(e) => {
                let _ = child.kill();
                break Err(e);
            }
        }
    };
    // Waited for on every path, so no run leaves a process behind.
    let status = child.wait()?;
    read?;
    Ok((out, first, status.success()))
}

/// Body rows of the rendered tables in `out` (lines below a table's
/// dashed rule, up to the next blank line or title).
pub fn table_rows(out: &[u8]) -> usize {
    let text = String::from_utf8_lossy(out);
    let mut in_body = false;
    let mut rows = 0;
    for line in text.lines() {
        if line.trim().is_empty() || line.starts_with("== ") {
            in_body = false;
        } else if line.bytes().all(|b| b == b'-') {
            in_body = true;
        } else if in_body {
            rows += 1;
        }
    }
    rows
}

/// One end-to-end run of [`ROUNDS`] rounds: a `--threads 1` regeneration
/// as set-up (the first is the reference later outputs are compared
/// with), then regenerations at two threads for `seconds / ROUNDS`.
pub fn run(ctx: &Ctx, seconds: u64) -> Result<Report, String> {
    let io_err = |e: io::Error| format!("figures: {e}");
    let slice = Duration::from_secs_f64(seconds as f64 / ROUNDS as f64);
    let mut attempted = 0;
    let mut failed = 0;
    let mut setup_s = Vec::new();
    let mut reference: Option<Vec<Vec<u8>>> = None;
    let mut samples = Vec::new();
    let mut divergent = 0;
    let mut window_s = 0.0;
    for _ in 0..ROUNDS {
        let r = regenerate(ctx, 1).map_err(io_err)?;
        attempted += 1;
        failed += usize::from(!r.ok);
        setup_s.push(r.wall.as_secs_f64());
        let reference = reference.get_or_insert(r.outputs);
        let start = Instant::now();
        while start.elapsed() < slice {
            let r = regenerate(ctx, 2).map_err(io_err)?;
            attempted += 1;
            if !r.ok {
                failed += 1;
                continue;
            }
            divergent += usize::from(r.outputs != *reference);
            samples.push(Sample {
                latency_ms: r.wall.as_secs_f64() * 1e3,
                first_ms: r.first_byte.map(|d| d.as_secs_f64() * 1e3),
                cells: r.outputs.iter().map(|o| table_rows(o)).sum(),
            });
        }
        window_s += start.elapsed().as_secs_f64();
    }
    if divergent > 0 {
        eprintln!(
            "smbench: WARNING: {divergent} of {} regenerations differ from the --threads 1 \
             reference (known GoogLeNet tie-breaking nondeterminism; see benchmark/README.md)",
            samples.len()
        );
    }
    print_metric(
        "figures",
        "figures.divergent_outputs",
        divergent as f64,
        "count",
    );
    Report::end_to_end(
        "figures",
        attempted,
        failed,
        &setup_s,
        window_s,
        &samples,
        TAIL_PERCENTILE,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_table_body_rows() {
        let out = b"== A ==\nh1  h2\n------\na   1\nb   2\n\n== B ==\nh\n-\nc\n";
        assert_eq!(table_rows(out), 3);
    }
}
