//! Regenerates every table and figure of the evaluation in one run.
//!
//! Usage: `all_experiments [--csv <dir>] [--threads <n>]`
//!
//! Tables are computed concurrently on the worker pool (`--threads`,
//! default all cores) but always printed in figure order — output is
//! byte-identical at any thread count.

use sm_accel::AccelConfig;
use sm_bench::experiments::*;
use sm_bench::report::Table;
use sm_core::parallel;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match parallel::parse_threads_flag(&mut args) {
        Ok(n) => parallel::set_threads(n),
        Err(e) => {
            eprintln!("all_experiments: {e}");
            std::process::exit(2);
        }
    }

    let tables: Vec<Table> = all_tables(AccelConfig::default());
    for t in &tables {
        println!("{}", t.render());
        sm_bench::report::maybe_csv(t);
    }
}
