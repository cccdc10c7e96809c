//! Benchmark harness regenerating every table and figure of the Shortcut
//! Mining evaluation.
//!
//! Each experiment lives in [`experiments`] as a function returning a typed
//! result plus a [`report::Table`] renderer; the two binaries
//! (`all_experiments` for the paper's figures, `ext_experiments` for the
//! extensions) are thin wrappers, so the experiment logic itself is
//! unit-tested. The mapping
//! from paper table/figure to module is recorded in `DESIGN.md`; measured
//! values vs the paper's are recorded in `EXPERIMENTS.md`.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p sm-bench --bin all_experiments
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cas;
pub mod experiments;
pub mod iofault;
pub mod report;
pub mod service;
pub mod sweep;
pub mod timing;

/// Headline numbers pinned by the paper's abstract, used by tests and
/// rendered next to measured values in reports.
pub mod paper {
    /// Off-chip feature-map traffic reduction the abstract reports for
    /// (SqueezeNet, ResNet-34, ResNet-152), as fractions.
    pub const TRAFFIC_REDUCTION: [(&str, f64); 3] = [
        ("squeezenet_v10_simple_bypass", 0.533),
        ("resnet34", 0.58),
        ("resnet152", 0.43),
    ];

    /// Throughput increase over the state-of-the-art baseline.
    pub const THROUGHPUT_GAIN: f64 = 1.93;

    /// Share of feature-map data that is shortcut data ("nearly 40%").
    pub const SHORTCUT_SHARE: f64 = 0.40;
}
