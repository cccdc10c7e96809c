//! Tile-based DCNN accelerator substrate.
//!
//! This crate models the class of accelerator the paper builds on (and its
//! baseline compares against): a 2-D MAC array fed by on-chip feature-map and
//! weight buffers, processing a network layer by layer in tiles.
//!
//! * [`AccelConfig`] — the hardware parameters: PE array geometry, clock,
//!   datatype width, on-chip SRAM plan and the two DRAM channels of the
//!   modeled FPGA board (feature maps and weights stream independently, as on
//!   the dual-SODIMM Virtex-7 platform of the paper's prototype).
//! * [`tiling`] — per-layer tiling design-space exploration: output tiles
//!   sized to the buffers, and the loop-order choice (input-stationary vs
//!   weight-stationary) that minimizes DRAM traffic.
//! * [`cycles`] — the double-buffered cycle model: per layer,
//!   `max(compute, fm-DRAM, weight-DRAM)` plus a fixed pipeline overhead.
//! * [`run`] — the simulator core every architecture shares: one per-layer
//!   cost model ([`run::layer_work`]) and one roll-up of per-layer traffic
//!   into the ledger, cycles and reports ([`run::RunBuilder`]).
//! * [`BaselineAccelerator`] — the conventional fixed-buffer accelerator:
//!   every layer reads its inputs from DRAM and writes its output back, with
//!   shortcut operands re-read at junctions. This is the comparison point
//!   for Shortcut Mining (implemented in `sm-core`).
//! * [`FusedLayerAccelerator`] — the related-work alternative: line-buffer
//!   layer fusion reuses adjacent feature maps but cannot retain shortcut
//!   data across a fork.
//! * [`functional`] — a tiled functional convolution that executes the exact
//!   tile schedule the cycle model assumes, verified against the golden
//!   reference in `sm-tensor`.
//! * [`pipeline`] — an event-driven tile-pipeline simulation that validates
//!   the analytic `max(...)` model against explicit double-buffered
//!   execution.
//!
//! # Example
//!
//! ```
//! use sm_accel::{AccelConfig, BaselineAccelerator};
//! use sm_model::zoo;
//!
//! let net = zoo::resnet34(1);
//! let stats = BaselineAccelerator::new(AccelConfig::default()).simulate(&net);
//! assert!(stats.fm_traffic_bytes() > 0);
//! assert!(stats.total_cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod config;
mod error;
mod fused;
mod perf;
mod stats;

pub mod addrgen;
pub mod cycles;
pub mod functional;
pub mod pipeline;
pub mod run;
pub mod tiling;

pub use baseline::BaselineAccelerator;
pub use config::{AccelConfig, SramPlan};
pub use error::AccelError;
pub use fused::FusedLayerAccelerator;
pub use perf::LayerPerfSummary;
pub use stats::{FaultStats, LayerReport, Plane, PlaneCounters, RunStats};
