//! A cycle-level simulator of a 2-D systolic array.
//!
//! Four dataflows are modelled, matching §II-C and §IV-C of the paper:
//!
//! - [`Dataflow`] — the three GEMM dataflows, one fold driver:
//!   **output-stationary** (`A` streams in from the left, `B` from the top,
//!   skewed one cycle per position; each PE accumulates one output, which
//!   drains down the columns), **weight-stationary** (a `B` tile is
//!   preloaded, rows of `A` stream through, partial sums leave at the
//!   bottom row) and **input-stationary** (an `A` tile is preloaded,
//!   columns of `B` stream through, partial sums leave at the right edge).
//!   Work larger than the array is executed in *folds*. The driver derives
//!   each variant's index map from PE `(i, j)` and stream step `s` to
//!   `(m, k, n)`, its preload and its drain; it computes each fold's MACs
//!   in ascending reduction order (so outputs are bit-identical to
//!   [`matmul`](fuseconv_tensor::gemm::matmul)), derives per-cycle busy
//!   counts in closed form (appending them in bulk unless the sink wants
//!   per-cycle events), and generates per-PE and per-operand trace events
//!   only for sinks that ask for them. [`gemm`], [`ws_gemm`] and
//!   [`is_gemm`] are its untraced entry points.
//! - [`conv1d`] — the paper's **row-broadcast** dataflow for FuSeConv,
//!   one simulator: each array row runs the 1-D convolutions of one or
//!   more lines of the same channel (short lines are packed side by side;
//!   one line per row is the paper's mapping). The row's weight taps are
//!   broadcast (one per cycle) over a dedicated link while the preloaded
//!   input slides left one PE per cycle; outputs stay stationary and drain
//!   down the columns like the OS dataflow.
//! - [`legality`] — the RIA space–time mapping of each dataflow, verified
//!   statically.
//!
//! Every simulation returns a [`SimResult`] carrying the functional output
//! (validated against golden models in tests), the exact cycle count, and a
//! per-cycle busy-PE trace from which utilization is computed. The analytic
//! latency model in `fuseconv-latency` is cross-validated against these
//! cycle counts.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use fuseconv_systolic::{ArrayConfig, gemm};
//! use fuseconv_tensor::Tensor;
//!
//! let cfg = ArrayConfig::new(8, 8)?;
//! let a = Tensor::from_fn(&[4, 3], |ix| (ix[0] + ix[1]) as f32)?;
//! let b = Tensor::from_fn(&[3, 5], |ix| (ix[0] * 2 + ix[1]) as f32)?;
//! let sim = gemm::simulate(&cfg, &a, &b)?;
//! let golden = fuseconv_tensor::gemm::matmul(&a, &b)?;
//! assert_eq!(sim.output().as_slice(), golden.as_slice());
//! # Ok(())
//! # }
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::unwrap_used)]

pub mod config;
pub mod conv1d;
pub mod gemm;
pub mod is_gemm;
pub mod legality;
pub mod result;
mod wavefront;
pub mod ws_gemm;

pub use config::{ArrayConfig, ConfigError};
pub use result::SimResult;
pub use wavefront::Dataflow;

use fuseconv_trace::{Phase, TraceEvent, TraceSink};

/// Count one finished simulation in the telemetry run's metrics registry:
/// `sim.runs_total`, `sim.cycles_total` (simulated cycles) and
/// `sim.folds_total`. Every traced simulator entry point calls this
/// just before returning, so the registry's cycle total equals the sum
/// of every returned [`SimResult::cycles`].
fn record_sim_metrics(sim: &SimResult) {
    fuseconv_telemetry::counter("sim.runs_total").inc();
    fuseconv_telemetry::counter("sim.cycles_total").add(sim.cycles());
    fuseconv_telemetry::counter("sim.folds_total").add(sim.folds());
}

/// Records one simulated cycle of `phase` with `busy` PEs firing: narrates
/// it to `sink` and appends it to the busy trace.
fn tick(sink: &mut dyn TraceSink, busy_trace: &mut Vec<u32>, phase: Phase, busy: u32) {
    let cycle = busy_trace.len() as u64;
    sink.on_event(&TraceEvent::Cycle { cycle, phase, busy });
    busy_trace.push(busy);
}
