//! SCALE-Sim-style analytical latency model for systolic arrays (§V-A-3).
//!
//! Following the paper's methodology, performance is assumed to be limited
//! only by operations on the array: the model adds up the time to load
//! values into the array, compute in the MACs, systolically communicate
//! partials, and flush outputs. Off-chip memory is not modelled.
//!
//! Every operator descriptor ([`Op`](fuseconv_nn::ops::Op)) is lowered to a
//! sequence of array folds. [`LatencyModel::lowering`] is the one place
//! this table is implemented; the planner, operand traffic, the analyzer
//! and the traced simulator all read its [`Lowering`]:
//!
//! | operator | lowering | fold shape |
//! |---|---|---|
//! | standard conv | `im2col` GEMM | `M = OH·OW`, `K = k²·C_in`, `N = C_out` |
//! | depthwise conv | per-channel `im2col` GEMM | `M = OH·OW`, `K = k²`, `N = 1` (×C folds — the single-column pathology of §III-B) |
//! | pointwise conv | GEMM | `M = OH·OW`, `K = C_in`, `N = C_out` |
//! | FuSe 1-D bank | row-broadcast dataflow | `#convs = C·out_lines`, `L_out`, `K` |
//! | fully connected | GEMM | `M = 1`, `K = in`, `N = out` |
//!
//! Cycle counts are the planner's fold runs priced in checked arithmetic;
//! they equal [`fuseconv_systolic::Dataflow::analytic_cycles`] and
//! [`fuseconv_systolic::conv1d::analytic_cycles_packed`], which are validated
//! against the cycle-level simulator, so this crate inherits exact
//! agreement with simulation.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use fuseconv_latency::{estimate_network, LatencyModel};
//! use fuseconv_models::zoo;
//! use fuseconv_nn::FuSeVariant;
//! use fuseconv_systolic::ArrayConfig;
//!
//! let model = LatencyModel::new(ArrayConfig::square(64)?.with_broadcast(true));
//! let baseline = estimate_network(&model, &zoo::mobilenet_v1())?;
//! let fused = estimate_network(
//!     &model,
//!     &zoo::mobilenet_v1().transform_all(FuSeVariant::Half),
//! )?;
//! assert!(fused.total_cycles < baseline.total_cycles);
//! # Ok(())
//! # }
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::unwrap_used)]

pub mod audit;
pub mod ir;
pub mod map;
pub mod memory;
pub mod plan;
pub mod report;

pub use audit::{audit_plan, fold_footprint, plan_high_water, FoldFootprint, PlanViolation};
pub use ir::{FoldNode, LiveInterval, PlanIr, ValueClass, ValueDef, ValueId, ValueInfo};
pub use map::{Dataflow, FoldOverlap, LatencyError, LatencyModel};
pub use plan::{AsFoldRuns, FoldRuns, Lowering, Runs};
pub use report::{
    block_speedups, estimate_network, BlockLatency, ClassBreakdown, NetworkLatency, OpLatency,
};
