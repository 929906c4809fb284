//! Umbrella crate for the FuSeConv reproduction.
//!
//! Re-exports every workspace crate under a single name so examples and
//! integration tests can use one dependency. See the individual crates for
//! the substantive APIs:
//!
//! - [`core`] — the FuSeConv operator, network transforms, experiment drivers
//! - [`tensor`] — dense tensors, im2col, reference GEMM
//! - [`ria`] — regular-iterative-algorithm formalism (systolic-ness checks)
//! - [`systolic`] — cycle-level systolic-array simulator
//! - [`nn`] — functional layer library with MAC/param accounting
//! - [`models`] — MobileNet-V1/V2/V3 and MnasNet-B1 architecture tables
//! - [`latency`] — SCALE-Sim-style analytical latency model
//! - [`hwcost`] — structural area/power model for the broadcast dataflow
//! - [`train`] — layer-wise backprop trainer and synthetic dataset
//! - [`trace`] — event tracing: SCALE-Sim CSVs, Chrome timelines, PE heatmaps
//! - [`analyze`] — static dataflow-legality analyzer
//! - [`perf`] — cycle-accounted performance counters and roofline reports
//! - [`telemetry`] — host-side span profiler, metrics registry, run manifests
//! - [`serve`] — discrete-event multi-array serving simulator

#![warn(clippy::print_stdout, clippy::print_stderr)]

pub use fuseconv_analyze as analyze;
pub use fuseconv_core as core;
pub use fuseconv_hwcost as hwcost;
pub use fuseconv_latency as latency;
pub use fuseconv_models as models;
pub use fuseconv_nn as nn;
pub use fuseconv_perf as perf;
pub use fuseconv_ria as ria;
pub use fuseconv_serve as serve;
pub use fuseconv_systolic as systolic;
pub use fuseconv_telemetry as telemetry;
pub use fuseconv_tensor as tensor;
pub use fuseconv_trace as trace;
pub use fuseconv_train as train;
