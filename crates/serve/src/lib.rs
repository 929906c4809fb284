//! Deterministic discrete-event serving simulator for pods of
//! heterogeneous systolic arrays.
//!
//! The rest of the workspace models **one** inference on **one** array;
//! this crate takes the same analytic cost oracle
//! ([`fuseconv_latency::LatencyModel`]) and scales it to a *pod*: N
//! arrays of mixed dimensions and dataflows behind a request queue fed
//! by open-loop Poisson-ish traffic. Everything is hand-rolled and
//! zero-dependency in the style of `fuseconv_tensor::rng` — no tokio,
//! no async: `(time, seq)`-keyed events held in the arrival slot plus
//! a short sorted run (a preempted batch's stale completion, told apart
//! by its `seq`, still pops and counts as an event), a vendored xorshift
//! PRNG for arrivals, and `u64` array cycles for the clock — so a fixed
//! seed reproduces a million-request simulation bit for bit.
//!
//! The pieces:
//!
//! * [`spec`] — pod description (`"64x64:os,32x32:ws,8x8"`) parsed into
//!   per-array [`fuseconv_latency::LatencyModel`]s;
//! * [`oracle`] — memoised per-request cost (fold-plan totals, exact
//!   match with the cycle simulator under serial fold accounting) and
//!   LPT sharding of a network's ops across the pod;
//! * [`traffic`] — workload mix plus exponential inter-arrival
//!   sampling from the vendored PRNG;
//! * [`batch`] — pluggable batching policies: FIFO, dynamic batching
//!   with a max-wait, and shape-bucketed batching;
//! * [`engine`] — the event loop itself: dispatch, optional
//!   preemption, SLO accounting;
//! * [`report`] — the schema-pinned `fuseconv-serve-v1` JSON/text
//!   report with embedded run manifest and a `results_fnv1a64`
//!   determinism fingerprint;
//! * [`trace`] — Chrome-trace export with one lane per array (pid 0),
//!   composing with the host-span trace on pid 1;
//! * [`timeseries`] — streaming per-window observability
//!   (`fuseconv-serve-timeseries-v1`): offered/goodput/drops, queue
//!   depth, per-array utilization, latency quantile sketches,
//!   multi-window SLO burn-rate alerts and tail exemplars with exact
//!   per-request phase accounting.

#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod batch;
pub mod engine;
pub mod oracle;
pub mod report;
pub mod spec;
pub mod timeseries;
pub mod trace;
pub mod traffic;

pub use batch::BatchPolicy;
pub use engine::{simulate, simulate_observed, Dispatch, ServeConfig};
pub use oracle::{CostOracle, ShardPlan};
pub use report::ServeReport;
pub use spec::{ArraySpec, PodSpec, ServeError};
pub use timeseries::{TimeSeriesConfig, TimeSeriesReport, TIMESERIES_SCHEMA};
pub use trace::PodTraceSink;
pub use traffic::Workload;
