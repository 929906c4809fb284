//! Host-side telemetry for the FuSeConv workspace.
//!
//! Where `fuseconv-trace` makes the *simulated hardware* observable
//! (per-fold events, SCALE-Sim traces), this crate makes the *simulator
//! process* observable. Three pillars:
//!
//! * [`span`] — an RAII span profiler: thread-local span stacks,
//!   per-span wall-clock total and child-exclusive self time, exported
//!   as an aggregated text tree ([`SpanTree::to_text`]) or as Chrome
//!   trace-event JSON ([`SpanTree::chrome_trace_json`]) so host spans
//!   can be viewed beside the simulator's fold events;
//! * [`metrics`] — a process-wide registry of named counters, gauges
//!   and log₂ histograms (`sim.folds_total`, `latency.folds_planned_total`, …)
//!   with a deterministic snapshot API and `fuseconv-metrics-v1` JSON;
//! * [`sketch`] — a log-linear [`QuantileSketch`] with a documented
//!   1/64 relative-error bound, the p99/p999 substrate of the serving
//!   time-series layer (the registry's log₂ histogram is too coarse);
//! * [`manifest`] — run provenance: a [`RunManifest`]
//!   (`fuseconv-manifest-v1`: tool version, config hash, array
//!   dims/dataflow, seed, host triple, timing) embedded into every JSON
//!   artifact the workspace emits.
//!
//! A structured stderr [`log`] with a process-wide level filter rounds
//! it out, replacing ad-hoc `eprintln!` call sites in binaries.
//!
//! The crate is dependency-free by design (hand-rolled JSON) and sits
//! below every other workspace crate, including `fuseconv-trace`. It is
//! also the only crate allowed to call `std::time::Instant::now`
//! (workspace-lint rule 6): all other host timing goes through
//! [`Stopwatch`] or spans.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod log;
pub mod manifest;
pub mod metrics;
pub mod sketch;
pub mod span;
pub mod time;

pub use manifest::{fnv1a64, json_escape, RunManifest, MANIFEST_SCHEMA};
pub use metrics::{
    counter, gauge, histogram, snapshot as metrics_snapshot, Counter, Gauge, Histogram,
    MetricsSnapshot, METRICS_SCHEMA,
};
pub use sketch::{QuantileSketch, SKETCH_SUBBUCKETS, SKETCH_SUB_BITS};
pub use span::{
    enabled as spans_enabled, set_enabled as set_spans_enabled, snapshot as span_snapshot, span,
    Span, SpanNode, SpanTree,
};
pub use time::{unix_millis, Stopwatch};
