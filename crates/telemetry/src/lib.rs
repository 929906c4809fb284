//! Host-side telemetry for the FuSeConv workspace.
//!
//! Where `fuseconv-trace` makes the *simulated hardware* observable
//! (per-fold events, SCALE-Sim traces), this crate makes the *simulator
//! process* observable. Three pillars:
//!
//! * [`span`](mod@span) — an RAII span profiler: thread-local span stacks,
//!   per-span wall-clock total and child-exclusive self time, exported
//!   as an aggregated text tree ([`SpanTree::to_text`]) or as Chrome
//!   trace-event JSON ([`SpanTree::chrome_trace_json`]) so host spans
//!   can be viewed beside the simulator's fold events;
//! * [`metrics`] — a registry of named counters, gauges and log₂
//!   histograms (`sim.folds_total`, `latency.folds_planned_total`, …)
//!   with a deterministic snapshot API and `fuseconv-metrics-v1` JSON;
//! * [`sketch`] — a log-linear [`QuantileSketch`] with a documented
//!   1/64 relative-error bound, the p99/p999 substrate of the serving
//!   time-series layer (the registry's log₂ histogram is too coarse);
//! * [`manifest`] — run provenance: a [`RunManifest`]
//!   (`fuseconv-manifest-v1`: tool version, config hash, array
//!   dims/dataflow, seed, host triple, timing) embedded into every JSON
//!   artifact the workspace emits;
//! * [`json`] — the one [`Json`] writer all of those artifacts use.
//!
//! A structured stderr [`log`] with a level filter rounds it out,
//! replacing ad-hoc `eprintln!` call sites in binaries.
//!
//! None of this state is process-wide. Spans, metrics, the manifest's
//! run description and the log threshold belong to a [`Telemetry`] run;
//! every thread starts in a fresh run of its own, the free functions act
//! on the calling thread's run, and a scoped worker that reports into
//! its spawner's run joins it explicitly ([`Telemetry::join`]).
//!
//! The crate is dependency-free by design (its own JSON writer) and sits
//! below every other workspace crate, including `fuseconv-trace`. It is
//! also the only crate allowed to call `std::time::Instant::now`
//! (`clippy.toml` disallows it everywhere else): all other host timing
//! goes through [`Stopwatch`] or spans.

#![warn(clippy::print_stdout, clippy::print_stderr)]
#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::disallowed_macros,
    reason = "the one crate that reads the host clock and holds process-wide and per-thread state"
)]

pub mod chrome;
pub mod json;
pub mod log;
pub mod manifest;
pub mod metrics;
pub mod run;
pub mod sketch;
pub mod span;
pub mod time;

pub use json::{Json, Layout};
pub use manifest::{fnv1a64, RunManifest, MANIFEST_SCHEMA};
pub use metrics::{
    counter, gauge, histogram, snapshot as metrics_snapshot, Counter, Gauge, Histogram,
    MetricsSnapshot, METRICS_SCHEMA,
};
pub use run::Telemetry;
pub use sketch::{QuantileSketch, SKETCH_SUBBUCKETS, SKETCH_SUB_BITS};
pub use span::{
    enabled as spans_enabled, set_enabled as set_spans_enabled, snapshot as span_snapshot, span,
    Span, SpanNode, SpanTree,
};
pub use time::{unix_millis, Stopwatch};
