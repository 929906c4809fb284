//! Event tracing for the FuSeConv systolic-array simulator.
//!
//! The cycle simulator in `fuseconv-systolic` narrates its execution as a
//! stream of [`TraceEvent`]s delivered to a [`TraceSink`]; this crate owns
//! that vocabulary plus three ready-made sinks:
//!
//! * [`ScaleSimSink`] — SCALE-Sim-compatible SRAM read/write traces
//!   (cycle-stamped CSV, the format of the tool the paper's methodology
//!   builds on, §V-A-3);
//! * [`ChromeTraceSink`] — Chrome trace-event JSON viewable in
//!   `chrome://tracing` / Perfetto, with one track per array row and one
//!   span per fold;
//! * [`UtilizationSink`] — in-memory aggregation: per-cycle busy-PE
//!   counts, a per-PE heatmap (CSV and ASCII render) and per-fold
//!   fill/compute/drain breakdowns.
//!
//! Tracing is strictly opt-in: the simulator's untraced entry points use a
//! [`NullSink`], and expensive per-PE / per-element events are only
//! generated when a sink asks for them via [`TraceSink::wants_pe_fires`] /
//! [`TraceSink::wants_operand_events`].
//!
//! For workloads too large to simulate cycle by cycle, [`FoldSpec`] and
//! [`replay`] regenerate the same event stream from the analytic latency
//! model's per-fold plan, so whole-network traces reuse the sink code
//! unchanged.
//!
//! The crate has no external dependencies by design (its CSV and JSON
//! writers are hand-rolled) and sits below every other workspace crate
//! except `fuseconv-telemetry`, which supplies the run manifest embedded
//! in exported Chrome traces.

#![warn(clippy::print_stdout, clippy::print_stderr)]

mod chrome;
mod event;
mod replay;
mod scalesim;
mod util;
mod utilization;

pub use chrome::ChromeTraceSink;
pub use event::{FoldKind, NullSink, Operand, Phase, TraceEvent, TraceSink, VecSink};
pub use replay::{replay, tag_plan, FoldSpec};
pub use scalesim::{ScaleSimSink, FILTER_BASE, IFMAP_BASE, OFMAP_BASE};
pub use util::pe_utilization;
pub use utilization::{FoldStats, UtilizationSink};
