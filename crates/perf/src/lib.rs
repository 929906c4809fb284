//! Cycle-accounted performance counters for the FuSeConv simulators.
//!
//! The paper's argument is a utilization argument: im2col'd depthwise
//! convolution strands a `W×W` systolic array at ~`1/W` column occupancy,
//! while FuSeConv's row-broadcast 1-D convolutions fill both dimensions
//! (§III-B, Fig. 1). This crate makes that argument *auditable*: every
//! simulated cycle is attributed to exactly one category —
//!
//! * **fill** — operand preload, no PE does useful work;
//! * **active** — compute cycles in which at least one PE fires a MAC;
//! * **bubble** — compute cycles in which no PE fires (structural stall);
//! * **drain** — results streaming out of the array;
//!
//! with the hard invariant `fill + active + bubble + drain == cycles`
//! enforced in debug builds against [`SimResult::cycles`]. Supplementary
//! work counters — busy PE·cycles (one MAC each), idle-during-compute
//! stall PE·cycles, and weight-broadcast link ticks — attribute activity
//! below cycle granularity, per fold.
//!
//! The same [`PerfCounters`] can be produced three independent ways and
//! cross-checked:
//!
//! 1. cycle-exact simulation through a [`CounterSink`]
//!    ([`counted`] around any traced simulator, and
//!    [`simulate_op_counted`]);
//! 2. analytic fold replay ([`replay_counted`]);
//! 3. the latency model's fold plan in closed form ([`plan_counters`],
//!    [`PerfCounters::from_fold_plan`]).
//!
//! [`network_perf_report`] aggregates the analytic counters over a whole
//! network and combines them with the MEM-rule traffic model into a
//! roofline/efficiency report (text and JSON, `fuseconv perf` in the CLI).
//!
//! [`SimResult::cycles`]: fuseconv_systolic::SimResult::cycles

#![warn(clippy::print_stdout, clippy::print_stderr)]

mod counters;
mod report;
mod sim;

pub use counters::{CounterSink, FoldCounters, PerfCounters, StallTotals};
pub use report::{network_perf_report, OpPerf, PerfReport};
pub use sim::{counted, plan_counters, replay_counted, simulate_op_counted};
