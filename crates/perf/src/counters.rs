//! Cycle-accountable performance counters.
//!
//! Every simulated cycle is attributed to exactly one category — fill,
//! active compute, compute bubble or drain — with the hard invariant
//!
//! ```text
//! fill + active + bubble + drain == cycles
//! ```
//!
//! enforced structurally (each `Cycle` event increments exactly one
//! category) and re-checked against [`SimResult::cycles`] by the counted
//! simulation wrappers in [`crate::sim`]. The same counters can be built
//! three independent ways:
//!
//! * from a cycle-exact simulation, by handing a [`CounterSink`] to any
//!   `simulate_*_traced` entry point;
//! * from analytic fold replay ([`fuseconv_trace::replay`]) with the same
//!   sink;
//! * directly from the latency model's fold plan via
//!   [`PerfCounters::from_fold_plan`], with no event stream at all.
//!
//! The stall attribution alone ([`StallTotals`]) is also priced straight
//! off a run-length plan, one [`FoldCounters`] per run.
//!
//! All three agree fold by fold for every supported workload — the
//! `perf_accountability` integration test pins that equality.
//!
//! [`SimResult::cycles`]: fuseconv_systolic::SimResult::cycles

use fuseconv_latency::AsFoldRuns;
use fuseconv_trace::{FoldKind, FoldSpec, Phase, TraceEvent, TraceSink};

/// Cycle attribution for one fold.
///
/// `fill + active + bubble + drain` is the fold's total cycle count;
/// `busy_pe_cycles` and `broadcast_ticks` are supplementary work counters
/// at PE·cycle and link-tick granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldCounters {
    /// Provenance tag from the fold's `FoldStart` (op index for network
    /// plans, fold ordinal for raw simulations).
    pub tag: u64,
    /// Dataflow the fold executed under.
    pub kind: FoldKind,
    /// Array rows the fold occupied.
    pub rows_used: u32,
    /// Array columns the fold occupied.
    pub cols_used: u32,
    /// Operand-preload cycles (no PE does useful work).
    pub fill: u64,
    /// Compute cycles in which at least one PE performed a MAC.
    pub active: u64,
    /// Compute cycles in which *no* PE performed a MAC — structural
    /// pipeline bubbles inside the compute window.
    pub bubble: u64,
    /// Output-drain cycles (no PE does useful work).
    pub drain: u64,
    /// PE·cycles of useful work (one MAC each) in the fold.
    pub busy_pe_cycles: u64,
    /// Weight-broadcast link ticks (row-broadcast folds only; one tick per
    /// used row per compute cycle).
    pub broadcast_ticks: u64,
}

impl FoldCounters {
    /// Zeroed counters for a fold that is about to execute.
    pub fn start(tag: u64, kind: FoldKind, rows_used: u32, cols_used: u32) -> FoldCounters {
        FoldCounters {
            tag,
            kind,
            rows_used,
            cols_used,
            fill: 0,
            active: 0,
            bubble: 0,
            drain: 0,
            busy_pe_cycles: 0,
            broadcast_ticks: 0,
        }
    }

    /// Total cycles of the fold — the sum of all four categories.
    pub fn cycles(&self) -> u64 {
        self.fill + self.active + self.bubble + self.drain
    }

    /// Compute-window cycles (`active + bubble`).
    pub fn compute(&self) -> u64 {
        self.active + self.bubble
    }

    fn from_spec(spec: &FoldSpec) -> FoldCounters {
        // Replay spreads a fold's MACs uniformly over its compute window,
        // so a compute cycle is idle exactly when there are fewer MACs
        // than compute cycles: active = min(macs, compute). The cycle
        // simulator agrees because every real fold shape carries at least
        // one MAC per compute cycle.
        let active = spec.macs.min(spec.compute);
        FoldCounters {
            tag: spec.tag,
            kind: spec.kind,
            rows_used: spec.rows_used,
            cols_used: spec.cols_used,
            fill: spec.fill,
            active,
            bubble: spec.compute - active,
            drain: spec.drain,
            busy_pe_cycles: spec.macs,
            broadcast_ticks: if spec.kind == FoldKind::RowBroadcast {
                u64::from(spec.rows_used) * spec.compute
            } else {
                0
            },
        }
    }
}

/// The compute-window totals the stall attribution reads:
/// [`PerfCounters::compute_stall_fraction`] of a whole plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallTotals {
    /// PE·cycles inside the compute window, busy or not.
    pub compute_pe_cycles: u64,
    /// PE·cycles of useful work (MACs performed).
    pub busy_pe_cycles: u64,
}

impl StallTotals {
    /// Prices a plan, as runs or flat, on a `rows × cols` array: each
    /// run's [`FoldCounters`] once, scaled by the run's count with
    /// saturating arithmetic. Equal to the totals of
    /// [`PerfCounters::from_fold_plan`] over the expanded plan.
    pub fn of_plan(plan: &(impl AsFoldRuns + ?Sized), rows: usize, cols: usize) -> StallTotals {
        let (mut compute, mut busy) = (0u64, 0u64);
        for (_, spec, n) in plan.as_fold_runs().runs() {
            let fc = FoldCounters::from_spec(spec);
            compute = compute.saturating_add(fc.compute().saturating_mul(n));
            busy = busy.saturating_add(fc.busy_pe_cycles.saturating_mul(n));
        }
        let pes = u64::try_from(rows.saturating_mul(cols)).unwrap_or(u64::MAX);
        StallTotals {
            compute_pe_cycles: compute.saturating_mul(pes),
            busy_pe_cycles: busy,
        }
    }

    /// Idle PE·cycles inside the compute window.
    pub fn stall_pe_cycles(&self) -> u64 {
        self.compute_pe_cycles.saturating_sub(self.busy_pe_cycles)
    }

    /// `stall_pe_cycles / compute_pe_cycles`, or 0 for an empty plan.
    pub fn fraction(&self) -> f64 {
        if self.compute_pe_cycles == 0 {
            0.0
        } else {
            self.stall_pe_cycles() as f64 / self.compute_pe_cycles as f64
        }
    }
}

/// Aggregated, fully cycle-accounted performance counters for a run
/// (one op, one fold plan, or a whole network).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfCounters {
    rows: usize,
    cols: usize,
    fill: u64,
    active: u64,
    bubble: u64,
    drain: u64,
    busy_pe_cycles: u64,
    broadcast_ticks: u64,
    folds: Vec<FoldCounters>,
}

impl PerfCounters {
    /// Empty counters for a `rows × cols` array.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be nonzero");
        PerfCounters {
            rows,
            cols,
            fill: 0,
            active: 0,
            bubble: 0,
            drain: 0,
            busy_pe_cycles: 0,
            broadcast_ticks: 0,
            folds: Vec::new(),
        }
    }

    /// Derives the counters analytically from a fold plan — no event
    /// stream, no simulation. Identical to what a [`CounterSink`] collects
    /// when [`fuseconv_trace::replay`] drives it with the same specs.
    pub fn from_fold_plan(specs: &[FoldSpec], rows: usize, cols: usize) -> Self {
        let mut out = PerfCounters::new(rows, cols);
        for spec in specs {
            let fc = FoldCounters::from_spec(spec);
            out.fill += fc.fill;
            out.active += fc.active;
            out.bubble += fc.bubble;
            out.drain += fc.drain;
            out.busy_pe_cycles += fc.busy_pe_cycles;
            out.broadcast_ticks += fc.broadcast_ticks;
            out.folds.push(fc);
        }
        out
    }

    /// Total cycles — by the accountability invariant, exactly
    /// `fill() + active() + bubble() + drain()`.
    pub fn cycles(&self) -> u64 {
        self.fill + self.active + self.bubble + self.drain
    }

    /// Array-fill (operand preload) cycles.
    pub fn fill(&self) -> u64 {
        self.fill
    }

    /// Compute cycles with at least one PE doing useful work.
    pub fn active(&self) -> u64 {
        self.active
    }

    /// Compute cycles with no PE doing useful work (structural stall).
    pub fn bubble(&self) -> u64 {
        self.bubble
    }

    /// Output-drain cycles.
    pub fn drain(&self) -> u64 {
        self.drain
    }

    /// Compute-window cycles (`active + bubble`).
    pub fn compute(&self) -> u64 {
        self.active + self.bubble
    }

    /// PE·cycles of useful work (MACs performed).
    pub fn busy_pe_cycles(&self) -> u64 {
        self.busy_pe_cycles
    }

    /// Weight-broadcast link ticks over the whole run.
    pub fn broadcast_ticks(&self) -> u64 {
        self.broadcast_ticks
    }

    /// Array rows the counters were collected for.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Array columns the counters were collected for.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// PEs in the array.
    pub fn pe_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Per-fold counters, in execution order.
    pub fn folds(&self) -> &[FoldCounters] {
        &self.folds
    }

    /// Fraction of PE·cycles doing MACs over the whole run, in `[0, 1]` —
    /// the shared [`fuseconv_trace::pe_utilization`] definition.
    pub fn utilization(&self) -> f64 {
        fuseconv_trace::pe_utilization(self.busy_pe_cycles, self.cycles(), self.pe_count())
    }

    /// PE·cycles inside the compute window, busy or not.
    pub fn compute_pe_cycles(&self) -> u64 {
        self.compute() * self.pe_count() as u64
    }

    /// The compute-window totals of the run.
    pub fn stall_totals(&self) -> StallTotals {
        StallTotals {
            compute_pe_cycles: self.compute_pe_cycles(),
            busy_pe_cycles: self.busy_pe_cycles,
        }
    }

    /// Idle PE·cycles *inside the compute window* — the structural stall
    /// the paper's Fig. 1(d) depthwise pathology is made of (work confined
    /// to one array column leaves the other `W−1` columns stalled).
    pub fn stall_pe_cycles(&self) -> u64 {
        self.stall_totals().stall_pe_cycles()
    }

    /// `stall_pe_cycles / compute_pe_cycles`, or 0 for an empty run.
    pub fn compute_stall_fraction(&self) -> f64 {
        self.stall_totals().fraction()
    }

    /// Verifies the accountability invariants:
    ///
    /// 1. per-fold categories sum to the global categories (every cycle
    ///    belongs to exactly one fold), and
    /// 2. per-fold work counters sum to the global work counters.
    ///
    /// The categories-sum-to-cycles invariant holds by construction
    /// (each cycle increments exactly one category); use
    /// [`Self::verify_total`] to check against an external cycle count.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant.
    pub fn check(&self) -> Result<(), String> {
        let sum = |f: fn(&FoldCounters) -> u64| self.folds.iter().map(f).sum::<u64>();
        let checks: [(&str, u64, u64); 6] = [
            ("fill", sum(|f| f.fill), self.fill),
            ("active", sum(|f| f.active), self.active),
            ("bubble", sum(|f| f.bubble), self.bubble),
            ("drain", sum(|f| f.drain), self.drain),
            (
                "busy_pe_cycles",
                sum(|f| f.busy_pe_cycles),
                self.busy_pe_cycles,
            ),
            (
                "broadcast_ticks",
                sum(|f| f.broadcast_ticks),
                self.broadcast_ticks,
            ),
        ];
        for (name, fold_sum, global) in checks {
            if fold_sum != global {
                return Err(format!(
                    "accountability violation: per-fold {name} sums to {fold_sum} \
                     but the global counter is {global}"
                ));
            }
        }
        Ok(())
    }

    /// Verifies full cycle accountability against an externally known
    /// total (e.g. [`SimResult::cycles`]): the four categories must sum to
    /// exactly `expected`.
    ///
    /// # Errors
    ///
    /// A description of the mismatch.
    ///
    /// [`SimResult::cycles`]: fuseconv_systolic::SimResult::cycles
    pub fn verify_total(&self, expected: u64) -> Result<(), String> {
        self.check()?;
        let got = self.cycles();
        if got != expected {
            return Err(format!(
                "cycle accountability violation: fill {} + active {} + bubble {} + \
                 drain {} = {got}, but the run took {expected} cycles",
                self.fill, self.active, self.bubble, self.drain
            ));
        }
        Ok(())
    }

    /// Merges counters from a run that executed after this one: categories
    /// add, folds concatenate.
    ///
    /// # Panics
    ///
    /// Panics if the array shapes differ.
    #[must_use]
    pub fn then(mut self, next: PerfCounters) -> PerfCounters {
        assert_eq!(
            (self.rows, self.cols),
            (next.rows, next.cols),
            "cannot merge counters from different array shapes"
        );
        self.fill += next.fill;
        self.active += next.active;
        self.bubble += next.bubble;
        self.drain += next.drain;
        self.busy_pe_cycles += next.busy_pe_cycles;
        self.broadcast_ticks += next.broadcast_ticks;
        self.folds.extend(next.folds);
        self
    }
}

/// A [`TraceSink`] that aggregates a [`PerfCounters`] from any trace event
/// stream — a cycle-exact simulation or an analytic replay.
///
/// Subscribes to broadcast ticks only, not to per-PE fires or per-element
/// operand events (the expensive part of a trace); the per-PE view is
/// [`fuseconv_trace::UtilizationSink`]'s.
#[derive(Debug, Clone)]
pub struct CounterSink {
    counters: PerfCounters,
}

impl CounterSink {
    /// A sink for a `rows × cols` array.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        CounterSink {
            counters: PerfCounters::new(rows, cols),
        }
    }

    /// The counters collected so far.
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// Consumes the sink, returning the collected counters.
    pub fn into_counters(self) -> PerfCounters {
        self.counters
    }
}

impl TraceSink for CounterSink {
    fn on_event(&mut self, event: &TraceEvent) {
        let c = &mut self.counters;
        match *event {
            TraceEvent::FoldStart {
                tag,
                kind,
                rows_used,
                cols_used,
                ..
            } => c
                .folds
                .push(FoldCounters::start(tag, kind, rows_used, cols_used)),
            TraceEvent::Cycle { phase, busy, .. } => {
                let busy = u64::from(busy);
                let fold = c.folds.last_mut();
                match (phase, busy > 0) {
                    (Phase::Fill, _) => {
                        c.fill += 1;
                        if let Some(f) = fold {
                            f.fill += 1;
                        }
                    }
                    (Phase::Compute, true) => {
                        c.active += 1;
                        c.busy_pe_cycles += busy;
                        if let Some(f) = fold {
                            f.active += 1;
                            f.busy_pe_cycles += busy;
                        }
                    }
                    (Phase::Compute, false) => {
                        c.bubble += 1;
                        if let Some(f) = fold {
                            f.bubble += 1;
                        }
                    }
                    (Phase::Drain, _) => {
                        c.drain += 1;
                        if let Some(f) = fold {
                            f.drain += 1;
                        }
                    }
                }
            }
            TraceEvent::WeightBroadcast { .. } => {
                c.broadcast_ticks += 1;
                if let Some(f) = c.folds.last_mut() {
                    f.broadcast_ticks += 1;
                }
            }
            _ => {}
        }
    }

    fn wants_broadcast_events(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: FoldKind, fill: u64, compute: u64, drain: u64, macs: u64) -> FoldSpec {
        FoldSpec {
            tag: 7,
            kind,
            rows_used: 3,
            cols_used: 4,
            fill,
            compute,
            drain,
            macs,
        }
    }

    #[test]
    fn plan_counters_attribute_every_cycle() {
        let specs = [
            spec(FoldKind::OutputStationary, 0, 10, 3, 120),
            spec(FoldKind::WeightStationary, 3, 8, 0, 96),
        ];
        let c = PerfCounters::from_fold_plan(&specs, 8, 8);
        assert_eq!(c.cycles(), 13 + 11);
        assert_eq!(c.fill(), 3);
        assert_eq!(c.active(), 18);
        assert_eq!(c.bubble(), 0);
        assert_eq!(c.drain(), 3);
        assert_eq!(c.busy_pe_cycles(), 216);
        c.verify_total(24).unwrap();
        assert!(c.verify_total(25).is_err());
    }

    #[test]
    fn starved_fold_shows_bubbles() {
        // 4 MACs over 10 compute cycles: 4 active, 6 bubbles.
        let c =
            PerfCounters::from_fold_plan(&[spec(FoldKind::OutputStationary, 0, 10, 0, 4)], 4, 4);
        assert_eq!(c.active(), 4);
        assert_eq!(c.bubble(), 6);
        assert_eq!(c.cycles(), 10);
        // 16 PEs × 10 compute cycles, 4 of them busy.
        assert_eq!(c.stall_pe_cycles(), 156);
        assert!((c.compute_stall_fraction() - 156.0 / 160.0).abs() < 1e-12);
    }

    #[test]
    fn broadcast_ticks_follow_rows_and_compute() {
        let c = PerfCounters::from_fold_plan(&[spec(FoldKind::RowBroadcast, 5, 3, 3, 36)], 8, 8);
        // 3 rows_used × 3 compute cycles.
        assert_eq!(c.broadcast_ticks(), 9);
        let gemm =
            PerfCounters::from_fold_plan(&[spec(FoldKind::OutputStationary, 0, 3, 3, 36)], 8, 8);
        assert_eq!(gemm.broadcast_ticks(), 0);
    }

    #[test]
    fn sink_and_plan_agree_under_replay() {
        let specs = [
            spec(FoldKind::RowBroadcast, 5, 3, 3, 36),
            spec(FoldKind::OutputStationary, 0, 9, 3, 5),
        ];
        let mut sink = CounterSink::new(8, 8);
        let total = fuseconv_trace::replay(&specs, &mut sink);
        let replayed = sink.into_counters();
        replayed.verify_total(total).unwrap();
        let analytic = PerfCounters::from_fold_plan(&specs, 8, 8);
        assert_eq!(replayed, analytic);
    }

    #[test]
    fn then_merges_categories_and_folds() {
        let a =
            PerfCounters::from_fold_plan(&[spec(FoldKind::OutputStationary, 0, 10, 3, 120)], 8, 8);
        let b =
            PerfCounters::from_fold_plan(&[spec(FoldKind::WeightStationary, 3, 8, 0, 96)], 8, 8);
        let merged = a.then(b);
        assert_eq!(merged.cycles(), 24);
        assert_eq!(merged.folds().len(), 2);
        merged.check().unwrap();
    }

    #[test]
    #[should_panic(expected = "different array shapes")]
    fn then_rejects_shape_mismatch() {
        let a = PerfCounters::new(4, 4);
        let b = PerfCounters::new(8, 8);
        let _ = a.then(b);
    }
}
