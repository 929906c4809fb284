//! Streaming time-series observability for pod simulations (schema
//! `fuseconv-serve-timeseries-v1`).
//!
//! The serve report is an end-of-run aggregate; this module makes the
//! *trajectory* observable while staying O(1) per request. The engine
//! ticks its `TimeSeriesRecorder` with its event clock and queue depth;
//! arrivals, drops, completions and busy cycles the recorder reads from
//! the engine's own accumulators whenever the clock leaves a window. It
//! bins everything into fixed simulated-cycle windows:
//!
//! * offered vs completed vs dropped requests per window;
//! * queue depth min / time-weighted mean / max;
//! * per-array busy fraction;
//! * per-network completions and SLO attainment;
//! * a [`QuantileSketch`] of completion latency (p50/p99/p999 within
//!   the sketch's documented 1/64 relative-error bound).
//!
//! On top of the windows sit **multi-window SLO burn-rate alerts** (a
//! fast/slow window pair must both burn error budget faster than
//! `burn_threshold` before an alert fires, the classic page-level
//! multi-window rule) and **tail exemplars**: the K worst requests keep
//! their full phase breakdown — batch-form wait plus queue wait plus
//! compute plus preemption refill, which the engine debug-asserts sums
//! to end-to-end latency for *every* request — so the report can say
//! where p999 time went instead of just how big it was.
//!
//! The JSON artifact embeds the run manifest and carries a
//! `results_fnv1a64` determinism fingerprint like the serve report; the
//! text rendering draws per-window sparklines; and
//! [`TimeSeriesReport::append_counters`] adds goodput / per-array
//! utilization counter tracks to a [`PodTraceSink`], composing with the
//! pid-0 pod lanes and pid-1 host spans in one Perfetto view.

use crate::report::LatencyStats;
use crate::spec::ServeError;
use crate::trace::PodTraceSink;
use fuseconv_telemetry::{Json, Layout, QuantileSketch, RunManifest};
use std::fmt::Write as _;

/// Schema tag of the time-series artifact.
pub const TIMESERIES_SCHEMA: &str = "fuseconv-serve-timeseries-v1";

/// SLO attainment objective the burn rate is measured against;
/// `1 − OBJECTIVE` is the error budget (1 %).
const OBJECTIVE: f64 = 0.99;
/// Fast span of the multi-window burn-rate rule, in windows.
const FAST_WINDOWS: usize = 1;
/// Slow span of the multi-window burn-rate rule, in windows.
const SLOW_WINDOWS: usize = 8;
/// Burn-rate threshold: an alert needs both spans to consume error
/// budget at ≥ this multiple of the sustainable rate.
const BURN_THRESHOLD: f64 = 10.0;

/// Configuration of the time-series layer. Windows are sized so the
/// run's *expected* makespan spans [`Self::target_windows`] of them
/// (overload runs simply grow more windows); alerts use a 99 % SLO
/// objective and a 1-window / 8-window pair at 10× burn.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesConfig {
    /// Window count the automatic width aims for.
    pub target_windows: usize,
    /// How many worst-latency requests keep their phase breakdown.
    pub exemplars: usize,
}

impl TimeSeriesConfig {
    /// Defaults: 64 windows and 8 tail exemplars.
    pub fn new() -> Self {
        TimeSeriesConfig {
            target_windows: 64,
            exemplars: 8,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for a zero window count.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.target_windows == 0 {
            return Err(ServeError::Config(
                "timeseries target_windows must be at least 1".to_string(),
            ));
        }
        Ok(())
    }
}

impl Default for TimeSeriesConfig {
    fn default() -> Self {
        TimeSeriesConfig::new()
    }
}

/// One completed request with its full phase breakdown; the K worst by
/// latency survive into the report as tail exemplars. The engine
/// guarantees `form_wait + queue_wait + compute + refill == latency`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Monotone request id (arrival order).
    pub id: u64,
    /// Index into the workload's network list.
    pub net: usize,
    /// Whether the request rode the high-priority lane.
    pub high_priority: bool,
    /// Arrival time, cycles.
    pub arrived: u64,
    /// Completion time, cycles.
    pub completed_at: u64,
    /// End-to-end latency, cycles.
    pub latency: u64,
    /// Cycles waiting for later co-batched arrivals (batch formation).
    pub form_wait: u64,
    /// Cycles the formed batch waited off-array (dispatch + resume).
    pub queue_wait: u64,
    /// Cycles executing on an array, refill excluded.
    pub compute: u64,
    /// Preemption pipeline-refill cycles replayed on-array.
    pub refill: u64,
}

/// One fixed-width window of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// Window index (start cycle = `index × window_cycles`).
    pub index: u64,
    /// Requests offered (arrivals) in the window.
    pub offered: u64,
    /// Requests completed in the window.
    pub completed: u64,
    /// Requests dropped at admission in the window.
    pub dropped: u64,
    /// Completions that met their network's SLO.
    pub slo_met: u64,
    /// Minimum queue depth observed over the window.
    pub queue_min: u64,
    /// Time-weighted mean queue depth over the window.
    pub queue_mean: f64,
    /// Maximum queue depth observed over the window.
    pub queue_max: u64,
    /// Median completion latency in the window (sketch estimate).
    pub p50: u64,
    /// 99th-percentile completion latency (sketch estimate).
    pub p99: u64,
    /// 99.9th-percentile completion latency (sketch estimate).
    pub p999: u64,
}

/// One burn-rate alert episode: a maximal run of consecutive windows
/// in which both the fast and the slow span burned error budget at
/// ≥ `burn_threshold` times the sustainable rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnAlert {
    /// First alerting window.
    pub start_window: u64,
    /// Last alerting window (inclusive).
    pub end_window: u64,
    /// Worst fast-span SLO miss fraction during the episode.
    pub peak_fast_miss_rate: f64,
    /// `peak_fast_miss_rate / (1 − objective)` — how many times faster
    /// than sustainable the error budget burned at the peak.
    pub peak_burn_rate: f64,
}

/// Aggregate latency-sketch summary over the whole run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchSummary {
    /// Completions recorded.
    pub count: u64,
    /// Mean latency, cycles.
    pub mean: f64,
    /// Smallest latency, cycles (exact).
    pub min: u64,
    /// Median latency (sketch estimate).
    pub p50: u64,
    /// 99th percentile (sketch estimate).
    pub p99: u64,
    /// 99.9th percentile (sketch estimate).
    pub p999: u64,
    /// Largest latency, cycles (exact).
    pub max: u64,
}

/// Scalar accumulators of one window while the simulation runs; the
/// per-array and per-network counters live in the recorder's flat
/// window-major tables.
#[derive(Debug, Clone, Copy)]
struct WindowAcc {
    offered: u64,
    completed: u64,
    dropped: u64,
    slo_met: u64,
    depth_min: u64,
    depth_max: u64,
    depth_area: u128,
    p50: u64,
    p99: u64,
    p999: u64,
}

impl WindowAcc {
    const EMPTY: WindowAcc = WindowAcc {
        offered: 0,
        completed: 0,
        dropped: 0,
        slo_met: 0,
        depth_min: u64::MAX,
        depth_max: 0,
        depth_area: 0,
        p50: 0,
        p99: 0,
        p999: 0,
    };
}

/// A stream's monotone window cursor: the window it writes to and
/// that window's first and last cycle. The last cycle is inclusive so
/// the final window of the `u64` clock needs no bound past
/// `u64::MAX`; moving the cursor is one division, and staying put is
/// one compare.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    win: usize,
    first: u64,
    last: u64,
}

impl Cursor {
    fn new(window: u64) -> Self {
        Cursor {
            win: 0,
            first: 0,
            last: window - 1,
        }
    }

    /// Points the cursor at the window holding cycle `t`.
    fn seek(&mut self, t: u64, window: u64) {
        let win = t / window;
        self.win = win as usize;
        self.first = win * window;
        self.last = self.first.saturating_add(window - 1);
    }
}

/// The engine's running tallies at one instant, lent to the recorder
/// when its event clock leaves a window, and at the end of the run.
pub(crate) struct Tallies<'a> {
    /// Arrivals so far.
    pub(crate) offered: u64,
    /// Arrivals dropped at admission so far.
    pub(crate) dropped: u64,
    /// Every completion's latency so far, in completion order.
    pub(crate) latencies: &'a [u64],
    /// Completions so far per network.
    pub(crate) net_completed: &'a [u64],
    /// SLO-met completions so far per network.
    pub(crate) net_slo_met: &'a [u64],
    /// Queue-depth integral (depth × cycles) up to the last tick.
    pub(crate) depth_area: u128,
    /// Busy cycles per array.
    pub(crate) busy: &'a [BusyTally],
}

/// One array's busy cycles as the engine books them: each busy segment
/// counts in full from its launch, and `until` is where the latest one
/// ends (a preemption cuts it short). An array runs its segments one
/// after another, so the cycles busy before any `t` from the latest
/// segment's start on are the total minus what lies past `t`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BusyTally {
    /// Cycles of every segment booked so far.
    pub(crate) cycles: u64,
    /// End of the latest segment.
    until: u64,
}

impl BusyTally {
    /// Books a segment over `[from, to)`; `from` is at or after the end
    /// of every earlier one.
    pub(crate) fn book(&mut self, from: u64, to: u64) {
        self.cycles += to - from;
        self.until = to;
    }

    /// Ends the latest segment early, at `at`.
    pub(crate) fn cut(&mut self, at: u64) {
        self.cycles -= self.until - at;
        self.until = at;
    }

    /// Busy cycles before `t`, for `t` at or after the latest
    /// segment's start.
    fn before(&self, t: u64) -> u64 {
        self.cycles - self.until.saturating_sub(t)
    }
}

/// Streaming recorder the engine feeds. The engine reports each step
/// of its event clock with the queue depth held over it, and each
/// completion's exemplar candidacy; each costs a compare or two, and
/// only a window boundary does real work.
///
/// Arrivals, drops, completions and busy cycles cost the recorder
/// nothing per request: the engine already tallies them (every latency,
/// per-network completion and SLO counts, per-array [`BusyTally`]s),
/// and events pop in time order, so when the event clock leaves a
/// window every tally change since the window opened belongs to it. A
/// busy segment may outlast its window; the tally also tells the busy
/// cycles before each boundary the clock crosses. The recorder
/// remembers the tallies at each window's start and closes the window
/// from the differences. The window's slice of latencies goes through
/// one hot [`QuantileSketch`] (~30 KiB; one per window would wreck
/// cache locality), read and emptied in one pass. The whole-run summary
/// reports the sketch bucket ceilings of the engine's exact
/// percentiles, which is what a sketch of every completion would
/// report.
#[derive(Debug)]
pub(crate) struct TimeSeriesRecorder {
    cfg: TimeSeriesConfig,
    window: u64,
    n_arrays: usize,
    n_nets: usize,
    windows: Vec<WindowAcc>,
    /// Busy cycles, `window * n_arrays + array`.
    busy: Vec<u64>,
    /// Completions per network, `window * n_nets + net`.
    net_completed: Vec<u64>,
    /// SLO-met completions per network, `window * n_nets + net`.
    net_slo_met: Vec<u64>,
    /// Window of the event clock, and the engine's tallies when it
    /// opened: arrival counts, the index of its first completion in
    /// the latency list, and per-network counts.
    clock: Cursor,
    /// The last cycle a tick can reach without leaving the clock's or
    /// the depth cursor's window.
    quiet_until: u64,
    offered_base: u64,
    dropped_base: u64,
    done_first: usize,
    net_completed_base: Vec<u64>,
    net_slo_met_base: Vec<u64>,
    /// Latency sketch the closing window is read through.
    cur: QuantileSketch,
    /// Smallest latency of the windows closed so far.
    min: u64,
    exemplars: Vec<Exemplar>,
    /// `(latency, id)` a completion must beat to enter the exemplar
    /// set, `None` while the set has room: the keep/discard decision
    /// is one comparison.
    floor: Option<(u64, u64)>,
    /// Per-array busy cycles before the clock window's start.
    busy_base: Vec<u64>,
    /// Window the queue-depth intervals have advanced into; they tile
    /// `[0, makespan]` in order.
    depth: Cursor,
    /// Queue-depth scratch for `depth`: the engine's integral where the
    /// window opened, and the depth extremes seen in it.
    depth_base: u128,
    d_min: u64,
    d_max: u64,
}

impl TimeSeriesRecorder {
    /// A recorder of `window`-cycle windows (at least 1).
    pub(crate) fn new(cfg: &TimeSeriesConfig, window: u64, n_arrays: usize, n_nets: usize) -> Self {
        TimeSeriesRecorder {
            cfg: cfg.clone(),
            window,
            n_arrays,
            n_nets,
            windows: Vec::new(),
            busy: Vec::new(),
            net_completed: Vec::new(),
            net_slo_met: Vec::new(),
            clock: Cursor::new(window),
            quiet_until: window - 1,
            offered_base: 0,
            dropped_base: 0,
            done_first: 0,
            net_completed_base: vec![0; n_nets],
            net_slo_met_base: vec![0; n_nets],
            cur: QuantileSketch::new(),
            min: u64::MAX,
            exemplars: Vec::new(),
            floor: (cfg.exemplars == 0).then_some((u64::MAX, 0)),
            busy_base: vec![0; n_arrays],
            depth: Cursor::new(window),
            depth_base: 0,
            d_min: u64::MAX,
            d_max: 0,
        }
    }

    /// The accumulators of window `idx`, growing every table to cover
    /// it.
    fn acc_idx(&mut self, idx: usize) -> &mut WindowAcc {
        if self.windows.len() <= idx {
            self.windows.resize(idx + 1, WindowAcc::EMPTY);
            self.busy.resize((idx + 1) * self.n_arrays, 0);
            self.net_completed.resize((idx + 1) * self.n_nets, 0);
            self.net_slo_met.resize((idx + 1) * self.n_nets, 0);
        }
        &mut self.windows[idx]
    }

    fn acc(&mut self, at: u64) -> &mut WindowAcc {
        let idx = (at / self.window) as usize;
        self.acc_idx(idx)
    }

    /// The event clock stepped from `from` to `now`, and the queue held
    /// `depth` requests over `[from, now)`, with the engine's depth
    /// integral at `area_from` at `from`. The engine ticks before it
    /// applies any event at `now`, and `tallies` builds its tallies of
    /// that moment; they are read only when the clock leaves a window,
    /// so a tick inside both cursors' windows costs one compare and
    /// the depth extremes.
    #[inline]
    pub(crate) fn tick<'t>(
        &mut self,
        from: u64,
        now: u64,
        depth: u64,
        area_from: u128,
        tallies: impl FnOnce() -> Tallies<'t>,
    ) {
        debug_assert!(from < now && from.saturating_sub(1) <= self.depth.last);
        if now <= self.quiet_until {
            if depth < self.d_min {
                self.d_min = depth;
            }
            if depth > self.d_max {
                self.d_max = depth;
            }
            return;
        }
        self.queue_depth(from, now, depth, area_from);
        if now > self.clock.last {
            let t = tallies();
            self.close_clock_window(&t);
            // Each boundary the clock crosses closes a window's busy
            // cycles. Nothing changed over `[from, now)`, so the tallies
            // tell the cycles before every such boundary.
            let (mut win, mut end) = (self.clock.win, Some(self.clock.last + 1));
            while let Some(b) = end.filter(|&b| b <= now) {
                self.book_busy(win, t.busy, b);
                win += 1;
                end = b.checked_add(self.window);
            }
            self.clock.seek(now, self.window);
        }
        self.quiet_until = self.clock.last.min(self.depth.last);
    }

    /// Closes the event clock's window: everything the engine tallied
    /// since the window opened happened in it. Its completions' slice
    /// of latencies is read through the sketch. Windows without
    /// arrivals or completions are left untouched (zero quantiles).
    fn close_clock_window(&mut self, t: &Tallies<'_>) {
        let win = self.clock.win;
        let offered = t.offered - self.offered_base;
        let dropped = t.dropped - self.dropped_base;
        if offered > 0 || dropped > 0 {
            let acc = self.acc_idx(win);
            acc.offered += offered;
            acc.dropped += dropped;
            self.offered_base = t.offered;
            self.dropped_base = t.dropped;
        }
        let slice = &t.latencies[self.done_first..];
        if slice.is_empty() {
            return;
        }
        self.done_first = t.latencies.len();
        self.cur.record_batch(slice);
        self.min = self.min.min(self.cur.min());
        let [p50, p99, p999] = self.cur.take_quantiles([500, 990, 999]);
        let acc = self.acc_idx(win);
        acc.completed += slice.len() as u64;
        acc.p50 = p50;
        acc.p99 = p99;
        acc.p999 = p999;
        let at = win * self.n_nets;
        let mut slo_met = 0;
        for net in 0..self.n_nets {
            let met = t.net_slo_met[net] - self.net_slo_met_base[net];
            self.net_completed[at + net] += t.net_completed[net] - self.net_completed_base[net];
            self.net_slo_met[at + net] += met;
            slo_met += met;
        }
        self.windows[win].slo_met += slo_met;
        self.net_completed_base.copy_from_slice(t.net_completed);
        self.net_slo_met_base.copy_from_slice(t.net_slo_met);
    }

    /// Index of the least-worst exemplar under the deterministic
    /// (latency, older-id-wins) order.
    fn least_worst(exemplars: &[Exemplar]) -> usize {
        exemplars
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.latency, std::cmp::Reverse(e.id)))
            .map(|(i, _)| i)
            .expect("exemplar set is nonempty")
    }

    /// Whether a completion with this `latency` and `id` would enter
    /// the exemplar set — lets the engine skip assembling the full
    /// phase-accounted [`Exemplar`] record for the overwhelming
    /// majority of requests. Ties keep the earlier request so the set
    /// is deterministic.
    #[inline]
    pub(crate) fn wants_exemplar(&self, latency: u64, id: u64) -> bool {
        match self.floor {
            None => true,
            Some((l, i)) => latency > l || (latency == l && id < i),
        }
    }

    /// Admits an exemplar candidate ([`Self::wants_exemplar`] was true
    /// for its latency and id).
    pub(crate) fn offer_exemplar(&mut self, req: Exemplar) {
        debug_assert!(self.wants_exemplar(req.latency, req.id));
        if self.exemplars.len() < self.cfg.exemplars {
            self.exemplars.push(req);
        } else {
            let worst = Self::least_worst(&self.exemplars);
            self.exemplars[worst] = req;
        }
        if self.exemplars.len() == self.cfg.exemplars {
            let worst = &self.exemplars[Self::least_worst(&self.exemplars)];
            self.floor = Some((worst.latency, worst.id));
        }
    }

    /// Writes the queue-depth scratch into its cursor's window, whose
    /// integral ends at `area`.
    fn flush_depth(&mut self, area: u128) {
        if self.d_min == u64::MAX {
            return;
        }
        let (min, max, area) = (self.d_min, self.d_max, area - self.depth_base);
        self.d_min = u64::MAX;
        self.d_max = 0;
        let acc = self.acc_idx(self.depth.win);
        acc.depth_area += area;
        acc.depth_min = acc.depth_min.min(min);
        acc.depth_max = acc.depth_max.max(max);
    }

    /// The queue held `depth` requests over `[from, now)`, and the
    /// engine's depth integral stood at `area_from` at `from`; these
    /// intervals arrive in order and without gaps.
    fn queue_depth(&mut self, from: u64, now: u64, depth: u64, area_from: u128) {
        if now - 1 <= self.depth.last {
            if depth < self.d_min {
                self.d_min = depth;
            }
            if depth > self.d_max {
                self.d_max = depth;
            }
            return;
        }
        // Slow path: close the cursor's window at its end, fill the
        // whole windows the interval covers, and restart the scratch
        // in the window holding `now − 1`. Intervals tile time, so
        // `from` never lies past the cursor's window.
        let window = self.window;
        let end = self.depth.last + 1;
        if from < end {
            self.d_min = self.d_min.min(depth);
            self.d_max = self.d_max.max(depth);
        }
        self.flush_depth(area_from + depth as u128 * (end - from) as u128);
        self.depth.seek(now - 1, window);
        let mut t = end;
        while t < self.depth.first {
            let acc = self.acc(t);
            acc.depth_area += depth as u128 * window as u128;
            acc.depth_min = acc.depth_min.min(depth);
            acc.depth_max = acc.depth_max.max(depth);
            t += window;
        }
        self.depth_base = area_from + depth as u128 * (self.depth.first - from) as u128;
        self.d_min = depth;
        self.d_max = depth;
    }

    /// Books into window `win` every array's busy cycles between the
    /// window's start and `end`; windows without any stay untouched.
    fn book_busy(&mut self, win: usize, busy: &[BusyTally], end: u64) {
        for (a, tally) in busy.iter().enumerate() {
            let before = tally.before(end);
            if before > self.busy_base[a] {
                self.acc_idx(win);
                self.busy[win * self.n_arrays + a] += before - self.busy_base[a];
                self.busy_base[a] = before;
            }
        }
    }

    /// Closes the recording at `makespan` and builds the report.
    /// `tallies` are the engine's final ones and `latency` its exact
    /// distribution over the same completions; the whole-run sketch
    /// summary reports its samples' bucket ceilings, like the windows
    /// do.
    pub(crate) fn finish(
        mut self,
        makespan: u64,
        tallies: &Tallies<'_>,
        latency: &LatencyStats,
        arrays: Vec<String>,
        networks: Vec<String>,
        manifest: RunManifest,
    ) -> TimeSeriesReport {
        // Drain every stream's scratch and close the clock's window.
        self.flush_depth(tallies.depth_area);
        self.book_busy(self.clock.win, tallies.busy, u64::MAX);
        self.close_clock_window(tallies);
        let count = tallies.latencies.len() as u64;
        // Cover the full makespan even if the tail saw no events.
        self.acc(makespan.saturating_sub(1));
        let window = self.window;
        let makespan = makespan.max(1);
        let na = self.n_arrays;
        let mut busy_frac = Vec::with_capacity(self.busy.len());
        let windows: Vec<WindowReport> = self
            .windows
            .iter()
            .enumerate()
            .map(|(i, acc)| {
                let start = i as u64 * window;
                // The last window may be clipped by the makespan.
                let width = start
                    .saturating_add(window)
                    .min(makespan)
                    .saturating_sub(start)
                    .max(1);
                let busy = &self.busy[i * na..(i + 1) * na];
                busy_frac.extend(busy.iter().map(|&b| (b as f64 / width as f64).min(1.0)));
                WindowReport {
                    index: i as u64,
                    offered: acc.offered,
                    completed: acc.completed,
                    dropped: acc.dropped,
                    slo_met: acc.slo_met,
                    queue_min: if acc.depth_min == u64::MAX {
                        0
                    } else {
                        acc.depth_min
                    },
                    queue_mean: acc.depth_area as f64 / width as f64,
                    queue_max: acc.depth_max,
                    p50: acc.p50,
                    p99: acc.p99,
                    p999: acc.p999,
                }
            })
            .collect();
        let alerts = burn_alerts(&windows, FAST_WINDOWS, SLOW_WINDOWS);
        let mut exemplars = self.exemplars;
        exemplars.sort_by_key(|e| (std::cmp::Reverse(e.latency), e.id));
        let sketched = |v: u64| QuantileSketch::bucket_ceiling(v).min(latency.max);
        TimeSeriesReport {
            window_cycles: window,
            makespan_cycles: makespan,
            objective: OBJECTIVE,
            fast_windows: FAST_WINDOWS,
            slow_windows: SLOW_WINDOWS,
            burn_threshold: BURN_THRESHOLD,
            exemplar_capacity: self.cfg.exemplars,
            arrays,
            networks,
            windows,
            busy_frac,
            net_completed: self.net_completed,
            net_slo_met: self.net_slo_met,
            alerts,
            exemplars,
            total: SketchSummary {
                count,
                mean: latency.mean,
                min: if count == 0 { 0 } else { self.min },
                p50: sketched(latency.p50),
                p99: sketched(latency.p99),
                p999: sketched(latency.p999),
                max: latency.max,
            },
            manifest,
        }
    }
}

/// SLO miss fraction over windows `[lo, hi]` (0 when nothing
/// completed).
fn miss_rate(windows: &[WindowReport], lo: usize, hi: usize) -> f64 {
    let mut completed = 0u64;
    let mut met = 0u64;
    for w in &windows[lo..=hi] {
        completed += w.completed;
        met += w.slo_met;
    }
    if completed == 0 {
        0.0
    } else {
        (completed - met) as f64 / completed as f64
    }
}

/// Multi-window burn-rate detection: window `w` alerts when both the
/// fast span `[w−fast_span+1, w]` and the slow span
/// `[w−slow_span+1, w]` show an SLO miss fraction
/// ≥ `BURN_THRESHOLD × (1 − OBJECTIVE)`. The slow span must be fully
/// elapsed, so a run shorter than `slow_span` windows never alerts.
/// Consecutive alerting windows merge into one episode. Requires
/// `1 <= fast_span <= slow_span`.
fn burn_alerts(windows: &[WindowReport], fast_span: usize, slow_span: usize) -> Vec<BurnAlert> {
    let budget = 1.0 - OBJECTIVE;
    let trigger = BURN_THRESHOLD * budget;
    let mut alerts: Vec<BurnAlert> = Vec::new();
    let mut open: Option<BurnAlert> = None;
    for w in (slow_span - 1)..windows.len() {
        let fast = miss_rate(windows, w + 1 - fast_span, w);
        let slow = miss_rate(windows, w + 1 - slow_span, w);
        if fast >= trigger && slow >= trigger {
            let alert = open.get_or_insert(BurnAlert {
                start_window: w as u64,
                end_window: w as u64,
                peak_fast_miss_rate: 0.0,
                peak_burn_rate: 0.0,
            });
            alert.end_window = w as u64;
            if fast > alert.peak_fast_miss_rate {
                alert.peak_fast_miss_rate = fast;
                alert.peak_burn_rate = if budget > 0.0 { fast / budget } else { 0.0 };
            }
        } else if let Some(done) = open.take() {
            alerts.push(done);
        }
    }
    if let Some(done) = open.take() {
        alerts.push(done);
    }
    alerts
}

/// The complete time-series outcome of one pod simulation (schema
/// `fuseconv-serve-timeseries-v1`).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesReport {
    /// Window width, cycles.
    pub window_cycles: u64,
    /// Simulated makespan, cycles.
    pub makespan_cycles: u64,
    /// SLO attainment objective of the burn-rate rule.
    pub objective: f64,
    /// Fast burn-rate span, windows.
    pub fast_windows: usize,
    /// Slow burn-rate span, windows.
    pub slow_windows: usize,
    /// Burn-rate alert threshold (multiple of the sustainable rate).
    pub burn_threshold: f64,
    /// Configured tail-exemplar capacity.
    pub exemplar_capacity: usize,
    /// Array names, pod order (indexes [`Self::busy_frac()`]).
    pub arrays: Vec<String>,
    /// Network names, workload order (indexes [`Self::net_completed()`]
    /// and [`Self::net_slo_met()`]).
    pub networks: Vec<String>,
    /// Per-window records covering `[0, makespan)`.
    pub windows: Vec<WindowReport>,
    /// Busy fraction per window and array, window-major: one table for
    /// the run instead of one allocation per window.
    busy_frac: Vec<f64>,
    /// Completions per window and network, window-major.
    net_completed: Vec<u64>,
    /// SLO-met completions per window and network, window-major.
    net_slo_met: Vec<u64>,
    /// Burn-rate alert episodes, in time order.
    pub alerts: Vec<BurnAlert>,
    /// Worst-latency requests with full phase breakdown, worst first.
    pub exemplars: Vec<Exemplar>,
    /// Whole-run latency sketch summary.
    pub total: SketchSummary,
    /// Run provenance embedded in the JSON rendering.
    pub manifest: RunManifest,
}

impl TimeSeriesReport {
    /// Busy fraction of every array in window `w`, pod order.
    pub fn busy_frac(&self, w: usize) -> &[f64] {
        let n = self.arrays.len();
        &self.busy_frac[w * n..(w + 1) * n]
    }

    /// Completions per network in window `w`, workload order.
    pub fn net_completed(&self, w: usize) -> &[u64] {
        let n = self.networks.len();
        &self.net_completed[w * n..(w + 1) * n]
    }

    /// SLO-met completions per network in window `w`, workload order.
    pub fn net_slo_met(&self, w: usize) -> &[u64] {
        let n = self.networks.len();
        &self.net_slo_met[w * n..(w + 1) * n]
    }

    /// Every deterministic field (everything except the manifest), the
    /// open document behind [`Self::results_hash`].
    fn results(&self) -> Json {
        let (offered, completed, dropped, slo_met) = self
            .windows
            .iter()
            .fold((0u64, 0u64, 0u64, 0u64), |(o, c, d, s), w| {
                (o + w.offered, c + w.completed, d + w.dropped, s + w.slo_met)
            });
        let f3 = |v: f64| format!("{v:.3}");
        let f6 = |v: f64| format!("{v:.6}");
        let mut j = Json::pretty();
        j.str("schema", TIMESERIES_SCHEMA)
            .obj("config", |j| {
                j.raw("window_cycles", self.window_cycles)
                    .raw("objective", f6(self.objective))
                    .raw("fast_windows", self.fast_windows)
                    .raw("slow_windows", self.slow_windows)
                    .raw("burn_threshold", f6(self.burn_threshold))
                    .raw("exemplar_capacity", self.exemplar_capacity)
                    .raw(
                        "sketch_relative_error_bound",
                        f6(QuantileSketch::RELATIVE_ERROR_BOUND),
                    );
            })
            .obj("totals", |j| {
                j.raw("windows", self.windows.len())
                    .raw("alerts", self.alerts.len())
                    .raw("makespan_cycles", self.makespan_cycles)
                    .raw("offered", offered)
                    .raw("completed", completed)
                    .raw("dropped", dropped)
                    .raw("slo_met", slo_met);
            })
            .obj("latency_sketch", |j| {
                let t = &self.total;
                j.raw("count", t.count)
                    .raw("mean", f3(t.mean))
                    .raw("min", t.min)
                    .raw("p50", t.p50)
                    .raw("p99", t.p99)
                    .raw("p999", t.p999)
                    .raw("max", t.max);
            });
        j.nest("arrays", Layout::Inline, '[', |j| {
            for name in &self.arrays {
                j.str("", name);
            }
        })
        .nest("networks", Layout::Inline, '[', |j| {
            for name in &self.networks {
                j.str("", name);
            }
        })
        .arr("windows", |j| {
            for (i, w) in self.windows.iter().enumerate() {
                j.obj("", |j| {
                    j.raw("index", w.index)
                        .raw("start_cycle", w.index * self.window_cycles)
                        .raw("offered", w.offered)
                        .raw("completed", w.completed)
                        .raw("dropped", w.dropped)
                        .raw("slo_met", w.slo_met)
                        .raw("queue_min", w.queue_min)
                        .raw("queue_mean", f3(w.queue_mean))
                        .raw("queue_max", w.queue_max)
                        .nest("busy_frac", Layout::Inline, '[', |j| {
                            for &v in self.busy_frac(i) {
                                j.raw("", f6(v));
                            }
                        })
                        .nest("net_completed", Layout::Inline, '[', |j| {
                            for v in self.net_completed(i) {
                                j.raw("", v);
                            }
                        })
                        .nest("net_slo_met", Layout::Inline, '[', |j| {
                            for v in self.net_slo_met(i) {
                                j.raw("", v);
                            }
                        })
                        .raw("p50", w.p50)
                        .raw("p99", w.p99)
                        .raw("p999", w.p999);
                });
            }
        })
        .arr("alerts", |j| {
            for a in &self.alerts {
                j.obj("", |j| {
                    j.raw("start_window", a.start_window)
                        .raw("end_window", a.end_window)
                        .raw("peak_fast_miss_rate", f6(a.peak_fast_miss_rate))
                        .raw("peak_burn_rate", f3(a.peak_burn_rate));
                });
            }
        })
        .arr("exemplars", |j| {
            for e in &self.exemplars {
                let name = self.networks.get(e.net).map_or("?", String::as_str);
                j.obj("", |j| {
                    j.raw("id", e.id)
                        .str("network", name)
                        .raw("high_priority", e.high_priority)
                        .raw("arrived_cycle", e.arrived)
                        .raw("completed_cycle", e.completed_at)
                        .raw("latency_cycles", e.latency)
                        .raw("form_wait_cycles", e.form_wait)
                        .raw("queue_wait_cycles", e.queue_wait)
                        .raw("compute_cycles", e.compute)
                        .raw("refill_cycles", e.refill);
                });
            }
        });
        j
    }

    /// `fnv1a64:<16 hex>` fingerprint of every deterministic result
    /// field; two same-seed runs must produce identical hashes.
    pub fn results_hash(&self) -> String {
        self.results().fingerprint()
    }

    /// Renders the report as JSON (schema
    /// `fuseconv-serve-timeseries-v1`), fingerprint and embedded run
    /// manifest included.
    pub fn to_json(&self) -> String {
        self.results().finish_fingerprinted(&self.manifest)
    }

    /// Appends counter tracks to a pod trace: per-window goodput and
    /// per-array utilization, composing with the pid-0 batch lanes and
    /// the engine's own queue-depth counter.
    pub fn append_counters(&self, sink: &mut PodTraceSink) {
        for (i, w) in self.windows.iter().enumerate() {
            let at = w.index * self.window_cycles;
            sink.counter("goodput", at, w.slo_met as f64);
            for (a, frac) in self.busy_frac(i).iter().enumerate() {
                let name = self.arrays.get(a).map(String::as_str).unwrap_or("?");
                sink.counter(&format!("util {name}"), at, 100.0 * frac);
            }
        }
    }

    /// Renders the report as text with one sparkline per signal.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "time-series: {} windows x {} cycles | SLO objective {:.2}% | {} burn alert(s)",
            self.windows.len(),
            self.window_cycles,
            100.0 * self.objective,
            self.alerts.len()
        );
        let series =
            |f: fn(&WindowReport) -> f64| -> Vec<f64> { self.windows.iter().map(f).collect() };
        let rows: [(&str, Vec<f64>); 5] = [
            ("offered", series(|w| w.offered as f64)),
            ("goodput", series(|w| w.slo_met as f64)),
            ("dropped", series(|w| w.dropped as f64)),
            ("queue", series(|w| w.queue_mean)),
            ("p99", series(|w| w.p99 as f64)),
        ];
        for (label, values) in &rows {
            let peak = values.iter().cloned().fold(0.0f64, f64::max);
            let _ = writeln!(out, "{:<8} {} peak {:.0}", label, sparkline(values), peak);
        }
        for a in &self.alerts {
            let _ = writeln!(
                out,
                "ALERT windows {}..{}: fast-span SLO miss {:.1}% = {:.1}x error budget \
                 (threshold {:.1}x over {}/{} windows)",
                a.start_window,
                a.end_window,
                100.0 * a.peak_fast_miss_rate,
                a.peak_burn_rate,
                self.burn_threshold,
                self.fast_windows,
                self.slow_windows
            );
        }
        let _ = writeln!(
            out,
            "latency sketch (err <= {:.2}%): n {}  p50 {}  p99 {}  p99.9 {}  max {}",
            100.0 * QuantileSketch::RELATIVE_ERROR_BOUND,
            self.total.count,
            self.total.p50,
            self.total.p99,
            self.total.p999,
            self.total.max
        );
        if !self.exemplars.is_empty() {
            let _ = writeln!(
                out,
                "{:<10} {:<22} {:>10} {:>8} {:>10} {:>10} {:>7}",
                "worst req", "network", "latency", "form", "queue", "compute", "refill"
            );
            for e in &self.exemplars {
                let name = self.networks.get(e.net).map(String::as_str).unwrap_or("?");
                let _ = writeln!(
                    out,
                    "{:<10} {:<22} {:>10} {:>8} {:>10} {:>10} {:>7}",
                    e.id, name, e.latency, e.form_wait, e.queue_wait, e.compute, e.refill
                );
            }
        }
        let _ = writeln!(out, "results {}", self.results_hash());
        out
    }
}

/// Unicode sparkline of `values`, max-pooled down to at most 64 glyphs.
fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    const WIDTH: usize = 64;
    if values.is_empty() {
        return String::new();
    }
    let pooled: Vec<f64> = if values.len() <= WIDTH {
        values.to_vec()
    } else {
        (0..WIDTH)
            .map(|i| {
                let lo = i * values.len() / WIDTH;
                let hi = ((i + 1) * values.len() / WIDTH).max(lo + 1);
                values[lo..hi].iter().cloned().fold(0.0f64, f64::max)
            })
            .collect()
    };
    let peak = pooled.iter().cloned().fold(0.0f64, f64::max);
    pooled
        .iter()
        .map(|&v| {
            if peak <= 0.0 {
                GLYPHS[0]
            } else {
                let level = ((v / peak) * (GLYPHS.len() - 1) as f64).round() as usize;
                GLYPHS[level.min(GLYPHS.len() - 1)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The engine-side tallies of a [`Feed`], borrowed field by field
    /// so the recorder beside them stays mutable.
    macro_rules! tallies {
        ($feed:expr) => {
            Tallies {
                offered: $feed.offered,
                dropped: $feed.dropped,
                latencies: &$feed.latencies,
                net_completed: &$feed.net_completed,
                net_slo_met: &$feed.net_slo_met,
                depth_area: $feed.depth_area,
                busy: &$feed.busy,
            }
        };
    }

    /// Plays the engine's part for a recorder: keeps the tallies the
    /// recorder reads when a window closes.
    struct Feed {
        rec: TimeSeriesRecorder,
        offered: u64,
        dropped: u64,
        latencies: Vec<u64>,
        net_completed: Vec<u64>,
        net_slo_met: Vec<u64>,
        depth_area: u128,
        busy: Vec<BusyTally>,
        last: u64,
    }

    impl Feed {
        fn new(cfg: &TimeSeriesConfig, window: u64, arrays: usize, nets: usize) -> Self {
            Feed {
                rec: TimeSeriesRecorder::new(cfg, window, arrays, nets),
                offered: 0,
                dropped: 0,
                latencies: Vec::new(),
                net_completed: vec![0; nets],
                net_slo_met: vec![0; nets],
                depth_area: 0,
                busy: vec![BusyTally::default(); arrays],
                last: 0,
            }
        }

        /// Advances the clock to `now` the way the engine does; the
        /// queue held `depth` requests since the previous tick.
        fn tick(&mut self, now: u64, depth: u64) {
            if now > self.last {
                let (from, area_from) = (self.last, self.depth_area);
                self.rec
                    .tick(from, now, depth, area_from, || tallies!(self));
                self.depth_area += depth as u128 * (now - from) as u128;
                self.last = now;
            }
        }

        /// Books one completion the way the engine does.
        fn completed(&mut self, req: Exemplar, slo_met: bool) {
            self.tick(req.completed_at, 0);
            self.latencies.push(req.latency);
            self.net_completed[req.net] += 1;
            if slo_met {
                self.net_slo_met[req.net] += 1;
            }
            if self.rec.wants_exemplar(req.latency, req.id) {
                self.rec.offer_exemplar(req);
            }
        }

        fn finish(self, makespan: u64, arrays: &[&str], nets: &[&str]) -> TimeSeriesReport {
            let latency = LatencyStats::from_latencies(&self.latencies);
            let names = |n: &[&str]| n.iter().map(|s| s.to_string()).collect();
            let tallies = tallies!(self);
            self.rec.finish(
                makespan,
                &tallies,
                &latency,
                names(arrays),
                names(nets),
                RunManifest::capture(),
            )
        }
    }

    fn window(index: u64, completed: u64, slo_met: u64) -> WindowReport {
        WindowReport {
            index,
            offered: completed,
            completed,
            dropped: 0,
            slo_met,
            queue_min: 0,
            queue_mean: 0.0,
            queue_max: 0,
            p50: 10,
            p99: 20,
            p999: 30,
        }
    }

    #[test]
    fn healthy_windows_never_alert() {
        // 0.5% misses: below the 10x-budget (10%) trigger everywhere.
        let windows: Vec<WindowReport> = (0..16).map(|i| window(i, 200, 199)).collect();
        assert!(burn_alerts(&windows, 1, 4).is_empty());
    }

    #[test]
    fn sustained_burn_alerts_once_and_merges_windows() {
        // Healthy for 6 windows, then a sustained 50% miss rate: one
        // episode, starting only after the slow span fills with misses.
        let mut windows: Vec<WindowReport> = (0..6).map(|i| window(i, 100, 100)).collect();
        for i in 6..16 {
            windows.push(window(i, 100, 50));
        }
        let alerts = burn_alerts(&windows, 1, 4);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        let a = alerts[0];
        assert!(a.start_window >= 6);
        assert_eq!(a.end_window, 15);
        assert!((a.peak_fast_miss_rate - 0.5).abs() < 1e-9);
        assert!((a.peak_burn_rate - 50.0).abs() < 1e-6);
    }

    #[test]
    fn short_runs_cannot_alert() {
        // Fewer windows than the slow span: no verdict possible.
        let windows: Vec<WindowReport> = (0..3).map(|i| window(i, 10, 0)).collect();
        assert!(burn_alerts(&windows, 1, 4).is_empty());
    }

    #[test]
    fn empty_windows_do_not_divide_by_zero() {
        let windows: Vec<WindowReport> = (0..8).map(|i| window(i, 0, 0)).collect();
        assert!(burn_alerts(&windows, 1, 4).is_empty());
    }

    #[test]
    fn recorder_bins_intervals_across_window_boundaries() {
        let mut feed = Feed::new(&TimeSeriesConfig::new(), 100, 2, 1);
        // One arrival at cycle 10, dropped at admission.
        feed.tick(10, 0);
        feed.offered += 1;
        feed.dropped += 1;
        // Queue depth 0 up to cycle 50, then 4 up to cycle 230; a busy
        // segment spanning three windows: 50 + 100 + 30 cycles.
        feed.tick(50, 0);
        feed.busy[0].book(50, 230);
        feed.tick(230, 4);
        let report = feed.finish(250, &["a0", "a1"], &["net"]);
        assert_eq!(report.windows.len(), 3);
        assert!((report.busy_frac(0)[0] - 0.5).abs() < 1e-9);
        assert!((report.busy_frac(1)[0] - 1.0).abs() < 1e-9);
        // Final window is clipped to the 250-cycle makespan: 30/50.
        assert!((report.busy_frac(2)[0] - 0.6).abs() < 1e-9);
        assert_eq!(report.windows[0].queue_max, 4);
        assert!((report.windows[1].queue_mean - 4.0).abs() < 1e-9);
        assert_eq!(report.windows[0].offered, 1);
        assert_eq!(report.windows[0].dropped, 1);
    }

    #[test]
    fn exemplars_keep_the_k_worst_deterministically() {
        let ts_cfg = TimeSeriesConfig {
            exemplars: 3,
            ..TimeSeriesConfig::new()
        };
        let mut feed = Feed::new(&ts_cfg, 1000, 1, 1);
        for (id, latency) in [(0, 50), (1, 900), (2, 10), (3, 700), (4, 800), (5, 900)] {
            feed.completed(
                Exemplar {
                    id,
                    net: 0,
                    high_priority: false,
                    arrived: 0,
                    completed_at: latency,
                    latency,
                    form_wait: 0,
                    queue_wait: 0,
                    compute: latency,
                    refill: 0,
                },
                true,
            );
        }
        let report = feed.finish(1000, &["a"], &["net"]);
        let kept: Vec<(u64, u64)> = report.exemplars.iter().map(|e| (e.latency, e.id)).collect();
        // Worst first; the 900-latency tie keeps the earlier id first.
        assert_eq!(kept, vec![(900, 1), (900, 5), (800, 4)]);
    }

    #[test]
    fn json_is_balanced_tagged_and_fingerprinted() {
        let mut feed = Feed::new(&TimeSeriesConfig::new(), 100, 1, 1);
        feed.tick(5, 0);
        feed.offered += 1;
        feed.completed(
            Exemplar {
                id: 0,
                net: 0,
                high_priority: false,
                arrived: 5,
                completed_at: 105,
                latency: 100,
                form_wait: 0,
                queue_wait: 40,
                compute: 60,
                refill: 0,
            },
            true,
        );
        let report = feed.finish(300, &["8x8:os"], &["tiny"]);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"fuseconv-serve-timeseries-v1\""));
        assert!(json.contains("\"results_fnv1a64\": \"fnv1a64:"));
        assert!(json.contains("\"schema\": \"fuseconv-manifest-v1\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let text = report.to_text();
        assert!(text.contains("time-series"));
        assert!(text.contains("goodput"));
        assert!(text.contains("worst req"));
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(TimeSeriesConfig::new().validate().is_ok());
        let zero = TimeSeriesConfig {
            target_windows: 0,
            ..TimeSeriesConfig::new()
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    fn sparkline_pools_long_series() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let line = sparkline(&values);
        assert_eq!(line.chars().count(), 64);
        assert!(line.ends_with('█'));
        assert!(line.starts_with('▁'));
        assert_eq!(sparkline(&[]), "");
    }
}
