//! Streaming time-series observability for pod simulations (schema
//! `fuseconv-serve-timeseries-v1`).
//!
//! The serve report is an end-of-run aggregate; this module makes the
//! *trajectory* observable while staying O(1) per request. The engine
//! feeds a [`TimeSeriesRecorder`] from its existing event stream —
//! arrivals, completions, queue-depth ticks and busy segments — and the
//! recorder bins everything into fixed simulated-cycle windows:
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

use crate::spec::ServeError;
use crate::trace::PodTraceSink;
use fuseconv_telemetry::{fnv1a64, json_escape, QuantileSketch, RunManifest};
use std::fmt::Write as _;

/// Schema tag of the time-series artifact.
pub const TIMESERIES_SCHEMA: &str = "fuseconv-serve-timeseries-v1";

/// Completion latencies staged before a batched sketch flush (see
/// [`TimeSeriesRecorder`]'s `stage` field).
const STAGE_CAP: usize = 256;

/// Configuration of the time-series layer.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesConfig {
    /// Window width in simulated cycles; `None` sizes windows so the
    /// run's *expected* makespan spans [`Self::target_windows`] of them
    /// (overload runs simply grow more windows).
    pub window_cycles: Option<u64>,
    /// Window count the automatic width aims for.
    pub target_windows: usize,
    /// SLO attainment objective the burn rate is measured against;
    /// `1 − objective` is the error budget (0.99 → 1 % budget).
    pub objective: f64,
    /// Fast span of the multi-window burn-rate rule, in windows.
    pub fast_windows: usize,
    /// Slow span of the multi-window burn-rate rule, in windows.
    pub slow_windows: usize,
    /// Burn-rate threshold: an alert needs both spans to consume error
    /// budget at ≥ this multiple of the sustainable rate.
    pub burn_threshold: f64,
    /// How many worst-latency requests keep their phase breakdown.
    pub exemplars: usize,
}

impl TimeSeriesConfig {
    /// Defaults: automatic window width targeting 64 windows, a 99 %
    /// SLO objective, a 1-window / 8-window pair at 10× burn, and 8
    /// tail exemplars.
    pub fn new() -> Self {
        TimeSeriesConfig {
            window_cycles: None,
            target_windows: 64,
            objective: 0.99,
            fast_windows: 1,
            slow_windows: 8,
            burn_threshold: 10.0,
            exemplars: 8,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for a zero window width or span,
    /// a fast span longer than the slow one, an objective outside
    /// (0, 1), or a non-positive burn threshold.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.window_cycles == Some(0) {
            return Err(ServeError::Config(
                "timeseries window_cycles must be at least 1".to_string(),
            ));
        }
        if self.target_windows == 0 {
            return Err(ServeError::Config(
                "timeseries target_windows must be at least 1".to_string(),
            ));
        }
        if self.fast_windows == 0 || self.slow_windows < self.fast_windows {
            return Err(ServeError::Config(format!(
                "burn-rate windows must satisfy 1 <= fast <= slow, got fast {} slow {}",
                self.fast_windows, self.slow_windows
            )));
        }
        if !(self.objective > 0.0 && self.objective < 1.0) {
            return Err(ServeError::Config(format!(
                "SLO objective must lie in (0, 1), got {}",
                self.objective
            )));
        }
        if !(self.burn_threshold.is_finite() && self.burn_threshold > 0.0) {
            return Err(ServeError::Config(format!(
                "burn threshold must be finite and positive, got {}",
                self.burn_threshold
            )));
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
    /// Busy fraction per array, pod order.
    pub busy_frac: Vec<f64>,
    /// Completions per network, workload order.
    pub net_completed: Vec<u64>,
    /// SLO-met completions per network, workload order.
    pub net_slo_met: Vec<u64>,
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

/// Per-window accumulators while the simulation runs. Deliberately
/// small (no inline sketch): the recorder keeps one hot
/// [`QuantileSketch`] for the window currently receiving completions
/// and stores only the finalized quantiles here when it rolls over.
#[derive(Debug, Clone)]
struct WindowAcc {
    offered: u64,
    completed: u64,
    dropped: u64,
    slo_met: u64,
    depth_min: u64,
    depth_max: u64,
    depth_area: u128,
    busy: Vec<u64>,
    net_completed: Vec<u64>,
    net_slo_met: Vec<u64>,
    p50: u64,
    p99: u64,
    p999: u64,
}

impl WindowAcc {
    fn new(n_arrays: usize, n_nets: usize) -> Self {
        WindowAcc {
            offered: 0,
            completed: 0,
            dropped: 0,
            slo_met: 0,
            depth_min: u64::MAX,
            depth_max: 0,
            depth_area: 0,
            busy: vec![0; n_arrays],
            net_completed: vec![0; n_nets],
            net_slo_met: vec![0; n_nets],
            p50: 0,
            p99: 0,
            p999: 0,
        }
    }
}

/// Streaming recorder the engine feeds; O(1) per event (interval hooks
/// cost O(windows overlapped), and a single batch segment rarely spans
/// more than a few windows).
///
/// The engine pops events off a time-ordered heap, so completions
/// arrive with non-decreasing timestamps; the recorder exploits that by
/// keeping a single hot latency sketch for the *current* completion
/// window ([`QuantileSketch`] is ~30 KiB — one per window would wreck
/// cache locality and the ≤10 % recording-overhead budget), finalizing
/// its quantiles and merging it into the run total each time the
/// completion window advances.
#[derive(Debug)]
pub(crate) struct TimeSeriesRecorder {
    cfg: TimeSeriesConfig,
    window: u64,
    n_arrays: usize,
    n_nets: usize,
    windows: Vec<WindowAcc>,
    /// Latencies staged for a batched flush into `cur`: individual
    /// sketch records touch scattered bucket cache lines that the
    /// engine evicts between completions, so the hot path is one
    /// append here and the bucket lines are touched with high
    /// locality once per [`STAGE_CAP`] completions.
    stage: Vec<u64>,
    /// Latency sketch of the window currently receiving completions.
    cur: QuantileSketch,
    /// Window index `cur` is recording.
    cur_win: usize,
    /// Exclusive upper cycle bound of `cur_win` — completions advance
    /// monotonically, so window lookup is a compare, not a division.
    cur_hi: u64,
    /// Whole-run latency sketch; absorbs `cur` at each window roll.
    total: QuantileSketch,
    exemplars: Vec<Exemplar>,
    /// Index of the least-worst kept exemplar, valid once the set is
    /// full: makes the common keep/discard decision one comparison.
    worst_slot: usize,
    /// Monotone arrival-window cursor (index and exclusive bound).
    arr_win: usize,
    arr_hi: u64,
    /// Per-array monotone busy cursors — an array executes segments
    /// serially, so each array's segment start only advances.
    busy_win: Vec<usize>,
    busy_hi: Vec<u64>,
    /// Window the queue-depth integral has advanced into (index and
    /// exclusive cycle bound), plus the cycle it has advanced to —
    /// depth ticks tile `[0, makespan]` in order, so the common case
    /// is one compare against `depth_hi`.
    depth_win: usize,
    depth_hi: u64,
    depth_last: u64,
    /// Hot scratch accumulators, one set per event stream. The engine
    /// is only a few hundred nanoseconds per request, so the hooks
    /// cannot afford to chase into the `windows` Vec (a cold cache
    /// line per window) on every event; instead each stream counts
    /// into these recorder-resident scalars and flushes to its
    /// cursor's window only when the cursor moves (and in `finish`).
    /// Arrival scratch for `arr_win`:
    a_offered: u64,
    a_dropped: u64,
    /// Completion scratch for `cur_win`:
    c_completed: u64,
    c_slo_met: u64,
    c_net_completed: Vec<u64>,
    c_net_slo_met: Vec<u64>,
    /// Queue-depth scratch for `depth_win`:
    d_area: u128,
    d_min: u64,
    d_max: u64,
    /// Per-array busy-cycle scratch for `busy_win[array]`:
    busy_acc: Vec<u64>,
}

impl TimeSeriesRecorder {
    /// A recorder whose automatic window width spreads
    /// `expected_makespan` over `cfg.target_windows` windows.
    pub(crate) fn new(
        cfg: &TimeSeriesConfig,
        expected_makespan: u64,
        n_arrays: usize,
        n_nets: usize,
    ) -> Self {
        let window = cfg
            .window_cycles
            .unwrap_or_else(|| (expected_makespan / cfg.target_windows.max(1) as u64).max(1));
        TimeSeriesRecorder {
            cfg: cfg.clone(),
            window,
            n_arrays,
            n_nets,
            windows: Vec::new(),
            stage: Vec::with_capacity(STAGE_CAP),
            cur: QuantileSketch::new(),
            cur_win: 0,
            cur_hi: window,
            total: QuantileSketch::new(),
            exemplars: Vec::new(),
            worst_slot: 0,
            arr_win: 0,
            arr_hi: window,
            busy_win: vec![0; n_arrays],
            busy_hi: vec![window; n_arrays],
            depth_win: 0,
            depth_hi: window,
            depth_last: 0,
            a_offered: 0,
            a_dropped: 0,
            c_completed: 0,
            c_slo_met: 0,
            c_net_completed: vec![0; n_nets],
            c_net_slo_met: vec![0; n_nets],
            d_area: 0,
            d_min: u64::MAX,
            d_max: 0,
            busy_acc: vec![0; n_arrays],
        }
    }

    #[inline]
    fn acc_idx(&mut self, idx: usize) -> &mut WindowAcc {
        while self.windows.len() <= idx {
            self.windows
                .push(WindowAcc::new(self.n_arrays, self.n_nets));
        }
        &mut self.windows[idx]
    }

    #[inline]
    fn acc(&mut self, at: u64) -> &mut WindowAcc {
        let idx = (at / self.window) as usize;
        self.acc_idx(idx)
    }

    /// Writes the arrival scratch into its cursor's window.
    fn flush_arrivals(&mut self) {
        if self.a_offered == 0 && self.a_dropped == 0 {
            return;
        }
        let (offered, dropped) = (self.a_offered, self.a_dropped);
        self.a_offered = 0;
        self.a_dropped = 0;
        let idx = self.arr_win;
        let acc = self.acc_idx(idx);
        acc.offered += offered;
        acc.dropped += dropped;
    }

    /// Advances the arrival cursor to the window of time `at`;
    /// arrivals pop off the event heap in time order, so this is a
    /// compare, not a division, and the scratch flushes only when the
    /// cursor actually moves.
    #[inline]
    fn arrival_advance(&mut self, at: u64) {
        debug_assert!(
            at + self.window >= self.arr_hi,
            "arrivals must advance in event-time order"
        );
        if at >= self.arr_hi {
            self.flush_arrivals();
            while at >= self.arr_hi {
                self.arr_win += 1;
                self.arr_hi += self.window;
            }
        }
    }

    /// An arrival was offered at `at`.
    #[inline]
    pub(crate) fn offered(&mut self, at: u64) {
        self.arrival_advance(at);
        self.a_offered += 1;
    }

    /// An arrival was dropped at admission at `at`.
    #[inline]
    pub(crate) fn dropped(&mut self, at: u64) {
        self.arrival_advance(at);
        self.a_dropped += 1;
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

    /// Drains the staged latencies into the current window's sketch.
    fn flush_stage(&mut self) {
        self.cur.record_batch(&self.stage);
        self.stage.clear();
    }

    /// Closes the completion window the cursor points at: drains the
    /// stage, writes the scratch counters and the finalized sketch
    /// quantiles into the window, and folds the sketch into the run
    /// total. Idle windows (no completions) are a no-op and keep
    /// their zero quantiles.
    fn close_completion_window(&mut self) {
        self.flush_stage();
        if self.cur.is_empty() {
            return;
        }
        let (p50, p99, p999) = (
            self.cur.quantile(500),
            self.cur.quantile(990),
            self.cur.quantile(999),
        );
        let completed = self.c_completed;
        let slo_met = self.c_slo_met;
        self.c_completed = 0;
        self.c_slo_met = 0;
        let net_completed = std::mem::take(&mut self.c_net_completed);
        let net_slo_met = std::mem::take(&mut self.c_net_slo_met);
        let cur_win = self.cur_win;
        let acc = self.acc_idx(cur_win);
        acc.completed += completed;
        acc.slo_met += slo_met;
        for (dst, src) in acc.net_completed.iter_mut().zip(&net_completed) {
            *dst += *src;
        }
        for (dst, src) in acc.net_slo_met.iter_mut().zip(&net_slo_met) {
            *dst += *src;
        }
        acc.p50 = p50;
        acc.p99 = p99;
        acc.p999 = p999;
        self.total.merge(&self.cur);
        self.cur.clear();
        self.c_net_completed = net_completed;
        self.c_net_completed.fill(0);
        self.c_net_slo_met = net_slo_met;
        self.c_net_slo_met.fill(0);
    }

    /// Closes the current completion window and steps to the next.
    fn roll_window(&mut self) {
        self.close_completion_window();
        self.cur_win += 1;
        self.cur_hi += self.window;
    }

    /// Advances the completion window to `now`. The engine calls this
    /// once per completing batch (every request in a batch finishes at
    /// the same cycle), so the per-request hook skips the roll check.
    #[inline]
    pub(crate) fn completions_at(&mut self, now: u64) {
        debug_assert!(
            now + self.window >= self.cur_hi,
            "completions must advance in event-time order"
        );
        while now >= self.cur_hi {
            self.roll_window();
        }
    }

    /// A request completed at the cycle last passed to
    /// [`Self::completions_at`] — pure scratch-counter updates.
    #[inline]
    pub(crate) fn record(&mut self, latency: u64, net: usize, slo_met: bool) {
        self.stage.push(latency);
        if self.stage.len() == STAGE_CAP {
            self.flush_stage();
        }
        self.c_completed += 1;
        self.c_net_completed[net] += 1;
        if slo_met {
            self.c_slo_met += 1;
            self.c_net_slo_met[net] += 1;
        }
    }

    /// Whether a completion with this `latency` and `id` would enter
    /// the exemplar set — lets the engine skip assembling the full
    /// phase-accounted [`Exemplar`] record for the overwhelming
    /// majority of requests (one comparison against the cached
    /// least-worst kept exemplar).
    #[inline]
    pub(crate) fn wants_exemplar(&self, latency: u64, id: u64) -> bool {
        if self.cfg.exemplars == 0 {
            return false;
        }
        if self.exemplars.len() < self.cfg.exemplars {
            return true;
        }
        // Ties keep the earlier request so the set is deterministic.
        let worst = &self.exemplars[self.worst_slot];
        (latency, std::cmp::Reverse(id)) > (worst.latency, std::cmp::Reverse(worst.id))
    }

    /// Admits an exemplar candidate ([`Self::wants_exemplar`] was true
    /// for its latency and id).
    pub(crate) fn offer_exemplar(&mut self, req: Exemplar) {
        debug_assert!(self.wants_exemplar(req.latency, req.id));
        if self.exemplars.len() < self.cfg.exemplars {
            self.exemplars.push(req);
            if self.exemplars.len() == self.cfg.exemplars {
                self.worst_slot = Self::least_worst(&self.exemplars);
            }
            return;
        }
        self.exemplars[self.worst_slot] = req;
        self.worst_slot = Self::least_worst(&self.exemplars);
    }

    /// One-call completion hook combining [`Self::completions_at`],
    /// [`Self::record`] and the exemplar offer — the convenience form
    /// used by unit tests (the engine calls the pieces directly to
    /// amortize the roll check over a whole batch).
    #[cfg(test)]
    pub(crate) fn completed(&mut self, req: Exemplar, slo_met: bool) {
        self.completions_at(req.completed_at);
        self.record(req.latency, req.net, slo_met);
        if self.wants_exemplar(req.latency, req.id) {
            self.offer_exemplar(req);
        }
    }

    /// Writes the queue-depth scratch into its cursor's window.
    fn flush_depth(&mut self) {
        if self.d_min == u64::MAX {
            return;
        }
        let (area, min, max) = (self.d_area, self.d_min, self.d_max);
        self.d_area = 0;
        self.d_min = u64::MAX;
        self.d_max = 0;
        let idx = self.depth_win;
        let acc = self.acc_idx(idx);
        acc.depth_area += area;
        acc.depth_min = acc.depth_min.min(min);
        acc.depth_max = acc.depth_max.max(max);
    }

    /// The queue held `depth` requests from the last tick up to `now`.
    /// The engine ticks the depth integral before every queue
    /// mutation, so the recorder keeps its own advancing edge and the
    /// fast path is a single window-bound compare.
    #[inline]
    pub(crate) fn queue_depth_to(&mut self, now: u64, depth: u64) {
        let from = self.depth_last;
        if now <= from {
            return;
        }
        self.depth_last = now;
        // Fast path: the interval stays inside the current window.
        if now <= self.depth_hi {
            self.d_area += depth as u128 * (now - from) as u128;
            self.d_min = self.d_min.min(depth);
            self.d_max = self.d_max.max(depth);
            return;
        }
        // Slow path: flush the old window's scratch, write any whole
        // intermediate windows directly, and restart the scratch with
        // the segment that lands in the final window.
        self.flush_depth();
        let window = self.window;
        self.depth_win = ((now - 1) / window) as usize;
        self.depth_hi = (self.depth_win as u64 + 1) * window;
        let depth_lo = self.depth_hi - window;
        let mut t = from;
        while t < now {
            let end = ((t / window + 1) * window).min(now);
            if t >= depth_lo {
                self.d_area += depth as u128 * (end - t) as u128;
                self.d_min = self.d_min.min(depth);
                self.d_max = self.d_max.max(depth);
            } else {
                let acc = self.acc(t);
                acc.depth_area += depth as u128 * (end - t) as u128;
                acc.depth_min = acc.depth_min.min(depth);
                acc.depth_max = acc.depth_max.max(depth);
            }
            t = end;
        }
    }

    /// Writes one array's busy scratch into its cursor's window.
    fn flush_busy(&mut self, array: usize) {
        let cycles = self.busy_acc[array];
        if cycles == 0 {
            return;
        }
        self.busy_acc[array] = 0;
        let idx = self.busy_win[array];
        self.acc_idx(idx).busy[array] += cycles;
    }

    /// Array `array` executed a batch segment over `[from, to)`. Each
    /// array runs segments serially, so the per-array cursor advances
    /// without division; only a segment spanning several windows takes
    /// the splitting loop.
    #[inline]
    pub(crate) fn busy(&mut self, array: usize, from: u64, to: u64) {
        if to <= from {
            return;
        }
        debug_assert!(
            from + self.window >= self.busy_hi[array],
            "an array's busy segments must advance in time order"
        );
        if from >= self.busy_hi[array] {
            self.flush_busy(array);
            while from >= self.busy_hi[array] {
                self.busy_win[array] += 1;
                self.busy_hi[array] += self.window;
            }
        }
        // Fast path: the whole segment lies in the cursor's window.
        if to <= self.busy_hi[array] {
            self.busy_acc[array] += to - from;
            return;
        }
        // Slow path: flush the current window's scratch, write whole
        // intermediate windows directly, restart the scratch with the
        // tail segment and move the cursor to its window.
        self.flush_busy(array);
        let window = self.window;
        let last = ((to - 1) / window) as usize;
        let mut t = from;
        while t < to {
            let end = ((t / window + 1) * window).min(to);
            let idx = (t / window) as usize;
            if idx == last {
                self.busy_acc[array] += end - t;
            } else {
                self.acc_idx(idx).busy[array] += end - t;
            }
            t = end;
        }
        self.busy_win[array] = last;
        self.busy_hi[array] = (last as u64 + 1) * window;
    }

    /// Closes the recording at `makespan` and builds the report.
    pub(crate) fn finish(
        mut self,
        makespan: u64,
        arrays: Vec<String>,
        networks: Vec<String>,
        manifest: RunManifest,
    ) -> TimeSeriesReport {
        // Drain every stream's scratch and close the active completion
        // window (quantiles + fold into the run total).
        self.flush_arrivals();
        self.flush_depth();
        for a in 0..self.n_arrays {
            self.flush_busy(a);
        }
        self.close_completion_window();
        // Cover the full makespan even if the tail saw no events.
        self.acc(makespan.saturating_sub(1));
        let window = self.window;
        let makespan = makespan.max(1);
        let windows: Vec<WindowReport> = self
            .windows
            .iter()
            .enumerate()
            .map(|(i, acc)| {
                let start = i as u64 * window;
                // The last window may be clipped by the makespan.
                let width = (start + window).min(makespan).saturating_sub(start).max(1);
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
                    busy_frac: acc
                        .busy
                        .iter()
                        .map(|&b| (b as f64 / width as f64).min(1.0))
                        .collect(),
                    net_completed: acc.net_completed.clone(),
                    net_slo_met: acc.net_slo_met.clone(),
                    p50: acc.p50,
                    p99: acc.p99,
                    p999: acc.p999,
                }
            })
            .collect();
        let alerts = burn_alerts(&windows, &self.cfg);
        let mut exemplars = self.exemplars;
        exemplars.sort_by_key(|e| (std::cmp::Reverse(e.latency), e.id));
        TimeSeriesReport {
            window_cycles: window,
            makespan_cycles: makespan,
            objective: self.cfg.objective,
            fast_windows: self.cfg.fast_windows,
            slow_windows: self.cfg.slow_windows,
            burn_threshold: self.cfg.burn_threshold,
            exemplar_capacity: self.cfg.exemplars,
            arrays,
            networks,
            windows,
            alerts,
            exemplars,
            total: SketchSummary {
                count: self.total.count(),
                mean: self.total.mean(),
                min: self.total.min(),
                p50: self.total.quantile(500),
                p99: self.total.quantile(990),
                p999: self.total.quantile(999),
                max: self.total.max(),
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
/// fast span `[w−fast+1, w]` and the slow span `[w−slow+1, w]` show an
/// SLO miss fraction ≥ `burn_threshold × (1 − objective)`. The slow
/// span must be fully elapsed, so a run shorter than `slow_windows`
/// windows never alerts. Consecutive alerting windows merge into one
/// episode.
fn burn_alerts(windows: &[WindowReport], cfg: &TimeSeriesConfig) -> Vec<BurnAlert> {
    let budget = 1.0 - cfg.objective;
    let trigger = cfg.burn_threshold * budget;
    let mut alerts: Vec<BurnAlert> = Vec::new();
    let mut open: Option<BurnAlert> = None;
    for w in (cfg.slow_windows.saturating_sub(1))..windows.len() {
        let fast = miss_rate(windows, w + 1 - cfg.fast_windows, w);
        let slow = miss_rate(windows, w + 1 - cfg.slow_windows, w);
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
    /// Array names, pod order (indexes `WindowReport::busy_frac`).
    pub arrays: Vec<String>,
    /// Network names, workload order (indexes the per-net vectors).
    pub networks: Vec<String>,
    /// Per-window records covering `[0, makespan)`.
    pub windows: Vec<WindowReport>,
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
    /// Renders every deterministic field (everything except the
    /// manifest) — the byte stream behind [`Self::results_hash`].
    fn results_body(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "  \"schema\": \"{TIMESERIES_SCHEMA}\",");
        let _ = writeln!(out, "  \"config\": {{");
        let _ = writeln!(out, "    \"window_cycles\": {},", self.window_cycles);
        let _ = writeln!(out, "    \"objective\": {:.6},", self.objective);
        let _ = writeln!(out, "    \"fast_windows\": {},", self.fast_windows);
        let _ = writeln!(out, "    \"slow_windows\": {},", self.slow_windows);
        let _ = writeln!(out, "    \"burn_threshold\": {:.6},", self.burn_threshold);
        let _ = writeln!(
            out,
            "    \"exemplar_capacity\": {},",
            self.exemplar_capacity
        );
        let _ = writeln!(
            out,
            "    \"sketch_relative_error_bound\": {:.6}",
            QuantileSketch::RELATIVE_ERROR_BOUND
        );
        let _ = writeln!(out, "  }},");
        let (offered, completed, dropped, slo_met) = self
            .windows
            .iter()
            .fold((0u64, 0u64, 0u64, 0u64), |(o, c, d, s), w| {
                (o + w.offered, c + w.completed, d + w.dropped, s + w.slo_met)
            });
        let _ = writeln!(out, "  \"totals\": {{");
        let _ = writeln!(out, "    \"windows\": {},", self.windows.len());
        let _ = writeln!(out, "    \"alerts\": {},", self.alerts.len());
        let _ = writeln!(out, "    \"makespan_cycles\": {},", self.makespan_cycles);
        let _ = writeln!(out, "    \"offered\": {offered},");
        let _ = writeln!(out, "    \"completed\": {completed},");
        let _ = writeln!(out, "    \"dropped\": {dropped},");
        let _ = writeln!(out, "    \"slo_met\": {slo_met}");
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"latency_sketch\": {{");
        let _ = writeln!(out, "    \"count\": {},", self.total.count);
        let _ = writeln!(out, "    \"mean\": {:.3},", self.total.mean);
        let _ = writeln!(out, "    \"min\": {},", self.total.min);
        let _ = writeln!(out, "    \"p50\": {},", self.total.p50);
        let _ = writeln!(out, "    \"p99\": {},", self.total.p99);
        let _ = writeln!(out, "    \"p999\": {},", self.total.p999);
        let _ = writeln!(out, "    \"max\": {}", self.total.max);
        let _ = writeln!(out, "  }},");
        let quoted = |names: &[String]| {
            names
                .iter()
                .map(|n| format!("\"{}\"", json_escape(n)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = writeln!(out, "  \"arrays\": [{}],", quoted(&self.arrays));
        let _ = writeln!(out, "  \"networks\": [{}],", quoted(&self.networks));
        let _ = writeln!(out, "  \"windows\": [");
        let fmt_f64s = |vals: &[f64]| {
            vals.iter()
                .map(|v| format!("{v:.6}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let fmt_u64s = |vals: &[u64]| {
            vals.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        for (i, w) in self.windows.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"index\": {},", w.index);
            let _ = writeln!(
                out,
                "      \"start_cycle\": {},",
                w.index * self.window_cycles
            );
            let _ = writeln!(out, "      \"offered\": {},", w.offered);
            let _ = writeln!(out, "      \"completed\": {},", w.completed);
            let _ = writeln!(out, "      \"dropped\": {},", w.dropped);
            let _ = writeln!(out, "      \"slo_met\": {},", w.slo_met);
            let _ = writeln!(out, "      \"queue_min\": {},", w.queue_min);
            let _ = writeln!(out, "      \"queue_mean\": {:.3},", w.queue_mean);
            let _ = writeln!(out, "      \"queue_max\": {},", w.queue_max);
            let _ = writeln!(out, "      \"busy_frac\": [{}],", fmt_f64s(&w.busy_frac));
            let _ = writeln!(
                out,
                "      \"net_completed\": [{}],",
                fmt_u64s(&w.net_completed)
            );
            let _ = writeln!(
                out,
                "      \"net_slo_met\": [{}],",
                fmt_u64s(&w.net_slo_met)
            );
            let _ = writeln!(out, "      \"p50\": {},", w.p50);
            let _ = writeln!(out, "      \"p99\": {},", w.p99);
            let _ = writeln!(out, "      \"p999\": {}", w.p999);
            let _ = write!(out, "    }}");
            out.push_str(if i + 1 < self.windows.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"alerts\": [");
        for (i, a) in self.alerts.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"start_window\": {},", a.start_window);
            let _ = writeln!(out, "      \"end_window\": {},", a.end_window);
            let _ = writeln!(
                out,
                "      \"peak_fast_miss_rate\": {:.6},",
                a.peak_fast_miss_rate
            );
            let _ = writeln!(out, "      \"peak_burn_rate\": {:.3}", a.peak_burn_rate);
            let _ = write!(out, "    }}");
            out.push_str(if i + 1 < self.alerts.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"exemplars\": [");
        for (i, e) in self.exemplars.iter().enumerate() {
            let name = self.networks.get(e.net).map(String::as_str).unwrap_or("?");
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"id\": {},", e.id);
            let _ = writeln!(out, "      \"network\": \"{}\",", json_escape(name));
            let _ = writeln!(out, "      \"high_priority\": {},", e.high_priority);
            let _ = writeln!(out, "      \"arrived_cycle\": {},", e.arrived);
            let _ = writeln!(out, "      \"completed_cycle\": {},", e.completed_at);
            let _ = writeln!(out, "      \"latency_cycles\": {},", e.latency);
            let _ = writeln!(out, "      \"form_wait_cycles\": {},", e.form_wait);
            let _ = writeln!(out, "      \"queue_wait_cycles\": {},", e.queue_wait);
            let _ = writeln!(out, "      \"compute_cycles\": {},", e.compute);
            let _ = writeln!(out, "      \"refill_cycles\": {}", e.refill);
            let _ = write!(out, "    }}");
            out.push_str(if i + 1 < self.exemplars.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        let _ = writeln!(out, "  ],");
        out
    }

    /// `fnv1a64:<16 hex>` fingerprint of every deterministic result
    /// field; two same-seed runs must produce identical hashes.
    pub fn results_hash(&self) -> String {
        format!("fnv1a64:{:016x}", fnv1a64(self.results_body().as_bytes()))
    }

    /// Renders the report as JSON (schema
    /// `fuseconv-serve-timeseries-v1`), fingerprint and embedded run
    /// manifest included.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&self.results_body());
        let _ = writeln!(out, "  \"results_fnv1a64\": \"{}\",", self.results_hash());
        let _ = writeln!(
            out,
            "  \"manifest\": {}",
            self.manifest.to_json_pretty("  ")
        );
        out.push_str("}\n");
        out
    }

    /// Appends counter tracks to a pod trace: per-window goodput and
    /// per-array utilization, composing with the pid-0 batch lanes and
    /// the engine's own queue-depth counter.
    pub fn append_counters(&self, sink: &mut PodTraceSink) {
        for w in &self.windows {
            let at = w.index * self.window_cycles;
            sink.counter("goodput", at, w.slo_met as f64);
            for (a, frac) in w.busy_frac.iter().enumerate() {
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
            busy_frac: vec![0.5],
            net_completed: vec![completed],
            net_slo_met: vec![slo_met],
            p50: 10,
            p99: 20,
            p999: 30,
        }
    }

    fn cfg() -> TimeSeriesConfig {
        TimeSeriesConfig {
            fast_windows: 1,
            slow_windows: 4,
            burn_threshold: 10.0,
            objective: 0.99,
            ..TimeSeriesConfig::new()
        }
    }

    #[test]
    fn healthy_windows_never_alert() {
        // 0.5% misses: below the 10x-budget (10%) trigger everywhere.
        let windows: Vec<WindowReport> = (0..16).map(|i| window(i, 200, 199)).collect();
        assert!(burn_alerts(&windows, &cfg()).is_empty());
    }

    #[test]
    fn sustained_burn_alerts_once_and_merges_windows() {
        // Healthy for 6 windows, then a sustained 50% miss rate: one
        // episode, starting only after the slow span fills with misses.
        let mut windows: Vec<WindowReport> = (0..6).map(|i| window(i, 100, 100)).collect();
        for i in 6..16 {
            windows.push(window(i, 100, 50));
        }
        let alerts = burn_alerts(&windows, &cfg());
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
        assert!(burn_alerts(&windows, &cfg()).is_empty());
    }

    #[test]
    fn empty_windows_do_not_divide_by_zero() {
        let windows: Vec<WindowReport> = (0..8).map(|i| window(i, 0, 0)).collect();
        assert!(burn_alerts(&windows, &cfg()).is_empty());
    }

    #[test]
    fn recorder_bins_intervals_across_window_boundaries() {
        let ts_cfg = TimeSeriesConfig {
            window_cycles: Some(100),
            ..TimeSeriesConfig::new()
        };
        let mut rec = TimeSeriesRecorder::new(&ts_cfg, 1000, 2, 1);
        // A busy segment spanning three windows: 50 + 100 + 30 cycles.
        rec.busy(0, 50, 230);
        // Queue depth 0 up to cycle 50, then 4 over the same interval.
        rec.queue_depth_to(50, 0);
        rec.queue_depth_to(230, 4);
        rec.offered(10);
        rec.dropped(10);
        let report = rec.finish(
            250,
            vec!["a0".to_string(), "a1".to_string()],
            vec!["net".to_string()],
            RunManifest::capture(),
        );
        assert_eq!(report.windows.len(), 3);
        assert!((report.windows[0].busy_frac[0] - 0.5).abs() < 1e-9);
        assert!((report.windows[1].busy_frac[0] - 1.0).abs() < 1e-9);
        // Final window is clipped to the 250-cycle makespan: 30/50.
        assert!((report.windows[2].busy_frac[0] - 0.6).abs() < 1e-9);
        assert_eq!(report.windows[0].queue_max, 4);
        assert!((report.windows[1].queue_mean - 4.0).abs() < 1e-9);
        assert_eq!(report.windows[0].offered, 1);
        assert_eq!(report.windows[0].dropped, 1);
    }

    #[test]
    fn exemplars_keep_the_k_worst_deterministically() {
        let ts_cfg = TimeSeriesConfig {
            window_cycles: Some(1000),
            exemplars: 3,
            ..TimeSeriesConfig::new()
        };
        let mut rec = TimeSeriesRecorder::new(&ts_cfg, 1000, 1, 1);
        for (id, latency) in [(0, 50), (1, 900), (2, 10), (3, 700), (4, 800), (5, 900)] {
            rec.completed(
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
        let report = rec.finish(
            1000,
            vec!["a".to_string()],
            vec!["net".to_string()],
            RunManifest::capture(),
        );
        let kept: Vec<(u64, u64)> = report.exemplars.iter().map(|e| (e.latency, e.id)).collect();
        // Worst first; the 900-latency tie keeps the earlier id first.
        assert_eq!(kept, vec![(900, 1), (900, 5), (800, 4)]);
    }

    #[test]
    fn json_is_balanced_tagged_and_fingerprinted() {
        let ts_cfg = TimeSeriesConfig {
            window_cycles: Some(100),
            ..TimeSeriesConfig::new()
        };
        let mut rec = TimeSeriesRecorder::new(&ts_cfg, 300, 1, 1);
        rec.offered(5);
        rec.completed(
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
        let report = rec.finish(
            300,
            vec!["8x8:os".to_string()],
            vec!["tiny".to_string()],
            RunManifest::capture(),
        );
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
        let bad = |f: fn(&mut TimeSeriesConfig)| {
            let mut c = TimeSeriesConfig::new();
            f(&mut c);
            c.validate().is_err()
        };
        assert!(bad(|c| c.window_cycles = Some(0)));
        assert!(bad(|c| c.target_windows = 0));
        assert!(bad(|c| c.fast_windows = 0));
        assert!(bad(|c| {
            c.fast_windows = 4;
            c.slow_windows = 2;
        }));
        assert!(bad(|c| c.objective = 1.5));
        assert!(bad(|c| c.burn_threshold = 0.0));
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
