//! The discrete-event serving engine.
//!
//! Events pop in `(time, seq)` order — `seq` is a monotone
//! tie-breaker, so simultaneous events pop in creation order and the
//! whole simulation is a pure function of its inputs. The clock is
//! `u64` array cycles. Arrivals are generated lazily, so exactly one is
//! ever pending: the event queue is the arrival slot plus a `Vec` of
//! the other kinds kept sorted by descending `(time, seq)`. Its pending
//! completions (one live per busy array, plus stale ones of preempted
//! batches) and deadlines keep it about pod-size short however many
//! requests are simulated, so an insert is a binary search and a short
//! move, and the next event is its last. The queue pops whichever of
//! the slot and that last event is smaller, the same total order one
//! heap of every event would give.
//!
//! Event kinds:
//!
//! * **Arrival** — admit (or drop) a request, draw the next arrival,
//!   try to dispatch;
//! * **ArrayDone** — an array finished its batch. The running batch
//!   holds the `seq` of its completion; a completion with any other
//!   `seq` belongs to a preempted batch, and it still pops and counts
//!   in `events` and the makespan, but changes nothing;
//! * **PodDone** — a sharded batch's slowest share finished;
//! * **Deadline** — a batching max-wait expired; re-run dispatch.
//!
//! Dispatch picks, per launched batch, the idle array with the lowest
//! analytic cost for that network/batch size ([`crate::CostOracle`]),
//! walking a bitset of the idle arrays upward so ties go to the lowest
//! index.
//! Under [`Dispatch::Sharded`] the whole pod serves one batch at a
//! time via the oracle's LPT shard plan, borrowed from its memo. The
//! steady-state loop hashes and allocates nothing per request: oracle
//! probes are hash-free, a completed batch hands its member buffer back
//! to the queue for the next launch, trace labels are formatted only
//! when a [`PodTraceSink`] is attached, and metrics are flushed once
//! after the loop. Optional preemption lets a
//! high-priority arrival evict a running non-priority batch at fold
//! granularity, but only when that finishes the arrival earlier than
//! waiting for the first free array would; the victim's remaining
//! cycles (plus a `rows + cols` pipeline-refill penalty) re-enter a
//! resume queue served after the high-priority lane but ahead of
//! normal traffic — the freed array goes to the triggering request,
//! never straight back to its victim.

use crate::batch::{Batch, BatchPolicy, Pending, RequestQueue};
use crate::oracle::CostOracle;
use crate::report::{ArrayReport, LatencyStats, NetworkReport, QueueStats, ServeReport};
use crate::spec::{PodSpec, ServeError};
use crate::timeseries::{
    BusyTally, Exemplar, Tallies, TimeSeriesConfig, TimeSeriesRecorder, TimeSeriesReport,
};
use crate::trace::PodTraceSink;
use crate::traffic::{TrafficGen, Workload};
use fuseconv_telemetry::RunManifest;
use std::collections::VecDeque;

/// How a request's work maps onto the pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Each batch runs whole on a single array (the cheapest idle
    /// one); arrays serve independent batches concurrently.
    Whole,
    /// Each batch's ops are LPT-sharded across every array; the pod
    /// serves one batch at a time and the batch finishes with its
    /// slowest share.
    Sharded,
}

impl Dispatch {
    /// Parses `whole` / `sharded`.
    pub fn parse(name: &str) -> Option<Dispatch> {
        match name {
            "whole" => Some(Dispatch::Whole),
            "sharded" => Some(Dispatch::Sharded),
            _ => None,
        }
    }

    /// The mode's short name.
    pub fn name(&self) -> &'static str {
        match self {
            Dispatch::Whole => "whole",
            Dispatch::Sharded => "sharded",
        }
    }
}

/// Everything that parameterises one pod simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Batching policy.
    pub policy: BatchPolicy,
    /// Dispatch mode.
    pub dispatch: Dispatch,
    /// Whether high-priority arrivals may preempt running batches
    /// (whole dispatch only).
    pub preemption: bool,
    /// Queue admission bound; arrivals beyond it are dropped.
    pub queue_capacity: usize,
    /// Requests to generate.
    pub requests: u64,
    /// Offered load as a fraction of estimated pod capacity (1.0
    /// saturates; >1.0 overloads).
    pub load: f64,
    /// PRNG seed for the arrival process.
    pub seed: u64,
    /// Fraction of requests tagged high priority.
    pub high_priority_frac: f64,
    /// SLO target multiplier over each network's best isolated
    /// batch-1 service time; finite and at least 1.
    pub slo_multiplier: f64,
    /// Absolute SLO budget in cycles; when set it overrides the
    /// relative multiplier for every network. Unlike the multiplier
    /// (at least 1× the isolated floor, hence always attainable),
    /// an absolute budget can sit below a network's zero-queueing
    /// floor — the SRV002 infeasibility the analyzer proves statically.
    pub slo_budget_cycles: Option<u64>,
    /// Number of provisioned shape buckets under
    /// [`BatchPolicy::Bucketed`]: only the first N workload networks
    /// get a compiled batch shape, requests for the rest are rejected
    /// at admission. `None` provisions every network.
    pub shape_buckets: Option<usize>,
}

impl ServeConfig {
    /// Sensible defaults: FIFO, whole dispatch, no preemption, queue
    /// capacity 4096, 100 000 requests at 80 % load, seed 42, SLO at
    /// 10× isolated latency, every shape bucket provisioned.
    pub fn new() -> Self {
        ServeConfig {
            policy: BatchPolicy::Fifo,
            dispatch: Dispatch::Whole,
            preemption: false,
            queue_capacity: 4096,
            requests: 100_000,
            load: 0.8,
            seed: 42,
            high_priority_frac: 0.0,
            slo_multiplier: 10.0,
            slo_budget_cycles: None,
            shape_buckets: None,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig::new()
    }
}

impl ServeConfig {
    /// Checks the configuration on its own, before any pod or workload
    /// is consulted. [`simulate_observed`] and the analyzer's pod audit
    /// both start here and end with [`ServeConfig::validate_clock`], so
    /// they reject exactly the same configurations.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for zero requests, a non-finite or
    /// non-positive load, a high-priority fraction outside `[0, 1]`, an
    /// SLO multiplier that is not finite and at least 1, preemption
    /// under sharded dispatch, shape buckets without the bucketed
    /// policy, a zero `max_batch` or a zero queue capacity.
    pub fn validate(&self) -> Result<(), ServeError> {
        let zero_batch = matches!(
            self.policy,
            BatchPolicy::Dynamic { max_batch: 0, .. } | BatchPolicy::Bucketed { max_batch: 0, .. }
        );
        let problem = if self.requests == 0 {
            "requests must be at least 1".to_string()
        } else if !(self.load.is_finite() && self.load > 0.0) {
            format!("load must be finite and positive, got {}", self.load)
        } else if !(0.0..=1.0).contains(&self.high_priority_frac) {
            let frac = self.high_priority_frac;
            format!("high-priority fraction must lie in [0, 1], got {frac}")
        } else if !(self.slo_multiplier.is_finite() && self.slo_multiplier >= 1.0) {
            let mult = self.slo_multiplier;
            format!("SLO multiplier must be finite and at least 1, got {mult}")
        } else if self.preemption && self.dispatch == Dispatch::Sharded {
            "preemption requires whole-request dispatch".to_string()
        } else if self.shape_buckets.is_some()
            && !matches!(self.policy, BatchPolicy::Bucketed { .. })
        {
            "shape buckets require the bucketed batching policy".to_string()
        } else if zero_batch {
            "max_batch must be at least 1".to_string()
        } else if self.queue_capacity == 0 {
            "queue capacity must be at least 1".to_string()
        } else {
            return Ok(());
        };
        Err(ServeError::Config(problem))
    }

    /// Checks that the arrivals, and a batch head's wait past the last of
    /// them, stay within the u64 clock on a pod serving `capacity`
    /// requests per cycle at full load. [`simulate_observed`] and the
    /// analyzer's pod audit both call it once they know the capacity.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] when the load spreads the requests
    /// so thin that the arrivals could reach half the clock's range, or
    /// when a batching `max_wait` could carry a deadline past it.
    pub fn validate_clock(&self, capacity: f64) -> Result<(), ServeError> {
        // `next_f64` has 53 bits, so one gap is at most ln(2^53) ≈ 36.7 mean
        // gaps. Arrivals that could span half the u64 clock leave too little
        // for service: time would saturate and latencies read 0.
        let mean_gap = 1.0 / (self.load * capacity);
        let max_span = self.requests as f64 * mean_gap * 53.0 * std::f64::consts::LN_2;
        if max_span >= (1u64 << 63) as f64 {
            return Err(ServeError::Config(format!(
                "load {:e} spreads {} arrivals over up to {max_span:.3e} cycles, past the clock's range",
                self.load, self.requests
            )));
        }
        // A batch head may wait `max_wait` past the last arrival.
        let max_wait = match self.policy {
            BatchPolicy::Fifo => 0,
            BatchPolicy::Dynamic { max_wait, .. } | BatchPolicy::Bucketed { max_wait, .. } => {
                max_wait
            }
        };
        if max_span + max_wait as f64 >= (1u64 << 63) as f64 {
            return Err(ServeError::Config(format!(
                "max_wait {max_wait} past arrivals spanning up to {max_span:.3e} cycles leaves the clock's range"
            )));
        }
        Ok(())
    }
}

/// Event payloads. Indices are `u32` so an [`Event`] stays 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvKind {
    Arrival { net: u32, high: bool },
    ArrayDone { array: u32 },
    PodDone,
    Deadline,
}

/// A pending event: `(time, seq, kind)`.
type Event = (u64, u64, EvKind);

/// An array or network index as an [`EvKind`] stores it.
fn ev_index(i: usize) -> u32 {
    u32::try_from(i).expect("no pod or workload in memory has 2^32 members")
}

/// The event set, popped in `(time, seq)` order. Arrivals are drawn one
/// at a time, so at most one is ever pending: it waits in its own slot.
/// The other events, about one per array, sit in a run sorted by
/// descending `(time, seq)`, so the next one is last.
#[derive(Debug, Default)]
struct EventQueue {
    arrival: Option<Event>,
    run: Vec<Event>,
    seq: u64,
}

impl EventQueue {
    /// Schedules `kind` at `at`, after every event already scheduled
    /// for the same time, and returns the `seq` it was given.
    fn push(&mut self, at: u64, kind: EvKind) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        let ev = (at, seq, kind);
        if let EvKind::Arrival { .. } = kind {
            debug_assert!(self.arrival.is_none(), "one pending arrival at a time");
            self.arrival = Some(ev);
        } else {
            // The newest `seq` sorts ahead of (pops after) every
            // event already scheduled for `at`.
            let i = self.run.partition_point(|e| e.0 > at);
            self.run.insert(i, ev);
        }
        seq
    }

    /// Removes and returns the event with the smallest `(time, seq)`.
    fn pop(&mut self) -> Option<Event> {
        let next = self.run.last().map(|&(at, seq, _)| (at, seq));
        match self.arrival {
            Some((at, seq, _)) if next.is_none_or(|n| (at, seq) < n) => self.arrival.take(),
            _ => self.run.pop(),
        }
    }
}

/// The idle arrays of a pod, one bit per array in `u64` words, so the
/// lowest idle array is a word scan away.
#[derive(Debug)]
struct IdleSet {
    words: Vec<u64>,
}

impl IdleSet {
    /// A set holding every one of `n` arrays.
    fn full(n: usize) -> Self {
        let len = n.div_ceil(64);
        let mut words = vec![u64::MAX; len];
        if let Some(last) = words.last_mut() {
            *last >>= len * 64 - n;
        }
        IdleSet { words }
    }

    fn insert(&mut self, a: usize) {
        self.words[a / 64] |= 1 << (a % 64);
    }

    fn remove(&mut self, a: usize) {
        self.words[a / 64] &= !(1 << (a % 64));
    }

    /// The lowest idle array at or above `from`.
    fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.words.get(w)? & (u64::MAX << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.words.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// The idle arrays at or above `from`, in increasing order.
    fn iter_from(&self, from: usize) -> impl Iterator<Item = usize> + '_ {
        let mut next = self.next_from(from);
        std::iter::from_fn(move || {
            let a = next?;
            next = self.next_from(a + 1);
            Some(a)
        })
    }
}

/// A batch currently executing on one array.
#[derive(Debug)]
struct Running {
    batch: Batch,
    started: u64,
    done: u64,
    /// `seq` of the batch's `ArrayDone`; any other completion popped
    /// for the array belongs to a preempted batch.
    seq: u64,
}

#[derive(Debug, Default)]
struct ArrayState {
    batches: u64,
    requests: u64,
    running: Option<Running>,
}

/// A preempted batch waiting to re-run: remaining cycles already
/// include the refill penalty.
#[derive(Debug)]
struct ResumeJob {
    batch: Batch,
    remaining: u64,
    /// When the batch was evicted; the gap until relaunch is queue
    /// wait in the batch's phase accounting.
    evicted_at: u64,
}

struct Engine<'a> {
    pod: &'a PodSpec,
    cfg: &'a ServeConfig,
    oracle: CostOracle,
    queue: RequestQueue,
    timeline: EventQueue,
    arrays: Vec<ArrayState>,
    /// Arrays with no running batch; kept by `launch`, `complete` and
    /// the eviction in `maybe_preempt`.
    idle: IdleSet,
    /// Per-array busy cycles, beside `arrays` so the recorder can
    /// borrow them as one slice.
    busy: Vec<BusyTally>,
    resume: VecDeque<ResumeJob>,
    pod_running: Option<(Batch, u64, u64)>,
    traffic: TrafficGen,
    emitted: u64,
    next_id: u64,
    net_names: Vec<String>,
    slo_target: Vec<u64>,
    // Outcome accumulators.
    latencies: Vec<u64>,
    high_latencies: Vec<u64>,
    net_completed: Vec<u64>,
    net_slo_met: Vec<u64>,
    offered: u64,
    dropped: u64,
    batches: u64,
    preemptions: u64,
    events: u64,
    makespan: u64,
    // Time-weighted queue-depth integral.
    depth_area: u128,
    depth_last_t: u64,
    max_depth: u64,
    deadline_scheduled: Option<u64>,
    trace: Option<&'a mut PodTraceSink>,
    ts: Option<TimeSeriesRecorder>,
}

impl<'a> Engine<'a> {
    /// Advances the queue-depth integral, and the time-series
    /// recorder's clock, to `now`. Called once per event before the
    /// event changes anything, so the flushed interval carries the
    /// depth the queue held throughout it, the recorder's depth
    /// intervals exactly tile `[0, makespan]`, and the tallies it reads
    /// cover exactly the events before `now`.
    fn tick(&mut self, now: u64) {
        let from = self.depth_last_t;
        if now <= from {
            return;
        }
        let depth = self.queue.len() as u64;
        let area_from = self.depth_area;
        self.depth_area += depth as u128 * (now - from) as u128;
        self.depth_last_t = now;
        if let Some(ts) = &mut self.ts {
            ts.tick(from, now, depth, area_from, || Tallies {
                offered: self.offered,
                dropped: self.dropped,
                latencies: &self.latencies,
                net_completed: &self.net_completed,
                net_slo_met: &self.net_slo_met,
                depth_area: self.depth_area,
                busy: &self.busy,
            });
        }
    }

    fn note_depth(&mut self, now: u64) {
        let depth = self.queue.len() as u64;
        self.max_depth = self.max_depth.max(depth);
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.queue_depth(now, depth as usize);
        }
    }

    fn launch(&mut self, array: usize, mut batch: Batch, service: u64, now: u64, resumed: bool) {
        if !resumed {
            // Formation → launch is queue wait; a resumed batch's
            // evict → relaunch wait was credited at resume-pop time.
            batch.phase.queue_wait += now.saturating_sub(batch.phase.formed_at);
        }
        let done = now.saturating_add(service.max(1));
        self.busy[array].book(now, done);
        let seq = self.timeline.push(
            done,
            EvKind::ArrayDone {
                array: ev_index(array),
            },
        );
        self.idle.remove(array);
        let state = &mut self.arrays[array];
        if !resumed {
            state.batches += 1;
            self.batches += 1;
        }
        state.running = Some(Running {
            batch,
            started: now,
            done,
            seq,
        });
    }

    /// Finishes the batch running on `array`, if its `ArrayDone` is the
    /// one popped (sequence number `seq`); a preempted batch's stale
    /// completion changes nothing and returns `false`.
    fn complete(&mut self, array: usize, seq: u64, now: u64) -> bool {
        let Some(mut run) = self.arrays[array].running.take_if(|run| run.seq == seq) else {
            return false;
        };
        self.idle.insert(array);
        self.arrays[array].requests += run.batch.requests.len() as u64;
        run.batch.phase.on_array += now.saturating_sub(run.started);
        if let Some(trace) = self.trace.as_deref_mut() {
            let label = batch_label(&self.net_names, &run.batch);
            trace.batch_span(array, run.started, now, &label);
        }
        self.record_completions(run.batch, now);
        true
    }

    /// Records a completed batch's members and recycles its buffer.
    fn record_completions(&mut self, batch: Batch, now: u64) {
        let ph = batch.phase;
        // Re-preemption during a refill replay can book more refill
        // than on-array time; clamp so compute never underflows.
        let refill = ph.refill.min(ph.on_array);
        let compute = ph.on_array - refill;
        for p in &batch.requests {
            let latency = now.saturating_sub(p.arrived);
            let form_wait = ph.formed_at.saturating_sub(p.arrived);
            debug_assert_eq!(
                form_wait + ph.queue_wait + compute + refill,
                latency,
                "phase cycles must sum to end-to-end latency (request {})",
                p.id
            );
            self.latencies.push(latency);
            if p.high_priority {
                self.high_latencies.push(latency);
            }
            self.net_completed[p.net] += 1;
            let met = latency <= self.slo_target[p.net];
            if met {
                self.net_slo_met[p.net] += 1;
            }
            if let Some(ts) = &mut self.ts {
                // The full phase-accounted record is assembled only
                // for the rare tail candidate.
                if ts.wants_exemplar(latency, p.id) {
                    ts.offer_exemplar(Exemplar {
                        id: p.id,
                        net: p.net,
                        high_priority: p.high_priority,
                        arrived: p.arrived,
                        completed_at: now,
                        latency,
                        form_wait,
                        queue_wait: ph.queue_wait,
                        compute,
                        refill,
                    });
                }
            }
        }
        self.queue.recycle(batch.requests);
    }

    /// Evicts a running non-priority batch to free an array for a
    /// just-admitted high-priority request of network `net`.
    ///
    /// The victim is the array on which the request would finish
    /// earliest (start `now`, run at that array's batch-1 cost); ties
    /// break toward the latest-completing (least urgent) batch, then
    /// the lower array index. No eviction happens at all when simply
    /// waiting for the first array to free — where the high-priority
    /// lane is served first — would finish the request no later, so a
    /// preemption can only ever shorten the triggering request's
    /// latency.
    fn maybe_preempt(&mut self, now: u64, net: usize) -> Result<(), ServeError> {
        if self.idle.next_from(0).is_some() {
            return Ok(());
        }
        // Finish time without preempting: the first array to free runs
        // the request next (high lane outranks resume + normal lanes).
        let mut wait_finish = u64::MAX;
        // Finish time with preempting, per candidate victim.
        let mut best: Option<(u64, u64, usize)> = None; // (finish, done, array)
        for a in 0..self.arrays.len() {
            let Some(run) = self.arrays[a].running.as_ref() else {
                continue;
            };
            let done = run.done;
            let high = run.batch.high_priority;
            let cost = self.oracle.request_cycles(a, net, 1)?;
            wait_finish = wait_finish.min(done.saturating_add(cost));
            if high {
                continue; // never evict another high-priority batch
            }
            let finish = now.saturating_add(cost);
            let better = match best {
                None => true,
                Some((bf, bd, _)) => finish < bf || (finish == bf && done > bd),
            };
            if better {
                best = Some((finish, done, a));
            }
        }
        let Some((finish, _, victim)) = best else {
            return Ok(());
        };
        if finish >= wait_finish {
            return Ok(()); // waiting is at least as fast: don't waste work
        }
        // Its in-flight ArrayDone goes stale with the batch.
        let Some(mut run) = self.arrays[victim].running.take() else {
            return Ok(());
        };
        self.idle.insert(victim);
        self.busy[victim].cut(now);
        run.batch.phase.on_array += now.saturating_sub(run.started);
        let refill = self.pod.arrays[victim].refill_penalty();
        // The refill cycles will replay on-array at resume time; book
        // them now so the phase split survives the round trip.
        run.batch.phase.refill += refill;
        let remaining = run.done.saturating_sub(now).saturating_add(refill);
        self.preemptions += 1;
        if let Some(trace) = self.trace.as_deref_mut() {
            let label = batch_label(&self.net_names, &run.batch);
            trace.batch_span(victim, run.started, now, &format!("{label} (preempted)"));
            trace.preemption(victim, now, &label);
        }
        self.resume.push_back(ResumeJob {
            batch: run.batch,
            remaining,
            evicted_at: now,
        });
        Ok(())
    }

    /// Launches `batch` on whichever idle array prices it cheapest,
    /// walking the idle set from `first_idle` (the lowest-index idle
    /// array) upward so ties go to the lowest index.
    fn launch_cheapest(
        &mut self,
        first_idle: usize,
        batch: Batch,
        now: u64,
    ) -> Result<(), ServeError> {
        let size = batch.requests.len();
        let mut best = first_idle;
        let mut best_cost = u64::MAX;
        for a in self.idle.iter_from(first_idle) {
            let cost = self.oracle.request_cycles(a, batch.net, size)?;
            if cost < best_cost {
                best_cost = cost;
                best = a;
            }
        }
        self.launch(best, batch, best_cost, now, false);
        Ok(())
    }

    fn dispatch_whole(&mut self, now: u64) -> Result<(), ServeError> {
        while let Some(first_idle) = self.idle.next_from(0) {
            // The high-priority lane outranks preempted work: when an
            // eviction frees an array, the triggering request must take
            // it, not the victim it just displaced.
            if let Some(batch) = self.queue.pop_high() {
                self.note_depth(now);
                self.launch_cheapest(first_idle, batch, now)?;
                continue;
            }
            if let Some(mut job) = self.resume.pop_front() {
                // Remaining cycles were measured on the victim array;
                // re-running them anywhere at face value idealises the
                // resume (fold-granularity approximation).
                job.batch.phase.queue_wait += now.saturating_sub(job.evicted_at);
                self.launch(first_idle, job.batch, job.remaining, now, true);
                continue;
            }
            let Some(batch) = self.queue.pop_batch(now) else {
                self.note_depth(now);
                break;
            };
            self.note_depth(now);
            self.launch_cheapest(first_idle, batch, now)?;
        }
        self.schedule_deadline(now, self.idle.next_from(0).is_some());
        Ok(())
    }

    fn dispatch_sharded(&mut self, now: u64) -> Result<(), ServeError> {
        if self.pod_running.is_none() {
            let popped = self.queue.pop_batch(now);
            self.note_depth(now);
            if let Some(mut batch) = popped {
                batch.phase.queue_wait += now.saturating_sub(batch.phase.formed_at);
                let plan = self
                    .oracle
                    .shard_plan_ref(batch.net, batch.requests.len())?;
                let label = self
                    .trace
                    .is_some()
                    .then(|| batch_label(&self.net_names, &batch));
                // The critical array (largest share) carries the
                // request count so per-array sums stay accountable.
                let critical = plan
                    .shares
                    .iter()
                    .enumerate()
                    .max_by_key(|&(i, &s)| (s, std::cmp::Reverse(i)))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                // Credited outside the share==0 skip so the per-array
                // requests == completed invariant holds even for an
                // all-zero shard plan.
                self.arrays[critical].requests += batch.requests.len() as u64;
                for (a, &share) in plan.shares.iter().enumerate() {
                    if share == 0 {
                        continue;
                    }
                    self.arrays[a].batches += 1;
                    let end = now.saturating_add(share);
                    self.busy[a].book(now, end);
                    if let (Some(trace), Some(label)) = (self.trace.as_deref_mut(), &label) {
                        trace.batch_span(a, now, end, label);
                    }
                }
                self.batches += 1;
                let done = now.saturating_add(plan.makespan.max(1));
                self.pod_running = Some((batch, now, done));
                self.timeline.push(done, EvKind::PodDone);
                return Ok(());
            }
        }
        self.schedule_deadline(now, self.pod_running.is_none());
        Ok(())
    }

    /// Books a wake-up at the queue's next batching deadline, but only
    /// while capacity sits idle (a busy pod re-dispatches on its own
    /// completion events).
    fn schedule_deadline(&mut self, now: u64, capacity_idle: bool) {
        if !capacity_idle || self.queue.is_empty() {
            return;
        }
        if let Some(d) = self.queue.next_deadline() {
            let at = d.max(now.saturating_add(1));
            let stale = match self.deadline_scheduled {
                None => true,
                Some(s) => at < s || s <= now,
            };
            if stale {
                self.deadline_scheduled = Some(at);
                self.timeline.push(at, EvKind::Deadline);
            }
        }
    }

    fn dispatch(&mut self, now: u64) -> Result<(), ServeError> {
        match self.cfg.dispatch {
            Dispatch::Whole => self.dispatch_whole(now),
            Dispatch::Sharded => self.dispatch_sharded(now),
        }
    }
}

/// Runs one pod simulation to completion and returns its report.
///
/// Deterministic: the report's `results_fnv1a64` is a pure function of
/// `(pod, workload, cfg)`. Pass a [`PodTraceSink`] to also collect a
/// Chrome trace of the schedule.
///
/// # Errors
///
/// Returns [`ServeError::Config`] for inconsistent configurations
/// (zero requests, non-positive load, preemption under sharded
/// dispatch, a load offering more than one request per cycle, so few
/// that the arrivals could saturate the clock, or a batching `max_wait`
/// that could carry a deadline past it) and propagates oracle
/// errors for ops the latency model rejects.
pub fn simulate(
    pod: &PodSpec,
    workload: &Workload,
    cfg: &ServeConfig,
    trace: Option<&mut PodTraceSink>,
) -> Result<ServeReport, ServeError> {
    simulate_observed(pod, workload, cfg, trace, None).map(|(report, _)| report)
}

/// Runs one pod simulation like [`simulate`], optionally recording a
/// windowed [`TimeSeriesReport`] alongside the aggregate report.
///
/// With `timeseries` set, the engine additionally bins its arrivals,
/// completions, queue depth and per-array busy cycles into fixed
/// windows; the returned [`TimeSeriesReport`] carries per-window
/// counters, burn-rate alerts and tail exemplars whose phase cycles
/// sum exactly to each request's end-to-end latency. Recording is
/// deterministic: the time-series `results_fnv1a64` is a pure function
/// of `(pod, workload, cfg, timeseries)`.
///
/// # Errors
///
/// Everything [`simulate`] rejects, plus [`ServeError::Config`] for an
/// invalid [`TimeSeriesConfig`].
pub fn simulate_observed(
    pod: &PodSpec,
    workload: &Workload,
    cfg: &ServeConfig,
    trace: Option<&mut PodTraceSink>,
    timeseries: Option<&TimeSeriesConfig>,
) -> Result<(ServeReport, Option<TimeSeriesReport>), ServeError> {
    let _span = fuseconv_telemetry::span("serve.simulate");
    if let Some(ts_cfg) = timeseries {
        ts_cfg.validate()?;
    }
    cfg.validate()?;
    let models = pod.models()?;
    let mut oracle = CostOracle::new(models, workload.networks());
    let n_nets = workload.len();

    // SLO targets: the absolute budget when configured, otherwise
    // slo_multiplier × best isolated batch-1 latency.
    let mut slo_target = Vec::with_capacity(n_nets);
    for net in 0..n_nets {
        let best = oracle.best_cycles(net)? as f64;
        slo_target.push(match cfg.slo_budget_cycles {
            Some(budget) => budget,
            None => (best * cfg.slo_multiplier).round() as u64,
        });
    }

    // Pod capacity estimate (requests/cycle) calibrates offered load;
    // the same oracle formula backs the analyzer's SRV001 ρ, so the
    // static and simulated offered loads agree by construction.
    let capacity = oracle.pod_capacity(&workload.mix_fractions(), cfg.dispatch)?;
    let mean_gap = 1.0 / (cfg.load * capacity);
    if mean_gap.is_nan() || mean_gap < 1.0 {
        return Err(ServeError::Config(format!(
            "load {} offers {:.3} requests per cycle; arrivals are at least one cycle apart",
            cfg.load,
            cfg.load * capacity
        )));
    }
    cfg.validate_clock(capacity)?;

    // Automatic window sizing targets the *expected* makespan (the
    // arrival span at the offered rate); an overloaded run simply
    // grows extra windows past the target count.
    let expected_makespan = (cfg.requests as f64 * mean_gap).ceil().max(1.0) as u64;
    let recorder = timeseries.map(|c| {
        let window = (expected_makespan / c.target_windows as u64).max(1);
        TimeSeriesRecorder::new(c, window, pod.len(), n_nets)
    });

    let covered = cfg.shape_buckets.map_or(n_nets, |k| k.min(n_nets));

    let mut engine = Engine {
        pod,
        cfg,
        oracle,
        queue: RequestQueue::new(cfg.policy, cfg.queue_capacity, n_nets)
            .with_covered_buckets(covered),
        timeline: EventQueue::default(),
        arrays: (0..pod.len()).map(|_| ArrayState::default()).collect(),
        idle: IdleSet::full(pod.len()),
        busy: vec![BusyTally::default(); pod.len()],
        resume: VecDeque::new(),
        pod_running: None,
        traffic: TrafficGen::new(cfg.seed, mean_gap, workload, cfg.high_priority_frac),
        emitted: 0,
        next_id: 0,
        net_names: workload
            .networks()
            .iter()
            .map(|n| n.name().to_string())
            .collect(),
        slo_target,
        latencies: Vec::with_capacity(cfg.requests.min(2_000_000) as usize),
        high_latencies: Vec::new(),
        net_completed: vec![0; n_nets],
        net_slo_met: vec![0; n_nets],
        offered: 0,
        dropped: 0,
        batches: 0,
        preemptions: 0,
        events: 0,
        makespan: 0,
        depth_area: 0,
        depth_last_t: 0,
        max_depth: 0,
        deadline_scheduled: None,
        trace,
        ts: recorder,
    };

    let first = engine.traffic.next_after(0);
    engine.emitted = 1;
    engine.timeline.push(
        first.at,
        EvKind::Arrival {
            net: ev_index(first.net),
            high: first.high_priority,
        },
    );

    while let Some((now, seq, kind)) = engine.timeline.pop() {
        engine.events += 1;
        engine.makespan = engine.makespan.max(now);
        engine.tick(now);
        match kind {
            EvKind::Arrival { net, high } => {
                let net = net as usize;
                engine.offered += 1;
                let pending = Pending {
                    id: engine.next_id,
                    net,
                    arrived: now,
                    high_priority: high,
                };
                engine.next_id += 1;
                let admitted = engine.queue.push(pending);
                if !admitted {
                    engine.dropped += 1;
                }
                engine.note_depth(now);
                if engine.emitted < cfg.requests {
                    let next = engine.traffic.next_after(now);
                    engine.emitted += 1;
                    engine.timeline.push(
                        next.at,
                        EvKind::Arrival {
                            net: ev_index(next.net),
                            high: next.high_priority,
                        },
                    );
                }
                // Only an admitted high-priority request may evict;
                // preempting for a dropped arrival is pure added work.
                if cfg.preemption && high && admitted {
                    engine.maybe_preempt(now, net)?;
                }
                engine.dispatch(now)?;
            }
            EvKind::ArrayDone { array } => {
                if !engine.complete(array as usize, seq, now) {
                    continue; // preempted; the batch re-runs via the resume queue
                }
                engine.dispatch(now)?;
            }
            EvKind::PodDone => {
                if let Some((mut batch, started, done)) = engine.pod_running.take() {
                    batch.phase.on_array += done.saturating_sub(started);
                    engine.record_completions(batch, done);
                }
                engine.dispatch(now)?;
            }
            EvKind::Deadline => {
                if engine.deadline_scheduled == Some(now) {
                    engine.deadline_scheduled = None;
                }
                engine.dispatch(now)?;
            }
        }
    }

    let latency = LatencyStats::from_latencies(&engine.latencies);
    let ts_report = engine.ts.take().map(|rec| {
        rec.finish(
            engine.makespan.max(1),
            &Tallies {
                offered: engine.offered,
                dropped: engine.dropped,
                latencies: &engine.latencies,
                net_completed: &engine.net_completed,
                net_slo_met: &engine.net_slo_met,
                depth_area: engine.depth_area,
                busy: &engine.busy,
            },
            &latency,
            pod.arrays.iter().map(|a| a.name()).collect(),
            engine.net_names.clone(),
            RunManifest::capture()
                .with_config(&format!(
                    "serve-timeseries pod={} policy={} dispatch={} load={} requests={}",
                    pod,
                    cfg.policy.name(),
                    cfg.dispatch.name(),
                    cfg.load,
                    cfg.requests
                ))
                .with_seed(cfg.seed),
        )
    });

    // Metrics: wired in bulk so the hot loop stays allocation-free.
    fuseconv_telemetry::counter("serve.requests_total").add(engine.offered);
    fuseconv_telemetry::counter("serve.completed_total").add(engine.latencies.len() as u64);
    fuseconv_telemetry::counter("serve.dropped_total").add(engine.dropped);
    fuseconv_telemetry::counter("serve.batches_total").add(engine.batches);
    fuseconv_telemetry::counter("serve.preemptions_total").add(engine.preemptions);
    fuseconv_telemetry::counter("serve.events_total").add(engine.events);
    fuseconv_telemetry::counter("serve.oracle_hits_total").add(engine.oracle.memo_hits());
    fuseconv_telemetry::counter("serve.oracle_misses_total").add(engine.oracle.memo_misses());

    let makespan = engine.makespan.max(1);
    let completed = engine.latencies.len() as u64;
    let slo_met: u64 = engine.net_slo_met.iter().sum();
    let arrays = pod
        .arrays
        .iter()
        .zip(engine.arrays.iter().zip(&engine.busy))
        .map(|(spec, (state, busy))| ArrayReport {
            name: spec.name(),
            rows: spec.rows,
            cols: spec.cols,
            dataflow: spec.dataflow.short_name().to_string(),
            batches: state.batches,
            requests: state.requests,
            busy_cycles: busy.cycles,
            utilization: busy.cycles as f64 / makespan as f64,
        })
        .collect();
    let networks = (0..n_nets)
        .map(|net| NetworkReport {
            name: engine.net_names[net].clone(),
            weight: workload.weights()[net],
            completed: engine.net_completed[net],
            slo_target_cycles: engine.slo_target[net],
            slo_met: engine.net_slo_met[net],
        })
        .collect();
    let report = ServeReport {
        pod: pod.to_string(),
        policy: cfg.policy.name().to_string(),
        dispatch: cfg.dispatch.name().to_string(),
        preemption: cfg.preemption,
        seed: cfg.seed,
        load: cfg.load,
        queue_capacity: cfg.queue_capacity,
        slo_multiplier: cfg.slo_multiplier,
        offered: engine.offered,
        completed,
        dropped: engine.dropped,
        batches: engine.batches,
        preemptions: engine.preemptions,
        events: engine.events,
        makespan_cycles: engine.makespan,
        slo_met,
        high_priority_completed: engine.high_latencies.len() as u64,
        latency,
        high_priority_latency: LatencyStats::from_latencies(&engine.high_latencies),
        queue: QueueStats {
            mean_depth: engine.depth_area as f64 / makespan as f64,
            max_depth: engine.max_depth,
        },
        offered_per_mcycle: engine.offered as f64 * 1e6 / makespan as f64,
        goodput_per_mcycle: slo_met as f64 * 1e6 / makespan as f64,
        arrays,
        networks,
        manifest: RunManifest::capture()
            .with_config(&format!(
                "serve pod={} policy={} dispatch={} load={} requests={}",
                pod,
                cfg.policy.name(),
                cfg.dispatch.name(),
                cfg.load,
                cfg.requests
            ))
            .with_seed(cfg.seed),
    };
    Ok((report, ts_report))
}

/// The pod-trace label of a batch: network, size and a `!` for the
/// high-priority lane. Built only when a trace sink is attached.
fn batch_label(net_names: &[String], batch: &Batch) -> String {
    let name = &net_names[batch.net];
    let prio = if batch.high_priority { " !" } else { "" };
    format!("{} x{}{}", name, batch.requests.len(), prio)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_models::zoo;

    fn tiny_workload() -> Workload {
        Workload::uniform(vec![zoo::mobilenet_v1(), zoo::mobilenet_v2()]).expect("mix")
    }

    fn base_cfg(requests: u64) -> ServeConfig {
        ServeConfig {
            requests,
            ..ServeConfig::new()
        }
    }

    #[test]
    fn event_queue_pops_in_reference_heap_order() {
        use fuseconv_tensor::rng::Rng;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let (mut ties, mut stale) = (0, 0);
        for seed in 0..16 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut q = EventQueue::default();
            let mut reference = BinaryHeap::new();
            let mut kinds = Vec::new();
            // Per array, the `seq` of the completion its running batch
            // holds, as `Running::seq` does.
            let mut running = [None; 3];
            let (mut now, mut arrival_pending) = (0u64, false);
            for step in 0.. {
                // Mixed pushes and pops, then a full drain; times repeat
                // often.
                if step >= 2500 && reference.is_empty() {
                    break;
                }
                if step < 2500 && rng.below(5) < 3 {
                    let at = now + rng.below(3) as u64;
                    let kind = match rng.below(6) {
                        0 | 1 if !arrival_pending => {
                            arrival_pending = true;
                            let (net, high) = (ev_index(rng.below(4)), rng.below(2) == 0);
                            EvKind::Arrival { net, high }
                        }
                        2 => EvKind::PodDone,
                        3 => EvKind::Deadline,
                        // A launch on an array whose batch is still in
                        // flight stands for a preemption and relaunch:
                        // the old completion goes stale but still pops.
                        _ => EvKind::ArrayDone {
                            array: ev_index(rng.below(running.len())),
                        },
                    };
                    let seq = q.push(at, kind);
                    assert_eq!(seq, kinds.len() as u64, "seq counts pushes");
                    if let EvKind::ArrayDone { array } = kind {
                        running[array as usize] = Some(seq);
                    }
                    reference.push(Reverse((at, seq)));
                    kinds.push(kind);
                    continue;
                }
                let got = q.pop();
                let want = reference
                    .pop()
                    .map(|Reverse((at, seq))| (at, seq, kinds[seq as usize]));
                assert_eq!(got, want, "seed {seed} step {step}");
                let Some((at, seq, kind)) = got else {
                    continue;
                };
                ties += u64::from(at == now);
                match kind {
                    EvKind::Arrival { .. } => arrival_pending = false,
                    EvKind::ArrayDone { array } => {
                        let slot = &mut running[array as usize];
                        if slot.take_if(|s| *s == seq).is_none() {
                            stale += 1;
                        }
                    }
                    _ => {}
                }
                now = at;
            }
            assert_eq!(
                q.pop(),
                None,
                "seed {seed}: queue drained with the reference"
            );
            assert_eq!(
                running, [None; 3],
                "seed {seed}: a live completion was lost"
            );
        }
        assert!(
            ties > 0 && stale > 0,
            "ties {ties}, stale completions {stale}"
        );
    }

    #[test]
    fn idle_set_matches_a_linear_scan() {
        use fuseconv_tensor::rng::Rng;
        for (seed, n) in [1usize, 63, 64, 65, 130].into_iter().enumerate() {
            let mut rng = Rng::seed_from_u64(seed as u64);
            let mut set = IdleSet::full(n);
            let mut idle = vec![true; n];
            for step in 0..4000 {
                // Launch on the lowest idle array, complete one, or
                // evict one (both make a busy array idle again); now
                // and then launch on some other idle array.
                let a = rng.below(n);
                match rng.below(4) {
                    0 => {
                        if let Some(first) = idle.iter().position(|&i| i) {
                            set.remove(first);
                            idle[first] = false;
                        }
                    }
                    1 if idle[a] => {
                        set.remove(a);
                        idle[a] = false;
                    }
                    _ if !idle[a] => {
                        set.insert(a);
                        idle[a] = true;
                    }
                    _ => {}
                }
                let from = rng.below(n + 1);
                let want: Vec<usize> = (from..n).filter(|&i| idle[i]).collect();
                // Bounded, so a walk that repeats an array fails
                // instead of growing without end.
                let got: Vec<usize> = set.iter_from(from).take(n + 1).collect();
                assert_eq!(got, want, "n {n} step {step} from {from}");
                assert_eq!(set.next_from(0), idle.iter().position(|&i| i));
            }
        }
    }

    #[test]
    fn conservation_every_offered_request_is_accounted() {
        let pod = PodSpec::parse("16x16:os,8x8:ws").expect("pod");
        let report = simulate(&pod, &tiny_workload(), &base_cfg(2000), None).expect("sim");
        assert_eq!(report.offered, 2000);
        assert_eq!(report.completed + report.dropped, report.offered);
        let per_array: u64 = report.arrays.iter().map(|a| a.requests).sum();
        assert_eq!(per_array, report.completed);
        let per_net: u64 = report.networks.iter().map(|n| n.completed).sum();
        assert_eq!(per_net, report.completed);
        assert!(report.latency.p50 <= report.latency.p99);
        assert!(report.latency.p99 <= report.latency.p999);
        assert!(report.latency.p999 <= report.latency.max);
    }

    #[test]
    fn same_seed_is_bit_for_bit_deterministic() {
        let pod = PodSpec::parse("16x16:os,8x8:is").expect("pod");
        let cfg = ServeConfig {
            policy: BatchPolicy::Dynamic {
                max_batch: 4,
                max_wait: 10_000,
            },
            ..base_cfg(3000)
        };
        let a = simulate(&pod, &tiny_workload(), &cfg, None).expect("sim");
        let b = simulate(&pod, &tiny_workload(), &cfg, None).expect("sim");
        // Reports differ only in the manifest's wall-clock fields; every
        // result field must match bit for bit.
        assert_eq!(a.results_hash(), b.results_hash());
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.arrays, b.arrays);
        assert_eq!(a.networks, b.networks);
        assert_eq!(
            (a.offered, a.completed, a.dropped),
            (b.offered, b.completed, b.dropped)
        );
        assert_eq!(a.makespan_cycles, b.makespan_cycles);
        assert_eq!(a.events, b.events);
        let other = simulate(
            &pod,
            &tiny_workload(),
            &ServeConfig { seed: 43, ..cfg },
            None,
        )
        .expect("sim");
        assert_ne!(a.results_hash(), other.results_hash());
    }

    #[test]
    fn overload_bends_goodput_below_offered() {
        let pod = PodSpec::parse("8x8:os").expect("pod");
        let workload = Workload::uniform(vec![zoo::mobilenet_v1()]).expect("mix");
        let under = simulate(
            &pod,
            &workload,
            &ServeConfig {
                load: 0.3,
                ..base_cfg(1500)
            },
            None,
        )
        .expect("sim");
        let over = simulate(
            &pod,
            &workload,
            &ServeConfig {
                load: 3.0,
                queue_capacity: 256,
                ..base_cfg(1500)
            },
            None,
        )
        .expect("sim");
        assert!(under.dropped == 0, "light load drops nothing");
        assert!(
            over.dropped > 0,
            "3x overload with a bounded queue must shed requests"
        );
        assert!(over.latency.p99 > under.latency.p99);
        // Goodput saturates: far below what overload offers.
        assert!(over.goodput_per_mcycle < over.offered_per_mcycle * 0.7);
        assert!(over.queue.max_depth > under.queue.max_depth);
    }

    #[test]
    fn dynamic_batching_launches_multi_request_batches() {
        let pod = PodSpec::parse("16x16:os").expect("pod");
        let workload = Workload::uniform(vec![zoo::mobilenet_v1()]).expect("mix");
        let cfg = ServeConfig {
            policy: BatchPolicy::Dynamic {
                max_batch: 8,
                max_wait: 1_000_000,
            },
            load: 1.5,
            ..base_cfg(800)
        };
        let report = simulate(&pod, &workload, &cfg, None).expect("sim");
        assert!(
            report.batches < report.completed,
            "batching coalesces: {} batches for {} requests",
            report.batches,
            report.completed
        );
    }

    #[test]
    fn sharded_dispatch_uses_every_array() {
        let pod = PodSpec::parse("16x16:os,16x16:os").expect("pod");
        let workload = Workload::uniform(vec![zoo::mobilenet_v1()]).expect("mix");
        let cfg = ServeConfig {
            dispatch: Dispatch::Sharded,
            load: 0.5,
            ..base_cfg(500)
        };
        let report = simulate(&pod, &workload, &cfg, None).expect("sim");
        assert_eq!(report.completed + report.dropped, report.offered);
        for a in &report.arrays {
            assert!(
                a.busy_cycles > 0,
                "{} sat idle under sharded dispatch",
                a.name
            );
        }
        let per_array: u64 = report.arrays.iter().map(|a| a.requests).sum();
        assert_eq!(per_array, report.completed);
    }

    #[test]
    fn preemption_fires_under_pressure_and_keeps_accounting() {
        let pod = PodSpec::parse("8x8:os").expect("pod");
        let workload = Workload::uniform(vec![zoo::mobilenet_v1()]).expect("mix");
        let cfg = ServeConfig {
            preemption: true,
            high_priority_frac: 0.2,
            load: 1.2,
            ..base_cfg(600)
        };
        let report = simulate(&pod, &workload, &cfg, None).expect("sim");
        assert!(
            report.preemptions > 0,
            "overload + high-priority traffic preempts"
        );
        assert_eq!(report.completed + report.dropped, report.offered);
        // Preempted work still finishes: nothing is lost.
        let per_net: u64 = report.networks.iter().map(|n| n.completed).sum();
        assert_eq!(per_net, report.completed);
    }

    #[test]
    fn preemption_cuts_high_priority_latency() {
        let pod = PodSpec::parse("8x8:os").expect("pod");
        let workload = Workload::uniform(vec![zoo::mobilenet_v1()]).expect("mix");
        let base = ServeConfig {
            high_priority_frac: 0.2,
            load: 1.2,
            ..base_cfg(600)
        };
        let without = simulate(
            &pod,
            &workload,
            &ServeConfig {
                preemption: false,
                ..base.clone()
            },
            None,
        )
        .expect("sim");
        let with = simulate(
            &pod,
            &workload,
            &ServeConfig {
                preemption: true,
                ..base
            },
            None,
        )
        .expect("sim");
        assert!(with.preemptions > 0, "overload must trigger preemptions");
        assert!(without.high_priority_completed > 0);
        assert!(with.high_priority_completed > 0);
        // The point of preemption: the high-priority tail gets shorter,
        // not just "preemptions happened".
        assert!(
            with.high_priority_latency.mean < without.high_priority_latency.mean,
            "preemption must cut mean high-priority latency: {} !< {}",
            with.high_priority_latency.mean,
            without.high_priority_latency.mean
        );
        assert!(
            with.high_priority_latency.p99 <= without.high_priority_latency.p99,
            "preemption must not lengthen the high-priority p99: {} > {}",
            with.high_priority_latency.p99,
            without.high_priority_latency.p99
        );
    }

    #[test]
    fn slo_budget_overrides_the_relative_multiplier() {
        let pod = PodSpec::parse("16x16:os").expect("pod");
        let workload = Workload::uniform(vec![zoo::mobilenet_v1()]).expect("mix");
        // A 1-cycle budget is below any network's zero-queueing floor:
        // every completion misses its SLO even at trivial load.
        let strangled = simulate(
            &pod,
            &workload,
            &ServeConfig {
                slo_budget_cycles: Some(1),
                load: 0.1,
                ..base_cfg(300)
            },
            None,
        )
        .expect("sim");
        assert_eq!(strangled.slo_met, 0);
        assert_eq!(strangled.networks[0].slo_target_cycles, 1);
        // A generous absolute budget behaves like the default.
        let roomy = simulate(
            &pod,
            &workload,
            &ServeConfig {
                slo_budget_cycles: Some(u64::MAX / 2),
                load: 0.1,
                ..base_cfg(300)
            },
            None,
        )
        .expect("sim");
        assert_eq!(roomy.slo_met, roomy.completed);
    }

    #[test]
    fn uncovered_shape_bucket_drops_that_networks_requests() {
        let pod = PodSpec::parse("16x16:os").expect("pod");
        let cfg = ServeConfig {
            policy: BatchPolicy::Bucketed {
                max_batch: 4,
                max_wait: 10_000,
            },
            shape_buckets: Some(1),
            ..base_cfg(800)
        };
        let report = simulate(&pod, &tiny_workload(), &cfg, None).expect("sim");
        assert_eq!(
            report.networks[1].completed, 0,
            "network without a bucket never completes"
        );
        assert!(report.networks[0].completed > 0);
        assert!(report.dropped > 0);
        assert_eq!(report.completed + report.dropped, report.offered);
    }

    #[test]
    fn shape_buckets_require_the_bucketed_policy() {
        let pod = PodSpec::parse("8x8:os").expect("pod");
        assert!(matches!(
            simulate(
                &pod,
                &tiny_workload(),
                &ServeConfig {
                    shape_buckets: Some(1),
                    ..base_cfg(10)
                },
                None
            ),
            Err(ServeError::Config(_))
        ));
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let pod = PodSpec::parse("8x8:os").expect("pod");
        let w = tiny_workload();
        assert!(matches!(
            simulate(&pod, &w, &base_cfg(0), None),
            Err(ServeError::Config(_))
        ));
        assert!(matches!(
            simulate(
                &pod,
                &w,
                &ServeConfig {
                    load: 0.0,
                    ..base_cfg(10)
                },
                None
            ),
            Err(ServeError::Config(_))
        ));
        assert!(matches!(
            simulate(
                &pod,
                &w,
                &ServeConfig {
                    preemption: true,
                    dispatch: Dispatch::Sharded,
                    ..base_cfg(10)
                },
                None
            ),
            Err(ServeError::Config(_))
        ));
        // A load so low that the arrivals could saturate the u64 clock;
        // a low load whose arrivals fit still runs.
        let low = |load| {
            let mut cfg = base_cfg(10);
            cfg.load = load;
            simulate(&pod, &w, &cfg, None)
        };
        assert!(matches!(low(1e-12), Err(ServeError::Config(_))));
        assert!(matches!(low(1e-300), Err(ServeError::Config(_))));
        assert!(low(1e-6).expect("fits the clock").latency.p50 > 0);
        for slo_multiplier in [f64::NAN, f64::INFINITY, -3.0, 0.5] {
            let cfg = ServeConfig {
                slo_multiplier,
                ..base_cfg(10)
            };
            assert!(
                matches!(simulate(&pod, &w, &cfg, None), Err(ServeError::Config(_))),
                "slo multiplier {slo_multiplier}"
            );
        }
        // A zero batch limit would drain empty batches forever, and a
        // zero queue capacity admits no request.
        for policy in ["dynamic", "bucketed"] {
            let policy = BatchPolicy::parse(policy, 0, 100).expect("known policy");
            let cfg = ServeConfig {
                policy,
                ..base_cfg(2)
            };
            let got = simulate(&pod, &w, &cfg, None);
            assert!(matches!(got, Err(ServeError::Config(_))), "{cfg:?}");
        }
        let cfg = ServeConfig {
            queue_capacity: 0,
            ..base_cfg(2)
        };
        assert!(matches!(
            simulate(&pod, &w, &cfg, None),
            Err(ServeError::Config(_))
        ));
        // A load offering more than one request per cycle would need
        // arrival gaps under one cycle.
        let cfg = ServeConfig {
            load: 1e9,
            ..base_cfg(2)
        };
        assert!(matches!(
            simulate(&pod, &w, &cfg, None),
            Err(ServeError::Config(_))
        ));
    }

    #[test]
    fn observed_windows_sum_to_the_aggregate_report() {
        let pod = PodSpec::parse("16x16:os,8x8:ws").expect("pod");
        let cfg = ServeConfig {
            preemption: true,
            high_priority_frac: 0.1,
            load: 1.2,
            policy: BatchPolicy::Dynamic {
                max_batch: 4,
                max_wait: 5_000,
            },
            ..base_cfg(2000)
        };
        let (report, ts) = simulate_observed(
            &pod,
            &tiny_workload(),
            &cfg,
            None,
            Some(&TimeSeriesConfig::new()),
        )
        .expect("sim");
        let ts = ts.expect("timeseries requested");
        let sum = |f: fn(&crate::timeseries::WindowReport) -> u64| -> u64 {
            ts.windows.iter().map(f).sum()
        };
        assert_eq!(sum(|w| w.offered), report.offered);
        assert_eq!(sum(|w| w.completed), report.completed);
        assert_eq!(sum(|w| w.dropped), report.dropped);
        assert_eq!(sum(|w| w.slo_met), report.slo_met);
        assert_eq!(ts.total.count, report.completed);
        assert_eq!(ts.total.max, report.latency.max);
        // Busy fractions stay physical even under preemption.
        for w in 0..ts.windows.len() {
            for &f in ts.busy_frac(w) {
                assert!((0.0..=1.0).contains(&f), "busy fraction {f} out of range");
            }
        }
        // The debug phase-invariant assertion ran for every completion
        // (this test compiles with debug assertions in `cargo test`);
        // exemplars expose the same breakdown for the worst requests.
        for e in &ts.exemplars {
            assert_eq!(
                e.form_wait + e.queue_wait + e.compute + e.refill,
                e.latency,
                "exemplar {} phases must sum to latency",
                e.id
            );
        }
    }

    #[test]
    fn observed_run_is_deterministic_and_free_of_drift() {
        let pod = PodSpec::parse("8x8:os").expect("pod");
        let workload = Workload::uniform(vec![zoo::mobilenet_v1()]).expect("mix");
        let cfg = ServeConfig {
            load: 2.0,
            queue_capacity: 128,
            ..base_cfg(1200)
        };
        let ts_cfg = TimeSeriesConfig::new();
        let run = |seed: u64| {
            let cfg = ServeConfig {
                seed,
                ..cfg.clone()
            };
            simulate_observed(&pod, &workload, &cfg, None, Some(&ts_cfg)).expect("sim")
        };
        let (ra, ta) = run(42);
        let (rb, tb) = run(42);
        let (ta, tb) = (ta.expect("ts"), tb.expect("ts"));
        assert_eq!(ta.results_hash(), tb.results_hash());
        assert_eq!(ra.results_hash(), rb.results_hash());
        assert_ne!(ta.results_hash(), run(7).1.expect("ts").results_hash());
        // Overload against a bounded queue must raise burn alerts.
        assert!(
            !ta.alerts.is_empty(),
            "2x overload should burn the SLO error budget"
        );
    }

    #[test]
    fn observed_sharded_dispatch_keeps_phase_accounting() {
        let pod = PodSpec::parse("16x16:os,16x16:os").expect("pod");
        let workload = Workload::uniform(vec![zoo::mobilenet_v1()]).expect("mix");
        let cfg = ServeConfig {
            dispatch: Dispatch::Sharded,
            load: 0.7,
            ..base_cfg(400)
        };
        let (report, ts) =
            simulate_observed(&pod, &workload, &cfg, None, Some(&TimeSeriesConfig::new()))
                .expect("sim");
        let ts = ts.expect("ts");
        assert_eq!(
            ts.windows.iter().map(|w| w.completed).sum::<u64>(),
            report.completed
        );
        for e in &ts.exemplars {
            assert_eq!(e.form_wait + e.queue_wait + e.compute + e.refill, e.latency);
            assert_eq!(e.refill, 0, "sharded dispatch never preempts");
        }
    }

    #[test]
    fn observed_rejects_invalid_timeseries_config() {
        let pod = PodSpec::parse("8x8:os").expect("pod");
        let bad = TimeSeriesConfig {
            target_windows: 0,
            ..TimeSeriesConfig::new()
        };
        assert!(matches!(
            simulate_observed(&pod, &tiny_workload(), &base_cfg(10), None, Some(&bad)),
            Err(ServeError::Config(_))
        ));
    }

    #[test]
    fn trace_sink_collects_pod_lanes() {
        let pod = PodSpec::parse("16x16:os,8x8:ws").expect("pod");
        let mut sink = PodTraceSink::new(&pod);
        let report =
            simulate(&pod, &tiny_workload(), &base_cfg(200), Some(&mut sink)).expect("sim");
        assert!(sink.event_count() > 0);
        let json = sink.into_json();
        assert!(json.contains("array 0: 16x16:os"));
        assert!(json.contains("queue_depth"));
        assert!(report.completed > 0);
    }
}
