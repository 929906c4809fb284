//! Pluggable batching policies and the request queue.
//!
//! Internally the queue keeps one FIFO bucket per network (requests of
//! one network share every layer shape, so only same-network requests
//! can co-batch) plus a dedicated high-priority lane that bypasses
//! batching entirely. The policies differ in *which* bucket launches
//! and *when*:
//!
//! * [`BatchPolicy::Fifo`] — strict arrival order, batch size 1. Every
//!   bucket is FIFO and arrivals are monotone, so the oldest head across
//!   buckets is simply the oldest request: the normal lane is a single
//!   arrival-ordered bucket, and a launch pops its front without
//!   scanning the networks;
//! * [`BatchPolicy::Dynamic`] — arrival-order fair: the bucket holding
//!   the oldest request launches, but only once it is full
//!   (`max_batch`) or its head has waited `max_wait` cycles;
//! * [`BatchPolicy::Bucketed`] — throughput-greedy: any full bucket
//!   launches first (deepest wins), otherwise the oldest expired head.
//!
//! `Dynamic` and `Bucketed` trade queueing delay for the sub-linear
//! batch cost of [`crate::oracle::CostOracle::request_cycles`].
//!
//! A launched batch's member list is a buffer the queue lends out: the
//! engine hands it back through [`RequestQueue::recycle`] when the
//! batch completes, and the next launch refills it. The spare list
//! never holds more buffers than batches were ever in flight at once,
//! so steady-state serving allocates nothing per launch.

use std::collections::VecDeque;

/// When and how queued requests coalesce into batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// One request per launch, strict arrival order.
    Fifo,
    /// Arrival-order-fair dynamic batching: launch the oldest bucket
    /// when full or when its head request has waited long enough.
    Dynamic {
        /// Largest batch a single launch may carry.
        max_batch: usize,
        /// Longest a batch head may wait before launching partial,
        /// cycles.
        max_wait: u64,
    },
    /// Shape-bucketed batching: prefer any full bucket (deepest
    /// first), fall back to expired heads.
    Bucketed {
        /// Largest batch a single launch may carry.
        max_batch: usize,
        /// Longest a batch head may wait before launching partial,
        /// cycles.
        max_wait: u64,
    },
}

impl BatchPolicy {
    /// Parses a policy name with parameters supplied separately:
    /// `fifo`, `dynamic` or `bucketed`.
    pub fn parse(name: &str, max_batch: usize, max_wait: u64) -> Option<BatchPolicy> {
        match name {
            "fifo" => Some(BatchPolicy::Fifo),
            "dynamic" => Some(BatchPolicy::Dynamic {
                max_batch,
                max_wait,
            }),
            "bucketed" => Some(BatchPolicy::Bucketed {
                max_batch,
                max_wait,
            }),
            _ => None,
        }
    }

    /// The policy's short name (`fifo` / `dynamic` / `bucketed`).
    pub fn name(&self) -> &'static str {
        match self {
            BatchPolicy::Fifo => "fifo",
            BatchPolicy::Dynamic { .. } => "dynamic",
            BatchPolicy::Bucketed { .. } => "bucketed",
        }
    }
}

/// One queued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pending {
    /// Monotone request id (arrival order).
    pub id: u64,
    /// Index into the workload's network list.
    pub net: usize,
    /// Arrival time, cycles.
    pub arrived: u64,
    /// High-priority tag (served from the priority lane).
    pub high_priority: bool,
}

/// Cycle-exact phase accounting carried with a batch through launches,
/// preemptions and resumes. The engine maintains the invariant that for
/// every member request `latency == form_wait + queue_wait + on_array`
/// (with `form_wait = formed_at − arrived`), because each accumulator
/// is the telescoped difference of adjacent event times: the intervals
/// tile `[formed_at, completion]` exactly. `on_array` further splits
/// into compute and preemption-refill cycles via `refill`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPhase {
    /// When the batch became formable: its latest member arrival.
    /// Earlier members' wait until this point is their batch-form wait.
    pub formed_at: u64,
    /// Cycles the formed batch spent waiting off-array: formed→launch
    /// plus, after a preemption, eviction→relaunch.
    pub queue_wait: u64,
    /// Cycles spent executing on an array across all segments,
    /// including replayed pipeline-refill cycles.
    pub on_array: u64,
    /// Preemption refill-penalty cycles charged into `on_array`.
    pub refill: u64,
}

impl BatchPhase {
    /// A fresh accounting for a batch formed at `formed_at`.
    pub fn formed(formed_at: u64) -> Self {
        BatchPhase {
            formed_at,
            queue_wait: 0,
            on_array: 0,
            refill: 0,
        }
    }
}

/// A launched batch: same-network requests served by one array (or one
/// shard plan) in a single pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Network index all members share.
    pub net: usize,
    /// Member requests, arrival order.
    pub requests: Vec<Pending>,
    /// Whether the batch came off the high-priority lane.
    pub high_priority: bool,
    /// Phase accounting (batch-form / queue / on-array cycles).
    pub phase: BatchPhase,
}

/// Bounded request queue with per-network buckets and a priority lane.
#[derive(Debug)]
pub struct RequestQueue {
    policy: BatchPolicy,
    capacity: usize,
    covered: usize,
    /// One FIFO bucket per network; under [`BatchPolicy::Fifo`] a single
    /// arrival-ordered bucket holding every network's requests.
    buckets: Vec<VecDeque<Pending>>,
    high: VecDeque<Pending>,
    len: usize,
    /// Emptied member buffers of completed batches, reused by the next
    /// launches.
    spare: Vec<Vec<Pending>>,
}

impl RequestQueue {
    /// An empty queue for `nets` networks holding at most `capacity`
    /// requests under `policy`. Every network starts with a
    /// provisioned shape bucket; see [`Self::with_covered_buckets`].
    pub fn new(policy: BatchPolicy, capacity: usize, nets: usize) -> Self {
        let lanes = if policy == BatchPolicy::Fifo { 1 } else { nets };
        RequestQueue {
            policy,
            capacity,
            covered: nets,
            buckets: (0..lanes).map(|_| VecDeque::new()).collect(),
            high: VecDeque::new(),
            len: 0,
            spare: Vec::new(),
        }
    }

    /// Limits admission to the first `covered` networks: shape-bucketed
    /// serving provisions a fixed set of compiled batch shapes, and a
    /// request whose network has no bucket cannot be queued at all —
    /// [`Self::push`] rejects it exactly like an at-capacity queue.
    pub fn with_covered_buckets(mut self, covered: usize) -> Self {
        self.covered = covered.min(self.covered);
        self
    }

    /// Requests currently queued (all lanes).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Admits `p`, or rejects it when the queue is at capacity or when
    /// `p`'s network has no provisioned shape bucket. Returns `true`
    /// on admit.
    pub fn push(&mut self, p: Pending) -> bool {
        if self.len >= self.capacity || p.net >= self.covered {
            return false;
        }
        self.len += 1;
        if p.high_priority {
            self.high.push_back(p);
        } else if self.policy == BatchPolicy::Fifo {
            self.buckets[0].push_back(p);
        } else {
            self.buckets[p.net].push_back(p);
        }
        true
    }

    /// Index of the bucket whose head arrived first (ties break toward
    /// the lower id, which is the same ordering).
    fn oldest_bucket(&self) -> Option<usize> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.front().map(|p| (p.arrived, p.id, i)))
            .min()
            .map(|(_, _, i)| i)
    }

    /// Hands back a completed batch's member buffer for reuse.
    pub fn recycle(&mut self, mut requests: Vec<Pending>) {
        requests.clear();
        self.spare.push(requests);
    }

    fn drain_bucket(&mut self, bucket: usize, take: usize) -> Batch {
        let mut requests = self.spare.pop().unwrap_or_default();
        for _ in 0..take {
            if let Some(p) = self.buckets[bucket].pop_front() {
                self.len -= 1;
                requests.push(p);
            }
        }
        // Buckets are FIFO, so the last member arrived latest: the
        // batch could not have existed before that arrival.
        let formed_at = requests.last().map_or(0, |p| p.arrived);
        Batch {
            net: requests.first().map_or(bucket, |p| p.net),
            requests,
            high_priority: false,
            phase: BatchPhase::formed(formed_at),
        }
    }

    /// Pops the head of the high-priority lane as a batch-1 launch, or
    /// `None` when the lane is empty. Always ready regardless of
    /// policy; the engine drains this lane before preempted work so an
    /// eviction never hands the freed array back to its victim.
    pub fn pop_high(&mut self) -> Option<Batch> {
        let p = self.high.pop_front()?;
        self.len -= 1;
        let mut requests = self.spare.pop().unwrap_or_default();
        requests.push(p);
        Some(Batch {
            net: p.net,
            requests,
            high_priority: true,
            phase: BatchPhase::formed(p.arrived),
        })
    }

    /// Pops the next ready batch under the queue's policy, or `None`
    /// when nothing may launch yet. The high-priority lane always
    /// launches first, one request at a time, regardless of policy.
    pub fn pop_batch(&mut self, now: u64) -> Option<Batch> {
        if let Some(batch) = self.pop_high() {
            return Some(batch);
        }
        let (max_batch, max_wait) = match self.policy {
            BatchPolicy::Fifo => {
                return (!self.buckets[0].is_empty()).then(|| self.drain_bucket(0, 1));
            }
            BatchPolicy::Dynamic {
                max_batch,
                max_wait,
            } => (max_batch, max_wait),
            BatchPolicy::Bucketed {
                max_batch,
                max_wait,
            } => {
                // Any full bucket: deepest first, oldest head breaks ties.
                let full = (0..self.buckets.len())
                    .filter(|&i| self.buckets[i].len() >= max_batch.max(1))
                    .min_by_key(|&i| {
                        let b = &self.buckets[i];
                        (std::cmp::Reverse(b.len()), b[0].arrived, b[0].id)
                    });
                if let Some(bucket) = full {
                    return Some(self.drain_bucket(bucket, max_batch));
                }
                (max_batch, max_wait)
            }
        };
        // Otherwise the oldest bucket launches once full or once its
        // head has waited `max_wait`. A later head expires no earlier,
        // so the oldest head is also the oldest expired one.
        let bucket = self.oldest_bucket()?;
        let depth = self.buckets[bucket].len();
        let head = self.buckets[bucket].front()?.arrived;
        (depth >= max_batch || now >= head.saturating_add(max_wait))
            .then(|| self.drain_bucket(bucket, depth.min(max_batch)))
    }

    /// The earliest future time at which a currently-unready batch
    /// becomes launchable by timeout, if any. `None` for FIFO (always
    /// ready) and for empty queues.
    pub fn next_deadline(&self) -> Option<u64> {
        let max_wait = match self.policy {
            BatchPolicy::Fifo => return None,
            BatchPolicy::Dynamic { max_wait, .. } | BatchPolicy::Bucketed { max_wait, .. } => {
                max_wait
            }
        };
        // The oldest head expires first.
        let head = self.buckets[self.oldest_bucket()?].front()?;
        Some(head.arrived.saturating_add(max_wait))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(id: u64, net: usize, arrived: u64) -> Pending {
        Pending {
            id,
            net,
            arrived,
            high_priority: false,
        }
    }

    #[test]
    fn fifo_serves_in_arrival_order_across_buckets() {
        let mut q = RequestQueue::new(BatchPolicy::Fifo, 16, 2);
        q.push(p(0, 1, 5));
        q.push(p(1, 0, 7));
        q.push(p(2, 1, 9));
        let a = q.pop_batch(10).expect("ready");
        assert_eq!((a.net, a.requests[0].id), (1, 0));
        let b = q.pop_batch(10).expect("ready");
        assert_eq!((b.net, b.requests[0].id), (0, 1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_deadline(), None);
    }

    #[test]
    fn fifo_lane_pops_a_multi_network_stream_in_id_order() {
        use fuseconv_tensor::rng::Rng;
        let nets = 5;
        let mut rng = Rng::seed_from_u64(0xF1F0);
        let mut q = RequestQueue::new(BatchPolicy::Fifo, usize::MAX, nets);
        let (mut pushed, mut popped) = (Vec::new(), Vec::new());
        let mut now = 0u64;
        for id in 0..20_000u64 {
            now += rng.below(3) as u64;
            let high_priority = rng.below(6) == 0;
            let net = rng.below(nets);
            assert!(q.push(Pending {
                id,
                net,
                arrived: now,
                high_priority,
            }));
            if !high_priority {
                pushed.push((id, net));
            }
            // Pop a few, and everything once the stream has ended.
            while id == 19_999 || rng.below(5) < 2 {
                let Some(batch) = q.pop_batch(now) else {
                    break;
                };
                let p = batch.requests[0];
                assert_eq!(batch.requests.len(), 1);
                assert_eq!((batch.net, batch.high_priority), (p.net, p.high_priority));
                if !p.high_priority {
                    popped.push((p.id, p.net));
                }
            }
            assert_eq!(q.next_deadline(), None);
        }
        assert!(q.is_empty());
        assert_eq!(popped, pushed, "normal lane pops in id order");
    }

    #[test]
    fn dynamic_waits_for_full_batch_or_deadline() {
        let policy = BatchPolicy::Dynamic {
            max_batch: 3,
            max_wait: 100,
        };
        let mut q = RequestQueue::new(policy, 16, 2);
        q.push(p(0, 0, 10));
        q.push(p(1, 0, 20));
        assert!(q.pop_batch(50).is_none(), "neither full nor expired");
        assert_eq!(q.next_deadline(), Some(110));
        q.push(p(2, 0, 60));
        let full = q.pop_batch(61).expect("full batch launches");
        assert_eq!(full.requests.len(), 3);
        // A lone straggler launches at its deadline.
        q.push(p(3, 1, 70));
        assert!(q.pop_batch(100).is_none());
        let partial = q.pop_batch(170).expect("expired head launches");
        assert_eq!(partial.requests.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn bucketed_prefers_the_deepest_full_bucket() {
        let policy = BatchPolicy::Bucketed {
            max_batch: 2,
            max_wait: 1000,
        };
        // Both buckets full at equal depth (two each): the older head
        // (net 1) breaks the tie.
        let mut q = RequestQueue::new(policy, 16, 2);
        q.push(p(0, 1, 5));
        q.push(p(1, 0, 6));
        q.push(p(2, 0, 7));
        q.push(p(3, 1, 8));
        let first = q.pop_batch(9).expect("full bucket");
        assert_eq!(first.net, 1);
        let second = q.pop_batch(9).expect("other full bucket");
        assert_eq!(second.net, 0);
        assert_eq!(second.requests.len(), 2);
        // Bucket 0 is deeper (three to two) but its head is younger:
        // depth wins over age.
        let mut q = RequestQueue::new(policy, 16, 2);
        q.push(p(0, 1, 5));
        q.push(p(1, 0, 6));
        q.push(p(2, 0, 7));
        q.push(p(3, 1, 8));
        q.push(p(4, 0, 9));
        let first = q.pop_batch(10).expect("full bucket");
        assert_eq!(first.net, 0, "the deeper bucket launches first");
        assert_eq!(q.pop_batch(10).expect("other full bucket").net, 1);
    }

    #[test]
    fn high_priority_lane_bypasses_batching() {
        let policy = BatchPolicy::Dynamic {
            max_batch: 8,
            max_wait: 1_000_000,
        };
        let mut q = RequestQueue::new(policy, 16, 1);
        q.push(p(0, 0, 1));
        q.push(Pending {
            id: 1,
            net: 0,
            arrived: 2,
            high_priority: true,
        });
        let b = q.pop_batch(3).expect("priority lane is always ready");
        assert!(b.high_priority);
        assert_eq!(b.requests.len(), 1);
        assert_eq!(b.requests[0].id, 1);
        assert!(q.pop_batch(3).is_none(), "normal lane still waits");
    }

    #[test]
    fn a_recycled_buffer_carries_no_old_members() {
        let policy = BatchPolicy::Bucketed {
            max_batch: 8,
            max_wait: 10,
        };
        let mut q = RequestQueue::new(policy, 64, 2);
        let eight: Vec<Pending> = (0..8).map(|id| p(id, 0, id)).collect();
        eight.iter().for_each(|&r| assert!(q.push(r)));
        let batch = q.pop_batch(8).expect("full bucket");
        assert_eq!(batch.requests, eight);
        q.recycle(batch.requests);
        // The next two launches each refill the one spare buffer.
        q.push(p(8, 1, 20));
        let one = q.pop_batch(30).expect("expired head");
        assert_eq!((one.net, &one.requests[..]), (1, &[p(8, 1, 20)][..]));
        assert!(one.requests.capacity() >= 8, "reuses the batch-8 buffer");
        q.recycle(one.requests);
        let high = Pending {
            high_priority: true,
            ..p(9, 0, 31)
        };
        q.push(high);
        let lane = q.pop_high().expect("priority lane");
        assert_eq!(lane.requests, [high]);
        assert!(lane.requests.capacity() >= 8, "reuses the batch-8 buffer");
    }

    #[test]
    fn capacity_bounds_admission() {
        let mut q = RequestQueue::new(BatchPolicy::Fifo, 2, 1);
        assert!(q.push(p(0, 0, 1)));
        assert!(q.push(p(1, 0, 2)));
        assert!(!q.push(p(2, 0, 3)), "third request is dropped");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn uncovered_networks_are_rejected_at_admission() {
        let policy = BatchPolicy::Bucketed {
            max_batch: 2,
            max_wait: 100,
        };
        let mut q = RequestQueue::new(policy, 16, 2).with_covered_buckets(1);
        assert!(q.push(p(0, 0, 1)), "covered network admits");
        assert!(!q.push(p(1, 1, 2)), "uncovered network is rejected");
        // The high-priority lane gets no exemption: no bucket shape
        // means the request cannot run at all.
        assert!(!q.push(Pending {
            id: 2,
            net: 1,
            arrived: 3,
            high_priority: true,
        }));
        assert_eq!(q.len(), 1);
    }
}
