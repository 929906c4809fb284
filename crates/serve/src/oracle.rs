//! Per-request cost oracle over the analytic latency model.
//!
//! Serving a million requests is only feasible because per-request cost
//! comes from [`LatencyModel::cycles`] — the closed form whose totals
//! equal the cycle simulator exactly under serial fold accounting (the
//! invariant `tests/serve_cross_check.rs` spot-checks). The oracle
//! memoises per `(array, network, batch)` triple in a table indexed by
//! array and network whose entries are short batch-ordered lists, so a
//! steady-state probe is an indexed load plus a binary search over the
//! few batch sizes a policy launches: no hashing, no allocation. The LPT
//! shard plans used by [`crate::engine::Dispatch::Sharded`] are
//! memoised the same way, per network, and lent to the engine by
//! reference.

use crate::engine::Dispatch;
use crate::spec::ServeError;
use fuseconv_latency::LatencyModel;
use fuseconv_models::Network;
use fuseconv_nn::ops::Op;

/// How a sharded request's ops spread across the pod.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Cycles each array contributes (pod order); zero means the array
    /// sits out this request.
    pub shares: Vec<u64>,
    /// Target array of each op, in the network's op order — the shares
    /// above are exactly the per-array sums of op costs under this
    /// assignment, so an auditor can re-derive them independently.
    pub assignment: Vec<usize>,
    /// Completion time of the slowest share — the request's service
    /// latency under idealised concurrent execution.
    pub makespan: u64,
}

/// Memo entries under one (array, network) or network key, ascending
/// by batch size. A list rather than a table indexed by batch: batch
/// sizes reach the oracle from user input (`--max-batch` through the
/// SRV analyzer), so memory must stay proportional to the sizes
/// actually priced.
type BatchMemo<T> = Vec<(usize, T)>;

/// `Ok(index)` of `batch`'s entry in `memo`, or `Err(index)` where
/// inserting it keeps the list sorted.
fn probe<T>(memo: &BatchMemo<T>, batch: usize) -> Result<usize, usize> {
    memo.binary_search_by_key(&batch, |&(b, _)| b)
}

/// Memoising cost oracle: batch-aware per-request cycles and shard
/// plans for every (array, network) pair of the pod.
#[derive(Debug)]
pub struct CostOracle {
    models: Vec<LatencyModel>,
    ops: Vec<Vec<Op>>,
    /// Request costs, indexed `array * networks + net`.
    costs: Vec<BatchMemo<u64>>,
    /// Shard plans, indexed by network.
    plans: Vec<BatchMemo<ShardPlan>>,
    hits: u64,
    misses: u64,
}

impl CostOracle {
    /// Builds the oracle for `models` (pod order) over `networks`
    /// (workload order). Ops are flattened once; nothing is simulated.
    pub fn new(models: Vec<LatencyModel>, networks: &[Network]) -> Self {
        let ops: Vec<Vec<Op>> = networks
            .iter()
            .map(|n| n.ops().into_iter().map(|named| named.op).collect())
            .collect();
        CostOracle {
            costs: vec![Vec::new(); models.len() * ops.len()],
            plans: vec![Vec::new(); ops.len()],
            models,
            ops,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of arrays the oracle knows about.
    pub fn arrays(&self) -> usize {
        self.models.len()
    }

    /// Number of networks the oracle knows about.
    pub fn networks(&self) -> usize {
        self.ops.len()
    }

    /// The latency model of one array, in pod order.
    pub fn model(&self, array: usize) -> Option<&LatencyModel> {
        self.models.get(array)
    }

    /// The flattened ops of one workload network.
    pub fn network_ops(&self, net: usize) -> Option<&[Op]> {
        self.ops.get(net).map(Vec::as_slice)
    }

    /// Memo probes answered from the cache (cost and shard lookups).
    pub fn memo_hits(&self) -> u64 {
        self.hits
    }

    /// Memo probes that had to price ops through the latency model; a
    /// probe with an out-of-range index finds no entry and counts here
    /// too.
    pub fn memo_misses(&self) -> u64 {
        self.misses
    }

    fn op_cycles(model: &LatencyModel, op: &Op) -> Result<u64, ServeError> {
        model.cycles(op).map_err(ServeError::Latency)
    }

    fn check_net(&self, net: usize) -> Result<(), ServeError> {
        if net < self.ops.len() {
            Ok(())
        } else {
            Err(ServeError::Config(format!(
                "network index {net} out of range"
            )))
        }
    }

    /// Index of `(array, net)` in `costs`.
    fn cost_slot(&self, array: usize, net: usize) -> Result<usize, ServeError> {
        if array >= self.models.len() {
            return Err(ServeError::Config(format!(
                "array index {array} out of range"
            )));
        }
        self.check_net(net)?;
        Ok(array * self.ops.len() + net)
    }

    /// Whole-network cycles for one request batch of size `batch` of
    /// network `net` on array `array`: the sum of analytic op costs at
    /// that batch size (batching adds GEMM rows, so cost grows
    /// sub-linearly in `batch`). Memoised.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Latency`] if the model rejects an op and
    /// [`ServeError::Config`] on out-of-range indices or overflow.
    pub fn request_cycles(
        &mut self,
        array: usize,
        net: usize,
        batch: usize,
    ) -> Result<u64, ServeError> {
        let slot = self
            .cost_slot(array, net)
            .inspect_err(|_| self.misses += 1)?;
        let at = match probe(&self.costs[slot], batch) {
            Ok(i) => {
                self.hits += 1;
                return Ok(self.costs[slot][i].1);
            }
            Err(at) => at,
        };
        self.misses += 1;
        let model = self.models[array].with_batch(batch.max(1));
        let mut total: u64 = 0;
        for op in &self.ops[net] {
            let c = Self::op_cycles(&model, op)?;
            total = total.checked_add(c).ok_or_else(|| {
                ServeError::Config("network cost overflows u64 cycles".to_string())
            })?;
        }
        self.costs[slot].insert(at, (batch, total));
        Ok(total)
    }

    /// The cheapest batch-1 service time for `net` anywhere in the pod
    /// — the basis for SLO targets and offered-load calibration.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::request_cycles`] errors.
    pub fn best_cycles(&mut self, net: usize) -> Result<u64, ServeError> {
        let mut best = u64::MAX;
        for array in 0..self.models.len() {
            best = best.min(self.request_cycles(array, net, 1)?);
        }
        Ok(best)
    }

    /// LPT shard plan for one batch of network `net` at size `batch`:
    /// ops are assigned greedily, longest first, to the array where
    /// they finish earliest (load + per-op cost on that array). This is
    /// the classic list-scheduling bound for unrelated machines; the
    /// resulting makespan idealises perfectly overlapped inter-array
    /// execution (no cross-array activation traffic is modelled).
    /// Memoised per `(net, batch)`; this returns an owned copy of the
    /// memoised plan.
    ///
    /// # Errors
    ///
    /// Propagates [`ServeError::Latency`] from op costing.
    pub fn shard_plan(&mut self, net: usize, batch: usize) -> Result<ShardPlan, ServeError> {
        self.shard_plan_ref(net, batch).cloned()
    }

    /// [`Self::shard_plan`] lent by reference: the engine reads one
    /// plan per sharded batch and never keeps it.
    pub(crate) fn shard_plan_ref(
        &mut self,
        net: usize,
        batch: usize,
    ) -> Result<&ShardPlan, ServeError> {
        let batch = batch.max(1);
        self.check_net(net).inspect_err(|_| self.misses += 1)?;
        let at = match probe(&self.plans[net], batch) {
            Ok(i) => {
                self.hits += 1;
                return Ok(&self.plans[net][i].1);
            }
            Err(at) => at,
        };
        self.misses += 1;
        let plan = self.lpt_plan(net, batch)?;
        self.plans[net].insert(at, (batch, plan));
        Ok(&self.plans[net][at].1)
    }

    /// Computes the LPT plan [`Self::shard_plan`] memoises.
    fn lpt_plan(&self, net: usize, batch: usize) -> Result<ShardPlan, ServeError> {
        let ops = &self.ops[net];
        // Cost table: per op, per array.
        let mut table: Vec<Vec<u64>> = Vec::with_capacity(ops.len());
        for op in ops {
            let mut row = Vec::with_capacity(self.models.len());
            for model in &self.models {
                let m = (*model).with_batch(batch);
                row.push(Self::op_cycles(&m, op)?);
            }
            table.push(row);
        }
        // Longest processing time first, by each op's best-case cost;
        // ties break on op index so the plan is deterministic.
        let mut order: Vec<usize> = (0..ops.len()).collect();
        order.sort_by_key(|&i| {
            let best = table[i].iter().copied().min().unwrap_or(0);
            (std::cmp::Reverse(best), i)
        });
        let mut shares = vec![0u64; self.models.len()];
        let mut assignment = vec![0usize; ops.len()];
        for &i in &order {
            let mut best_array = 0usize;
            let mut best_finish = u64::MAX;
            for (a, &cost) in table[i].iter().enumerate() {
                let finish = shares[a].saturating_add(cost);
                if finish < best_finish {
                    best_finish = finish;
                    best_array = a;
                }
            }
            shares[best_array] = best_finish;
            assignment[i] = best_array;
        }
        let makespan = shares.iter().copied().max().unwrap_or(0);
        Ok(ShardPlan {
            shares,
            assignment,
            makespan,
        })
    }

    /// Estimated pod throughput in requests per cycle for a workload
    /// mix of per-network fractions `mix_frac` (must sum to 1) under
    /// `dispatch` — the denominator of the offered-load ratio ρ.
    ///
    /// Whole dispatch sums each array's independent service rate
    /// `1 / E[batch-1 cost]`; sharded dispatch serves one request at a
    /// time pod-wide, so capacity is the reciprocal of the mean LPT
    /// makespan. [`crate::engine::simulate`] calibrates its arrival
    /// rate as `load × capacity` from this same estimate, so a
    /// statically-computed ρ and the simulated offered load agree by
    /// construction.
    ///
    /// # Errors
    ///
    /// Propagates pricing errors from [`Self::request_cycles`] /
    /// [`Self::shard_plan`].
    pub fn pod_capacity(
        &mut self,
        mix_frac: &[f64],
        dispatch: Dispatch,
    ) -> Result<f64, ServeError> {
        match dispatch {
            Dispatch::Whole => {
                let mut total = 0.0;
                for a in 0..self.models.len() {
                    let mut mean = 0.0;
                    for (net, &frac) in mix_frac.iter().enumerate() {
                        mean += frac * self.request_cycles(a, net, 1)? as f64;
                    }
                    total += 1.0 / mean;
                }
                Ok(total)
            }
            Dispatch::Sharded => {
                let mut mean = 0.0;
                for (net, &frac) in mix_frac.iter().enumerate() {
                    mean += frac * self.shard_plan_ref(net, 1)?.makespan as f64;
                }
                Ok(1.0 / mean)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PodSpec;
    use fuseconv_models::zoo;

    fn oracle() -> CostOracle {
        let pod = PodSpec::parse("16x16:os,8x8:ws").expect("valid pod");
        let nets = vec![zoo::mobilenet_v1()];
        CostOracle::new(pod.models().expect("models"), &nets)
    }

    #[test]
    fn request_cost_is_sum_of_op_costs_and_memoised() {
        let mut o = oracle();
        let first = o.request_cycles(0, 0, 1).expect("cost");
        let again = o.request_cycles(0, 0, 1).expect("cost");
        assert_eq!(first, again);
        assert!(first > 0);
        // A second copy via the model directly must agree.
        let model = PodSpec::parse("16x16:os").unwrap().models().unwrap()[0];
        let by_hand: u64 = zoo::mobilenet_v1()
            .ops()
            .iter()
            .map(|n| model.cycles(&n.op).expect("op cost"))
            .sum();
        assert_eq!(first, by_hand);
    }

    #[test]
    fn batching_is_sublinear() {
        let mut o = oracle();
        let one = o.request_cycles(0, 0, 1).expect("cost");
        let four = o.request_cycles(0, 0, 4).expect("cost");
        assert!(four > one, "batch 4 costs more than batch 1 in total");
        assert!(four < 4 * one, "but less than 4 independent requests");
    }

    #[test]
    fn shard_plan_covers_all_ops_and_bounds_makespan() {
        let mut o = oracle();
        let plan = o.shard_plan(0, 1).expect("plan");
        assert_eq!(plan.shares.len(), 2);
        assert_eq!(plan.makespan, *plan.shares.iter().max().unwrap());
        // Sharding across two arrays cannot be slower than serialising
        // everything on the best single array.
        let best = o.best_cycles(0).expect("best");
        assert!(plan.makespan <= best);
        // And the plan must be deterministic.
        assert_eq!(plan, o.shard_plan(0, 1).expect("plan"));
    }

    #[test]
    fn shard_assignment_rederives_shares_and_makespan() {
        let mut o = oracle();
        let plan = o.shard_plan(0, 1).expect("plan");
        let ops: Vec<_> = zoo::mobilenet_v1()
            .ops()
            .into_iter()
            .map(|n| n.op)
            .collect();
        assert_eq!(plan.assignment.len(), ops.len());
        let models = PodSpec::parse("16x16:os,8x8:ws").unwrap().models().unwrap();
        let mut shares = vec![0u64; models.len()];
        for (op, &a) in ops.iter().zip(&plan.assignment) {
            shares[a] += models[a].cycles(op).expect("op cost");
        }
        assert_eq!(shares, plan.shares);
        assert_eq!(plan.makespan, *shares.iter().max().unwrap());
    }

    #[test]
    fn memo_counters_track_hits_and_misses() {
        let mut o = oracle();
        assert_eq!((o.memo_hits(), o.memo_misses()), (0, 0));
        let cold = o.request_cycles(0, 0, 1).expect("cost");
        assert_eq!((o.memo_hits(), o.memo_misses()), (0, 1));
        let warm = o.request_cycles(0, 0, 1).expect("cost");
        assert_eq!((o.memo_hits(), o.memo_misses()), (1, 1));
        assert_eq!(cold, warm, "memoised price must equal the cold price");
        o.shard_plan(0, 1).expect("plan");
        o.shard_plan(0, 1).expect("plan");
        assert_eq!((o.memo_hits(), o.memo_misses()), (2, 2));
    }

    #[test]
    fn capacity_matches_the_hand_formula() {
        let mut o = oracle();
        let whole = o.pod_capacity(&[1.0], Dispatch::Whole).expect("capacity");
        let c0 = o.request_cycles(0, 0, 1).unwrap() as f64;
        let c1 = o.request_cycles(1, 0, 1).unwrap() as f64;
        assert!((whole - (1.0 / c0 + 1.0 / c1)).abs() < 1e-15);
        let sharded = o.pod_capacity(&[1.0], Dispatch::Sharded).expect("capacity");
        let makespan = o.shard_plan(0, 1).unwrap().makespan as f64;
        assert!((sharded - 1.0 / makespan).abs() < 1e-15);
        assert!(whole > 0.0 && sharded > 0.0);
    }

    #[test]
    fn out_of_range_indices_are_config_errors() {
        let mut o = oracle();
        assert!(matches!(
            o.request_cycles(9, 0, 1),
            Err(ServeError::Config(_))
        ));
        assert!(matches!(
            o.request_cycles(0, 9, 1),
            Err(ServeError::Config(_))
        ));
        assert!(matches!(o.shard_plan(9, 1), Err(ServeError::Config(_))));
        // Each failed probe found no entry, as before, and priced nothing
        // into the memo.
        assert_eq!((o.memo_hits(), o.memo_misses()), (0, 3));
        assert!(o.costs.iter().all(Vec::is_empty));
        assert!(o.plans.iter().all(Vec::is_empty));
    }

    #[test]
    fn memo_counts_hits_and_misses_like_a_map_keyed_by_probe() {
        use std::collections::HashSet;
        // The reference: a set of the keys priced so far, keyed exactly
        // as the memo's contract says — `(array, net, batch)` for
        // request costs (batch 0 is its own key), `(net, max(batch, 1))`
        // for shard plans.
        let pod = PodSpec::parse("16x16:os,8x8:ws,8x8:is").expect("valid pod");
        let nets = vec![zoo::mobilenet_v1(), zoo::mobilenet_v2()];
        let mut o = CostOracle::new(pod.models().expect("models"), &nets);
        let mut costs: HashSet<(usize, usize, usize)> = HashSet::new();
        let mut plans: HashSet<(usize, usize)> = HashSet::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        enum Probe {
            Cost(usize, usize, usize),
            Plan(usize, usize),
        }
        let script = [
            Probe::Cost(0, 0, 3),
            Probe::Cost(0, 0, 1),
            Probe::Cost(0, 0, 3),
            Probe::Cost(0, 0, 8),
            Probe::Cost(0, 0, 2),
            Probe::Cost(0, 0, 0),
            Probe::Cost(0, 0, 1),
            Probe::Cost(2, 1, 2),
            Probe::Cost(1, 1, 2),
            Probe::Cost(2, 1, 2),
            Probe::Plan(1, 4),
            Probe::Plan(1, 0),
            Probe::Plan(1, 1),
            Probe::Plan(0, 4),
            Probe::Plan(1, 4),
            Probe::Cost(0, 0, 8),
            Probe::Cost(0, 0, 0),
            Probe::Plan(1, 2),
            Probe::Plan(1, 4),
        ];
        let fresh = || CostOracle::new(pod.models().expect("models"), &nets);
        for (step, probe) in script.iter().enumerate() {
            match *probe {
                Probe::Cost(a, n, b) => {
                    let memo = o.request_cycles(a, n, b).expect("price");
                    assert_eq!(memo, fresh().request_cycles(a, n, b).expect("price"));
                    if costs.insert((a, n, b)) {
                        misses += 1;
                    } else {
                        hits += 1;
                    }
                }
                Probe::Plan(n, b) => {
                    let memo = o.shard_plan(n, b).expect("plan");
                    assert_eq!(memo, fresh().shard_plan(n, b).expect("plan"));
                    if plans.insert((n, b.max(1))) {
                        misses += 1;
                    } else {
                        hits += 1;
                    }
                }
            }
            assert_eq!(
                (o.memo_hits(), o.memo_misses()),
                (hits, misses),
                "after probe {step}"
            );
        }
        // The memo lists stay sorted by batch, one entry per key.
        for memo in &o.costs {
            assert!(memo.windows(2).all(|w| w[0].0 < w[1].0));
        }
        assert_eq!(o.costs.iter().map(Vec::len).sum::<usize>(), costs.len());
        assert_eq!(o.plans.iter().map(Vec::len).sum::<usize>(), plans.len());
    }
}
