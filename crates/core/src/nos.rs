//! Neural Operator Search (NOS) — the paper's motivated future work
//! (§I, §VI), implemented as an exact per-block search.
//!
//! The paper frames FuSeConv as the result of a *manual* operator search
//! and calls for automating the choice of operator per layer. Because the
//! FuSe transformation preserves every block's interface (shapes in/out),
//! operator choices are independent across blocks, and the network-level
//! trade-off decomposes exactly: each separable block independently picks
//! one of {depthwise, FuSe-Full, FuSe-Half}, contributing its own latency
//! and parameter count. Each block is priced once per choice, in checked
//! arithmetic; the 50 % variants ([`crate::variant`]) and the Fig. 8(b)
//! layer-wise rows read the same prices.
//!
//! Parameters act as the capacity (accuracy) proxy — Table I shows accuracy
//! ordering tracking parameter count (Full > baseline > Half) — so the
//! search computes the exact **Pareto frontier over (latency, parameters)**
//! by dynamic programming with dominance pruning, and answers two dual
//! queries:
//!
//! - [`search_under_latency`] — maximize capacity subject to a latency
//!   budget;
//! - [`search_under_params`] — minimize latency subject to a capacity
//!   floor.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use fuseconv_core::nos;
//! use fuseconv_models::zoo;
//! use fuseconv_systolic::ArrayConfig;
//!
//! let array = ArrayConfig::square(64)?.with_broadcast(true);
//! let frontier = nos::pareto_frontier(&zoo::mobilenet_v1(), &array)?;
//! assert!(frontier.len() > 2); // more than just the Table I variants
//! # Ok(())
//! # }
//! ```

use crate::variant::Variant;
use fuseconv_latency::{LatencyError, LatencyModel};
use fuseconv_models::{Block, Network};
use fuseconv_nn::ops::Op;
use fuseconv_nn::FuSeVariant;
use fuseconv_systolic::ArrayConfig;
use std::fmt;

/// The operator choices available to one separable block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpChoice {
    /// Keep the baseline `K×K` depthwise filter.
    Depthwise,
    /// Replace with FuSe-Full (`D = 1`).
    FuseFull,
    /// Replace with FuSe-Half (`D = 2`).
    FuseHalf,
}

impl OpChoice {
    /// All choices, in capacity order (most parameters first).
    pub const ALL: [OpChoice; 3] = [OpChoice::FuseFull, OpChoice::Depthwise, OpChoice::FuseHalf];

    /// The one-letter code an assignment listing prints: `D`, `F` or `H`.
    pub fn letter(self) -> char {
        match self {
            OpChoice::Depthwise => 'D',
            OpChoice::FuseFull => 'F',
            OpChoice::FuseHalf => 'H',
        }
    }

    /// `block` with its spatial filter set by this choice.
    fn apply(self, block: Block) -> Block {
        match self {
            OpChoice::Depthwise => block,
            OpChoice::FuseFull => block.fused(FuSeVariant::Full),
            OpChoice::FuseHalf => block.fused(FuSeVariant::Half),
        }
    }
}

/// One point on the (latency, parameters) Pareto frontier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NosPoint {
    /// Total network latency, cycles.
    pub latency: u64,
    /// Total network parameters.
    pub params: u64,
    /// Per-separable-block operator assignment, in block order (indices
    /// refer to the network's replaceable blocks, in order).
    pub assignment: Vec<OpChoice>,
}

/// A search outcome: a frontier point plus the materialized network.
#[derive(Debug, Clone, PartialEq)]
pub struct NosResult {
    /// The selected frontier point.
    pub point: NosPoint,
    /// The network with the assignment applied.
    pub network: Network,
    /// Speed-up relative to the all-depthwise baseline.
    pub speedup: f64,
}

/// A block's or a network's `(latency cycles, parameters)`.
pub(crate) type Cost = (u64, u64);

/// `sum + more` in checked arithmetic; an overflow names `what`, the
/// operator or block whose cost the sum could not take.
fn add(sum: Cost, more: Cost, what: impl fmt::Display) -> Result<Cost, LatencyError> {
    let op = || LatencyError::ArithmeticOverflow {
        op: what.to_string(),
    };
    Ok((
        sum.0.checked_add(more.0).ok_or_else(op)?,
        sum.1.checked_add(more.1).ok_or_else(op)?,
    ))
}

/// The one place a block is priced: `block` under `choice`, its
/// operators' cycles and parameters summed.
fn block_cost(model: &LatencyModel, block: Block, choice: OpChoice) -> Result<Cost, LatencyError> {
    let mut cost = (0, 0);
    for op in &choice.apply(block).ops() {
        cost = add(cost, (model.cycles(op)?, Op::params(op)), op)?;
    }
    Ok(cost)
}

/// Every block of a network, with its cost under each [`OpChoice`] a
/// caller asked for (`None` under the others). The NOS search, the 50 %
/// variants' selection and the Fig. 8(b) rows all read block costs here.
pub(crate) struct BlockCosts(Vec<(Block, [Option<Cost>; 3])>);

impl BlockCosts {
    /// Prices every block as it is, then the replaceable ones under each
    /// choice in `fused` in turn: the order in which estimating the network
    /// as it is, then under each choice, meets operators and errors.
    pub(crate) fn price(
        network: &Network,
        array: &ArrayConfig,
        fused: &[OpChoice],
    ) -> Result<Self, LatencyError> {
        let model = LatencyModel::new(*array);
        let mut blocks: Vec<_> = network
            .blocks()
            .iter()
            .map(|&(_, b)| (b, [None; 3]))
            .collect();
        for &choice in [OpChoice::Depthwise].iter().chain(fused) {
            for (block, costs) in &mut blocks {
                if choice == OpChoice::Depthwise || block.is_replaceable() {
                    costs[choice as usize] = Some(block_cost(&model, *block, choice)?);
                }
            }
        }
        Ok(BlockCosts(blocks))
    }

    /// The number of blocks.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// The network indices of the replaceable blocks, in order.
    pub(crate) fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(|&i| self.0[i].0.is_replaceable())
    }

    /// Block `i`'s cost under `choice`, which [`BlockCosts::price`] was
    /// asked for.
    pub(crate) fn cost(&self, i: usize, choice: OpChoice) -> Cost {
        self.0[i].1[choice as usize].expect("choice was priced")
    }

    /// `sum` plus block `i`'s cost under `choice`.
    fn plus(&self, sum: Cost, i: usize, choice: OpChoice) -> Result<Cost, LatencyError> {
        add(sum, self.cost(i, choice), choice.apply(self.0[i].0))
    }

    /// The summed cost of the blocks no choice changes.
    fn fixed(&self) -> Result<Cost, LatencyError> {
        (0..self.len())
            .filter(|&i| !self.0[i].0.is_replaceable())
            .try_fold((0, 0), |sum, i| self.plus(sum, i, OpChoice::Depthwise))
    }

    /// The network's cost with block `i` under `choices[i]`.
    pub(crate) fn total(&self, choices: &[OpChoice]) -> Result<Cost, LatencyError> {
        let mut blocks = choices.iter().enumerate();
        blocks.try_fold((0, 0), |sum, (i, &choice)| self.plus(sum, i, choice))
    }
}

/// Removes dominated points: keeps, for increasing latency, strictly
/// increasing parameter counts.
fn prune(mut points: Vec<NosPoint>) -> Vec<NosPoint> {
    points.sort_by(|a, b| a.latency.cmp(&b.latency).then(b.params.cmp(&a.params)));
    let mut kept: Vec<NosPoint> = Vec::new();
    for p in points {
        // A later point of a kept latency has no more parameters: dropped.
        if kept.last().is_none_or(|last| p.params > last.params) {
            kept.push(p);
        }
    }
    kept
}

/// Computes the exact (latency, parameters) Pareto frontier over all
/// per-block operator assignments, by DP with dominance pruning.
///
/// Frontier points are sorted by increasing latency (and therefore
/// increasing parameters). The two extremes are the all-FuSe-Half
/// assignment (fastest) and whichever assignment maximizes parameters
/// (all-FuSe-Full).
///
/// # Errors
///
/// Propagates [`LatencyError`] (e.g. a broadcast-less array).
pub fn pareto_frontier(
    network: &Network,
    array: &ArrayConfig,
) -> Result<Vec<NosPoint>, LatencyError> {
    frontier(&BlockCosts::price(network, array, &FUSED)?)
}

/// The fused choices the search prices besides the depthwise baseline.
const FUSED: [OpChoice; 2] = [OpChoice::FuseFull, OpChoice::FuseHalf];

fn frontier(costs: &BlockCosts) -> Result<Vec<NosPoint>, LatencyError> {
    let (latency, params) = costs.fixed()?;
    let mut frontier = vec![NosPoint {
        latency,
        params,
        assignment: Vec::new(),
    }];
    for i in costs.indices() {
        let mut next = Vec::with_capacity(frontier.len() * 3);
        for point in &frontier {
            for choice in OpChoice::ALL {
                let (latency, params) = costs.plus((point.latency, point.params), i, choice)?;
                let mut assignment = point.assignment.clone();
                assignment.push(choice);
                next.push(NosPoint {
                    latency,
                    params,
                    assignment,
                });
            }
        }
        frontier = prune(next);
    }
    Ok(frontier)
}

/// `network` with block `i` under `choices[i]`: one
/// `transform_selected` per fused choice that occurs. The NOS results,
/// the 50 % variants and the Table I rows are built here.
pub(crate) fn materialize(network: &Network, choices: &[OpChoice]) -> Network {
    let mut net = network.clone();
    for (choice, fuse) in [
        (OpChoice::FuseFull, FuSeVariant::Full),
        (OpChoice::FuseHalf, FuSeVariant::Half),
    ] {
        let picked: Vec<usize> = (0..choices.len())
            .filter(|&i| choices[i] == choice)
            .collect();
        if !picked.is_empty() {
            net = net
                .transform_selected(fuse, &picked)
                .expect("fused blocks are replaceable");
        }
    }
    net
}

/// The choice of every block of `network` under `point`'s assignment.
fn point_choices(network: &Network, point: &NosPoint) -> Vec<OpChoice> {
    let mut choices = vec![OpChoice::Depthwise; network.blocks().len()];
    for (i, &choice) in network.replaceable_indices().iter().zip(&point.assignment) {
        choices[*i] = choice;
    }
    choices
}

/// Picks a frontier point with `pick` and materializes it, with its
/// speed-up over the all-depthwise network.
fn search(
    network: &Network,
    array: &ArrayConfig,
    pick: impl FnOnce(Vec<NosPoint>) -> Option<NosPoint>,
) -> Result<Option<NosResult>, LatencyError> {
    let costs = BlockCosts::price(network, array, &FUSED)?;
    let Some(point) = pick(frontier(&costs)?) else {
        return Ok(None);
    };
    let (base, _) = costs.total(&Variant::Baseline.choices(&costs))?;
    Ok(Some(NosResult {
        network: materialize(network, &point_choices(network, &point)),
        speedup: base as f64 / point.latency as f64,
        point,
    }))
}

/// Maximizes capacity (parameters) subject to `latency ≤ budget` cycles.
/// Returns `None` if even the fastest assignment exceeds the budget.
///
/// # Errors
///
/// Propagates [`LatencyError`].
pub fn search_under_latency(
    network: &Network,
    array: &ArrayConfig,
    latency_budget: u64,
) -> Result<Option<NosResult>, LatencyError> {
    search(network, array, |frontier| {
        frontier
            .into_iter()
            .filter(|p| p.latency <= latency_budget)
            .max_by_key(|p| p.params)
    })
}

/// Minimizes latency subject to `params ≥ floor` (a capacity floor standing
/// in for an accuracy requirement). Returns `None` if no assignment can
/// reach the floor.
///
/// # Errors
///
/// Propagates [`LatencyError`].
pub fn search_under_params(
    network: &Network,
    array: &ArrayConfig,
    params_floor: u64,
) -> Result<Option<NosResult>, LatencyError> {
    search(network, array, |frontier| {
        frontier
            .into_iter()
            .filter(|p| p.params >= params_floor)
            .min_by_key(|p| p.latency)
    })
}

/// The frontier points corresponding to the paper's fixed variants, for
/// comparison in reports: `(variant, latency, params)`.
///
/// # Errors
///
/// Propagates [`LatencyError`].
pub fn fixed_variant_points(
    network: &Network,
    array: &ArrayConfig,
) -> Result<Vec<(Variant, u64, u64)>, LatencyError> {
    let points = variant_choices(network, array)?.into_iter();
    Ok(points
        .map(|(v, _, (latency, params))| (v, latency, params))
        .collect())
}

/// Each Table I variant with its per-block choices and their network cost,
/// every block priced once.
pub(crate) fn variant_choices(
    network: &Network,
    array: &ArrayConfig,
) -> Result<Vec<(Variant, Vec<OpChoice>, Cost)>, LatencyError> {
    let costs = BlockCosts::price(network, array, &FUSED)?;
    let mut rows = Vec::new();
    for variant in Variant::ALL {
        let choices = variant.choices(&costs);
        let cost = costs.total(&choices)?;
        rows.push((variant, choices, cost));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_latency::estimate_network;
    use fuseconv_models::zoo;

    fn array64() -> ArrayConfig {
        ArrayConfig::square(64).unwrap().with_broadcast(true)
    }

    #[test]
    fn frontier_is_sorted_and_nondominated() {
        let frontier = pareto_frontier(&zoo::mobilenet_v1(), &array64()).unwrap();
        assert!(frontier.len() >= 3);
        for pair in frontier.windows(2) {
            assert!(pair[0].latency < pair[1].latency);
            assert!(pair[0].params < pair[1].params);
        }
    }

    #[test]
    fn frontier_extremes_are_all_half_and_all_full() {
        let net = zoo::mobilenet_v1();
        let frontier = pareto_frontier(&net, &array64()).unwrap();
        let fastest = frontier.first().unwrap();
        assert!(fastest.assignment.iter().all(|&c| c == OpChoice::FuseHalf));
        let richest = frontier.last().unwrap();
        assert!(richest.assignment.iter().all(|&c| c == OpChoice::FuseFull));
    }

    #[test]
    fn frontier_points_materialize_consistently() {
        // A middle frontier point's predicted latency/params must match the
        // materialized network exactly.
        let net = zoo::mobilenet_v3_small();
        let array = array64();
        let frontier = pareto_frontier(&net, &array).unwrap();
        let mid = &frontier[frontier.len() / 2];
        let network = materialize(&net, &point_choices(&net, mid));
        assert_eq!(network.params(), mid.params);
        let model = LatencyModel::new(array);
        let measured = estimate_network(&model, &network).unwrap();
        assert_eq!(measured.total_cycles, mid.latency);
    }

    #[test]
    fn latency_budget_search_respects_budget() {
        let net = zoo::mobilenet_v1();
        let array = array64();
        let model = LatencyModel::new(array);
        let base = estimate_network(&model, &net).unwrap().total_cycles;
        // Budget: 4x faster than baseline.
        let budget = base / 4;
        let found = search_under_latency(&net, &array, budget)
            .unwrap()
            .expect("budget reachable");
        assert!(found.point.latency <= budget);
        assert!(found.speedup >= 4.0);
        // Capacity-maximal under the budget: beats the all-half extreme.
        let frontier = pareto_frontier(&net, &array).unwrap();
        assert!(found.point.params >= frontier.first().unwrap().params);
    }

    #[test]
    fn impossible_budgets_return_none() {
        let net = zoo::mobilenet_v3_small();
        let array = array64();
        assert!(search_under_latency(&net, &array, 1).unwrap().is_none());
        assert!(search_under_params(&net, &array, u64::MAX)
            .unwrap()
            .is_none());
    }

    #[test]
    fn params_floor_search_respects_floor() {
        let net = zoo::mobilenet_v2();
        let array = array64();
        // Floor: keep at least the baseline's parameter count.
        let floor = net.params();
        let found = search_under_params(&net, &array, floor)
            .unwrap()
            .expect("all-full exceeds baseline params");
        assert!(found.point.params >= floor);
        // And it should still be much faster than the baseline.
        assert!(found.speedup > 2.0, "speedup {:.2}", found.speedup);
    }

    #[test]
    fn nos_beats_fixed_variants_at_their_own_params() {
        // The searched assignment at the Full variant's parameter count
        // must be at least as fast as the Full variant itself (the fixed
        // variants are feasible points of the search space).
        let net = zoo::mnasnet_b1();
        let array = array64();
        let fixed = fixed_variant_points(&net, &array).unwrap();
        let (_, full_latency, full_params) = *fixed
            .iter()
            .find(|(v, _, _)| *v == Variant::FuseFull)
            .unwrap();
        let found = search_under_params(&net, &array, full_params)
            .unwrap()
            .expect("reachable");
        assert!(
            found.point.latency <= full_latency,
            "NOS {} vs fixed Full {}",
            found.point.latency,
            full_latency
        );
    }

    #[test]
    fn dp_frontier_equals_brute_force_on_small_network() {
        // Exhaustively enumerate all 3^5 assignments of a 5-block network
        // and check the DP frontier is exactly the nondominated set.
        let net = fuseconv_models::topology::parse(
            "brute",
            "input, 64, 3
             conv,  8, 3, 2
             sep,   8, 16, 3, 1
             sep,   48, 24, 3, 2
             sep,   72, 32, 5, 1, se4
             sep,   96, 40, 3, 2
             sep,   120, 48, 5, 1
             fc,    10",
        )
        .unwrap();
        let array = array64();
        let model = LatencyModel::new(array);
        let replaceable = net.replaceable_indices();
        assert_eq!(replaceable.len(), 5);

        // Brute force: evaluate every assignment end to end.
        let mut points: Vec<(u64, u64)> = Vec::new();
        for code in 0..3usize.pow(5) {
            let mut c = code;
            let mut full = Vec::new();
            let mut half = Vec::new();
            for &i in &replaceable {
                match c % 3 {
                    0 => {}
                    1 => full.push(i),
                    _ => half.push(i),
                }
                c /= 3;
            }
            let mut n = net.clone();
            if !full.is_empty() {
                n = n.transform_selected(FuSeVariant::Full, &full).unwrap();
            }
            if !half.is_empty() {
                n = n.transform_selected(FuSeVariant::Half, &half).unwrap();
            }
            let lat = fuseconv_latency::estimate_network(&model, &n).unwrap();
            points.push((lat.total_cycles, n.params()));
        }
        // Nondominated subset of the brute-force cloud.
        points.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut brute: Vec<(u64, u64)> = Vec::new();
        for p in points {
            match brute.last() {
                Some(&(last_l, last_p)) if p.1 <= last_p || p.0 == last_l => {}
                _ => brute.push(p),
            }
        }

        let dp: Vec<(u64, u64)> = pareto_frontier(&net, &array)
            .unwrap()
            .into_iter()
            .map(|p| (p.latency, p.params))
            .collect();
        assert_eq!(dp, brute);
    }

    #[test]
    fn sums_past_u64_are_errors_in_every_build() {
        // On a 1x1 array each operator's cycles fit in u64; their sum does not.
        let net = fuseconv_models::topology::parse(
            "overflow",
            "input, 32768, 1
             head, 4294967296
             head, 1
             head, 4294967296",
        )
        .unwrap();
        let array = ArrayConfig::square(1).unwrap().with_broadcast(true);
        let overflow =
            |r: Result<(), LatencyError>| matches!(r, Err(LatencyError::ArithmeticOverflow { .. }));
        assert!(overflow(pareto_frontier(&net, &array).map(|_| ())));
        assert!(overflow(fixed_variant_points(&net, &array).map(|_| ())));
        assert!(overflow(search_under_params(&net, &array, 0).map(|_| ())));
        let model = LatencyModel::new(array);
        assert!(overflow(estimate_network(&model, &net).map(|_| ())));
    }

    #[test]
    fn mixed_assignments_appear_on_the_frontier() {
        // The frontier should contain genuinely mixed assignments, not just
        // the three uniform ones.
        let frontier = pareto_frontier(&zoo::mobilenet_v3_large(), &array64()).unwrap();
        let mixed = frontier.iter().any(|p| {
            let mut kinds = p.assignment.clone();
            kinds.dedup();
            kinds.len() > 1
        });
        assert!(mixed, "frontier has only uniform assignments");
    }
}
