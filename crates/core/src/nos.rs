//! Neural Operator Search (NOS) — the paper's motivated future work
//! (§I, §VI), implemented as an exact per-block search.
//!
//! The paper frames FuSeConv as the result of a *manual* operator search
//! and calls for automating the choice of operator per layer. Because the
//! FuSe transformation preserves every block's interface (shapes in/out),
//! operator choices are independent across blocks, and the network-level
//! trade-off decomposes exactly: each separable block independently picks
//! one of {depthwise, FuSe-Full, FuSe-Half}, contributing its own latency
//! and parameter count.
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

    fn fuse_variant(&self) -> Option<FuSeVariant> {
        match self {
            OpChoice::Depthwise => None,
            OpChoice::FuseFull => Some(FuSeVariant::Full),
            OpChoice::FuseHalf => Some(FuSeVariant::Half),
        }
    }
}

impl fmt::Display for OpChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpChoice::Depthwise => "dw",
            OpChoice::FuseFull => "full",
            OpChoice::FuseHalf => "half",
        };
        f.write_str(s)
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

/// Per-block cost of each operator choice.
#[derive(Debug, Clone)]
struct BlockCosts {
    /// `(latency, params)` per [`OpChoice::ALL`] entry.
    costs: [(u64, u64); 3],
}

fn block_cost(
    model: &LatencyModel,
    block: &Block,
    choice: OpChoice,
) -> Result<(u64, u64), LatencyError> {
    let b = match choice.fuse_variant() {
        None => *block,
        Some(v) => block.fused(v),
    };
    let ops = b.ops();
    let mut latency = 0u64;
    let mut params = 0u64;
    for op in &ops {
        latency += model.cycles(op)?;
        params += Op::params(op);
    }
    Ok((latency, params))
}

fn gather_costs(
    network: &Network,
    model: &LatencyModel,
) -> Result<(Vec<BlockCosts>, u64, u64), LatencyError> {
    let mut fixed_latency = 0u64;
    let mut fixed_params = 0u64;
    let mut blocks = Vec::new();
    for (_, block) in network.blocks() {
        if block.is_replaceable() {
            let mut costs = [(0u64, 0u64); 3];
            for (slot, &choice) in OpChoice::ALL.iter().enumerate() {
                costs[slot] = block_cost(model, block, choice)?;
            }
            blocks.push(BlockCosts { costs });
        } else {
            let (l, p) = block_cost(model, block, OpChoice::Depthwise)?;
            fixed_latency += l;
            fixed_params += p;
        }
    }
    Ok((blocks, fixed_latency, fixed_params))
}

/// Removes dominated points: keeps, for increasing latency, strictly
/// increasing parameter counts.
fn prune(mut points: Vec<NosPoint>) -> Vec<NosPoint> {
    points.sort_by(|a, b| a.latency.cmp(&b.latency).then(b.params.cmp(&a.params)));
    let mut kept: Vec<NosPoint> = Vec::new();
    for p in points {
        match kept.last() {
            Some(last) if p.params <= last.params => {}   // dominated
            Some(last) if p.latency == last.latency => {} // same latency, fewer params already kept
            _ => kept.push(p),
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
    let model = LatencyModel::new(*array);
    let (blocks, fixed_latency, fixed_params) = gather_costs(network, &model)?;
    let mut frontier = vec![NosPoint {
        latency: fixed_latency,
        params: fixed_params,
        assignment: Vec::new(),
    }];
    for block in &blocks {
        let mut next = Vec::with_capacity(frontier.len() * 3);
        for point in &frontier {
            for (slot, &choice) in OpChoice::ALL.iter().enumerate() {
                let (l, p) = block.costs[slot];
                let mut assignment = point.assignment.clone();
                assignment.push(choice);
                next.push(NosPoint {
                    latency: point.latency + l,
                    params: point.params + p,
                    assignment,
                });
            }
        }
        frontier = prune(next);
    }
    Ok(frontier)
}

fn materialize(
    network: &Network,
    array: &ArrayConfig,
    point: NosPoint,
) -> Result<NosResult, LatencyError> {
    let replaceable = network.replaceable_indices();
    debug_assert_eq!(replaceable.len(), point.assignment.len());
    let mut full_idx = Vec::new();
    let mut half_idx = Vec::new();
    for (&i, &choice) in replaceable.iter().zip(&point.assignment) {
        match choice {
            OpChoice::Depthwise => {}
            OpChoice::FuseFull => full_idx.push(i),
            OpChoice::FuseHalf => half_idx.push(i),
        }
    }
    let mut net = network.clone();
    if !full_idx.is_empty() {
        net = net
            .transform_selected(FuSeVariant::Full, &full_idx)
            .expect("indices replaceable");
    }
    if !half_idx.is_empty() {
        net = net
            .transform_selected(FuSeVariant::Half, &half_idx)
            .expect("indices replaceable");
    }
    let model = LatencyModel::new(*array);
    let base = fuseconv_latency::estimate_network(&model, network)?;
    let this = fuseconv_latency::estimate_network(&model, &net)?;
    let speedup = this.speedup_over(&base);
    Ok(NosResult {
        point,
        network: net,
        speedup,
    })
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
    let frontier = pareto_frontier(network, array)?;
    let best = frontier
        .into_iter()
        .filter(|p| p.latency <= latency_budget)
        .max_by_key(|p| p.params);
    match best {
        None => Ok(None),
        Some(point) => Ok(Some(materialize(network, array, point)?)),
    }
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
    let frontier = pareto_frontier(network, array)?;
    let best = frontier
        .into_iter()
        .filter(|p| p.params >= params_floor)
        .min_by_key(|p| p.latency);
    match best {
        None => Ok(None),
        Some(point) => Ok(Some(materialize(network, array, point)?)),
    }
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
    let model = LatencyModel::new(*array);
    let mut rows = Vec::new();
    for variant in Variant::ALL {
        let net = crate::variant::apply_variant(network, variant, array)?;
        let report = fuseconv_latency::estimate_network(&model, &net)?;
        rows.push((variant, report.total_cycles, net.params()));
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
        let mid = frontier[frontier.len() / 2].clone();
        let result = materialize(&net, &array, mid.clone()).unwrap();
        assert_eq!(result.network.params(), mid.params);
        let model = LatencyModel::new(array);
        let measured = estimate_network(&model, &result.network).unwrap();
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
