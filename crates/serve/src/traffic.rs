//! Open-loop traffic generation from the vendored PRNG.
//!
//! Requests arrive Poisson-style: exponential inter-arrival gaps drawn
//! by inverse-transform sampling from [`fuseconv_tensor::rng::Rng`],
//! each request picking a network from a weighted mix and (optionally)
//! a high-priority tag. Open-loop means arrivals never slow down under
//! overload — exactly the regime where the goodput-vs-offered-load
//! curve bends.
//!
//! Each arrival costs three PRNG draws and no division: the network
//! pick reuses one precomputed [`Below`] sampler over the total weight
//! and finds the network by binary search over cumulative weights.

use crate::spec::ServeError;
use fuseconv_models::Network;
use fuseconv_tensor::rng::{Below, Rng};

/// The request mix: which networks the pod serves and how often each
/// one shows up.
#[derive(Debug, Clone)]
pub struct Workload {
    networks: Vec<Network>,
    weights: Vec<u64>,
}

impl Workload {
    /// An equally-weighted mix over `networks`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] when `networks` is empty.
    pub fn uniform(networks: Vec<Network>) -> Result<Self, ServeError> {
        let weights = vec![1; networks.len()];
        Workload::weighted(networks, weights)
    }

    /// A mix with explicit per-network weights (relative frequencies).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] when empty, when lengths differ,
    /// or when all weights are zero.
    pub fn weighted(networks: Vec<Network>, weights: Vec<u64>) -> Result<Self, ServeError> {
        if networks.is_empty() {
            return Err(ServeError::Config("workload has no networks".to_string()));
        }
        if networks.len() != weights.len() {
            return Err(ServeError::Config(format!(
                "{} networks but {} weights",
                networks.len(),
                weights.len()
            )));
        }
        if weights.iter().all(|&w| w == 0) {
            return Err(ServeError::Config(
                "all workload weights are zero".to_string(),
            ));
        }
        Ok(Workload { networks, weights })
    }

    /// The mix's networks, in index order (request `net` fields index
    /// into this).
    pub fn networks(&self) -> &[Network] {
        &self.networks
    }

    /// Relative frequency of each network.
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Each network's share of the request stream as a fraction in
    /// `[0, 1]`; the fractions sum to 1.
    pub fn mix_fractions(&self) -> Vec<f64> {
        let total: u64 = self.weights.iter().sum();
        self.weights
            .iter()
            .map(|&w| w as f64 / total as f64)
            .collect()
    }

    /// Number of networks in the mix.
    pub fn len(&self) -> usize {
        self.networks.len()
    }

    /// Whether the mix is empty (never true for a constructed one).
    pub fn is_empty(&self) -> bool {
        self.networks.is_empty()
    }
}

/// One generated request arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time, array cycles.
    pub at: u64,
    /// Index into the workload's network list.
    pub net: usize,
    /// Whether the request is tagged high priority (preemption
    /// candidate trigger).
    pub high_priority: bool,
}

/// Deterministic open-loop arrival process.
#[derive(Debug)]
pub struct TrafficGen {
    rng: Rng,
    mean_gap: f64,
    /// Running sums of the mix weights; a zero weight repeats the
    /// previous sum, so no pick lands on its network.
    cumulative: Vec<u64>,
    pick: Below,
    high_frac: f64,
}

impl TrafficGen {
    /// An arrival process with mean inter-arrival `mean_gap_cycles`
    /// (at least one cycle), network mix from `workload`, and a
    /// `high_frac` fraction (in `[0, 1]`) of high-priority requests,
    /// all drawn from a PRNG seeded with `seed`. The engine checks both
    /// ranges before it builds the generator.
    pub fn new(seed: u64, mean_gap_cycles: f64, workload: &Workload, high_frac: f64) -> Self {
        let mut cumulative = Vec::with_capacity(workload.len());
        let mut total_weight = 0u64;
        for &w in workload.weights() {
            total_weight = total_weight.saturating_add(w);
            cumulative.push(total_weight);
        }
        TrafficGen {
            rng: Rng::seed_from_u64(seed),
            mean_gap: mean_gap_cycles,
            cumulative,
            pick: Below::new(total_weight as usize),
            high_frac,
        }
    }

    /// Draws the next arrival strictly after `now`: an exponential gap
    /// (inverse-transform, never below one cycle), a weighted network
    /// pick and a priority coin flip. Consumes exactly three PRNG
    /// draws, so the stream is reproducible independent of simulator
    /// state.
    pub fn next_after(&mut self, now: u64) -> Arrival {
        let u = self.rng.next_f64();
        // 1 - u is in (0, 1]; ln of it is finite and non-positive.
        let gap = (-(1.0 - u).ln() * self.mean_gap).ceil().max(1.0);
        let gap = if gap >= u64::MAX as f64 {
            u64::MAX
        } else {
            gap as u64
        };
        let pick = self.pick.sample(&mut self.rng) as u64;
        // The first running sum above `pick`; `pick` is below the last.
        let net = self.cumulative.partition_point(|&c| c <= pick);
        let high_priority = self.rng.next_f64() < self.high_frac;
        Arrival {
            at: now.saturating_add(gap),
            net,
            high_priority,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_models::zoo;

    fn mix() -> Workload {
        Workload::weighted(vec![zoo::mobilenet_v1(), zoo::mobilenet_v2()], vec![3, 1])
            .expect("valid mix")
    }

    #[test]
    fn rejects_degenerate_mixes() {
        assert!(Workload::uniform(vec![]).is_err());
        assert!(Workload::weighted(vec![zoo::mobilenet_v1()], vec![0]).is_err());
        assert!(Workload::weighted(vec![zoo::mobilenet_v1()], vec![1, 2]).is_err());
    }

    #[test]
    fn arrivals_are_strictly_increasing_and_deterministic() {
        let w = mix();
        let mut a = TrafficGen::new(7, 100.0, &w, 0.25);
        let mut b = TrafficGen::new(7, 100.0, &w, 0.25);
        let mut now = 0u64;
        for _ in 0..1000 {
            let next = a.next_after(now);
            assert_eq!(next, b.next_after(now), "same seed, same stream");
            assert!(next.at > now);
            assert!(next.net < w.len());
            now = next.at;
        }
    }

    #[test]
    fn weighted_mix_respects_ratios_roughly() {
        let w = mix();
        let mut gen = TrafficGen::new(11, 10.0, &w, 0.0);
        let mut counts = [0u64; 2];
        let mut now = 0;
        for _ in 0..4000 {
            let a = gen.next_after(now);
            counts[a.net] += 1;
            now = a.at;
            assert!(!a.high_priority, "high_frac 0 never tags requests");
        }
        // 3:1 mix — allow generous slack, this is a smoke check.
        assert!(counts[0] > counts[1] * 2);
    }

    #[test]
    fn network_pick_matches_the_old_linear_scan() {
        let mixes: [&[u64]; 6] = [
            &[1],
            &[0, 5, 2],
            &[4, 0, 0, 1],
            &[2, 7, 0],
            &[0, 0, 1, 0, 3, 0, 0],
            &[1; 14],
        ];
        for weights in mixes {
            let nets = vec![zoo::mobilenet_v1(); weights.len()];
            let w = Workload::weighted(nets, weights.to_vec()).expect("valid mix");
            let mut gen = TrafficGen::new(5, 50.0, &w, 0.3);
            // The old pick: a fresh `below` per arrival, then the first
            // running sum above it by linear scan.
            let (mut old, mut now) = (Rng::seed_from_u64(5), 0);
            let total: u64 = weights.iter().sum();
            for _ in 0..5_000 {
                let next = gen.next_after(now);
                old.next_f64();
                let pick = old.below(total as usize) as u64;
                old.next_f64();
                let mut sum = 0;
                let net = weights.iter().position(|&wt| {
                    sum += wt;
                    pick < sum
                });
                assert_eq!(Some(next.net), net, "{weights:?}");
                now = next.at;
            }
        }
    }

    #[test]
    fn mean_gap_is_approximately_honoured() {
        let w = mix();
        let mut gen = TrafficGen::new(3, 500.0, &w, 0.0);
        let mut now = 0u64;
        let n = 4000;
        for _ in 0..n {
            now = gen.next_after(now).at;
        }
        let mean = now as f64 / n as f64;
        assert!(mean > 350.0 && mean < 700.0, "observed mean gap {mean}");
    }
}
