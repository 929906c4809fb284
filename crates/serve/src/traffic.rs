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
//!
//! [`TrafficGen`] hands out arrivals from a block of [`BLOCK`] that it
//! refills in three passes: the PRNG draws in per-arrival order, then
//! every gap's `ln`, then the integer ceilings, the running sum into
//! arrival times and the network lookups. The `ln` calls of a block
//! are independent, so they pipeline; drawn one per event-loop turn,
//! each waited out its own PRNG → `ln` → `ceil` chain. The stream is
//! bit-identical to drawing one arrival at a time.

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

/// Arrivals drawn per refill of a [`TrafficGen`].
const BLOCK: usize = 64;

/// Deterministic open-loop arrival process: a stream of arrivals with
/// strictly increasing times (until they saturate at `u64::MAX`).
#[derive(Debug)]
pub struct TrafficGen {
    rng: Rng,
    mean_gap: f64,
    /// Running sums of the mix weights; a zero weight repeats the
    /// previous sum, so no pick lands on its network.
    cumulative: Vec<u64>,
    pick: Below,
    high_frac: f64,
    /// Arrivals drawn ahead; `block[next..]` are still to hand out.
    block: [Arrival; BLOCK],
    next: usize,
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
        // An exhausted block whose last arrival is at cycle 0, where
        // the first gap starts.
        let start = Arrival {
            at: 0,
            net: 0,
            high_priority: false,
        };
        TrafficGen {
            rng: Rng::seed_from_u64(seed),
            mean_gap: mean_gap_cycles,
            cumulative,
            pick: Below::new(total_weight as usize),
            high_frac,
            block: [start; BLOCK],
            next: BLOCK,
        }
    }

    /// The next arrival: an exponential gap after the previous one, or
    /// after cycle 0 for the first (inverse-transform, never below one
    /// cycle, the time saturating at `u64::MAX`), a weighted network
    /// pick and a priority coin flip. Each arrival consumes three PRNG
    /// draws plus the pick's rejections, so the stream is reproducible
    /// independent of simulator state.
    pub fn next_arrival(&mut self) -> Arrival {
        if self.next == BLOCK {
            self.refill();
        }
        let arrival = self.block[self.next];
        self.next += 1;
        arrival
    }

    /// Draws the next [`BLOCK`] arrivals after the block's last one.
    fn refill(&mut self) {
        let mut gap = [0.0f64; BLOCK];
        let mut pick = [0u64; BLOCK];
        let mut high = [false; BLOCK];
        for ((u, pick), high) in gap.iter_mut().zip(&mut pick).zip(&mut high) {
            *u = self.rng.next_f64();
            *pick = self.pick.sample(&mut self.rng) as u64;
            *high = self.rng.next_f64() < self.high_frac;
        }
        for g in &mut gap {
            // 1 - u is in (0, 1]; ln of it is finite and non-positive.
            *g = -(1.0 - *g).ln() * self.mean_gap;
        }
        let mut at = self.block[BLOCK - 1].at;
        for (i, arrival) in self.block.iter_mut().enumerate() {
            at = at.saturating_add(gap_cycles(gap[i]));
            *arrival = Arrival {
                at,
                // The first running sum above the pick, which lies
                // below the last.
                net: self.cumulative.partition_point(|&c| c <= pick[i]),
                high_priority: high[i],
            };
        }
        self.next = 0;
    }
}

/// `x.ceil().max(1.0)` as a `u64`, saturating at `u64::MAX`, without
/// the float `ceil` call: the saturating cast truncates toward zero
/// (NaN and negatives to 0, 2^64 and above to `u64::MAX`), and a
/// truncated value below `x` steps up by one. Below 2^52 the truncated
/// value converts back exactly; from 2^52 on every `f64` is an integer,
/// so only a saturated cast can lie below `x`, and its step saturates.
fn gap_cycles(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from((t as f64) < x)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_models::zoo;

    fn mix() -> Workload {
        Workload::weighted(vec![zoo::mobilenet_v1(), zoo::mobilenet_v2()], vec![3, 1])
            .expect("valid mix")
    }

    /// The per-arrival generator the block stream replaced: one PRNG →
    /// `ln` → `ceil` chain per call, the gap added to the previous
    /// arrival's time.
    struct PerDraw {
        rng: Rng,
        mean_gap: f64,
        cumulative: Vec<u64>,
        pick: Below,
        high_frac: f64,
        now: u64,
    }

    impl PerDraw {
        fn new(seed: u64, mean_gap: f64, weights: &[u64], high_frac: f64) -> Self {
            let cumulative: Vec<u64> = weights
                .iter()
                .scan(0u64, |sum, &w| {
                    *sum += w;
                    Some(*sum)
                })
                .collect();
            PerDraw {
                rng: Rng::seed_from_u64(seed),
                mean_gap,
                pick: Below::new(cumulative[cumulative.len() - 1] as usize),
                cumulative,
                high_frac,
                now: 0,
            }
        }

        fn next(&mut self) -> Arrival {
            let u = self.rng.next_f64();
            let gap = float_gap_cycles(-(1.0 - u).ln() * self.mean_gap);
            let pick = self.pick.sample(&mut self.rng) as u64;
            let net = self.cumulative.partition_point(|&c| c <= pick);
            let high_priority = self.rng.next_f64() < self.high_frac;
            self.now = self.now.saturating_add(gap);
            Arrival {
                at: self.now,
                net,
                high_priority,
            }
        }
    }

    /// The gap rounding of [`PerDraw`], through the float `ceil`.
    fn float_gap_cycles(x: f64) -> u64 {
        let gap = x.ceil().max(1.0);
        if gap >= u64::MAX as f64 {
            u64::MAX
        } else {
            gap as u64
        }
    }

    #[test]
    fn block_stream_equals_the_per_draw_stream() {
        // A weight total of 11 makes the network pick reject some draws;
        // 14 001 arrivals per case end partway through a block.
        let weights = [3, 0, 1, 7];
        let nets = vec![zoo::mobilenet_v1(); weights.len()];
        let w = Workload::weighted(nets, weights.to_vec()).expect("valid mix");
        let mut compared = 0;
        for mean_gap in [1.0, 1.5, 2000.0, 1e12, 1e300] {
            for high_frac in [0.0, 0.3, 1.0] {
                let seed = compared as u64 + 17;
                let mut gen = TrafficGen::new(seed, mean_gap, &w, high_frac);
                let mut reference = PerDraw::new(seed, mean_gap, &weights, high_frac);
                for i in 0..14_001 {
                    let want = reference.next();
                    assert_eq!(
                        gen.next_arrival(),
                        want,
                        "gap {mean_gap} high {high_frac} #{i}"
                    );
                    compared += 1;
                }
                if mean_gap == 1e300 {
                    assert_eq!(reference.now, u64::MAX, "arrival times saturate");
                }
            }
        }
        assert!(compared >= 200_000);
    }

    #[test]
    fn integer_gap_ceiling_matches_the_float_ceil() {
        let two = |e: i32| 2f64.powi(e);
        let cases = [
            (-0.0, 1),
            (0.0, 1),
            (0.5, 1),
            (1.0, 1),
            (1.5, 2),
            (2.0, 2),
            (two(51) + 0.5, (1 << 51) + 1),
            (two(52) - 0.5, 1 << 52),
            // Rounds to 2^52: from there on, `f64`s are 1 apart.
            (two(52) + 0.5, 1 << 52),
            (two(52) + 1.0, (1 << 52) + 1),
            (two(53), 1 << 53),
            (two(53) + 2.0, (1 << 53) + 2),
            (two(63), 1 << 63),
            (two(64) - 2048.0, u64::MAX - 2047),
            (two(64), u64::MAX),
            (1e300, u64::MAX),
            (f64::INFINITY, u64::MAX),
            (f64::NAN, 1),
        ];
        for (x, want) in cases {
            assert_eq!(gap_cycles(x), want, "{x}");
            assert_eq!(float_gap_cycles(x), want, "{x}");
        }
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
            let next = a.next_arrival();
            assert_eq!(next, b.next_arrival(), "same seed, same stream");
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
        for _ in 0..4000 {
            let a = gen.next_arrival();
            counts[a.net] += 1;
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
            let mut old = Rng::seed_from_u64(5);
            let total: u64 = weights.iter().sum();
            for _ in 0..5_000 {
                let next = gen.next_arrival();
                old.next_f64();
                let pick = old.below(total as usize) as u64;
                old.next_f64();
                let mut sum = 0;
                let net = weights.iter().position(|&wt| {
                    sum += wt;
                    pick < sum
                });
                assert_eq!(Some(next.net), net, "{weights:?}");
            }
        }
    }

    #[test]
    fn mean_gap_is_approximately_honoured() {
        let w = mix();
        let mut gen = TrafficGen::new(3, 500.0, &w, 0.0);
        let n = 4000;
        let last = (0..n).map(|_| gen.next_arrival().at).last();
        let mean = last.expect("n > 0") as f64 / n as f64;
        assert!(mean > 350.0 && mean < 700.0, "observed mean gap {mean}");
    }
}
