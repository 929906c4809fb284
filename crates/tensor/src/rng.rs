//! A small deterministic pseudo-random number generator.
//!
//! This workspace builds fully offline, so instead of the `rand` crate it
//! carries its own generator: a SplitMix64 seeder feeding an xorshift64*
//! stream. The generator is deliberately simple — it backs weight
//! initialization, synthetic datasets and randomized tests, none of which
//! need cryptographic quality, only good statistical behaviour and
//! bit-exact reproducibility across runs and platforms.
//!
//! # Examples
//!
//! ```
//! use fuseconv_tensor::rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(7);
//! let x = rng.uniform(-1.0, 1.0);
//! assert!((-1.0..1.0).contains(&x));
//! // Same seed, same stream.
//! assert_eq!(Rng::seed_from_u64(7).next_u64(), Rng::seed_from_u64(7).next_u64());
//! ```

/// A deterministic xorshift64* generator seeded via SplitMix64.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a 64-bit seed. Any seed is valid; seeds are
    /// scrambled through SplitMix64 so small/sequential seeds give
    /// uncorrelated streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 finalizer: guarantees a nonzero, well-mixed state.
        let mut z = seed.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        Rng {
            state: z | 1, // xorshift state must be nonzero
        }
    }

    /// Next raw 64-bit value (xorshift64*).
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Next 32-bit value (the high half, which has the better bits).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f32` in `[0, 1)` with 24 bits of precision.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite(),
            "uniform bounds must be finite with lo < hi"
        );
        lo + (hi - lo) * self.next_f32()
    }

    /// Uniform integer in `[0, bound)`: one draw from
    /// [`Below::new`]`(bound)`. A loop that draws many values below the
    /// same bound should build the [`Below`] once and call
    /// [`Below::sample`], which skips the setup's two divisions.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: usize) -> usize {
        Below::new(bound).sample(self)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            slice.swap(i, self.below(i + 1));
        }
    }
}

/// A uniform sampler over `[0, bound)` with its setup precomputed.
///
/// Rejection sampling: a 32-bit draw at or above the largest multiple of
/// `bound` is redrawn, and the kept draw `v` is reduced to `v % bound`,
/// which is bias-free for every bound that fits in `u32`. The remainder
/// is computed without a division (Lemire's "faster remainder by direct
/// computation"): with `M = ⌊(2⁶⁴−1)/d⌋ + 1`, `v mod d` is the high 64
/// bits of `(M·v mod 2⁶⁴)·d`, exact for every 32-bit `v` and `d`. `M`
/// wraps to 0 for `d = 1`, which correctly gives 0. A bound above
/// `u32::MAX` takes one 64-bit draw `% bound`. Every draw is the same
/// value the plain `%` loop would return from the same generator state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Below {
    bound: u64,
    /// First rejected 32-bit draw: the largest multiple of `bound`
    /// that fits in `u32`; unused when `bound` does not fit in `u32`.
    zone: u32,
    /// Lemire's multiplier `⌊(2⁶⁴−1)/bound⌋ + 1`, wrapping.
    mul: u64,
}

impl Below {
    /// A sampler for `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn new(bound: usize) -> Self {
        assert!(bound > 0, "bound must be nonzero");
        let bound = bound as u64;
        Below {
            bound,
            zone: u32::try_from(bound).map_or(0, |d| u32::MAX - (u32::MAX % d)),
            mul: (u64::MAX / bound).wrapping_add(1),
        }
    }

    /// `v % bound` for a kept 32-bit draw, `None` for a rejected one.
    #[inline]
    fn reduce(&self, v: u32) -> Option<usize> {
        (v < self.zone).then(|| {
            let low = self.mul.wrapping_mul(u64::from(v));
            ((u128::from(low) * u128::from(self.bound)) >> 64) as usize
        })
    }

    /// Draws one value in `[0, bound)` from `rng`.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> usize {
        if self.bound > u64::from(u32::MAX) {
            return (rng.next_u64() % self.bound) as usize;
        }
        loop {
            if let Some(x) = self.reduce(rng.next_u32()) {
                return x;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c = Rng::seed_from_u64(43).next_u64();
        assert_ne!(a[0], c);
    }

    #[test]
    fn floats_in_range() {
        let mut r = Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = r.next_f32();
            assert!((0.0..1.0).contains(&x));
            let y = r.uniform(-2.5, 3.5);
            assert!((-2.5..3.5).contains(&y));
        }
    }

    #[test]
    fn uniform_mean_is_plausible() {
        let mut r = Rng::seed_from_u64(9);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_in_bounds_and_covers() {
        let mut r = Rng::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[r.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// The `%`-based rejection loop `below` ran before [`Below`]
    /// existed: the reference the sampler must match bit for bit.
    fn old_below(rng: &mut Rng, bound: usize) -> usize {
        if bound <= u32::MAX as usize {
            let bound32 = bound as u32;
            let zone = u32::MAX - (u32::MAX % bound32);
            loop {
                let v = rng.next_u32();
                if v < zone {
                    return (v % bound32) as usize;
                }
            }
        } else {
            (rng.next_u64() % bound as u64) as usize
        }
    }

    #[test]
    fn sampler_matches_the_old_below() {
        // Bounds 1, 2, 7, `u32::MAX - 1`, `u32::MAX`, every power of
        // two, two 64-bit bounds, then PRNG-drawn bounds of every width.
        let mut bounds = vec![1, 2, 7, u32::MAX as usize - 1, u32::MAX as usize];
        bounds.extend((2..64).map(|k| 1usize << k));
        bounds.extend([u32::MAX as usize + 1, usize::MAX]);
        let mut r = Rng::seed_from_u64(0xB0_0D);
        for _ in 0..200 {
            let width = r.next_u32() % 32 + 1;
            bounds.push(((r.next_u64() >> (64 - width)) as usize).max(1));
        }
        for bound in bounds {
            let sampler = Below::new(bound);
            let mut a = Rng::seed_from_u64(r.next_u64());
            let mut b = a.clone();
            for _ in 0..500 {
                let (got, want) = (sampler.sample(&mut a), old_below(&mut b, bound));
                assert_eq!((got, &a), (want, &b), "bound {bound}");
            }
            assert_eq!(a.below(bound), old_below(&mut b, bound), "bound {bound}");
            // Random streams almost never draw the rejection edge, so
            // check the reduction where an off-by-one zone or multiplier
            // would show.
            let Ok(d) = u32::try_from(bound) else {
                continue;
            };
            let zone = u32::MAX - (u32::MAX % d);
            let mut edges = vec![0, 1, d - 1, d, d.saturating_add(1), u32::MAX];
            edges.extend([zone - 1, zone, zone.saturating_add(1)]);
            edges.extend((0..50).map(|_| r.next_u32()));
            for v in edges {
                let want = (v < zone).then(|| (v % d) as usize);
                assert_eq!(sampler.reduce(v), want, "bound {bound}, draw {v}");
            }
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed_from_u64(5);
        let mut v: Vec<usize> = (0..20).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_ne!(v, (0..20).collect::<Vec<_>>(), "20 elements should move");
    }

    #[test]
    #[should_panic(expected = "bound must be nonzero")]
    fn below_zero_panics() {
        let _ = Rng::seed_from_u64(0).below(0);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn bad_uniform_bounds_panic() {
        let _ = Rng::seed_from_u64(0).uniform(1.0, 1.0);
    }
}
