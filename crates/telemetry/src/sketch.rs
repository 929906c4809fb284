//! Bounded-relative-error log-linear quantile sketch.
//!
//! The registry's [`crate::metrics::Histogram`] spends one bucket per
//! power of two — fine for "is this microseconds or milliseconds?", far
//! too coarse for p99/p999 latency work where a bucket spans a 2×
//! range. [`QuantileSketch`] refines every octave `[2^h, 2^{h+1})` into
//! [`SKETCH_SUBBUCKETS`] linear sub-buckets (the HdrHistogram layout),
//! which caps the quantile error at one sub-bucket width:
//!
//! * values below [`SKETCH_SUBBUCKETS`] get a bucket each — **exact**;
//! * larger values land in a bucket of width `2^{h-6}` whose lower edge
//!   is at least `64 · 2^{h-6}`, so
//!   [`QuantileSketch::quantile`] returns an estimate `est` with
//!   `v ≤ est < v · (1 + 1/64)` for the exact nearest-rank sample `v`
//!   — a one-sided relative error bounded by
//!   [`QuantileSketch::RELATIVE_ERROR_BOUND`] = 1/64 ≈ 1.6 %.
//!
//! Recording is O(1) (a `leading_zeros`, a shift, one add on a plain
//! `u64` array — no atomics: the serving engine is single-threaded and
//! sketches are owned values), and the whole sketch is
//! `(65 − 6) · 64 = 3776` buckets ≈ 30 KiB.
//! [`QuantileSketch::take_quantiles`] reads several quantiles and
//! empties the sketch in one pass over its occupied buckets, so a
//! recorder rolls one hot sketch across time-series windows instead of
//! allocating one per window.

/// Sub-buckets per power-of-two octave (2^[`SKETCH_SUB_BITS`]).
pub const SKETCH_SUBBUCKETS: u64 = 1 << SKETCH_SUB_BITS;

/// log₂ of [`SKETCH_SUBBUCKETS`].
pub const SKETCH_SUB_BITS: u32 = 6;

/// Total bucket count: one per value in the exact region plus
/// [`SKETCH_SUBBUCKETS`] per octave above it.
const SKETCH_BUCKETS: usize = ((64 - SKETCH_SUB_BITS + 1) as usize) << SKETCH_SUB_BITS;

/// Log-linear quantile sketch over `u64` samples with a documented
/// one-sided relative error bound (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// Worst-case one-sided relative error of [`Self::quantile`]:
    /// `1 / SKETCH_SUBBUCKETS`. Values below [`SKETCH_SUBBUCKETS`] are
    /// reproduced exactly.
    pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / SKETCH_SUBBUCKETS as f64;

    /// An empty sketch.
    #[must_use]
    pub fn new() -> Self {
        QuantileSketch {
            counts: vec![0; SKETCH_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of `value`: identity in the exact region, top
    /// `SKETCH_SUB_BITS + 1` significant bits above it.
    #[inline]
    fn index(value: u64) -> usize {
        if value < SKETCH_SUBBUCKETS {
            return value as usize;
        }
        let h = 63 - value.leading_zeros(); // high bit position, ≥ SUB_BITS
        let sub = (value >> (h - SKETCH_SUB_BITS)) & (SKETCH_SUBBUCKETS - 1);
        ((((h - SKETCH_SUB_BITS) as usize) + 1) << SKETCH_SUB_BITS) + sub as usize
    }

    /// Inclusive upper bound of bucket `index` — what
    /// [`Self::quantile`] reports for samples in that bucket.
    fn bucket_high(index: usize) -> u64 {
        if index < SKETCH_SUBBUCKETS as usize {
            return index as u64;
        }
        let block = (index >> SKETCH_SUB_BITS) as u32; // ≥ 1
        let sub = index as u64 & (SKETCH_SUBBUCKETS - 1);
        let shift = block - 1; // == h - SUB_BITS
        let low = (SKETCH_SUBBUCKETS + sub) << shift;
        // `(1 << shift) - 1` first: the top bucket's high edge is
        // exactly `u64::MAX` and must not overflow on the way there.
        low + ((1u64 << shift) - 1)
    }

    /// What [`Self::quantile`] reports when `value` is the sample at
    /// the requested rank, before clamping to the recorded maximum:
    /// the inclusive upper edge of `value`'s bucket. A caller holding
    /// the exact samples can therefore reproduce any quantile of a
    /// sketch over them as `bucket_ceiling(v).min(max)` for the exact
    /// nearest-rank sample `v`, without building the sketch.
    #[must_use]
    pub fn bucket_ceiling(value: u64) -> u64 {
        Self::bucket_high(Self::index(value))
    }

    /// Occupied bucket range `lo..=hi` — [`Self::index`] is monotone
    /// in the value, so the recorded min/max bound every nonzero
    /// bucket. Only meaningful when the sketch is nonempty.
    #[inline]
    fn occupied(&self) -> (usize, usize) {
        (Self::index(self.min), Self::index(self.max))
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Record a batch of samples in one pass. Equivalent to calling
    /// [`Self::record`] per value, but the count/sum/min/max header
    /// aggregates stay in registers across the loop — the form the
    /// serve recorder's window close wants.
    pub fn record_batch(&mut self, values: &[u64]) {
        let (mut sum, mut min, mut max) = (0u128, u64::MAX, 0u64);
        for &v in values {
            self.counts[Self::index(v)] += 1;
            sum += v as u128;
            min = min.min(v);
            max = max.max(v);
        }
        self.count += values.len() as u64;
        self.sum += sum;
        self.min = self.min.min(min);
        self.max = self.max.max(max);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile estimate, `q` in per-mille (500 = p50,
    /// 999 = p99.9), using the same ceiling-rank convention as the
    /// serve report's exact `percentile`. Returns 0 when empty.
    ///
    /// The estimate lands in the same bucket as the exact nearest-rank
    /// sample `v` (per-bucket counts are exact), and reports that
    /// bucket's upper edge clamped to the recorded maximum, so
    /// `v ≤ estimate ≤ v · (1 + RELATIVE_ERROR_BOUND)`.
    #[must_use]
    pub fn quantile(&self, q_permille: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count as u128 * q_permille as u128)
            .div_ceil(1000)
            .max(1);
        let (lo, _) = self.occupied();
        let mut seen: u128 = 0;
        for (i, &n) in self.counts.iter().enumerate().skip(lo) {
            if n == 0 {
                continue;
            }
            seen += n as u128;
            if seen >= rank {
                return Self::bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// [`Self::quantile`] at each of the ascending per-mille ranks
    /// `q_permille`, computed in one pass over the occupied buckets
    /// that also empties the sketch — the form a recorder that rolls
    /// one sketch across time windows wants. Returns zeros when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q_permille` is not ascending.
    pub fn take_quantiles<const N: usize>(&mut self, q_permille: [u64; N]) -> [u64; N] {
        assert!(
            q_permille.windows(2).all(|w| w[0] <= w[1]),
            "quantile ranks must ascend"
        );
        let mut out = [0u64; N];
        if self.count > 0 {
            let (lo, hi) = self.occupied();
            let counts = &mut self.counts[lo..=hi];
            // Each rank resumes the cumulative scan where the last one
            // stopped; a rank past the count reports the maximum.
            let (mut i, mut seen) = (0, 0u64);
            for (out, q) in out.iter_mut().zip(q_permille) {
                let rank = (self.count as u128 * q as u128).div_ceil(1000).max(1);
                let rank = u64::try_from(rank).unwrap_or(u64::MAX);
                while seen < rank && i < counts.len() {
                    seen += counts[i];
                    i += 1;
                }
                *out = if seen >= rank {
                    Self::bucket_high(lo + i - 1).min(self.max)
                } else {
                    self.max
                };
            }
            counts.fill(0);
        }
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank percentile, mirroring the serve report's.
    fn exact(sorted: &[u64], q_permille: u64) -> u64 {
        let n = sorted.len() as u64;
        let rank = (n * q_permille).div_ceil(1000).max(1);
        sorted[(rank - 1).min(n - 1) as usize]
    }

    #[test]
    fn small_values_are_exact() {
        let mut s = QuantileSketch::new();
        for v in [0, 1, 2, 3, 10, 63] {
            s.record(v);
        }
        assert_eq!(s.quantile(500), 2);
        assert_eq!(s.quantile(999), 63);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 63);
        assert_eq!(s.count(), 6);
    }

    #[test]
    fn empty_sketch_reports_zeros() {
        let s = QuantileSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(500), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn bucket_index_and_edges_are_consistent() {
        // Every sample must fall inside its own bucket's value range,
        // at the octave boundaries in particular.
        for k in SKETCH_SUB_BITS..64 {
            for v in [
                1u64 << k,
                (1u64 << k) + 1,
                (1u64 << k).wrapping_add((1 << k) - 1),
            ] {
                let i = QuantileSketch::index(v);
                let high = QuantileSketch::bucket_high(i);
                assert!(high >= v, "bucket high {high} < value {v}");
                assert!(
                    (high - v) as f64 <= v as f64 * QuantileSketch::RELATIVE_ERROR_BOUND,
                    "bucket width violates the error bound at {v}"
                );
            }
        }
        assert_eq!(
            QuantileSketch::index(u64::MAX),
            SKETCH_BUCKETS - 1,
            "u64::MAX lands in the last bucket"
        );
        assert_eq!(QuantileSketch::bucket_high(SKETCH_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_stay_within_documented_error_of_exact() {
        // A deterministic heavy-tailed sample: xorshift values squashed
        // into a latency-like range.
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut samples = Vec::with_capacity(100_000);
        let mut sketch = QuantileSketch::new();
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = 1_000 + (x % 1_000_000) * ((x >> 32) % 7 + 1);
            samples.push(v);
            sketch.record(v);
        }
        samples.sort_unstable();
        for q in [500, 900, 990, 999] {
            let truth = exact(&samples, q);
            let est = sketch.quantile(q);
            assert!(est >= truth, "p{q}: estimate {est} below exact {truth}");
            assert!(
                (est - truth) as f64 <= truth as f64 * QuantileSketch::RELATIVE_ERROR_BOUND,
                "p{q}: estimate {est} vs exact {truth} exceeds the 1/64 bound"
            );
        }
        assert_eq!(sketch.quantile(1000), *samples.last().unwrap());
    }

    #[test]
    fn take_quantiles_equals_repeated_quantile_calls_and_empties() {
        let qs = [500, 900, 990, 999, 1000];
        let mut x = 0x9E3779B97F4A7C15u64;
        let heavy: Vec<u64> = (0..100_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                1_000 + (x % 1_000_000) * ((x >> 32) % 7 + 1)
            })
            .collect();
        let inputs: [&[u64]; 5] = [
            &[0, 1, 2, 3, 10, 63],
            &[3, 900, 1 << 40],
            &[7],
            &[u64::MAX, 0, u64::MAX],
            &heavy,
        ];
        for values in inputs {
            let mut s = QuantileSketch::new();
            s.record_batch(values);
            let each = qs.map(|q| s.quantile(q));
            assert_eq!(s.take_quantiles(qs), each, "{} samples", values.len());
            assert_eq!(
                s,
                QuantileSketch::new(),
                "take_quantiles empties the sketch"
            );
            // The emptied sketch records afresh.
            s.record(7);
            assert_eq!(s.take_quantiles([500]), [7]);
        }
        assert_eq!(QuantileSketch::new().take_quantiles([500, 999]), [0, 0]);
    }

    #[test]
    fn bucket_ceiling_of_the_exact_sample_is_the_quantile() {
        // What lets a holder of the exact samples report sketch
        // quantiles without building the sketch.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut samples: Vec<u64> = (0..20_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x >> (x % 50)
            })
            .collect();
        samples.extend([0, 1, 63, 64, u64::MAX]);
        let mut sketch = QuantileSketch::new();
        sketch.record_batch(&samples);
        samples.sort_unstable();
        let max = *samples.last().expect("nonempty");
        for q in [1, 500, 900, 990, 999, 1000] {
            assert_eq!(
                QuantileSketch::bucket_ceiling(exact(&samples, q)).min(max),
                sketch.quantile(q),
                "p{q}"
            );
        }
    }

    #[test]
    fn record_batch_equals_individual_records() {
        let mut one_by_one = QuantileSketch::new();
        let mut batched = QuantileSketch::new();
        let vals: Vec<u64> = (0..500u64).map(|v| v * v * 31 + 7).collect();
        for &v in &vals {
            one_by_one.record(v);
        }
        batched.record_batch(&vals[..200]);
        batched.record_batch(&[]);
        batched.record_batch(&vals[200..]);
        assert_eq!(one_by_one, batched);
    }
}
