//! Metrics registry: named counters, gauges, and log₂ histograms with a
//! deterministic snapshot API and a `fuseconv-metrics-v1` JSON
//! rendering. Each [`Telemetry`](crate::Telemetry) run has its own
//! registry; the free functions act on the calling thread's run.
//!
//! Handles are `&'static` (leaked once per run and name, looked up in
//! a `BTreeMap` behind the run's mutex) so hot paths touch only an
//! atomic after the first lookup; callers on genuinely hot loops should
//! hoist the handle out of the loop. Snapshots iterate the `BTreeMap`s, so
//! rendering order is the metric-name order — deterministic across runs
//! regardless of registration order.

use crate::json::{Json, Layout};
use crate::manifest::RunManifest;
use crate::run::{self, lock};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Schema tag written into every rendered metrics snapshot.
pub const METRICS_SCHEMA: &str = "fuseconv-metrics-v1";

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins signed level (e.g. a throughput estimate).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the level by `delta`.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets: bucket `i` counts samples whose value has
/// `i` significant bits (bucket 0 holds value 0), so bucket upper
/// bounds run 0, 1, 3, 7, … `u64::MAX` — value `2^k − 1` is the top of
/// bucket `k` and `2^k` is the bottom of bucket `k + 1`.
const BUCKETS: usize = 65;

/// Lock-free log₂ histogram of `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Bucket of `value`: its number of significant bits.
    fn bucket(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Point-in-time copy of the distribution.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Immutable copy of a [`Histogram`] at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples.
    pub sum: u64,
    /// Per-bucket sample counts (see [`Histogram`] bucket layout).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`q` in 0..=100), i.e. a value ≥ at least `q`% of samples.
    #[must_use]
    pub fn quantile_bound(&self, q: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Ceiling rank so q=50 of 1 sample is rank 1, not rank 0.
        let rank = (self.count * q).div_ceil(100).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket i holds values with i significant bits:
                // upper bound 2^i - 1 (bucket 0 holds exactly 0).
                return if i >= 64 { u64::MAX } else { (1 << i) - 1 };
            }
        }
        u64::MAX
    }
}

/// One run's three metric namespaces, keyed by registered name.
#[derive(Default)]
pub(crate) struct Registry {
    counters: BTreeMap<&'static str, &'static Counter>,
    gauges: BTreeMap<&'static str, &'static Gauge>,
    histograms: BTreeMap<&'static str, &'static Histogram>,
}

/// The handle registered under `name` in the calling thread's run,
/// registering a zeroed one on first use.
fn handle<T: Default + 'static>(
    name: &'static str,
    map: impl FnOnce(&mut Registry) -> &mut BTreeMap<&'static str, &'static T>,
) -> &'static T {
    run::with(|t| {
        *map(&mut lock(&t.metrics))
            .entry(name)
            .or_insert_with(|| Box::leak(Box::default()))
    })
}

/// Look up (or register) the counter named `name`.
///
/// The handle is `&'static`: hoist it out of hot loops to skip the
/// registry lock on subsequent increments.
#[must_use]
pub fn counter(name: &'static str) -> &'static Counter {
    handle(name, |r| &mut r.counters)
}

/// Look up (or register) the gauge named `name`.
#[must_use]
pub fn gauge(name: &'static str) -> &'static Gauge {
    handle(name, |r| &mut r.gauges)
}

/// Look up (or register) the histogram named `name`.
#[must_use]
pub fn histogram(name: &'static str) -> &'static Histogram {
    handle(name, |r| &mut r.histograms)
}

/// Point-in-time copy of the whole registry, name-ordered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram distributions by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Snapshot every metric registered in the calling thread's run.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    run::with(|t| lock(&t.metrics).snapshot())
}

impl Registry {
    fn snapshot(&self) -> MetricsSnapshot {
        fn copy<T, V>(map: &BTreeMap<&str, &T>, f: impl Fn(&T) -> V) -> BTreeMap<String, V> {
            map.iter()
                .map(|(name, m)| ((*name).to_owned(), f(m)))
                .collect()
        }
        MetricsSnapshot {
            counters: copy(&self.counters, Counter::get),
            gauges: copy(&self.gauges, Gauge::get),
            histograms: copy(&self.histograms, Histogram::snapshot),
        }
    }
}

impl MetricsSnapshot {
    /// Value of a counter in this snapshot (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Pretty `fuseconv-metrics-v1` JSON with the given run manifest
    /// embedded. Key order is fixed (schema, counters, gauges,
    /// histograms, manifest); metric keys are name-ordered.
    #[must_use]
    pub fn to_json(&self, manifest: &RunManifest) -> String {
        let mut j = Json::pretty();
        j.str("schema", METRICS_SCHEMA)
            .obj("counters", |j| {
                for (name, v) in &self.counters {
                    j.raw(name, v);
                }
            })
            .obj("gauges", |j| {
                for (name, v) in &self.gauges {
                    j.raw(name, v);
                }
            })
            .obj("histograms", |j| {
                for (name, h) in &self.histograms {
                    j.nest(name, Layout::Compact, '{', |j| {
                        j.raw("count", h.count)
                            .raw("sum", h.sum)
                            .raw("mean", h.mean())
                            .raw("p50", h.quantile_bound(50))
                            .raw("p99", h.quantile_bound(99));
                    });
                }
            })
            .manifest(manifest);
        j.finish() + "\n"
    }

    /// Human-readable listing (counters, gauges, histogram summaries).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name:<40} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "{name:<40} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{name:<40} n={} mean={} p50≤{} p99≤{}",
                h.count,
                h.mean(),
                h.quantile_bound(50),
                h.quantile_bound(99),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handle_accumulates() {
        let c = counter("test.metrics.counter_handle");
        let before = c.get();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), before + 5);
        // Same name resolves to the same handle.
        assert_eq!(counter("test.metrics.counter_handle").get(), before + 5);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = gauge("test.metrics.gauge");
        g.set(-3);
        g.add(10);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_buckets_mean_and_quantiles() {
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1006);
        assert_eq!(s.mean(), 201);
        // 0→bucket0, 1→bucket1, 2,3→bucket2, 1000→bucket10.
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets[10], 1);
        assert_eq!(s.quantile_bound(50), 3); // rank 3 lands in bucket 2
        assert_eq!(s.quantile_bound(99), 1023); // rank 5 in bucket 10
    }

    #[test]
    fn histogram_bucket_boundaries_are_exact() {
        // Bucket i holds values with i significant bits: 2^k − 1 is the
        // last value of bucket k, 2^k the first of bucket k + 1, and
        // u64::MAX (64 significant bits) tops out bucket 64.
        let h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        for k in 1..64u32 {
            h.record((1u64 << k) - 1);
            h.record(1u64 << k);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1, "bucket 0 holds exactly the value 0");
        // Bucket 1 sees the explicit 1 and 2^1 − 1 (the same value).
        assert_eq!(s.buckets[1], 2);
        for k in 2..64usize {
            // Each middle bucket k gets 2^k − 1 (top) and 2^(k−1) (bottom).
            assert_eq!(s.buckets[k], 2, "bucket {k}");
        }
        assert_eq!(s.buckets[64], 2, "2^63 and u64::MAX share bucket 64");
        assert_eq!(s.count, 3 + 2 * 63);
        assert_eq!(s.quantile_bound(100), u64::MAX);
    }

    #[test]
    fn snapshot_json_has_fixed_envelope() {
        counter("test.metrics.json").add(2);
        let snap = snapshot();
        let json = snap.to_json(&RunManifest::capture());
        assert!(json.starts_with("{\n  \"schema\": \"fuseconv-metrics-v1\","));
        for key in ["counters", "gauges", "histograms", "manifest"] {
            assert!(json.contains(&format!("\"{key}\": ")), "{key}");
        }
        assert!(json.contains("\"test.metrics.json\": "));
        assert!(json.contains("\"schema\": \"fuseconv-manifest-v1\""));
        assert!(json.trim_end().ends_with('}'));
    }
}
