//! A minimal stopwatch-based micro-bench harness, the timer behind
//! `fuseconv bench`.
//!
//! The workspace builds fully offline, so this stands in for Criterion.
//! Timing is adaptive: each bench gets one calibration call, then as many
//! iterations as fit the per-bench budget (`fuseconv bench --budget-ms`,
//! default 100 ms), spent as five equal batches of which the fastest is
//! reported (min-of-5 discards scheduler noise).
//! [`Micro::bench_alternating`] interleaves the batches of two benches
//! whose ratio matters.

use fuseconv_telemetry::Stopwatch;
use std::io::Write as _;
use std::time::Duration;

fn fmt_per_iter(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Timed batches per bench; the fastest one is reported.
const BATCHES: usize = 5;

/// Iterations per batch that spend `budget` on [`BATCHES`] batches of `f`,
/// sized by one untimed calibration call.
fn batch_len<R>(budget: Duration, f: &mut impl FnMut() -> R) -> u64 {
    let t0 = Stopwatch::start();
    std::hint::black_box(f());
    let once = t0.elapsed().max(Duration::from_nanos(1));
    let n = (budget.as_nanos() / once.as_nanos()).clamp(1, 100_000) as u64;
    (n / BATCHES as u64).max(1)
}

/// Wall time of `iters` back-to-back calls of `f`.
fn time_batch<R>(iters: u64, f: &mut impl FnMut() -> R) -> Duration {
    let t = Stopwatch::start();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    t.elapsed()
}

/// The timing outcome of one completed bench.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Bench name.
    pub name: String,
    /// Mean wall time per iteration of the fastest batch, nanoseconds.
    pub ns_per_iter: f64,
    /// Iterations per timed batch.
    pub iters: u64,
}

impl BenchRecord {
    /// Records `name` as `iters` iterations taking `total`, printing the
    /// bench's stdout line.
    fn report(name: &str, iters: u64, total: Duration) -> Self {
        let ns_per_iter = total.as_nanos() as f64 / iters as f64;
        let _ = writeln!(
            std::io::stdout(),
            "bench {name:<52} {:>12}/iter  (n={iters})",
            fmt_per_iter(ns_per_iter)
        );
        BenchRecord {
            name: name.to_string(),
            ns_per_iter,
            iters,
        }
    }
}

/// The harness: a per-bench time budget.
pub struct Micro {
    budget: Duration,
}

impl Micro {
    /// A harness with an explicit per-bench budget in milliseconds.
    pub fn with_budget_ms(ms: u64) -> Self {
        Micro {
            budget: Duration::from_millis(ms),
        }
    }

    /// Times `f`: one untimed calibration call sizes the iteration count
    /// to the budget, then the budget is spent as five equal timed batches
    /// and the fastest batch wins — the min discards scheduler/migration
    /// noise that a single long batch would fold into its mean.
    pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) -> BenchRecord {
        let iters = batch_len(self.budget, &mut f);
        let best = (0..BATCHES)
            .map(|_| time_batch(iters, &mut f))
            .min()
            .unwrap_or(Duration::ZERO);
        BenchRecord::report(name, iters, best)
    }

    /// Times two benches in alternating batches — `a`, `b`, then `b`, `a`,
    /// and so on, swapping which runs first every other round — and
    /// records each, `a` then `b`, as its fastest batch. A slow stretch of
    /// the host then hits both alike, and neither bench always runs second
    /// (on a cache or allocator the other one just warmed), so the ratio
    /// of the two records does not depend on the order they ran in.
    pub fn bench_alternating<RA, RB>(
        &self,
        (name_a, mut fa): (&str, impl FnMut() -> RA),
        (name_b, mut fb): (&str, impl FnMut() -> RB),
    ) -> (BenchRecord, BenchRecord) {
        let (na, nb) = (
            batch_len(self.budget, &mut fa),
            batch_len(self.budget, &mut fb),
        );
        let (mut best_a, mut best_b) = (Duration::MAX, Duration::MAX);
        for round in 0..BATCHES {
            if round % 2 == 0 {
                best_a = best_a.min(time_batch(na, &mut fa));
                best_b = best_b.min(time_batch(nb, &mut fb));
            } else {
                best_b = best_b.min(time_batch(nb, &mut fb));
                best_a = best_a.min(time_batch(na, &mut fa));
            }
        }
        (
            BenchRecord::report(name_a, na, best_a),
            BenchRecord::report(name_b, nb, best_b),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_runs_and_counts_iterations() {
        let h = Micro::with_budget_ms(1);
        let mut count = 0u64;
        let rec = h.bench("noop", || {
            count += 1;
        });
        assert!(count >= 2, "calibration + at least one timed iteration");
        assert_eq!(rec.name, "noop");
        assert!(rec.iters >= 1);
        assert!(rec.ns_per_iter >= 0.0);
    }

    #[test]
    fn alternating_benches_record_both_in_order() {
        let h = Micro::with_budget_ms(1);
        let (mut a, mut b) = (0u64, 0u64);
        let recs = h.bench_alternating(("a", || a += 1), ("b", || b += 1));
        // One calibration call plus at least one call per batch each.
        assert!(a > BATCHES as u64 && b > BATCHES as u64);
        let names = [recs.0.name.as_str(), recs.1.name.as_str()];
        assert_eq!(names, ["a", "b"]);
        assert!(recs.0.iters >= 1 && recs.1.iters >= 1);
    }

    #[test]
    fn alternating_benches_swap_which_runs_first() {
        let h = Micro::with_budget_ms(1);
        let log = std::cell::RefCell::new(Vec::new());
        h.bench_alternating(
            ("a", || log.borrow_mut().push('a')),
            ("b", || log.borrow_mut().push('b')),
        );
        let mut runs = log.into_inner();
        runs.dedup();
        // Calibration `a`, `b`, then round 0 `a`, `b`. Every later round
        // starts with the bench the previous round ended on, so it adds one
        // run; a fixed order would add two.
        assert_eq!(runs.len(), 2 + 2 + (BATCHES - 1), "{runs:?}");
    }

    #[test]
    fn per_iter_formatting_picks_units() {
        assert!(fmt_per_iter(12.0).ends_with("ns"));
        assert!(fmt_per_iter(12e3).ends_with("us"));
        assert!(fmt_per_iter(12e6).ends_with("ms"));
        assert!(fmt_per_iter(12e9).ends_with('s'));
    }
}
