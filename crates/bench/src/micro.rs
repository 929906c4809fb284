//! A minimal stopwatch-based micro-bench harness.
//!
//! The workspace builds fully offline, so instead of Criterion the bench
//! targets use this drop-in subset of its API: [`Micro`] stands in for
//! `Criterion`, with `bench_function`, `benchmark_group`,
//! `bench_with_input` and [`BenchmarkId`] mirroring the shapes the bench
//! sources were written against. Timing is adaptive: each bench gets one
//! calibration pass, then as many iterations as fit the per-bench budget
//! (default 100 ms, overridable via `FUSECONV_BENCH_BUDGET_MS`), spent as
//! five equal batches of which the fastest is reported (min-of-5
//! discards scheduler noise). [`Micro::bench_alternating`] interleaves the
//! batches of two benches whose ratio matters.

use fuseconv_telemetry::Stopwatch;
use std::fmt::Display;
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

/// Passed to bench closures; call [`Bencher::iter`] with the code under
/// test.
pub struct Bencher {
    budget: Duration,
    iters: u64,
    total: Duration,
}

impl Bencher {
    /// Times `f`: one untimed calibration pass sizes the iteration count
    /// to the harness budget, then the budget is spent as five equal
    /// timed batches and the fastest batch wins — the min discards
    /// scheduler/migration noise that a single long batch would fold
    /// into its mean.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let per_batch = batch_len(self.budget, &mut f);
        self.total = (0..BATCHES)
            .map(|_| time_batch(per_batch, &mut f))
            .min()
            .unwrap_or(Duration::ZERO);
        self.iters = per_batch;
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
    /// Full bench name (`group/label` for grouped benches).
    pub name: String,
    /// Mean wall time per iteration, nanoseconds.
    pub ns_per_iter: f64,
    /// Timed iterations the mean was taken over.
    pub iters: u64,
}

/// The harness: a drop-in stand-in for `criterion::Criterion`.
pub struct Micro {
    budget: Duration,
    records: Vec<BenchRecord>,
}

impl Micro {
    /// A harness with the default 100 ms per-bench budget.
    pub fn new() -> Self {
        Micro {
            budget: Duration::from_millis(100),
            records: Vec::new(),
        }
    }

    /// Reads the per-bench budget from `FUSECONV_BENCH_BUDGET_MS` (smoke
    /// runs in CI set a small value; unset means the 100 ms default).
    pub fn from_env() -> Self {
        let ms = std::env::var("FUSECONV_BENCH_BUDGET_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(100);
        Micro::with_budget_ms(ms)
    }

    /// A harness with an explicit per-bench budget in milliseconds.
    pub fn with_budget_ms(ms: u64) -> Self {
        Micro {
            budget: Duration::from_millis(ms),
            records: Vec::new(),
        }
    }

    /// Every completed bench's timing, in run order.
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// The most recently completed bench, if any.
    pub fn last_record(&self) -> Option<&BenchRecord> {
        self.records.last()
    }

    fn run(&mut self, name: &str, b: &mut Bencher) {
        let ns = if b.iters == 0 {
            0.0
        } else {
            b.total.as_nanos() as f64 / b.iters as f64
        };
        self.records.push(BenchRecord {
            name: name.to_string(),
            ns_per_iter: ns,
            iters: b.iters,
        });
        let _ = writeln!(
            std::io::stdout(),
            "bench {name:<52} {:>12}/iter  (n={})",
            fmt_per_iter(ns),
            b.iters
        );
    }

    /// Runs one named bench.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let mut b = Bencher {
            budget: self.budget,
            iters: 0,
            total: Duration::ZERO,
        };
        f(&mut b);
        self.run(name, &mut b);
        self
    }

    /// Times two benches in alternating batches — `a`, `b`, then `b`, `a`,
    /// and so on, swapping which runs first every other round — and
    /// records each, `a` then `b`, as its fastest batch. A slow stretch of
    /// the host then hits both alike, and neither bench always runs second
    /// (on a cache or allocator the other one just warmed), so the ratio
    /// of the two records does not depend on the order they ran in.
    pub fn bench_alternating<RA, RB>(
        &mut self,
        (name_a, mut fa): (&str, impl FnMut() -> RA),
        (name_b, mut fb): (&str, impl FnMut() -> RB),
    ) -> &mut Self {
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
        for (name, iters, total) in [(name_a, na, best_a), (name_b, nb, best_b)] {
            let mut b = Bencher {
                budget: self.budget,
                iters,
                total,
            };
            self.run(name, &mut b);
        }
        self
    }

    /// Opens a named group of benches.
    pub fn benchmark_group(&mut self, name: &str) -> Group<'_> {
        Group {
            harness: self,
            name: name.to_string(),
        }
    }
}

impl Default for Micro {
    fn default() -> Self {
        Self::new()
    }
}

/// A named group of benches, mirroring `criterion::BenchmarkGroup`.
pub struct Group<'a> {
    harness: &'a mut Micro,
    name: String,
}

impl Group<'_> {
    /// Runs one bench inside the group, labelled by `id`, with `input`
    /// passed through to the closure.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.0);
        let mut b = Bencher {
            budget: self.harness.budget,
            iters: 0,
            total: Duration::ZERO,
        };
        f(&mut b, input);
        self.harness.run(&full, &mut b);
        self
    }

    /// Ends the group (kept for API parity; nothing to flush).
    pub fn finish(self) {}
}

/// A bench label, mirroring `criterion::BenchmarkId`.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// A two-part label: `function/parameter`.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId(format!("{function}/{parameter}"))
    }

    /// A label consisting of a parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Micro {
        Micro {
            budget: Duration::from_millis(1),
            records: Vec::new(),
        }
    }

    #[test]
    fn bencher_runs_and_counts_iterations() {
        let mut h = tiny();
        let mut count = 0u64;
        h.bench_function("noop", |b| {
            b.iter(|| {
                count += 1;
            })
        });
        assert!(count >= 2, "calibration + at least one timed iteration");
        let rec = h.last_record().unwrap();
        assert_eq!(rec.name, "noop");
        assert!(rec.iters >= 1);
        assert!(rec.ns_per_iter >= 0.0);
    }

    #[test]
    fn alternating_benches_record_both_in_order() {
        let mut h = tiny();
        let (mut a, mut b) = (0u64, 0u64);
        h.bench_alternating(("a", || a += 1), ("b", || b += 1));
        // One calibration call plus at least one call per batch each.
        assert!(a > BATCHES as u64 && b > BATCHES as u64);
        let names: Vec<&str> = h.records().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert!(h.records().iter().all(|r| r.iters >= 1));
    }

    #[test]
    fn alternating_benches_swap_which_runs_first() {
        let mut h = tiny();
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
    fn groups_and_ids_compose() {
        let mut h = tiny();
        let mut g = h.benchmark_group("grp");
        g.bench_with_input(BenchmarkId::from_parameter(42), &3usize, |b, &x| {
            b.iter(|| x * 2)
        });
        g.bench_with_input(BenchmarkId::new("f", "p"), &1usize, |b, &x| b.iter(|| x));
        g.finish();
    }

    #[test]
    fn per_iter_formatting_picks_units() {
        assert!(fmt_per_iter(12.0).ends_with("ns"));
        assert!(fmt_per_iter(12e3).ends_with("us"));
        assert!(fmt_per_iter(12e6).ends_with("ms"));
        assert!(fmt_per_iter(12e9).ends_with('s'));
    }
}
