//! Overhead smoke test for the span profiler: running the analytic
//! fold-plan workload over a zoo network with spans *enabled* must cost
//! at most 10 % more wall-clock than with spans disabled. The profiler's
//! budget is one relaxed atomic load when disabled and two short mutex
//! holds per span when enabled; the fold-plan workload spans are few per
//! operator, so the ratio gate is comfortably wide of real overhead and
//! tight against accidental hot-path instrumentation.
//!
//! Methodology: interleaved min-of-N. Timing noise is one-sided (a run
//! can only measure slower than the code allows), so the per-mode
//! minimum over alternating runs is the robust estimate; interleaving
//! keeps frequency scaling and cache state from favoring either mode.
//! One pass takes well under a millisecond, so a host busy for a few
//! milliseconds can slow every pass of one mode when there are few
//! rounds: 101 rounds keep the minimums clear of such stretches.

use fuseconv::latency::LatencyModel;
use fuseconv::models::zoo;
use fuseconv::systolic::ArrayConfig;
use fuseconv::telemetry::{set_spans_enabled, Stopwatch};
use std::hint::black_box;

/// One full pass of analytic fold planning over MobileNet-V1 (the
/// workload the `latency.fold_plan` / `latency.cycles` spans cover).
fn workload(model: &LatencyModel, net: &fuseconv::models::Network) -> u64 {
    let mut acc = 0u64;
    for named in net.ops() {
        let plan = model.fold_plan(&named.op).expect("fold plan");
        acc = acc.wrapping_add(plan.len() as u64);
    }
    acc
}

#[test]
fn profiled_fold_planning_stays_within_ten_percent() {
    let array = ArrayConfig::square(64)
        .expect("64 is nonzero")
        .with_broadcast(true);
    let model = LatencyModel::new(array);
    let net = zoo::mobilenet_v1();

    // Warm caches in both modes before any timed run.
    for on in [false, true] {
        set_spans_enabled(on);
        black_box(workload(&model, &net));
    }

    const ROUNDS: usize = 101;
    let mut min_off = u64::MAX;
    let mut min_on = u64::MAX;
    for _ in 0..ROUNDS {
        set_spans_enabled(false);
        let sw = Stopwatch::start();
        black_box(workload(&model, &net));
        min_off = min_off.min(sw.elapsed_ns());

        set_spans_enabled(true);
        let sw = Stopwatch::start();
        black_box(workload(&model, &net));
        min_on = min_on.min(sw.elapsed_ns());
    }
    set_spans_enabled(false);

    assert!(
        min_on as f64 <= min_off as f64 * 1.10,
        "profiled workload exceeded the 10% overhead budget: \
         enabled {min_on} ns vs disabled {min_off} ns"
    );
}
