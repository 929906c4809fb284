//! Wall-clock budget of the serving time-series recorder: a 10 000-
//! request pod simulation with the recorder on may cost at most 10 %
//! more than the same simulation without it.
//!
//! A test binary of its own, so no sibling test competes with it for
//! the host's cores while it times.

use fuseconv::models::zoo;
use fuseconv::nn::FuSeVariant;
use fuseconv::serve::{
    simulate, simulate_observed, PodSpec, ServeConfig, TimeSeriesConfig, Workload,
};
use fuseconv::telemetry::Stopwatch;
use std::hint::black_box;

#[test]
fn timeseries_recording_stays_within_ten_percent_overhead() {
    // Interleaved min-of-N, as in `telemetry_overhead.rs`: noise is
    // one-sided, so per-mode minimums over alternating runs compare
    // the true costs; interleaving cancels frequency scaling.
    let pod = PodSpec::parse("16x16:os,8x8:ws").expect("valid pod");
    let workload = Workload::uniform(vec![
        zoo::mobilenet_v3_small().transform_all(FuSeVariant::Full)
    ])
    .expect("valid workload");
    let cfg = ServeConfig {
        requests: 10_000,
        ..ServeConfig::default()
    };
    let ts_cfg = TimeSeriesConfig::new();

    // Warm the oracle caches and allocator in both modes.
    black_box(simulate(&pod, &workload, &cfg, None).expect("sim"));
    black_box(simulate_observed(&pod, &workload, &cfg, None, Some(&ts_cfg)).expect("sim"));

    // A shared CI box can stall one mode for an entire measurement, so
    // the bound only has to hold on the best of a few attempts — a
    // genuine regression past the budget fails them all.
    const ROUNDS: usize = 7;
    const ATTEMPTS: usize = 3;
    // The best attempt's (ratio, observed minimum, plain minimum).
    let mut best = (f64::INFINITY, 0, 0);
    for _ in 0..ATTEMPTS {
        let (mut min_plain, mut min_observed) = (u64::MAX, u64::MAX);
        for _ in 0..ROUNDS {
            let sw = Stopwatch::start();
            black_box(simulate(&pod, &workload, &cfg, None).expect("sim"));
            min_plain = min_plain.min(sw.elapsed_ns());

            let sw = Stopwatch::start();
            black_box(simulate_observed(&pod, &workload, &cfg, None, Some(&ts_cfg)).expect("sim"));
            min_observed = min_observed.min(sw.elapsed_ns());
        }
        let ratio = min_observed as f64 / min_plain as f64;
        if ratio < best.0 {
            best = (ratio, min_observed, min_plain);
        }
        if best.0 <= 1.10 {
            break;
        }
    }

    let (ratio, observed, plain) = best;
    assert!(
        ratio <= 1.10,
        "time-series recording exceeded the 10% overhead budget on every \
         attempt: best ratio {ratio:.4}, observed {observed} ns vs plain {plain} ns"
    );
    // Printed on success too (`--nocapture`), so a log records the margin.
    println!(
        "time-series overhead: best ratio {ratio:.4}, observed {observed} ns, plain {plain} ns"
    );
}
