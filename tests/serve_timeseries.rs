//! Differential tests for the serving time-series layer.
//!
//! The aggregate `fuseconv-serve-v1` report and the windowed
//! `fuseconv-serve-timeseries-v1` artifact are produced by the same
//! event stream, so every windowed count must sum to its aggregate
//! twin, the streaming latency sketch must agree with the exact
//! (selection-based) percentiles within its documented 1/64 relative
//! error bound, and each tail exemplar's phase cycles must sum to its
//! end-to-end latency — on a full million-request zoo run, not a toy.
//! (In debug builds the engine additionally asserts the phase
//! invariant for *every* completed request; this suite's million-run
//! executes those assertions a million times.)

use fuseconv::models::zoo;
use fuseconv::nn::FuSeVariant;
use fuseconv::serve::{
    simulate_observed, PodSpec, ServeConfig, ServeReport, TimeSeriesConfig, TimeSeriesReport,
    Workload,
};
use fuseconv::telemetry::QuantileSketch;

fn zoo_workload() -> Workload {
    Workload::uniform(
        zoo::all_baselines()
            .into_iter()
            .map(|n| n.transform_all(FuSeVariant::Full))
            .collect(),
    )
    .expect("valid workload")
}

/// The paper-style heterogeneous pod under a 1M-request zoo mix at
/// 90% load — the acceptance-scale run shared by several tests here.
fn million_request_run() -> (ServeReport, TimeSeriesReport) {
    let pod = PodSpec::parse("64x64:os,32x32:ws,16x16:os,8x8:os").expect("valid pod");
    let cfg = ServeConfig {
        requests: 1_000_000,
        load: 0.9,
        ..ServeConfig::default()
    };
    let (report, ts) = simulate_observed(
        &pod,
        &zoo_workload(),
        &cfg,
        None,
        Some(&TimeSeriesConfig::new()),
    )
    .expect("pod simulation runs");
    (report, ts.expect("time-series requested"))
}

#[test]
fn million_request_windows_sum_to_the_aggregate_report() {
    let (report, ts) = million_request_run();
    assert_eq!(report.offered, 1_000_000);

    let sum = |f: fn(&fuseconv::serve::timeseries::WindowReport) -> u64| -> u64 {
        ts.windows.iter().map(f).sum()
    };
    assert_eq!(sum(|w| w.offered), report.offered);
    assert_eq!(sum(|w| w.completed), report.completed);
    assert_eq!(sum(|w| w.dropped), report.dropped);
    assert_eq!(sum(|w| w.slo_met), report.slo_met);
    assert_eq!(ts.total.count, report.completed);

    // Per-network window sums match the aggregate per-network rows.
    for (net, agg) in report.networks.iter().enumerate() {
        let windows = 0..ts.windows.len();
        let completed: u64 = windows.clone().map(|w| ts.net_completed(w)[net]).sum();
        let slo_met: u64 = windows.map(|w| ts.net_slo_met(w)[net]).sum();
        assert_eq!(completed, agg.completed, "net {} completions", agg.name);
        assert_eq!(slo_met, agg.slo_met, "net {} SLO attainment", agg.name);
    }

    // The windows tile the whole makespan, and per-array busy time
    // re-aggregates to the report's utilization accounting.
    assert_eq!(
        ts.windows.len() as u64,
        ts.makespan_cycles.div_ceil(ts.window_cycles)
    );
    for (a, agg) in report.arrays.iter().enumerate() {
        let busy_windowed: f64 = ts
            .windows
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let start = w.index * ts.window_cycles;
                let width = (start + ts.window_cycles).min(ts.makespan_cycles) - start;
                ts.busy_frac(i)[a] * width as f64
            })
            .sum();
        let err = (busy_windowed - agg.busy_cycles as f64).abs();
        // busy_frac is a rounded f64; allow half a cycle per window.
        assert!(
            err <= ts.windows.len() as f64,
            "array {} windowed busy {busy_windowed} vs aggregate {}",
            agg.name,
            agg.busy_cycles
        );
    }
}

#[test]
fn million_request_sketch_quantiles_match_exact_within_documented_error() {
    let (report, ts) = million_request_run();
    // `report.latency` is computed by exact selection over all 1M
    // latencies; the sketch must bracket each within its bound.
    for (exact, sketched, label) in [
        (report.latency.p50, ts.total.p50, "p50"),
        (report.latency.p99, ts.total.p99, "p99"),
        (report.latency.p999, ts.total.p999, "p999"),
    ] {
        assert!(
            sketched >= exact,
            "{label}: sketch {sketched} under-reports exact {exact}"
        );
        assert!(
            sketched as f64 <= exact as f64 * (1.0 + QuantileSketch::RELATIVE_ERROR_BOUND),
            "{label}: sketch {sketched} exceeds exact {exact} by more than the \
             documented {} relative error",
            QuantileSketch::RELATIVE_ERROR_BOUND
        );
    }
    // Min and max are tracked exactly, not sketched.
    assert_eq!(ts.total.max, report.latency.max);
    assert!((ts.total.mean - report.latency.mean).abs() <= 1e-6 * report.latency.mean);
}

#[test]
fn exemplar_phase_cycles_sum_exactly_to_latency() {
    // A run that exercises every phase source: dynamic batch formation
    // (form wait), overload queueing (queue wait) and preemption
    // (refill). Works identically in release builds, where the
    // engine's per-request debug assertion is compiled out.
    let pod = PodSpec::parse("16x16:os,8x8:ws").expect("valid pod");
    let cfg = ServeConfig {
        requests: 20_000,
        load: 1.3,
        preemption: true,
        high_priority_frac: 0.1,
        policy: fuseconv::serve::BatchPolicy::Dynamic {
            max_batch: 4,
            max_wait: 10_000,
        },
        ..ServeConfig::default()
    };
    let (report, ts) = simulate_observed(
        &pod,
        &zoo_workload(),
        &cfg,
        None,
        Some(&TimeSeriesConfig {
            exemplars: 64,
            ..TimeSeriesConfig::new()
        }),
    )
    .expect("pod simulation runs");
    let ts = ts.expect("time-series requested");
    assert!(report.preemptions > 0, "overload must trigger preemptions");
    assert_eq!(ts.exemplars.len(), 64);
    for e in &ts.exemplars {
        assert_eq!(
            e.form_wait + e.queue_wait + e.compute + e.refill,
            e.latency,
            "exemplar {}: phases must tile the end-to-end latency",
            e.id
        );
        assert_eq!(e.latency, e.completed_at - e.arrived);
    }
    // Worst-first ordering, and the worst exemplar is the true tail.
    for pair in ts.exemplars.windows(2) {
        assert!(pair[0].latency >= pair[1].latency);
    }
    assert_eq!(ts.exemplars[0].latency, report.latency.max);
}

#[test]
fn same_seed_timeseries_artifact_is_bit_for_bit_identical() {
    let pod = PodSpec::parse("16x16:os,8x8:os").expect("valid pod");
    let cfg = ServeConfig {
        requests: 10_000,
        load: 1.1,
        queue_capacity: 512,
        ..ServeConfig::default()
    };
    let run = || {
        simulate_observed(
            &pod,
            &zoo_workload(),
            &cfg,
            None,
            Some(&TimeSeriesConfig::new()),
        )
        .expect("pod simulation runs")
        .1
        .expect("time-series requested")
    };
    let (a, b) = (run(), run());
    // Everything except the embedded manifest (whose wall-clock fields
    // legitimately differ) must be byte-identical.
    let results = |ts: &TimeSeriesReport| {
        let json = ts.to_json();
        let cut = json.find("\"manifest\":").expect("manifest key present");
        json[..cut].to_string()
    };
    assert_eq!(results(&a), results(&b));
    assert_eq!(a.results_hash(), b.results_hash());
    // And a different seed must move the fingerprint.
    let other = simulate_observed(
        &pod,
        &zoo_workload(),
        &ServeConfig { seed: 1789, ..cfg },
        None,
        Some(&TimeSeriesConfig::new()),
    )
    .expect("pod simulation runs")
    .1
    .expect("time-series requested");
    assert_ne!(a.results_hash(), other.results_hash());
}

#[test]
fn burn_rate_alerts_fire_under_overload_and_stay_silent_when_healthy() {
    let pod = PodSpec::parse("16x16:os").expect("valid pod");
    let workload = Workload::uniform(vec![
        zoo::mobilenet_v3_small().transform_all(FuSeVariant::Full)
    ])
    .expect("valid workload");
    let run = |load: f64| {
        let cfg = ServeConfig {
            requests: 20_000,
            load,
            queue_capacity: 256,
            ..ServeConfig::default()
        };
        simulate_observed(&pod, &workload, &cfg, None, Some(&TimeSeriesConfig::new()))
            .expect("pod simulation runs")
            .1
            .expect("time-series requested")
    };
    let healthy = run(0.3);
    assert!(
        healthy.alerts.is_empty(),
        "a 30%-loaded pod must not page: {:?}",
        healthy.alerts
    );
    let overloaded = run(2.0);
    assert!(
        !overloaded.alerts.is_empty(),
        "a 2x-overloaded pod must raise at least one burn-rate alert"
    );
    for a in &overloaded.alerts {
        assert!(a.start_window <= a.end_window);
        assert!(
            a.peak_burn_rate >= overloaded.burn_threshold,
            "an alert's peak burn {} must be at or past the {}x threshold",
            a.peak_burn_rate,
            overloaded.burn_threshold
        );
    }
}

#[test]
fn recording_survives_the_longest_wait_the_clock_accepts() {
    // A batch head may wait `max_wait` cycles past the last arrival, so
    // a wait that could carry a deadline past half the u64 clock is a
    // config error, and the longest accepted one still records windows
    // that tile the makespan. The load spreads arrivals over ≈1.4e17
    // cycles, one window wide, with a span bound of ≈5e18 cycles; a lower
    // load is a config error.
    use fuseconv::serve::{BatchPolicy, Dispatch, ServeError};
    let pod = PodSpec::parse("16x16:os,8x8:ws").expect("valid pod");
    let workload = Workload::uniform(vec![
        zoo::mobilenet_v3_small().transform_all(FuSeVariant::Full)
    ])
    .expect("valid workload");
    let base = ServeConfig {
        requests: 200,
        load: 1e-9,
        ..ServeConfig::default()
    };
    let ts_cfg = TimeSeriesConfig {
        target_windows: 1,
        ..TimeSeriesConfig::new()
    };
    let cases = [
        ("whole dynamic", base.clone()),
        (
            "whole dynamic, preempting",
            ServeConfig {
                preemption: true,
                high_priority_frac: 0.2,
                ..base.clone()
            },
        ),
        (
            "sharded dynamic",
            ServeConfig {
                dispatch: Dispatch::Sharded,
                ..base
            },
        ),
    ];
    for (label, cfg) in cases {
        let with_wait = |max_wait| ServeConfig {
            policy: BatchPolicy::Dynamic {
                max_batch: 3,
                max_wait,
            },
            ..cfg.clone()
        };
        match simulate_observed(&pod, &workload, &with_wait(u64::MAX), None, Some(&ts_cfg)) {
            Err(ServeError::Config(e)) => assert!(e.contains("max_wait"), "{label}: {e}"),
            other => panic!("{label}: u64::MAX max_wait accepted: {other:?}"),
        }
        let (report, ts) =
            simulate_observed(&pod, &workload, &with_wait(1 << 61), None, Some(&ts_cfg))
                .unwrap_or_else(|e| panic!("{label}: {e}"));
        let ts = ts.expect("time-series requested");
        assert!(report.makespan_cycles > 1 << 61, "{label}: a head waits");
        assert!(report.makespan_cycles < 1 << 63, "{label}: clock in range");
        assert_eq!(report.offered, 200, "{label}");
        assert_eq!(report.completed + report.dropped, report.offered, "{label}");
        let sum = |f: fn(&fuseconv::serve::timeseries::WindowReport) -> u64| -> u64 {
            ts.windows.iter().map(f).sum()
        };
        assert_eq!(sum(|w| w.offered), report.offered, "{label}");
        assert_eq!(sum(|w| w.completed), report.completed, "{label}");
        assert_eq!(sum(|w| w.dropped), report.dropped, "{label}");
        assert_eq!(sum(|w| w.slo_met), report.slo_met, "{label}");
        assert_eq!(ts.total.count, report.completed, "{label}");
        assert_eq!(
            ts.windows.len() as u64,
            ts.makespan_cycles.div_ceil(ts.window_cycles),
            "{label}: windows tile the makespan"
        );
    }
}

#[test]
fn committed_bench_baseline_prices_recording_within_ten_percent() {
    // The live measurement below can only see this machine; the
    // committed `BENCH_fuseconv.json` trajectory must tell the same
    // story, so a baseline refresh that silently prices the recorder
    // past its budget fails here.
    let json = include_str!("../BENCH_fuseconv.json");
    let ns = |name: &str| -> f64 {
        let at = json
            .find(&format!("\"name\": \"{name}\""))
            .unwrap_or_else(|| panic!("baseline lacks bench `{name}`"));
        let key = "\"ns_per_iter\": ";
        let at = json[at..].find(key).expect("ns_per_iter follows name") + at + key.len();
        let end = json[at..].find(',').expect("value closes") + at;
        json[at..end].trim().parse().expect("numeric ns/iter")
    };
    let ratio = ns("serve/timeseries_10k_requests") / ns("serve/fifo_10k_requests");
    assert!(
        ratio <= 1.10,
        "committed baseline prices time-series recording at {ratio:.4}x \
         the plain serve/fifo_10k_requests run (budget 1.10x)"
    );
}
