//! Golden-file regression test for the `fuseconv-metrics-v1` snapshot
//! JSON envelope, plus exactness and determinism of the registry under
//! concurrent updates. Metric *names* are open vocabulary (crates add
//! counters freely); the envelope keys and per-histogram stat keys are
//! the pinned surface — `tests/golden/metrics_schema.json` holds them.

use fuseconv::telemetry::{
    counter, gauge, histogram, metrics_snapshot, RunManifest, Telemetry, METRICS_SCHEMA,
};

mod common;
use common::{assert_keys, golden_list};

const GOLDEN: &str = include_str!("golden/metrics_schema.json");

#[test]
fn metrics_json_envelope_matches_golden_schema() {
    counter("test.schema.counter").add(3);
    gauge("test.schema.gauge").set(-5);
    for v in [1u64, 10, 100, 1000] {
        histogram("test.schema.hist").record(v);
    }
    let json = metrics_snapshot().to_json(&RunManifest::capture());
    // Per-histogram stat objects are the only depth-3 objects (the
    // manifest is deliberately flat, so its fields stay at depth 2).
    assert_keys(
        &json,
        GOLDEN,
        &[(1, "top_level_keys"), (3, "histogram_stat_keys")],
    );
    assert!(json.contains(&format!("\"schema\": \"{METRICS_SCHEMA}\"")));
    assert_eq!(golden_list(GOLDEN, "schema_version"), vec![METRICS_SCHEMA]);
    // Balanced document, since downstream parsers brace-count.
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

#[test]
fn snapshot_is_exact_and_deterministic_under_concurrency() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let run = &Telemetry::current();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                run.join();
                for i in 0..PER_THREAD {
                    counter("test.conc.counter").inc();
                    gauge("test.conc.gauge").add(1);
                    histogram("test.conc.hist").record(t * PER_THREAD + i);
                }
            });
        }
    });
    // No update is lost and no update is double-counted.
    let s1 = metrics_snapshot();
    let n = THREADS * PER_THREAD;
    assert_eq!(s1.counter("test.conc.counter"), n);
    assert_eq!(s1.gauges["test.conc.gauge"], n as i64);
    let hist = &s1.histograms["test.conc.hist"];
    assert_eq!((hist.count, hist.sum), (n, n * (n - 1) / 2));
    // The run holds exactly this test's metrics, and a quiescent run
    // renders identically across snapshots (name-ordered maps, no
    // iteration-order nondeterminism).
    assert_eq!(s1.counters.len() + s1.gauges.len() + s1.histograms.len(), 3);
    assert_eq!(s1.to_text(), metrics_snapshot().to_text());
}
