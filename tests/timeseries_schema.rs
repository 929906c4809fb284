//! Golden-file regression test for the `fuseconv serve --timeseries`
//! artifact schema. The CI serve-timeseries step and any dashboard
//! plotting pod trajectories key on the object keys, the
//! `fuseconv-serve-timeseries-v1` schema tag and the `results_fnv1a64`
//! determinism fingerprint; `tests/golden/timeseries_schema.json` pins
//! that surface so any rename or removal shows up as a reviewable
//! golden diff. Adding a key is the one additive change the golden
//! file expects — append it to the matching list.

use fuseconv::serve::{simulate_observed, BatchPolicy, Dispatch, ServeConfig, TimeSeriesConfig};

mod common;
use common::{assert_keys, golden_list, schema_pod, string_values_of};

const GOLDEN: &str = include_str!("golden/timeseries_schema.json");

/// Time-series artifacts from overloaded runs — overload guarantees
/// burn-rate alerts, so every entry family (windows, alerts,
/// exemplars) appears in each document and the key sets are complete.
fn overloaded_artifacts() -> Vec<String> {
    let (pod, workload) = schema_pod();
    let base = ServeConfig {
        requests: 4_000,
        load: 2.0,
        queue_capacity: 256,
        ..ServeConfig::default()
    };
    let configs = [
        ServeConfig {
            policy: BatchPolicy::Fifo,
            dispatch: Dispatch::Whole,
            ..base.clone()
        },
        ServeConfig {
            policy: BatchPolicy::Dynamic {
                max_batch: 4,
                max_wait: 20_000,
            },
            dispatch: Dispatch::Sharded,
            ..base.clone()
        },
    ];
    configs
        .into_iter()
        .map(|cfg| {
            let (_, ts) =
                simulate_observed(&pod, &workload, &cfg, None, Some(&TimeSeriesConfig::new()))
                    .expect("pod simulation runs");
            let ts = ts.expect("time-series requested");
            assert!(
                !ts.alerts.is_empty(),
                "2x overload must raise burn-rate alerts for schema coverage"
            );
            assert!(!ts.exemplars.is_empty());
            ts.to_json()
        })
        .collect()
}

#[test]
fn timeseries_json_keys_match_golden_schema() {
    for json in overloaded_artifacts() {
        // Window, alert and exemplar entries sit one level below their
        // list, two below the root.
        assert_keys(
            &json,
            GOLDEN,
            &[(1, "top_level_keys"), (2, "nested_keys"), (3, "entry_keys")],
        );
    }
}

#[test]
fn timeseries_json_is_balanced_tagged_and_fingerprinted() {
    let schemas = golden_list(GOLDEN, "schema_version");
    for json in overloaded_artifacts() {
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for s in string_values_of(&json, "schema") {
            assert!(schemas.contains(&s), "schema tag `{s}` not pinned");
        }
        assert!(json.contains("\"schema\": \"fuseconv-serve-timeseries-v1\""));
        // The determinism fingerprint CI keys on.
        assert!(json.contains("\"results_fnv1a64\": \"fnv1a64:"));
        // The embedded provenance manifest.
        assert!(json.contains("\"schema\": \"fuseconv-manifest-v1\""));
    }
}
