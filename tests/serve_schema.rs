//! Golden-file regression test for the `fuseconv serve --format json`
//! report schema. The CI serve job and any dashboard reading pod results
//! key on the object keys, the `fuseconv-serve-v1` schema tag and the
//! `results_fnv1a64` determinism fingerprint;
//! `tests/golden/serve_schema.json` pins that surface so any rename or
//! removal shows up as a reviewable golden diff. Adding a key is the one
//! additive change the golden file expects — append it to the matching
//! list.

use fuseconv::serve::{simulate, BatchPolicy, Dispatch, ServeConfig};

mod common;
use common::{assert_keys, golden_list, schema_pod, string_values_of};

const GOLDEN: &str = include_str!("golden/serve_schema.json");

/// Pod reports covering every policy, both dispatch modes and the
/// preemption path — the same JSON `fuseconv serve --format json` writes.
fn cli_equivalent_reports() -> Vec<String> {
    let (pod, workload) = schema_pod();
    let base = ServeConfig {
        requests: 600,
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
            dispatch: Dispatch::Whole,
            preemption: true,
            high_priority_frac: 0.1,
            ..base.clone()
        },
        ServeConfig {
            policy: BatchPolicy::Bucketed {
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
            simulate(&pod, &workload, &cfg, None)
                .expect("pod simulation runs")
                .to_json()
        })
        .collect()
}

#[test]
fn serve_json_keys_match_golden_schema() {
    for json in cli_equivalent_reports() {
        // The arrays/networks entries sit one level below their list,
        // two below the root.
        assert_keys(
            &json,
            GOLDEN,
            &[(1, "top_level_keys"), (2, "nested_keys"), (3, "entry_keys")],
        );
    }
}

#[test]
fn serve_json_values_stay_within_golden_vocabulary() {
    let policies = golden_list(GOLDEN, "policies");
    let dispatches = golden_list(GOLDEN, "dispatches");
    let dataflows = golden_list(GOLDEN, "dataflows");
    let schemas = golden_list(GOLDEN, "schema_version");
    let mut seen_policies = Vec::new();
    let mut seen_dispatches = Vec::new();
    for json in cli_equivalent_reports() {
        for s in string_values_of(&json, "schema") {
            assert!(schemas.contains(&s), "schema tag `{s}` not pinned");
        }
        for p in string_values_of(&json, "policy") {
            assert!(policies.contains(&p), "policy `{p}` not in vocabulary");
            seen_policies.push(p);
        }
        for d in string_values_of(&json, "dispatch") {
            assert!(dispatches.contains(&d), "dispatch `{d}` not in vocabulary");
            seen_dispatches.push(d);
        }
        for d in string_values_of(&json, "dataflow") {
            assert!(dataflows.contains(&d), "dataflow `{d}` not in vocabulary");
        }
    }
    // The three report configurations must exercise the whole vocabulary.
    for p in &policies {
        assert!(seen_policies.contains(p), "policy `{p}` untested");
    }
    for d in &dispatches {
        assert!(seen_dispatches.contains(d), "dispatch `{d}` untested");
    }
}

#[test]
fn serve_json_is_balanced_and_fingerprinted() {
    for json in cli_equivalent_reports() {
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"schema\": \"fuseconv-serve-v1\""));
        // The determinism fingerprint CI keys on.
        assert!(json.contains("\"results_fnv1a64\": \"fnv1a64:"));
        // The embedded provenance manifest.
        assert!(json.contains("\"schema\": \"fuseconv-manifest-v1\""));
    }
}
