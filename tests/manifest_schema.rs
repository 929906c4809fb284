//! Golden-file regression test for the `fuseconv-manifest-v1` run
//! provenance object. Every JSON artifact the workspace emits (perf
//! reports, bench suites, analyze reports, Chrome traces, metrics
//! snapshots, serve reports and pod traces) embeds a manifest under a
//! top-level `"manifest"` key;
//! `tests/golden/manifest_schema.json` pins its field set and order so a
//! rename or removal shows up as a reviewable golden diff. Adding a field
//! is the one additive change the golden file expects — append it to the
//! `manifest_keys` list.

use fuseconv::analyze::{analyze_network, Report};
use fuseconv::latency::LatencyModel;
use fuseconv::models::zoo;
use fuseconv::perf::network_perf_report;
use fuseconv::systolic::ArrayConfig;
use fuseconv::telemetry::{RunManifest, MANIFEST_SCHEMA};
use fuseconv::trace::{ChromeTraceSink, FoldKind, TraceEvent, TraceSink};
use fuseconv_bench::micro::Micro;
use fuseconv_bench::suite::{run_suite, to_json as bench_to_json};

mod common;
use common::{golden_list, keys_at_depth};

const GOLDEN: &str = include_str!("golden/manifest_schema.json");

/// Extracts the (last) top-level `"manifest"` object of an artifact by
/// brace matching. Manifest string fields never contain braces, so the
/// count is exact.
fn manifest_object(json: &str) -> String {
    let at = json
        .rfind("\"manifest\":")
        .expect("artifact lacks a \"manifest\" key");
    let open = json[at..].find('{').expect("manifest is an object") + at;
    let mut depth = 0usize;
    for (i, b) in json[open..].bytes().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return json[open..=open + i].to_string();
                }
            }
            _ => {}
        }
    }
    panic!("manifest object never closes");
}

#[test]
fn manifest_renderings_match_golden_schema() {
    let golden = golden_list(GOLDEN, "manifest_keys");
    let manifest = RunManifest::capture()
        .with_config("test invocation")
        .with_seed(7)
        .with_array(8, 8, true)
        .with_dataflow("os");
    for json in [manifest.to_json_pretty(), manifest.to_json_compact()] {
        assert_eq!(
            keys_at_depth(&json, 1),
            golden,
            "manifest field set changed"
        );
        assert!(json.contains(MANIFEST_SCHEMA));
    }
    assert!(manifest.config_hash().starts_with("fnv1a64:"));
    assert_eq!(golden_list(GOLDEN, "schema_version"), vec![MANIFEST_SCHEMA]);
}

#[test]
fn every_json_artifact_embeds_a_golden_manifest() {
    let golden = golden_list(GOLDEN, "manifest_keys");
    let array = ArrayConfig::square(8)
        .expect("8 is nonzero")
        .with_broadcast(true);
    let model = LatencyModel::new(array);
    let net = zoo::mobilenet_v2();

    let mut artifacts: Vec<(&str, String)> = Vec::new();

    let perf = network_perf_report(&model, &net, "baseline", 2, 64)
        .expect("perf report")
        .to_json();
    artifacts.push(("perf report", perf));

    let mut analysis = Report::new();
    for d in analyze_network(&model, &net).diagnostics {
        analysis.push(d);
    }
    artifacts.push(("analyze report", analysis.to_json()));

    let mut sink = ChromeTraceSink::new();
    sink.on_event(&TraceEvent::FoldStart {
        fold: 0,
        tag: 0,
        cycle: 0,
        kind: FoldKind::OutputStationary,
        rows_used: 2,
        cols_used: 2,
    });
    sink.on_event(&TraceEvent::FoldEnd { fold: 0, cycle: 4 });
    artifacts.push(("chrome trace", sink.into_json()));

    let mut harness = Micro::with_budget_ms(1);
    let results = run_suite(&mut harness);
    artifacts.push(("bench suite", bench_to_json(&results)));

    fuseconv::telemetry::counter("test.manifest.counter").inc();
    let snapshot = fuseconv::telemetry::metrics_snapshot();
    artifacts.push((
        "metrics snapshot",
        snapshot.to_json(&RunManifest::capture()),
    ));

    let host_trace =
        fuseconv::telemetry::span_snapshot().chrome_trace_json(&RunManifest::capture());
    artifacts.push(("host chrome trace", host_trace));

    let pod = fuseconv::serve::PodSpec::homogeneous(2, 8).expect("valid pod");
    let workload = fuseconv::serve::Workload::uniform(vec![zoo::mobilenet_v3_small()])
        .expect("valid workload");
    let cfg = fuseconv::serve::ServeConfig {
        requests: 50,
        ..fuseconv::serve::ServeConfig::default()
    };
    let mut pod_trace = fuseconv::serve::PodTraceSink::new(&pod);
    let serve = fuseconv::serve::simulate(&pod, &workload, &cfg, Some(&mut pod_trace))
        .expect("pod simulation runs");
    artifacts.push(("serve report", serve.to_json()));
    artifacts.push(("serve chrome trace", pod_trace.into_json()));

    for (name, json) in &artifacts {
        let manifest = manifest_object(json);
        assert_eq!(
            keys_at_depth(&manifest, 1),
            golden,
            "{name}: embedded manifest diverged from tests/golden/manifest_schema.json"
        );
        assert!(
            manifest.contains(MANIFEST_SCHEMA),
            "{name}: manifest lacks the {MANIFEST_SCHEMA} tag"
        );
    }
}
