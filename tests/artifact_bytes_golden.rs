//! Pins the exact bytes of the JSON artifacts whose rendering no other
//! test pins byte for byte: the `perf` report, the `analyze` report,
//! a metrics snapshot, the bench ledger, both run-manifest renderings,
//! a one-layer Chrome trace, and the serve and time-series documents
//! including their `results_fnv1a64` + manifest tail.
//!
//! Each artifact is hashed with FNV-1a. Where the caller can hand the
//! artifact a manifest, it gets a fixed one so the whole document is
//! deterministic; where the artifact captures the process manifest
//! itself, the document is cut at its `"manifest"` key. The serve
//! results bodies and pod traces are already pinned over a 28-config
//! grid by `serve_fingerprint_golden.rs`.
//!
//! A refactor of the JSON writers must leave every hash here unchanged.

use fuseconv::analyze::{analyze_network, Diagnostic, RuleId, Severity};
use fuseconv::core::trace::simulate_op_traced;
use fuseconv::latency::LatencyModel;
use fuseconv::models::zoo;
use fuseconv::nn::ops::Op;
use fuseconv::nn::FuSeVariant;
use fuseconv::perf::network_perf_report;
use fuseconv::serve::{
    simulate_observed, BatchPolicy, PodSpec, ServeConfig, TimeSeriesConfig, Workload,
};
use fuseconv::systolic::ArrayConfig;
use fuseconv::telemetry::{fnv1a64, Histogram, MetricsSnapshot, RunManifest};
use fuseconv::trace::ChromeTraceSink;
use fuseconv_bench::suite::{to_json as bench_to_json, SuiteBench};
use std::collections::BTreeMap;

/// FNV-1a of each artifact, in [`artifacts`] order.
const PINNED: [(&str, u64); 10] = [
    ("manifest compact", 0x5006b012950f5c96),
    ("perf baseline", 0xc23bde9ea971d1ac),
    ("perf fuse-full", 0x34684960041639b7),
    ("analyze report", 0xa00d205fe4fde552),
    ("metrics", 0xcb1331b2b0edf752),
    ("metrics empty", 0x7cea783609c85c1d),
    ("bench", 0xd1922a149df4995b),
    ("chrome trace", 0xa8c11d028d4d1f2b),
    ("serve report", 0x209c356ebfc45578),
    ("timeseries", 0x073aed2f30d497a9),
];

/// A manifest with every field fixed, strings chosen to need escaping.
fn fixed_manifest() -> RunManifest {
    RunManifest {
        tool: "fuseconv".to_owned(),
        version: "0.0.0-golden".to_owned(),
        config: "golden \"run\"\twith\\escapes".to_owned(),
        rows: 8,
        cols: 16,
        dataflow: "ws".to_owned(),
        broadcast: true,
        seed: 501,
        host: "golden-host-unix".to_owned(),
        started_unix_ms: 1_700_000_000_000,
        elapsed_ms: 42,
    }
}

/// The document up to (not including) its last `"manifest"` key.
fn before_manifest(mut json: String) -> String {
    let at = json
        .rfind("\"manifest\"")
        .expect("artifact embeds a manifest");
    json.truncate(at);
    json
}

/// Every pinned artifact, `(name, bytes)`.
fn artifacts() -> Vec<(&'static str, String)> {
    let array = ArrayConfig::square(8)
        .expect("nonzero")
        .with_broadcast(true);
    let model = LatencyModel::new(array);
    let net = zoo::mobilenet_v2();
    let mut out = vec![("manifest compact", fixed_manifest().to_json_compact())];

    let fused = net.transform_all(FuSeVariant::Full);
    for (name, variant, network) in [
        ("perf baseline", "baseline", &net),
        ("perf fuse-full", "FuSe \"Full\"", &fused),
    ] {
        let mut report = network_perf_report(&model, network, variant, 2, 64).expect("perf");
        report.manifest = fixed_manifest();
        out.push((name, report.to_json()));
    }

    let mut analysis = analyze_network(&model, &net);
    analysis.push(Diagnostic {
        rule: RuleId::Sch001ScheduleViolatesDependence,
        severity: Severity::Error,
        context: "ctx \"quoted\"\n".into(),
        message: "tab\there".into(),
        dependence: Some(vec![0, -1, 2]),
        suggestion: String::new(),
    });
    out.push(("analyze report", before_manifest(analysis.to_json())));

    let hist = Histogram::default();
    for v in [0, 1, 7, 1000, 65_536] {
        hist.record(v);
    }
    let metrics = MetricsSnapshot {
        counters: BTreeMap::from([("a.count".into(), 3), ("b \"quoted\"".into(), u64::MAX)]),
        gauges: BTreeMap::from([("depth".into(), -4)]),
        histograms: BTreeMap::from([
            ("lat".into(), hist.snapshot()),
            ("empty".into(), Histogram::default().snapshot()),
        ]),
    };
    out.push(("metrics", metrics.to_json(&fixed_manifest())));
    let empty = MetricsSnapshot::default().to_json(&fixed_manifest());
    out.push(("metrics empty", empty));

    let bench = |name: &str, ns_per_iter, iters, cycles| SuiteBench {
        name: name.to_owned(),
        ns_per_iter,
        iters,
        cycles,
    };
    let benches = [
        bench("gemm.os.64", 1234.56, 100, 4096),
        bench("serve.fifo", 0.05, 7, 1),
    ];
    out.push(("bench", before_manifest(bench_to_json(&benches))));

    let mut sink = ChromeTraceSink::new();
    sink.label_tag(0, "pw \"1x1\"");
    let op = Op::Pointwise {
        in_h: 4,
        in_w: 4,
        in_c: 6,
        out_c: 10,
    };
    simulate_op_traced(&model, &op, &mut sink).expect("one-layer trace");
    out.push(("chrome trace", before_manifest(sink.into_json())));

    let pod = PodSpec::parse("8x8:os,16x16:ws").expect("pod parses");
    let nets = vec![
        zoo::mobilenet_v3_small(),
        zoo::mobilenet_v1().transform_all(FuSeVariant::Half),
    ];
    let cfg = ServeConfig {
        policy: BatchPolicy::Dynamic {
            max_batch: 4,
            max_wait: 20_000,
        },
        requests: 400,
        high_priority_frac: 0.1,
        preemption: true,
        seed: 918_273_645,
        ..ServeConfig::default()
    };
    let ts_cfg = TimeSeriesConfig {
        target_windows: 8,
        exemplars: 2,
        ..TimeSeriesConfig::new()
    };
    let workload = Workload::uniform(nets).expect("workload");
    let (mut report, ts) =
        simulate_observed(&pod, &workload, &cfg, None, Some(&ts_cfg)).expect("serve run");
    report.manifest = fixed_manifest();
    out.push(("serve report", report.to_json()));
    let mut ts = ts.expect("time series recorded");
    ts.manifest = fixed_manifest();
    out.push(("timeseries", ts.to_json()));
    out
}

#[test]
fn artifact_bytes_are_pinned() {
    let got: Vec<(&str, u64)> = artifacts()
        .iter()
        .map(|(name, json)| (*name, fnv1a64(json.as_bytes())))
        .collect();
    assert_eq!(got, PINNED, "an artifact's bytes changed");
}
