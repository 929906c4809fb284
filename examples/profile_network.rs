//! Host-side telemetry walk-through: profile the analytic pipeline for
//! one network with the RAII span profiler, read the metrics registry,
//! and stamp the artifacts with run provenance — the library API behind
//! `fuseconv profile`.
//!
//! ```text
//! cargo run --release --example profile_network
//! ```

use fuseconv::latency::LatencyModel;
use fuseconv::models::zoo;
use fuseconv::perf::network_perf_report;
use fuseconv::systolic::ArrayConfig;
use fuseconv::telemetry::{self, RunManifest};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let array = ArrayConfig::square(32)?.with_broadcast(true);
    let model = LatencyModel::new(array);
    let net = zoo::mobilenet_v2();

    // Provenance captured by every manifest from here on.
    telemetry::manifest::set_run_config("example: profile_network");
    telemetry::manifest::set_run_array(array.rows(), array.cols(), "os", true);

    // 1. Spans: off by default (instrumented library code costs one
    //    atomic load); enable, run the pipeline under a root span,
    //    disable. Guards nest per thread, so the aggregate is a tree.
    telemetry::set_spans_enabled(true);
    {
        let _root = telemetry::span("example");
        {
            let _s = telemetry::span("example.plan");
            for named in net.ops() {
                let _plan = model.fold_plan(&named.op)?;
            }
        }
        let _s = telemetry::span("example.perf");
        let _report = network_perf_report(&model, &net, "baseline", 2, 64)?;
    }
    telemetry::set_spans_enabled(false);

    // 2. The snapshot satisfies total == self + Σ child.total exactly.
    let tree = telemetry::span_snapshot();
    assert!(tree.is_balanced());
    println!("span tree (total / self / calls):\n{}", tree.to_text());

    // 3. Metrics: named counters the instrumented crates maintain
    //    whether or not spans are enabled.
    let metrics = telemetry::metrics_snapshot();
    println!(
        "planned {} folds; simulated {} cycles over {} runs",
        metrics.counter("latency.folds_planned_total"),
        metrics.counter("sim.cycles_total"),
        metrics.counter("sim.runs_total"),
    );

    // 4. Provenance: the same manifest every JSON artifact embeds.
    let manifest = RunManifest::capture().with_dataflow("os");
    println!("\nrun manifest:\n{}", manifest.to_json_pretty());
    Ok(())
}
