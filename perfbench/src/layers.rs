//! Per-layer metrics: their declaration, and the ones every workload reads
//! the same way from the span tree of a traced iteration.
//!
//! Spans come from two places: the library's own (`sim.gemm_os`,
//! `latency.fold_plan`, `analyze.fusion`, `serve.simulate`, ...) and the
//! benchmark's, opened around each public call it makes and named after the
//! metric they feed (`models.zoo_build`, `core.apply_variant`,
//! `systolic.op.pointwise`, `serve.emit`, ...).
//!
//! Host time is reported as a share of the traced iteration (`busy_frac`,
//! `self_frac`), so a layer that a workload does not reach reads 0 and every
//! figure reads as the layer's share of the end-to-end time.

use fuseconv_telemetry::{SpanNode, SpanTree};
use std::collections::{BTreeMap, HashMap};

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Per-layer metrics, `(name, unit)`; mirrors `per_layer` in
/// `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("systolic.os.calls", "count"),
    ("systolic.os.busy_frac", "frac"),
    ("systolic.os.pe_cycles_per_s", "1/s"),
    ("systolic.os.useful_pe_frac", "frac"),
    ("systolic.ws.calls", "count"),
    ("systolic.ws.busy_frac", "frac"),
    ("systolic.ws.pe_cycles_per_s", "1/s"),
    ("systolic.ws.useful_pe_frac", "frac"),
    ("systolic.is.calls", "count"),
    ("systolic.is.busy_frac", "frac"),
    ("systolic.is.pe_cycles_per_s", "1/s"),
    ("systolic.is.useful_pe_frac", "frac"),
    ("systolic.conv1d_packed.calls", "count"),
    ("systolic.conv1d_packed.busy_frac", "frac"),
    ("systolic.conv1d_packed.pe_cycles_per_s", "1/s"),
    ("systolic.conv1d_packed.useful_pe_frac", "frac"),
    ("systolic.op.conv2d.busy_frac", "frac"),
    ("systolic.op.depthwise.busy_frac", "frac"),
    ("systolic.op.pointwise.busy_frac", "frac"),
    ("systolic.op.fuse1d.busy_frac", "frac"),
    ("systolic.op.fc.busy_frac", "frac"),
    ("latency.fold_plan.calls", "count"),
    ("latency.fold_plan.busy_frac", "frac"),
    ("latency.fold_plan.folds", "count"),
    ("latency.cycles.calls", "count"),
    ("latency.cycles.busy_frac", "frac"),
    ("latency.audit_gate.calls", "count"),
    ("latency.audit_gate.busy_frac", "frac"),
    ("latency.ir.lift_frac", "frac"),
    ("latency.ir.liveness_frac", "frac"),
    ("analyze.network.calls", "count"),
    ("analyze.network.self_frac", "frac"),
    ("analyze.fusion.calls", "count"),
    ("analyze.fusion.self_frac", "frac"),
    ("analyze.diagnostics", "count"),
    ("analyze.emit.busy_frac", "frac"),
    ("analyze.pod.busy_frac", "frac"),
    ("serve.simulate.busy_frac", "frac"),
    ("serve.events", "count"),
    ("serve.events_per_s", "1/s"),
    ("serve.requests_per_s", "1/s"),
    ("serve.oracle.build_frac", "frac"),
    ("serve.oracle.hits", "count"),
    ("serve.oracle.misses", "count"),
    ("serve.oracle.hit_ratio", "frac"),
    ("serve.recorder.overhead_frac", "frac"),
    ("serve.recorder.windows", "count"),
    ("serve.emit.busy_frac", "frac"),
    ("serve.emit.bytes", "B"),
    ("serve.queue_depth_max", "count"),
    ("serve.dropped", "count"),
    ("models.zoo_build.busy_frac", "frac"),
    ("core.apply_variant.busy_frac", "frac"),
    ("core.table1.busy_frac", "frac"),
    ("telemetry.span.ns_per_span", "ns"),
    ("telemetry.trace_overhead_frac", "frac"),
    ("bench.unattributed_frac", "frac"),
];

/// The systolic kernels: metric prefix and the simulator's span name.
pub const KERNELS: [(&str, &str); 4] = [
    ("systolic.os", "sim.gemm_os"),
    ("systolic.ws", "sim.gemm_ws"),
    ("systolic.is", "sim.gemm_is"),
    ("systolic.conv1d_packed", "sim.conv1d_packed"),
];

/// Aggregate of every span node with one name, wherever it sits in the tree.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanStat {
    /// Closures of spans with this name.
    pub calls: u64,
    /// Their summed wall-clock time, ns.
    pub total_ns: u64,
    /// Their summed self time (total minus child spans), ns.
    pub self_ns: u64,
}

/// A span tree flattened by span name.
pub struct Spans(HashMap<String, SpanStat>);

impl Spans {
    /// Flattens `tree`, summing nodes that share a name.
    pub fn from_tree(tree: &SpanTree) -> Spans {
        fn walk(node: &SpanNode, out: &mut HashMap<String, SpanStat>) {
            let s = out.entry(node.name.clone()).or_default();
            s.calls += node.count;
            s.total_ns += node.total_ns;
            s.self_ns += node.self_ns;
            for child in &node.children {
                walk(child, out);
            }
        }
        let mut out = HashMap::new();
        for root in &tree.roots {
            walk(root, &mut out);
        }
        Spans(out)
    }

    /// The aggregate for `name`; all zero when no such span closed.
    pub fn get(&self, name: &str) -> SpanStat {
        self.0.get(name).copied().unwrap_or_default()
    }

    /// Total seconds spent in spans named `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.get(name).total_ns as f64 * 1e-9
    }
}

/// The per-layer metrics every workload reads the same way. `iter_s` is the
/// traced iteration's wall time; `folds` the folds planned during it.
pub fn common(spans: &Spans, iter_s: f64, folds: u64, out: &mut Layers) {
    let calls = |name| spans.get(name).calls as f64;
    for (prefix, span) in KERNELS {
        out.insert(static_name(prefix, "calls"), calls(span));
        out.insert(
            static_name(prefix, "busy_frac"),
            spans.busy_s(span) / iter_s,
        );
    }
    for name in [
        "latency.fold_plan",
        "latency.cycles",
        "latency.audit_gate",
        "analyze.network",
        "analyze.fusion",
    ] {
        out.insert(static_name(name, "calls"), calls(name));
    }
    for name in [
        "systolic.op.conv2d",
        "systolic.op.depthwise",
        "systolic.op.pointwise",
        "systolic.op.fuse1d",
        "systolic.op.fc",
        "latency.fold_plan",
        "latency.cycles",
        "latency.audit_gate",
        "analyze.emit",
        "analyze.pod",
        "serve.simulate",
        "serve.emit",
        "core.table1",
    ] {
        out.insert(static_name(name, "busy_frac"), spans.busy_s(name) / iter_s);
    }
    for name in ["analyze.network", "analyze.fusion"] {
        out.insert(
            static_name(name, "self_frac"),
            spans.get(name).self_ns as f64 * 1e-9 / iter_s,
        );
    }
    out.insert("latency.fold_plan.folds", folds as f64);
    let root = spans.get("bench.iter");
    out.insert(
        "bench.unattributed_frac",
        root.self_ns as f64 / root.total_ns.max(1) as f64,
    );
}

/// The per-layer metrics of input generation, as shares of a traced
/// set-up (input generation plus the first, cold iteration) of `setup_s`.
pub fn setup(spans: &Spans, setup_s: f64, out: &mut Layers) {
    for name in ["models.zoo_build", "core.apply_variant"] {
        out.insert(static_name(name, "busy_frac"), spans.busy_s(name) / setup_s);
    }
}

/// The declared metric name `{prefix}.{field}`.
///
/// # Panics
///
/// Panics if no such metric is declared in [`PER_LAYER`], which is a bug in
/// this benchmark.
pub fn static_name(prefix: &str, field: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|&(name, _)| name)
        .find(|name| {
            name.strip_prefix(prefix)
                .and_then(|rest| rest.strip_prefix('.'))
                == Some(field)
        })
        .unwrap_or_else(|| panic!("per-layer metric {prefix}.{field} is not declared"))
}
