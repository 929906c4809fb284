//! Network-level performance reports: counter taxonomy totals, per-op
//! breakdowns and a roofline/efficiency summary, rendered as text and as
//! hand-rolled JSON (schema `fuseconv-perf-v1`, pinned by the
//! `perf_schema` golden test).

use crate::counters::PerfCounters;
use fuseconv_latency::memory::{network_traffic, roofline, Bound, Roofline, Traffic};
use fuseconv_latency::{estimate_network, LatencyError, LatencyModel};
use fuseconv_models::Network;
use fuseconv_telemetry::{Json, Layout, RunManifest};
use std::fmt::Write as _;

/// Analytic performance counters for one operator of a network.
#[derive(Debug, Clone)]
pub struct OpPerf {
    /// Block name the operator came from (`Network::ops` provenance).
    pub block: String,
    /// Human-readable operator description.
    pub op: String,
    /// Fully cycle-accounted counters for the whole operator.
    pub counters: PerfCounters,
}

/// A complete performance report for one network on one array: counter
/// totals with full cycle accountability, per-op attribution, operand
/// traffic and a bandwidth-aware roofline.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Network name.
    pub network: String,
    /// Variant label (e.g. `baseline`, `fuse-half`).
    pub variant: String,
    /// Array rows.
    pub rows: usize,
    /// Array columns.
    pub cols: usize,
    /// Element width used for the roofline, bytes.
    pub bytes_per_elem: u64,
    /// Memory bandwidth used for the roofline, bytes per cycle.
    pub bytes_per_cycle: u64,
    /// Per-operator counters, in network order.
    pub ops: Vec<OpPerf>,
    /// Operand traffic under the fold schedules.
    pub traffic: Traffic,
    /// Compute-vs-transfer roofline.
    pub roofline: Roofline,
    /// Run provenance embedded in the JSON rendering
    /// (`fuseconv-manifest-v1`).
    pub manifest: RunManifest,
}

/// Builds the report for `network` on `model`'s array: per-op counters
/// from the analytic fold plans, traffic from the MEM-rule schedule
/// accounting, and the roofline at the given element width and bandwidth.
///
/// Counter totals equal [`LatencyModel::cycles`] sums under the model's
/// default serial fold accounting.
///
/// # Errors
///
/// Propagates [`LatencyError`] from planning or traffic estimation.
///
/// # Panics
///
/// Panics if `bytes_per_cycle` is zero.
pub fn network_perf_report(
    model: &LatencyModel,
    network: &Network,
    variant: &str,
    bytes_per_elem: u64,
    bytes_per_cycle: u64,
) -> Result<PerfReport, LatencyError> {
    let _span = fuseconv_telemetry::span("perf.report");
    let (rows, cols) = (model.array().rows(), model.array().cols());
    let mut ops = Vec::new();
    for named in network.ops() {
        let plan = model.fold_plan(&named.op)?;
        ops.push(OpPerf {
            block: named.block_name.clone(),
            op: named.op.to_string(),
            counters: PerfCounters::from_fold_plan(&plan, rows, cols),
        });
    }
    let traffic = network_traffic(model, network)?;
    let latency = estimate_network(model, network)?;
    let roofline = roofline(model, network, &latency, bytes_per_elem, bytes_per_cycle)?;
    let manifest = RunManifest::capture()
        .with_array(rows, cols, model.array().has_broadcast())
        .with_dataflow(model.dataflow().short_name());
    Ok(PerfReport {
        network: network.name().to_string(),
        variant: variant.to_string(),
        rows,
        cols,
        bytes_per_elem,
        bytes_per_cycle,
        ops,
        traffic,
        roofline,
        manifest,
    })
}

impl PerfReport {
    fn sum(&self, f: impl Fn(&PerfCounters) -> u64) -> u64 {
        self.ops.iter().map(|o| f(&o.counters)).sum()
    }

    /// Total cycles across all ops (serial accounting).
    pub fn total_cycles(&self) -> u64 {
        self.sum(PerfCounters::cycles)
    }

    /// Total fill cycles.
    pub fn total_fill(&self) -> u64 {
        self.sum(PerfCounters::fill)
    }

    /// Total active-compute cycles.
    pub fn total_active(&self) -> u64 {
        self.sum(PerfCounters::active)
    }

    /// Total compute-bubble cycles.
    pub fn total_bubble(&self) -> u64 {
        self.sum(PerfCounters::bubble)
    }

    /// Total drain cycles.
    pub fn total_drain(&self) -> u64 {
        self.sum(PerfCounters::drain)
    }

    /// Total busy PE·cycles — one MAC each, so also the network's MACs as
    /// executed on the array.
    pub fn total_busy_pe_cycles(&self) -> u64 {
        self.sum(PerfCounters::busy_pe_cycles)
    }

    /// Total weight-broadcast link ticks.
    pub fn total_broadcast_ticks(&self) -> u64 {
        self.sum(PerfCounters::broadcast_ticks)
    }

    /// PEs in the array.
    pub fn pe_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Whole-network PE utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        fuseconv_trace::pe_utilization(
            self.total_busy_pe_cycles(),
            self.total_cycles(),
            self.pe_count(),
        )
    }

    /// Idle PE·cycles inside compute windows across the network.
    pub fn stall_pe_cycles(&self) -> u64 {
        self.ops.iter().map(|o| o.counters.stall_pe_cycles()).sum()
    }

    /// Network-wide `stall / compute` PE·cycle fraction.
    pub fn compute_stall_fraction(&self) -> f64 {
        let compute: u64 = self
            .ops
            .iter()
            .map(|o| o.counters.compute_pe_cycles())
            .sum();
        if compute == 0 {
            0.0
        } else {
            self.stall_pe_cycles() as f64 / compute as f64
        }
    }

    /// Achieved MACs per cycle (peak is [`Self::pe_count`]).
    pub fn achieved_macs_per_cycle(&self) -> f64 {
        let cycles = self.total_cycles();
        if cycles == 0 {
            0.0
        } else {
            self.total_busy_pe_cycles() as f64 / cycles as f64
        }
    }

    /// Arithmetic intensity: MACs per byte of operand traffic.
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.traffic.total() * self.bytes_per_elem;
        if bytes == 0 {
            0.0
        } else {
            self.total_busy_pe_cycles() as f64 / bytes as f64
        }
    }

    /// Machine balance: peak MACs per cycle over bytes per cycle — the
    /// arithmetic intensity at which compute and memory time break even.
    pub fn machine_balance(&self) -> f64 {
        self.pe_count() as f64 / self.bytes_per_cycle as f64
    }

    /// Renders the report as human-readable text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let cycles = self.total_cycles();
        let pct = |v: u64| {
            if cycles == 0 {
                0.0
            } else {
                100.0 * v as f64 / cycles as f64
            }
        };
        let _ = writeln!(
            out,
            "performance counters: {} ({}) on {}x{} array",
            self.network, self.variant, self.rows, self.cols
        );
        let _ = writeln!(out, "  cycles     {cycles:>16}");
        let _ = writeln!(
            out,
            "    fill     {:>16}  ({:5.1}%)",
            self.total_fill(),
            pct(self.total_fill())
        );
        let _ = writeln!(
            out,
            "    active   {:>16}  ({:5.1}%)",
            self.total_active(),
            pct(self.total_active())
        );
        let _ = writeln!(
            out,
            "    bubble   {:>16}  ({:5.1}%)",
            self.total_bubble(),
            pct(self.total_bubble())
        );
        let _ = writeln!(
            out,
            "    drain    {:>16}  ({:5.1}%)",
            self.total_drain(),
            pct(self.total_drain())
        );
        let _ = writeln!(
            out,
            "  busy       {:>16} PE-cycles  (utilization {:.2}%)",
            self.total_busy_pe_cycles(),
            100.0 * self.utilization()
        );
        let _ = writeln!(
            out,
            "  stall      {:>16} PE-cycles  ({:.1}% of compute window)",
            self.stall_pe_cycles(),
            100.0 * self.compute_stall_fraction()
        );
        let _ = writeln!(
            out,
            "  broadcast  {:>16} link ticks",
            self.total_broadcast_ticks()
        );
        let _ = writeln!(
            out,
            "roofline ({} B/elem, {} B/cycle):",
            self.bytes_per_elem, self.bytes_per_cycle
        );
        let _ = writeln!(
            out,
            "  MACs/cycle {:.2} achieved of {} peak",
            self.achieved_macs_per_cycle(),
            self.pe_count()
        );
        let _ = writeln!(out, "  traffic    {}", self.traffic);
        let _ = writeln!(
            out,
            "  intensity  {:.3} MACs/B vs balance {:.3} MACs/B",
            self.arithmetic_intensity(),
            self.machine_balance()
        );
        let _ = writeln!(
            out,
            "  compute {} vs transfer {} cycles -> {}",
            self.roofline.compute_cycles, self.roofline.transfer_cycles, self.roofline.bound
        );
        let _ = writeln!(out, "per-op breakdown:");
        let _ = writeln!(
            out,
            "  {:<28} {:>14} {:>6} {:>6} {:>6} {:>6} {:>8}",
            "op", "cycles", "fill%", "actv%", "bubl%", "drn%", "util%"
        );
        for op in &self.ops {
            let c = &op.counters;
            let total = c.cycles().max(1) as f64;
            let _ = writeln!(
                out,
                "  {:<28} {:>14} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>8.2}",
                truncate(&format!("{}/{}", op.block, op.op), 28),
                c.cycles(),
                100.0 * c.fill() as f64 / total,
                100.0 * c.active() as f64 / total,
                100.0 * c.bubble() as f64 / total,
                100.0 * c.drain() as f64 / total,
                100.0 * c.utilization()
            );
        }
        out
    }

    /// Renders the report as JSON (schema `fuseconv-perf-v1`).
    pub fn to_json(&self) -> String {
        let f6 = |v: f64| format!("{v:.6}");
        let mut j = Json::pretty();
        j.str("schema", "fuseconv-perf-v1")
            .str("network", &self.network)
            .str("variant", &self.variant)
            .nest("array", Layout::Inline, '{', |j| {
                j.raw("rows", self.rows)
                    .raw("cols", self.cols)
                    .raw("pe_count", self.pe_count());
            })
            .obj("totals", |j| {
                j.raw("cycles", self.total_cycles())
                    .raw("fill", self.total_fill())
                    .raw("active", self.total_active())
                    .raw("bubble", self.total_bubble())
                    .raw("drain", self.total_drain())
                    .raw("busy_pe_cycles", self.total_busy_pe_cycles())
                    .raw("stall_pe_cycles", self.stall_pe_cycles())
                    .raw("broadcast_ticks", self.total_broadcast_ticks())
                    .raw("utilization", f6(self.utilization()))
                    .raw("compute_stall_fraction", f6(self.compute_stall_fraction()));
            })
            .obj("roofline", |j| {
                let r = &self.roofline;
                j.raw("bytes_per_elem", self.bytes_per_elem)
                    .raw("bytes_per_cycle", self.bytes_per_cycle)
                    .raw("compute_cycles", r.compute_cycles)
                    .raw("transfer_cycles", r.transfer_cycles)
                    .raw("bound_cycles", r.bound_cycles())
                    .str(
                        "bound",
                        match r.bound {
                            Bound::Compute => "compute",
                            Bound::Memory => "memory",
                        },
                    )
                    .raw("peak_macs_per_cycle", self.pe_count())
                    .raw(
                        "achieved_macs_per_cycle",
                        f6(self.achieved_macs_per_cycle()),
                    )
                    .raw("arithmetic_intensity", f6(self.arithmetic_intensity()))
                    .raw("machine_balance", f6(self.machine_balance()));
            })
            .obj("traffic", |j| {
                let t = &self.traffic;
                j.raw("input_elems", t.input_elems)
                    .raw("weight_elems", t.weight_elems)
                    .raw("output_elems", t.output_elems)
                    .raw("total_elems", t.total());
            })
            .arr("ops", |j| {
                for op in &self.ops {
                    let c = &op.counters;
                    j.obj("", |j| {
                        j.str("block", &op.block)
                            .str("op", &op.op)
                            .raw("cycles", c.cycles())
                            .raw("fill", c.fill())
                            .raw("active", c.active())
                            .raw("bubble", c.bubble())
                            .raw("drain", c.drain())
                            .raw("busy_pe_cycles", c.busy_pe_cycles())
                            .raw("broadcast_ticks", c.broadcast_ticks())
                            .raw("folds", c.folds().len())
                            .raw("utilization", f6(c.utilization()))
                            .raw("compute_stall_fraction", f6(c.compute_stall_fraction()));
                    });
                }
            })
            .manifest(&self.manifest);
        j.finish() + "\n"
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_models::zoo;
    use fuseconv_nn::FuSeVariant;
    use fuseconv_systolic::ArrayConfig;

    fn model() -> LatencyModel {
        LatencyModel::new(ArrayConfig::square(64).unwrap().with_broadcast(true))
    }

    #[test]
    fn report_totals_match_latency_model() {
        let model = model();
        let net = zoo::mobilenet_v1();
        let report = network_perf_report(&model, &net, "baseline", 2, 64).unwrap();
        let expected = estimate_network(&model, &net).unwrap().total_cycles;
        assert_eq!(report.total_cycles(), expected);
        assert_eq!(
            report.total_cycles(),
            report.total_fill()
                + report.total_active()
                + report.total_bubble()
                + report.total_drain()
        );
        assert_eq!(report.ops.len(), net.ops().len());
        assert!(report.utilization() > 0.0 && report.utilization() <= 1.0);
    }

    #[test]
    fn fuse_variant_cuts_stall_fraction() {
        let model = model();
        let base = zoo::mobilenet_v1();
        let fused = base.transform_all(FuSeVariant::Half);
        let base_report = network_perf_report(&model, &base, "baseline", 2, 64).unwrap();
        let fuse_report = network_perf_report(&model, &fused, "fuse-half", 2, 64).unwrap();
        assert!(fuse_report.total_cycles() < base_report.total_cycles());
        assert!(fuse_report.utilization() > base_report.utilization());
        assert!(fuse_report.total_broadcast_ticks() > 0);
        assert_eq!(base_report.total_broadcast_ticks(), 0);
    }

    #[test]
    fn text_and_json_render() {
        let model = model();
        let net = zoo::mnasnet_b1();
        let report = network_perf_report(&model, &net, "baseline", 2, 64).unwrap();
        let text = report.to_text();
        assert!(text.contains("performance counters"));
        assert!(text.contains("roofline"));
        let json = report.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"schema\": \"fuseconv-perf-v1\""));
        assert!(json.contains("\"compute_stall_fraction\""));
        // Sanity: balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
