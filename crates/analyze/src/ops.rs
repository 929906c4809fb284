//! Operator- and network-level analysis: resource/bounds sanity and the
//! paper's utilization argument, evaluated statically.
//!
//! For each operator the analyzer reads the latency model's lowering
//! ([`LatencyModel::lowering`]) and checks, without simulating a cycle:
//!
//! * **RES001** — the cycle accounting fits `u64` (checked arithmetic);
//! * **RES002** — no zero-sized dimensions;
//! * **RES003** — operand footprints fit the 32-bit SRAM element address
//!   space the trace sinks assume;
//! * **UTL001/UTL002** — degenerate GEMM lowerings. A depthwise layer
//!   lowers to per-channel `M×K²·K²×1` GEMMs: a single array column is
//!   ever busy, so utilization is statically bounded by `1/W` — the
//!   Fig. 1(d) argument, reported here as a warning while the FuSe
//!   row-broadcast lowering of the same work passes clean;
//! * **UTL003** — the cycle-accounted counters priced run by run from the
//!   fold plan predict ≥ 90% of compute-phase PE slots idle: the operator
//!   is compute-stall dominated regardless of its fill/drain overheads.

use crate::diagnostics::{Diagnostic, Report, RuleId, Severity};
use crate::mapping::analyze_mapping;
use crate::memory::MemoryBudget;
use fuseconv_latency::memory::unique_traffic;
use fuseconv_latency::{FoldRuns, LatencyError, LatencyModel, Lowering};
use fuseconv_models::Network;
use fuseconv_nn::ops::Op;
use fuseconv_systolic::legality::canonical_mapping;
use fuseconv_trace::FoldKind;

/// SRAM element address space assumed by the trace sinks (32-bit).
const SRAM_ADDRESS_SPACE: u64 = 1 << 32;

/// Compute-phase PE idleness at or above which UTL003 fires.
const COMPUTE_STALL_THRESHOLD: f64 = 0.90;

/// Analyzes one operator under one latency model, returning every
/// finding. `context` labels the findings (e.g. `network/block/op`).
pub fn analyze_op(model: &LatencyModel, op: &Op, context: &str) -> Vec<Diagnostic> {
    op_findings(model, op, model.fold_runs(op).ok().as_ref(), context)
}

/// [`analyze_op`] over the operator's fold plan, which the caller already
/// holds (`None` if planning failed).
fn op_findings(
    model: &LatencyModel,
    op: &Op,
    plan: Option<&FoldRuns>,
    context: &str,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let cols = model.array().cols();
    let rows = model.array().rows();

    // Resource sanity: run the checked accounting and convert its errors.
    match model.cycles(op) {
        Ok(_) => {}
        Err(LatencyError::ArithmeticOverflow { .. }) => out.push(Diagnostic {
            rule: RuleId::Res001CycleArithmeticOverflow,
            severity: Severity::Error,
            context: context.to_string(),
            message: format!("cycle count of `{op}` overflows u64"),
            dependence: None,
            suggestion: "tile or split the operator; shapes this large cannot be \
                         scheduled in one pass"
                .into(),
        }),
        Err(LatencyError::DegenerateOp { .. }) => out.push(Diagnostic {
            rule: RuleId::Res002DegenerateOp,
            severity: Severity::Error,
            context: context.to_string(),
            message: format!("`{op}` has zero-sized dimensions"),
            dependence: None,
            suggestion: "remove the operator or fix its shape".into(),
        }),
        Err(LatencyError::BroadcastRequired { .. }) => out.push(Diagnostic {
            rule: RuleId::Loc002BroadcastLinkRequired,
            severity: Severity::Error,
            context: context.to_string(),
            message: format!(
                "`{op}` uses the row-broadcast dataflow but the array has no \
                 broadcast links"
            ),
            dependence: None,
            suggestion: "configure the array with ArrayConfig::with_broadcast(true)".into(),
        }),
        // `LatencyError` is non_exhaustive; report unknown errors rather
        // than dropping them.
        Err(other) => out.push(Diagnostic {
            rule: RuleId::Res002DegenerateOp,
            severity: Severity::Error,
            context: context.to_string(),
            message: format!("latency model rejected `{op}`: {other}"),
            dependence: None,
            suggestion: String::new(),
        }),
    }

    // SRAM footprint sanity.
    let footprint = unique_traffic(model, op);
    for (what, elems) in [
        ("input", footprint.input_elems),
        ("weights", footprint.weight_elems),
        ("output", footprint.output_elems),
    ] {
        if elems >= SRAM_ADDRESS_SPACE {
            out.push(Diagnostic {
                rule: RuleId::Res003SramAddressOverflow,
                severity: Severity::Warning,
                context: context.to_string(),
                message: format!(
                    "{what} operand of `{op}` holds {elems} elements, exceeding \
                     the 32-bit SRAM element address space"
                ),
                dependence: None,
                suggestion: "tile the operator so each operand fits on-chip \
                             addressing"
                    .into(),
            });
        }
    }

    // Utilization: the paper's degenerate-GEMM argument (§III-B).
    if let Ok(Lowering::Gemm { m, n, .. }) = model.lowering(op) {
        if n == 1 && cols > 1 {
            let (severity, detail, suggestion) = if matches!(op, Op::Depthwise { .. }) {
                (
                    Severity::Warning,
                    "the im2col depthwise lowering is legal but degenerate: every \
                     channel is an M×K²·K²×1 GEMM, so exactly one array column is \
                     busy (Fig. 1(d))",
                    "replace the depthwise filter with FuSe row/column banks \
                     (Network::transform_all), whose row-broadcast mapping fills \
                     every row",
                )
            } else {
                (
                    Severity::Warning,
                    "the operator lowers to a single-column GEMM: one array column \
                     is ever busy",
                    "widen the output dimension or batch several such operators \
                     side by side",
                )
            };
            out.push(Diagnostic {
                rule: RuleId::Utl001SingleColumnGemm,
                severity,
                context: context.to_string(),
                message: format!(
                    "`{op}`: {detail}; utilization statically bounded by 1/{cols} \
                     ≈ {:.4}",
                    1.0 / cols as f64
                ),
                dependence: None,
                suggestion: suggestion.into(),
            });
        }
        if m == 1 && rows > 1 {
            out.push(Diagnostic {
                rule: RuleId::Utl002SingleRowGemm,
                severity: Severity::Info,
                context: context.to_string(),
                message: format!(
                    "`{op}` lowers to a single-row GEMM; utilization statically \
                     bounded by 1/{rows} ≈ {:.4}",
                    1.0 / rows as f64
                ),
                dependence: None,
                suggestion: "batch inferences to fill the array rows".into(),
            });
        }
    }

    // Stall attribution: price cycle-accounted counters analytically from
    // the fold plan, run by run, and flag compute-stall-dominated
    // operators. This is the dynamic counterpart of UTL001/UTL002 — it
    // measures how idle the compute phase actually is rather than bounding
    // it by shape alone.
    if let Some(plan) = plan {
        let counters = fuseconv_perf::StallTotals::of_plan(plan, rows, cols);
        let stall = counters.fraction();
        if stall >= COMPUTE_STALL_THRESHOLD {
            out.push(Diagnostic {
                rule: RuleId::Utl003ComputeStallDominated,
                severity: Severity::Info,
                context: context.to_string(),
                message: format!(
                    "`{op}` is compute-stall dominated: {:.1}% of compute-phase PE \
                     slots are idle ({} of {} PE-cycles busy)",
                    stall * 100.0,
                    counters.busy_pe_cycles,
                    counters.compute_pe_cycles,
                ),
                dependence: None,
                suggestion: "inspect `fuseconv perf` for the fill/active/bubble/drain \
                             split and remap the operator to fill the array"
                    .into(),
            });
        }
    }
    out
}

/// Audits a whole network: the legality of every dataflow mapping its
/// operators use, the per-operator resource and utilization rules, the
/// fold-plan coverage and memory-feasibility rules of every operator's
/// plan (under [`MemoryBudget::paper_default`]), and the topology's shape
/// flow.
pub fn analyze_network(model: &LatencyModel, net: &Network) -> Report {
    analyze_network_with_budget(model, net, &MemoryBudget::paper_default())
}

/// [`analyze_network`] with a caller-chosen memory budget for the `MEM`
/// rules.
pub fn analyze_network_with_budget(
    model: &LatencyModel,
    net: &Network,
    budget: &MemoryBudget,
) -> Report {
    let _span = fuseconv_telemetry::span("analyze.network");
    let mut report = Report::new();

    // Mapping legality, once per dataflow the network actually uses.
    let mut kinds = vec![model.dataflow().fold_kind()];
    if net.ops().iter().any(|n| matches!(n.op, Op::FuSe1d { .. })) {
        kinds.push(FoldKind::RowBroadcast);
    }
    for kind in kinds {
        for d in analyze_mapping(&canonical_mapping(kind), model.array()) {
            report.push(d);
        }
    }

    // Operator rules. Each operator is planned once, as runs: UTL003 and
    // the plan coverage and memory audits price the runs, the fusion rules
    // below read its summary.
    let label = format!("{}[{}]", net.name(), net.variant_label());
    let blocks = crate::fusion::plan_blocks(model, net, |block, op, plan| {
        let context = format!("{label}/{block}/{op}");
        for d in op_findings(model, op, plan, &context) {
            report.push(d);
        }
        if let Some(plan) = plan {
            for d in crate::plan::diagnose_plan(model, op, plan, &context) {
                report.push(d);
            }
            for d in crate::memory::diagnose_memory(op, plan, budget, &context) {
                report.push(d);
            }
        }
    });

    // Fusion legality of each producer/consumer pair of plans.
    for d in crate::fusion::diagnose_fusion(model, net, budget, &blocks) {
        report.push(d);
    }

    // Topology shape flow.
    for d in crate::shapes::analyze_shapes(net) {
        report.push(d);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_nn::ops::Axis1d;
    use fuseconv_nn::FuSeVariant;
    use fuseconv_systolic::ArrayConfig;

    fn model() -> LatencyModel {
        LatencyModel::new(ArrayConfig::square(64).unwrap().with_broadcast(true))
    }

    #[test]
    fn depthwise_is_flagged_with_utilization_bound() {
        let op = Op::depthwise(56, 56, 64, 3, 1, 1);
        let diags = analyze_op(&model(), &op, "test");
        let utl: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == RuleId::Utl001SingleColumnGemm)
            .collect();
        assert_eq!(utl.len(), 1);
        assert_eq!(utl[0].severity, Severity::Warning);
        assert!(utl[0].message.contains("1/64"), "{}", utl[0].message);
        assert!(diags.iter().all(|d| d.severity != Severity::Error));
    }

    #[test]
    fn fuse_passes_clean() {
        let op = Op::fuse1d(56, 56, 32, 3, 1, 1, Axis1d::Row);
        let diags = analyze_op(&model(), &op, "test");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn fc_is_single_row_info() {
        let op = Op::fc(1024, 1000);
        let diags = analyze_op(&model(), &op, "test");
        let utl: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == RuleId::Utl002SingleRowGemm)
            .collect();
        assert_eq!(utl.len(), 1);
        assert_eq!(utl[0].severity, Severity::Info);
        // A single-row GEMM is also compute-stall dominated: one row of a
        // 64×64 array leaves > 98% of compute-phase PE slots idle.
        assert!(
            diags
                .iter()
                .any(|d| d.rule == RuleId::Utl003ComputeStallDominated
                    && d.severity == Severity::Info)
        );
    }

    #[test]
    fn depthwise_is_compute_stall_dominated_but_fuse_is_not() {
        let dw = Op::depthwise(56, 56, 64, 3, 1, 1);
        let diags = analyze_op(&model(), &dw, "test");
        let stall: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == RuleId::Utl003ComputeStallDominated)
            .collect();
        assert_eq!(stall.len(), 1);
        assert_eq!(stall[0].severity, Severity::Info);
        assert!(
            stall[0].message.contains("compute-stall dominated"),
            "{}",
            stall[0].message
        );

        let fuse = Op::fuse1d(56, 56, 32, 3, 1, 1, Axis1d::Row);
        let diags = analyze_op(&model(), &fuse, "test");
        assert!(diags
            .iter()
            .all(|d| d.rule != RuleId::Utl003ComputeStallDominated));
    }

    #[test]
    fn pathological_depthwise_is_utl003_without_expanding_its_plan() {
        // 100 000 channels of 196 single-column folds at 16×16: 19.6 M
        // folds, priced as one run.
        let m = LatencyModel::new(ArrayConfig::square(16).unwrap().with_broadcast(true));
        let op = Op::depthwise(56, 56, 100_000, 3, 1, 1);
        let plan = m.fold_runs(&op).unwrap();
        assert_eq!(plan.len(), 19_600_000);
        assert_eq!(plan.runs().count(), 1);
        let diags = analyze_op(&m, &op, "test");
        assert!(
            diags
                .iter()
                .any(|d| d.rule == RuleId::Utl003ComputeStallDominated),
            "{diags:?}"
        );
    }

    #[test]
    fn fuse_without_broadcast_is_loc002_error() {
        let plain = LatencyModel::new(ArrayConfig::square(64).unwrap());
        let op = Op::fuse1d(56, 56, 32, 3, 1, 1, Axis1d::Row);
        let diags = analyze_op(&plain, &op, "test");
        assert!(diags.iter().any(
            |d| d.rule == RuleId::Loc002BroadcastLinkRequired && d.severity == Severity::Error
        ));
    }

    #[test]
    fn huge_op_is_res001_error() {
        let big = 3_000_000_000usize;
        let op = Op::pointwise(big, big, 4_000_000_000, 4_000_000_000);
        let diags = analyze_op(&model(), &op, "test");
        assert!(diags
            .iter()
            .any(|d| d.rule == RuleId::Res001CycleArithmeticOverflow
                && d.severity == Severity::Error));
    }

    #[test]
    fn oversized_footprint_is_res003_warning() {
        let op = Op::pointwise(70_000, 70_000, 1024, 1024);
        let diags = analyze_op(&model(), &op, "test");
        assert!(diags.iter().any(
            |d| d.rule == RuleId::Res003SramAddressOverflow && d.severity == Severity::Warning
        ));
    }

    #[test]
    fn network_audit_flags_depthwise_but_not_fuse() {
        let net = fuseconv_models::zoo::mobilenet_v1();
        let report = analyze_network(&model(), &net);
        assert!(!report.has_errors(), "{}", report.to_text());
        assert!(!report.with_rule(RuleId::Utl001SingleColumnGemm).is_empty());

        let fused = net.transform_all(FuSeVariant::Full);
        let report = analyze_network(&model(), &fused);
        assert!(!report.has_errors(), "{}", report.to_text());
        assert!(report.with_rule(RuleId::Utl001SingleColumnGemm).is_empty());
    }
}
