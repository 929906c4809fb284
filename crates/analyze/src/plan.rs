//! Fold-plan coverage rules (`PLAN001–PLAN004`).
//!
//! Wraps [`fuseconv_latency::audit_plan`]'s interval/partition analysis in
//! the diagnostic vocabulary: a plan that leaves a coverage gap, computes
//! output elements twice, claims a tile beyond the physical array, or
//! whose per-fold MACs do not sum to the operator's iteration-space total
//! is reported as an error-severity finding. An empty result is the
//! coverage proof: the folds partition the output iteration space exactly.

use crate::diagnostics::{Diagnostic, RuleId, Severity};
use fuseconv_latency::{audit_plan, AsFoldRuns, LatencyModel, PlanViolation};
use fuseconv_nn::ops::Op;
use std::fmt::Display;

/// Classifies one violation into its rule.
fn rule_of(v: &PlanViolation) -> (RuleId, String, &'static str) {
    match v {
        PlanViolation::Gap { .. } => (
            RuleId::Plan001CoverageGap,
            v.to_string(),
            "every output element must be owned by exactly one fold; regenerate \
             the plan from the tile partition",
        ),
        PlanViolation::Overlap { .. } => (
            RuleId::Plan002Overlap,
            v.to_string(),
            "remove the double-computed region from all but one fold",
        ),
        PlanViolation::OversizedTile { .. } => (
            RuleId::Plan003OversizedTile,
            v.to_string(),
            "clamp per-fold occupancy to the array dimensions",
        ),
        PlanViolation::MacsMismatch { .. } => (
            RuleId::Plan004MacsMismatch,
            v.to_string(),
            "recompute per-fold MACs as tile_rows x tile_cols x reduction",
        ),
        // `PlanViolation` is non_exhaustive; surface unknown kinds loudly
        // rather than dropping them.
        other => (
            RuleId::Plan004MacsMismatch,
            format!("unclassified plan violation: {other}"),
            "",
        ),
    }
}

/// Audits an already-computed fold plan of `op`, as runs or flat,
/// reporting at most one
/// diagnostic per `PLAN` rule (the first violation of each kind — plans
/// with thousands of folds would otherwise flood the report).
pub fn diagnose_plan(
    model: &LatencyModel,
    op: &Op,
    plan: &(impl AsFoldRuns + ?Sized),
    context: &(impl Display + ?Sized),
) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = Vec::new();
    for v in audit_plan(model, op, plan) {
        let (rule, message, suggestion) = rule_of(&v);
        if out.iter().any(|d| d.rule == rule) {
            continue;
        }
        out.push(Diagnostic {
            rule,
            severity: Severity::Error,
            context: context.to_string(),
            message: format!("`{op}`: {message}"),
            dependence: None,
            suggestion: suggestion.into(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_systolic::ArrayConfig;

    fn model() -> LatencyModel {
        LatencyModel::new(ArrayConfig::square(8).unwrap().with_broadcast(true))
    }

    fn probe() -> Op {
        Op::pointwise(7, 7, 12, 20)
    }

    #[test]
    fn shipped_plans_have_no_plan_findings() {
        let m = model();
        for op in [
            Op::conv2d(14, 14, 8, 24, 3, 1, 1),
            Op::depthwise(9, 9, 6, 3, 1, 1),
            probe(),
            Op::fuse1d(12, 12, 5, 3, 1, 1, fuseconv_nn::ops::Axis1d::Row),
            Op::fc(100, 37),
        ] {
            let plan = m.fold_runs(&op).unwrap();
            assert!(diagnose_plan(&m, &op, &plan, "test").is_empty(), "{op}");
        }
    }

    #[test]
    fn injected_gap_fires_plan001() {
        let m = model();
        let op = probe();
        let mut plan = m.fold_plan(&op).unwrap();
        plan.pop();
        let diags = diagnose_plan(&m, &op, &plan, "test");
        assert!(diags
            .iter()
            .any(|d| d.rule == RuleId::Plan001CoverageGap && d.severity == Severity::Error));
    }

    #[test]
    fn injected_overlap_fires_plan002() {
        let m = model();
        let op = probe();
        let mut plan = m.fold_plan(&op).unwrap();
        let dup = plan[0];
        plan.insert(0, dup);
        let diags = diagnose_plan(&m, &op, &plan, "test");
        assert!(diags
            .iter()
            .any(|d| d.rule == RuleId::Plan002Overlap && d.severity == Severity::Error));
    }

    #[test]
    fn oversized_tile_fires_plan003() {
        let m = model();
        let op = probe();
        let mut plan = m.fold_plan(&op).unwrap();
        plan[0].cols_used = 200;
        let diags = diagnose_plan(&m, &op, &plan, "test");
        assert!(diags
            .iter()
            .any(|d| d.rule == RuleId::Plan003OversizedTile && d.severity == Severity::Error));
    }

    #[test]
    fn mutated_macs_fires_plan004() {
        let m = model();
        let op = probe();
        let mut plan = m.fold_plan(&op).unwrap();
        plan[0].macs += 1;
        let diags = diagnose_plan(&m, &op, &plan, "test");
        assert!(diags
            .iter()
            .any(|d| d.rule == RuleId::Plan004MacsMismatch && d.severity == Severity::Error));
    }

    #[test]
    fn one_diagnostic_per_rule() {
        let m = model();
        let op = probe();
        let mut plan = m.fold_plan(&op).unwrap();
        plan.truncate(1); // many missing tiles → many Gap violations
        let diags = diagnose_plan(&m, &op, &plan, "test");
        let gaps = diags
            .iter()
            .filter(|d| d.rule == RuleId::Plan001CoverageGap)
            .count();
        assert_eq!(gaps, 1, "{diags:?}");
    }
}
