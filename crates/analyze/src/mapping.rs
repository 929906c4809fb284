//! Mapping-level analysis: RIA well-formedness, schedule legality and
//! locality of each simulator dataflow, reported as diagnostics.
//!
//! The underlying verification lives in [`fuseconv_systolic::legality`],
//! next to the simulators; this module converts its violations into the
//! structured [`Diagnostic`]s of the report format, and analyzes
//! arbitrary — possibly tampered — [`DataflowMapping`]s, which is how the
//! mutation-grid tests prove each rule actually fires.

use crate::diagnostics::{Diagnostic, Report, RuleId, Severity};
use fuseconv_ria::RiaViolation;
use fuseconv_systolic::legality::{
    canonical_mapping, verify_mapping, DataflowMapping, LegalityViolation,
};
use fuseconv_systolic::ArrayConfig;
use fuseconv_trace::FoldKind;

/// Analyzes one space–time mapping on one array, returning every finding.
///
/// A clean mapping yields an empty vector. Findings map one-to-one onto
/// the legality violations: RIA001–003 for non-RIA systems, SCH001 for
/// schedule violations, LOC001/LOC002 for locality violations.
pub fn analyze_mapping(mapping: &DataflowMapping, cfg: &ArrayConfig) -> Vec<Diagnostic> {
    let context = mapping.kind.name().to_string();
    let Err(violations) = verify_mapping(mapping, cfg) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for v in violations {
        match v {
            LegalityViolation::NotRegular { violations } => {
                for ria in violations {
                    out.push(ria_diagnostic(&context, &ria));
                }
            }
            LegalityViolation::ScheduleViolatesDependence {
                dependence,
                tau,
                product,
            } => out.push(Diagnostic {
                rule: RuleId::Sch001ScheduleViolatesDependence,
                severity: Severity::Error,
                context: context.clone(),
                message: format!(
                    "schedule tau = {tau:?} executes dependence {dependence:?} at \
                     tau.d = {product} < 1: the consumer would not run strictly \
                     after its producer"
                ),
                dependence: Some(dependence),
                suggestion: "choose a linear schedule with tau.d >= 1 for every \
                             dependence (fuseconv_ria::schedule::find_schedule \
                             searches one)"
                    .into(),
            }),
            LegalityViolation::NonLocalProjection {
                dependence,
                projected,
            } => out.push(Diagnostic {
                rule: RuleId::Loc001NonLocalProjection,
                severity: Severity::Error,
                context: context.clone(),
                message: format!(
                    "dependence {dependence:?} projects to {projected:?} on the \
                     array: data would have to hop more than one PE per cycle"
                ),
                dependence: Some(dependence),
                suggestion: "restrict offsets on space axes to ±1, or serve the \
                             dependence over a broadcast link"
                    .into(),
            }),
            LegalityViolation::BroadcastLinkMissing { var, dependence } => out.push(Diagnostic {
                rule: RuleId::Loc002BroadcastLinkRequired,
                severity: Severity::Error,
                context: context.clone(),
                message: format!(
                    "variable {var}'s reuse (dependence {dependence:?}) rides the \
                     per-row weight-broadcast link, which this array lacks"
                ),
                dependence: Some(dependence),
                suggestion: "configure the array with ArrayConfig::with_broadcast(true) \
                             (§IV-C-1's added links)"
                    .into(),
            }),
            // `LegalityViolation` is non_exhaustive: surface future
            // variants rather than dropping them.
            other => out.push(Diagnostic {
                rule: RuleId::Sch001ScheduleViolatesDependence,
                severity: Severity::Error,
                context: context.clone(),
                message: format!("unrecognized legality violation: {other}"),
                dependence: None,
                suggestion: String::new(),
            }),
        }
    }
    out
}

fn ria_diagnostic(context: &str, v: &RiaViolation) -> Diagnostic {
    let (rule, message, suggestion) = match v {
        RiaViolation::MultipleAssignment { var } => (
            RuleId::Ria001MultipleAssignment,
            format!("variable {var} is assigned by more than one recurrence"),
            "rewrite with one defining recurrence per variable (single assignment)".to_string(),
        ),
        RiaViolation::NonConstantOffset { lhs, term } => (
            RuleId::Ria002NonConstantOffset,
            format!("recurrence for {lhs}: term {term} has a non-constant index offset"),
            "re-express the access with constant offsets, e.g. via im2col or the \
             FuSe 1-D decomposition (§III-A)"
                .to_string(),
        ),
        RiaViolation::RankMismatch {
            lhs,
            term,
            expected,
            actual,
        } => (
            RuleId::Ria003RankMismatch,
            format!("recurrence for {lhs}: term {term} has rank {actual}, expected {expected}"),
            "index every term with the full iteration vector".to_string(),
        ),
        other => (
            RuleId::Ria002NonConstantOffset,
            format!("unrecognized RIA violation: {other}"),
            String::new(),
        ),
    };
    Diagnostic {
        rule,
        severity: Severity::Error,
        context: context.to_string(),
        message,
        dependence: None,
        suggestion,
    }
}

/// Analyzes the canonical mapping of every simulator dataflow on `cfg`.
///
/// With broadcast links present this report is empty for the shipped
/// dataflows; without them it carries one LOC002 error for the
/// row-broadcast dataflow.
pub fn analyze_dataflows(cfg: &ArrayConfig) -> Report {
    let mut report = Report::new();
    for kind in FoldKind::ALL {
        for d in analyze_mapping(&canonical_mapping(kind), cfg) {
            report.push(d);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_ria::Schedule;

    fn bcast() -> ArrayConfig {
        ArrayConfig::square(8).unwrap().with_broadcast(true)
    }

    #[test]
    fn shipped_dataflows_are_clean_with_broadcast() {
        let report = analyze_dataflows(&bcast());
        assert!(report.diagnostics.is_empty(), "{}", report.to_text());
    }

    #[test]
    fn missing_broadcast_is_loc002() {
        let report = analyze_dataflows(&ArrayConfig::square(8).unwrap());
        assert!(!report.has_errors() || report.error_count() == 1);
        let loc = report.with_rule(RuleId::Loc002BroadcastLinkRequired);
        assert_eq!(loc.len(), 1);
        assert!(loc[0].message.contains('W'));
    }

    #[test]
    fn tampered_schedule_yields_sch001_with_dependence() {
        let mapping = canonical_mapping(FoldKind::OutputStationary)
            .with_schedule(Schedule::new(vec![1, 1, -1]));
        let diags = analyze_mapping(&mapping, &bcast());
        let sch: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == RuleId::Sch001ScheduleViolatesDependence)
            .collect();
        assert!(!sch.is_empty());
        assert_eq!(sch[0].dependence, Some(vec![0, 0, 1]));
        assert_eq!(sch[0].severity, Severity::Error);
    }
}
