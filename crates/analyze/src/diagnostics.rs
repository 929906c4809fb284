//! Structured diagnostics: rule identifiers, severities and reports.
//!
//! Every check the analyzer runs is identified by a stable [`RuleId`] so
//! CI, tests and humans can match on findings without parsing prose. A
//! [`Diagnostic`] carries the rule, a severity, the offending dependence
//! vector when one exists, and a suggested fix; a [`Report`] aggregates
//! diagnostics and renders them as text or JSON (hand-rolled — the
//! workspace carries no serde).

use fuseconv_telemetry::{Json, RunManifest};
use std::fmt;

/// Declares the rule catalogue: each rule once, as doc comment, variant
/// and stable code. Generates [`RuleId`], [`RuleId::ALL`] and
/// [`RuleId::code`] from the one list, so no rule can be missing from
/// either.
macro_rules! rules {
    ($($(#[$doc:meta])* $rule:ident => $code:literal,)*) => {
        /// Stable identifier of one analyzer rule.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[non_exhaustive]
        pub enum RuleId {
            $($(#[$doc])* $rule,)*
        }

        impl RuleId {
            /// Every rule the analyzer ships, in catalogue order. Pinned by
            /// the `tests/golden/analyze_schema.json` regression test:
            /// extending the list is additive, renaming or removing an
            /// entry is a breaking change to the machine-readable report
            /// surface.
            pub const ALL: &'static [RuleId] = &[$(RuleId::$rule),*];

            /// The rule's stable short code (e.g. `"SCH001"`).
            pub fn code(&self) -> &'static str {
                match self {
                    $(RuleId::$rule => $code,)*
                }
            }
        }
    };
}

rules! {
    /// A variable is assigned by more than one recurrence (§II's single
    /// assignment condition).
    Ria001MultipleAssignment => "RIA001",
    /// A term's index offset is not a constant vector (§II's constant
    /// offset condition — the direct-convolution pathology of §III-A).
    Ria002NonConstantOffset => "RIA002",
    /// A term's index rank disagrees with its recurrence's iteration rank.
    Ria003RankMismatch => "RIA003",
    /// The linear schedule violates a dependence: `τ·d < 1`.
    Sch001ScheduleViolatesDependence => "SCH001",
    /// A dependence's space projection spans more than one PE hop.
    Loc001NonLocalProjection => "LOC001",
    /// A dependence needs the per-row weight-broadcast link (§IV-C-1) and
    /// the array does not provide it.
    Loc002BroadcastLinkRequired => "LOC002",
    /// The operator's cycle accounting overflows `u64`.
    Res001CycleArithmeticOverflow => "RES001",
    /// The operator has zero-sized (degenerate) dimensions.
    Res002DegenerateOp => "RES002",
    /// An operand footprint exceeds the 32-bit SRAM element address space
    /// assumed by the trace sinks.
    Res003SramAddressOverflow => "RES003",
    /// The operator lowers to a single-column GEMM: at most one array
    /// column is ever busy, bounding utilization by `1/W` (§III-B,
    /// Fig. 1(d)).
    Utl001SingleColumnGemm => "UTL001",
    /// The operator lowers to a single-row GEMM: at most one array row is
    /// ever busy, bounding utilization by `1/H`.
    Utl002SingleRowGemm => "UTL002",
    /// The operator's fold plan is compute-stall dominated: the cycle-
    /// accounted counters predict ≥ 90% of compute-phase PE slots idle.
    Utl003ComputeStallDominated => "UTL003",
    /// The fold plan leaves part of the output iteration space uncovered:
    /// some output elements are computed by no fold.
    Plan001CoverageGap => "PLAN001",
    /// The fold plan computes part of the output iteration space more than
    /// once (double-compute between folds).
    Plan002Overlap => "PLAN002",
    /// A fold's tile occupancy exceeds the physical array dimensions.
    Plan003OversizedTile => "PLAN003",
    /// The plan's summed per-fold MACs disagree with the operator's
    /// iteration-space MAC total.
    Plan004MacsMismatch => "PLAN004",
    /// A single fold's operand working set exceeds an SRAM buffer even
    /// single-buffered — the fold cannot be resident at all.
    Mem001FoldExceedsSram => "MEM001",
    /// A fold's double-buffered working set (2x, overlapping next-fold
    /// prefetch) exceeds an SRAM buffer: fills serialize against compute.
    Mem002DoubleBufferExceedsSram => "MEM002",
    /// A fold needs more DRAM bandwidth than its compute window covers:
    /// the fold is bandwidth-bound at the modeled array size.
    Mem003BandwidthInfeasible => "MEM003",
    /// Consecutive blocks in a topology disagree on the tensor shape
    /// flowing between them.
    Shp001ShapeMismatch => "SHP001",
    /// A FuSe substitution changes the output shape of the depthwise block
    /// it replaces.
    Shp002SubstitutionShapeChange => "SHP002",
    /// Offered load ρ = Σ rateᵢ·E\[costᵢ\] / pod capacity ≥ 1: the open-loop
    /// arrival process outruns the pod and the queue diverges.
    Srv001PodOverload => "SRV001",
    /// A network's zero-queueing latency floor on its cheapest array
    /// already exceeds the configured absolute SLO budget.
    Srv002SloUnattainable => "SRV002",
    /// A network in the mix has no provisioned shape bucket under
    /// bucketed batching: every one of its requests is rejected at
    /// admission.
    Srv003BucketUncovered => "SRV003",
    /// The LPT shard plan is illegal: shares fail to partition the op
    /// list, disagree with recomputed per-array sums, or an op's fold
    /// plan fails the PLAN audit on its target array.
    Srv004ShardPlanIllegal => "SRV004",
    /// The bounded admission queue is statically guaranteed to drop:
    /// expected arrivals during one worst-case service window exceed
    /// the configured capacity even at ρ < 1.
    Srv005QueueUndersized => "SRV005",
    /// Preemption is configured but statically dead (zero high-priority
    /// traffic) or perverse (refill penalty provably exceeds the best
    /// possible latency cut).
    Srv006PreemptionDeadOrPerverse => "SRV006",
    /// An array is never the cheapest choice for any network under
    /// whole-request dispatch: predicted utilization 0 until every
    /// cheaper array saturates.
    Srv007StaticallyDeadArray => "SRV007",
    /// A producer/consumer op pair is statically fusible: a dependence
    /// edge connects their fold plans, the intermediate tile fits on-array
    /// residency, and keeping it there saves the reported SRAM bytes.
    Fus001FusiblePair => "FUS001",
    /// An intermediate tile exceeds the array's accumulator residency
    /// (rows × cols elements): on-array forwarding is impossible.
    Fus002ResidencyExceeded => "FUS002",
    /// The lifted fold-plan dependence graph contains a cycle: no legal
    /// schedule, fused or not, exists.
    Fus003DependenceCycle => "FUS003",
    /// The consumer's dataflow preloads its inputs during fill, so a
    /// producer cannot forward results to it on-array.
    Fus004DataflowMismatch => "FUS004",
    /// An op's output is consumed by no later op in its block: the folds
    /// computing it are dead work.
    Fus005DeadValue => "FUS005",
    /// Per-network fusion headroom: layers ranked by the SRAM round-trip
    /// traffic fusion would avoid.
    Fus006FusionHeadroom => "FUS006",
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth knowing, nothing to fix.
    Info,
    /// Suspicious but legal — e.g. a mapping that runs correctly at `1/W`
    /// utilization.
    Warning,
    /// Illegal: the mapping or operator cannot run as described.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The violated (or triggered) rule.
    pub rule: RuleId,
    /// Finding severity.
    pub severity: Severity,
    /// What the analyzer is looking at (a dataflow name, or
    /// `network/block/op` for operator findings).
    pub context: String,
    /// Human-readable statement of the finding.
    pub message: String,
    /// The offending dependence vector, when the rule concerns one.
    pub dependence: Option<Vec<i64>>,
    /// Suggested fix.
    pub suggestion: String,
}

impl Diagnostic {
    /// Writes the diagnostic's members into an open JSON object.
    fn write_json(&self, j: &mut Json) {
        j.str("rule", self.rule.code())
            .str("severity", &self.severity.to_string())
            .str("context", &self.context)
            .str("message", &self.message);
        match &self.dependence {
            Some(d) => j.arr("dependence", |j| {
                for v in d {
                    j.raw("", v);
                }
            }),
            None => j.raw("dependence", "null"),
        };
        j.str("suggestion", &self.suggestion);
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.rule, self.context, self.message
        )?;
        if let Some(d) = &self.dependence {
            write!(f, " (dependence {d:?})")?;
        }
        if !self.suggestion.is_empty() {
            write!(f, " — fix: {}", self.suggestion)?;
        }
        Ok(())
    }
}

/// An ordered collection of diagnostics with rendering helpers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// The findings, in the order they were produced.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Appends every finding of another report.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Whether any finding has error severity.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Findings matching a rule.
    pub fn with_rule(&self, rule: RuleId) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.rule == rule).collect()
    }

    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Renders the report as human-readable text, one finding per line,
    /// with a trailing summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} finding(s) total\n",
            self.error_count(),
            self.warning_count(),
            self.diagnostics.len()
        ));
        out
    }

    /// Renders the report as one JSON document, with run provenance
    /// (`fuseconv-manifest-v1`) embedded under `"manifest"`.
    pub fn to_json(&self) -> String {
        let mut j = Json::compact();
        j.raw("errors", self.error_count())
            .raw("warnings", self.warning_count())
            .arr("diagnostics", |j| {
                for d in &self.diagnostics {
                    j.obj("", |j| d.write_json(j));
                }
            })
            .manifest(&RunManifest::capture());
        j.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            rule: RuleId::Sch001ScheduleViolatesDependence,
            severity: Severity::Error,
            context: "output-stationary GEMM".into(),
            message: "tau = [1, 1, -1] gives tau.d = -1".into(),
            dependence: Some(vec![0, 0, 1]),
            suggestion: "use a schedule with tau.d >= 1".into(),
        }
    }

    #[test]
    fn all_is_exhaustive_and_ordered() {
        // `ALL` and the enum come from one table, so every rule is in
        // `ALL`, in declaration order; here the codes are pinned unique,
        // so a copy-pasted code cannot shadow another rule's.
        assert!(RuleId::ALL.windows(2).all(|w| w[0] < w[1]));
        let mut codes: Vec<&str> = RuleId::ALL.iter().map(RuleId::code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), RuleId::ALL.len());
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(RuleId::Ria001MultipleAssignment.code(), "RIA001");
        assert_eq!(RuleId::Sch001ScheduleViolatesDependence.code(), "SCH001");
        assert_eq!(RuleId::Utl001SingleColumnGemm.code(), "UTL001");
        assert_eq!(RuleId::Plan001CoverageGap.code(), "PLAN001");
        assert_eq!(RuleId::Plan002Overlap.code(), "PLAN002");
        assert_eq!(RuleId::Plan003OversizedTile.code(), "PLAN003");
        assert_eq!(RuleId::Plan004MacsMismatch.code(), "PLAN004");
        assert_eq!(RuleId::Mem001FoldExceedsSram.code(), "MEM001");
        assert_eq!(RuleId::Mem002DoubleBufferExceedsSram.code(), "MEM002");
        assert_eq!(RuleId::Mem003BandwidthInfeasible.code(), "MEM003");
        assert_eq!(RuleId::Shp001ShapeMismatch.code(), "SHP001");
        assert_eq!(RuleId::Shp002SubstitutionShapeChange.code(), "SHP002");
        assert_eq!(RuleId::Srv001PodOverload.code(), "SRV001");
        assert_eq!(RuleId::Srv002SloUnattainable.code(), "SRV002");
        assert_eq!(RuleId::Srv003BucketUncovered.code(), "SRV003");
        assert_eq!(RuleId::Srv004ShardPlanIllegal.code(), "SRV004");
        assert_eq!(RuleId::Srv005QueueUndersized.code(), "SRV005");
        assert_eq!(RuleId::Srv006PreemptionDeadOrPerverse.code(), "SRV006");
        assert_eq!(RuleId::Srv007StaticallyDeadArray.code(), "SRV007");
        assert_eq!(RuleId::Fus001FusiblePair.code(), "FUS001");
        assert_eq!(RuleId::Fus002ResidencyExceeded.code(), "FUS002");
        assert_eq!(RuleId::Fus003DependenceCycle.code(), "FUS003");
        assert_eq!(RuleId::Fus004DataflowMismatch.code(), "FUS004");
        assert_eq!(RuleId::Fus005DeadValue.code(), "FUS005");
        assert_eq!(RuleId::Fus006FusionHeadroom.code(), "FUS006");
    }

    #[test]
    fn report_counts_by_severity() {
        let mut r = Report::new();
        r.push(sample());
        let mut warn = sample();
        warn.severity = Severity::Warning;
        warn.rule = RuleId::Utl001SingleColumnGemm;
        r.push(warn);
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has_errors());
        assert_eq!(r.with_rule(RuleId::Utl001SingleColumnGemm).len(), 1);
    }

    #[test]
    fn text_rendering_mentions_rule_and_fix() {
        let mut r = Report::new();
        r.push(sample());
        let text = r.to_text();
        assert!(text.contains("SCH001"), "{text}");
        assert!(text.contains("fix:"), "{text}");
        assert!(text.contains("1 error(s)"), "{text}");
    }

    #[test]
    fn json_is_well_formed() {
        let mut r = Report::new();
        r.push(sample());
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"rule\":\"SCH001\""), "{json}");
        assert!(json.contains("\"dependence\":[0,0,1]"), "{json}");
        // Balanced braces/brackets (a cheap well-formedness proxy given
        // the workspace has no JSON parser).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn json_escapes_quotes() {
        let mut d = sample();
        d.message = "say \"hi\"".into();
        let mut r = Report::new();
        r.push(d);
        assert!(r.to_json().contains("say \\\"hi\\\""));
    }

    #[test]
    fn severities_order() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }
}
