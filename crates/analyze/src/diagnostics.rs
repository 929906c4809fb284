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

/// Stable identifier of one analyzer rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum RuleId {
    /// A variable is assigned by more than one recurrence (§II's single
    /// assignment condition).
    Ria001MultipleAssignment,
    /// A term's index offset is not a constant vector (§II's constant
    /// offset condition — the direct-convolution pathology of §III-A).
    Ria002NonConstantOffset,
    /// A term's index rank disagrees with its recurrence's iteration rank.
    Ria003RankMismatch,
    /// The linear schedule violates a dependence: `τ·d < 1`.
    Sch001ScheduleViolatesDependence,
    /// A dependence's space projection spans more than one PE hop.
    Loc001NonLocalProjection,
    /// A dependence needs the per-row weight-broadcast link (§IV-C-1) and
    /// the array does not provide it.
    Loc002BroadcastLinkRequired,
    /// The operator's cycle accounting overflows `u64`.
    Res001CycleArithmeticOverflow,
    /// The operator has zero-sized (degenerate) dimensions.
    Res002DegenerateOp,
    /// An operand footprint exceeds the 32-bit SRAM element address space
    /// assumed by the trace sinks.
    Res003SramAddressOverflow,
    /// The operator lowers to a single-column GEMM: at most one array
    /// column is ever busy, bounding utilization by `1/W` (§III-B,
    /// Fig. 1(d)).
    Utl001SingleColumnGemm,
    /// The operator lowers to a single-row GEMM: at most one array row is
    /// ever busy, bounding utilization by `1/H`.
    Utl002SingleRowGemm,
    /// The operator's fold plan is compute-stall dominated: the cycle-
    /// accounted counters predict ≥ 90% of compute-phase PE slots idle.
    Utl003ComputeStallDominated,
    /// The fold plan leaves part of the output iteration space uncovered:
    /// some output elements are computed by no fold.
    Plan001CoverageGap,
    /// The fold plan computes part of the output iteration space more than
    /// once (double-compute between folds).
    Plan002Overlap,
    /// A fold's tile occupancy exceeds the physical array dimensions.
    Plan003OversizedTile,
    /// The plan's summed per-fold MACs disagree with the operator's
    /// iteration-space MAC total.
    Plan004MacsMismatch,
    /// A single fold's operand working set exceeds an SRAM buffer even
    /// single-buffered — the fold cannot be resident at all.
    Mem001FoldExceedsSram,
    /// A fold's double-buffered working set (2x, overlapping next-fold
    /// prefetch) exceeds an SRAM buffer: fills serialize against compute.
    Mem002DoubleBufferExceedsSram,
    /// A fold needs more DRAM bandwidth than its compute window covers:
    /// the fold is bandwidth-bound at the modeled array size.
    Mem003BandwidthInfeasible,
    /// Consecutive blocks in a topology disagree on the tensor shape
    /// flowing between them.
    Shp001ShapeMismatch,
    /// A FuSe substitution changes the output shape of the depthwise block
    /// it replaces.
    Shp002SubstitutionShapeChange,
    /// Offered load ρ = Σ rateᵢ·E\[costᵢ\] / pod capacity ≥ 1: the open-loop
    /// arrival process outruns the pod and the queue diverges.
    Srv001PodOverload,
    /// A network's zero-queueing latency floor on its cheapest array
    /// already exceeds the configured absolute SLO budget.
    Srv002SloUnattainable,
    /// A network in the mix has no provisioned shape bucket under
    /// bucketed batching: every one of its requests is rejected at
    /// admission.
    Srv003BucketUncovered,
    /// The LPT shard plan is illegal: shares fail to partition the op
    /// list, disagree with recomputed per-array sums, or an op's fold
    /// plan fails the PLAN audit on its target array.
    Srv004ShardPlanIllegal,
    /// The bounded admission queue is statically guaranteed to drop:
    /// expected arrivals during one worst-case service window exceed
    /// the configured capacity even at ρ < 1.
    Srv005QueueUndersized,
    /// Preemption is configured but statically dead (zero high-priority
    /// traffic) or perverse (refill penalty provably exceeds the best
    /// possible latency cut).
    Srv006PreemptionDeadOrPerverse,
    /// An array is never the cheapest choice for any network under
    /// whole-request dispatch: predicted utilization 0 until every
    /// cheaper array saturates.
    Srv007StaticallyDeadArray,
    /// A producer/consumer op pair is statically fusible: a dependence
    /// edge connects their fold plans, the intermediate tile fits on-array
    /// residency, and keeping it there saves the reported SRAM bytes.
    Fus001FusiblePair,
    /// An intermediate tile exceeds the array's accumulator residency
    /// (rows × cols elements): on-array forwarding is impossible.
    Fus002ResidencyExceeded,
    /// The lifted fold-plan dependence graph contains a cycle: no legal
    /// schedule, fused or not, exists.
    Fus003DependenceCycle,
    /// The consumer's dataflow preloads its inputs during fill, so a
    /// producer cannot forward results to it on-array.
    Fus004DataflowMismatch,
    /// An op's output is consumed by no later op in its block: the folds
    /// computing it are dead work.
    Fus005DeadValue,
    /// Per-network fusion headroom: layers ranked by the SRAM round-trip
    /// traffic fusion would avoid.
    Fus006FusionHeadroom,
}

impl RuleId {
    /// Number of rules the analyzer ships. Tied to [`Self::ALL`]'s
    /// length and to the exhaustive match in [`Self::ordinal`], so a
    /// new `RuleId` variant fails to compile until it is registered in
    /// both places — catalogue registration cannot be forgotten.
    pub const COUNT: usize = 34;

    /// Every rule the analyzer ships, in catalogue order. Pinned by the
    /// `tests/golden/analyze_schema.json` regression test: extending the
    /// list is additive, renaming or removing an entry is a breaking
    /// change to the machine-readable report surface.
    pub const ALL: [RuleId; RuleId::COUNT] = [
        RuleId::Ria001MultipleAssignment,
        RuleId::Ria002NonConstantOffset,
        RuleId::Ria003RankMismatch,
        RuleId::Sch001ScheduleViolatesDependence,
        RuleId::Loc001NonLocalProjection,
        RuleId::Loc002BroadcastLinkRequired,
        RuleId::Res001CycleArithmeticOverflow,
        RuleId::Res002DegenerateOp,
        RuleId::Res003SramAddressOverflow,
        RuleId::Utl001SingleColumnGemm,
        RuleId::Utl002SingleRowGemm,
        RuleId::Utl003ComputeStallDominated,
        RuleId::Plan001CoverageGap,
        RuleId::Plan002Overlap,
        RuleId::Plan003OversizedTile,
        RuleId::Plan004MacsMismatch,
        RuleId::Mem001FoldExceedsSram,
        RuleId::Mem002DoubleBufferExceedsSram,
        RuleId::Mem003BandwidthInfeasible,
        RuleId::Shp001ShapeMismatch,
        RuleId::Shp002SubstitutionShapeChange,
        RuleId::Srv001PodOverload,
        RuleId::Srv002SloUnattainable,
        RuleId::Srv003BucketUncovered,
        RuleId::Srv004ShardPlanIllegal,
        RuleId::Srv005QueueUndersized,
        RuleId::Srv006PreemptionDeadOrPerverse,
        RuleId::Srv007StaticallyDeadArray,
        RuleId::Fus001FusiblePair,
        RuleId::Fus002ResidencyExceeded,
        RuleId::Fus003DependenceCycle,
        RuleId::Fus004DataflowMismatch,
        RuleId::Fus005DeadValue,
        RuleId::Fus006FusionHeadroom,
    ];

    /// The rule's position in [`Self::ALL`]. The match is exhaustive on
    /// purpose: adding a variant without extending it (and bumping
    /// [`Self::COUNT`], which sizes `ALL`) is a compile error, and the
    /// `all_is_exhaustive_and_ordered` test pins `ALL[ordinal] == self`
    /// so the two registrations cannot drift apart.
    pub fn ordinal(self) -> usize {
        match self {
            RuleId::Ria001MultipleAssignment => 0,
            RuleId::Ria002NonConstantOffset => 1,
            RuleId::Ria003RankMismatch => 2,
            RuleId::Sch001ScheduleViolatesDependence => 3,
            RuleId::Loc001NonLocalProjection => 4,
            RuleId::Loc002BroadcastLinkRequired => 5,
            RuleId::Res001CycleArithmeticOverflow => 6,
            RuleId::Res002DegenerateOp => 7,
            RuleId::Res003SramAddressOverflow => 8,
            RuleId::Utl001SingleColumnGemm => 9,
            RuleId::Utl002SingleRowGemm => 10,
            RuleId::Utl003ComputeStallDominated => 11,
            RuleId::Plan001CoverageGap => 12,
            RuleId::Plan002Overlap => 13,
            RuleId::Plan003OversizedTile => 14,
            RuleId::Plan004MacsMismatch => 15,
            RuleId::Mem001FoldExceedsSram => 16,
            RuleId::Mem002DoubleBufferExceedsSram => 17,
            RuleId::Mem003BandwidthInfeasible => 18,
            RuleId::Shp001ShapeMismatch => 19,
            RuleId::Shp002SubstitutionShapeChange => 20,
            RuleId::Srv001PodOverload => 21,
            RuleId::Srv002SloUnattainable => 22,
            RuleId::Srv003BucketUncovered => 23,
            RuleId::Srv004ShardPlanIllegal => 24,
            RuleId::Srv005QueueUndersized => 25,
            RuleId::Srv006PreemptionDeadOrPerverse => 26,
            RuleId::Srv007StaticallyDeadArray => 27,
            RuleId::Fus001FusiblePair => 28,
            RuleId::Fus002ResidencyExceeded => 29,
            RuleId::Fus003DependenceCycle => 30,
            RuleId::Fus004DataflowMismatch => 31,
            RuleId::Fus005DeadValue => 32,
            RuleId::Fus006FusionHeadroom => 33,
        }
    }

    /// The rule's stable short code (e.g. `"SCH001"`).
    pub fn code(&self) -> &'static str {
        match self {
            RuleId::Ria001MultipleAssignment => "RIA001",
            RuleId::Ria002NonConstantOffset => "RIA002",
            RuleId::Ria003RankMismatch => "RIA003",
            RuleId::Sch001ScheduleViolatesDependence => "SCH001",
            RuleId::Loc001NonLocalProjection => "LOC001",
            RuleId::Loc002BroadcastLinkRequired => "LOC002",
            RuleId::Res001CycleArithmeticOverflow => "RES001",
            RuleId::Res002DegenerateOp => "RES002",
            RuleId::Res003SramAddressOverflow => "RES003",
            RuleId::Utl001SingleColumnGemm => "UTL001",
            RuleId::Utl002SingleRowGemm => "UTL002",
            RuleId::Utl003ComputeStallDominated => "UTL003",
            RuleId::Plan001CoverageGap => "PLAN001",
            RuleId::Plan002Overlap => "PLAN002",
            RuleId::Plan003OversizedTile => "PLAN003",
            RuleId::Plan004MacsMismatch => "PLAN004",
            RuleId::Mem001FoldExceedsSram => "MEM001",
            RuleId::Mem002DoubleBufferExceedsSram => "MEM002",
            RuleId::Mem003BandwidthInfeasible => "MEM003",
            RuleId::Shp001ShapeMismatch => "SHP001",
            RuleId::Shp002SubstitutionShapeChange => "SHP002",
            RuleId::Srv001PodOverload => "SRV001",
            RuleId::Srv002SloUnattainable => "SRV002",
            RuleId::Srv003BucketUncovered => "SRV003",
            RuleId::Srv004ShardPlanIllegal => "SRV004",
            RuleId::Srv005QueueUndersized => "SRV005",
            RuleId::Srv006PreemptionDeadOrPerverse => "SRV006",
            RuleId::Srv007StaticallyDeadArray => "SRV007",
            RuleId::Fus001FusiblePair => "FUS001",
            RuleId::Fus002ResidencyExceeded => "FUS002",
            RuleId::Fus003DependenceCycle => "FUS003",
            RuleId::Fus004DataflowMismatch => "FUS004",
            RuleId::Fus005DeadValue => "FUS005",
            RuleId::Fus006FusionHeadroom => "FUS006",
        }
    }

    /// One-line description of what the rule checks.
    pub fn description(&self) -> &'static str {
        match self {
            RuleId::Ria001MultipleAssignment => {
                "single assignment: each variable defined by exactly one recurrence"
            }
            RuleId::Ria002NonConstantOffset => {
                "regular iterative algorithm: every index offset is constant"
            }
            RuleId::Ria003RankMismatch => {
                "every term indexes the full iteration vector of its recurrence"
            }
            RuleId::Sch001ScheduleViolatesDependence => {
                "schedule legality: tau . d >= 1 for every dependence vector d"
            }
            RuleId::Loc001NonLocalProjection => {
                "locality: space-projected dependences reach nearest-neighbour PEs only"
            }
            RuleId::Loc002BroadcastLinkRequired => {
                "broadcast-served dependences need the per-row weight-broadcast link"
            }
            RuleId::Res001CycleArithmeticOverflow => {
                "cycle accounting must fit u64 (checked arithmetic)"
            }
            RuleId::Res002DegenerateOp => "operators must have nonzero dimensions",
            RuleId::Res003SramAddressOverflow => {
                "operand footprints must fit the 32-bit SRAM element address space"
            }
            RuleId::Utl001SingleColumnGemm => {
                "single-column GEMM lowering bounds array utilization by 1/W"
            }
            RuleId::Utl002SingleRowGemm => {
                "single-row GEMM lowering bounds array utilization by 1/H"
            }
            RuleId::Utl003ComputeStallDominated => {
                "fold plan predicts >= 90% of compute-phase PE slots idle"
            }
            RuleId::Plan001CoverageGap => {
                "fold plans must cover every output element at least once"
            }
            RuleId::Plan002Overlap => "fold plans must compute every output element at most once",
            RuleId::Plan003OversizedTile => {
                "per-fold tile occupancy must fit the physical array dims"
            }
            RuleId::Plan004MacsMismatch => {
                "per-fold MACs must sum to the operator's iteration-space total"
            }
            RuleId::Mem001FoldExceedsSram => {
                "each fold's single-buffered operand set must fit its SRAM buffer"
            }
            RuleId::Mem002DoubleBufferExceedsSram => {
                "each fold's double-buffered operand set should fit its SRAM buffer"
            }
            RuleId::Mem003BandwidthInfeasible => {
                "each fold's DRAM transfer should fit inside its compute window"
            }
            RuleId::Shp001ShapeMismatch => {
                "consecutive blocks must agree on the tensor shape between them"
            }
            RuleId::Shp002SubstitutionShapeChange => {
                "FuSe substitution must preserve the replaced block's output shape"
            }
            RuleId::Srv001PodOverload => {
                "offered load must stay below aggregate pod capacity (rho < 1)"
            }
            RuleId::Srv002SloUnattainable => {
                "each network's zero-queueing floor must fit its SLO budget"
            }
            RuleId::Srv003BucketUncovered => {
                "every workload network needs a provisioned shape bucket"
            }
            RuleId::Srv004ShardPlanIllegal => {
                "LPT shares must partition the op list with every share feasible"
            }
            RuleId::Srv005QueueUndersized => {
                "the admission queue must absorb the configured burst at rho < 1"
            }
            RuleId::Srv006PreemptionDeadOrPerverse => {
                "preemption needs live high-priority traffic and a worthwhile refill"
            }
            RuleId::Srv007StaticallyDeadArray => {
                "every array should be cheapest for some network under whole dispatch"
            }
            RuleId::Fus001FusiblePair => {
                "producer/consumer pair fusible: intermediate fits on-array residency"
            }
            RuleId::Fus002ResidencyExceeded => {
                "intermediate tile must fit rows x cols on-array elements to fuse"
            }
            RuleId::Fus003DependenceCycle => {
                "the fold dependence graph must be acyclic to schedule at all"
            }
            RuleId::Fus004DataflowMismatch => {
                "fusion needs a consumer dataflow that streams inputs during compute"
            }
            RuleId::Fus005DeadValue => "every op output should be consumed by a later op",
            RuleId::Fus006FusionHeadroom => {
                "per-network ranking of layers by avoidable SRAM round-trip traffic"
            }
        }
    }
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
        // `ordinal`'s match is exhaustive over RuleId and `ALL`'s length
        // is `COUNT`; here the two registrations are pinned against each
        // other, so a variant cannot appear in one without the other.
        assert_eq!(RuleId::ALL.len(), RuleId::COUNT);
        for (i, rule) in RuleId::ALL.iter().enumerate() {
            assert_eq!(
                rule.ordinal(),
                i,
                "{} is out of catalogue order in RuleId::ALL",
                rule.code()
            );
        }
        // Codes are unique — a copy-paste duplicate in ALL would shadow
        // a missing variant.
        let mut codes: Vec<&str> = RuleId::ALL.iter().map(RuleId::code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), RuleId::COUNT);
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
