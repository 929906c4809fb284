//! Static dataflow-legality verification against the RIA formalism.
//!
//! The paper's §II–III argument is that an algorithm runs on a systolic
//! array only if (a) it is a Regular Iterative Algorithm and (b) a linear
//! schedule `τ` with `τ·d ≥ 1` for every dependence vector `d` exists.
//! This module closes the loop between that formalism (`fuseconv-ria`)
//! and the cycle simulators in this crate: every dataflow a simulator
//! implements is described as a [`DataflowMapping`] — the induced
//! [`RecurrenceSystem`], its linear schedule and its space–time axis
//! split — and [`verify_mapping`] statically checks, before a single
//! cycle runs:
//!
//! 1. **RIA well-formedness** — single assignment, constant index
//!    offsets, consistent ranks ([`RecurrenceSystem::check`]);
//! 2. **schedule legality** — `τ·d ≥ 1` for every dependence vector;
//! 3. **locality** — every dependence projected onto the space axes
//!    reaches at most a nearest-neighbour PE, unless the dependence is
//!    served by the paper's per-row weight-broadcast link (§IV-C-1), in
//!    which case the array must physically have that link.
//!
//! Dataflows are named by [`FoldKind`], the same type that labels the
//! folds the simulators trace.
//!
//! The verdict depends only on the dataflow kind and whether the array has
//! the broadcast link, so legality of the shipped mappings is a property of
//! constant code: it is proved once, by this module's tests, for every kind
//! on plain and broadcast arrays. The simulators do not re-check it. The
//! GEMM mappings are legal on every array, and the row-broadcast simulators
//! refuse a plain array with [`crate::ConfigError::BroadcastUnavailable`]
//! before they run. The `RIA`/`SCH`/`LOC` analyzer rules report the same
//! verdict on request.

use crate::ArrayConfig;
use fuseconv_ria::schedule::find_schedule;
use fuseconv_ria::{RecurrenceSystem, RiaViolation, Schedule};
use fuseconv_trace::FoldKind;
use std::fmt;

/// One dependence of a recurrence system, with its provenance: which
/// variable's read induced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependence {
    /// Variable defined by the recurrence the dependence belongs to.
    pub lhs: String,
    /// Variable read by the term that induced the dependence.
    pub var: String,
    /// The dependence vector (negated constant index offset).
    pub vector: Vec<i64>,
}

/// A simulator dataflow described as a space–time mapping of an RIA, the
/// §II–III formal object the static analyzer verifies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataflowMapping {
    /// Which simulator dataflow this mapping describes.
    pub kind: FoldKind,
    /// The recurrence system the dataflow executes.
    pub system: RecurrenceSystem,
    /// The linear schedule `τ`.
    pub schedule: Schedule,
    /// Iteration-space axes projected onto the physical array, in
    /// (array-row, array-column) order where both exist.
    pub space_axes: Vec<usize>,
    /// The iteration-space axis serialized onto time.
    pub time_axis: usize,
    /// Variables whose dependences ride a per-row broadcast link instead
    /// of nearest-neighbour wiring (the FuSe weight reuse of §IV-C-1).
    pub broadcast_vars: Vec<String>,
}

impl DataflowMapping {
    /// The dependence vectors of the mapping's recurrence system, with
    /// provenance. Terms whose offset is non-constant contribute nothing
    /// (they are reported by the RIA check instead); reads of *other*
    /// variables at the same iteration point are intra-cell forwarding
    /// and carry no schedule constraint, exactly as
    /// [`RecurrenceSystem::dependence_vectors`] treats them.
    pub fn dependences(&self) -> Vec<Dependence> {
        let mut deps = Vec::new();
        for rec in self.system.recurrences() {
            for term in &rec.terms {
                if let Some(offsets) = term.constant_offset() {
                    let vector: Vec<i64> = offsets.iter().map(|&c| -c).collect();
                    if vector.iter().any(|&d| d != 0) {
                        deps.push(Dependence {
                            lhs: rec.lhs.clone(),
                            var: term.var.clone(),
                            vector,
                        });
                    }
                }
            }
        }
        deps
    }

    /// Returns this mapping with the schedule replaced — the seam used by
    /// tests and the mutation grid to inject illegal schedules.
    #[must_use]
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }
}

/// Why a space–time mapping is illegal on a given array.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LegalityViolation {
    /// The recurrence system is not a Regular Iterative Algorithm.
    NotRegular {
        /// The RIA violations found.
        violations: Vec<RiaViolation>,
    },
    /// A dependence executes no later than its producer: `τ·d < 1`.
    ScheduleViolatesDependence {
        /// The offending dependence vector.
        dependence: Vec<i64>,
        /// The schedule coefficients.
        tau: Vec<i64>,
        /// The (non-positive) value of `τ·d`.
        product: i64,
    },
    /// A dependence, projected onto the space axes, spans more than one
    /// PE hop and is not served by a broadcast link.
    NonLocalProjection {
        /// The offending dependence vector (full iteration space).
        dependence: Vec<i64>,
        /// Its projection onto the space axes.
        projected: Vec<i64>,
    },
    /// A dependence requires the per-row weight-broadcast link, but the
    /// array configuration does not provide it.
    BroadcastLinkMissing {
        /// Variable whose reuse needs the link.
        var: String,
        /// The offending dependence vector.
        dependence: Vec<i64>,
    },
}

impl fmt::Display for LegalityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LegalityViolation::NotRegular { violations } => {
                write!(f, "not a regular iterative algorithm:")?;
                for v in violations {
                    write!(f, " {v};")?;
                }
                Ok(())
            }
            LegalityViolation::ScheduleViolatesDependence {
                dependence,
                tau,
                product,
            } => write!(
                f,
                "schedule τ = {tau:?} gives τ·d = {product} < 1 for dependence {dependence:?}"
            ),
            LegalityViolation::NonLocalProjection {
                dependence,
                projected,
            } => write!(
                f,
                "dependence {dependence:?} projects to {projected:?} on the array: \
                 not a nearest-neighbour hop"
            ),
            LegalityViolation::BroadcastLinkMissing { var, dependence } => write!(
                f,
                "dependence {dependence:?} of variable {var} needs the per-row \
                 weight-broadcast link, which this array lacks"
            ),
        }
    }
}

/// The canonical mapping each simulator implements, derived from the
/// paper's recurrence systems.
///
/// The schedule is *searched* (not hard-coded) with
/// [`find_schedule`], so this really is the induced
/// mapping: if a future edit to the recurrence constructors broke
/// schedulability, derivation would yield a schedule that
/// [`verify_mapping`] rejects, or none at all (encoded as the empty
/// schedule, which then fails verification).
pub fn canonical_mapping(kind: FoldKind) -> DataflowMapping {
    use fuseconv_ria::algorithms;
    let (system, space_axes, time_axis, broadcast_vars) = match kind {
        // Matmul over (i, j, k): PE grid is (i, j), time is the reduction
        // index k — Fig. 1(c)-(d).
        FoldKind::OutputStationary => (algorithms::matmul(), vec![0, 1], 2, vec![]),
        // The weight tile is pinned: array rows hold the reduction index
        // k, columns the output column j; output rows stream over time.
        FoldKind::WeightStationary => (algorithms::matmul(), vec![2, 1], 0, vec![]),
        // The input tile is pinned: rows hold output row i, columns the
        // reduction index k; output columns stream over time.
        FoldKind::InputStationary => (algorithms::matmul(), vec![0, 2], 1, vec![]),
        // 1-D convolution over (i positions, j taps): output positions
        // live along the array columns; taps are serialized in time with
        // each tap's weight reused across every position in the row — the
        // reuse the per-row broadcast link serves (§IV-C-1). Array rows
        // carry independent convolutions and are not an iteration axis.
        FoldKind::RowBroadcast => (algorithms::conv1d(), vec![0], 1, vec!["W".to_string()]),
    };
    let rank = system
        .recurrences()
        .iter()
        .map(|r| r.rank)
        .max()
        .unwrap_or(0);
    let schedule = system
        .dependence_vectors()
        .and_then(|deps| find_schedule(&deps, rank).ok())
        .unwrap_or_else(|| Schedule::new(vec![0; rank]));
    DataflowMapping {
        kind,
        system,
        schedule,
        space_axes,
        time_axis,
        broadcast_vars,
    }
}

/// Statically verifies a mapping on an array: RIA well-formedness,
/// schedule legality and projection locality, in that order.
///
/// # Errors
///
/// Returns every [`LegalityViolation`] found (the list is never empty on
/// `Err`).
pub fn verify_mapping(
    mapping: &DataflowMapping,
    cfg: &ArrayConfig,
) -> Result<(), Vec<LegalityViolation>> {
    let mut violations = Vec::new();
    if let Err(ria) = mapping.system.check() {
        violations.push(LegalityViolation::NotRegular { violations: ria });
    }
    let tau = mapping.schedule.coefficients().to_vec();
    for dep in mapping.dependences() {
        // Schedule legality: the producer must strictly precede the
        // consumer. Guard the rank so a tampered schedule cannot panic
        // the verifier.
        if tau.len() == dep.vector.len() {
            let product: i64 = tau
                .iter()
                .zip(&dep.vector)
                .map(|(&t, &d)| t.saturating_mul(d))
                .fold(0i64, i64::saturating_add);
            if product < 1 {
                violations.push(LegalityViolation::ScheduleViolatesDependence {
                    dependence: dep.vector.clone(),
                    tau: tau.clone(),
                    product,
                });
            }
        } else {
            violations.push(LegalityViolation::ScheduleViolatesDependence {
                dependence: dep.vector.clone(),
                tau: tau.clone(),
                product: 0,
            });
        }
        // Locality: the projection onto the space axes must be a
        // nearest-neighbour hop (L1 norm ≤ 1), except for dependences
        // served by the row-broadcast link.
        let projected: Vec<i64> = mapping
            .space_axes
            .iter()
            .map(|&a| dep.vector.get(a).copied().unwrap_or(0))
            .collect();
        let l1: i64 = projected.iter().map(|d| d.abs()).sum();
        if mapping.broadcast_vars.contains(&dep.var) {
            if !cfg.has_broadcast() {
                violations.push(LegalityViolation::BroadcastLinkMissing {
                    var: dep.var.clone(),
                    dependence: dep.vector.clone(),
                });
            }
        } else if l1 > 1 {
            violations.push(LegalityViolation::NonLocalProjection {
                dependence: dep.vector.clone(),
                projected,
            });
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_ria::{IndexExpr, Recurrence, RecurrenceSystem, Term};

    fn plain(side: usize) -> ArrayConfig {
        ArrayConfig::square(side).unwrap()
    }

    #[test]
    fn shipped_mappings_are_legal_exactly_where_the_simulators_run_them() {
        // The whole verdict table: every kind on plain and broadcast
        // arrays of several shapes. Only row-broadcast on a plain array is
        // illegal, and the conv1d simulators refuse that configuration
        // with BroadcastUnavailable before simulating.
        for (rows, cols) in [(1, 1), (1, 8), (3, 5), (8, 8), (64, 16)] {
            let array = ArrayConfig::new(rows, cols).unwrap();
            for cfg in [array, array.with_broadcast(true)] {
                for kind in FoldKind::ALL {
                    let legal = kind != FoldKind::RowBroadcast || cfg.has_broadcast();
                    assert_eq!(
                        verify_mapping(&canonical_mapping(kind), &cfg).is_ok(),
                        legal,
                        "{kind} on {rows}x{cols} broadcast={}",
                        cfg.has_broadcast()
                    );
                }
            }
        }
    }

    #[test]
    fn row_broadcast_requires_the_link() {
        let errs =
            verify_mapping(&canonical_mapping(FoldKind::RowBroadcast), &plain(8)).unwrap_err();
        assert!(errs.iter().any(
            |v| matches!(v, LegalityViolation::BroadcastLinkMissing { var, .. } if var == "W")
        ));
    }

    #[test]
    fn injected_illegal_schedule_is_rejected_before_simulation() {
        // Tamper the canonical OS mapping with τ = [1, 1, -1] so the
        // accumulation dependence (0,0,1) gets τ·d = -1 < 1, and check the
        // verifier refuses it statically.
        let mapping = canonical_mapping(FoldKind::OutputStationary)
            .with_schedule(Schedule::new(vec![1, 1, -1]));
        let errs = verify_mapping(&mapping, &plain(8)).unwrap_err();
        assert!(errs.iter().any(|v| matches!(
            v,
            LegalityViolation::ScheduleViolatesDependence { product, .. } if *product < 1
        )));
    }

    #[test]
    fn non_ria_system_is_rejected() {
        let mut mapping = canonical_mapping(FoldKind::OutputStationary);
        // Replace the C recurrence's A read with a ⌊k/3⌋-offset access —
        // the direct-convolution pathology of §III-A.
        let i = || IndexExpr::axis(0);
        let j = || IndexExpr::axis(1);
        let k = || IndexExpr::axis(2);
        mapping.system = RecurrenceSystem::new(
            "tampered",
            vec![Recurrence::new(
                "C",
                3,
                vec![Term::new("A", vec![i() + (k().floor_div(3)), j(), k()])],
            )],
        );
        let errs = verify_mapping(&mapping, &plain(8)).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v, LegalityViolation::NotRegular { .. })));
    }

    #[test]
    fn non_local_projection_is_rejected() {
        // A dependence that jumps two PEs along i: schedulable (τ·d = 2)
        // but physically non-local.
        let mut mapping = canonical_mapping(FoldKind::OutputStationary);
        let j = || IndexExpr::axis(1);
        let k = || IndexExpr::axis(2);
        mapping.system = RecurrenceSystem::new(
            "skip-two",
            vec![Recurrence::new(
                "B",
                3,
                vec![Term::new(
                    "B",
                    vec![IndexExpr::axis(0) - (IndexExpr::constant(2)), j(), k()],
                )],
            )],
        );
        let errs = verify_mapping(&mapping, &plain(8)).unwrap_err();
        assert!(errs.iter().any(|v| matches!(
            v,
            LegalityViolation::NonLocalProjection { projected, .. } if projected == &vec![2, 0]
        )));
    }

    #[test]
    fn rank_mismatched_schedule_is_rejected() {
        let mapping =
            canonical_mapping(FoldKind::OutputStationary).with_schedule(Schedule::new(vec![1, 1]));
        assert!(verify_mapping(&mapping, &plain(8)).is_err());
    }

    #[test]
    fn violation_display_is_informative() {
        let v = LegalityViolation::ScheduleViolatesDependence {
            dependence: vec![0, 0, 1],
            tau: vec![1, 1, -1],
            product: -1,
        };
        let s = v.to_string();
        assert!(s.contains("τ·d = -1"), "{s}");
        let v = LegalityViolation::BroadcastLinkMissing {
            var: "W".into(),
            dependence: vec![1, 0],
        };
        assert!(v.to_string().contains("broadcast"));
    }

    #[test]
    fn dependences_carry_provenance() {
        let deps = canonical_mapping(FoldKind::RowBroadcast).dependences();
        assert!(deps.iter().any(|d| d.var == "W" && d.vector == vec![1, 0]));
        assert!(deps.iter().any(|d| d.var == "C" && d.vector == vec![0, 1]));
    }
}
