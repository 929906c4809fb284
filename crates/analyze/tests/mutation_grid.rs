//! Deterministic mutation grid: perturb every canonical dataflow mapping
//! into each class of illegality and assert the analyzer rejects it with
//! the expected rule ID — and that the pristine mappings stay clean.
//!
//! Randomness (which axis to tamper, which illegal coefficient to inject)
//! comes from the workspace's deterministic [`fuseconv_tensor::rng`], so
//! the grid is reproducible bit-for-bit.

use fuseconv_analyze::{analyze_mapping, RuleId, Severity};
use fuseconv_ria::{IndexExpr, Recurrence, RecurrenceSystem, Schedule, Term};
use fuseconv_systolic::legality::{canonical_mapping, DataflowMapping};
use fuseconv_systolic::ArrayConfig;
use fuseconv_tensor::rng::Rng;
use fuseconv_trace::FoldKind;

fn array() -> ArrayConfig {
    ArrayConfig::square(8)
        .expect("8 is nonzero")
        .with_broadcast(true)
}

fn rank_of(mapping: &DataflowMapping) -> usize {
    mapping.schedule.coefficients().len()
}

/// The identity index vector `(x0, ..., x{rank-1})`.
fn identity(rank: usize) -> Vec<IndexExpr> {
    (0..rank).map(IndexExpr::axis).collect()
}

/// Asserts the analyzer reports `rule` at error severity for `mapping`.
fn assert_rejected(mapping: &DataflowMapping, rule: RuleId, what: &str) {
    let diags = analyze_mapping(mapping, &array());
    assert!(
        diags
            .iter()
            .any(|d| d.rule == rule && d.severity == Severity::Error),
        "{what} on {} should raise {}; got {diags:?}",
        mapping.kind,
        rule.code()
    );
}

#[test]
fn pristine_mappings_are_clean() {
    for kind in FoldKind::ALL {
        let diags = analyze_mapping(&canonical_mapping(kind), &array());
        assert!(diags.is_empty(), "{kind}: {diags:?}");
    }
}

#[test]
fn tampered_schedules_raise_sch001() {
    let mut rng = Rng::seed_from_u64(0xF05E);
    for kind in FoldKind::ALL {
        for _ in 0..8 {
            let pristine = canonical_mapping(kind);
            let mut tau = pristine.schedule.coefficients().to_vec();
            // Every iteration axis of every canonical system carries a unit
            // dependence, so zeroing or negating any single coefficient is
            // guaranteed illegal.
            let axis = rng.below(tau.len());
            tau[axis] = -(rng.below(3) as i64);
            let mapping = pristine.with_schedule(Schedule::new(tau.clone()));
            assert_rejected(
                &mapping,
                RuleId::Sch001ScheduleViolatesDependence,
                &format!("tau = {tau:?}"),
            );
        }
    }
}

#[test]
fn truncated_schedules_raise_sch001() {
    for kind in FoldKind::ALL {
        let pristine = canonical_mapping(kind);
        let short = pristine.schedule.coefficients()[1..].to_vec();
        let mapping = pristine.with_schedule(Schedule::new(short));
        assert_rejected(
            &mapping,
            RuleId::Sch001ScheduleViolatesDependence,
            "rank-truncated schedule",
        );
    }
}

#[test]
fn duplicate_assignment_raises_ria001() {
    for kind in FoldKind::ALL {
        let mut mapping = canonical_mapping(kind);
        let rank = rank_of(&mapping);
        let rec = || Recurrence::new("X", rank, vec![Term::new("X", identity(rank))]);
        mapping.system = RecurrenceSystem::new("dup", vec![rec(), rec()]);
        assert_rejected(
            &mapping,
            RuleId::Ria001MultipleAssignment,
            "duplicated recurrence",
        );
    }
}

#[test]
fn non_constant_offset_raises_ria002() {
    for kind in FoldKind::ALL {
        let mut mapping = canonical_mapping(kind);
        let rank = rank_of(&mapping);
        // The §III-A pathology: a ⌊x0/3⌋ access, as direct 2-D convolution
        // induces when flattened onto a 1-D index space.
        let mut index = identity(rank);
        index[0] = IndexExpr::axis(0).floor_div(3);
        mapping.system = RecurrenceSystem::new(
            "strided",
            vec![Recurrence::new("X", rank, vec![Term::new("X", index)])],
        );
        assert_rejected(
            &mapping,
            RuleId::Ria002NonConstantOffset,
            "floor-div offset",
        );
    }
}

#[test]
fn rank_mismatch_raises_ria003() {
    for kind in FoldKind::ALL {
        let mut mapping = canonical_mapping(kind);
        let rank = rank_of(&mapping);
        mapping.system = RecurrenceSystem::new(
            "short-index",
            vec![Recurrence::new(
                "X",
                rank,
                vec![Term::new("X", identity(rank - 1))],
            )],
        );
        assert_rejected(&mapping, RuleId::Ria003RankMismatch, "truncated index");
    }
}

#[test]
fn two_hop_dependences_raise_loc001() {
    let mut rng = Rng::seed_from_u64(0x10CA);
    for kind in FoldKind::ALL {
        let mut mapping = canonical_mapping(kind);
        let rank = rank_of(&mapping);
        // Offset −2..−3 on a space axis: schedulable, but the projected
        // hop spans more than one PE.
        let axis = mapping.space_axes[rng.below(mapping.space_axes.len())];
        let hop = 2 + rng.below(2) as i64;
        let mut index = identity(rank);
        index[axis] = IndexExpr::axis(axis) - IndexExpr::constant(hop);
        mapping.system = RecurrenceSystem::new(
            "two-hop",
            vec![Recurrence::new("X", rank, vec![Term::new("X", index)])],
        );
        assert_rejected(
            &mapping,
            RuleId::Loc001NonLocalProjection,
            &format!("{hop}-hop dependence"),
        );
    }
}

#[test]
fn broadcast_reuse_needs_the_link() {
    let plain = ArrayConfig::square(8).expect("8 is nonzero");
    let diags = analyze_mapping(&canonical_mapping(FoldKind::RowBroadcast), &plain);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == RuleId::Loc002BroadcastLinkRequired
                && d.severity == Severity::Error),
        "{diags:?}"
    );
}
