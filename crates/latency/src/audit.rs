//! Static self-audit of fold plans: coverage, occupancy and footprints.
//!
//! [`LatencyModel::fold_runs`] promises that its folds partition the
//! operator's output iteration space — every output element computed by
//! exactly one fold, every fold within the physical array. This module
//! proves that promise from the *outside*: it independently reconstructs
//! the expected tile partition of the iteration space (an interval
//! analysis over the fold grid, as runs of identical tiles) and
//! merge-walks the plan's runs against it, classifying every divergence as
//! a [`PlanViolation`]. Every fold of a run pair classifies alike, so a
//! clean pair is skipped whole; a flat plan is audited through
//! [`FoldRuns::from_folds`](crate::plan::Runs::from_folds).
//!
//! The planner passing the audit is a property of constant code, so it is
//! proved at test time, not re-checked on every [`LatencyModel`] call: this
//! module's tests audit one probe operator per lowering class over a grid
//! of array shapes × dataflows × batch sizes × broadcast, plus a seeded
//! random sample. At run time the audit is a reference check for
//! `fuseconv-analyze`: the `PLAN001–PLAN004` rules wrap [`audit_plan`]'s
//! violations as diagnostics, and the `MEM001–MEM003` rules budget the
//! [`fold_footprint`] working sets against SRAM.

#![cfg_attr(not(test), warn(clippy::as_conversions))]

use crate::map::{c64, tile_classes, Dataflow, LatencyModel};
use crate::plan::{AsFoldRuns, FoldRuns, Runs};
use fuseconv_nn::ops::{Axis1d, Op};
use fuseconv_systolic::conv1d;
use fuseconv_trace::{FoldKind, FoldSpec};
use std::fmt;

/// One divergence between a fold plan and the expected partition of the
/// operator's output iteration space.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanViolation {
    /// Part of the iteration space is computed by no fold.
    Gap {
        /// MACs of the uncovered region.
        missing_macs: u64,
        /// Where the coverage hole is.
        detail: String,
    },
    /// Part of the iteration space is computed by more than one fold (or
    /// by a fold that does not belong to the partition at all).
    Overlap {
        /// MACs computed beyond the iteration-space total.
        extra_macs: u64,
        /// Where the double-compute is.
        detail: String,
    },
    /// A fold claims more rows or columns than the array has.
    OversizedTile {
        /// Index of the offending fold in the plan.
        fold_index: usize,
        /// The fold's claimed row occupancy.
        rows_used: u32,
        /// The fold's claimed column occupancy.
        cols_used: u32,
    },
    /// The plan's summed MACs disagree with the operator's
    /// iteration-space MAC total.
    MacsMismatch {
        /// Σ `macs` over the plan's folds.
        plan_macs: u64,
        /// The independently computed iteration-space total.
        expected_macs: u64,
    },
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanViolation::Gap {
                missing_macs,
                detail,
            } => write!(f, "coverage gap of {missing_macs} MACs ({detail})"),
            PlanViolation::Overlap { extra_macs, detail } => {
                write!(f, "double-compute of {extra_macs} MACs ({detail})")
            }
            PlanViolation::OversizedTile {
                fold_index,
                rows_used,
                cols_used,
            } => write!(
                f,
                "fold {fold_index} claims a {rows_used}x{cols_used} tile beyond the array"
            ),
            PlanViolation::MacsMismatch {
                plan_macs,
                expected_macs,
            } => write!(
                f,
                "plan sums to {plan_macs} MACs, iteration space holds {expected_macs}"
            ),
        }
    }
}

/// An expected tile of the iteration-space partition: row/column occupancy
/// plus the MACs the tile owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tile {
    rows: u64,
    cols: u64,
    macs: u64,
}

/// The expected tile sequence of one GEMM fold grid: the cross product of
/// the row-axis and column-axis interval partitions (full chunks, then the
/// remainder), row-major, each tile carrying `ru · cu · reduction` MACs.
fn gemm_tiles(dim_r: u64, rows: u64, dim_c: u64, cols: u64, reduction: u64) -> Runs<Tile> {
    let mut out = Runs::default();
    for (ru, row_tiles) in tile_classes(dim_r, rows) {
        let row = tile_classes(dim_c, cols).map(|(cu, n)| {
            let macs = ru.saturating_mul(cu).saturating_mul(reduction);
            (
                Tile {
                    rows: ru,
                    cols: cu,
                    macs,
                },
                n,
            )
        });
        out.push_segment(row, row_tiles);
    }
    out
}

/// The expected tile sequence of a packed row-broadcast (FuSe 1-D) plan,
/// reconstructed from the packing decision the cycle simulator makes: each
/// channel's lines fill `lpr`-line slots, its last slot holding the
/// remainder, and every `rows` consecutive slots make one tile.
fn fuse_tiles(
    model: &LatencyModel,
    channels: usize,
    lines: usize,
    l_out: usize,
    k: usize,
) -> Runs<Tile> {
    let array = model.array();
    let (rows, cols) = (array.rows(), c64(array.cols()));
    let lpr = c64(conv1d::lines_per_row(array, channels, lines, l_out, k));
    let (lines, l_out, k) = (c64(lines), c64(l_out), c64(k));
    let slots_per_channel = lines.div_ceil(lpr);
    let slots = c64(channels).saturating_mul(slots_per_channel);
    if lpr == 1 {
        // One line per slot: a `slots × l_out` grid reducing over `k`.
        return gemm_tiles(slots, c64(rows), l_out, cols, k);
    }
    // Lines missing from each channel's last slot.
    let short = lpr * slots_per_channel - lines;
    let mut out = Runs::default();
    for slot0 in (0..slots).step_by(rows) {
        let end = slots.min(slot0 + c64(rows));
        let last_slots = end / slots_per_channel - slot0 / slots_per_channel;
        let busy = ((end - slot0) * lpr - last_slots * short).saturating_mul(l_out);
        let tile = Tile {
            rows: end - slot0,
            cols: lpr.saturating_mul(l_out),
            macs: busy.saturating_mul(k),
        };
        out.push(tile, 1);
    }
    out
}

/// The expected iteration-space partition for `op` under `model`, or
/// `None` when the operator is degenerate / unsupported on this array (the
/// planner itself errors there, so there is nothing to audit).
fn expected_tiles(model: &LatencyModel, op: &Op) -> Option<Runs<Tile>> {
    let (oh, ow, _) = op.output_shape();
    let (rows, cols) = (c64(model.array().rows()), c64(model.array().cols()));
    let m = c64(oh)
        .checked_mul(c64(ow))?
        .checked_mul(c64(model.batch()))?;
    match *op {
        Op::Conv2d { in_c, out_c, k, .. } => {
            let kdim = c64(k).checked_mul(c64(k))?.checked_mul(c64(in_c))?;
            Some(grid_for(model.dataflow(), m, kdim, c64(out_c), rows, cols))
        }
        Op::Depthwise { c, k, .. } => {
            let kk = c64(k).checked_mul(c64(k))?;
            Some(grid_for(model.dataflow(), m, kk, 1, rows, cols).repeated(c64(c)))
        }
        Op::Pointwise { in_c, out_c, .. } => Some(grid_for(
            model.dataflow(),
            m,
            c64(in_c),
            c64(out_c),
            rows,
            cols,
        )),
        Op::FuSe1d { c, k, axis, .. } => {
            if !model.array().has_broadcast() {
                return None;
            }
            let (lines, l_out) = match axis {
                Axis1d::Row => (oh, ow),
                Axis1d::Col => (ow, oh),
            };
            if c == 0 || lines == 0 || l_out == 0 || k == 0 {
                return None;
            }
            Some(fuse_tiles(model, c, lines, l_out, k))
        }
        Op::Fc {
            in_features,
            out_features,
        } => Some(grid_for(
            model.dataflow(),
            1,
            c64(in_features),
            c64(out_features),
            rows,
            cols,
        )),
    }
}

/// Maps a GEMM's `(m, k, n)` to its fold-grid axes under a dataflow: which
/// two dims tile onto the array, and which is the temporal reduction.
fn grid_for(dataflow: Dataflow, m: u64, k: u64, n: u64, rows: u64, cols: u64) -> Runs<Tile> {
    match dataflow {
        Dataflow::OutputStationary => gemm_tiles(m, rows, n, cols, k),
        Dataflow::WeightStationary => gemm_tiles(k, rows, n, cols, m),
        Dataflow::InputStationary => gemm_tiles(m, rows, k, cols, n),
    }
}

/// Classifies fold `i` of a plan against expected tile `i` of the
/// partition (either may be past its end), pushing what diverges.
fn classify(f: Option<FoldSpec>, t: Option<Tile>, i: u64, out: &mut Vec<PlanViolation>) {
    match (f, t) {
        (Some(f), Some(t)) => {
            let (fr, fc) = (u64::from(f.rows_used), u64::from(f.cols_used));
            if fr < t.rows || fc < t.cols {
                out.push(PlanViolation::Gap {
                    missing_macs: t.macs.saturating_sub(f.macs),
                    detail: format!(
                        "fold {i} covers {fr}x{fc} of the expected {}x{} tile",
                        t.rows, t.cols
                    ),
                });
            }
            if fr > t.rows || fc > t.cols {
                out.push(PlanViolation::Overlap {
                    extra_macs: f.macs.saturating_sub(t.macs),
                    detail: format!(
                        "fold {i} covers {fr}x{fc}, beyond the expected {}x{} tile",
                        t.rows, t.cols
                    ),
                });
            }
        }
        (None, Some(t)) => out.push(PlanViolation::Gap {
            missing_macs: t.macs,
            detail: format!("plan ends before expected tile {i} ({}x{})", t.rows, t.cols),
        }),
        (Some(f), None) => out.push(PlanViolation::Overlap {
            extra_macs: f.macs,
            detail: format!(
                "fold {i} ({}x{}) lies beyond the iteration space",
                f.rows_used, f.cols_used
            ),
        }),
        (None, None) => {}
    }
}

/// Merge-walks a plan's runs against the expected partition's in emission
/// order, classifying under- and over-coverage. Each step pairs the `n`
/// folds both current runs still cover; they classify alike, so a clean
/// step is skipped whole and a divergent one reported fold by fold.
fn walk(plan: &FoldRuns, expected: &Runs<Tile>, out: &mut Vec<PlanViolation>) {
    let (mut folds, mut tiles) = (plan.ordered_runs(), expected.ordered_runs());
    let (mut f, mut t) = (folds.next(), tiles.next());
    let mut i = 0u64;
    while f.is_some() || t.is_some() {
        let n = f.map_or(u64::MAX, |r| r.1).min(t.map_or(u64::MAX, |r| r.1));
        let before = out.len();
        classify(f.map(|r| r.0), t.map(|r| r.0), i, out);
        if out.len() > before {
            for j in i.saturating_add(1)..i.saturating_add(n) {
                classify(f.map(|r| r.0), t.map(|r| r.0), j, out);
            }
        }
        i = i.saturating_add(n);
        f = f.and_then(|(x, c)| (c > n).then_some((x, c - n)).or_else(|| folds.next()));
        t = t.and_then(|(x, c)| (c > n).then_some((x, c - n)).or_else(|| tiles.next()));
    }
}

/// Audits a fold plan, as runs or flat, against the expected partition of
/// `op`'s iteration space under `model`. Returns every divergence found,
/// fold by fold; an empty vector is the coverage proof (no gaps, no
/// double-compute, tiles within the array, MAC totals exact).
pub fn audit_plan(
    model: &LatencyModel,
    op: &Op,
    plan: &(impl AsFoldRuns + ?Sized),
) -> Vec<PlanViolation> {
    let plan = plan.as_fold_runs();
    let mut out = Vec::new();
    let (rows, cols) = (c64(model.array().rows()), c64(model.array().cols()));
    let oversized = |f: &FoldSpec| u64::from(f.rows_used) > rows || u64::from(f.cols_used) > cols;

    // PLAN003: physical occupancy; expanded only when a run is oversized.
    if plan.runs().any(|(_, f, _)| oversized(f)) {
        for (fold_index, f) in plan.expand().into_iter().enumerate() {
            if oversized(&f) {
                let (rows_used, cols_used) = (f.rows_used, f.cols_used);
                out.push(PlanViolation::OversizedTile {
                    fold_index,
                    rows_used,
                    cols_used,
                });
            }
        }
    }

    let Some(expected) = expected_tiles(model, op) else {
        return out;
    };

    // PLAN001/PLAN002: a plan whose runs have the partition's tile shapes,
    // run for run and repeat for repeat, matches it fold for fold; any
    // other plan is merge-walked against it.
    let shape = |f: &FoldSpec| (u64::from(f.rows_used), u64::from(f.cols_used));
    if plan.map(shape) != expected.map(|t| (t.rows, t.cols)) {
        walk(&plan, &expected, &mut out);
    }

    // PLAN004: MAC totals, an independent global invariant (catches
    // compensating per-fold errors the tile walk cannot see).
    let plan_macs = plan.runs().fold(0u64, |a, (_, f, n)| {
        a.saturating_add(f.macs.saturating_mul(n))
    });
    let expected_macs = expected.runs().fold(0u64, |a, (_, t, n)| {
        a.saturating_add(t.macs.saturating_mul(n))
    });
    if plan_macs != expected_macs {
        out.push(PlanViolation::MacsMismatch {
            plan_macs,
            expected_macs,
        });
    }
    out
}

/// Per-fold SRAM working set, in elements per operand stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldFootprint {
    /// Distinct input-feature-map elements the fold touches.
    pub ifmap_elems: u64,
    /// Distinct filter elements the fold touches.
    pub filter_elems: u64,
    /// Distinct output elements the fold produces.
    pub ofmap_elems: u64,
}

impl FoldFootprint {
    /// Total elements across the three streams.
    pub fn total(&self) -> u64 {
        self.ifmap_elems
            .saturating_add(self.filter_elems)
            .saturating_add(self.ofmap_elems)
    }

    /// Per-stream maximum of two footprints.
    pub fn max(self, other: FoldFootprint) -> FoldFootprint {
        FoldFootprint {
            ifmap_elems: self.ifmap_elems.max(other.ifmap_elems),
            filter_elems: self.filter_elems.max(other.filter_elems),
            ofmap_elems: self.ofmap_elems.max(other.ofmap_elems),
        }
    }
}

/// The operand working set of one fold, recovered from the spec alone.
///
/// The temporal dimension is reconstructed from the compute phase: an
/// output-stationary fold computes for `ru + cu + k − 2` cycles, so
/// `k = compute + 2 − ru − cu`, and symmetrically for the other dataflows.
/// For row-broadcast folds the fill phase *is* the padded input width and
/// the compute phase is the kernel length. These are exactly the distinct
/// SRAM addresses the traced simulators touch per fold (the
/// `footprint_vs_trace` integration test pins this equality).
pub fn fold_footprint(f: &FoldSpec) -> FoldFootprint {
    let (ru, cu) = (u64::from(f.rows_used), u64::from(f.cols_used));
    match f.kind {
        FoldKind::OutputStationary => {
            let k = (f.compute + 2).saturating_sub(ru + cu);
            FoldFootprint {
                ifmap_elems: ru.saturating_mul(k),
                filter_elems: k.saturating_mul(cu),
                ofmap_elems: ru.saturating_mul(cu),
            }
        }
        FoldKind::WeightStationary => {
            let m = (f.compute + 2).saturating_sub(ru + cu);
            FoldFootprint {
                ifmap_elems: m.saturating_mul(ru),
                filter_elems: ru.saturating_mul(cu),
                ofmap_elems: m.saturating_mul(cu),
            }
        }
        FoldKind::InputStationary => {
            let n = (f.compute + 2).saturating_sub(ru + cu);
            FoldFootprint {
                ifmap_elems: ru.saturating_mul(cu),
                filter_elems: n.saturating_mul(cu),
                ofmap_elems: ru.saturating_mul(n),
            }
        }
        FoldKind::RowBroadcast => FoldFootprint {
            ifmap_elems: ru.saturating_mul(f.fill),
            filter_elems: ru.saturating_mul(f.compute),
            ofmap_elems: f.macs.checked_div(f.compute).unwrap_or(0),
        },
    }
}

/// Per-stream high-water mark over a whole plan, as runs or flat: the
/// largest single-fold working set each SRAM buffer must hold, one
/// footprint per run.
pub fn plan_high_water(plan: &(impl AsFoldRuns + ?Sized)) -> FoldFootprint {
    plan.as_fold_runs()
        .runs()
        .map(|(_, f, _)| fold_footprint(f))
        .fold(FoldFootprint::default(), FoldFootprint::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_systolic::ArrayConfig;
    use fuseconv_tensor::rng::Rng;

    fn model(rows: usize, cols: usize) -> LatencyModel {
        LatencyModel::new(ArrayConfig::new(rows, cols).unwrap().with_broadcast(true))
    }

    /// One probe operator per lowering class, with remainder tiles on
    /// every array at or above 2×2. FuSe operators need the broadcast link.
    fn probe_ops(has_broadcast: bool) -> Vec<Op> {
        let mut ops = vec![
            Op::conv2d(14, 14, 8, 24, 3, 1, 1),
            Op::depthwise(9, 9, 6, 3, 1, 1),
            Op::pointwise(7, 7, 12, 20),
            Op::fc(100, 37),
        ];
        if has_broadcast {
            ops.push(Op::fuse1d(12, 12, 5, 3, 1, 1, Axis1d::Row));
            ops.push(Op::fuse1d(7, 7, 9, 5, 1, 2, Axis1d::Col));
        }
        ops
    }

    /// Every probe plan of every dataflow audits clean on `rows × cols`
    /// at `batch`, with and without the broadcast link.
    fn assert_config_audits_clean(rows: usize, cols: usize, batch: usize) {
        let plain = ArrayConfig::new(rows, cols).unwrap();
        for array in [plain, plain.with_broadcast(true)] {
            for dataflow in Dataflow::ALL {
                let m = LatencyModel::new(array)
                    .with_dataflow(dataflow)
                    .with_batch(batch);
                for op in probe_ops(array.has_broadcast()) {
                    let v = audit_plan(&m, &op, &m.fold_plan(&op).unwrap());
                    assert!(
                        v.is_empty(),
                        "{rows}x{cols} bcast={} {dataflow:?} batch {batch} {op}: {v:?}",
                        array.has_broadcast()
                    );
                }
            }
        }
    }

    #[test]
    fn shipped_plans_audit_clean_everywhere() {
        const SIDES: [usize; 11] = [1, 2, 3, 5, 7, 8, 13, 16, 31, 64, 128];
        for rows in SIDES {
            for cols in SIDES {
                for batch in [1, 2, 3, 8] {
                    assert_config_audits_clean(rows, cols, batch);
                }
            }
        }
        let mut rng = Rng::seed_from_u64(0x00a0_d17e);
        for _ in 0..64 {
            let rows = 1 + rng.below(200);
            let cols = 1 + rng.below(200);
            let batch = 1 + rng.below(16);
            assert_config_audits_clean(rows, cols, batch);
        }
    }

    #[test]
    fn dropped_fold_is_a_gap() {
        let m = model(8, 8);
        let op = Op::pointwise(7, 7, 12, 20);
        let mut plan = m.fold_plan(&op).unwrap();
        plan.pop();
        let v = audit_plan(&m, &op, &plan);
        assert!(
            v.iter().any(|x| matches!(x, PlanViolation::Gap { .. })),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|x| matches!(x, PlanViolation::MacsMismatch { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn duplicated_fold_is_an_overlap() {
        let m = model(8, 8);
        let op = Op::pointwise(7, 7, 12, 20);
        let mut plan = m.fold_plan(&op).unwrap();
        let dup = plan[plan.len() - 1];
        plan.push(dup);
        let v = audit_plan(&m, &op, &plan);
        assert!(
            v.iter().any(|x| matches!(x, PlanViolation::Overlap { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn widened_tile_is_an_overlap_and_oversized() {
        let m = model(8, 8);
        let op = Op::pointwise(7, 7, 12, 20);
        let mut plan = m.fold_plan(&op).unwrap();
        plan[0].rows_used = 9; // beyond the 8-row array
        let v = audit_plan(&m, &op, &plan);
        assert!(
            v.iter()
                .any(|x| matches!(x, PlanViolation::OversizedTile { fold_index: 0, .. })),
            "{v:?}"
        );
        assert!(
            v.iter().any(|x| matches!(x, PlanViolation::Overlap { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn narrowed_tile_is_a_gap() {
        let m = model(8, 8);
        let op = Op::conv2d(14, 14, 8, 24, 3, 1, 1);
        let mut plan = m.fold_plan(&op).unwrap();
        plan[0].cols_used -= 1;
        plan[0].macs -= 1;
        let v = audit_plan(&m, &op, &plan);
        assert!(
            v.iter().any(|x| matches!(x, PlanViolation::Gap { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn mutated_macs_alone_is_a_macs_mismatch() {
        let m = model(8, 8);
        let op = Op::fuse1d(12, 12, 5, 3, 1, 1, Axis1d::Row);
        let mut plan = m.fold_plan(&op).unwrap();
        plan[0].macs += 7;
        let v = audit_plan(&m, &op, &plan);
        assert!(
            v.iter()
                .any(|x| matches!(x, PlanViolation::MacsMismatch { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn footprints_are_consistent_with_plan_dims() {
        // OS pointwise on 8x8: full 8x8 tiles with reduction 12 → ifmap
        // 8·12, filter 12·8, ofmap 8·8.
        let m = model(8, 8);
        let plan = m.fold_plan(&Op::pointwise(8, 8, 12, 8)).unwrap();
        let fp = fold_footprint(&plan[0]);
        assert_eq!(fp.ifmap_elems, 8 * 12);
        assert_eq!(fp.filter_elems, 12 * 8);
        assert_eq!(fp.ofmap_elems, 8 * 8);
        assert_eq!(fp.total(), 8 * 12 + 12 * 8 + 8 * 8);
        let hw = plan_high_water(&plan);
        assert!(hw.ifmap_elems >= fp.ifmap_elems);
    }

    #[test]
    fn high_water_is_per_stream_max() {
        let a = FoldFootprint {
            ifmap_elems: 10,
            filter_elems: 1,
            ofmap_elems: 5,
        };
        let b = FoldFootprint {
            ifmap_elems: 2,
            filter_elems: 8,
            ofmap_elems: 5,
        };
        let m = a.max(b);
        assert_eq!(m.ifmap_elems, 10);
        assert_eq!(m.filter_elems, 8);
        assert_eq!(m.ofmap_elems, 5);
    }

    #[test]
    fn violation_display_mentions_the_numbers() {
        let v = PlanViolation::MacsMismatch {
            plan_macs: 10,
            expected_macs: 12,
        };
        let s = v.to_string();
        assert!(s.contains("10") && s.contains("12"), "{s}");
    }
}
