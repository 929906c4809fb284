//! The latency model: its configuration, errors and cycle pricing.

#![cfg_attr(not(test), warn(clippy::as_conversions))]

use crate::plan::Emit;
use fuseconv_nn::ops::Op;
use fuseconv_systolic::ArrayConfig;
pub use fuseconv_systolic::Dataflow;
use fuseconv_trace::{FoldKind, FoldSpec};
use std::error::Error;
use std::fmt;

/// Error produced by the latency model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LatencyError {
    /// A FuSeConv operator was estimated on an array without the row
    /// weight-broadcast links its dataflow requires (§IV-C-1).
    BroadcastRequired {
        /// The offending operator, pretty-printed.
        op: String,
    },
    /// An operator had degenerate (zero-sized) dimensions.
    DegenerateOp {
        /// The offending operator, pretty-printed.
        op: String,
    },
    /// A cycle count, an operator's or a sum of them, does not fit in
    /// `u64`. Every fold count and sum is checked, so absurdly large
    /// shapes are reported instead of silently wrapping.
    ArithmeticOverflow {
        /// The operator, or block, whose count or addition overflows.
        op: String,
    },
}

impl fmt::Display for LatencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatencyError::BroadcastRequired { op } => write!(
                f,
                "operator `{op}` requires an array with row-broadcast links"
            ),
            LatencyError::DegenerateOp { op } => {
                write!(f, "operator `{op}` has zero-sized dimensions")
            }
            LatencyError::ArithmeticOverflow { op } => {
                write!(f, "cycle count of operator `{op}` overflows u64")
            }
        }
    }
}

impl Error for LatencyError {}

/// How consecutive folds of one operator share the array in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FoldOverlap {
    /// Folds run back to back with no overlap: every fold pays its full
    /// load + compute + drain cost. This matches the cycle-level simulator
    /// exactly and is the default.
    #[default]
    Serial,
    /// Double-buffered PEs: a fold's drain and the next fold's operand
    /// fill overlap, so each fold after the first pays only its fill +
    /// compute window. An idealization used for the ablation study — real
    /// arrays land between the two modes.
    DoubleBuffered,
}

/// The analytical latency model: an array configuration plus the lowering
/// rules in the crate docs.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use fuseconv_latency::LatencyModel;
/// use fuseconv_nn::ops::Op;
/// use fuseconv_systolic::ArrayConfig;
///
/// let model = LatencyModel::new(ArrayConfig::square(64)?);
/// let dw = Op::depthwise(56, 56, 128, 3, 1, 1);
/// let pw = Op::pointwise(56, 56, 128, 128);
/// // Depthwise has ~9x fewer MACs than this pointwise…
/// assert!(dw.macs() * 9 < pw.macs() + dw.macs());
/// // …but takes far longer on the array (§III-B).
/// assert!(model.cycles(&dw)? > model.cycles(&pw)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    array: ArrayConfig,
    overlap: FoldOverlap,
    dataflow: Dataflow,
    batch: usize,
}

impl LatencyModel {
    /// Creates a model for the given array with [`FoldOverlap::Serial`]
    /// fold accounting.
    pub fn new(array: ArrayConfig) -> Self {
        LatencyModel {
            array,
            overlap: FoldOverlap::Serial,
            dataflow: Dataflow::OutputStationary,
            batch: 1,
        }
    }

    /// Sets the inference batch size (default 1, the paper's edge
    /// setting). Batched images add rows to the conv, depthwise and
    /// pointwise GEMMs ([`LatencyModel::lowering`]); a fully connected
    /// layer's single row and a FuSe bank's 1-D lines do not grow with
    /// the batch yet. The estimate is for the whole batch.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch must be nonzero");
        self.batch = batch;
        self
    }

    /// The inference batch size.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Selects the dataflow used for GEMM-lowered operators.
    #[must_use]
    pub fn with_dataflow(mut self, dataflow: Dataflow) -> Self {
        self.dataflow = dataflow;
        self
    }

    /// The dataflow used for GEMM-lowered operators.
    pub fn dataflow(&self) -> Dataflow {
        self.dataflow
    }

    /// Selects the fold-overlap accounting mode.
    #[must_use]
    pub fn with_overlap(mut self, overlap: FoldOverlap) -> Self {
        self.overlap = overlap;
        self
    }

    /// The array configuration.
    pub fn array(&self) -> &ArrayConfig {
        &self.array
    }

    /// The fold-overlap accounting mode.
    pub fn overlap(&self) -> FoldOverlap {
        self.overlap
    }

    /// Estimated cycles for one operator: its fold runs
    /// ([`LatencyModel::fold_runs`]) priced under the configured overlap
    /// mode, in checked arithmetic.
    ///
    /// # Errors
    ///
    /// Returns [`LatencyError::BroadcastRequired`] for a FuSe operator on a
    /// broadcast-less array, [`LatencyError::DegenerateOp`] for zero-sized
    /// work, and [`LatencyError::ArithmeticOverflow`] when the cycle count
    /// does not fit in `u64`.
    pub fn cycles(&self, op: &Op) -> Result<u64, LatencyError> {
        let _span = fuseconv_telemetry::span("latency.cycles");
        self.priced(op, &mut |_, _| {}).map(|(cycles, _)| cycles)
    }

    /// `op`'s cycles and plan-instance count, pricing each emitted segment
    /// before passing it to `emit`. Serial folds pay fill + compute +
    /// drain; double-buffered ones hide OS/row-broadcast drains and WS/IS
    /// preloads under a neighbour, paying one per instance.
    pub(crate) fn priced(&self, op: &Op, emit: &mut Emit) -> Result<(u64, u64), LatencyError> {
        let hides_drain =
            |f: &FoldSpec| matches!(f.kind, FoldKind::OutputStationary | FoldKind::RowBroadcast);
        let hidden = |f: &FoldSpec| match self.overlap {
            FoldOverlap::Serial => 0,
            FoldOverlap::DoubleBuffered if hides_drain(f) => f.drain,
            FoldOverlap::DoubleBuffered => f.fill,
        };
        let (mut total, mut first, mut last) = (Some(0u64), None, None);
        let instances = self.lower(op, &mut |runs, repeat| {
            for &(f, n) in runs.iter().filter(|r| r.1 > 0 && repeat > 0) {
                let fold = f
                    .fill
                    .checked_add(f.compute)
                    .and_then(|c| c.checked_add(f.drain));
                let cost = fold.and_then(|c| (c - hidden(&f)).checked_mul(n)?.checked_mul(repeat));
                total = total.zip(cost).and_then(|(t, c)| t.checked_add(c));
                (first, last) = (first.or(Some(f)), Some(f));
            }
            emit(runs, repeat);
        })?;
        let edge = first.filter(|f| !hides_drain(f)).or(last);
        let total = total.and_then(|t| t.checked_add(edge.map_or(0, |f| hidden(&f))));
        match total.and_then(|t| t.checked_mul(instances)) {
            Some(cycles) => Ok((cycles, instances)),
            None => Err(LatencyError::ArithmeticOverflow { op: op.to_string() }),
        }
    }
}

/// Lossless `usize → u64` conversion (saturating on exotic >64-bit
/// targets), so shape products can be formed in checked `u64` arithmetic.
pub(crate) fn c64(x: usize) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

/// The tile classes of `total` split into `tile`-sized folds: full tiles
/// plus an optional remainder, as `(size, count)` pairs. A class with
/// `count == 0` must be skipped.
pub(crate) fn tile_classes(total: u64, tile: u64) -> [(u64, u64); 2] {
    let rem = total % tile;
    [(tile, total / tile), (rem, u64::from(rem != 0))]
}

/// Serial packed-conv1d cycles at a fixed packing factor, mirroring
/// `conv1d::cycles_at_lpr` in checked arithmetic: each fold costs
/// `(lpr·cw + k − 1) + k + ru` for `ru` rows and a `cw`-wide column tile.
fn fuse_cycles_at_lpr(
    rows: u64,
    cols: u64,
    n_slots: u64,
    l_out: u64,
    k: u64,
    lpr: u64,
) -> Option<u64> {
    let mut total = 0u64;
    for (ru, rc) in tile_classes(n_slots, rows) {
        for (cw, cc) in tile_classes(l_out, cols) {
            if rc == 0 || cc == 0 {
                continue;
            }
            let fold = lpr
                .checked_mul(cw)?
                .checked_add(k.checked_mul(2)?)?
                .checked_sub(1)?
                .checked_add(ru)?;
            total = total.checked_add(fold.checked_mul(rc)?.checked_mul(cc)?)?;
        }
    }
    Some(total)
}

/// The packing factor `conv1d::lines_per_row` would choose, evaluated with
/// the checked closed form (candidates whose cycle count overflows are
/// never selected).
pub(crate) fn best_lpr(rows: u64, cols: u64, channels: u64, lines: u64, l_out: u64, k: u64) -> u64 {
    let max_lpr = if l_out >= cols {
        1
    } else {
        (cols / l_out).clamp(1, lines)
    };
    (1..=max_lpr)
        .min_by_key(|&lpr| {
            channels
                .checked_mul(lines.div_ceil(lpr))
                .and_then(|n_slots| fuse_cycles_at_lpr(rows, cols, n_slots, l_out, k, lpr))
                .unwrap_or(u64::MAX)
        })
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_nn::ops::Axis1d;
    use fuseconv_nn::FuSeVariant;
    use fuseconv_systolic::{conv1d, gemm, ConfigError};
    use fuseconv_tensor::Tensor;

    fn array64() -> ArrayConfig {
        ArrayConfig::square(64).unwrap().with_broadcast(true)
    }

    impl LatencyModel {
        /// Checked cycles of an `m × k × n` GEMM: an `m × 1` pointwise op.
        fn gemm_cycles(&self, m: u64, k: u64, n: u64) -> Option<u64> {
            let dim = |x: u64| usize::try_from(x).unwrap();
            self.cycles(&Op::pointwise(dim(m), 1, dim(k), dim(n))).ok()
        }

        /// Checked cycles of a packed 1-D convolution batch: an unpadded
        /// row bank whose `lines` rows each produce `l_out` outputs.
        fn fuse_cycles(&self, channels: u64, lines: u64, l_out: u64, k: u64) -> Option<u64> {
            let dim = |x: u64| usize::try_from(x).unwrap();
            let (in_w, c, k) = (dim(l_out + k - 1), dim(channels), dim(k));
            self.cycles(&Op::fuse1d(dim(lines), in_w, c, k, 1, 0, Axis1d::Row))
                .ok()
        }
    }

    #[test]
    fn closed_form_matches_loop_accounting_on_grids() {
        // The checked closed-form fold accounting must reproduce the
        // simulators' loop-based analytic counts exactly, dataflow by
        // dataflow, including remainder tiles.
        for (rows, cols) in [(3usize, 5usize), (8, 8), (5, 3), (64, 64)] {
            let cfg = ArrayConfig::new(rows, cols).unwrap().with_broadcast(true);
            for m in [1usize, 2, 7, 64, 65, 200] {
                for k in [1usize, 3, 64, 130] {
                    for n in [1usize, 5, 64, 100] {
                        for dataflow in Dataflow::ALL {
                            let model = LatencyModel::new(cfg).with_dataflow(dataflow);
                            assert_eq!(
                                model.gemm_cycles(c64(m), c64(k), c64(n)),
                                Some(dataflow.analytic_cycles(&cfg, m, k, n)),
                                "{dataflow:?} {rows}x{cols} m={m} k={k} n={n}"
                            );
                        }
                    }
                }
            }
            for channels in [1usize, 3, 9] {
                for lines in [1usize, 5, 12] {
                    for l_out in [1usize, 2, 7, 30] {
                        for k in [1usize, 3, 5] {
                            let model = LatencyModel::new(cfg);
                            assert_eq!(
                                model.fuse_cycles(c64(channels), c64(lines), c64(l_out), c64(k)),
                                Some(conv1d::analytic_cycles_packed(
                                    &cfg, channels, lines, l_out, k
                                )),
                                "fuse {rows}x{cols} c={channels} lines={lines} \
                                 l_out={l_out} k={k}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn huge_shapes_error_instead_of_wrapping() {
        // Regression: these shapes previously wrapped the u64 accumulator
        // in release builds (and the loop-based accounting would not even
        // terminate in reasonable time). They must now fail fast.
        let model = LatencyModel::new(array64());
        let big = 3_000_000_000usize; // 3e9: m = oh·ow ≈ 9e18 still fits u64…
        let huge_pw = Op::pointwise(big, big, 4_000_000_000, 4_000_000_000);
        assert!(matches!(
            model.cycles(&huge_pw),
            Err(LatencyError::ArithmeticOverflow { .. })
        ));
        assert!(matches!(
            model.fold_plan(&huge_pw),
            Err(LatencyError::ArithmeticOverflow { .. })
        ));
        // …and per-channel × channel-count products are checked too.
        let huge_dw = Op::depthwise(big, 1_000_000, 4_000_000_000, 3, 1, 1);
        assert!(matches!(
            model.cycles(&huge_dw),
            Err(LatencyError::ArithmeticOverflow { .. })
        ));
        // Overflow holds across every dataflow × overlap combination.
        for dataflow in Dataflow::ALL {
            for overlap in [FoldOverlap::Serial, FoldOverlap::DoubleBuffered] {
                let m = model.with_dataflow(dataflow).with_overlap(overlap);
                assert!(
                    matches!(
                        m.cycles(&huge_pw),
                        Err(LatencyError::ArithmeticOverflow { .. })
                    ),
                    "{dataflow:?} {overlap:?}"
                );
            }
        }
    }

    #[test]
    fn depthwise_uses_single_column_pathology() {
        let model = LatencyModel::new(array64());
        // Same MAC budget: 64 channels of 3x3 depthwise on 56x56 vs a
        // pointwise with identical MACs (in_c=9).
        let dw = Op::depthwise(56, 56, 64, 3, 1, 1);
        let pw = Op::pointwise(56, 56, 9, 64);
        assert_eq!(dw.macs(), pw.macs());
        let (dwc, pwc) = (model.cycles(&dw).unwrap(), model.cycles(&pw).unwrap());
        assert!(
            dwc > 10 * pwc,
            "depthwise {dwc} should be >10x pointwise {pwc} at equal MACs"
        );
    }

    #[test]
    fn fuse_beats_depthwise_it_replaces() {
        let model = LatencyModel::new(array64());
        for (h, c, k, s) in [(112, 64, 3, 1), (56, 128, 3, 2), (14, 512, 5, 1)] {
            let dw = Op::depthwise(h, h, c, k, s, k / 2);
            // Half variant: row+col banks on c/2 channels each.
            let row = Op::fuse1d(h, h, c / 2, k, s, k / 2, Axis1d::Row);
            let col = Op::fuse1d(h, h, c / 2, k, s, k / 2, Axis1d::Col);
            let dwc = model.cycles(&dw).unwrap();
            let fc = model.cycles(&row).unwrap() + model.cycles(&col).unwrap();
            assert!(
                fc * 3 < dwc,
                "fuse {fc} should be >3x faster than depthwise {dwc} (h={h} c={c} k={k} s={s})"
            );
        }
    }

    #[test]
    fn fuse_requires_broadcast() {
        let plain = LatencyModel::new(ArrayConfig::square(64).unwrap());
        let op = Op::fuse1d(56, 56, 32, 3, 1, 1, Axis1d::Row);
        assert!(matches!(
            plain.cycles(&op),
            Err(LatencyError::BroadcastRequired { .. })
        ));
    }

    #[test]
    fn analytic_matches_cycle_simulation_for_gemm_ops() {
        // Estimate a small pointwise op, then run the actual simulator on
        // the equivalent GEMM and compare cycles exactly.
        let cfg = ArrayConfig::new(5, 7).unwrap().with_broadcast(true);
        let model = LatencyModel::new(cfg);
        let op = Op::pointwise(4, 3, 6, 9); // M=12, K=6, N=9
        let est = model.cycles(&op).unwrap();
        let a = Tensor::full(&[12, 6], 1.0).unwrap();
        let b = Tensor::full(&[6, 9], 1.0).unwrap();
        let sim = gemm::simulate(&cfg, &a, &b).unwrap();
        assert_eq!(est, sim.cycles());
    }

    #[test]
    fn analytic_matches_cycle_simulation_for_fuse_ops() -> Result<(), ConfigError> {
        let cfg = ArrayConfig::new(4, 6)?.with_broadcast(true);
        let model = LatencyModel::new(cfg);
        // Stride-1 row bank: c=3 channels on a 5x8 map, k=3 → 15 convs of
        // l_out 6.
        let op = Op::fuse1d(5, 8, 3, 3, 1, 1, Axis1d::Row);
        let est = model.cycles(&op).unwrap();
        // 3 channels × 5 lines. Padding 1 makes each line 10 long, so
        // l_out = 10 − 3 + 1 = 8, matching the descriptor's ow.
        let work: Vec<conv1d::ChannelLines> = (0..3)
            .map(|_| conv1d::ChannelLines {
                kernel: vec![1.0; 3],
                lines: (0..5).map(|_| vec![1.0; 10]).collect(),
            })
            .collect();
        let sim = conv1d::simulate_packed(&cfg, &work)?;
        assert_eq!(est, sim.cycles());
        Ok(())
    }

    #[test]
    fn strided_fuse_counts_surviving_lines_only() {
        let model = LatencyModel::new(array64());
        let s1 = Op::fuse1d(112, 112, 32, 3, 1, 1, Axis1d::Row);
        let s2 = Op::fuse1d(112, 112, 32, 3, 2, 1, Axis1d::Row);
        // Stride 2 processes half the lines and half the positions: at
        // least ~3x cheaper.
        let (c1, c2) = (model.cycles(&s1).unwrap(), model.cycles(&s2).unwrap());
        assert!(c2 * 3 < c1, "stride-2 {c2} vs stride-1 {c1}");
    }

    #[test]
    fn fc_uses_single_row() {
        // M = 1: only one array row active; cycles dominated by K.
        let model = LatencyModel::new(array64());
        let op = Op::fc(1024, 1000);
        let cycles = model.cycles(&op).unwrap();
        // 15 full column tiles of 64 plus a 40-wide remainder tile:
        // 15 × (2 + 64 + 1024 − 2) + (2 + 40 + 1024 − 2).
        assert_eq!(cycles, 15 * (2 + 64 + 1024 - 2) + (2 + 40 + 1024 - 2));
    }

    #[test]
    fn full_and_half_variant_op_sets_order_correctly() {
        // For the same block, Half's bank pair is cheaper than Full's.
        let model = LatencyModel::new(array64());
        let mk = |variant: FuSeVariant| -> u64 {
            let per_bank = 128 / variant.d();
            let row = Op::fuse1d(28, 28, per_bank, 3, 1, 1, Axis1d::Row);
            let col = Op::fuse1d(28, 28, per_bank, 3, 1, 1, Axis1d::Col);
            model.cycles(&row).unwrap() + model.cycles(&col).unwrap()
        };
        assert!(mk(FuSeVariant::Half) < mk(FuSeVariant::Full));
    }

    #[test]
    fn larger_arrays_never_slower() {
        let ops = [
            Op::conv2d(56, 56, 32, 64, 3, 1, 1),
            Op::depthwise(56, 56, 64, 3, 1, 1),
            Op::pointwise(28, 28, 96, 160),
            Op::fuse1d(56, 56, 32, 3, 1, 1, Axis1d::Col),
            Op::fc(512, 1000),
        ];
        for op in ops {
            let mut prev = u64::MAX;
            for s in [8usize, 16, 32, 64, 128] {
                let m = LatencyModel::new(ArrayConfig::square(s).unwrap().with_broadcast(true));
                let c = m.cycles(&op).unwrap();
                assert!(
                    c <= prev,
                    "{op}: cycles increased from {prev} to {c} at size {s}"
                );
                prev = c;
            }
        }
    }

    #[test]
    fn dataflow_ablation_preserves_fuse_advantage() {
        // Under either dataflow for the GEMM-lowered ops, FuSe networks
        // still beat their baselines — the paper's conclusion is not an
        // artifact of the output-stationary choice.
        use crate::map::Dataflow;
        for dataflow in [Dataflow::OutputStationary, Dataflow::WeightStationary] {
            let model = LatencyModel::new(array64()).with_dataflow(dataflow);
            let dw = Op::depthwise(56, 56, 128, 3, 1, 1);
            let row = Op::fuse1d(56, 56, 64, 3, 1, 1, Axis1d::Row);
            let col = Op::fuse1d(56, 56, 64, 3, 1, 1, Axis1d::Col);
            let dwc = model.cycles(&dw).unwrap();
            let fc = model.cycles(&row).unwrap() + model.cycles(&col).unwrap();
            assert!(fc < dwc, "{dataflow:?}: fuse {fc} vs dw {dwc}");
        }
    }

    #[test]
    fn input_stationary_wins_for_wide_pointwise() {
        use crate::map::Dataflow;
        // A pointwise layer at 7x7 with few pixels but many output
        // channels: the input tile fits, the filters stream once.
        let op = Op::pointwise(7, 7, 64, 1280);
        let os = LatencyModel::new(array64());
        let is = LatencyModel::new(array64()).with_dataflow(Dataflow::InputStationary);
        assert!(is.cycles(&op).unwrap() < os.cycles(&op).unwrap());
        // Double-buffered input-stationary is never slower than serial.
        let is_db = is.with_overlap(crate::map::FoldOverlap::DoubleBuffered);
        assert!(is_db.cycles(&op).unwrap() <= is.cycles(&op).unwrap());
    }

    #[test]
    fn weight_stationary_trades_differently_than_output_stationary() {
        use crate::map::Dataflow;
        let os = LatencyModel::new(array64());
        let ws = LatencyModel::new(array64()).with_dataflow(Dataflow::WeightStationary);
        // Depthwise (tall-skinny GEMMs): WS streams pixels once per channel
        // and wins.
        let dw = Op::depthwise(56, 56, 128, 3, 1, 1);
        assert!(ws.cycles(&dw).unwrap() < os.cycles(&dw).unwrap());
        // FC (deep reduction, M = 1): OS wins.
        let fc = Op::fc(1024, 1000);
        assert!(os.cycles(&fc).unwrap() < ws.cycles(&fc).unwrap());
        // Accessors round-trip.
        assert_eq!(ws.dataflow(), Dataflow::WeightStationary);
        assert_eq!(os.dataflow(), Dataflow::OutputStationary);
    }

    #[test]
    fn ws_double_buffering_is_cheaper_than_ws_serial() {
        use crate::map::{Dataflow, FoldOverlap};
        let serial = LatencyModel::new(array64()).with_dataflow(Dataflow::WeightStationary);
        let piped = serial.with_overlap(FoldOverlap::DoubleBuffered);
        // Multi-fold ops overlap strictly; a single-fold op (the stem
        // conv: k = 27 ≤ rows, n = 32 ≤ cols) has nothing to overlap and
        // costs the same.
        for op in [Op::pointwise(28, 28, 192, 64), Op::fc(512, 1000)] {
            assert!(
                piped.cycles(&op).unwrap() < serial.cycles(&op).unwrap(),
                "{op}"
            );
        }
        let stem = Op::conv2d(112, 112, 3, 32, 3, 2, 1);
        assert_eq!(piped.cycles(&stem).unwrap(), serial.cycles(&stem).unwrap());
    }

    #[test]
    fn double_buffering_is_cheaper_but_preserves_ordering() {
        use crate::map::FoldOverlap;
        let serial = LatencyModel::new(array64());
        let piped = LatencyModel::new(array64()).with_overlap(FoldOverlap::DoubleBuffered);
        let ops = [
            Op::conv2d(112, 112, 3, 32, 3, 2, 1),
            Op::depthwise(56, 56, 128, 3, 1, 1),
            Op::pointwise(28, 28, 192, 64),
            Op::fuse1d(56, 56, 64, 3, 1, 1, Axis1d::Row),
            Op::fuse1d(7, 7, 960, 5, 1, 2, Axis1d::Col),
            Op::fc(1280, 1000),
        ];
        for op in &ops {
            let s = serial.cycles(op).unwrap();
            let p = piped.cycles(op).unwrap();
            assert!(p < s, "{op}: double-buffered {p} not below serial {s}");
            // Overlap can at best halve the time of any single op here.
            assert!(p * 3 > s, "{op}: {p} suspiciously below {s}");
        }
        // The depthwise-vs-fuse ordering that drives the paper's result is
        // insensitive to the overlap mode.
        for model in [serial, piped] {
            let dw = model.cycles(&ops[1]).unwrap();
            let fuse = model.cycles(&ops[3]).unwrap() * 2;
            assert!(fuse < dw);
        }
    }

    #[test]
    fn error_display() {
        let e = LatencyError::BroadcastRequired {
            op: "fuse 1x3".into(),
        };
        assert!(e.to_string().contains("broadcast"));
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use fuseconv_nn::ops::Op;
    use fuseconv_systolic::ArrayConfig;

    fn model(batch: usize) -> LatencyModel {
        LatencyModel::new(ArrayConfig::square(64).unwrap().with_broadcast(true)).with_batch(batch)
    }

    #[test]
    fn fc_amortizes_under_batching_depthwise_does_not() {
        // Per-sample FC cost collapses with batch (the single row becomes a
        // full tile); per-sample depthwise cost stays flat (batching adds
        // rows, never a second column).
        let fc = Op::fc(1024, 1000);
        let dw = Op::depthwise(56, 56, 64, 3, 1, 1);
        let per_sample = |op: &Op, b: usize| model(b).cycles(op).unwrap() as f64 / b as f64;
        assert!(
            per_sample(&fc, 64) < per_sample(&fc, 1) / 10.0,
            "fc: {} vs {}",
            per_sample(&fc, 64),
            per_sample(&fc, 1)
        );
        let dw_ratio = per_sample(&dw, 8) / per_sample(&dw, 1);
        assert!(
            dw_ratio > 0.9,
            "depthwise per-sample cost should barely amortize, ratio {dw_ratio:.2}"
        );
    }

    #[test]
    fn batch_scales_whole_networks_superlinearly_never() {
        use fuseconv_models::zoo;
        let net = zoo::mobilenet_v2();
        let b1 = crate::estimate_network(&model(1), &net)
            .unwrap()
            .total_cycles;
        let b4 = crate::estimate_network(&model(4), &net)
            .unwrap()
            .total_cycles;
        // Batched work is at most linear and at least one-batch's worth.
        assert!(b4 <= 4 * b1);
        assert!(b4 >= b1);
    }

    #[test]
    #[should_panic(expected = "batch must be nonzero")]
    fn zero_batch_panics() {
        let _ = model(0);
    }
}
