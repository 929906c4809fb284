//! Per-fold provenance: the analytic model's fold-by-fold plan.
//!
//! [`LatencyModel::cycles`] reports one number per operator; this module
//! exposes the folds behind that number as [`FoldSpec`]s, each tagged with
//! its dataflow, occupancy and fill/compute/drain split. The specs serve
//! two purposes:
//!
//! * **Cross-referencing** — a traced simulation of the same op produces
//!   folds in the same order with the same phase lengths, so analytic and
//!   simulated folds can be matched one-to-one (the `trace_cross_check`
//!   integration test enforces this).
//! * **Replay** — [`fuseconv_trace::replay`] turns a plan into the trace
//!   event stream directly, which is how whole-network traces are produced
//!   without cycle-simulating millions of cycles.
//!
//! Plans always use [`FoldOverlap::Serial`] accounting (folds back to
//! back, exactly like the cycle simulator): under the default serial mode
//! the plan's total cycles equal [`LatencyModel::cycles`] exactly.
//!
//! [`FoldOverlap::Serial`]: crate::FoldOverlap::Serial

use crate::map::{c32, c64, Dataflow, FoldOverlap, LatencyError, LatencyModel};
use fuseconv_nn::ops::{Axis1d, Op};
use fuseconv_systolic::conv1d;
use fuseconv_trace::{FoldKind, FoldSpec};

fn check_nonzero(op: &Op, dims: &[usize]) -> Result<(), LatencyError> {
    if dims.contains(&0) {
        Err(LatencyError::DegenerateOp { op: op.to_string() })
    } else {
        Ok(())
    }
}

/// Saturating `Σ dims − sub` in `u64`: a fold-phase length. Saturation is
/// unreachable in practice because [`LatencyModel::fold_plan`] first
/// proves the plan's total cycles fit `u64` via the checked accounting.
fn phase(dims: &[usize], sub: u64) -> u64 {
    dims.iter()
        .map(|&d| c64(d))
        .fold(0u64, u64::saturating_add)
        .saturating_sub(sub)
}

/// Saturating three-way product in `u64`: a fold's MAC count.
fn macs3(a: usize, b: usize, c: usize) -> u64 {
    c64(a).saturating_mul(c64(b)).saturating_mul(c64(c))
}

impl LatencyModel {
    /// Emits one fold per GEMM tile under the configured dataflow.
    fn gemm_plan(&self, m: usize, k: usize, n: usize, out: &mut Vec<FoldSpec>) {
        let (rows, cols) = (self.array().rows(), self.array().cols());
        match self.dataflow() {
            Dataflow::OutputStationary => {
                for row0 in (0..m).step_by(rows) {
                    let ru = rows.min(m - row0);
                    for col0 in (0..n).step_by(cols) {
                        let cu = cols.min(n - col0);
                        out.push(FoldSpec {
                            tag: 0,
                            kind: FoldKind::OutputStationary,
                            rows_used: c32(ru),
                            cols_used: c32(cu),
                            fill: 0,
                            compute: phase(&[ru, cu, k], 2),
                            drain: c64(ru),
                            macs: macs3(ru, cu, k),
                        });
                    }
                }
            }
            Dataflow::WeightStationary => {
                for k0 in (0..k).step_by(rows) {
                    let ru = rows.min(k - k0);
                    for n0 in (0..n).step_by(cols) {
                        let cu = cols.min(n - n0);
                        out.push(FoldSpec {
                            tag: 0,
                            kind: FoldKind::WeightStationary,
                            rows_used: c32(ru),
                            cols_used: c32(cu),
                            fill: c64(ru),
                            compute: phase(&[m, ru, cu], 2),
                            drain: 0,
                            macs: macs3(ru, cu, m),
                        });
                    }
                }
            }
            Dataflow::InputStationary => {
                for m0 in (0..m).step_by(rows) {
                    let ru = rows.min(m - m0);
                    for k0 in (0..k).step_by(cols) {
                        let cu = cols.min(k - k0);
                        out.push(FoldSpec {
                            tag: 0,
                            kind: FoldKind::InputStationary,
                            rows_used: c32(ru),
                            cols_used: c32(cu),
                            fill: c64(cu),
                            compute: phase(&[n, ru, cu], 2),
                            drain: 0,
                            macs: macs3(ru, cu, n),
                        });
                    }
                }
            }
        }
    }

    /// Emits the packed row-broadcast folds (mirrors
    /// `conv1d::analytic_cycles_packed` tile by tile).
    fn fuse_plan(
        &self,
        channels: usize,
        lines: usize,
        l_out: usize,
        k: usize,
        out: &mut Vec<FoldSpec>,
    ) {
        let (rows, cols) = (self.array().rows(), self.array().cols());
        let lpr = conv1d::lines_per_row(self.array(), channels, lines, l_out, k);
        let slots_per_channel = lines.div_ceil(lpr);
        // Per-slot line counts, channel-major: full slots of `lpr` lines
        // plus one remainder slot per channel.
        let slot_lines: Vec<usize> = (0..channels)
            .flat_map(|_| (0..slots_per_channel).map(move |s| lpr.min(lines - s * lpr)))
            .collect();
        for slot0 in (0..slot_lines.len()).step_by(rows) {
            let chunk = &slot_lines[slot0..slot_lines.len().min(slot0 + rows)];
            let ru = chunk.len();
            if lpr == 1 {
                for c0 in (0..l_out).step_by(cols) {
                    let cw = cols.min(l_out - c0);
                    out.push(FoldSpec {
                        tag: 0,
                        kind: FoldKind::RowBroadcast,
                        rows_used: c32(ru),
                        cols_used: c32(cw),
                        fill: phase(&[cw, k], 1),
                        compute: c64(k),
                        drain: c64(ru),
                        macs: macs3(ru, cw, k),
                    });
                }
            } else {
                let nominal_width = lpr * l_out;
                let busy: u64 = chunk
                    .iter()
                    .map(|&n| c64(n).saturating_mul(c64(l_out)))
                    .fold(0u64, u64::saturating_add);
                out.push(FoldSpec {
                    tag: 0,
                    kind: FoldKind::RowBroadcast,
                    rows_used: c32(ru),
                    cols_used: c32(nominal_width),
                    fill: phase(&[nominal_width, k], 1),
                    compute: c64(k),
                    drain: c64(ru),
                    macs: busy.saturating_mul(c64(k)),
                });
            }
        }
    }

    /// The fold-by-fold plan behind [`LatencyModel::cycles`] for one
    /// operator, under serial fold accounting.
    ///
    /// Folds are emitted in exactly the order the cycle simulator executes
    /// them; with [`FoldOverlap::Serial`](crate::FoldOverlap::Serial) (the
    /// default) the plan's summed cycles equal [`LatencyModel::cycles`]
    /// and the per-fold MACs sum to
    /// [`Op::macs`]. All specs carry `tag = 0`; callers
    /// replaying several ops re-tag them (typically with the op's index).
    ///
    /// # Errors
    ///
    /// Same conditions as [`LatencyModel::cycles`]:
    /// [`LatencyError::BroadcastRequired`] for a FuSe operator on a
    /// broadcast-less array, [`LatencyError::DegenerateOp`] for zero-sized
    /// work, [`LatencyError::ArithmeticOverflow`] when the serial cycle
    /// total the plan describes does not fit `u64`.
    pub fn fold_plan(&self, op: &Op) -> Result<Vec<FoldSpec>, LatencyError> {
        let _span = fuseconv_telemetry::span("latency.fold_plan");
        // Plans document serial accounting; prove that total fits u64
        // before emitting a single spec, so overflow is an error here too.
        self.with_overlap(FoldOverlap::Serial).cycles(op)?;
        let (oh, ow, _) = op.output_shape();
        let mut plan = Vec::new();
        match *op {
            Op::Conv2d { in_c, out_c, k, .. } => {
                let m = oh * ow * self.batch();
                let kdim = k * k * in_c;
                check_nonzero(op, &[m, kdim, out_c])?;
                self.gemm_plan(m, kdim, out_c, &mut plan);
            }
            Op::Depthwise { c, k, .. } => {
                let m = oh * ow * self.batch();
                check_nonzero(op, &[m, k * k, c])?;
                // One single-column GEMM per channel (§III-B).
                for _ in 0..c {
                    self.gemm_plan(m, k * k, 1, &mut plan);
                }
            }
            Op::Pointwise { in_c, out_c, .. } => {
                let m = oh * ow * self.batch();
                check_nonzero(op, &[m, in_c, out_c])?;
                self.gemm_plan(m, in_c, out_c, &mut plan);
            }
            Op::FuSe1d { c, k, axis, .. } => {
                if !self.array().has_broadcast() {
                    return Err(LatencyError::BroadcastRequired { op: op.to_string() });
                }
                let (lines, l_out) = match axis {
                    Axis1d::Row => (oh, ow),
                    Axis1d::Col => (ow, oh),
                };
                check_nonzero(op, &[c, lines, l_out, k])?;
                self.fuse_plan(c, lines, l_out, k, &mut plan);
            }
            Op::Fc {
                in_features,
                out_features,
            } => {
                check_nonzero(op, &[in_features, out_features])?;
                self.gemm_plan(1, in_features, out_features, &mut plan);
            }
        }
        fuseconv_telemetry::counter("latency.folds_planned_total")
            .add(u64::try_from(plan.len()).unwrap_or(u64::MAX));
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::FoldOverlap;
    use fuseconv_systolic::ArrayConfig;

    fn array(rows: usize, cols: usize) -> ArrayConfig {
        ArrayConfig::new(rows, cols).unwrap().with_broadcast(true)
    }

    fn ops() -> Vec<Op> {
        vec![
            Op::conv2d(14, 14, 8, 24, 3, 1, 1),
            Op::depthwise(9, 9, 6, 3, 1, 1),
            Op::pointwise(7, 7, 12, 20),
            Op::fuse1d(12, 12, 5, 3, 1, 1, Axis1d::Row),
            Op::fuse1d(7, 7, 9, 5, 1, 2, Axis1d::Col),
            Op::fc(100, 37),
        ]
    }

    #[test]
    fn plan_totals_match_cycles_for_all_dataflows() {
        for (rows, cols) in [(4usize, 6usize), (8, 8), (5, 3), (64, 64)] {
            for dataflow in [
                Dataflow::OutputStationary,
                Dataflow::WeightStationary,
                Dataflow::InputStationary,
            ] {
                let model = LatencyModel::new(array(rows, cols)).with_dataflow(dataflow);
                for op in ops() {
                    let plan = model.fold_plan(&op).unwrap();
                    let total: u64 = plan.iter().map(FoldSpec::cycles).sum();
                    assert_eq!(
                        total,
                        model.cycles(&op).unwrap(),
                        "{rows}x{cols} {dataflow:?} {op}"
                    );
                    let macs: u64 = plan.iter().map(|f| f.macs).sum();
                    assert_eq!(macs, op.macs(), "{rows}x{cols} {dataflow:?} {op}");
                    assert!(!plan.is_empty());
                }
            }
        }
    }

    #[test]
    fn plan_respects_batching() {
        let model = LatencyModel::new(array(8, 8)).with_batch(3);
        let op = Op::pointwise(5, 5, 8, 8);
        let plan = model.fold_plan(&op).unwrap();
        let total: u64 = plan.iter().map(FoldSpec::cycles).sum();
        assert_eq!(total, model.cycles(&op).unwrap());
    }

    #[test]
    fn plan_is_serial_even_for_double_buffered_models() {
        // The plan documents serial accounting; a double-buffered model's
        // cycles() is smaller than the plan total for multi-fold ops.
        let serial = LatencyModel::new(array(8, 8));
        let piped = serial.with_overlap(FoldOverlap::DoubleBuffered);
        let op = Op::pointwise(28, 28, 192, 64);
        let plan_total: u64 = piped
            .fold_plan(&op)
            .unwrap()
            .iter()
            .map(FoldSpec::cycles)
            .sum();
        assert_eq!(plan_total, serial.cycles(&op).unwrap());
        assert!(piped.cycles(&op).unwrap() < plan_total);
    }

    #[test]
    fn fuse_plan_requires_broadcast() {
        let model = LatencyModel::new(ArrayConfig::square(8).unwrap());
        let op = Op::fuse1d(12, 12, 5, 3, 1, 1, Axis1d::Row);
        assert!(matches!(
            model.fold_plan(&op),
            Err(LatencyError::BroadcastRequired { .. })
        ));
    }

    #[test]
    fn depthwise_plan_is_single_column() {
        let model = LatencyModel::new(array(8, 8));
        let op = Op::depthwise(5, 5, 4, 3, 1, 1);
        let plan = model.fold_plan(&op).unwrap();
        assert!(plan.iter().all(|f| f.cols_used == 1));
        assert!(plan.iter().all(|f| f.kind == FoldKind::OutputStationary));
    }
}
