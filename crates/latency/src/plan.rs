//! The fold planner: the analytic model's fold plan, run-length encoded.
//!
//! A [`FoldSpec`] is one fold's dataflow, occupancy and fill/compute/drain
//! split. It carries shape, never an offset, so plans repeat themselves: a
//! GEMM's folds take at most four shapes (full or remainder tile on each
//! axis), and depthwise repeats one single-column GEMM per channel
//! (§III-B). [`LatencyModel::fold_runs`] therefore emits [`FoldRuns`],
//! repeated segments of `(FoldSpec, count)` runs, whose size does not
//! depend on `M`, `N`, `K` or `C`. It is the only planner:
//! [`LatencyModel::cycles`] and the analyzer price it run by run, and
//! [`LatencyModel::fold_plan`] expands it for consumers of single folds:
//!
//! * **Cross-referencing** — a traced simulation of the same op produces
//!   folds in the same order with the same phase lengths, so analytic and
//!   simulated folds can be matched one-to-one (the `trace_cross_check`
//!   integration test enforces this).
//! * **Replay** — [`fuseconv_trace::replay`] turns a plan into the trace
//!   event stream directly, which is how whole-network traces are produced
//!   without cycle-simulating millions of cycles.
//!
//! Plans use serial accounting (folds back to back, like the cycle
//! simulator): their total equals serial [`LatencyModel::cycles`].

#![cfg_attr(not(test), warn(clippy::as_conversions))]

use crate::map::{best_lpr, c64, tile_classes, Dataflow, FoldOverlap, LatencyError, LatencyModel};
use fuseconv_nn::ops::{Axis1d, Op};
use fuseconv_trace::{FoldKind, FoldSpec};
use std::borrow::Cow;

/// Saturating `Σ dims − sub`: a fold-phase length. A saturated phase never
/// goes unnoticed: every fold has another nonzero phase, so the checked
/// cycle total of [`LatencyModel::cycles`] overflows.
fn phase(dims: &[u64], sub: u64) -> u64 {
    dims.iter()
        .fold(0u64, |a, &d| a.saturating_add(d))
        .saturating_sub(sub)
}

/// Saturating `u64 → u32` conversion for fold-occupancy fields.
fn c32(x: u64) -> u32 {
    u32::try_from(x).unwrap_or(u32::MAX)
}

/// A segment of [`Runs`]: its runs back to back, `repeat` times.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Segment<T> {
    runs: Vec<(T, u64)>,
    repeat: u64,
}

impl<T> Segment<T> {
    /// Items in one pass over the runs.
    fn len(&self) -> u64 {
        self.runs.iter().fold(0u64, |a, r| a.saturating_add(r.1))
    }
}

/// A run-length sequence: segments of `(item, count)` runs, each segment
/// repeated, and the segment list itself repeated. Adjacent equal items of
/// a segment merge into one run. Counts saturate at `u64::MAX`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Runs<T> {
    segments: Vec<Segment<T>>,
    repeat: u64,
}

/// A run-length fold plan, as [`LatencyModel::fold_runs`] emits it.
pub type FoldRuns = Runs<FoldSpec>;

impl<T> Default for Runs<T> {
    fn default() -> Self {
        Runs {
            segments: Vec::new(),
            repeat: 1,
        }
    }
}

impl<T> Runs<T> {
    /// The same structure with every item mapped by `f` (no runs merge).
    pub(crate) fn map<U>(&self, f: impl Fn(&T) -> U) -> Runs<U> {
        let segments = self.segments.iter().map(|s| Segment {
            runs: s.runs.iter().map(|(item, n)| (f(item), *n)).collect(),
            repeat: s.repeat,
        });
        Runs {
            segments: segments.collect(),
            repeat: self.repeat,
        }
    }
}

impl<T: Copy + PartialEq> Runs<T> {
    /// One segment holding `items`, adjacent equal items merged.
    pub fn from_folds(items: &[T]) -> Self {
        let mut out = Runs::default();
        for &item in items {
            out.push(item, 1);
        }
        out
    }

    /// Appends `count` copies of `item`.
    pub(crate) fn push(&mut self, item: T, count: u64) {
        if count == 0 {
            return;
        }
        match self.segments.last_mut() {
            Some(s) if s.repeat == 1 => match s.runs.last_mut() {
                Some((last, n)) if *last == item => *n = n.saturating_add(count),
                _ => s.runs.push((item, count)),
            },
            _ => self.segments.push(Segment {
                runs: vec![(item, count)],
                repeat: 1,
            }),
        }
    }

    /// Appends `runs`, back to back, `repeat` times; unread if zero times.
    pub(crate) fn push_segment(&mut self, runs: impl IntoIterator<Item = (T, u64)>, repeat: u64) {
        if repeat == 0 {
            return;
        }
        let mut seg = Runs::default();
        for (item, count) in runs {
            seg.push(item, count);
        }
        match seg.segments.pop().map(|s| s.runs) {
            // A lone run repeated is one longer run.
            Some(runs) if runs.len() == 1 => {
                runs.into_iter()
                    .for_each(|(t, n)| self.push(t, n.saturating_mul(repeat)));
            }
            Some(runs) => self.segments.push(Segment { runs, repeat }),
            None => {}
        }
    }

    /// The whole sequence, `times` times over. Build the sequence first:
    /// items pushed afterwards would repeat with it.
    pub(crate) fn repeated(mut self, times: u64) -> Self {
        self.repeat = self.repeat.saturating_mul(times);
        self
    }

    /// Items in the expanded sequence.
    pub fn len(&self) -> u64 {
        self.runs().fold(0u64, |a, (_, _, n)| a.saturating_add(n))
    }

    /// Whether the expanded sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Each run once, in order of first occurrence, as `(index of its first
    /// item, item, count)` with the count spanning every repetition: what
    /// run-priced consumers visit, so their cost is independent of size.
    pub fn runs(&self) -> impl Iterator<Item = (u64, &T, u64)> {
        let outer = self.repeat;
        let mut start = 0u64;
        self.segments.iter().flat_map(move |s| {
            let (mut at, times) = (start, s.repeat.saturating_mul(outer));
            start = start.saturating_add(s.len().saturating_mul(s.repeat));
            s.runs.iter().map(move |(item, n)| {
                at = at.saturating_add(*n);
                (at - n, item, n.saturating_mul(times))
            })
        })
    }

    /// The expanded sequence: each segment's first pass written out, every
    /// repetition copied from it.
    pub(crate) fn expand(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(usize::try_from(self.len()).unwrap_or(0));
        for s in &self.segments {
            let start = out.len();
            for &(item, n) in &s.runs {
                let n = usize::try_from(n).unwrap_or(usize::MAX);
                out.extend(std::iter::repeat_n(item, n));
            }
            let pass = start..out.len();
            (1..s.repeat).for_each(|_| out.extend_from_within(pass.clone()));
        }
        let once = out.len();
        (1..self.repeat).for_each(|_| out.extend_from_within(..once));
        out
    }

    /// Every occurrence of every run in expanded order, as `(item, count)`:
    /// one entry per run per repetition.
    pub(crate) fn ordered_runs(&self) -> impl Iterator<Item = (T, u64)> + '_ {
        (0..self.repeat).flat_map(move |_| {
            self.segments
                .iter()
                .flat_map(|s| (0..s.repeat).flat_map(move |_| s.runs.iter().copied()))
        })
    }
}

/// A fold plan in either form. Run-priced consumers accept both: a
/// [`FoldRuns`] is read as is, a flat plan converted once with
/// [`Runs::from_folds`].
pub trait AsFoldRuns {
    /// The plan as runs.
    fn as_fold_runs(&self) -> Cow<'_, FoldRuns>;
}

impl AsFoldRuns for FoldRuns {
    fn as_fold_runs(&self) -> Cow<'_, FoldRuns> {
        Cow::Borrowed(self)
    }
}

impl AsFoldRuns for [FoldSpec] {
    fn as_fold_runs(&self) -> Cow<'_, FoldRuns> {
        Cow::Owned(FoldRuns::from_folds(self))
    }
}

impl AsFoldRuns for Vec<FoldSpec> {
    fn as_fold_runs(&self) -> Cow<'_, FoldRuns> {
        self.as_slice().as_fold_runs()
    }
}

/// What one operator runs as on the array, as [`LatencyModel::lowering`]
/// states it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lowering {
    /// An `m × k × n` GEMM under the model's dataflow, run `instances`
    /// times back to back: once per channel for depthwise, else once.
    Gemm {
        /// Rows of the streamed operand (output pixels × batch, or 1).
        m: u64,
        /// The reduction length.
        k: u64,
        /// Columns of the result.
        n: u64,
        /// Back-to-back repetitions of the whole GEMM.
        instances: u64,
    },
    /// `channels × lines` independent 1-D convolutions on the
    /// row-broadcast dataflow (§IV-C), each producing `l_out` outputs
    /// with a `k`-tap kernel.
    RowBroadcast {
        /// Channels, each with its own kernel.
        channels: u64,
        /// Output lines per channel.
        lines: u64,
        /// Outputs per line.
        l_out: u64,
        /// Kernel taps.
        k: u64,
        /// Input positions between consecutive outputs of a line.
        stride: u64,
    },
}

/// Receives a plan segment by segment as `(runs, repeat)`; counts may be 0.
pub(crate) type Emit<'a> = dyn FnMut(&[(FoldSpec, u64)], u64) + 'a;

impl LatencyModel {
    /// Emits the GEMM's fold grid under the configured dataflow: the
    /// column-tile runs, repeated once per row tile of each width.
    fn gemm_grid(&self, m: u64, k: u64, n: u64, emit: &mut Emit) {
        let dataflow = self.dataflow();
        // The two dims tiled onto the array, and the temporal one.
        let (dim_r, dim_c, t) = match dataflow {
            Dataflow::OutputStationary => (m, n, k),
            Dataflow::WeightStationary => (k, n, m),
            Dataflow::InputStationary => (m, k, n),
        };
        let spec = |ru: u64, cu: u64| {
            let (fill, drain) = match dataflow {
                Dataflow::OutputStationary => (0, ru),
                Dataflow::WeightStationary => (ru, 0),
                Dataflow::InputStationary => (cu, 0),
            };
            FoldSpec {
                tag: 0,
                kind: dataflow.fold_kind(),
                rows_used: c32(ru),
                cols_used: c32(cu),
                fill,
                compute: phase(&[ru, cu, t], 2),
                drain,
                macs: ru.saturating_mul(cu).saturating_mul(t),
            }
        };
        let (rows, cols) = (c64(self.array().rows()), c64(self.array().cols()));
        for (ru, row_tiles) in tile_classes(dim_r, rows) {
            emit(
                &tile_classes(dim_c, cols).map(|(cu, n)| (spec(ru, cu), n)),
                row_tiles,
            );
        }
    }

    /// Emits the packed row-broadcast folds (mirrors
    /// `conv1d::analytic_cycles_packed` tile by tile), or `None` when the
    /// slot count overflows. Each channel's lines pack `lpr` to a slot, its
    /// last slot holding the remainder; slots fill the array rows
    /// channel-major, one fold per `rows` slots.
    fn fuse_grid(
        &self,
        channels: u64,
        lines: u64,
        l_out: u64,
        k: u64,
        emit: &mut Emit,
    ) -> Option<()> {
        let (rows, cols) = (c64(self.array().rows()), c64(self.array().cols()));
        let lpr = best_lpr(rows, cols, channels, lines, l_out, k);
        let per_channel = lines.div_ceil(lpr);
        let slots = channels.checked_mul(per_channel)?;
        let spec = |ru: u64, width: u64, busy: u64| FoldSpec {
            tag: 0,
            kind: FoldKind::RowBroadcast,
            rows_used: c32(ru),
            cols_used: c32(width),
            fill: phase(&[width, k], 1),
            compute: k,
            drain: ru,
            macs: busy.saturating_mul(k),
        };
        if lpr == 1 {
            for (ru, row_tiles) in tile_classes(slots, rows) {
                emit(
                    &tile_classes(l_out, cols).map(|(cw, n)| (spec(ru, cw, ru * cw), n)),
                    row_tiles,
                );
            }
            return Some(());
        }
        // Fold `j` holds slots `j·rows..`; its busy lines fall `short` of
        // `lpr` per channel-final slot among them. That count depends only
        // on `j·rows mod per_channel`, so the full folds repeat with a
        // period of `per_channel` folds.
        let short = lpr * per_channel - lines;
        let width = lpr.saturating_mul(l_out);
        let fold = |j: u64| {
            let (start, end) = (j * rows, (j * rows).saturating_add(rows).min(slots));
            let finals = end / per_channel - start / per_channel;
            let busy = ((end - start) * lpr - finals * short).saturating_mul(l_out);
            (spec(end - start, width, busy), 1)
        };
        let periods = slots / rows / per_channel;
        if periods > 0 {
            emit(&(0..per_channel).map(fold).collect::<Vec<_>>(), periods);
        }
        for j in periods * per_channel..slots.div_ceil(rows) {
            emit(&[fold(j)], 1);
        }
        Some(())
    }

    /// What `op` runs as on the array: the crate docs' lowering table,
    /// in checked arithmetic at the model's batch. This is the table's
    /// only implementation; the planner, operand traffic, the analyzer
    /// and the traced simulator all read it.
    ///
    /// # Errors
    ///
    /// [`LatencyError::DegenerateOp`] for zero-sized work and
    /// [`LatencyError::ArithmeticOverflow`] when a GEMM dimension does not
    /// fit `u64`. Broadcast links are the planner's concern, not the
    /// lowering's: FuSe banks lower on any array.
    pub fn lowering(&self, op: &Op) -> Result<Lowering, LatencyError> {
        let (oh, ow, _) = op.output_shape();
        let nonzero = |dims: &[usize]| match dims.contains(&0) {
            true => Err(LatencyError::DegenerateOp { op: op.to_string() }),
            false => Ok(()),
        };
        let mul3 = |a: usize, b: usize, c: usize| {
            let ab = c64(a).checked_mul(c64(b));
            ab.and_then(|ab| ab.checked_mul(c64(c)))
                .ok_or_else(|| LatencyError::ArithmeticOverflow { op: op.to_string() })
        };
        // GEMM rows: every output pixel of every image in the batch.
        let rows = || mul3(oh, ow, self.batch());
        let gemm = |m, k, n, instances| Lowering::Gemm { m, k, n, instances };
        Ok(match *op {
            Op::Conv2d { in_c, out_c, k, .. } => {
                nonzero(&[oh, ow, k, in_c, out_c])?;
                gemm(rows()?, mul3(k, k, in_c)?, c64(out_c), 1)
            }
            // One single-column GEMM per channel: no reuse across channels,
            // one array column used (§III-B). Batching adds rows but never
            // a second column: it cannot rescue depthwise utilization.
            Op::Depthwise { c, k, .. } => {
                nonzero(&[oh, ow, k, c])?;
                gemm(rows()?, mul3(k, k, 1)?, 1, c64(c))
            }
            Op::Pointwise { in_c, out_c, .. } => {
                nonzero(&[oh, ow, in_c, out_c])?;
                gemm(rows()?, c64(in_c), c64(out_c), 1)
            }
            // Each surviving output line of each channel is one independent
            // 1-D convolution (Fig. 6's slicing); lines of the same channel
            // share their kernel and can pack side by side within an array
            // row. Batched images do not add lines yet: a FuSe bank costs
            // the same at every batch.
            Op::FuSe1d {
                c, k, stride, axis, ..
            } => {
                let (lines, l_out) = match axis {
                    Axis1d::Row => (oh, ow),
                    Axis1d::Col => (ow, oh),
                };
                nonzero(&[c, lines, l_out, k])?;
                let [channels, lines, l_out, k, stride] = [c, lines, l_out, k, stride].map(c64);
                Lowering::RowBroadcast {
                    channels,
                    lines,
                    l_out,
                    k,
                    stride,
                }
            }
            // A single GEMM row: batched images do not add rows yet.
            Op::Fc {
                in_features,
                out_features,
            } => {
                nonzero(&[in_features, out_features])?;
                gemm(1, c64(in_features), c64(out_features), 1)
            }
        })
    }

    /// Emits one instance of `op`'s fold plan and returns how many times it
    /// runs back to back: once per channel for depthwise, else once.
    pub(crate) fn lower(&self, op: &Op, emit: &mut Emit) -> Result<u64, LatencyError> {
        match self.lowering(op)? {
            Lowering::Gemm { m, k, n, instances } => {
                self.gemm_grid(m, k, n, emit);
                Ok(instances)
            }
            Lowering::RowBroadcast {
                channels,
                lines,
                l_out,
                k,
                ..
            } => {
                if !self.array().has_broadcast() {
                    return Err(LatencyError::BroadcastRequired { op: op.to_string() });
                }
                self.fuse_grid(channels, lines, l_out, k, emit)
                    .ok_or_else(|| LatencyError::ArithmeticOverflow { op: op.to_string() })?;
                Ok(1)
            }
        }
    }

    /// The fold plan behind [`LatencyModel::cycles`] for one operator, as
    /// runs, under serial fold accounting.
    ///
    /// This is the only planner: [`LatencyModel::cycles`] prices the same
    /// segments as they are emitted, and [`LatencyModel::fold_plan`]
    /// expands the runs. Storage does not depend
    /// on the operator's size: a GEMM plans in at most two segments of at
    /// most two runs, and depthwise repeats one channel's GEMM plan `C`
    /// times. The `latency.folds_planned_total` counter counts the
    /// expanded folds.
    ///
    /// # Errors
    ///
    /// Same as [`LatencyModel::fold_plan`].
    pub fn fold_runs(&self, op: &Op) -> Result<FoldRuns, LatencyError> {
        // Plans document serial accounting; pricing them serially proves
        // the total fits u64, so overflow is an error here too.
        let mut plan = FoldRuns::default();
        let serial = self.with_overlap(FoldOverlap::Serial);
        let (_, instances) = serial.priced(op, &mut |runs, repeat| {
            plan.push_segment(runs.iter().copied(), repeat);
        })?;
        let plan = plan.repeated(instances);
        fuseconv_telemetry::counter("latency.folds_planned_total").add(plan.len());
        Ok(plan)
    }

    /// The fold-by-fold plan behind [`LatencyModel::cycles`] for one
    /// operator, under serial fold accounting: [`LatencyModel::fold_runs`]
    /// expanded in order.
    ///
    /// Folds are emitted in exactly the order the cycle simulator executes
    /// them; with [`FoldOverlap::Serial`] (the
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
        Ok(self.fold_runs(op)?.expand())
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
            for dataflow in Dataflow::ALL {
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
