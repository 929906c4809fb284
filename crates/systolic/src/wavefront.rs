//! The one fold driver behind the three GEMM dataflows.
//!
//! Output-, weight- and input-stationary GEMM run the same skewed
//! wavefront: one operand tile is pinned (or, for output-stationary,
//! accumulated) in the PEs, the third GEMM dimension streams through, and
//! PE `(i, j)` handles stream step `s` at window cycle `t = s + i + j`. They
//! differ only in which GEMM axes the array rows, array columns and stream
//! steps index, and in which operand (if any) is preloaded — all of which
//! follows from the [`Dataflow`]. [`Dataflow::simulate`] does the rest:
//!
//! - **MACs** run per fold in register tiles: row pairs take 2 × 16
//!   output tiles, then at most one 2 × 8 tile, then a plain row loop over
//!   the last < 8 columns; an odd last row (every single-row FC fold) runs
//!   the row loop across the whole fold width. A tile loads its
//!   accumulators from the output, and each ascending reduction step adds
//!   one scaled `B` row slice per row. Every output accumulates from `0.0`
//!   in ascending reduction order — also across the `K`-tiles of WS and
//!   IS, whose tile loop ascends and whose tiles resume from the stored
//!   partial sum — so results are bit-identical to
//!   [`matmul`](fuseconv_tensor::gemm::matmul).
//! - **Busy counts** are closed-form. The PEs busy at window cycle `t` are
//!   the anti-diagonals `d ∈ (t − S, t]` of the `ru × cu` fold, so
//!   `busy(t) = busy(t − 1) + D(t) − D(t − S)` with
//!   `D(d) = #{(i, j) : i + j = d}`. Unless the sink wants per-cycle
//!   events ([`TraceSink::wants_cycles`]) or finer ones, a fold appends
//!   its busy trace in bulk: zeros for fill and drain, the closed-form
//!   band for the window.
//! - **Per-cycle, per-PE and per-operand events** come from a per-cycle
//!   loop that only narrates; it runs only when the sink opts in, and
//!   debug builds assert that its busy count equals the closed form.

use crate::{tick, ArrayConfig, ConfigError, SimResult};
use fuseconv_tensor::Tensor;
use fuseconv_trace::{FoldKind, Operand, Phase, TraceEvent, TraceSink};
use std::ops::Range;

/// A GEMM dimension: `C[M×N] = A[M×K] · B[K×N]`.
#[derive(Clone, Copy)]
pub(crate) enum Axis {
    M = 0,
    K = 1,
    N = 2,
}

/// Which systolic dataflow executes a GEMM (§II-C): which operand, if
/// any, stays in the PEs. That one choice decides everything else about a
/// fold — the index map, the fill, the drain, the edge partial sums leave
/// through, and the trace and telemetry names.
///
/// The paper evaluates output-stationary only (§V-A-3); the other two
/// serve the dataflow ablation. FuSeConv's row-broadcast dataflow
/// ([`crate::conv1d`]) is orthogonal to this choice.
///
/// Work larger than the array runs in *folds*: array-sized tiles over the
/// two GEMM axes the array rows and columns index. A fold of used size
/// `ru × cu` streams `S` steps (the third axis) through a skewed window of
/// `S + ru + cu − 2` cycles, plus the dataflow's fill and drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dataflow {
    /// Outputs accumulate in the PEs (Fig. 1(d)): `A` streams in from the
    /// left, one array row per output row, and `B` from the top, one array
    /// column per output column. PE `(i, j)` at stream step `s` handles
    /// `(m, k, n) = (r0 + i, s, c0 + j)`. Folds tile `M × N`; there is no
    /// fill, and the outputs drain down the columns for `ru` cycles:
    ///
    /// ```text
    /// T_fold = (ru + cu + K − 2) + ru = 2·ru + cu + K − 2
    /// ```
    ///
    /// (the SCALE-Sim output-stationary formula). The paper's setting and
    /// the default.
    #[default]
    OutputStationary,
    /// A `B` (filter) tile is pinned, one array row per fill cycle, and the
    /// rows of `A` stream through: `(m, k, n) = (s, r0 + i, c0 + j)`.
    /// Partial sums flow down the columns and leave through the bottom
    /// row. Folds tile `K × N`; the temporal dimension is `M`:
    ///
    /// ```text
    /// T_fold = ru + (M + ru + cu − 2) = 2·ru + cu + M − 2
    /// ```
    ///
    /// `K`-tiles accumulate into the same outputs, which a real
    /// accelerator does in its output SRAM at no extra array cycles.
    WeightStationary,
    /// An `A` (ifmap) tile is pinned, one array column per fill cycle, and
    /// the columns of `B` stream through: `(m, k, n) = (r0 + i, c0 + j, s)`.
    /// Partial sums flow rightward along the rows and leave through the
    /// right column. Folds tile `M × K`; the temporal dimension is `N`:
    ///
    /// ```text
    /// T_fold = cu + (N + ru + cu − 2) = ru + 2·cu + N − 2
    /// ```
    ///
    /// `K`-tiles accumulate in output SRAM, as under weight-stationary.
    InputStationary,
}

/// One array-sized tile: origin and used extent along the row and column
/// axes.
#[derive(Clone, Copy)]
struct Fold {
    r0: usize,
    ru: usize,
    c0: usize,
    cu: usize,
}

/// PEs on anti-diagonal `d` of a `ru × cu` block: `#{(i, j) : i + j = d}`.
fn diagonal(ru: usize, cu: usize, d: usize) -> u32 {
    if d + 1 >= ru + cu {
        return 0;
    }
    (d + 1).min(ru).min(cu).min(ru + cu - 1 - d) as u32
}

/// Busy PEs at each window cycle of a `ru × cu` fold streaming `s` steps:
/// PE `(i, j)` is busy at `t` when `0 ≤ t − i − j < s`, so the count is the
/// sliding sum of [`diagonal`] over `(t − s, t]`.
fn band(ru: usize, cu: usize, s: usize) -> impl Iterator<Item = u32> {
    (0..s + ru + cu - 2).scan(0u32, move |busy, t| {
        *busy += diagonal(ru, cu, t);
        if t >= s {
            *busy -= diagonal(ru, cu, t - s);
        }
        Some(*busy)
    })
}

/// Appends [`band`]`(ru, cu, s)` to `trace`. Once `s ≥ ru + cu − 1` the
/// window is a rising edge of `ru + cu − 2` cycles, a plateau with all
/// `ru·cu` PEs busy, and a falling edge that mirrors the rising one
/// (`busy(s + j) = ru·cu − busy(j)`), so only the edge is scanned.
fn push_band(trace: &mut Vec<u32>, ru: usize, cu: usize, s: usize) {
    let edge = ru + cu - 2;
    if s <= edge {
        trace.extend(band(ru, cu, s));
        return;
    }
    let (start, full) = (trace.len(), (ru * cu) as u32);
    trace.extend(band(ru, cu, s).take(edge));
    trace.resize(start + s, full);
    trace.extend_from_within(start..start + edge);
    for busy in &mut trace[start + s..] {
        *busy = full - *busy;
    }
}

impl Dataflow {
    /// The three GEMM dataflows, output-stationary first.
    pub const ALL: [Dataflow; 3] = [
        Dataflow::OutputStationary,
        Dataflow::WeightStationary,
        Dataflow::InputStationary,
    ];

    /// The trace kind of every fold this dataflow runs.
    pub fn fold_kind(self) -> FoldKind {
        match self {
            Self::OutputStationary => FoldKind::OutputStationary,
            Self::WeightStationary => FoldKind::WeightStationary,
            Self::InputStationary => FoldKind::InputStationary,
        }
    }

    /// Short name: `os`, `ws` or `is` (CLI pod specs, manifests, reports),
    /// the [`FoldKind::mnemonic`] of its folds.
    pub fn short_name(self) -> &'static str {
        self.fold_kind().mnemonic()
    }

    /// The telemetry span around one simulation.
    fn span_name(self) -> &'static str {
        match self {
            Self::OutputStationary => "sim.gemm_os",
            Self::WeightStationary => "sim.gemm_ws",
            Self::InputStationary => "sim.gemm_is",
        }
    }

    /// The index map: the GEMM axes indexed by array rows, array columns
    /// and stream steps, in that order.
    fn axes(self) -> [Axis; 3] {
        match self {
            Self::OutputStationary => [Axis::M, Axis::N, Axis::K],
            Self::WeightStationary => [Axis::K, Axis::N, Axis::M],
            Self::InputStationary => [Axis::M, Axis::K, Axis::N],
        }
    }

    /// The operand pinned before streaming.
    fn preload(self) -> Option<Operand> {
        match self {
            Self::OutputStationary => None,
            Self::WeightStationary => Some(Operand::Filter),
            Self::InputStationary => Some(Operand::Ifmap),
        }
    }

    /// Fill and drain cycles of a `ru × cu` fold.
    fn phases(self, ru: usize, cu: usize) -> (usize, usize) {
        match self {
            Self::OutputStationary => (0, ru),
            Self::WeightStationary => (ru, 0),
            Self::InputStationary => (cu, 0),
        }
    }

    /// Whether PE `(i, j)` of a `ru × cu` fold writes its partial sum out
    /// as it fires.
    fn exits(self, ru: usize, cu: usize, i: usize, j: usize) -> bool {
        match self {
            Self::OutputStationary => false,
            Self::WeightStationary => i == ru - 1,
            Self::InputStationary => j == cu - 1,
        }
    }

    /// Exact cycles of one fold using `ru` rows, `cu` columns and `s`
    /// stream steps: fill, skewed window, drain (the per-variant `T_fold`
    /// formulas above).
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn fold_cycles(self, ru: usize, cu: usize, s: usize) -> u64 {
        assert!(ru > 0 && cu > 0 && s > 0, "fold dimensions must be nonzero");
        let (fill, drain) = self.phases(ru, cu);
        (fill + (s + ru + cu - 2) + drain) as u64
    }

    /// The folds of an `[M, K, N]` GEMM in execution order, and the stream
    /// length each of them runs. Row tiles are the outer loop, so the
    /// `K`-tiles of one output ascend.
    fn folds(self, cfg: &ArrayConfig, dims: [usize; 3]) -> (impl Iterator<Item = Fold>, usize) {
        let [rows, cols, stream] = self.axes().map(|a| dims[a as usize]);
        let (ar, ac) = (cfg.rows(), cfg.cols());
        let folds = (0..rows).step_by(ar).flat_map(move |r0| {
            (0..cols).step_by(ac).map(move |c0| Fold {
                r0,
                ru: ar.min(rows - r0),
                c0,
                cu: ac.min(cols - c0),
            })
        });
        (folds, stream)
    }

    /// Analytic total cycles for an `M×K·K×N` GEMM — the closed form the
    /// driver is validated against.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn analytic_cycles(self, cfg: &ArrayConfig, m: usize, k: usize, n: usize) -> u64 {
        assert!(m > 0 && k > 0 && n > 0, "gemm dimensions must be nonzero");
        let (folds, stream) = self.folds(cfg, [m, k, n]);
        folds.map(|f| self.fold_cycles(f.ru, f.cu, stream)).sum()
    }

    /// `[m, k, n]` of PE `(i, j)` of `fold` at stream step `s`.
    fn index(self, fold: Fold, i: usize, j: usize, s: usize) -> [usize; 3] {
        let mut ix = [0; 3];
        let [rows, cols, stream] = self.axes();
        ix[rows as usize] = fold.r0 + i;
        ix[cols as usize] = fold.c0 + j;
        ix[stream as usize] = s;
        ix
    }

    /// Simulates `C = A·B` cycle by cycle, narrating every cycle to `sink`.
    ///
    /// Returns the product (bit-identical to the golden
    /// [`matmul`](fuseconv_tensor::gemm::matmul)) with exact cycle counts and
    /// the per-cycle busy trace. A preload is reported as the fold's fill
    /// phase, the streaming window as its compute phase. Per-PE and
    /// per-element events are generated only when the sink opts in
    /// ([`TraceSink::wants_pe_fires`] / [`TraceSink::wants_operand_events`]);
    /// the cycle numbers they carry match [`SimResult::cycles`] exactly.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadOperand`] unless `a` is `M×K` and `b` is `K×N`.
    pub fn simulate(
        self,
        cfg: &ArrayConfig,
        a: &Tensor,
        b: &Tensor,
        sink: &mut dyn TraceSink,
    ) -> Result<SimResult, ConfigError> {
        let _span = fuseconv_telemetry::span(self.span_name());
        let kind = self.fold_kind();
        let (ad, bd) = (a.shape().dims(), b.shape().dims());
        if ad.len() != 2 || bd.len() != 2 || ad[1] != bd[0] {
            return Err(ConfigError::BadOperand {
                what: "gemm operands must be MxK and KxN",
            });
        }
        let dims = [ad[0], ad[1], bd[1]];
        let [m, k, n] = dims;
        let (av, bv) = (a.as_slice(), b.as_slice());
        let mut out = vec![0.0f32; m * n];
        let mut busy_trace: Vec<u32> =
            Vec::with_capacity(usize::try_from(self.analytic_cycles(cfg, m, k, n)).unwrap_or(0));
        let (folds, stream) = self.folds(cfg, dims);
        let narrator = Narrator {
            flow: self,
            dims,
            stream,
            pe: sink.wants_pe_fires(),
            ops: sink.wants_operand_events(),
        };
        let narrate = sink.wants_cycles() || narrator.pe || narrator.ops;
        let mut fold_no = 0u64;
        for fold in folds {
            let Fold { ru, cu, .. } = fold;
            sink.on_event(&TraceEvent::FoldStart {
                fold: fold_no,
                tag: fold_no,
                cycle: busy_trace.len() as u64,
                kind,
                rows_used: ru as u32,
                cols_used: cu as u32,
            });
            let (lo, hi) = (self.index(fold, 0, 0, 0), self.index(fold, ru, cu, stream));
            fold_macs(&mut out, av, bv, [k, n], [0, 1, 2].map(|a| lo[a]..hi[a]));

            let (fill, drain) = self.phases(ru, cu);
            if narrate {
                for p in 0..fill {
                    narrator.fill(sink, fold, p, busy_trace.len() as u64);
                    tick(sink, &mut busy_trace, Phase::Fill, 0);
                }
                for (t, busy) in band(ru, cu, stream).enumerate() {
                    if narrator.pe || narrator.ops {
                        let scanned = narrator.window(sink, fold, t, busy_trace.len() as u64);
                        debug_assert_eq!(scanned, busy, "closed-form busy count, fold {fold_no}");
                    }
                    tick(sink, &mut busy_trace, Phase::Compute, busy);
                }
                for d in 0..drain {
                    narrator.drain(sink, fold, d, busy_trace.len() as u64);
                    tick(sink, &mut busy_trace, Phase::Drain, 0);
                }
            } else {
                busy_trace.resize(busy_trace.len() + fill, 0);
                push_band(&mut busy_trace, ru, cu, stream);
                busy_trace.resize(busy_trace.len() + drain, 0);
            }
            sink.on_event(&TraceEvent::FoldEnd {
                fold: fold_no,
                cycle: busy_trace.len() as u64,
            });
            fold_no += 1;
        }

        let busy_pe_cycles = busy_trace.iter().map(|&b| u64::from(b)).sum();
        let output = Tensor::from_vec(out, &[m, n]).expect("m, n nonzero");
        let sim = SimResult::new(
            output,
            (m * k * n) as u64,
            busy_pe_cycles,
            cfg.pe_count(),
            fold_no,
            busy_trace,
        );
        crate::record_sim_metrics(&sim);
        Ok(sim)
    }
}

/// The MACs of one fold: `out[m, n] += a[m, k] · b[k, n]` over the box
/// of `[m, k, n]` ranges. Row pairs run in register tiles of 2 output rows
/// × 16 columns, then at most one 2 × 8 tile, then one row at a time over
/// the last < 8 columns; an odd last row (a single-row FC fold among
/// them) runs one row at a time across the whole fold width. A tile loads
/// its accumulators from `out`, streams the whole reduction range past
/// them in ascending order — one `B` row slice per step, one broadcast `A`
/// value per row — and stores them back. Each output thus still adds its
/// products to its stored partial sum in ascending reduction order, as
/// [`matmul`](fuseconv_tensor::gemm::matmul) does (Rust never contracts
/// `+=` of a product into a fused multiply-add), so the result is
/// bit-identical. Taller tiles run out of SSE2 registers.
fn fold_macs(
    out: &mut [f32],
    av: &[f32],
    bv: &[f32],
    kn: [usize; 2],
    [mr, kr, nr]: [Range<usize>; 3],
) {
    let mut m0 = mr.start;
    while m0 + 2 <= mr.end {
        let mut c0 = nr.start;
        while c0 + 16 <= nr.end {
            tile::<16>(out, av, bv, kn, [m0, c0], kr.clone());
            c0 += 16;
        }
        if c0 + 8 <= nr.end {
            tile::<8>(out, av, bv, kn, [m0, c0], kr.clone());
            c0 += 8;
        }
        for m in m0..m0 + 2 {
            row(out, av, bv, kn, m, kr.clone(), c0..nr.end);
        }
        m0 += 2;
    }
    if m0 < mr.end {
        row(out, av, bv, kn, m0, kr, nr);
    }
}

/// Output rows `m0..m0 + 2`, columns `c0..c0 + W` of [`fold_macs`], in
/// registers.
fn tile<const W: usize>(
    out: &mut [f32],
    av: &[f32],
    bv: &[f32],
    [k, n]: [usize; 2],
    [m0, c0]: [usize; 2],
    kr: Range<usize>,
) {
    let a: [&[f32]; 2] = std::array::from_fn(|r| &av[(m0 + r) * k..][kr.clone()]);
    let mut acc = [[0.0f32; W]; 2];
    for (r, acc) in acc.iter_mut().enumerate() {
        acc.copy_from_slice(&out[(m0 + r) * n + c0..][..W]);
    }
    for (s, kk) in kr.enumerate() {
        let brow = &bv[kk * n + c0..][..W];
        for (acc, a) in acc.iter_mut().zip(a) {
            let x = a[s];
            for (o, &b) in acc.iter_mut().zip(brow) {
                *o += x * b;
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        out[(m0 + r) * n + c0..][..W].copy_from_slice(acc);
    }
}

/// Output row `m`, columns `nr` of [`fold_macs`], one scaled `B` row
/// slice per reduction step.
fn row(
    out: &mut [f32],
    av: &[f32],
    bv: &[f32],
    [k, n]: [usize; 2],
    m: usize,
    kr: Range<usize>,
    nr: Range<usize>,
) {
    let orow = &mut out[m * n..][nr.clone()];
    for (kk, &x) in kr.clone().zip(&av[m * k..][kr]) {
        let brow = &bv[kk * n..][nr.clone()];
        for (o, &b) in orow.iter_mut().zip(brow) {
            *o += x * b;
        }
    }
}

/// Generates the per-PE and per-element events a sink opted into. It
/// never touches the MACs or the busy trace.
struct Narrator {
    flow: Dataflow,
    dims: [usize; 3],
    stream: usize,
    pe: bool,
    ops: bool,
}

impl Narrator {
    /// PE `(i, j)`'s SRAM access to `op` at GEMM index `[m, k, n]`: ifmap
    /// rows enter along array rows, filter columns along array columns.
    fn access(&self, cycle: u64, op: Operand, i: usize, j: usize, ix: [usize; 3]) -> TraceEvent {
        let ([m, k, n], [_, kd, nd]) = (ix, self.dims);
        let (lane, addr) = match op {
            Operand::Ifmap => (i, m * kd + k),
            Operand::Filter => (j, k * nd + n),
            Operand::Ofmap => {
                let addr = (m * nd + n) as u64;
                return TraceEvent::OutputWrite { cycle, addr };
            }
        };
        TraceEvent::OperandRead {
            cycle,
            operand: op,
            lane: lane as u32,
            addr: addr as u64,
        }
    }

    /// Fill cycle `p`: the preloaded operand's slice for array column `p`
    /// (ifmap) or array row `p` (filter).
    fn fill(&self, sink: &mut dyn TraceSink, fold: Fold, p: usize, cycle: u64) {
        let Some(op) = self.flow.preload().filter(|_| self.ops) else {
            return;
        };
        let ifmap = op == Operand::Ifmap;
        for lane in 0..if ifmap { fold.ru } else { fold.cu } {
            let (i, j) = if ifmap { (lane, p) } else { (p, lane) };
            sink.on_event(&self.access(cycle, op, i, j, self.flow.index(fold, i, j, 0)));
        }
    }

    /// Window cycle `t`: every PE with stream step `s = t − i − j` in
    /// range fires, reads its streamed operands and, on the exit edge,
    /// writes its partial sum. Returns the number of PEs that fired.
    fn window(&self, sink: &mut dyn TraceSink, fold: Fold, t: usize, cycle: u64) -> u32 {
        let preload = self.flow.preload();
        let mut busy = 0;
        for i in 0..fold.ru.min(t + 1) {
            for j in (t - i + 1).saturating_sub(self.stream)..fold.cu.min(t - i + 1) {
                busy += 1;
                let ix = self.flow.index(fold, i, j, t - i - j);
                if self.pe {
                    let (row, col) = (i as u32, j as u32);
                    sink.on_event(&TraceEvent::PeFire { cycle, row, col });
                }
                if !self.ops {
                    continue;
                }
                for op in [Operand::Ifmap, Operand::Filter] {
                    if preload != Some(op) {
                        sink.on_event(&self.access(cycle, op, i, j, ix));
                    }
                }
                if self.flow.exits(fold.ru, fold.cu, i, j) {
                    sink.on_event(&self.access(cycle, Operand::Ofmap, i, j, ix));
                }
            }
        }
        busy
    }

    /// Output-stationary drain cycle `d`: array row `d` flushes its
    /// outputs down the columns.
    fn drain(&self, sink: &mut dyn TraceSink, fold: Fold, d: usize, cycle: u64) {
        for j in (0..fold.cu).filter(|_| self.ops) {
            let ix = self.flow.index(fold, d, j, 0);
            sink.on_event(&self.access(cycle, Operand::Ofmap, d, j, ix));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_tensor::gemm::matmul;
    use fuseconv_tensor::rng::Rng;
    use fuseconv_trace::{NullSink, VecSink};

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn closed_form_band_matches_brute_force_count() {
        let mut rng = Rng::seed_from_u64(0x6261_6e64);
        let mut cases = vec![(1, 1, 1), (1, 7, 3), (6, 1, 4), (5, 4, 1)];
        cases.extend((0..200).map(|_| (1 + rng.below(9), 1 + rng.below(9), 1 + rng.below(20))));
        // Each shape also at the two stream lengths where `push_band`
        // switches from the scan to the bulk plateau.
        let edges: Vec<_> = cases
            .iter()
            .flat_map(|&(ru, cu, _)| [(ru, cu, ru + cu - 2), (ru, cu, ru + cu - 1)])
            .collect();
        cases.extend(edges);
        for (ru, cu, s) in cases {
            let closed: Vec<u32> = band(ru, cu, s).collect();
            let mut pushed = vec![7, 0, 3];
            push_band(&mut pushed, ru, cu, s);
            assert_eq!(pushed[..3], [7, 0, 3], "ru={ru} cu={cu} s={s}");
            assert_eq!(pushed[3..], closed, "ru={ru} cu={cu} s={s}");
            let brute: Vec<u32> = (0..s + ru + cu - 2)
                .map(|t| {
                    let mut busy = 0;
                    for i in 0..ru {
                        for j in 0..cu {
                            if i + j <= t && t - i - j < s {
                                busy += 1;
                            }
                        }
                    }
                    busy
                })
                .collect();
            assert_eq!(closed, brute, "ru={ru} cu={cu} s={s}");
        }
    }

    /// Every dataflow computes exactly the golden GEMM, bit for bit, and
    /// exactly its analytic cycle count, over generated array shapes and
    /// `(M, K, N)` including unit dimensions and remainder folds. The
    /// traced run (which narrates per-PE events and, in debug builds,
    /// checks the closed-form busy count against them) returns the same
    /// result as the untraced one.
    #[test]
    fn dataflows_match_golden_bit_for_bit_on_generated_grid() {
        let mut rng = Rng::seed_from_u64(0x6772_6964);
        for case in 0..40 {
            let cfg = ArrayConfig::new(1 + rng.below(6), 1 + rng.below(6)).unwrap();
            let mut dims = [0; 3].map(|_| 1 + rng.below(14));
            if case % 3 == 0 {
                dims[rng.below(3)] = 1;
            }
            let [m, k, n] = dims;
            let a = Tensor::from_fn(&[m, k], |_| rng.uniform(-0.5, 0.5)).unwrap();
            let b = Tensor::from_fn(&[k, n], |_| rng.uniform(-0.5, 0.5)).unwrap();
            let gold = bits(&matmul(&a, &b).unwrap());
            for flow in Dataflow::ALL {
                let ctx = format!("{flow:?} {}x{} array, {m}x{k}x{n}", cfg.rows(), cfg.cols());
                let sim = flow.simulate(&cfg, &a, &b, &mut NullSink).unwrap();
                assert_eq!(bits(sim.output()), gold, "{ctx}");
                assert_eq!(sim.cycles(), flow.analytic_cycles(&cfg, m, k, n), "{ctx}");
                assert_eq!(sim.macs(), (m * k * n) as u64, "{ctx}");
                assert_eq!(sim.busy_pe_cycles(), sim.macs(), "{ctx}");
                let trace = sim.busy_trace();
                let total: u64 = trace.iter().map(|&x| u64::from(x)).sum();
                assert_eq!(total, sim.busy_pe_cycles(), "{ctx}");
                assert!(trace.iter().all(|&x| x as usize <= cfg.pe_count()), "{ctx}");
                let traced = flow
                    .simulate(&cfg, &a, &b, &mut VecSink::default())
                    .unwrap();
                assert_eq!(traced, sim, "{ctx}");
            }
        }
    }

    /// The MAC kernel's 2 × 16 and 2 × 8 register tiles and its row loop
    /// reproduce the golden GEMM bit for bit under every dataflow: square
    /// and non-square arrays up to 64×64; `M` of 1, 2 and odd (an odd last
    /// row runs the row loop); `N % 16` of 0, 8, 9..15 and 1..7, and `N`
    /// under 16; `K` spanning several WS and IS `K`-tiles, so tiles start
    /// from stored partial sums; and a `1×K×N` FC fold wider than the
    /// array.
    #[test]
    fn register_tiles_match_golden_bit_for_bit_on_generated_grid() {
        let mut rng = Rng::seed_from_u64(0x7469_6c65);
        for (rows, cols) in [(16, 16), (64, 64), (24, 40)] {
            let cfg = ArrayConfig::new(rows, cols).unwrap();
            let mut shapes = Vec::new();
            for m in [1, 2, 3 + 2 * rng.below(20)] {
                let whole = 16 * (1 + rng.below(4));
                for n in [
                    whole,
                    whole + 8,
                    whole + 9 + rng.below(7),
                    whole + 1 + rng.below(7),
                    1 + rng.below(15),
                ] {
                    shapes.push((m, rows.max(cols) + 1 + rng.below(2 * rows.max(cols)), n));
                }
            }
            shapes.push((1, 3 * rows + 5, 2 * cols + 8 + rng.below(16)));
            for (m, k, n) in shapes {
                let a = Tensor::from_fn(&[m, k], |_| rng.uniform(-0.5, 0.5)).unwrap();
                let b = Tensor::from_fn(&[k, n], |_| rng.uniform(-0.5, 0.5)).unwrap();
                let gold = bits(&matmul(&a, &b).unwrap());
                for flow in Dataflow::ALL {
                    let sim = flow.simulate(&cfg, &a, &b, &mut NullSink).unwrap();
                    let ctx = format!("{flow:?} {rows}x{cols} array, {m}x{k}x{n}");
                    assert_eq!(bits(sim.output()), gold, "{ctx}");
                }
            }
        }
    }

    const OS: Dataflow = Dataflow::OutputStationary;
    const WS: Dataflow = Dataflow::WeightStationary;
    const IS: Dataflow = Dataflow::InputStationary;

    fn ones(dims: &[usize]) -> Tensor {
        Tensor::full(dims, 1.0).unwrap()
    }

    /// Folds tile the two array-mapped axes: `M × N` (OS), `K × N` (WS),
    /// `M × K` (IS). A one-fold run costs exactly one `fold_cycles`.
    #[test]
    fn fold_counts_tile_the_array_mapped_axes() {
        let cfg = ArrayConfig::new(3, 4).unwrap();
        let (a, b) = (ones(&[7, 5]), ones(&[5, 9]));
        // ⌈7/3⌉·⌈9/4⌉, ⌈5/3⌉·⌈9/4⌉, ⌈7/3⌉·⌈5/4⌉.
        for (flow, folds) in [(OS, 9), (WS, 6), (IS, 6)] {
            let sim = flow.simulate(&cfg, &a, &b, &mut NullSink).unwrap();
            assert_eq!(sim.folds(), folds, "{flow:?}");
        }
        let cfg = ArrayConfig::new(8, 8).unwrap();
        let (a, b) = (ones(&[4, 5]), ones(&[5, 6]));
        let sim = OS.simulate(&cfg, &a, &b, &mut NullSink).unwrap();
        assert_eq!(sim.folds(), 1);
        assert_eq!(sim.cycles(), OS.fold_cycles(4, 6, 5));
    }

    #[test]
    fn fold_formulas_match_scale_sim() {
        // OS: 2·Sr + Sc + T − 2 with full array usage; a 1×1×1 fold is one
        // compute cycle plus one drain cycle.
        assert_eq!(OS.fold_cycles(32, 32, 100), 2 * 32 + 32 + 100 - 2);
        assert_eq!(OS.fold_cycles(1, 1, 1), 2);
        // WS preloads one row per cycle, IS one column per cycle.
        assert_eq!(WS.fold_cycles(3, 5, 7), 2 * 3 + 5 + 7 - 2);
        assert_eq!(IS.fold_cycles(3, 5, 7), 3 + 2 * 5 + 7 - 2);
        assert_eq!(WS.fold_cycles(8, 8, 100), 8 + 100 + 8 + 8 - 2);
        assert_eq!(IS.fold_cycles(8, 8, 100), 8 + 100 + 8 + 8 - 2);
    }

    #[test]
    #[should_panic(expected = "must be nonzero")]
    fn fold_cycles_rejects_zero() {
        let _ = OS.fold_cycles(0, 1, 1);
    }

    #[test]
    fn bad_operands_rejected() {
        let cfg = ArrayConfig::new(4, 4).unwrap();
        let (a, b) = (ones(&[2, 3]), ones(&[4, 2]));
        for flow in Dataflow::ALL {
            assert!(flow.simulate(&cfg, &a, &b, &mut NullSink).is_err());
            assert!(flow.simulate(&cfg, &a, &ones(&[3]), &mut NullSink).is_err());
        }
    }

    /// The depthwise/im2col case of §III-B: N = 1 ⇒ only one array column
    /// is ever busy ⇒ utilization bounded by 1/cols.
    #[test]
    fn single_column_gemm_uses_one_column() {
        let cfg = ArrayConfig::new(8, 8).unwrap();
        let (a, b) = (ones(&[8, 9]), ones(&[9, 1]));
        let sim = OS.simulate(&cfg, &a, &b, &mut NullSink).unwrap();
        let max_busy = sim.busy_trace().iter().copied().max().unwrap();
        assert!(max_busy as usize <= cfg.rows());
        assert!(sim.utilization() <= 1.0 / cfg.cols() as f64 + 1e-9);
    }

    /// Each dataflow's temporal dimension (OS `K`, WS `M`, IS `N`) makes it
    /// the cheapest on the shapes that stretch that dimension.
    #[test]
    fn each_dataflow_wins_where_its_temporal_dimension_is_long() {
        let cfg = ArrayConfig::new(8, 8).unwrap();
        let cost = |flow: Dataflow, m, k, n| flow.analytic_cycles(&cfg, m, k, n);
        // WS cycles grow with M, not K; K beyond the array adds folds,
        // each re-streaming A.
        assert!(cost(WS, 100, 8, 8) > cost(WS, 10, 8, 8));
        assert_eq!(cost(WS, 10, 16, 8), 2 * cost(WS, 10, 8, 8));
        // IS cycles grow with N. M = K = 8 fits the array, so N = 1000
        // streams through once under IS but refolds N/cols times under
        // the others.
        assert!(cost(IS, 8, 8, 100) > cost(IS, 8, 8, 10));
        assert!(cost(IS, 8, 8, 1000) < cost(OS, 8, 8, 1000));
        assert!(cost(IS, 8, 8, 1000) < cost(WS, 8, 8, 1000));
        let cfg = ArrayConfig::new(64, 64).unwrap();
        let cost = |flow: Dataflow, m, k, n| flow.analytic_cycles(&cfg, m, k, n);
        // The depthwise im2col shape (M large, K = 9, N = 1): WS keeps the
        // 9 weights resident and streams the pixels once, while OS refolds
        // every `rows` pixels.
        assert!(cost(WS, 3136, 9, 1) < cost(OS, 3136, 9, 1) / 2);
        // An FC layer (M = 1, K large): OS keeps the single output row
        // resident; WS refolds over K.
        assert!(cost(OS, 1, 1024, 64) < cost(WS, 1, 1024, 64));
    }
}
