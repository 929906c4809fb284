//! The FuSeConv row-broadcast dataflow (§IV-C, Figs. 5–7).
//!
//! A batch of independent stride-1 1-D convolutions — one per occupied array
//! row — runs concurrently. Within a fold:
//!
//! 1. **Load** — each row's input window (`cu + K − 1` values) is preloaded
//!    through the row's edge port, one value per cycle, pipelined:
//!    `cu + K − 1` cycles.
//! 2. **Compute** — for `K` cycles, tap `w[τ]` is broadcast over the row's
//!    weight link while the input slides one PE to the left each cycle;
//!    PE `(r, c)` accumulates `w_r[τ] · a_r[c + τ]`. *Every* used PE does a
//!    MAC every compute cycle — the full-utilization property that motivates
//!    FuSeConv.
//! 3. **Drain** — outputs leave down the columns: `ru` cycles.
//!
//! ```text
//! T_fold = (cu + K − 1) + K + ru
//! ```
//!
//! Folds tile the batch (`⌈#convs/rows⌉`) and each convolution's output
//! positions (`⌈L_out/cols⌉`).

use crate::{ArrayConfig, ConfigError, SimResult};
use fuseconv_tensor::Tensor;
use fuseconv_trace::{FoldKind, NullSink, Operand, Phase, TraceEvent, TraceSink};

/// Exact cycles of one broadcast-dataflow fold using `ru` rows, `cu`
/// output columns and kernel length `k`.
///
/// # Panics
///
/// Panics if any argument is zero.
pub fn fold_cycles(ru: usize, cu: usize, k: usize) -> u64 {
    assert!(ru > 0 && cu > 0 && k > 0, "fold dimensions must be nonzero");
    ((cu + k - 1) + k + ru) as u64
}

/// Golden model: direct stride-1 1-D convolution (cross-correlation).
///
/// # Panics
///
/// Panics if `kernel` is empty or longer than `input`.
pub fn conv1d_direct(input: &[f32], kernel: &[f32]) -> Vec<f32> {
    assert!(
        !kernel.is_empty() && kernel.len() <= input.len(),
        "kernel must be nonempty and no longer than input"
    );
    let l_out = input.len() - kernel.len() + 1;
    (0..l_out)
        .map(|c| kernel.iter().zip(&input[c..]).map(|(w, a)| w * a).sum())
        .collect()
}

/// Simulates a batch of independent stride-1 1-D convolutions using the
/// row-broadcast dataflow.
///
/// All convolutions share the kernel length; each row `r` of the batch
/// convolves `inputs[r]` with `kernels[r]`. Returns one output row per
/// convolution (shape `[#convs, L_out]`).
///
/// # Errors
///
/// - [`ConfigError::BroadcastUnavailable`] if `cfg` lacks broadcast links —
///   the dataflow physically requires them.
/// - [`ConfigError::BadOperand`] for an empty batch, mismatched batch
///   lengths, ragged inputs, or kernels longer than inputs.
pub fn simulate(
    cfg: &ArrayConfig,
    inputs: &[Vec<f32>],
    kernels: &[Vec<f32>],
) -> Result<SimResult, ConfigError> {
    simulate_traced(cfg, inputs, kernels, &mut NullSink)
}

/// [`simulate`] with every cycle narrated to `sink` as trace events.
///
/// The pipelined input preload is the fold's fill phase, the `K` broadcast
/// cycles its compute phase (each also reported as a
/// [`TraceEvent::WeightBroadcast`] tick per used row), and the output
/// drain its drain phase.
///
/// # Errors
///
/// Same as [`simulate`].
pub fn simulate_traced(
    cfg: &ArrayConfig,
    inputs: &[Vec<f32>],
    kernels: &[Vec<f32>],
    sink: &mut dyn TraceSink,
) -> Result<SimResult, ConfigError> {
    let _span = fuseconv_telemetry::span("sim.conv1d_bcast");
    if !cfg.has_broadcast() {
        return Err(ConfigError::BroadcastUnavailable);
    }
    if inputs.is_empty() || inputs.len() != kernels.len() {
        return Err(ConfigError::BadOperand {
            what: "batch must be nonempty with one kernel per input",
        });
    }
    let l_in = inputs[0].len();
    let k = kernels[0].len();
    if k == 0 || l_in < k {
        return Err(ConfigError::BadOperand {
            what: "kernel must be nonempty and no longer than the input",
        });
    }
    if inputs.iter().any(|i| i.len() != l_in) || kernels.iter().any(|w| w.len() != k) {
        return Err(ConfigError::BadOperand {
            what: "all inputs and kernels in a batch must have equal lengths",
        });
    }

    let n_convs = inputs.len();

    let l_out = l_in - k + 1;
    let mut out = vec![0.0f32; n_convs * l_out];
    let mut busy_trace: Vec<u32> = Vec::new();
    let mut busy_pe_cycles = 0u64;
    let mut folds = 0u64;

    let wants_pe = sink.wants_pe_fires();
    let wants_ops = sink.wants_operand_events();
    let wants_bcast = sink.wants_broadcast_events();
    for conv0 in (0..n_convs).step_by(cfg.rows()) {
        let ru = cfg.rows().min(n_convs - conv0);
        for col0 in (0..l_out).step_by(cfg.cols()) {
            let cu = cfg.cols().min(l_out - col0);
            sink.on_event(&TraceEvent::FoldStart {
                fold: folds,
                tag: folds,
                cycle: busy_trace.len() as u64,
                kind: FoldKind::RowBroadcast,
                rows_used: ru as u32,
                cols_used: cu as u32,
            });
            folds += 1;
            // Load: pipelined preload of cu + k - 1 inputs per row.
            for p in 0..(cu + k - 1) {
                let cycle = busy_trace.len() as u64;
                if wants_ops {
                    for r in 0..ru {
                        sink.on_event(&TraceEvent::OperandRead {
                            cycle,
                            operand: Operand::Ifmap,
                            lane: r as u32,
                            addr: ((conv0 + r) * l_in + (col0 + p)) as u64,
                        });
                    }
                }
                sink.on_event(&TraceEvent::Cycle {
                    cycle,
                    phase: Phase::Fill,
                    busy: 0,
                });
                busy_trace.push(0);
            }
            // Compute: k broadcast cycles, all ru*cu PEs busy.
            for tap in 0..k {
                let cycle = busy_trace.len() as u64;
                for r in 0..ru {
                    let w = kernels[conv0 + r][tap];
                    let row_in = &inputs[conv0 + r];
                    for c in 0..cu {
                        out[(conv0 + r) * l_out + (col0 + c)] += w * row_in[col0 + c + tap];
                    }
                    if wants_bcast {
                        sink.on_event(&TraceEvent::WeightBroadcast {
                            cycle,
                            row: r as u32,
                            tap: tap as u32,
                        });
                    }
                    if wants_ops {
                        sink.on_event(&TraceEvent::OperandRead {
                            cycle,
                            operand: Operand::Filter,
                            lane: r as u32,
                            addr: ((conv0 + r) * k + tap) as u64,
                        });
                    }
                    if wants_pe {
                        for c in 0..cu {
                            sink.on_event(&TraceEvent::PeFire {
                                cycle,
                                row: r as u32,
                                col: c as u32,
                            });
                        }
                    }
                }
                sink.on_event(&TraceEvent::Cycle {
                    cycle,
                    phase: Phase::Compute,
                    busy: (ru * cu) as u32,
                });
                busy_trace.push((ru * cu) as u32);
                busy_pe_cycles += (ru * cu) as u64;
            }
            // Drain: outputs of array row d exit down the columns.
            for d in 0..ru {
                let cycle = busy_trace.len() as u64;
                if wants_ops {
                    for c in 0..cu {
                        sink.on_event(&TraceEvent::OutputWrite {
                            cycle,
                            addr: ((conv0 + d) * l_out + (col0 + c)) as u64,
                        });
                    }
                }
                sink.on_event(&TraceEvent::Cycle {
                    cycle,
                    phase: Phase::Drain,
                    busy: 0,
                });
                busy_trace.push(0);
            }
            sink.on_event(&TraceEvent::FoldEnd {
                fold: folds - 1,
                cycle: busy_trace.len() as u64,
            });
        }
    }

    let output = Tensor::from_vec(out, &[n_convs, l_out]).expect("nonzero dims");
    let macs = (n_convs * l_out * k) as u64;
    let sim = SimResult::new(
        output,
        macs,
        busy_pe_cycles,
        cfg.pe_count(),
        folds,
        busy_trace,
    );
    crate::record_sim_metrics(&sim);
    Ok(sim)
}

/// Analytic total cycles for a batch of `n_convs` stride-1 1-D convolutions
/// with output length `l_out` and kernel length `k` — the closed form
/// validated against [`simulate`].
///
/// # Panics
///
/// Panics if any argument is zero.
pub fn analytic_cycles(cfg: &ArrayConfig, n_convs: usize, l_out: usize, k: usize) -> u64 {
    assert!(
        n_convs > 0 && l_out > 0 && k > 0,
        "batch dimensions must be nonzero"
    );
    let mut total = 0u64;
    for conv0 in (0..n_convs).step_by(cfg.rows()) {
        let ru = cfg.rows().min(n_convs - conv0);
        for col0 in (0..l_out).step_by(cfg.cols()) {
            let cu = cfg.cols().min(l_out - col0);
            total += fold_cycles(ru, cu, k);
        }
    }
    total
}

/// All 1-D convolution work belonging to one channel: a single kernel
/// applied independently to several *lines* (the feature-map rows or columns
/// of Fig. 6's slicing).
///
/// Lines of the same channel share their kernel, so several of them can sit
/// side by side in one array row and still be served by that row's single
/// weight-broadcast link — the packing that keeps the array full when the
/// output lines are shorter than the array (late network layers).
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelLines {
    /// The channel's 1-D kernel.
    pub kernel: Vec<f32>,
    /// The input lines this kernel filters.
    pub lines: Vec<Vec<f32>>,
}

/// Cycles of the packed mapping at a *fixed* packing factor `lpr`.
fn cycles_at_lpr(
    cfg: &ArrayConfig,
    channels: usize,
    lines: usize,
    l_out: usize,
    k: usize,
    lpr: usize,
) -> u64 {
    let slots_per_channel = lines.div_ceil(lpr);
    let n_slots = channels * slots_per_channel;
    let mut total = 0u64;
    for slot0 in (0..n_slots).step_by(cfg.rows()) {
        let ru = cfg.rows().min(n_slots - slot0);
        if lpr == 1 {
            for c0 in (0..l_out).step_by(cfg.cols()) {
                let cw = cfg.cols().min(l_out - c0);
                total += ((cw + k - 1) + k + ru) as u64;
            }
        } else {
            let max_width = lpr * l_out;
            total += ((max_width + k - 1) + k + ru) as u64;
        }
    }
    total
}

/// The packing factor the scheduler uses: the number of same-channel lines
/// sharing one array row, chosen to *minimize total cycles*. Packing trades
/// row-parallelism for serial load width, so the optimum is workload-
/// dependent: deep batches of short lines pack hard, shallow batches often
/// stay at 1.
pub fn lines_per_row(
    cfg: &ArrayConfig,
    channels: usize,
    lines: usize,
    l_out: usize,
    k: usize,
) -> usize {
    let max_lpr = if l_out >= cfg.cols() {
        1
    } else {
        (cfg.cols() / l_out).clamp(1, lines)
    };
    (1..=max_lpr)
        .min_by_key(|&lpr| cycles_at_lpr(cfg, channels, lines, l_out, k, lpr))
        .unwrap_or(1)
}

/// Simulates a packed batch: each channel's lines are grouped
/// [`lines_per_row`] to an array row (sharing the row's broadcast weight);
/// row groups from different channels fill the remaining array rows.
///
/// Returns outputs of shape `[channels · lines, l_out]`, ordered channel-
/// major then line-major.
///
/// # Errors
///
/// - [`ConfigError::BroadcastUnavailable`] without broadcast links.
/// - [`ConfigError::BadOperand`] for an empty batch, ragged line or kernel
///   lengths, unequal line counts per channel, or kernels longer than lines.
pub fn simulate_packed(cfg: &ArrayConfig, work: &[ChannelLines]) -> Result<SimResult, ConfigError> {
    simulate_packed_traced(cfg, work, &mut NullSink)
}

/// [`simulate_packed`] with every cycle narrated to `sink` as trace
/// events.
///
/// Fold occupancy is reported in schedule positions: `rows_used` counts
/// occupied slots (array rows) and `cols_used` the nominal packed row
/// width. Ifmap addresses during fill are schedule-positional within each
/// slot's first line.
///
/// # Errors
///
/// Same as [`simulate_packed`].
pub fn simulate_packed_traced(
    cfg: &ArrayConfig,
    work: &[ChannelLines],
    sink: &mut dyn TraceSink,
) -> Result<SimResult, ConfigError> {
    let _span = fuseconv_telemetry::span("sim.conv1d_packed");
    if !cfg.has_broadcast() {
        return Err(ConfigError::BroadcastUnavailable);
    }
    let Some(first) = work.first() else {
        return Err(ConfigError::BadOperand {
            what: "packed batch must be nonempty",
        });
    };
    let k = first.kernel.len();
    let lines = first.lines.len();
    let Some(l_in) = first.lines.first().map(Vec::len) else {
        return Err(ConfigError::BadOperand {
            what: "every channel needs at least one line",
        });
    };
    if k == 0 || l_in < k {
        return Err(ConfigError::BadOperand {
            what: "kernel must be nonempty and no longer than the lines",
        });
    }
    for ch in work {
        if ch.kernel.len() != k
            || ch.lines.len() != lines
            || ch.lines.iter().any(|l| l.len() != l_in)
        {
            return Err(ConfigError::BadOperand {
                what: "all channels must have equal kernel, line count and line length",
            });
        }
    }

    let n_ch = work.len();
    let l_out = l_in - k + 1;
    let lpr = lines_per_row(cfg, n_ch, lines, l_out, k);
    // One slot = one array row's worth of same-channel lines.
    let slots: Vec<(usize, usize, usize)> = (0..n_ch)
        .flat_map(|ch| {
            (0..lines)
                .step_by(lpr)
                .map(move |l0| (ch, l0, lpr.min(lines - l0)))
        })
        .collect();

    let mut out = vec![0.0f32; n_ch * lines * l_out];
    let mut busy_trace: Vec<u32> = Vec::new();
    let mut busy_pe_cycles = 0u64;
    let mut folds = 0u64;
    let col_tiles: Vec<(usize, usize)> = if lpr == 1 {
        (0..l_out)
            .step_by(cfg.cols())
            .map(|c0| (c0, cfg.cols().min(l_out - c0)))
            .collect()
    } else {
        vec![(0, 0)] // single tile; width is per-slot (n_lines · l_out)
    };

    let wants_pe = sink.wants_pe_fires();
    let wants_ops = sink.wants_operand_events();
    let wants_bcast = sink.wants_broadcast_events();
    for slot0 in (0..slots.len()).step_by(cfg.rows()) {
        let chunk = &slots[slot0..slots.len().min(slot0 + cfg.rows())];
        let ru = chunk.len();
        for &(c0, cw) in &col_tiles {
            // Load time is charged for the nominal row width (lpr lines)
            // even in remainder folds — the input ports run for the full
            // schedule regardless; this matches `analytic_cycles_packed`.
            let width = |n_lines: usize| if lpr == 1 { cw } else { n_lines * l_out };
            let nominal_width = if lpr == 1 { cw } else { lpr * l_out };
            sink.on_event(&TraceEvent::FoldStart {
                fold: folds,
                tag: folds,
                cycle: busy_trace.len() as u64,
                kind: FoldKind::RowBroadcast,
                rows_used: ru as u32,
                cols_used: nominal_width as u32,
            });
            folds += 1;
            for p in 0..(nominal_width + k - 1) {
                let cycle = busy_trace.len() as u64;
                if wants_ops {
                    for (r, &(ch, l0, _)) in chunk.iter().enumerate() {
                        sink.on_event(&TraceEvent::OperandRead {
                            cycle,
                            operand: Operand::Ifmap,
                            lane: r as u32,
                            addr: ((ch * lines + l0) * l_in + p) as u64,
                        });
                    }
                }
                sink.on_event(&TraceEvent::Cycle {
                    cycle,
                    phase: Phase::Fill,
                    busy: 0,
                });
                busy_trace.push(0);
            }
            let fold_busy: u64 = chunk.iter().map(|&(_, _, n)| width(n) as u64).sum();
            for tap in 0..k {
                let cycle = busy_trace.len() as u64;
                for (r, &(ch, l0, n_lines)) in chunk.iter().enumerate() {
                    let kernel = &work[ch].kernel;
                    let span = if lpr == 1 { 1 } else { n_lines };
                    if wants_bcast {
                        sink.on_event(&TraceEvent::WeightBroadcast {
                            cycle,
                            row: r as u32,
                            tap: tap as u32,
                        });
                    }
                    if wants_ops {
                        sink.on_event(&TraceEvent::OperandRead {
                            cycle,
                            operand: Operand::Filter,
                            lane: r as u32,
                            addr: (ch * k + tap) as u64,
                        });
                    }
                    let (cols0, colw) = if lpr == 1 { (c0, cw) } else { (0, l_out) };
                    for li in 0..span.max(1) {
                        let line_idx = l0 + li;
                        let at = (ch * lines + line_idx) * l_out + cols0;
                        let input = &work[ch].lines[line_idx][cols0 + tap..][..colw];
                        for (o, &x) in out[at..at + colw].iter_mut().zip(input) {
                            *o += kernel[tap] * x;
                        }
                        if wants_pe {
                            for c in 0..colw {
                                sink.on_event(&TraceEvent::PeFire {
                                    cycle,
                                    row: r as u32,
                                    col: (li * l_out + c) as u32,
                                });
                            }
                        }
                    }
                }
                sink.on_event(&TraceEvent::Cycle {
                    cycle,
                    phase: Phase::Compute,
                    busy: fold_busy as u32,
                });
                busy_trace.push(fold_busy as u32);
                busy_pe_cycles += fold_busy;
            }
            // One drain cycle per occupied slot, each flushing that slot's
            // outputs down the columns.
            for &(ch, l0, n_lines) in chunk {
                let cycle = busy_trace.len() as u64;
                if wants_ops {
                    let span = if lpr == 1 { 1 } else { n_lines };
                    for li in 0..span.max(1) {
                        let (cols0, colw) = if lpr == 1 { (c0, cw) } else { (0, l_out) };
                        for c in 0..colw {
                            sink.on_event(&TraceEvent::OutputWrite {
                                cycle,
                                addr: ((ch * lines + l0 + li) * l_out + cols0 + c) as u64,
                            });
                        }
                    }
                }
                sink.on_event(&TraceEvent::Cycle {
                    cycle,
                    phase: Phase::Drain,
                    busy: 0,
                });
                busy_trace.push(0);
            }
            sink.on_event(&TraceEvent::FoldEnd {
                fold: folds - 1,
                cycle: busy_trace.len() as u64,
            });
        }
    }

    let output = Tensor::from_vec(out, &[n_ch * lines, l_out]).expect("nonzero dims");
    let macs = (n_ch * lines * l_out * k) as u64;
    let sim = SimResult::new(
        output,
        macs,
        busy_pe_cycles,
        cfg.pe_count(),
        folds,
        busy_trace,
    );
    crate::record_sim_metrics(&sim);
    Ok(sim)
}

/// Analytic cycles of the packed mapping for `channels` channels of
/// `lines` lines each, output length `l_out`, kernel length `k`.
///
/// The closed form validated against [`simulate_packed`]; this is what the
/// latency model uses for FuSeConv operators (stride is folded into
/// `l_out`/`lines` by the caller).
///
/// # Panics
///
/// Panics if any argument is zero.
pub fn analytic_cycles_packed(
    cfg: &ArrayConfig,
    channels: usize,
    lines: usize,
    l_out: usize,
    k: usize,
) -> u64 {
    assert!(
        channels > 0 && lines > 0 && l_out > 0 && k > 0,
        "packed dimensions must be nonzero"
    );
    let lpr = lines_per_row(cfg, channels, lines, l_out, k);
    cycles_at_lpr(cfg, channels, lines, l_out, k, lpr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bcast(rows: usize, cols: usize) -> ArrayConfig {
        ArrayConfig::new(rows, cols).unwrap().with_broadcast(true)
    }

    #[test]
    fn requires_broadcast_links() {
        let cfg = ArrayConfig::new(4, 4).unwrap();
        let r = simulate(&cfg, &[vec![1.0; 5]], &[vec![1.0; 3]]);
        assert_eq!(r.unwrap_err(), ConfigError::BroadcastUnavailable);
        let work = [ChannelLines {
            kernel: vec![1.0; 3],
            lines: vec![vec![1.0; 5]],
        }];
        let r = simulate_packed(&cfg, &work);
        assert_eq!(r.unwrap_err(), ConfigError::BroadcastUnavailable);
    }

    #[test]
    fn single_conv_matches_golden() {
        let cfg = bcast(4, 8);
        let input = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let kernel = vec![1.0, 0.0, -1.0];
        let sim = simulate(
            &cfg,
            std::slice::from_ref(&input),
            std::slice::from_ref(&kernel),
        )
        .unwrap();
        assert_eq!(sim.output().as_slice(), conv1d_direct(&input, &kernel));
        assert_eq!(sim.folds(), 1);
        assert_eq!(sim.cycles(), fold_cycles(1, 3, 3));
    }

    #[test]
    fn batch_matches_golden_with_folds() {
        let cfg = bcast(2, 3);
        let inputs: Vec<Vec<f32>> = (0..5)
            .map(|r| (0..9).map(|x| ((r * 7 + x) % 5) as f32 - 2.0).collect())
            .collect();
        let kernels: Vec<Vec<f32>> = (0..5)
            .map(|r| (0..3).map(|t| (r + t) as f32 * 0.5 - 1.0).collect())
            .collect();
        let sim = simulate(&cfg, &inputs, &kernels).unwrap();
        for (r, (i, w)) in inputs.iter().zip(&kernels).enumerate() {
            let gold = conv1d_direct(i, w);
            let got = &sim.output().as_slice()[r * 7..(r + 1) * 7];
            for (a, b) in got.iter().zip(&gold) {
                assert!((a - b).abs() < 1e-5);
            }
        }
        // ceil(5/2)=3 row tiles, ceil(7/3)=3 col tiles.
        assert_eq!(sim.folds(), 9);
        assert_eq!(sim.cycles(), analytic_cycles(&cfg, 5, 7, 3));
    }

    #[test]
    fn compute_phase_fully_utilizes_used_pes() {
        // The headline property (§IV-C-3): during compute, every used PE
        // MACs every cycle.
        let cfg = bcast(4, 4);
        let inputs: Vec<Vec<f32>> = (0..4).map(|_| vec![1.0; 6]).collect();
        let kernels: Vec<Vec<f32>> = (0..4).map(|_| vec![1.0; 3]).collect();
        let sim = simulate(&cfg, &inputs, &kernels).unwrap();
        let peak = sim.busy_trace().iter().copied().max().unwrap();
        assert_eq!(peak as usize, cfg.pe_count());
        // busy cycles = folds * k at full array occupancy
        assert_eq!(sim.busy_pe_cycles(), 4 * 4 * 3);
    }

    #[test]
    fn ragged_batches_rejected() {
        let cfg = bcast(2, 2);
        assert!(simulate(&cfg, &[], &[]).is_err());
        assert!(simulate(&cfg, &[vec![1.0; 4]], &[]).is_err());
        assert!(simulate(
            &cfg,
            &[vec![1.0; 4], vec![1.0; 5]],
            &[vec![1.0; 2], vec![1.0; 2]]
        )
        .is_err());
        assert!(simulate(&cfg, &[vec![1.0; 2]], &[vec![1.0; 3]]).is_err());
        assert!(simulate(&cfg, &[vec![1.0; 2]], &[vec![]]).is_err());
    }

    #[test]
    fn broadcast_beats_single_column_for_same_work() {
        // A depthwise-like workload: 16 independent 3-tap convolutions over
        // 18-element inputs. Via im2col each is a 16x9 · 9x1 GEMM on one
        // column; via broadcast they pack the whole array.
        let cfg = bcast(8, 8);
        let inputs: Vec<Vec<f32>> = (0..16).map(|_| vec![1.0; 18]).collect();
        let kernels: Vec<Vec<f32>> = (0..16).map(|_| vec![1.0; 3]).collect();
        let fuse = simulate(&cfg, &inputs, &kernels).unwrap();
        // The single-column GEMM alternative: each channel is a 16x9 · 9x1
        // GEMM (M = 16 outputs, K = 9 taps of a hypothetical 3x3 kernel with
        // the same MAC count), split into two row folds of 8.
        let im2col_cycles: u64 = (0..16)
            .map(|_| crate::Dataflow::OutputStationary.fold_cycles(8, 1, 9) * 2)
            .sum();
        assert!(
            fuse.cycles() < im2col_cycles,
            "broadcast {} should beat im2col {}",
            fuse.cycles(),
            im2col_cycles
        );
        // Short kernels make the load phase dominate each fold, so absolute
        // utilization is modest — but still far above im2col's 1/cols bound.
        assert!(fuse.utilization() > 1.0 / cfg.cols() as f64);
    }
}

#[cfg(test)]
mod packed_tests {
    use super::*;

    fn bcast(rows: usize, cols: usize) -> ArrayConfig {
        ArrayConfig::new(rows, cols).unwrap().with_broadcast(true)
    }

    fn work(channels: usize, lines: usize, l_in: usize, k: usize) -> Vec<ChannelLines> {
        (0..channels)
            .map(|ch| ChannelLines {
                kernel: (0..k).map(|t| (ch * 3 + t) as f32 * 0.25 - 0.5).collect(),
                lines: (0..lines)
                    .map(|l| {
                        (0..l_in)
                            .map(|x| ((ch + 2 * l + x) % 7) as f32 - 3.0)
                            .collect()
                    })
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn packed_is_functionally_exact() {
        let cfg = bcast(4, 16);
        let w = work(3, 5, 9, 3);
        let sim = simulate_packed(&cfg, &w).unwrap();
        for (ch, cw) in w.iter().enumerate() {
            for (li, line) in cw.lines.iter().enumerate() {
                let gold = conv1d_direct(line, &cw.kernel);
                let got = &sim.output().as_slice()[(ch * 5 + li) * 7..(ch * 5 + li + 1) * 7];
                for (a, b) in got.iter().zip(&gold) {
                    assert!((a - b).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn packed_cycles_match_analytic() {
        for (rows, cols, ch, lines, l_in, k) in [
            (4usize, 16usize, 3usize, 5usize, 9usize, 3usize),
            (8, 8, 2, 7, 20, 3),   // l_out=18 > cols → column tiling path
            (2, 32, 5, 4, 6, 3),   // heavy packing: l_out=4, 8 lines/row
            (64, 64, 10, 7, 9, 3), // one row per channel
        ] {
            let cfg = bcast(rows, cols);
            let w = work(ch, lines, l_in, k);
            let sim = simulate_packed(&cfg, &w).unwrap();
            let analytic = analytic_cycles_packed(&cfg, ch, lines, l_in - k + 1, k);
            assert_eq!(
                sim.cycles(),
                analytic,
                "{rows}x{cols} ch={ch} lines={lines} l_in={l_in}"
            );
            assert_eq!(sim.macs(), (ch * lines * (l_in - k + 1) * k) as u64);
        }
    }

    #[test]
    fn packing_beats_one_conv_per_row_for_short_lines() {
        // Late-layer shape: 7x7 map, 64 channels, k=3 on a 64x64 array.
        // Packed: each channel's 7 lines fit one row → 1 fold.
        let cfg = bcast(64, 64);
        let w = work(64, 7, 9, 3);
        let packed = simulate_packed(&cfg, &w).unwrap();
        let flat_inputs: Vec<Vec<f32>> = w.iter().flat_map(|c| c.lines.iter().cloned()).collect();
        let flat_kernels: Vec<Vec<f32>> = w
            .iter()
            .flat_map(|c| std::iter::repeat_n(c.kernel.clone(), 7))
            .collect();
        let naive = simulate(&cfg, &flat_inputs, &flat_kernels).unwrap();
        assert!(packed.cycles() < naive.cycles());
        assert_eq!(packed.folds(), 1);
        // Functional agreement between the two mappings.
        assert!(packed.output().max_abs_diff(naive.output()).unwrap() < 1e-5);
    }

    #[test]
    fn packed_validation() {
        let cfg = bcast(4, 4);
        assert!(simulate_packed(&cfg, &[]).is_err());
        // Ragged line counts across channels.
        let mut w = work(2, 3, 8, 3);
        w[1].lines.pop();
        assert!(simulate_packed(&cfg, &w).is_err());
        // Kernel longer than line.
        let w = work(1, 1, 2, 3);
        assert!(simulate_packed(&cfg, &w).is_err());
        // No broadcast.
        let plain = ArrayConfig::new(4, 4).unwrap();
        assert!(simulate_packed(&plain, &work(1, 1, 8, 3)).is_err());
    }

    #[test]
    fn lines_per_row_boundaries() {
        let cfg = bcast(64, 64);
        // Deep batch of short lines: pack a whole channel per row.
        assert_eq!(lines_per_row(&cfg, 64, 7, 7, 3), 7);
        // Lines as wide as (or wider than) the array: no packing possible.
        assert_eq!(lines_per_row(&cfg, 4, 10, 64, 3), 1);
        assert_eq!(lines_per_row(&cfg, 4, 10, 100, 3), 1);
        // Plenty of row capacity but few slots either way: the optimizer
        // may legitimately pick any factor; it must never be slower than
        // the unpacked mapping.
        let best = lines_per_row(&cfg, 1, 2, 17, 1);
        assert!(cycles_at_lpr(&cfg, 1, 2, 17, 1, best) <= cycles_at_lpr(&cfg, 1, 2, 17, 1, 1));
    }

    #[test]
    fn packing_choice_is_never_worse_than_either_extreme() {
        for (cfg, ch, lines, l_out, k) in [
            (bcast(64, 64), 1usize, 2usize, 17usize, 1usize),
            (bcast(64, 64), 64, 7, 7, 3),
            (bcast(8, 8), 3, 5, 4, 3),
            (bcast(16, 16), 2, 9, 3, 5),
        ] {
            let chosen = analytic_cycles_packed(&cfg, ch, lines, l_out, k);
            let unpacked = cycles_at_lpr(&cfg, ch, lines, l_out, k, 1);
            assert!(chosen <= unpacked, "{ch} {lines} {l_out} {k}");
        }
    }
}

#[cfg(test)]
mod grid_tests {
    use super::*;
    use fuseconv_tensor::rng::Rng;

    /// Packed mapping: functional exactness and analytic-cycle equality
    /// across a deterministic grid of geometries.
    #[test]
    fn packed_matches_golden_and_analytic_on_grid() {
        let mut rng = Rng::seed_from_u64(0x7061_636b);
        for &(rows, cols) in &[(1, 1), (2, 9), (4, 4), (5, 2)] {
            let cfg = ArrayConfig::new(rows, cols).unwrap().with_broadcast(true);
            for &(channels, lines, l_in, k) in &[
                (1, 1, 1, 1),
                (1, 7, 13, 4),
                (5, 1, 8, 3),
                (3, 4, 9, 3),
                (2, 6, 14, 1),
                (4, 3, 5, 5),
            ] {
                let w: Vec<ChannelLines> = (0..channels)
                    .map(|_| ChannelLines {
                        kernel: (0..k).map(|_| rng.uniform(-0.5, 0.5)).collect(),
                        lines: (0..lines)
                            .map(|_| (0..l_in).map(|_| rng.uniform(-0.5, 0.5)).collect())
                            .collect(),
                    })
                    .collect();
                let sim = simulate_packed(&cfg, &w).unwrap();
                let l_out = l_in - k + 1;
                let ctx = format!("{rows}x{cols} array, c{channels} l{lines} in{l_in} k{k}");
                for (ch, cw) in w.iter().enumerate() {
                    for (li, line) in cw.lines.iter().enumerate() {
                        let gold = conv1d_direct(line, &cw.kernel);
                        let got = &sim.output().as_slice()
                            [(ch * lines + li) * l_out..(ch * lines + li + 1) * l_out];
                        for (a, b) in got.iter().zip(&gold) {
                            assert!((a - b).abs() < 1e-4, "{ctx}");
                        }
                    }
                }
                assert_eq!(
                    sim.cycles(),
                    analytic_cycles_packed(&cfg, channels, lines, l_out, k),
                    "{ctx}"
                );
            }
        }
    }

    /// The broadcast simulator is functionally exact and its cycle count
    /// matches the closed form, across a grid of batches and array sizes.
    #[test]
    fn simulator_matches_golden_and_analytic_on_grid() {
        let mut rng = Rng::seed_from_u64(0x6276_3164);
        for &(rows, cols) in &[(1, 1), (2, 5), (4, 4), (5, 2)] {
            let cfg = ArrayConfig::new(rows, cols).unwrap().with_broadcast(true);
            for &(n_convs, l_in, k) in &[
                (1, 1, 1),
                (1, 15, 5),
                (9, 7, 3),
                (4, 12, 1),
                (7, 9, 4),
                (3, 5, 5),
            ] {
                let inputs: Vec<Vec<f32>> = (0..n_convs)
                    .map(|_| (0..l_in).map(|_| rng.uniform(-0.5, 0.5)).collect())
                    .collect();
                let kernels: Vec<Vec<f32>> = (0..n_convs)
                    .map(|_| (0..k).map(|_| rng.uniform(-0.5, 0.5)).collect())
                    .collect();
                let sim = simulate(&cfg, &inputs, &kernels).unwrap();
                let l_out = l_in - k + 1;
                let ctx = format!("{rows}x{cols} array, n{n_convs} in{l_in} k{k}");
                for (r, (i, w)) in inputs.iter().zip(&kernels).enumerate() {
                    let gold = conv1d_direct(i, w);
                    let got = &sim.output().as_slice()[r * l_out..(r + 1) * l_out];
                    for (a, b) in got.iter().zip(&gold) {
                        assert!((a - b).abs() < 1e-4, "{ctx}");
                    }
                }
                assert_eq!(
                    sim.cycles(),
                    analytic_cycles(&cfg, n_convs, l_out, k),
                    "{ctx}"
                );
                assert_eq!(sim.macs(), (n_convs * l_out * k) as u64, "{ctx}");
            }
        }
    }
}
