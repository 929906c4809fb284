//! The FuSeConv row-broadcast dataflow (§IV-C, Figs. 5–7).
//!
//! A batch of independent stride-1 1-D convolutions runs concurrently, one
//! array row per *slot*: `lpr` lines of the same channel, sharing the row's
//! weight-broadcast link ([`lines_per_row`] picks `lpr`; one line per row
//! is the paper's one-convolution-per-row mapping). Within a fold of `ru`
//! occupied rows and a column tile of `cw` output positions per line:
//!
//! 1. **Load** — each row's input window is preloaded through the row's
//!    edge port, one value per cycle, pipelined: `lpr·cw + K − 1` cycles.
//! 2. **Compute** — for `K` cycles, tap `w[τ]` is broadcast over the row's
//!    weight link while the input slides one PE to the left each cycle;
//!    PE `(r, c)` accumulates `w_r[τ] · a_r[c + τ]`. *Every* used PE does a
//!    MAC every compute cycle — the full-utilization property that motivates
//!    FuSeConv.
//! 3. **Drain** — outputs leave down the columns: `ru` cycles.
//!
//! ```text
//! T_fold = (lpr·cw + K − 1) + K + ru
//! ```
//!
//! Folds tile the slots (`⌈#slots/rows⌉`) and each line's output positions
//! (`⌈L_out/cols⌉`). Packing (`lpr > 1`) only happens when `L_out < cols`,
//! so a packed row is always a single column tile.
//!
//! The simulator runs each fold's MACs first, line by line in a small
//! register kernel: every output is summed from `0.0` over the taps in
//! ascending order, the order the broadcast applies them. Its busy
//! trace is closed-form (zero while loading and draining, the fold's
//! used PEs for each of the `K` compute cycles). Per-cycle, per-PE and
//! per-operand events come from a loop over the fold's cycles that only
//! narrates, and it runs only when the sink opts in; otherwise the fold
//! appends its busy trace in bulk.

use crate::{tick, ArrayConfig, ConfigError, SimResult};
use fuseconv_tensor::Tensor;
use fuseconv_trace::{FoldKind, NullSink, Operand, Phase, TraceEvent, TraceSink};

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
    let n_slots = channels * lines.div_ceil(lpr);
    let mut total = 0u64;
    for slot0 in (0..n_slots).step_by(cfg.rows()) {
        let ru = cfg.rows().min(n_slots - slot0);
        for c0 in (0..l_out).step_by(cfg.cols()) {
            let cw = cfg.cols().min(l_out - c0);
            total += ((lpr * cw + k - 1) + k + ru) as u64;
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

/// Simulates a batch of row-broadcast 1-D convolutions: each channel's
/// lines are grouped [`lines_per_row`] to an array row (sharing the row's
/// broadcast weight; one-line channels run one convolution per row), and
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
/// events (fold events only, for a sink that opts out of per-cycle and
/// finer events).
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
    let total = cycles_at_lpr(cfg, n_ch, lines, l_out, k, lpr);
    let mut busy_trace: Vec<u32> = Vec::with_capacity(usize::try_from(total).unwrap_or(0));
    let mut busy_pe_cycles = 0u64;
    let mut folds = 0u64;

    let wants_pe = sink.wants_pe_fires();
    let wants_ops = sink.wants_operand_events();
    let wants_bcast = sink.wants_broadcast_events();
    let narrate = sink.wants_cycles() || wants_pe || wants_ops || wants_bcast;
    for slot0 in (0..slots.len()).step_by(cfg.rows()) {
        let chunk = &slots[slot0..slots.len().min(slot0 + cfg.rows())];
        let ru = chunk.len();
        for c0 in (0..l_out).step_by(cfg.cols()) {
            let cw = cfg.cols().min(l_out - c0);
            // Load time is charged for the nominal row width (lpr lines)
            // even in remainder folds — the input ports run for the full
            // schedule regardless; this matches `analytic_cycles_packed`.
            let nominal_width = lpr * cw;
            let fill = nominal_width + k - 1;
            sink.on_event(&TraceEvent::FoldStart {
                fold: folds,
                tag: folds,
                cycle: busy_trace.len() as u64,
                kind: FoldKind::RowBroadcast,
                rows_used: ru as u32,
                cols_used: nominal_width as u32,
            });
            folds += 1;
            for &(ch, l0, n_lines) in chunk {
                for (li, line) in work[ch].lines[l0..l0 + n_lines].iter().enumerate() {
                    let at = (ch * lines + l0 + li) * l_out + c0;
                    line_macs(&mut out[at..at + cw], &line[c0..], &work[ch].kernel);
                }
            }
            let fold_busy: u64 = chunk.iter().map(|&(_, _, n)| (n * cw) as u64).sum();
            busy_pe_cycles += k as u64 * fold_busy;
            if narrate {
                for p in 0..fill {
                    if wants_ops {
                        let cycle = busy_trace.len() as u64;
                        for (r, &(ch, l0, _)) in chunk.iter().enumerate() {
                            sink.on_event(&TraceEvent::OperandRead {
                                cycle,
                                operand: Operand::Ifmap,
                                lane: r as u32,
                                addr: ((ch * lines + l0) * l_in + c0 + p) as u64,
                            });
                        }
                    }
                    tick(sink, &mut busy_trace, Phase::Fill, 0);
                }
                for tap in 0..k {
                    let cycle = busy_trace.len() as u64;
                    for (r, &(ch, _, n_lines)) in chunk.iter().enumerate() {
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
                        if wants_pe {
                            for col in 0..(n_lines * cw) as u32 {
                                let row = r as u32;
                                sink.on_event(&TraceEvent::PeFire { cycle, row, col });
                            }
                        }
                    }
                    tick(sink, &mut busy_trace, Phase::Compute, fold_busy as u32);
                }
                // One drain cycle per occupied slot, each flushing that
                // slot's outputs down the columns.
                for &(ch, l0, n_lines) in chunk {
                    if wants_ops {
                        let cycle = busy_trace.len() as u64;
                        for li in 0..n_lines {
                            let at = (ch * lines + l0 + li) * l_out + c0;
                            for addr in at..at + cw {
                                sink.on_event(&TraceEvent::OutputWrite {
                                    cycle,
                                    addr: addr as u64,
                                });
                            }
                        }
                    }
                    tick(sink, &mut busy_trace, Phase::Drain, 0);
                }
            } else {
                busy_trace.resize(busy_trace.len() + fill, 0);
                busy_trace.resize(busy_trace.len() + k, fold_busy as u32);
                busy_trace.resize(busy_trace.len() + ru, 0);
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

/// The MACs of one line's column tile: `out[c] = Σ_τ w[τ] · x[c + τ]`,
/// each output summed from `0.0` over the taps in ascending order, as the
/// broadcast applies them. Outputs run in register tiles: 8 at a time,
/// then at most one tile each of 4, 2 and 1.
fn line_macs(out: &mut [f32], x: &[f32], kernel: &[f32]) {
    let mut c0 = 0;
    while c0 + 8 <= out.len() {
        out[c0..c0 + 8].copy_from_slice(&taps::<8>(&x[c0..], kernel));
        c0 += 8;
    }
    if c0 + 4 <= out.len() {
        out[c0..c0 + 4].copy_from_slice(&taps::<4>(&x[c0..], kernel));
        c0 += 4;
    }
    if c0 + 2 <= out.len() {
        out[c0..c0 + 2].copy_from_slice(&taps::<2>(&x[c0..], kernel));
        c0 += 2;
    }
    if c0 < out.len() {
        out[c0] = taps::<1>(&x[c0..], kernel)[0];
    }
}

/// `W` consecutive outputs of [`line_macs`], the first at `x[0]`.
fn taps<const W: usize>(x: &[f32], kernel: &[f32]) -> [f32; W] {
    let mut acc = [0.0f32; W];
    for (t, &w) in kernel.iter().enumerate() {
        for (a, &x) in acc.iter_mut().zip(&x[t..][..W]) {
            *a += w * x;
        }
    }
    acc
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

    pub(super) fn bcast(rows: usize, cols: usize) -> ArrayConfig {
        ArrayConfig::new(rows, cols).unwrap().with_broadcast(true)
    }

    /// One single-line channel per `(line, kernel)` pair: the
    /// one-convolution-per-row mapping.
    pub(super) fn one_line(lines: Vec<Vec<f32>>, kernels: Vec<Vec<f32>>) -> Vec<ChannelLines> {
        assert_eq!(lines.len(), kernels.len());
        lines
            .into_iter()
            .zip(kernels)
            .map(|(line, kernel)| ChannelLines {
                kernel,
                lines: vec![line],
            })
            .collect()
    }

    #[test]
    fn requires_broadcast_links() {
        let cfg = ArrayConfig::new(4, 4).unwrap();
        let work = one_line(vec![vec![1.0; 5]], vec![vec![1.0; 3]]);
        let r = simulate_packed(&cfg, &work);
        assert_eq!(r.unwrap_err(), ConfigError::BroadcastUnavailable);
    }

    #[test]
    fn single_conv_matches_golden() {
        let cfg = bcast(4, 8);
        let input = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let kernel = vec![1.0, 0.0, -1.0];
        let gold = conv1d_direct(&input, &kernel);
        let sim = simulate_packed(&cfg, &one_line(vec![input], vec![kernel])).unwrap();
        assert_eq!(sim.output().as_slice(), gold);
        assert_eq!(sim.folds(), 1);
        // A single fold of (3 + 3 − 1) + 3 + 1 cycles.
        assert_eq!(sim.cycles(), 9);
        assert_eq!(sim.cycles(), analytic_cycles_packed(&cfg, 1, 1, 3, 3));
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
        let gold: Vec<f32> = inputs
            .iter()
            .zip(&kernels)
            .flat_map(|(i, w)| conv1d_direct(i, w))
            .collect();
        let sim = simulate_packed(&cfg, &one_line(inputs, kernels)).unwrap();
        assert_eq!(sim.output().as_slice(), gold);
        // ceil(5/2)=3 row tiles, ceil(7/3)=3 col tiles.
        assert_eq!(sim.folds(), 9);
        assert_eq!(sim.cycles(), 81);
        assert_eq!(sim.cycles(), analytic_cycles_packed(&cfg, 5, 1, 7, 3));
    }

    #[test]
    fn compute_phase_fully_utilizes_used_pes() {
        // The headline property (§IV-C-3): during compute, every used PE
        // MACs every cycle.
        let cfg = bcast(4, 4);
        let work = one_line(vec![vec![1.0; 6]; 4], vec![vec![1.0; 3]; 4]);
        let sim = simulate_packed(&cfg, &work).unwrap();
        let peak = sim.busy_trace().iter().copied().max().unwrap();
        assert_eq!(peak as usize, cfg.pe_count());
        // busy cycles = folds * k at full array occupancy
        assert_eq!(sim.busy_pe_cycles(), 4 * 4 * 3);
    }

    #[test]
    fn ragged_batches_rejected() {
        let cfg = bcast(2, 2);
        assert!(simulate_packed(&cfg, &[]).is_err());
        let no_line = ChannelLines {
            kernel: vec![1.0; 2],
            lines: vec![],
        };
        assert!(simulate_packed(&cfg, &[no_line]).is_err());
        let w = one_line(vec![vec![1.0; 4], vec![1.0; 5]], vec![vec![1.0; 2]; 2]);
        assert!(simulate_packed(&cfg, &w).is_err());
        assert!(simulate_packed(&cfg, &one_line(vec![vec![1.0; 2]], vec![vec![1.0; 3]])).is_err());
        assert!(simulate_packed(&cfg, &one_line(vec![vec![1.0; 2]], vec![vec![]])).is_err());
    }

    #[test]
    fn broadcast_beats_single_column_for_same_work() {
        // A depthwise-like workload: 16 independent 3-tap convolutions over
        // 18-element inputs. Via im2col each is a 16x9 · 9x1 GEMM on one
        // column; via broadcast they pack the whole array.
        let cfg = bcast(8, 8);
        let work = one_line(vec![vec![1.0; 18]; 16], vec![vec![1.0; 3]; 16]);
        let fuse = simulate_packed(&cfg, &work).unwrap();
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
    use super::tests::{bcast, one_line};
    use super::*;

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
        let gold: Vec<f32> = w
            .iter()
            .flat_map(|c| c.lines.iter().flat_map(|l| conv1d_direct(l, &c.kernel)))
            .collect();
        assert_eq!(sim.output().as_slice(), gold);
        assert_eq!(sim.folds(), 4);
        assert_eq!(sim.cycles(), 63);
        assert_eq!(sim.cycles(), analytic_cycles_packed(&cfg, 3, 5, 7, 3));
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
        // The same lines split into one-line channels cannot pack.
        let split = one_line(
            w.iter().flat_map(|c| c.lines.iter().cloned()).collect(),
            w.iter()
                .flat_map(|c| std::iter::repeat_n(c.kernel.clone(), 7))
                .collect(),
        );
        let naive = simulate_packed(&cfg, &split).unwrap();
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
        // one line per row.
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
            let one_per_row = cycles_at_lpr(&cfg, ch, lines, l_out, k, 1);
            assert!(chosen <= one_per_row, "{ch} {lines} {l_out} {k}");
        }
    }
}

#[cfg(test)]
mod grid_tests {
    use super::tests::{bcast, one_line};
    use super::*;
    use fuseconv_tensor::rng::Rng;
    use fuseconv_trace::VecSink;

    /// Packed mapping: functional exactness, analytic-cycle equality and
    /// MAC count across a deterministic grid of geometries.
    #[test]
    fn packed_matches_golden_and_analytic_on_grid() {
        let mut rng = Rng::seed_from_u64(0x7061_636b);
        for &(rows, cols) in &[(1, 1), (2, 9), (4, 4), (5, 2)] {
            let cfg = bcast(rows, cols);
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
                let gold: Vec<f32> = w
                    .iter()
                    .flat_map(|c| c.lines.iter().flat_map(|l| conv1d_direct(l, &c.kernel)))
                    .collect();
                assert_eq!(sim.output().as_slice(), gold, "{ctx}");
                assert_eq!(
                    sim.cycles(),
                    analytic_cycles_packed(&cfg, channels, lines, l_out, k),
                    "{ctx}"
                );
                let macs = channels * lines * l_out * k;
                assert_eq!(sim.macs(), macs as u64, "{ctx}");
            }
        }
    }

    /// One-line channels (one convolution per row) are functionally exact
    /// and match the closed form, across a grid of batches and array sizes.
    /// They are also the mapping of the former unpacked simulator, bit for
    /// bit: over this grid the busy trace, output bits and event stream
    /// (fill-phase ifmap reads included) hash to the values it produced.
    #[test]
    fn simulator_matches_golden_and_analytic_on_grid() {
        let mut rng = Rng::seed_from_u64(0x6276_3164);
        let (mut events, mut busy, mut bits) = (String::new(), Vec::new(), Vec::new());
        for &(rows, cols) in &[(1, 1), (2, 5), (4, 4), (5, 2)] {
            let cfg = bcast(rows, cols);
            for &(n_convs, l_in, k) in &[
                (1, 1, 1),
                (1, 15, 5),
                (9, 7, 3),
                (4, 12, 1),
                (7, 9, 4),
                (3, 5, 5),
            ] {
                let mut draw = |len: usize| -> Vec<Vec<f32>> {
                    (0..n_convs)
                        .map(|_| (0..len).map(|_| rng.uniform(-0.5, 0.5)).collect())
                        .collect()
                };
                let inputs = draw(l_in);
                let kernels = draw(k);
                let gold: Vec<f32> = inputs
                    .iter()
                    .zip(&kernels)
                    .flat_map(|(i, w)| conv1d_direct(i, w))
                    .collect();
                let mut sink = VecSink::default();
                let sim =
                    simulate_packed_traced(&cfg, &one_line(inputs, kernels), &mut sink).unwrap();
                let l_out = l_in - k + 1;
                let ctx = format!("{rows}x{cols} array, n{n_convs} in{l_in} k{k}");
                assert_eq!(sim.output().as_slice(), gold, "{ctx}");
                assert_eq!(
                    sim.cycles(),
                    analytic_cycles_packed(&cfg, n_convs, 1, l_out, k),
                    "{ctx}"
                );
                assert_eq!(sim.macs(), (n_convs * l_out * k) as u64, "{ctx}");
                events += &format!(
                    "{rows}x{cols} n{n_convs} in{l_in} k{k}\n{:?}\n",
                    sink.events
                );
                busy.extend(sim.busy_trace().iter().flat_map(|x| x.to_le_bytes()));
                bits.extend(
                    sim.output()
                        .as_slice()
                        .iter()
                        .flat_map(|x| x.to_bits().to_le_bytes()),
                );
            }
        }
        let fnv = fuseconv_telemetry::fnv1a64;
        let got = [fnv(events.as_bytes()), fnv(&busy), fnv(&bits)];
        let pinned = [
            0x7afb_1a36_0602_8f58,
            0x7f32_5c86_214b_3c27,
            0xde25_ace5_bb6f_8ecc,
        ];
        assert_eq!(got, pinned, "[events, busy_trace, output]");
    }

    /// Packed rows (`lpr > 1`) over a generated grid of arrays and
    /// short-line batches, including remainder slot folds and column
    /// tails: the untraced run returns exactly the traced run's result,
    /// and the output bits, busy trace and event stream hash to pinned
    /// values.
    #[test]
    fn packed_runs_match_pinned_fingerprint_and_untraced_result() {
        let mut rng = Rng::seed_from_u64(0x6c70_7231);
        let (mut events, mut busy, mut bits) = (String::new(), Vec::new(), Vec::new());
        let mut packed = 0;
        for &(rows, cols) in &[(1, 8), (2, 16), (3, 12), (5, 32), (8, 64)] {
            let cfg = bcast(rows, cols);
            for _ in 0..6 {
                let (channels, lines) = (1 + rng.below(7), 2 + rng.below(7));
                let (l_out, k) = (1 + rng.below(cols / 2), 1 + rng.below(5));
                let w: Vec<ChannelLines> = (0..channels)
                    .map(|_| ChannelLines {
                        kernel: (0..k).map(|_| rng.uniform(-0.5, 0.5)).collect(),
                        lines: (0..lines)
                            .map(|_| (0..l_out + k - 1).map(|_| rng.uniform(-0.5, 0.5)).collect())
                            .collect(),
                    })
                    .collect();
                let ctx = format!("{rows}x{cols} c{channels} l{lines} out{l_out} k{k}");
                packed += usize::from(lines_per_row(&cfg, channels, lines, l_out, k) > 1);
                let mut sink = VecSink::default();
                let sim = simulate_packed_traced(&cfg, &w, &mut sink).unwrap();
                assert_eq!(simulate_packed(&cfg, &w).unwrap(), sim, "{ctx}");
                events += &format!("{ctx}\n{:?}\n", sink.events);
                busy.extend(sim.busy_trace().iter().flat_map(|x| x.to_le_bytes()));
                bits.extend(
                    sim.output()
                        .as_slice()
                        .iter()
                        .flat_map(|x| x.to_bits().to_le_bytes()),
                );
            }
        }
        assert!(packed >= 20, "only {packed} of 30 cases pack");
        let fnv = fuseconv_telemetry::fnv1a64;
        let got = [fnv(events.as_bytes()), fnv(&busy), fnv(&bits)];
        let pinned = [
            0xd935_a984_d8a0_f04d,
            0xcf59_65e5_cfad_dbe5,
            0xdd4d_968f_e9dc_96a3,
        ];
        assert_eq!(got, pinned, "[events, busy_trace, output]");
    }
}
