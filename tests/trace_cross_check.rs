//! Cross-checks the three cycle accountants against each other:
//!
//! 1. the cycle-exact systolic simulator ([`SimResult::cycles`]),
//! 2. the trace event stream (cycles reconstructed by a
//!    [`UtilizationSink`] listening to the same simulation), and
//! 3. the analytic latency model ([`LatencyModel::cycles`] /
//!    [`fold_plan`]).
//!
//! All three must agree exactly — byte-for-byte equal cycle counts — for a
//! grid of GEMM and conv1d shapes, including non-square arrays and
//! multi-fold workloads.

use fuseconv::latency::{Dataflow, LatencyModel};
use fuseconv::nn::ops::{Axis1d, Op};
use fuseconv::perf::CounterSink;
use fuseconv::systolic::conv1d::ChannelLines;
use fuseconv::systolic::{conv1d, ArrayConfig};
use fuseconv::telemetry::fnv1a64;
use fuseconv::tensor::rng::Rng;
use fuseconv::tensor::Tensor;
use fuseconv::trace::{replay, FoldSpec, UtilizationSink, VecSink};

const ARRAYS: [(usize, usize); 4] = [(4, 4), (3, 5), (8, 2), (6, 6)];
const GEMMS: [(usize, usize, usize); 5] =
    [(1, 1, 1), (7, 5, 9), (9, 13, 4), (16, 3, 11), (5, 20, 5)];

fn tensors(m: usize, k: usize, n: usize) -> (Tensor, Tensor) {
    let mut rng = Rng::seed_from_u64(0x5852_4331);
    (
        Tensor::from_fn(&[m, k], |_| rng.uniform(-0.5, 0.5)).unwrap(),
        Tensor::from_fn(&[k, n], |_| rng.uniform(-0.5, 0.5)).unwrap(),
    )
}

#[test]
fn traced_gemm_cycles_match_simulator_and_model() {
    for (rows, cols) in ARRAYS {
        let cfg = ArrayConfig::new(rows, cols).unwrap();
        for dataflow in Dataflow::ALL {
            let model = LatencyModel::new(cfg).with_dataflow(dataflow);
            for (m, k, n) in GEMMS {
                let (a, b) = tensors(m, k, n);
                let mut sink = UtilizationSink::new(rows, cols);
                let sim = dataflow.simulate(&cfg, &a, &b, &mut sink).unwrap();
                let ctx = format!("{rows}x{cols} {dataflow:?} {m}x{k}x{n}");
                // Simulator vs trace: identical cycle and busy accounting.
                assert_eq!(sink.cycles(), sim.cycles(), "{ctx}");
                assert_eq!(sink.busy_pe_cycles(), sim.busy_pe_cycles(), "{ctx}");
                assert_eq!(sink.fold_stats().len() as u64, sim.folds(), "{ctx}");
                // Trace vs analytic model: a pointwise conv over an m×1
                // map lowers to exactly this (m, k, n) GEMM.
                let op = Op::pointwise(m, 1, k, n);
                assert_eq!(sink.cycles(), model.cycles(&op).unwrap(), "{ctx}");
            }
        }
    }
}

#[test]
fn traced_conv1d_cycles_match_simulator_and_model() {
    // (channels, lines, l_out, k) grids including multi-fold and packed
    // (lpr > 1) schedules.
    let shapes = [
        (1, 1, 6, 3),
        (3, 4, 9, 3),
        (5, 7, 2, 2),
        (2, 9, 12, 5),
        (8, 3, 4, 3),
    ];
    for (rows, cols) in ARRAYS {
        let cfg = ArrayConfig::new(rows, cols).unwrap().with_broadcast(true);
        for (channels, lines, l_out, k) in shapes {
            let l_in = l_out + k - 1;
            let mut rng = Rng::seed_from_u64(0x5852_4332);
            let work: Vec<ChannelLines> = (0..channels)
                .map(|_| ChannelLines {
                    kernel: (0..k).map(|_| rng.uniform(-0.5, 0.5)).collect(),
                    lines: (0..lines)
                        .map(|_| (0..l_in).map(|_| rng.uniform(-0.5, 0.5)).collect())
                        .collect(),
                })
                .collect();
            let mut sink = UtilizationSink::new(rows, cols);
            let sim = conv1d::simulate_packed_traced(&cfg, &work, &mut sink).unwrap();
            let ctx = format!("{rows}x{cols} c{channels} l{lines} out{l_out} k{k}");
            assert_eq!(sink.cycles(), sim.cycles(), "{ctx}");
            assert_eq!(sink.busy_pe_cycles(), sim.busy_pe_cycles(), "{ctx}");
            assert_eq!(
                sim.cycles(),
                conv1d::analytic_cycles_packed(&cfg, channels, lines, l_out, k),
                "{ctx}"
            );
        }
    }
}

#[test]
fn fold_plan_replay_matches_model_for_every_op_kind() {
    let ops = [
        Op::conv2d(10, 10, 4, 12, 3, 1, 1),
        Op::depthwise(12, 12, 6, 3, 1, 1),
        Op::pointwise(9, 9, 8, 16),
        Op::fuse1d(11, 11, 5, 3, 1, 1, Axis1d::Row),
        Op::fuse1d(6, 6, 7, 5, 1, 2, Axis1d::Col),
        Op::fc(64, 30),
    ];
    for (rows, cols) in ARRAYS {
        let cfg = ArrayConfig::new(rows, cols).unwrap().with_broadcast(true);
        for dataflow in Dataflow::ALL {
            let model = LatencyModel::new(cfg).with_dataflow(dataflow);
            for op in &ops {
                let plan = model.fold_plan(op).unwrap();
                let mut sink = UtilizationSink::new(rows, cols);
                let replayed = replay(&plan, &mut sink);
                let expected = model.cycles(op).unwrap();
                let ctx = format!("{rows}x{cols} {dataflow:?} {op}");
                assert_eq!(replayed, expected, "{ctx}");
                assert_eq!(sink.cycles(), expected, "{ctx}");
                // Busy accounting survives the replay: summed busy cycles
                // equal the op's MAC count.
                assert_eq!(sink.busy_pe_cycles(), op.macs(), "{ctx}");
            }
        }
    }
}

#[test]
fn traced_event_stream_is_internally_consistent() {
    // Every cycle number in the stream must be monotonically
    // non-decreasing, and fold spans must tile the timeline.
    let cfg = ArrayConfig::new(3, 5).unwrap();
    let (a, b) = tensors(9, 13, 4);
    let mut sink = VecSink::default();
    let sim = Dataflow::OutputStationary
        .simulate(&cfg, &a, &b, &mut sink)
        .unwrap();
    let mut last_cycle = 0u64;
    let mut fold_open = false;
    let mut cycle_events = 0u64;
    for ev in &sink.events {
        use fuseconv::trace::TraceEvent::*;
        let cycle = match *ev {
            FoldStart { cycle, .. } => {
                assert!(!fold_open, "folds must not nest");
                fold_open = true;
                cycle
            }
            FoldEnd { cycle, .. } => {
                assert!(fold_open);
                fold_open = false;
                cycle
            }
            Cycle { cycle, .. } => {
                cycle_events += 1;
                cycle
            }
            PeFire { cycle, .. }
            | OperandRead { cycle, .. }
            | WeightBroadcast { cycle, .. }
            | OutputWrite { cycle, .. } => cycle,
        };
        assert!(cycle >= last_cycle, "cycle {cycle} after {last_cycle}");
        last_cycle = cycle;
    }
    assert!(!fold_open, "last fold must close");
    assert_eq!(cycle_events, sim.cycles(), "one Cycle event per cycle");
}

#[test]
fn replay_of_simulated_fold_stats_reproduces_the_simulation() {
    // Round-trip: capture a simulation's per-fold stats, rebuild FoldSpecs
    // from them, replay — total cycles and busy cycles must survive.
    let cfg = ArrayConfig::new(4, 4).unwrap();
    let (a, b) = tensors(16, 3, 11);
    let mut sink = UtilizationSink::new(4, 4);
    let sim = Dataflow::WeightStationary
        .simulate(&cfg, &a, &b, &mut sink)
        .unwrap();
    let specs: Vec<FoldSpec> = sink
        .fold_stats()
        .iter()
        .map(|s| FoldSpec {
            tag: s.tag,
            kind: s.kind,
            rows_used: s.rows_used,
            cols_used: s.cols_used,
            fill: s.fill,
            compute: s.compute,
            drain: s.drain,
            macs: s.busy_pe_cycles,
        })
        .collect();
    let mut resink = UtilizationSink::new(4, 4);
    let replayed = replay(&specs, &mut resink);
    assert_eq!(replayed, sim.cycles());
    assert_eq!(resink.busy_pe_cycles(), sim.busy_pe_cycles());
    assert_eq!(resink.fold_stats().len() as u64, sim.folds());
}

/// FNV-1a fingerprints of the GEMM simulators' observable output over
/// [`fingerprint_grid`], one row per dataflow (OS, WS, IS): `[VecSink event
/// stream (Debug-rendered), busy_trace, output bits, CounterSink
/// counters]`. The SCALE-Sim CSV, Chrome and heatmap traces are all
/// functions of these streams, so pinning them pins those artifacts byte
/// for byte.
#[rustfmt::skip]
const GEMM_FINGERPRINTS: [[u64; 4]; 3] = [
    [0xa113_7f37_18a9_ee09, 0xbc1f_3136_459c_b9a8, 0xc171_3e2e_57b3_03d9, 0xcf1f_918c_3c85_43f5],
    [0xa051_3298_d7aa_aa2b, 0x3ea9_213c_e552_f95e, 0xc171_3e2e_57b3_03d9, 0x2ad9_ee8e_482a_cbb2],
    [0xdee2_042b_f21c_90af, 0xc9f0_cba0_1765_6144, 0xc171_3e2e_57b3_03d9, 0x39eb_d6d1_cf6f_60cc],
];

/// The grid behind [`GEMM_FINGERPRINTS`]: one 1×N, one N×1, one
/// non-square and one square array, each with `(M, K, N)` drawn from
/// `1..=13` (a 1 forced into every other shape) so that unit dimensions
/// and remainder folds both occur.
fn fingerprint_grid() -> Vec<(ArrayConfig, usize, usize, usize)> {
    let mut rng = Rng::seed_from_u64(0x4650_5249_4e54);
    let mut side = |lo: usize, hi: usize| lo + rng.below(hi - lo + 1);
    let square = side(3, 5);
    let arrays = [
        (1, side(2, 6)),
        (side(2, 6), 1),
        (side(2, 4), side(5, 7)),
        (square, square),
    ];
    let mut grid = Vec::new();
    for (rows, cols) in arrays {
        let cfg = ArrayConfig::new(rows, cols).unwrap();
        for case in 0..6 {
            let mut dims = [0; 3].map(|_| 1 + rng.below(13));
            if case % 2 == 1 {
                dims[rng.below(3)] = 1;
            }
            grid.push((cfg, dims[0], dims[1], dims[2]));
        }
    }
    grid
}

#[test]
fn gemm_event_streams_match_pinned_fingerprints() {
    let grid = fingerprint_grid();
    for (dataflow, pinned) in Dataflow::ALL.into_iter().zip(GEMM_FINGERPRINTS) {
        let (mut events, mut busy, mut bits, mut counters) =
            (String::new(), Vec::new(), Vec::new(), String::new());
        for &(cfg, m, k, n) in &grid {
            let (a, b) = tensors(m, k, n);
            let ctx = format!("{}x{} {dataflow:?} {m}x{k}x{n}", cfg.rows(), cfg.cols());
            let mut vec_sink = VecSink::default();
            let traced = dataflow.simulate(&cfg, &a, &b, &mut vec_sink).unwrap();
            let plain = dataflow
                .simulate(&cfg, &a, &b, &mut fuseconv::trace::NullSink)
                .unwrap();
            assert_eq!(traced, plain, "{ctx}: tracing must not change the result");
            let mut counter_sink = CounterSink::new(cfg.rows(), cfg.cols());
            dataflow.simulate(&cfg, &a, &b, &mut counter_sink).unwrap();
            events += &format!("{ctx}\n{:?}\n", vec_sink.events);
            busy.extend(plain.busy_trace().iter().flat_map(|x| x.to_le_bytes()));
            bits.extend(
                plain
                    .output()
                    .as_slice()
                    .iter()
                    .flat_map(|x| x.to_bits().to_le_bytes()),
            );
            counters += &format!("{ctx}\n{:?}\n", counter_sink.into_counters());
        }
        let got = [
            fnv1a64(events.as_bytes()),
            fnv1a64(&busy),
            fnv1a64(&bits),
            fnv1a64(counters.as_bytes()),
        ];
        assert_eq!(
            got, pinned,
            "{dataflow:?}: [events, busy_trace, output, counters]"
        );
    }
}

/// The `(channels, lines, l_out, k)` grid and operands of
/// `traced_conv1d_cycles_match_simulator_and_model`, for fingerprinting.
const CONV1D_SHAPES: [(usize, usize, usize, usize); 5] = [
    (1, 1, 6, 3),
    (3, 4, 9, 3),
    (5, 7, 2, 2),
    (2, 9, 12, 5),
    (8, 3, 4, 3),
];

fn conv1d_work(channels: usize, lines: usize, l_out: usize, k: usize) -> Vec<ChannelLines> {
    let l_in = l_out + k - 1;
    let mut rng = Rng::seed_from_u64(0x5852_4332);
    (0..channels)
        .map(|_| ChannelLines {
            kernel: (0..k).map(|_| rng.uniform(-0.5, 0.5)).collect(),
            lines: (0..lines)
                .map(|_| (0..l_in).map(|_| rng.uniform(-0.5, 0.5)).collect())
                .collect(),
        })
        .collect()
}

#[test]
fn packed_conv1d_event_stream_matches_pinned_fingerprint() {
    // [VecSink event stream (Debug-rendered), busy_trace, output bits]
    // of the row-broadcast simulator over the conv1d grid.
    let (mut events, mut busy, mut bits) = (String::new(), Vec::new(), Vec::new());
    for (rows, cols) in ARRAYS {
        let cfg = ArrayConfig::new(rows, cols).unwrap().with_broadcast(true);
        for (channels, lines, l_out, k) in CONV1D_SHAPES {
            let work = conv1d_work(channels, lines, l_out, k);
            let mut sink = VecSink::default();
            let traced = conv1d::simulate_packed_traced(&cfg, &work, &mut sink).unwrap();
            let plain = conv1d::simulate_packed(&cfg, &work).unwrap();
            let ctx = format!("{rows}x{cols} c{channels} l{lines} out{l_out} k{k}");
            assert_eq!(traced, plain, "{ctx}: tracing must not change the result");
            events += &format!("{ctx}\n{:?}\n", sink.events);
            busy.extend(plain.busy_trace().iter().flat_map(|x| x.to_le_bytes()));
            bits.extend(
                plain
                    .output()
                    .as_slice()
                    .iter()
                    .flat_map(|x| x.to_bits().to_le_bytes()),
            );
        }
    }
    let got = [fnv1a64(events.as_bytes()), fnv1a64(&busy), fnv1a64(&bits)];
    let pinned = [
        0x2a7c_35af_41f8_f206,
        0xb46a_c441_5d0f_c0e3,
        0x4910_c3d4_ec35_4b6d,
    ];
    assert_eq!(got, pinned, "[events, busy_trace, output]");
}
