//! Pins everything derived from an operator's lowering onto the array.
//!
//! The fold planner, operand traffic, the analyzer's per-op findings and
//! the traced single-layer simulation all read what each operator runs as
//! on the array. This test hashes their outputs over every distinct op of
//! the `analyze --all` networks under the five Table I variants, on 8×8,
//! 16×16 and 64×64 broadcast arrays, under every GEMM dataflow, at batch 1
//! and 3. Each part is hashed on its own, per batch, so a change shows
//! which consumer moved and at which batch.
//!
//! The lowering itself ([`LatencyModel::lowering`]) is checked against
//! the operators' MAC counts, and the planner and operand traffic must
//! reject exactly the same degenerate operators.

use fuseconv::analyze::analyze_op;
use fuseconv::core::trace::simulate_op_traced;
use fuseconv::latency::memory::{dram_traffic, op_traffic, SramConfig};
use fuseconv::latency::{Dataflow, LatencyError, LatencyModel, Lowering};
use fuseconv::nn::ops::{Axis1d, Op};
use fuseconv::systolic::ArrayConfig;
use fuseconv::telemetry::fnv1a64;
use fuseconv::tensor::rng::Rng;
use fuseconv::trace::NullSink;
use std::fmt::Write;

mod common;
use common::zoo_ops;

/// Ops simulated cycle by cycle must fit both caps (the simulated share of
/// the batch's cycles and MACs), so the grid stays cheap in a debug build.
const SIM_CYCLE_CAP: u64 = 4_000;
const SIM_MAC_CAP: u64 = 100_000;

/// The parts of the pin, hashed separately.
const PARTS: [&str; 5] = ["plan", "traffic", "dram", "findings", "traced"];

/// `fnv1a64` of each part's text at `batch`, in [`PARTS`] order, and how
/// many ops were simulated.
fn pin(batch: usize) -> ([u64; 5], usize) {
    let tiny = SramConfig {
        ifmap_elems: 16,
        filter_elems: 16,
        ofmap_elems: 16,
    };
    let mut text: [String; 5] = Default::default();
    let mut simulated = 0;
    for side in [8, 16, 64] {
        let array = ArrayConfig::square(side)
            .expect("valid array")
            .with_broadcast(true);
        let ops = zoo_ops(&array);
        for dataflow in Dataflow::ALL {
            let model = LatencyModel::new(array)
                .with_dataflow(dataflow)
                .with_batch(batch);
            for op in &ops {
                let [plan, traffic, dram, findings, traced] = &mut text;
                let cycles = model.cycles(op);
                writeln!(plan, "{op} {cycles:?}").unwrap();
                for (at, spec, n) in model.fold_runs(op).expect("zoo ops plan").runs() {
                    writeln!(plan, "{at} {spec:?} {n}").unwrap();
                }
                writeln!(traffic, "{op} {:?}", op_traffic(&model, op)).unwrap();
                for sram in [SramConfig::scale_sim_default(), tiny] {
                    writeln!(dram, "{op} {:?}", dram_traffic(&model, op, &sram)).unwrap();
                }
                for d in analyze_op(&model, op, "pin") {
                    writeln!(findings, "{d:?}").unwrap();
                }
                // Depthwise simulates one of its `c` identical channels.
                let share = match *op {
                    Op::Depthwise { c, .. } => c as u64,
                    _ => 1,
                };
                let work = op.macs().saturating_mul(batch as u64) / share;
                if cycles.is_ok_and(|c| c / share <= SIM_CYCLE_CAP) && work <= SIM_MAC_CAP {
                    let sim = simulate_op_traced(&model, op, &mut NullSink).expect("zoo ops run");
                    let (cycles, repeats) = (sim.sim.cycles(), sim.repeats);
                    writeln!(traced, "{op} {cycles} x{repeats}").unwrap();
                    simulated += 1;
                }
            }
        }
    }
    (text.map(|t| fnv1a64(t.as_bytes())), simulated)
}

/// The pinned fingerprints, in [`PARTS`] order, at batch 1 and 3.
const PINNED: [[u64; 5]; 2] = [
    [
        0x1f48_c548_a61e_996e,
        0xa6fc_538d_d142_64d1,
        0x4ecd_460b_1c07_0c8f,
        0x35f1_7f96_2823_e22e,
        0xf528_8409_dd9c_287e,
    ],
    [
        0xa8df_a46b_520d_1dc2,
        0x641a_fe64_14db_2d06,
        0x2171_ca41_ed68_1e37,
        0x9c82_f7c9_7798_2865,
        0xd7b5_2279_a5e8_b57d,
    ],
];

#[test]
fn lowering_consumers_match_pinned_fingerprints() {
    let mut moved = Vec::new();
    for (batch, pinned) in [1, 3].into_iter().zip(PINNED) {
        let (hashes, simulated) = pin(batch);
        assert!(simulated >= 50, "batch {batch}: {simulated} ops simulated");
        for ((part, hash), want) in PARTS.iter().zip(hashes).zip(pinned) {
            if hash != want {
                moved.push(format!("batch {batch} {part}: {hash:#018x}"));
            }
        }
    }
    assert!(moved.is_empty(), "moved fingerprints: {moved:#?}");
}

/// A random operator of a random kind. Channel counts, kernel sizes and
/// feature sizes reach 0 now and then, so some come out degenerate.
fn random_op(rng: &mut Rng) -> Op {
    let (k, stride, pad) = (rng.below(6), 1 + rng.below(3), rng.below(3));
    // Spatial extents at least `k − 2·pad`, so output extents exist.
    let extent = |rng: &mut Rng| k.saturating_sub(2 * pad) + rng.below(12);
    let (in_h, in_w) = (extent(rng), extent(rng));
    let (c, c2) = (rng.below(9), rng.below(9));
    match rng.below(6) {
        0 => Op::conv2d(in_h, in_w, c, c2, k, stride, pad),
        1 => Op::depthwise(in_h, in_w, c, k, stride, pad),
        2 => Op::pointwise(in_h, in_w, c, c2),
        3 => Op::fuse1d(in_h, in_w, c, k, stride, pad, Axis1d::Row),
        4 => Op::fuse1d(in_h, in_w, c, k, stride, pad, Axis1d::Col),
        _ => Op::fc(rng.below(40), rng.below(40)),
    }
}

/// Over every zoo op and 2 000 generated ones: the lowering does each
/// operator's MACs once per image it batches, and the planner and operand
/// traffic reject exactly the ops the lowering rejects: those with no work.
#[test]
fn lowering_conserves_macs_and_its_consumers_reject_alike() {
    let array = ArrayConfig::square(16)
        .expect("valid array")
        .with_broadcast(true);
    let mut rng = Rng::seed_from_u64(0x6c6f_7765);
    let mut ops = zoo_ops(&array);
    ops.extend((0..2_000).map(|_| random_op(&mut rng)));
    let mut degenerate = 0;
    for batch in [1, 3] {
        let model = LatencyModel::new(array).with_batch(batch);
        for op in &ops {
            let rejected = model.cycles(op).err();
            assert_eq!(
                rejected,
                op_traffic(&model, op).err(),
                "{op} at batch {batch}"
            );
            let Ok(lowering) = model.lowering(op) else {
                assert_eq!(op.macs(), 0, "{op} at batch {batch}");
                assert!(matches!(rejected, Some(LatencyError::DegenerateOp { .. })));
                degenerate += 1;
                continue;
            };
            let work = match lowering {
                Lowering::Gemm { m, k, n, instances } => instances * m * k * n,
                Lowering::RowBroadcast {
                    channels,
                    lines,
                    l_out,
                    k,
                    ..
                } => channels * lines * l_out * k,
            };
            // Fully connected rows and FuSe lines do not grow with the
            // batch yet.
            let batched = matches!(
                op,
                Op::Conv2d { .. } | Op::Depthwise { .. } | Op::Pointwise { .. }
            );
            let images = if batched { batch as u64 } else { 1 };
            assert_eq!(work, images * op.macs(), "{op} at batch {batch}");
        }
    }
    assert!(degenerate >= 100, "only {degenerate} degenerate ops drawn");
}

#[test]
fn batched_gemm_traffic_is_the_traffic_of_taller_gemms() {
    // Stride 1 with "same" padding: eight images stacked along the height
    // are the same GEMM rows as a batch of eight.
    let model = LatencyModel::new(ArrayConfig::square(64).expect("valid array"));
    let ops: [fn(usize) -> Op; 3] = [
        |h| Op::pointwise(h, 56, 64, 64),
        |h| Op::depthwise(h, 56, 64, 3, 1, 1),
        |h| Op::conv2d(h, 56, 16, 96, 3, 1, 1),
    ];
    for op in ops {
        let (batched, tall) = (model.with_batch(8), op(8 * 56));
        assert_eq!(op_traffic(&batched, &op(56)), op_traffic(&model, &tall));
        assert_eq!(batched.cycles(&op(56)), model.cycles(&tall), "{tall}");
    }
}
