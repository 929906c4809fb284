//! Cycle accountability of the performance-counter subsystem, checked
//! three ways across the model zoo:
//!
//! 1. **Analytic accountability** — for every operator of every zoo
//!    network, under every GEMM dataflow and FuSe variant, the counters
//!    derived from the fold plan satisfy the hard invariant
//!    `fill + active + bubble + drain == LatencyModel::cycles(op)`, with
//!    internally consistent per-fold sums.
//! 2. **Replay agreement** — replaying the same fold plan through the
//!    event stream of [`fuseconv::trace::replay`] into a `CounterSink`
//!    reproduces the analytic counters exactly.
//! 3. **Simulator agreement** — the cycle-exact simulators, traced
//!    through the same sink, agree with the analytic prediction fold by
//!    fold on every category, on a shape grid covering all four
//!    dataflows, multi-fold tilings and remainder folds.

use fuseconv::latency::{Dataflow, LatencyModel};
use fuseconv::models::{zoo, Network};
use fuseconv::nn::ops::{Axis1d, Op};
use fuseconv::nn::FuSeVariant;
use fuseconv::perf::{plan_counters, replay_counted, simulate_op_counted, FoldCounters};
use fuseconv::systolic::ArrayConfig;

fn paper_model(side: usize, dataflow: Dataflow) -> LatencyModel {
    let array = ArrayConfig::square(side)
        .expect("nonzero array side")
        .with_broadcast(true);
    LatencyModel::new(array).with_dataflow(dataflow)
}

fn variants(net: &Network) -> [(String, Network); 3] {
    [
        ("baseline".to_string(), net.clone()),
        ("full".to_string(), net.transform_all(FuSeVariant::Full)),
        ("half".to_string(), net.transform_all(FuSeVariant::Half)),
    ]
}

/// The whole zoo: every network the repo models.
fn whole_zoo() -> Vec<Network> {
    vec![
        zoo::mobilenet_v1(),
        zoo::mobilenet_v2(),
        zoo::mobilenet_v3_large(),
        zoo::mobilenet_v3_small(),
        zoo::mnasnet_b1(),
        zoo::resnet50(),
        zoo::efficientnet_b0(),
    ]
}

#[test]
fn zoo_counters_account_for_every_cycle_under_all_dataflows() {
    for dataflow in Dataflow::ALL {
        let model = paper_model(64, dataflow);
        for net in whole_zoo() {
            for (vname, variant) in variants(&net) {
                for named in variant.ops() {
                    let ctx = format!(
                        "{dataflow:?} {}[{vname}]/{}/{}",
                        net.name(),
                        named.block_name,
                        named.op
                    );
                    let counters =
                        plan_counters(&model, &named.op).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    counters.check().unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    let expected = model
                        .cycles(&named.op)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    counters
                        .verify_total(expected)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                }
            }
        }
    }
}

#[test]
fn replay_reproduces_analytic_counters_across_a_network() {
    let model = paper_model(32, Dataflow::OutputStationary);
    let net = zoo::mobilenet_v2();
    for (vname, variant) in variants(&net) {
        for named in variant.ops() {
            let ctx = format!("{vname}/{}/{}", named.block_name, named.op);
            let plan = model
                .fold_plan(&named.op)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let analytic = plan_counters(&model, &named.op).expect("plan counters");
            let replayed = replay_counted(&plan, 32, 32);
            assert_eq!(replayed, analytic, "{ctx}");
        }
    }
}

/// A fold's counters with the provenance tag erased: simulator folds are
/// tagged by ordinal, plan folds by op index, so tags differ by design
/// while every accounted quantity must not.
fn untagged(f: &FoldCounters) -> FoldCounters {
    FoldCounters { tag: 0, ..*f }
}

#[test]
fn simulator_agrees_with_analytic_prediction_fold_by_fold() {
    // Shapes straddle an 8×8 array on every axis: single-fold, exact-tile
    // and remainder-fold cases for each dataflow's tiling dimensions.
    let ops = [
        Op::conv2d(6, 6, 3, 8, 3, 1, 1),
        Op::conv2d(10, 10, 4, 17, 3, 2, 1),
        Op::pointwise(5, 5, 6, 10),
        Op::pointwise(9, 9, 16, 8),
        Op::fuse1d(8, 8, 3, 3, 1, 1, Axis1d::Row),
        Op::fuse1d(7, 9, 12, 5, 1, 2, Axis1d::Col),
        Op::fc(20, 12),
        Op::fc(64, 64),
    ];
    for dataflow in Dataflow::ALL {
        let model = paper_model(8, dataflow);
        for op in &ops {
            let ctx = format!("{dataflow:?} {op}");
            let (_, simulated) =
                simulate_op_counted(&model, op).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let analytic = plan_counters(&model, op).expect("plan counters");
            assert_eq!(
                simulated.folds().len(),
                analytic.folds().len(),
                "{ctx}: fold count"
            );
            for (i, (s, a)) in simulated.folds().iter().zip(analytic.folds()).enumerate() {
                assert_eq!(untagged(s), untagged(a), "{ctx}: fold {i}");
            }
        }
    }
}

#[test]
fn depthwise_plan_is_the_simulated_channel_repeated() {
    let model = paper_model(8, Dataflow::OutputStationary);
    let op = Op::depthwise(10, 10, 5, 3, 1, 1);
    let (traced, simulated) = simulate_op_counted(&model, &op).expect("traced depthwise");
    let analytic = plan_counters(&model, &op).expect("plan counters");

    // The simulator runs one representative channel; the plan covers all
    // `c` channels as identical copies of it.
    let repeats = traced.repeats as usize;
    assert_eq!(repeats, 5);
    let per_channel = simulated.folds().len();
    assert_eq!(analytic.folds().len(), per_channel * repeats);
    for (i, a) in analytic.folds().iter().enumerate() {
        let s = &simulated.folds()[i % per_channel];
        assert_eq!(untagged(s), untagged(a), "plan fold {i}");
    }
    assert_eq!(analytic.cycles(), simulated.cycles() * traced.repeats);
}
