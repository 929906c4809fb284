//! Differential test for the simulator's metrics instrumentation: the
//! registry's `sim.cycles_total` / `sim.runs_total` / `sim.folds_total`
//! counters must advance by exactly what the returned [`SimResult`]s
//! report, across all five instrumented traced simulators run
//! through the counted entry point. The test thread's telemetry run
//! records nothing else, so the counters are compared whole.

use fuseconv::perf::counted;
use fuseconv::systolic::conv1d::{self, ChannelLines};
use fuseconv::systolic::{ArrayConfig, Dataflow};
use fuseconv::telemetry::metrics_snapshot;
use fuseconv::tensor::Tensor;

#[test]
fn sim_counters_equal_sum_of_returned_sim_results() {
    let cfg = ArrayConfig::square(8)
        .expect("8 is nonzero")
        .with_broadcast(true);
    let a = Tensor::from_fn(&[6, 5], |i| (i[0] + 2 * i[1]) as f32 * 0.25).expect("tensor a");
    let b = Tensor::from_fn(&[5, 7], |i| (3 * i[0] + i[1]) as f32 * 0.125).expect("tensor b");
    let lines: Vec<Vec<f32>> = (0..4).map(|c| vec![0.5 + c as f32; 9]).collect();
    let kernels: Vec<Vec<f32>> = (0..4).map(|c| vec![1.0, c as f32, -1.0]).collect();
    let packed: Vec<ChannelLines> = (0..3)
        .map(|c| ChannelLines {
            lines: vec![vec![0.25 * (c + 1) as f32; 7]; 2],
            kernel: vec![1.0, 0.0, -1.0],
        })
        .collect();

    let mut cycles = 0u64;
    let mut folds = 0u64;
    let mut runs = 0u64;
    let mut tally = |sim: &fuseconv::systolic::SimResult| {
        cycles += sim.cycles();
        folds += sim.folds();
        runs += 1;
    };
    for dataflow in Dataflow::ALL {
        let gemm = counted(&cfg, |s| dataflow.simulate(&cfg, &a, &b, s));
        tally(&gemm.expect("gemm").0);
    }
    let conv = counted(&cfg, |s| conv1d::simulate_traced(&cfg, &lines, &kernels, s));
    tally(&conv.expect("conv1d").0);
    let packed = counted(&cfg, |s| conv1d::simulate_packed_traced(&cfg, &packed, s));
    tally(&packed.expect("packed conv1d").0);
    assert!(cycles > 0 && folds > 0);

    let snap = metrics_snapshot();
    assert_eq!(
        snap.counter("sim.cycles_total"),
        cycles,
        "sim.cycles_total diverged from the SimResults the simulators returned"
    );
    assert_eq!(snap.counter("sim.runs_total"), runs);
    assert_eq!(snap.counter("sim.folds_total"), folds);
}
