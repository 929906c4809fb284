//! Counted simulation: every entry point returns its result
//! *plus* fully cycle-accounted [`PerfCounters`], with the accountability
//! invariant (`fill + active + bubble + drain == SimResult::cycles()`)
//! enforced by `debug_assert` in debug builds.

use crate::counters::{CounterSink, PerfCounters};
use fuseconv_core::trace::{simulate_op_traced, TraceError, TracedSim};
use fuseconv_latency::{LatencyError, LatencyModel};
use fuseconv_nn::ops::Op;
use fuseconv_systolic::{ArrayConfig, SimResult};
use fuseconv_trace::FoldSpec;

/// Runs one traced simulation through a [`CounterSink`] sized to `cfg`
/// and returns its result with the audited counters, e.g.
/// `counted(&cfg, |sink| dataflow.simulate(&cfg, &a, &b, sink))`.
/// Every cycle-exact simulator (`Dataflow::simulate`,
/// `conv1d::simulate_traced`, `conv1d::simulate_packed_traced`) plugs in
/// the same way.
///
/// # Errors
///
/// Whatever `simulate` returns.
pub fn counted<E>(
    cfg: &ArrayConfig,
    simulate: impl FnOnce(&mut CounterSink) -> Result<SimResult, E>,
) -> Result<(SimResult, PerfCounters), E> {
    let mut sink = CounterSink::new(cfg.rows(), cfg.cols());
    let sim = simulate(&mut sink)?;
    let counters = sink.into_counters();
    // Debug-build enforcement of the hard invariant: every simulated
    // cycle is attributed to exactly one category, and the PE·cycle
    // work counters match the simulator's own accounting.
    debug_assert!(
        counters.verify_total(sim.cycles()).is_ok(),
        "{}",
        counters
            .verify_total(sim.cycles())
            .err()
            .unwrap_or_default()
    );
    debug_assert_eq!(
        counters.busy_pe_cycles(),
        sim.busy_pe_cycles(),
        "counter busy_pe_cycles diverged from SimResult"
    );
    Ok((sim, counters))
}

/// Cycle-exact simulation of one operator (lowered exactly as the latency
/// model lowers it) with performance counters. The counters cover the
/// *simulated* workload: for depthwise ops that is one representative
/// channel, repeated [`TracedSim::repeats`] times by the full operator.
///
/// # Errors
///
/// Same as [`simulate_op_traced`].
pub fn simulate_op_counted(
    model: &LatencyModel,
    op: &Op,
) -> Result<(TracedSim, PerfCounters), TraceError> {
    let _span = fuseconv_telemetry::span("perf.sim_counted");
    let mut repeats = 1;
    let (sim, counters) = counted(model.array(), |sink| {
        simulate_op_traced(model, op, sink).map(|traced| {
            repeats = traced.repeats;
            traced.sim
        })
    })?;
    Ok((TracedSim { sim, repeats }, counters))
}

/// Performance counters derived from an analytic fold plan by event
/// replay ([`fuseconv_trace::replay`] through a [`CounterSink`]).
///
/// This is the second independent derivation; it agrees with
/// [`plan_counters`] (the pure closed form) on every fold, and with the
/// counted simulators whenever the specs came from
/// [`LatencyModel::fold_plan`] for the same op.
pub fn replay_counted(specs: &[FoldSpec], rows: usize, cols: usize) -> PerfCounters {
    let _span = fuseconv_telemetry::span("perf.replay");
    let mut sink = CounterSink::new(rows, cols);
    let total = fuseconv_trace::replay(specs, &mut sink);
    let counters = sink.into_counters();
    debug_assert!(
        counters.verify_total(total).is_ok(),
        "{}",
        counters.verify_total(total).err().unwrap_or_default()
    );
    counters
}

/// Performance counters derived analytically from the latency model's
/// fold plan for one operator — no simulation, no event stream.
///
/// # Errors
///
/// Same as [`LatencyModel::fold_plan`].
pub fn plan_counters(model: &LatencyModel, op: &Op) -> Result<PerfCounters, LatencyError> {
    let plan = model.fold_plan(op)?;
    Ok(PerfCounters::from_fold_plan(
        &plan,
        model.array().rows(),
        model.array().cols(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_nn::ops::Axis1d;
    use fuseconv_systolic::{conv1d, Dataflow};
    use fuseconv_tensor::rng::Rng;
    use fuseconv_tensor::Tensor;

    fn cfg(side: usize) -> ArrayConfig {
        ArrayConfig::square(side).unwrap().with_broadcast(true)
    }

    fn model(side: usize) -> LatencyModel {
        LatencyModel::new(cfg(side))
    }

    fn tensor(rng: &mut Rng, dims: &[usize]) -> Tensor {
        Tensor::from_fn(dims, |_| rng.uniform(-1.0, 1.0)).unwrap()
    }

    #[test]
    fn all_three_gemm_dataflows_are_accountable() {
        let mut rng = Rng::seed_from_u64(1);
        let a = tensor(&mut rng, &[10, 7]);
        let b = tensor(&mut rng, &[7, 12]);
        let cfg = cfg(8);
        for dataflow in Dataflow::ALL {
            let name = dataflow.short_name();
            let (sim, counters) = counted(&cfg, |s| dataflow.simulate(&cfg, &a, &b, s)).unwrap();
            counters
                .verify_total(sim.cycles())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(counters.busy_pe_cycles(), sim.busy_pe_cycles(), "{name}");
            assert_eq!(counters.folds().len() as u64, sim.folds(), "{name}");
            assert_eq!(counters.broadcast_ticks(), 0, "{name}");
        }
    }

    #[test]
    fn conv1d_counts_broadcast_ticks() {
        let inputs: Vec<Vec<f32>> = (0..5).map(|i| vec![i as f32; 9]).collect();
        let kernels: Vec<Vec<f32>> = (0..5).map(|_| vec![1.0, 2.0, 3.0]).collect();
        let cfg = cfg(4);
        let (sim, counters) = counted(&cfg, |s| {
            conv1d::simulate_traced(&cfg, &inputs, &kernels, s)
        })
        .unwrap();
        counters.verify_total(sim.cycles()).unwrap();
        // Every fold broadcasts one tap per used row per compute cycle.
        let expected: u64 = counters
            .folds()
            .iter()
            .map(|f| u64::from(f.rows_used) * f.compute())
            .sum();
        assert_eq!(counters.broadcast_ticks(), expected);
        assert!(counters.broadcast_ticks() > 0);
    }

    #[test]
    fn simulator_replay_and_plan_agree_per_op() {
        let model = model(8);
        for op in [
            Op::conv2d(6, 6, 3, 8, 3, 1, 1),
            Op::pointwise(5, 5, 6, 10),
            Op::fuse1d(8, 8, 3, 3, 1, 1, Axis1d::Row),
            Op::fc(20, 12),
        ] {
            let (_, simulated) = simulate_op_counted(&model, &op).unwrap();
            let plan = model.fold_plan(&op).unwrap();
            let replayed = replay_counted(&plan, 8, 8);
            let analytic = plan_counters(&model, &op).unwrap();
            assert_eq!(replayed, analytic, "{op}");
            assert_eq!(simulated.cycles(), analytic.cycles(), "{op}");
            assert_eq!(simulated.fill(), analytic.fill(), "{op}");
            assert_eq!(simulated.active(), analytic.active(), "{op}");
            assert_eq!(simulated.bubble(), analytic.bubble(), "{op}");
            assert_eq!(simulated.drain(), analytic.drain(), "{op}");
            assert_eq!(
                simulated.busy_pe_cycles(),
                analytic.busy_pe_cycles(),
                "{op}"
            );
            assert_eq!(
                simulated.broadcast_ticks(),
                analytic.broadcast_ticks(),
                "{op}"
            );
        }
    }

    #[test]
    fn depthwise_counters_cover_one_repeated_channel() {
        let model = model(8);
        let op = Op::depthwise(6, 6, 4, 3, 1, 1);
        let (traced, counters) = simulate_op_counted(&model, &op).unwrap();
        assert_eq!(traced.repeats, 4);
        counters.verify_total(traced.sim.cycles()).unwrap();
        // The plan covers all channels: c identical copies of the
        // simulated single-channel counters.
        let analytic = plan_counters(&model, &op).unwrap();
        assert_eq!(analytic.cycles(), counters.cycles() * traced.repeats);
    }
}
