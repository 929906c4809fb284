//! Trace-capture drivers: turn networks and layers into trace event
//! streams.
//!
//! Two capture paths, matched to two scales of question:
//!
//! * **Whole network** — [`network_fold_plan`] lowers every operator to
//!   its analytic fold plan ([`LatencyModel::fold_plan`]) and tags each
//!   fold with its operator index, ready for
//!   [`fuseconv_trace::replay`]. This produces fold/phase/busy events for
//!   millions of cycles in milliseconds, but no per-PE activity.
//! * **Single layer** — [`simulate_op_traced`] runs the cycle-exact
//!   systolic simulator on synthetic operands, emitting every PE fire and
//!   SRAM access. This is what the per-PE heatmaps and SCALE-Sim traces
//!   are made of.
//!
//! Both paths agree on cycle counts under serial fold accounting; the
//! `trace_cross_check` integration test pins that equality.

use crate::variant::{apply_variant, Variant};
use fuseconv_latency::{LatencyError, LatencyModel, Lowering};
use fuseconv_models::Network;
use fuseconv_nn::ops::Op;
use fuseconv_systolic::conv1d::ChannelLines;
use fuseconv_systolic::{conv1d, ConfigError, SimResult};
use fuseconv_tensor::rng::Rng;
use fuseconv_tensor::Tensor;
use fuseconv_trace::{FoldSpec, TraceSink};
use std::fmt;

/// Error from trace capture.
#[derive(Debug)]
pub enum TraceError {
    /// The analytic model rejected an operator.
    Latency(LatencyError),
    /// The systolic simulator rejected its configuration or operands.
    Config(ConfigError),
    /// `--layer` index past the end of the network's operator list.
    LayerOutOfRange {
        /// The requested operator index.
        layer: usize,
        /// Number of operators in the network.
        len: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Latency(e) => write!(f, "{e}"),
            TraceError::Config(e) => write!(f, "{e}"),
            TraceError::LayerOutOfRange { layer, len } => {
                write!(f, "layer {layer} out of range; network has {len} operators")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<LatencyError> for TraceError {
    fn from(e: LatencyError) -> Self {
        TraceError::Latency(e)
    }
}

impl From<ConfigError> for TraceError {
    fn from(e: ConfigError) -> Self {
        TraceError::Config(e)
    }
}

/// A whole-network fold plan plus human-readable labels for its tags.
#[derive(Debug, Clone)]
pub struct NetworkPlan {
    /// Every fold of every operator, in execution order. Each fold's
    /// `tag` is the operator's index into [`Network::ops`].
    pub folds: Vec<FoldSpec>,
    /// `(tag, label)` pairs naming each traced operator
    /// (`"block/op"`), for sinks that display provenance.
    pub labels: Vec<(u64, String)>,
}

impl NetworkPlan {
    /// Total cycles of the plan under serial fold accounting.
    pub fn total_cycles(&self) -> u64 {
        self.folds.iter().map(FoldSpec::cycles).sum()
    }
}

/// Lowers a network (or one operator of it) to a tagged fold plan.
///
/// With `layer: Some(i)` only the `i`-th operator of [`Network::ops`] is
/// planned (still tagged `i`). Feed the result to
/// [`fuseconv_trace::replay`]; under the model's serial overlap mode the
/// replayed cycle count equals the summed
/// [`LatencyModel::cycles`] of the planned operators.
///
/// # Errors
///
/// [`TraceError::LayerOutOfRange`] for a bad `layer`, otherwise whatever
/// [`LatencyModel::fold_plan`] reports.
pub fn network_fold_plan(
    model: &LatencyModel,
    network: &Network,
    layer: Option<usize>,
) -> Result<NetworkPlan, TraceError> {
    let _span = fuseconv_telemetry::span("trace.network_fold_plan");
    let ops = network.ops();
    let selected: Vec<usize> = match layer {
        Some(i) if i >= ops.len() => {
            return Err(TraceError::LayerOutOfRange {
                layer: i,
                len: ops.len(),
            })
        }
        Some(i) => vec![i],
        None => (0..ops.len()).collect(),
    };
    let mut plan = NetworkPlan {
        folds: Vec::new(),
        labels: Vec::new(),
    };
    for i in selected {
        let named = &ops[i];
        let tag = i as u64;
        plan.labels
            .push((tag, format!("{}/{}", named.block_name, named.op)));
        let mut folds = model.fold_plan(&named.op)?;
        fuseconv_trace::tag_plan(&mut folds, tag);
        plan.folds.extend(folds);
    }
    Ok(plan)
}

/// A cycle-exact traced simulation of one operator.
#[derive(Debug)]
pub struct TracedSim {
    /// The simulation result (output tensor, cycles, utilization).
    pub sim: SimResult,
    /// How many identical repetitions of the simulated workload the full
    /// operator comprises. `1` for everything except depthwise, where one
    /// representative channel is simulated and the operator runs `c`
    /// channel-identical folding sequences (§III-B); the operator's total
    /// is `sim.cycles() * repeats`.
    pub repeats: u64,
}

impl TracedSim {
    /// Total operator cycles: simulated cycles times [`Self::repeats`].
    pub fn total_cycles(&self) -> u64 {
        self.sim.cycles() * self.repeats
    }
}

fn synth(rng: &mut Rng, dims: &[usize]) -> Tensor {
    Tensor::from_fn(dims, |_| rng.uniform(-0.5, 0.5)).expect("nonzero dims")
}

/// Runs the cycle-exact systolic simulator for one operator on synthetic
/// operands, narrating every cycle to `sink`.
///
/// The operator runs as [`LatencyModel::lowering`] states, at the model's
/// batch: an im2col GEMM under the model's dataflow, or packed
/// row-broadcast for FuSe banks. Depthwise convs simulate one
/// representative channel — all `c` channels fold identically — and
/// report `repeats = c`. FuSe lines are simulated at their effective
/// (padded) input length `l_out + k - 1`, matching the analytic model's
/// schedule.
///
/// Under [`FoldOverlap::Serial`](fuseconv_latency::FoldOverlap::Serial)
/// the returned [`TracedSim::total_cycles`] equals
/// [`LatencyModel::cycles`] for the same operator.
///
/// # Errors
///
/// [`TraceError::Latency`] for operators the model rejects (degenerate
/// shapes, FuSe without broadcast), [`TraceError::Config`] from the
/// simulator itself.
pub fn simulate_op_traced(
    model: &LatencyModel,
    op: &Op,
    sink: &mut dyn TraceSink,
) -> Result<TracedSim, TraceError> {
    let _span = fuseconv_telemetry::span("trace.simulate_op");
    // Let the analytic model vet the operator first so both paths reject
    // exactly the same inputs.
    model.cycles(op)?;
    // Every dimension of a priced op indexes a simulated tensor.
    let dim = |x: u64| usize::try_from(x).expect("priced dimensions fit usize");
    match model.lowering(op)? {
        Lowering::Gemm { m, k, n, instances } => {
            let mut rng = Rng::seed_from_u64(0x7472_6163);
            let a = synth(&mut rng, &[dim(m), dim(k)]);
            let b = synth(&mut rng, &[dim(k), dim(n)]);
            let sim = model.dataflow().simulate(model.array(), &a, &b, sink)?;
            Ok(TracedSim {
                sim,
                repeats: instances,
            })
        }
        Lowering::RowBroadcast {
            channels,
            lines,
            l_out,
            k,
            ..
        } => {
            let mut rng = Rng::seed_from_u64(0x66757365);
            let work: Vec<ChannelLines> = (0..channels)
                .map(|_| ChannelLines {
                    kernel: (0..k).map(|_| rng.uniform(-0.5, 0.5)).collect(),
                    lines: (0..lines)
                        .map(|_| (0..l_out + k - 1).map(|_| rng.uniform(-0.5, 0.5)).collect())
                        .collect(),
                })
                .collect();
            let sim = conv1d::simulate_packed_traced(model.array(), &work, sink)?;
            Ok(TracedSim { sim, repeats: 1 })
        }
    }
}

/// Applies a Table-I variant and plans the result — the common
/// "trace this network as published" entry point.
///
/// # Errors
///
/// Propagates variant-application and planning errors.
pub fn plan_variant(
    model: &LatencyModel,
    network: &Network,
    variant: Variant,
    layer: Option<usize>,
) -> Result<NetworkPlan, TraceError> {
    let transformed = apply_variant(network, variant, model.array())?;
    network_fold_plan(model, &transformed, layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_models::zoo;
    use fuseconv_nn::ops::Axis1d;
    use fuseconv_systolic::ArrayConfig;
    use fuseconv_trace::{replay, NullSink, UtilizationSink};

    fn model(side: usize) -> LatencyModel {
        LatencyModel::new(ArrayConfig::square(side).unwrap().with_broadcast(true))
    }

    #[test]
    fn network_plan_replays_to_model_cycles() {
        let model = model(16);
        let net = zoo::mobilenet_v1().transform_all(fuseconv_nn::FuSeVariant::Half);
        let plan = network_fold_plan(&model, &net, None).unwrap();
        let expected: u64 = net.ops().iter().map(|n| model.cycles(&n.op).unwrap()).sum();
        assert_eq!(plan.total_cycles(), expected);
        assert_eq!(replay(&plan.folds, &mut NullSink), expected);
        assert_eq!(plan.labels.len(), net.ops().len());
    }

    #[test]
    fn single_layer_plan_selects_and_tags() {
        let model = model(16);
        let net = zoo::mobilenet_v2();
        let plan = network_fold_plan(&model, &net, Some(3)).unwrap();
        assert!(plan.folds.iter().all(|f| f.tag == 3));
        assert_eq!(plan.labels.len(), 1);
        assert_eq!(plan.total_cycles(), model.cycles(&net.ops()[3].op).unwrap());
        assert!(matches!(
            network_fold_plan(&model, &net, Some(9999)),
            Err(TraceError::LayerOutOfRange { .. })
        ));
    }

    #[test]
    fn simulated_layer_matches_model_cycles() {
        let model = model(8);
        for op in [
            Op::conv2d(6, 6, 3, 8, 3, 1, 1),
            Op::depthwise(6, 6, 4, 3, 1, 1),
            Op::pointwise(5, 5, 6, 10),
            Op::fuse1d(8, 8, 3, 3, 1, 1, Axis1d::Row),
            Op::fc(20, 12),
        ] {
            let mut sink = UtilizationSink::new(8, 8);
            let traced = simulate_op_traced(&model, &op, &mut sink).unwrap();
            assert_eq!(traced.total_cycles(), model.cycles(&op).unwrap(), "{op}");
            assert_eq!(sink.cycles(), traced.sim.cycles(), "{op}");
        }
    }

    #[test]
    fn depthwise_sim_is_single_column_but_fuse_fills_rows() {
        let model = model(8);
        let mut dw_sink = UtilizationSink::new(8, 8);
        simulate_op_traced(&model, &Op::depthwise(8, 8, 4, 3, 1, 1), &mut dw_sink).unwrap();
        assert_eq!(dw_sink.active_cols(), 1);

        let mut fuse_sink = UtilizationSink::new(8, 8);
        simulate_op_traced(
            &model,
            &Op::fuse1d(8, 8, 4, 3, 1, 1, Axis1d::Row),
            &mut fuse_sink,
        )
        .unwrap();
        assert_eq!(fuse_sink.active_rows(), 8);
    }

    #[test]
    fn plan_variant_transforms_before_planning() {
        let model = model(16);
        let net = zoo::mobilenet_v2();
        let base = plan_variant(&model, &net, Variant::Baseline, None).unwrap();
        let half = plan_variant(&model, &net, Variant::FuseHalf, None).unwrap();
        assert!(half.total_cycles() < base.total_cycles());
    }
}
