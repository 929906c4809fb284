//! `sim-zoo`: a cycle-exact simulation of every operator of
//! MobileNet-V3-Small, baseline and FuSe-Full, on a 64×64 row-broadcast
//! array under the OS, WS and IS dataflows.
//!
//! Operators are lowered as `fuseconv_core::trace::simulate_op_traced` lowers
//! them (im2col GEMM; one representative channel for depthwise; packed
//! row-broadcast 1-D convolutions for FuSe banks), with operands drawn from
//! the seed. Each operator's simulated cycles must equal
//! `LatencyModel::cycles`, and its outputs must match
//! `fuseconv_tensor::gemm::matmul` (GEMMs, bit for bit) or
//! `conv1d_direct` (FuSe lines, within 1e-5, as the simulator's own tests
//! allow).

use crate::layers::{static_name, Layers, Spans, KERNELS};
use crate::{Checks, Figure, Workload};
use fuseconv_core::variant::{apply_variant, Variant};
use fuseconv_latency::{Dataflow, LatencyModel};
use fuseconv_models::zoo;
use fuseconv_nn::ops::{Axis1d, Op};
use fuseconv_systolic::conv1d::{self, ChannelLines};
use fuseconv_systolic::{gemm, is_gemm, ws_gemm, ArrayConfig, SimResult};
use fuseconv_telemetry as telemetry;
use fuseconv_tensor::rng::Rng;
use fuseconv_tensor::Tensor;

const DATAFLOWS: [Dataflow; 3] = [
    Dataflow::OutputStationary,
    Dataflow::WeightStationary,
    Dataflow::InputStationary,
];

/// How one operator reaches the simulator.
enum Lowering {
    /// `A·B` on the GEMM simulator of the model's dataflow.
    Gemm { a: Tensor, b: Tensor },
    /// Row-broadcast 1-D convolutions, packed.
    Packed(Vec<ChannelLines>),
}

/// One operator with its operands and reference output.
struct SimOp {
    op: Op,
    lowering: Lowering,
    /// How many identical simulations the whole operator comprises.
    repeats: u64,
    /// Expected output, flattened; filled by `prepare`.
    reference: Vec<f32>,
}

/// Simulated work of one kernel in the last iteration.
#[derive(Debug, Default, Clone, Copy)]
struct KernelWork {
    cycles: u64,
    busy_pe_cycles: u64,
}

/// The `sim-zoo` workload.
pub struct SimZoo {
    array: ArrayConfig,
    ops: Vec<SimOp>,
    /// Per kernel, in [`KERNELS`] order.
    work: [KernelWork; 4],
}

fn tensor(rng: &mut Rng, dims: &[usize]) -> Result<Tensor, String> {
    Tensor::from_fn(dims, |_| rng.uniform(-0.5, 0.5)).map_err(|e| e.to_string())
}

fn lower(op: &Op, rng: &mut Rng) -> Result<(Lowering, u64), String> {
    let (oh, ow, _) = op.output_shape();
    let mut gemm = |m: usize, k: usize, n: usize| -> Result<Lowering, String> {
        Ok(Lowering::Gemm {
            a: tensor(rng, &[m, k])?,
            b: tensor(rng, &[k, n])?,
        })
    };
    Ok(match *op {
        Op::Conv2d { in_c, out_c, k, .. } => (gemm(oh * ow, k * k * in_c, out_c)?, 1),
        Op::Depthwise { c, k, .. } => (gemm(oh * ow, k * k, 1)?, c as u64),
        Op::Pointwise { in_c, out_c, .. } => (gemm(oh * ow, in_c, out_c)?, 1),
        Op::Fc {
            in_features,
            out_features,
        } => (gemm(1, in_features, out_features)?, 1),
        Op::FuSe1d { c, k, axis, .. } => {
            let (lines, l_out) = match axis {
                Axis1d::Row => (oh, ow),
                Axis1d::Col => (ow, oh),
            };
            let l_in = l_out + k - 1;
            let work = (0..c)
                .map(|_| ChannelLines {
                    kernel: (0..k).map(|_| rng.uniform(-0.5, 0.5)).collect(),
                    lines: (0..lines)
                        .map(|_| (0..l_in).map(|_| rng.uniform(-0.5, 0.5)).collect())
                        .collect(),
                })
                .collect();
            (Lowering::Packed(work), 1)
        }
    })
}

/// The benchmark span of an operator class.
fn op_span(op: &Op) -> &'static str {
    match op {
        Op::Conv2d { .. } => "systolic.op.conv2d",
        Op::Depthwise { .. } => "systolic.op.depthwise",
        Op::Pointwise { .. } => "systolic.op.pointwise",
        Op::FuSe1d { .. } => "systolic.op.fuse1d",
        Op::Fc { .. } => "systolic.op.fc",
    }
}

impl SimZoo {
    /// Lowers both variants of MobileNet-V3-Small with operands from `seed`.
    pub fn new(seed: u64) -> Result<SimZoo, String> {
        let array = ArrayConfig::square(64)
            .map_err(|e| e.to_string())?
            .with_broadcast(true);
        let base = {
            let _s = telemetry::span("models.zoo_build");
            zoo::mobilenet_v3_small()
        };
        let mut rng = Rng::seed_from_u64(seed);
        let mut ops = Vec::new();
        for variant in [Variant::Baseline, Variant::FuseFull] {
            let net = {
                let _s = telemetry::span("core.apply_variant");
                apply_variant(&base, variant, &array).map_err(|e| e.to_string())?
            };
            for named in net.ops() {
                let (lowering, repeats) = lower(&named.op, &mut rng)?;
                ops.push(SimOp {
                    op: named.op,
                    lowering,
                    repeats,
                    reference: Vec::new(),
                });
            }
        }
        Ok(SimZoo {
            array,
            ops,
            work: [KernelWork::default(); 4],
        })
    }
}

impl Workload for SimZoo {
    fn prepare(&mut self) -> Result<(), String> {
        for sop in &mut self.ops {
            sop.reference = match &sop.lowering {
                Lowering::Gemm { a, b } => fuseconv_tensor::gemm::matmul(a, b)
                    .map_err(|e| e.to_string())?
                    .as_slice()
                    .to_vec(),
                Lowering::Packed(work) => work
                    .iter()
                    .flat_map(|ch| {
                        ch.lines
                            .iter()
                            .flat_map(|line| conv1d::conv1d_direct(line, &ch.kernel))
                    })
                    .collect(),
            };
        }
        Ok(())
    }

    fn iterate(&mut self, checks: &mut Checks) -> Result<(), String> {
        self.work = [KernelWork::default(); 4];
        for dataflow in DATAFLOWS {
            let model = LatencyModel::new(self.array).with_dataflow(dataflow);
            for sop in &self.ops {
                let expected = model.cycles(&sop.op).map_err(|e| e.to_string())?;
                let (kernel, sim) = {
                    let _s = telemetry::span(op_span(&sop.op));
                    simulate(&self.array, dataflow, &sop.lowering)?
                };
                let w = &mut self.work[kernel];
                w.cycles += sim.cycles();
                w.busy_pe_cycles += sim.busy_pe_cycles();
                let total = sim.cycles() * sop.repeats;
                checks.check(total == expected, || {
                    format!(
                        "{} under {dataflow:?}: simulated {total} cycles, model {expected}",
                        sop.op
                    )
                });
                let got = sim.output().as_slice();
                let exact = matches!(sop.lowering, Lowering::Gemm { .. });
                let matches = got.len() == sop.reference.len()
                    && got.iter().zip(&sop.reference).all(|(g, r)| {
                        if exact {
                            g.to_bits() == r.to_bits()
                        } else {
                            (g - r).abs() < 1e-5
                        }
                    });
                checks.check(matches, || {
                    format!(
                        "{} under {dataflow:?}: output differs from reference",
                        sop.op
                    )
                });
            }
        }
        Ok(())
    }

    fn layers(
        &mut self,
        spans: &Spans,
        _iter_s: f64,
        _checks: &mut Checks,
        out: &mut Layers,
    ) -> Result<(), String> {
        let pes = self.array.pe_count() as f64;
        for ((prefix, span), w) in KERNELS.iter().zip(&self.work) {
            let scanned = pes * w.cycles as f64;
            let busy_s = spans.busy_s(span);
            out.insert(
                static_name(prefix, "pe_cycles_per_s"),
                if busy_s > 0.0 { scanned / busy_s } else { 0.0 },
            );
            out.insert(
                static_name(prefix, "useful_pe_frac"),
                if scanned > 0.0 {
                    w.busy_pe_cycles as f64 / scanned
                } else {
                    0.0
                },
            );
        }
        Ok(())
    }

    fn figures(&self, wall_s: f64) -> Vec<Figure> {
        let cycles: u64 = self.work.iter().map(|w| w.cycles).sum();
        vec![
            Figure {
                name: "sim_pe_cycles_per_s",
                unit: "1/s",
                value: cycles as f64 * self.array.pe_count() as f64 / wall_s,
            },
            Figure {
                name: "sim_cycles",
                unit: "cycles",
                value: cycles as f64,
            },
            Figure {
                name: "sim_operators",
                unit: "count",
                value: (self.ops.len() * DATAFLOWS.len()) as f64,
            },
        ]
    }
}

/// Runs one lowered operator; returns the kernel's index in [`KERNELS`] and
/// the simulation result.
fn simulate(
    array: &ArrayConfig,
    dataflow: Dataflow,
    lowering: &Lowering,
) -> Result<(usize, SimResult), String> {
    let (kernel, sim) = match (lowering, dataflow) {
        (Lowering::Gemm { a, b }, Dataflow::OutputStationary) => (0, gemm::simulate(array, a, b)),
        (Lowering::Gemm { a, b }, Dataflow::WeightStationary) => {
            (1, ws_gemm::simulate(array, a, b))
        }
        (Lowering::Gemm { a, b }, Dataflow::InputStationary) => (2, is_gemm::simulate(array, a, b)),
        (Lowering::Packed(work), _) => (3, conv1d::simulate_packed(array, work)),
    };
    Ok((kernel, sim.map_err(|e| e.to_string())?))
}
