//! The traced shape grids shared by the footprint and fold-plan IR
//! differential tests: each case runs a cycle-exact traced simulator
//! with operand events on and collects the distinct addresses every
//! operand stream touches per fold.

use std::collections::HashSet;

use fuseconv::core::trace::simulate_op_traced;
use fuseconv::latency::{Dataflow, LatencyModel};
use fuseconv::nn::ops::{Axis1d, Op};
use fuseconv::systolic::{ArrayConfig, SimResult};
use fuseconv::trace::{Operand, TraceEvent, TraceSink};

/// Distinct addresses touched by each operand stream within one fold.
#[derive(Debug, Default)]
pub(crate) struct FoldAddrs {
    pub(crate) ifmap: HashSet<u64>,
    pub(crate) filter: HashSet<u64>,
    pub(crate) ofmap: HashSet<u64>,
}

/// Sink that buckets operand/output addresses per fold.
#[derive(Debug, Default)]
pub(crate) struct FootprintSink {
    pub(crate) folds: Vec<FoldAddrs>,
}

impl FootprintSink {
    /// The per-stream maximum of distinct addresses over the folds.
    pub(crate) fn high_water(&self) -> (u64, u64, u64) {
        self.folds.iter().fold((0, 0, 0), |acc, f| {
            (
                acc.0.max(f.ifmap.len() as u64),
                acc.1.max(f.filter.len() as u64),
                acc.2.max(f.ofmap.len() as u64),
            )
        })
    }
}

impl TraceSink for FootprintSink {
    fn on_event(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::FoldStart { .. } => self.folds.push(FoldAddrs::default()),
            TraceEvent::OperandRead { operand, addr, .. } => {
                let fold = self.folds.last_mut().expect("read outside a fold");
                match operand {
                    Operand::Ifmap => fold.ifmap.insert(addr),
                    Operand::Filter => fold.filter.insert(addr),
                    Operand::Ofmap => fold.ofmap.insert(addr),
                };
            }
            TraceEvent::OutputWrite { addr, .. } => {
                self.folds
                    .last_mut()
                    .expect("write outside a fold")
                    .ofmap
                    .insert(addr);
            }
            _ => {}
        }
    }

    fn wants_operand_events(&self) -> bool {
        true
    }
}

/// Arrays the grids run on: square, wide and tall.
const ARRAYS: [(usize, usize); 3] = [(4, 4), (3, 5), (8, 2)];

/// Traces the three GEMM fold kinds (output-, weight- and
/// input-stationary) on shapes straddling the array on every axis:
/// single-fold, exact-tile and remainder-fold cases for each dataflow's
/// tiling dimensions. Each case is a pointwise conv over an m×1 map,
/// which lowers to an (m, k, n) GEMM, and goes to `check` with the
/// model, the operator and its trace.
pub(crate) fn gemm_grid(
    mut check: impl FnMut(&LatencyModel, &Op, &FootprintSink, &SimResult, &str),
) {
    let gemms = [(1usize, 1usize, 1usize), (7, 5, 9), (9, 13, 4), (5, 20, 5)];
    for (rows, cols) in ARRAYS {
        let cfg = ArrayConfig::new(rows, cols).expect("nonzero array");
        for dataflow in Dataflow::ALL {
            let model = LatencyModel::new(cfg).with_dataflow(dataflow);
            for (m, k, n) in gemms {
                let ctx = format!("{rows}x{cols} {dataflow:?} {m}x{k}x{n}");
                trace(&model, &Op::pointwise(m, 1, k, n), &ctx, &mut check);
            }
        }
    }
}

/// Traces the fourth fold kind, the paper's broadcast conv1d, and hands
/// each case to `check` like [`gemm_grid`]. One line per channel keeps
/// the packing factor at 1 and makes every array row a distinct
/// channel, so the positional ifmap/filter addresses within a fold never
/// collide across rows — the regime where distinct addresses and
/// working-set elements coincide exactly. A height-1 row-wise FuSe layer
/// with `same` padding lowers to c independent 1-D convolutions of one
/// line each.
pub(crate) fn conv1d_grid(
    mut check: impl FnMut(&LatencyModel, &Op, &FootprintSink, &SimResult, &str),
) {
    let shapes = [(1usize, 6usize, 3usize), (5, 9, 3), (3, 12, 5), (9, 4, 3)];
    for (rows, cols) in ARRAYS {
        let cfg = ArrayConfig::new(rows, cols)
            .expect("nonzero array")
            .with_broadcast(true);
        let model = LatencyModel::new(cfg);
        for (c, w, k) in shapes {
            let op = Op::fuse1d(1, w, c, k, 1, k / 2, Axis1d::Row);
            let ctx = format!("{rows}x{cols} broadcast c{c} w{w} k{k}");
            trace(&model, &op, &ctx, &mut check);
        }
    }
}

/// Runs the traced simulation of `op` through a [`FootprintSink`] and
/// hands the case to `check`.
fn trace(
    model: &LatencyModel,
    op: &Op,
    ctx: &str,
    check: &mut impl FnMut(&LatencyModel, &Op, &FootprintSink, &SimResult, &str),
) {
    let mut sink = FootprintSink::default();
    let traced = simulate_op_traced(model, op, &mut sink).expect("traced sim");
    check(model, op, &sink, &traced.sim, ctx);
}
