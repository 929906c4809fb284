//! The traced shape grids shared by the footprint and fold-plan IR
//! differential tests: each case runs a cycle-exact traced simulator
//! with operand events on and collects the distinct addresses every
//! operand stream touches per fold.

use std::collections::HashSet;

use fuseconv::latency::{Dataflow, LatencyModel};
use fuseconv::nn::ops::{Axis1d, Op};
use fuseconv::systolic::conv1d::ChannelLines;
use fuseconv::systolic::{conv1d, ArrayConfig, SimResult};
use fuseconv::tensor::Tensor;
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
/// tiling dimensions. Each case goes to `check` with the model and the
/// operator whose plan the trace follows: a pointwise conv over an m×1
/// map lowers to exactly the traced (m, k, n) GEMM.
pub(crate) fn gemm_grid(
    mut check: impl FnMut(&LatencyModel, &Op, &FootprintSink, &SimResult, &str),
) {
    let gemms = [(1usize, 1usize, 1usize), (7, 5, 9), (9, 13, 4), (5, 20, 5)];
    for (rows, cols) in ARRAYS {
        let cfg = ArrayConfig::new(rows, cols).expect("nonzero array");
        for dataflow in Dataflow::ALL {
            let model = LatencyModel::new(cfg).with_dataflow(dataflow);
            for (m, k, n) in gemms {
                let a = Tensor::full(&[m, k], 1.0).expect("operand a");
                let b = Tensor::full(&[k, n], 1.0).expect("operand b");
                let mut sink = FootprintSink::default();
                let sim = dataflow
                    .simulate(&cfg, &a, &b, &mut sink)
                    .expect("traced sim");
                let op = Op::pointwise(m, 1, k, n);
                let ctx = format!("{rows}x{cols} {dataflow:?} {m}x{k}x{n}");
                check(&model, &op, &sink, &sim, &ctx);
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
            let l_in = w + k - 1;
            let work: Vec<ChannelLines> = (0..c)
                .map(|ch| ChannelLines {
                    kernel: vec![1.0 + ch as f32; k],
                    lines: vec![vec![1.0; l_in]],
                })
                .collect();
            let mut sink = FootprintSink::default();
            let sim = conv1d::simulate_packed_traced(&cfg, &work, &mut sink).expect("traced sim");
            let op = Op::fuse1d(1, w, c, k, 1, k / 2, Axis1d::Row);
            let ctx = format!("{rows}x{cols} broadcast c{c} w{w} k{k}");
            check(&model, &op, &sink, &sim, &ctx);
        }
    }
}
