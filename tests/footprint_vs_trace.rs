//! Differential check of the static memory-footprint model against the
//! cycle-exact simulator's traced address streams.
//!
//! [`fold_footprint`] claims each fold's SRAM working set per operand
//! stream (ifmap / filter / ofmap element counts). Here we replay every
//! fold through the traced simulators with operand events enabled,
//! collect the *distinct addresses* each stream actually touches between
//! `FoldStart` and `FoldEnd`, and require exact equality — fold by fold,
//! stream by stream — on a small exhaustive shape grid covering all four
//! fold kinds, multi-fold tilings and remainder folds.

use std::collections::HashSet;

use fuseconv::latency::{fold_footprint, plan_high_water, Dataflow, LatencyModel};
use fuseconv::nn::ops::{Axis1d, Op};
use fuseconv::systolic::conv1d::ChannelLines;
use fuseconv::systolic::{conv1d, ArrayConfig, SimResult};
use fuseconv::tensor::Tensor;
use fuseconv::trace::{Operand, TraceEvent, TraceSink};

/// Distinct addresses touched by each operand stream within one fold.
#[derive(Debug, Default)]
struct FoldAddrs {
    ifmap: HashSet<u64>,
    filter: HashSet<u64>,
    ofmap: HashSet<u64>,
}

/// Sink that buckets operand/output addresses per fold.
#[derive(Debug, Default)]
struct FootprintSink {
    folds: Vec<FoldAddrs>,
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

/// Asserts the static footprint of every planned fold equals the traced
/// distinct-address counts, and that the plan-level high-water mark is the
/// per-stream max over the traced folds.
fn assert_footprints_match(
    model: &LatencyModel,
    op: &Op,
    sink: &FootprintSink,
    sim: &SimResult,
    ctx: &str,
) {
    let plan = model.fold_plan(op).expect("plan for traced op");
    assert_eq!(plan.len() as u64, sim.folds(), "{ctx}: fold count");
    assert_eq!(plan.len(), sink.folds.len(), "{ctx}: traced fold count");
    let mut traced_high = (0u64, 0u64, 0u64);
    for (i, (spec, traced)) in plan.iter().zip(&sink.folds).enumerate() {
        let fp = fold_footprint(spec);
        assert_eq!(
            fp.ifmap_elems,
            traced.ifmap.len() as u64,
            "{ctx}: fold {i} ({spec:?}) ifmap working set"
        );
        assert_eq!(
            fp.filter_elems,
            traced.filter.len() as u64,
            "{ctx}: fold {i} ({spec:?}) filter working set"
        );
        assert_eq!(
            fp.ofmap_elems,
            traced.ofmap.len() as u64,
            "{ctx}: fold {i} ({spec:?}) ofmap working set"
        );
        traced_high.0 = traced_high.0.max(traced.ifmap.len() as u64);
        traced_high.1 = traced_high.1.max(traced.filter.len() as u64);
        traced_high.2 = traced_high.2.max(traced.ofmap.len() as u64);
    }
    let high = plan_high_water(&plan);
    assert_eq!(
        (high.ifmap_elems, high.filter_elems, high.ofmap_elems),
        traced_high,
        "{ctx}: plan high-water mark"
    );
}

#[test]
fn gemm_fold_footprints_equal_traced_distinct_addresses() {
    // Shapes straddle the array on every axis: single-fold, exact-tile and
    // remainder-fold cases for each dataflow's tiling dimensions.
    let arrays = [(4usize, 4usize), (3, 5), (8, 2)];
    let gemms = [(1usize, 1usize, 1usize), (7, 5, 9), (9, 13, 4), (5, 20, 5)];
    for (rows, cols) in arrays {
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
                // A pointwise conv over an m×1 map lowers to exactly this
                // (m, k, n) GEMM, so its plan is the trace's fold plan.
                let op = Op::pointwise(m, 1, k, n);
                let ctx = format!("{rows}x{cols} {dataflow:?} {m}x{k}x{n}");
                assert_footprints_match(&model, &op, &sink, &sim, &ctx);
            }
        }
    }
}

#[test]
fn conv1d_fold_footprints_equal_traced_distinct_addresses() {
    // One line per channel keeps the packing factor at 1 and makes every
    // array row a distinct channel, so the positional ifmap/filter
    // addresses within a fold never collide across rows — the regime where
    // distinct addresses and working-set elements coincide exactly.
    let arrays = [(4usize, 4usize), (3, 5), (8, 2)];
    let shapes = [(1usize, 6usize, 3usize), (5, 9, 3), (3, 12, 5), (9, 4, 3)];
    for (rows, cols) in arrays {
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
            // A height-1 row-wise FuSe layer with `same` padding lowers to
            // c independent 1-D convolutions of one line each.
            let op = Op::fuse1d(1, w, c, k, 1, k / 2, Axis1d::Row);
            let ctx = format!("{rows}x{cols} broadcast c{c} w{w} k{k}");
            assert_footprints_match(&model, &op, &sink, &sim, &ctx);
        }
    }
}
