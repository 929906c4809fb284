//! Differential proofs of the fold-plan IR ([`fuseconv::latency::PlanIr`])
//! against the flat plan it lifts and the cycle-exact traced simulators.
//!
//! Three independent accountings of the same SRAM working set must agree:
//!
//! 1. **Lift/lower exactness** — lifting a plan into the IR and lowering
//!    it back reproduces the source `Vec<FoldSpec>` bit for bit, for every
//!    operator of every zoo network in every FuSe variant.
//! 2. **High-water equality** — the IR's value-based high-water mark, the
//!    flat plan's [`plan_high_water`], and a third accounting rebuilt from
//!    the liveness intervals all price the same per-stream maximum.
//! 3. **Trace grounding** — on shape grids covering all four fold kinds
//!    (OS/WS/IS GEMM and broadcast conv1d), the IR high-water equals the
//!    per-stream maximum of *distinct addresses* the traced simulators
//!    actually touch.

use std::collections::HashSet;

use fuseconv::latency::{
    plan_high_water, Dataflow, FoldFootprint, LatencyModel, PlanIr, ValueClass,
};
use fuseconv::models::zoo;
use fuseconv::nn::ops::{Axis1d, Op};
use fuseconv::nn::FuSeVariant;
use fuseconv::systolic::conv1d::ChannelLines;
use fuseconv::systolic::{conv1d, ArrayConfig, SimResult};
use fuseconv::tensor::Tensor;
use fuseconv::trace::{Operand, TraceEvent, TraceSink};

fn paper_model() -> LatencyModel {
    LatencyModel::new(
        ArrayConfig::square(64)
            .expect("64 is nonzero")
            .with_broadcast(true),
    )
}

/// Rebuilds a per-stream high-water mark from the liveness intervals: at
/// each fold, sum the elements of every value resident in SRAM there, per
/// class, and take the per-stream maximum over folds.
///
/// SRAM residency is the intersection of the live interval with the fold
/// staging discipline: a live-out value is *live* to schedule exit (its
/// bits must exist somewhere), but its SRAM slot drains to DRAM when its
/// defining fold finishes, so its on-array residency is just `staged_at`.
/// Everything else is priced over its full live interval.
fn interval_high_water(ir: &PlanIr) -> FoldFootprint {
    let n = ir.nodes().len();
    let mut ifmap = vec![0u64; n];
    let mut filter = vec![0u64; n];
    let mut ofmap = vec![0u64; n];
    for iv in ir.live_intervals() {
        let v = ir.value(iv.value);
        let bucket = match v.class {
            ValueClass::Ifmap => &mut ifmap,
            ValueClass::Filter => &mut filter,
            ValueClass::Ofmap => &mut ofmap,
        };
        let (start, end) = if v.live_out {
            (v.staged_at, v.staged_at)
        } else {
            (iv.start, iv.end)
        };
        for slot in bucket.iter_mut().take(end + 1).skip(start) {
            *slot += v.elems;
        }
    }
    FoldFootprint {
        ifmap_elems: ifmap.into_iter().max().unwrap_or(0),
        filter_elems: filter.into_iter().max().unwrap_or(0),
        ofmap_elems: ofmap.into_iter().max().unwrap_or(0),
    }
}

#[test]
fn zoo_lift_lower_is_bit_exact() {
    // Every operator of every network × variant round-trips through the
    // IR unchanged — the exactness contract that lets `trace` replay a
    // lowered plan as if the IR had never existed.
    let model = paper_model();
    let mut nets = zoo::all_baselines();
    nets.push(zoo::resnet50());
    nets.push(zoo::efficientnet_b0());
    for net in &nets {
        for variant in [None, Some(FuSeVariant::Full), Some(FuSeVariant::Half)] {
            let v = match variant {
                None => net.clone(),
                Some(var) => net.transform_all(var),
            };
            for (block_name, block) in v.blocks() {
                for op in block.ops() {
                    let plan = model
                        .fold_plan(&op)
                        .unwrap_or_else(|e| panic!("{}/{block_name}: {e}", v.name()));
                    let ir = PlanIr::from_plan(&plan);
                    assert_eq!(
                        ir.lower(),
                        plan,
                        "{}/{block_name} {op:?}: lift/lower must be the identity",
                        v.name()
                    );
                }
            }
        }
    }
}

#[test]
fn zoo_ir_high_water_equals_plan_high_water() {
    // Three accountings of the SRAM high-water agree on the whole zoo:
    // the flat plan's per-stream max, the IR's value-based max, and the
    // one rebuilt from liveness intervals.
    let model = paper_model();
    let mut nets = zoo::all_baselines();
    nets.push(zoo::resnet50());
    nets.push(zoo::efficientnet_b0());
    for net in &nets {
        for variant in [None, Some(FuSeVariant::Full), Some(FuSeVariant::Half)] {
            let v = match variant {
                None => net.clone(),
                Some(var) => net.transform_all(var),
            };
            for (block_name, block) in v.blocks() {
                for op in block.ops() {
                    let plan = model
                        .fold_plan(&op)
                        .unwrap_or_else(|e| panic!("{}/{block_name}: {e}", v.name()));
                    let ir = PlanIr::from_plan(&plan);
                    let flat = plan_high_water(&plan);
                    let ctx = format!("{}/{block_name} {op:?}", v.name());
                    assert_eq!(ir.high_water(), flat, "{ctx}: IR vs flat high-water");
                    assert_eq!(
                        interval_high_water(&ir),
                        flat,
                        "{ctx}: liveness vs flat high-water"
                    );
                }
            }
        }
    }
}

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

/// The per-stream maximum of distinct addresses over the traced folds.
fn traced_high_water(sink: &FootprintSink) -> (u64, u64, u64) {
    sink.folds.iter().fold((0, 0, 0), |acc, f| {
        (
            acc.0.max(f.ifmap.len() as u64),
            acc.1.max(f.filter.len() as u64),
            acc.2.max(f.ofmap.len() as u64),
        )
    })
}

/// Asserts the IR lifted from `op`'s plan prices the same high-water the
/// traced simulator touched, and that the traced fold count matches.
fn assert_ir_matches_trace(
    model: &LatencyModel,
    op: &Op,
    sink: &FootprintSink,
    sim: &SimResult,
    ctx: &str,
) {
    let plan = model.fold_plan(op).expect("plan for traced op");
    assert_eq!(plan.len() as u64, sim.folds(), "{ctx}: fold count");
    assert_eq!(plan.len(), sink.folds.len(), "{ctx}: traced fold count");
    let ir = PlanIr::from_plan(&plan);
    assert_eq!(ir.lower(), plan, "{ctx}: lift/lower identity");
    let high = ir.high_water();
    assert_eq!(
        (high.ifmap_elems, high.filter_elems, high.ofmap_elems),
        traced_high_water(sink),
        "{ctx}: IR high-water vs traced distinct addresses"
    );
}

#[test]
fn gemm_ir_high_water_equals_traced_distinct_addresses() {
    // The three GEMM fold kinds (output-/weight-/input-stationary) on
    // shapes straddling the array on every axis.
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
                let op = Op::pointwise(m, 1, k, n);
                let ctx = format!("{rows}x{cols} {dataflow:?} {m}x{k}x{n}");
                assert_ir_matches_trace(&model, &op, &sink, &sim, &ctx);
            }
        }
    }
}

#[test]
fn conv1d_ir_high_water_equals_traced_distinct_addresses() {
    // The fourth fold kind: the paper's broadcast conv1d, one line per
    // channel so distinct addresses and working-set elements coincide.
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
            let op = Op::fuse1d(1, w, c, k, 1, k / 2, Axis1d::Row);
            let ctx = format!("{rows}x{cols} broadcast c{c} w{w} k{k}");
            assert_ir_matches_trace(&model, &op, &sink, &sim, &ctx);
        }
    }
}
