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

use fuseconv::latency::{plan_high_water, FoldFootprint, LatencyModel, PlanIr, ValueClass};
use fuseconv::models::zoo;
use fuseconv::nn::ops::Op;
use fuseconv::nn::FuSeVariant;
use fuseconv::systolic::{ArrayConfig, SimResult};
use fuseconv::trace::FoldSpec;

mod common;
use common::traced::{self, FootprintSink};

/// Hands `check` the 64×64 fold plan of every operator of every zoo
/// network (the five baselines, ResNet-50 and EfficientNet-B0) as
/// published and in the Full and Half FuSe variants, with a label.
fn for_each_zoo_plan(mut check: impl FnMut(&str, Vec<FoldSpec>)) {
    let array = ArrayConfig::square(64).expect("64 is nonzero");
    let model = LatencyModel::new(array.with_broadcast(true));
    let mut nets = zoo::all_baselines();
    nets.push(zoo::resnet50());
    nets.push(zoo::efficientnet_b0());
    for net in &nets {
        for variant in [None, Some(FuSeVariant::Full), Some(FuSeVariant::Half)] {
            let v = variant.map_or_else(|| net.clone(), |var| net.transform_all(var));
            for (block_name, block) in v.blocks() {
                for op in block.ops() {
                    let ctx = format!("{}/{block_name} {op:?}", v.name());
                    let plan = model
                        .fold_plan(&op)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    check(&ctx, plan);
                }
            }
        }
    }
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
    for_each_zoo_plan(|ctx, plan| {
        let ir = PlanIr::from_plan(&plan);
        assert_eq!(ir.lower(), plan, "{ctx}: lift/lower must be the identity");
    });
}

#[test]
fn zoo_ir_high_water_equals_plan_high_water() {
    // Three accountings of the SRAM high-water agree on the whole zoo:
    // the flat plan's per-stream max, the IR's value-based max, and the
    // one rebuilt from liveness intervals.
    for_each_zoo_plan(|ctx, plan| {
        let ir = PlanIr::from_plan(&plan);
        let flat = plan_high_water(&plan);
        assert_eq!(ir.high_water(), flat, "{ctx}: IR vs flat high-water");
        assert_eq!(
            interval_high_water(&ir),
            flat,
            "{ctx}: liveness vs flat high-water"
        );
    });
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
        sink.high_water(),
        "{ctx}: IR high-water vs traced distinct addresses"
    );
}

#[test]
fn gemm_ir_high_water_equals_traced_distinct_addresses() {
    traced::gemm_grid(assert_ir_matches_trace);
}

#[test]
fn conv1d_ir_high_water_equals_traced_distinct_addresses() {
    traced::conv1d_grid(assert_ir_matches_trace);
}
