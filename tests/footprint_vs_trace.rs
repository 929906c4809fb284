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

use fuseconv::latency::{fold_footprint, plan_high_water, LatencyModel};
use fuseconv::nn::ops::Op;
use fuseconv::systolic::SimResult;

mod common;
use common::traced::{self, FootprintSink};

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
    }
    let high = plan_high_water(&plan);
    assert_eq!(
        (high.ifmap_elems, high.filter_elems, high.ofmap_elems),
        sink.high_water(),
        "{ctx}: plan high-water mark"
    );
}

#[test]
fn gemm_fold_footprints_equal_traced_distinct_addresses() {
    traced::gemm_grid(assert_footprints_match);
}

#[test]
fn conv1d_fold_footprints_equal_traced_distinct_addresses() {
    traced::conv1d_grid(assert_footprints_match);
}
