//! Differential test of run-priced fold plans.
//!
//! The analyzer prices [`LatencyModel::fold_runs`] run by run: the UTL003
//! stall totals, the `audit_plan` coverage walk, the fusion rules'
//! [`PlanSummary`], the SRAM high water and the MEM findings. The expanded
//! plan ([`LatencyModel::fold_plan`]) stays the reference: every one of
//! those quantities must equal the same function fed the expanded plan
//! through [`FoldRuns::from_folds`], and the stall totals must also equal
//! [`PerfCounters::from_fold_plan`]'s fold-by-fold accounting. The grid is
//! every distinct op of the `analyze --all` networks under the five
//! Table I variants × OS/WS/IS × four array shapes × batch 1 and 3.

use fuseconv::analyze::{diagnose_memory, MemoryBudget, PlanSummary, RuleId};
use fuseconv::latency::memory::SramConfig;
use fuseconv::latency::{audit_plan, plan_high_water, Dataflow, FoldRuns, LatencyModel};
use fuseconv::nn::ops::Op;
use fuseconv::perf::{PerfCounters, StallTotals};
use fuseconv::systolic::ArrayConfig;
use std::collections::HashSet;

mod common;
use common::zoo_ops;

/// A memory system small enough that the zoo trips MEM001, MEM002 and
/// MEM003, so the differential covers the worst-fold text of all three.
fn tiny_budget() -> MemoryBudget {
    MemoryBudget {
        sram: SramConfig {
            ifmap_elems: 16,
            filter_elems: 16,
            ofmap_elems: 16,
        },
        bytes_per_elem: 2,
        dram_bytes_per_cycle: 2,
    }
}

/// Runs the differential over every zoo op on one `rows × cols` array.
fn assert_run_priced_equals_expanded(rows: usize, cols: usize) {
    let budget = tiny_budget();
    let mut fired = HashSet::new();
    let mut plans = 0usize;
    let array = ArrayConfig::new(rows, cols)
        .expect("nonzero array")
        .with_broadcast(true);
    let ops = zoo_ops(&array);
    for dataflow in Dataflow::ALL {
        for batch in [1, 3] {
            let model = LatencyModel::new(array)
                .with_dataflow(dataflow)
                .with_batch(batch);
            for op in &ops {
                let at = format!("{rows}x{cols} {dataflow:?} batch {batch} `{op}`");
                let runs = model.fold_runs(op).expect("zoo ops plan");
                let flat = model.fold_plan(op).expect("zoo ops plan");
                let reference = FoldRuns::from_folds(&flat);
                assert_eq!(runs.len(), flat.len() as u64, "{at}");
                if !matches!(op, Op::FuSe1d { .. }) {
                    let n = runs.runs().count();
                    assert!(n <= 4, "{at}: a GEMM-lowered plan in {n} runs");
                }

                let totals = StallTotals::of_plan(&runs, rows, cols);
                assert_eq!(totals, StallTotals::of_plan(&reference, rows, cols), "{at}");
                let counters = PerfCounters::from_fold_plan(&flat, rows, cols);
                assert_eq!(totals, counters.stall_totals(), "{at}");
                assert_eq!(
                    totals.fraction().to_bits(),
                    counters.compute_stall_fraction().to_bits(),
                    "{at}"
                );

                let audit = audit_plan(&model, op, &runs);
                assert!(audit.is_empty(), "{at}: {audit:?}");
                assert_eq!(audit, audit_plan(&model, op, &reference), "{at}");

                assert_eq!(PlanSummary::of(&runs), PlanSummary::of(&reference), "{at}");
                assert_eq!(plan_high_water(&runs), plan_high_water(&reference), "{at}");

                let mem = diagnose_memory(op, &runs, &budget, &at);
                assert_eq!(mem, diagnose_memory(op, &reference, &budget, &at));
                fired.extend(mem.iter().map(|d| d.rule));
                plans += 1;
            }
        }
    }
    assert!(plans > 1000, "{plans} plans");
    for rule in [
        RuleId::Mem001FoldExceedsSram,
        RuleId::Mem002DoubleBufferExceedsSram,
        RuleId::Mem003BandwidthInfeasible,
    ] {
        assert!(fired.contains(&rule), "{rule:?} never fired");
    }
}

#[test]
fn run_priced_quantities_equal_the_expanded_plan_8x8() {
    assert_run_priced_equals_expanded(8, 8);
}

#[test]
fn run_priced_quantities_equal_the_expanded_plan_16x16() {
    assert_run_priced_equals_expanded(16, 16);
}

#[test]
fn run_priced_quantities_equal_the_expanded_plan_5x3() {
    assert_run_priced_equals_expanded(5, 3);
}

#[test]
fn run_priced_quantities_equal_the_expanded_plan_64x64() {
    assert_run_priced_equals_expanded(64, 64);
}
