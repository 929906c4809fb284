//! Memory-feasibility rules (`MEM001–MEM003`).
//!
//! Checks every fold of a plan against an SRAM/DRAM budget, statically,
//! once per run of identical folds:
//!
//! * **MEM001** (error) — a fold's single-buffered operand working set
//!   exceeds its SRAM buffer: the fold cannot be made resident at all and
//!   the latency model's "operands are on-chip" premise is void.
//! * **MEM002** (warning) — the double-buffered working set (2×, so the
//!   next fold's operands can prefetch during compute) exceeds the
//!   buffer: the plan runs, but fills serialize against compute and the
//!   serial-fold accounting becomes optimistic.
//! * **MEM003** (warning) — the fold's compulsory DRAM traffic needs more
//!   cycles at the modeled bandwidth than the fold's own occupancy
//!   window: the fold is bandwidth-bound, violating the paper's
//!   compute-limited idealization (§V-A-3).
//!
//! Footprints come from [`fuseconv_latency::fold_footprint`], which the
//! `footprint_vs_trace` integration test pins to the traced simulators'
//! distinct-address counts.

use crate::diagnostics::{Diagnostic, RuleId, Severity};
use fuseconv_latency::memory::SramConfig;
use fuseconv_latency::{fold_footprint, AsFoldRuns};
use fuseconv_nn::ops::Op;

/// The memory system the MEM rules budget against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    /// Per-stream SRAM capacities, in elements.
    pub sram: SramConfig,
    /// Bytes per tensor element (2 for the FP16 datapath).
    pub bytes_per_elem: u64,
    /// Sustained DRAM bandwidth, bytes per array cycle.
    pub dram_bytes_per_cycle: u64,
}

impl MemoryBudget {
    /// The budget the shipped analyses use: the SCALE-Sim-style SRAM of
    /// [`SramConfig::scale_sim_default`] with the filter buffer doubled to
    /// 512 Ki elements — ResNet-50's widest im2col tile (`k = 9·512` on a
    /// 64-wide array) needs 294 912 filter elements resident, which the
    /// 256 Ki default cannot hold even single-buffered — at FP16 over a
    /// 256 B/cycle DRAM interface.
    pub fn paper_default() -> Self {
        MemoryBudget {
            sram: SramConfig {
                ifmap_elems: 512 * 1024,
                filter_elems: 512 * 1024,
                ofmap_elems: 128 * 1024,
            },
            bytes_per_elem: 2,
            dram_bytes_per_cycle: 256,
        }
    }
}

impl Default for MemoryBudget {
    fn default() -> Self {
        MemoryBudget::paper_default()
    }
}

/// Audits the folds of an already-computed plan, as runs or flat, against
/// `budget`, reporting at most one diagnostic per `MEM` rule (the worst
/// fold of each, the first one on ties).
pub fn diagnose_memory(
    op: &Op,
    plan: &(impl AsFoldRuns + ?Sized),
    budget: &MemoryBudget,
    context: &str,
) -> Vec<Diagnostic> {
    // Worst offender per rule: (fold index, stream, used, capacity).
    let mut single: Option<(u64, &'static str, u64, u64)> = None;
    let mut double: Option<(u64, &'static str, u64, u64)> = None;
    let mut bandwidth: Option<(u64, u64, u64)> = None;

    // A run's folds are identical and its first fold precedes the rest, so
    // each run is budgeted once, at its first fold.
    for (i, f, _) in plan.as_fold_runs().runs() {
        let fp = fold_footprint(f);
        let streams = [
            ("ifmap", fp.ifmap_elems, budget.sram.ifmap_elems),
            ("filter", fp.filter_elems, budget.sram.filter_elems),
            ("ofmap", fp.ofmap_elems, budget.sram.ofmap_elems),
        ];
        for (stream, used, cap) in streams {
            if used > cap {
                if single.is_none_or(|(_, _, worst, _)| used > worst) {
                    single = Some((i, stream, used, cap));
                }
            } else if used.saturating_mul(2) > cap
                && double.is_none_or(|(_, _, worst, _)| used.saturating_mul(2) > worst)
            {
                double = Some((i, stream, used.saturating_mul(2), cap));
            }
        }
        // Bandwidth: moving the fold's working set from/to DRAM must fit
        // inside the fold's own cycle window.
        let bytes = fp.total().saturating_mul(budget.bytes_per_elem);
        let window_bytes = f.cycles().saturating_mul(budget.dram_bytes_per_cycle);
        if bytes > window_bytes && bandwidth.is_none_or(|(_, worst, _)| bytes > worst) {
            bandwidth = Some((i, bytes, f.cycles()));
        }
    }

    let mut out = Vec::new();
    if let Some((i, stream, used, cap)) = single {
        out.push(Diagnostic {
            rule: RuleId::Mem001FoldExceedsSram,
            severity: Severity::Error,
            context: context.to_string(),
            message: format!(
                "`{op}`: fold {i} needs {used} {stream} elements resident but the \
                 {stream} SRAM holds {cap}"
            ),
            dependence: None,
            suggestion: "shrink the tile (smaller array mapping) or grow the SRAM \
                         buffer; the fold cannot execute from on-chip memory as \
                         planned"
                .into(),
        });
    }
    if let Some((i, stream, used2, cap)) = double {
        out.push(Diagnostic {
            rule: RuleId::Mem002DoubleBufferExceedsSram,
            severity: Severity::Warning,
            context: context.to_string(),
            message: format!(
                "`{op}`: fold {i} double-buffered needs {used2} {stream} elements \
                 but the {stream} SRAM holds {cap}; next-fold prefetch cannot \
                 overlap compute"
            ),
            dependence: None,
            suggestion: "expect serial-fold latency, not the double-buffered \
                         idealization, for this layer"
                .into(),
        });
    }
    if let Some((i, bytes, cycles)) = bandwidth {
        out.push(Diagnostic {
            rule: RuleId::Mem003BandwidthInfeasible,
            severity: Severity::Warning,
            context: context.to_string(),
            message: format!(
                "`{op}`: fold {i} moves {bytes} DRAM bytes but its {cycles}-cycle \
                 window covers only {} at {} B/cycle",
                cycles.saturating_mul(budget.dram_bytes_per_cycle),
                budget.dram_bytes_per_cycle
            ),
            dependence: None,
            suggestion: "the compute-limited latency estimate is a lower bound \
                         here; the fold is DRAM-bandwidth-bound at this array size"
                .into(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_latency::LatencyModel;
    use fuseconv_systolic::ArrayConfig;

    fn model() -> LatencyModel {
        LatencyModel::new(ArrayConfig::square(64).unwrap().with_broadcast(true))
    }

    fn tiny_budget() -> MemoryBudget {
        MemoryBudget {
            sram: SramConfig {
                ifmap_elems: 16,
                filter_elems: 16,
                ofmap_elems: 16,
            },
            bytes_per_elem: 2,
            dram_bytes_per_cycle: 256,
        }
    }

    #[test]
    fn zoo_scale_ops_fit_the_paper_budget() {
        let m = model();
        let budget = MemoryBudget::paper_default();
        // The heaviest layers of the zoo at the paper's 64×64 array.
        for op in [
            Op::conv2d(14, 14, 512, 512, 3, 1, 1), // ResNet-50's widest im2col
            Op::pointwise(7, 7, 320, 1280),        // MobileNet-V2 head
            Op::fuse1d(112, 112, 32, 3, 1, 1, fuseconv_nn::ops::Axis1d::Row),
            Op::fc(2048, 1000),
        ] {
            let plan = m.fold_plan(&op).unwrap();
            let diags = diagnose_memory(&op, &plan, &budget, "test");
            assert!(
                diags.iter().all(|d| d.severity != Severity::Error),
                "{op}: {diags:?}"
            );
        }
    }

    #[test]
    fn undersized_sram_fires_mem001() {
        let m = model();
        let op = Op::pointwise(28, 28, 192, 64);
        let plan = m.fold_plan(&op).unwrap();
        let diags = diagnose_memory(&op, &plan, &tiny_budget(), "test");
        assert!(diags
            .iter()
            .any(|d| d.rule == RuleId::Mem001FoldExceedsSram && d.severity == Severity::Error));
    }

    #[test]
    fn marginal_sram_fires_mem002_not_mem001() {
        let m = model();
        let op = Op::pointwise(8, 8, 12, 8); // one fold: ifmap 64·12 = 768
        let plan = m.fold_plan(&op).unwrap();
        let budget = MemoryBudget {
            sram: SramConfig {
                ifmap_elems: 1000, // 768 fits, 1536 does not
                filter_elems: 512 * 1024,
                ofmap_elems: 128 * 1024,
            },
            bytes_per_elem: 2,
            dram_bytes_per_cycle: u64::MAX,
        };
        let diags = diagnose_memory(&op, &plan, &budget, "test");
        assert!(
            diags
                .iter()
                .all(|d| d.rule != RuleId::Mem001FoldExceedsSram),
            "{diags:?}"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.rule == RuleId::Mem002DoubleBufferExceedsSram
                    && d.severity == Severity::Warning),
            "{diags:?}"
        );
    }

    #[test]
    fn starved_dram_fires_mem003() {
        let m = model();
        let op = Op::pointwise(28, 28, 192, 64);
        let plan = m.fold_plan(&op).unwrap();
        let budget = MemoryBudget {
            dram_bytes_per_cycle: 1,
            ..MemoryBudget::paper_default()
        };
        let diags = diagnose_memory(&op, &plan, &budget, "test");
        assert!(diags.iter().any(
            |d| d.rule == RuleId::Mem003BandwidthInfeasible && d.severity == Severity::Warning
        ));
    }

    #[test]
    fn at_most_one_diagnostic_per_rule() {
        let m = model();
        let op = Op::conv2d(28, 28, 64, 128, 3, 1, 1); // many folds
        let plan = m.fold_plan(&op).unwrap();
        let diags = diagnose_memory(&op, &plan, &tiny_budget(), "test");
        for rule in [
            RuleId::Mem001FoldExceedsSram,
            RuleId::Mem002DoubleBufferExceedsSram,
            RuleId::Mem003BandwidthInfeasible,
        ] {
            assert!(
                diags.iter().filter(|d| d.rule == rule).count() <= 1,
                "{diags:?}"
            );
        }
        assert!(!diags.is_empty());
    }
}
