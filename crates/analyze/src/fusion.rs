//! Fusion-legality analysis (FUS001–FUS006): static liveness, dependence
//! and on-array residency proofs over pairs of fold plans.
//!
//! FuSeConv's row/col 1-D banks feed straight into the block's 1×1
//! pointwise projection, yet every fold of today's flat plan round-trips
//! its intermediate through SRAM — exactly the producer/consumer traffic
//! a fused depthwise+pointwise schedule eliminates. For each candidate
//! pair this module proves, statically:
//!
//! * **FUS001** — the pair is fusible: a producer→consumer dependence
//!   edge set connects their fold plans, the intermediate tile fits the
//!   array's accumulator residency (`rows × cols` elements), and keeping
//!   it on-array saves exactly the reported SRAM bytes (the
//!   `plan_high_water` delta with the intermediate dropped from the
//!   working set — the constructive check the differential tests rerun).
//! * **FUS002** — an intermediate tile exceeds `rows × cols` elements:
//!   on-array forwarding is impossible at this array size.
//! * **FUS003** — the fold dependence graph has a cycle: no schedule,
//!   fused or not, exists. Lifted plans are acyclic by construction, so
//!   this fires only on hand-mutated IRs ([`diagnose_pair_ir`]).
//! * **FUS004** — the consumer's dataflow preloads its inputs during the
//!   fill phase (input-stationary), so the producer cannot forward
//!   results into a running fold.
//! * **FUS005** — dead value: an op's output is consumed by no later op
//!   in its block (by the slice-or-concat channel rule of
//!   [`fuseconv_models::op_consumes`]); every fold computing it is dead
//!   work.
//! * **FUS006** — per-network fusion headroom: layers ranked by the SRAM
//!   round-trip traffic fusion would avoid.
//!
//! Each operator's fold plan is summarized once, in one pass over its
//! [`fold_footprint`]s, and each pair is priced in closed form from its
//! two summaries. The pair lifted into a [`PlanIr`] is the reference: a
//! differential test pins the closed form to it on every zoo pair, and
//! [`diagnose_pair_ir`] judges hand-built or mutated IRs.

use crate::diagnostics::{Diagnostic, RuleId, Severity};
use crate::memory::MemoryBudget;
use fuseconv_latency::ir::ValueClass;
use fuseconv_latency::{
    fold_footprint, AsFoldRuns, Dataflow, FoldFootprint, FoldRuns, LatencyModel, PlanIr,
};
use fuseconv_models::{op_consumes, Network};
use fuseconv_nn::ops::Op;

/// A statically fusible producer/consumer pair, with the proof artifacts
/// behind its FUS001 verdict.
#[derive(Debug, Clone)]
pub struct FusiblePair {
    /// Name of the block the pair lives in.
    pub block: String,
    /// The producing op (a depthwise filter or FuSe 1-D bank).
    pub producer: Op,
    /// The consuming op (the block's pointwise projection).
    pub consumer: Op,
    /// Producer→consumer dependence edges in the lifted IR.
    pub edges: usize,
    /// Largest intermediate output tile that must stay on-array (elems).
    pub tile_elems: u64,
    /// Live interval (inclusive fold indices) of the intermediate tensor
    /// in the pair's schedule, from the liveness fixpoint.
    pub interval: (usize, usize),
    /// SRAM high-water elements saved when the intermediate never stages
    /// in SRAM (the `plan_high_water` delta).
    pub saving_elems: u64,
    /// The same saving in bytes, at the budget's element width.
    pub saving_bytes: u64,
    /// Total SRAM round-trip traffic fusion avoids (producer output
    /// writes plus consumer input re-reads), in bytes.
    pub traffic_bytes: u64,
}

/// What a pair's verdict is computed from: the facts the lifted pair IR
/// states about its intermediate tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PairFacts {
    edges: usize,
    tile_elems: u64,
    interval: (usize, usize),
    saving_elems: u64,
    traffic_elems: u64,
}

/// Outcome of checking one producer/consumer pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairCheck {
    Fusible(PairFacts),
    ResidencyExceeded { tile_elems: u64, budget_elems: u64 },
    Cycle,
    DataflowMismatch,
}

impl PairFacts {
    /// Reads the facts off a lifted pair IR: the reference semantics.
    fn of_ir(ir: &PlanIr) -> PairFacts {
        let mut inter = vec![false; ir.values().len()];
        for &v in ir.intermediates() {
            inter[v.0] = true;
        }
        let (start, end) = ir
            .live_intervals()
            .iter()
            .filter(|iv| inter[iv.value.0])
            .fold((usize::MAX, 0), |(s, e), iv| {
                (s.min(iv.start), e.max(iv.end))
            });
        let tiles = || ir.intermediates().iter().map(|&v| ir.value(v));
        PairFacts {
            edges: ir.nodes().iter().map(|n| n.succs.len()).sum(),
            tile_elems: tiles()
                .filter(|v| v.class == ValueClass::Ofmap)
                .map(|v| v.elems)
                .max()
                .unwrap_or(0),
            // No live intermediate leaves (usize::MAX, 0): report (0, 0).
            interval: (start.min(end), end),
            saving_elems: ir
                .high_water()
                .total()
                .saturating_sub(ir.high_water_without(ir.intermediates()).total()),
            traffic_elems: tiles().map(|v| v.elems).sum(),
        }
    }

    /// The facts of `PlanIr::from_pair` in closed form, from the two
    /// plans' summaries. The intermediates are the producer's output
    /// tiles and the consumer's input tiles; every producer fold has one
    /// edge to the first consumer fold; the intermediates stay live from
    /// the first fold to the last; and dropping them from SRAM zeroes the
    /// producer's ofmap and the consumer's ifmap stream.
    fn of_plans(producer: &PlanSummary, consumer: &PlanSummary) -> PairFacts {
        let (p, c) = (producer.high_water, consumer.high_water);
        let fused = FoldFootprint {
            ofmap_elems: 0,
            ..p
        }
        .max(FoldFootprint {
            ifmap_elems: 0,
            ..c
        });
        let edges = if consumer.folds > 0 {
            producer.folds
        } else {
            0
        };
        PairFacts {
            edges,
            tile_elems: p.ofmap_elems,
            interval: (0, (producer.folds + consumer.folds).saturating_sub(1)),
            saving_elems: p.max(c).total().saturating_sub(fused.total()),
            traffic_elems: producer.ofmap_elems + consumer.ifmap_elems,
        }
    }

    /// Classifies an acyclic pair against an array's residency budget and
    /// GEMM dataflow.
    fn check(self, rows: u64, cols: u64, dataflow: Dataflow) -> PairCheck {
        let budget_elems = rows * cols;
        if dataflow == Dataflow::InputStationary {
            PairCheck::DataflowMismatch
        } else if self.tile_elems > budget_elems {
            PairCheck::ResidencyExceeded {
                tile_elems: self.tile_elems,
                budget_elems,
            }
        } else {
            PairCheck::Fusible(self)
        }
    }
}

/// Classifies a lifted pair IR: a dependence cycle first, then
/// [`PairFacts::check`].
fn check_pair(ir: &PlanIr, rows: u64, cols: u64, dataflow: Dataflow) -> PairCheck {
    if ir.has_cycle() {
        return PairCheck::Cycle;
    }
    PairFacts::of_ir(ir).check(rows, cols, dataflow)
}

/// What the FUS rules read of one operator's fold plan, gathered in one
/// pass over its runs' [`fold_footprint`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanSummary {
    /// Folds in the plan, one output tile each.
    folds: usize,
    /// Per-stream maximum over the folds (`plan_high_water`).
    high_water: FoldFootprint,
    /// Input tile elements summed over the folds.
    ifmap_elems: u64,
    /// Output tile elements summed over the folds.
    ofmap_elems: u64,
}

impl PlanSummary {
    /// Summarizes one fold plan, as runs or flat.
    pub fn of(plan: &(impl AsFoldRuns + ?Sized)) -> PlanSummary {
        let plan = plan.as_fold_runs();
        let mut s = PlanSummary {
            folds: usize::try_from(plan.len()).unwrap_or(usize::MAX),
            high_water: FoldFootprint::default(),
            ifmap_elems: 0,
            ofmap_elems: 0,
        };
        for (_, f, n) in plan.runs() {
            let fp = fold_footprint(f);
            let add = |sum: u64, elems: u64| sum.saturating_add(elems.saturating_mul(n));
            s.high_water = s.high_water.max(fp);
            s.ifmap_elems = add(s.ifmap_elems, fp.ifmap_elems);
            s.ofmap_elems = add(s.ofmap_elems, fp.ofmap_elems);
        }
        s
    }
}

/// Renders one pair verdict as its FUS001–FUS004 finding.
fn render(
    check: PairCheck,
    rows: u64,
    cols: u64,
    bytes_per_elem: u64,
    context: &str,
    pair: &str,
) -> Diagnostic {
    match check {
        PairCheck::Cycle => Diagnostic {
            rule: RuleId::Fus003DependenceCycle,
            severity: Severity::Error,
            context: context.to_string(),
            message: format!("{pair}: the fold dependence graph contains a cycle; no schedule (fused or not) exists"),
            dependence: None,
            suggestion: "the lifted plan pair is self-contradictory; rebuild the IR from fold_plan output".into(),
        },
        PairCheck::DataflowMismatch => Diagnostic {
            rule: RuleId::Fus004DataflowMismatch,
            severity: Severity::Warning,
            context: context.to_string(),
            message: format!(
                "{pair}: the consumer runs input-stationary, preloading its inputs during fill — the producer cannot forward results into a running fold"
            ),
            dependence: None,
            suggestion: "fuse under an output- or weight-stationary consumer dataflow, which streams inputs during compute".into(),
        },
        PairCheck::ResidencyExceeded {
            tile_elems,
            budget_elems,
        } => Diagnostic {
            rule: RuleId::Fus002ResidencyExceeded,
            severity: Severity::Warning,
            context: context.to_string(),
            message: format!(
                "{pair}: intermediate tile holds {tile_elems} elements but the array retains only {budget_elems} ({rows}x{cols}) on-array; forwarding is impossible at this array size"
            ),
            dependence: None,
            suggestion: "re-tile the producer so each output tile fits the array, or fuse on a larger array".into(),
        },
        PairCheck::Fusible(PairFacts {
            edges,
            tile_elems,
            interval,
            saving_elems,
            ..
        }) => Diagnostic {
            rule: RuleId::Fus001FusiblePair,
            severity: Severity::Info,
            context: context.to_string(),
            message: format!(
                "{pair}: statically fusible — {edges} dependence edges, intermediate tile {tile_elems} elems fits {rows}x{cols} on-array residency over folds {}..={}; keeping it on-array saves {} bytes of SRAM high-water",
                interval.0,
                interval.1,
                saving_elems * bytes_per_elem,
            ),
            dependence: None,
            suggestion: "schedule the pair back-to-back and forward the producer's output through the array (ROADMAP item 4)".into(),
        },
    }
}

/// Diagnoses one lifted pair IR, emitting the FUS001/FUS002/FUS003/FUS004
/// finding it warrants. `pair` labels the pair in messages (e.g.
/// `` `dw 3x3` -> `pw 1x1` ``); `context` is the usual
/// `network/block` context string.
pub fn diagnose_pair_ir(
    ir: &PlanIr,
    rows: u64,
    cols: u64,
    dataflow: Dataflow,
    bytes_per_elem: u64,
    context: &str,
    pair: &str,
) -> Vec<Diagnostic> {
    let check = check_pair(ir, rows, cols, dataflow);
    vec![render(check, rows, cols, bytes_per_elem, context, pair)]
}

/// Candidate producer/consumer pairs of one block's op expansion: each
/// spatial filter op (depthwise or FuSe 1-D bank) paired with the next
/// pointwise op — the block's projection, which reads its output.
fn candidate_pairs(ops: &[Op]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if !matches!(op, Op::Depthwise { .. } | Op::FuSe1d { .. }) {
            continue;
        }
        if let Some(j) = ops
            .iter()
            .enumerate()
            .skip(i + 1)
            .find(|(_, o)| matches!(o, Op::Pointwise { .. }))
            .map(|(j, _)| j)
        {
            out.push((i, j));
        }
    }
    out
}

/// One block of a network with the summary of each operator's fold plan
/// (`None` where the latency model rejects the operator).
pub(crate) struct PlannedBlock<'a> {
    name: &'a str,
    ops: Vec<Op>,
    plans: Vec<Option<PlanSummary>>,
}

/// Plans every operator of `net` once, block by block. `visit` sees each
/// operator's plan (`None` where the model rejects the operator); only
/// its summary is kept.
pub(crate) fn plan_blocks<'a>(
    model: &LatencyModel,
    net: &'a Network,
    mut visit: impl FnMut(&str, &Op, Option<&FoldRuns>),
) -> Vec<PlannedBlock<'a>> {
    let mut blocks = Vec::with_capacity(net.blocks().len());
    for (name, block) in net.blocks() {
        let ops = block.ops();
        let mut plans = Vec::with_capacity(ops.len());
        for op in &ops {
            let plan = model.fold_runs(op).ok();
            visit(name, op, plan.as_ref());
            plans.push(plan.as_ref().map(PlanSummary::of));
        }
        blocks.push(PlannedBlock { name, ops, plans });
    }
    blocks
}

/// The checked candidate pairs `(producer, consumer, verdict)` of one
/// planned block; pairs with an unplannable op are skipped.
fn checked_pairs<'a>(
    model: &'a LatencyModel,
    block: &'a PlannedBlock,
) -> impl Iterator<Item = (usize, usize, PairCheck)> + 'a {
    let rows = model.array().rows() as u64;
    let cols = model.array().cols() as u64;
    candidate_pairs(&block.ops)
        .into_iter()
        .filter_map(move |(i, j)| {
            let (Some(producer), Some(consumer)) = (&block.plans[i], &block.plans[j]) else {
                return None;
            };
            let facts = PairFacts::of_plans(producer, consumer);
            Some((i, j, facts.check(rows, cols, model.dataflow())))
        })
}

/// The statically fusible pairs of a network, with their proof artifacts.
/// Pairs that fail a legality check (residency, dataflow) are omitted —
/// [`analyze_fusion`] reports those as FUS002/FUS004 findings instead.
pub fn fusible_pairs(
    model: &LatencyModel,
    net: &Network,
    budget: &MemoryBudget,
) -> Vec<FusiblePair> {
    let mut out = Vec::new();
    for block in plan_blocks(model, net, |_, _, _| {}) {
        for (i, j, check) in checked_pairs(model, &block) {
            if let PairCheck::Fusible(f) = check {
                out.push(FusiblePair {
                    block: block.name.to_string(),
                    producer: block.ops[i],
                    consumer: block.ops[j],
                    edges: f.edges,
                    tile_elems: f.tile_elems,
                    interval: f.interval,
                    saving_elems: f.saving_elems,
                    saving_bytes: f.saving_elems * budget.bytes_per_elem,
                    traffic_bytes: f.traffic_elems * budget.bytes_per_elem,
                });
            }
        }
    }
    out
}

/// Runs the whole FUS family over a network: per-pair fusibility
/// (FUS001–FUS004), per-op dead-value findings (FUS005) and the
/// per-network fusion-headroom ranking (FUS006).
pub fn analyze_fusion(
    model: &LatencyModel,
    net: &Network,
    budget: &MemoryBudget,
) -> Vec<Diagnostic> {
    let blocks = plan_blocks(model, net, |_, _, _| {});
    diagnose_fusion(model, net, budget, &blocks)
}

/// [`analyze_fusion`] over plan summaries the caller already holds, one
/// [`PlannedBlock`] per block of `net`.
pub(crate) fn diagnose_fusion(
    model: &LatencyModel,
    net: &Network,
    budget: &MemoryBudget,
    blocks: &[PlannedBlock],
) -> Vec<Diagnostic> {
    let _span = fuseconv_telemetry::span("analyze.fusion");
    let rows = model.array().rows() as u64;
    let cols = model.array().cols() as u64;
    let bpe = budget.bytes_per_elem;
    let label = format!("{}[{}]", net.name(), net.variant_label());
    let mut out = Vec::new();
    let mut headroom: Vec<(String, String, u64)> = Vec::new();

    for block in blocks {
        let context = format!("{label}/{}", block.name);
        for (i, j, check) in checked_pairs(model, block) {
            let pair = format!("`{}` -> `{}`", block.ops[i], block.ops[j]);
            if let PairCheck::Fusible(f) = check {
                let bytes = f.traffic_elems * bpe;
                headroom.push((block.name.to_string(), pair.clone(), bytes));
            }
            out.push(render(check, rows, cols, bpe, &context, &pair));
        }
        out.extend(diagnose_dead_ops(block, &context));
    }

    // FUS006: rank blocks by the SRAM round-trip traffic fusion avoids.
    if !headroom.is_empty() {
        headroom.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        let total: u64 = headroom.iter().map(|h| h.2).sum();
        let top: Vec<String> = headroom
            .iter()
            .take(5)
            .enumerate()
            .map(|(rank, (block, pair, bytes))| format!("{}. {block} {pair}: {bytes} B", rank + 1))
            .collect();
        out.push(Diagnostic {
            rule: RuleId::Fus006FusionHeadroom,
            severity: Severity::Info,
            context: label,
            message: format!(
                "fusion headroom: {} fusible pair(s) could avoid {total} B of SRAM round-trip traffic; top layers: {}",
                headroom.len(),
                top.join("; "),
            ),
            dependence: None,
            suggestion: "fuse the highest-traffic pairs first (ROADMAP item 4)".into(),
        });
    }
    out
}

/// FUS005: ops whose output no later op in the block consumes. Every one
/// of the op's output tiles — one per fold of its plan — is dead work.
fn diagnose_dead_ops(block: &PlannedBlock, context: &str) -> Vec<Diagnostic> {
    let ops = &block.ops;
    let mut out = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        // The block's last op is the block output: always consumed.
        if i + 1 == ops.len() {
            continue;
        }
        if ops[i + 1..].iter().any(|c| op_consumes(op, c)) {
            continue;
        }
        let dead_tiles = block.plans[i].map_or(0, |plan| plan.folds);
        out.push(Diagnostic {
            rule: RuleId::Fus005DeadValue,
            severity: Severity::Warning,
            context: context.to_string(),
            message: format!(
                "output of `{op}` is consumed by no later op in the block: all {dead_tiles} output tiles of its fold plan are dead work"
            ),
            dependence: None,
            suggestion: "remove the op or rewire the block so its output is read".into(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_latency::{fold_footprint, plan_high_water, FoldFootprint};
    use fuseconv_models::zoo;
    use fuseconv_nn::ops::Axis1d;
    use fuseconv_nn::FuSeVariant;
    use fuseconv_systolic::ArrayConfig;
    use fuseconv_trace::{FoldKind, FoldSpec};

    fn model() -> LatencyModel {
        LatencyModel::new(
            ArrayConfig::square(64)
                .expect("nonzero")
                .with_broadcast(true),
        )
    }

    fn budget() -> MemoryBudget {
        MemoryBudget::paper_default()
    }

    #[test]
    fn mobilenet_v2_full_has_fusible_pairs() {
        let net = zoo::mobilenet_v2().transform_all(FuSeVariant::Full);
        let pairs = fusible_pairs(&model(), &net, &budget());
        assert!(!pairs.is_empty());
        // Every fused block contributes its row and col banks.
        assert!(pairs.iter().any(|p| matches!(
            p.producer,
            Op::FuSe1d {
                axis: Axis1d::Row,
                ..
            }
        )));
        assert!(pairs.iter().any(|p| matches!(
            p.producer,
            Op::FuSe1d {
                axis: Axis1d::Col,
                ..
            }
        )));
        assert!(pairs
            .iter()
            .all(|p| matches!(p.consumer, Op::Pointwise { .. })));
    }

    #[test]
    fn fusible_verdicts_are_constructively_true() {
        // The acceptance criterion: every FUS001 verdict re-verified from
        // scratch — dependence edges exist, the intermediate's tile fits
        // the rows×cols residency budget over its live interval, and the
        // reported saving equals the measured plan_high_water delta with
        // the intermediate's streams dropped from the working set.
        let m = model();
        let b = budget();
        let net = zoo::mobilenet_v2().transform_all(FuSeVariant::Half);
        let pairs = fusible_pairs(&m, &net, &b);
        assert!(!pairs.is_empty());
        for p in &pairs {
            let producer = m.fold_plan(&p.producer).expect("plans");
            let consumer = m.fold_plan(&p.consumer).expect("plans");
            let ir = PlanIr::from_pair(&producer, &consumer);
            // Dependence edges exist and match the reported count.
            let edges: usize = ir.nodes().iter().map(|n| n.succs.len()).sum();
            assert!(edges > 0);
            assert_eq!(edges, p.edges);
            // The intermediate tile fits on-array residency.
            assert!(p.tile_elems <= 64 * 64, "{p:?}");
            assert!(p.interval.0 <= p.interval.1);
            assert!(p.interval.1 < ir.nodes().len());
            // The saving equals the high-water delta measured on the flat
            // concatenated plan with the intermediate never staged.
            let mut concat = producer.clone();
            concat.extend(consumer.iter().copied());
            let base = plan_high_water(&concat);
            let fused = producer
                .iter()
                .map(|f| {
                    let mut fp = fold_footprint(f);
                    fp.ofmap_elems = 0;
                    fp
                })
                .chain(consumer.iter().map(|f| {
                    let mut fp = fold_footprint(f);
                    fp.ifmap_elems = 0;
                    fp
                }))
                .fold(FoldFootprint::default(), FoldFootprint::max);
            let measured = base.total().saturating_sub(fused.total());
            assert_eq!(p.saving_elems, measured, "{p:?}");
            assert_eq!(p.saving_bytes, measured * b.bytes_per_elem);
        }
    }

    #[test]
    fn depthwise_baseline_pairs_are_also_fusible() {
        let net = zoo::mobilenet_v2();
        let pairs = fusible_pairs(&model(), &net, &budget());
        assert!(!pairs.is_empty());
        assert!(pairs
            .iter()
            .all(|p| matches!(p.producer, Op::Depthwise { .. })));
    }

    #[test]
    fn gemm_only_network_has_no_pairs_and_no_fus_findings() {
        // ResNet-50's baseline has no depthwise/FuSe ops at all.
        let net = zoo::resnet50();
        assert!(fusible_pairs(&model(), &net, &budget()).is_empty());
        let diags = analyze_fusion(&model(), &net, &budget());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn analyze_fusion_emits_fus001_and_headroom() {
        let net = zoo::mobilenet_v2().transform_all(FuSeVariant::Full);
        let diags = analyze_fusion(&model(), &net, &budget());
        let fus001 = diags
            .iter()
            .filter(|d| d.rule == RuleId::Fus001FusiblePair)
            .count();
        assert_eq!(fus001, fusible_pairs(&model(), &net, &budget()).len());
        let headroom: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == RuleId::Fus006FusionHeadroom)
            .collect();
        assert_eq!(headroom.len(), 1);
        assert_eq!(headroom[0].severity, Severity::Info);
        assert!(
            headroom[0].message.contains("top layers"),
            "{}",
            headroom[0].message
        );
        // No illegal-fusion findings on real zoo networks.
        assert!(diags.iter().all(|d| d.severity != Severity::Error));
        assert!(diags.iter().all(|d| d.rule != RuleId::Fus005DeadValue));
    }

    #[test]
    fn input_stationary_consumer_is_fus004() {
        let m = model().with_dataflow(Dataflow::InputStationary);
        let net = zoo::mobilenet_v2();
        let diags = analyze_fusion(&m, &net, &budget());
        assert!(diags
            .iter()
            .any(|d| d.rule == RuleId::Fus004DataflowMismatch && d.severity == Severity::Warning));
        assert!(diags.iter().all(|d| d.rule != RuleId::Fus001FusiblePair));
        assert!(fusible_pairs(&m, &net, &budget()).is_empty());
    }

    fn synthetic_spec(rows_used: u32, cols_used: u32) -> FoldSpec {
        FoldSpec {
            tag: 0,
            kind: FoldKind::OutputStationary,
            rows_used,
            cols_used,
            fill: 0,
            compute: 8,
            drain: 4,
            macs: 64,
        }
    }

    #[test]
    fn oversized_intermediate_tile_is_fus002() {
        // A hand-built producer whose output tile (rows_used × cols_used)
        // exceeds an 8×8 array's on-array residency.
        let producer = [synthetic_spec(100, 100)];
        let consumer = [synthetic_spec(8, 8)];
        let ir = PlanIr::from_pair(&producer, &consumer);
        let diags = diagnose_pair_ir(&ir, 8, 8, Dataflow::OutputStationary, 2, "test", "pair");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::Fus002ResidencyExceeded);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("10000"), "{}", diags[0].message);
    }

    #[test]
    fn dependence_cycle_is_fus003_error() {
        let producer = [synthetic_spec(8, 8)];
        let consumer = [synthetic_spec(8, 8)];
        let mut ir = PlanIr::from_pair(&producer, &consumer);
        ir.add_dependence(1, 0);
        let diags = diagnose_pair_ir(&ir, 8, 8, Dataflow::OutputStationary, 2, "test", "pair");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::Fus003DependenceCycle);
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn unread_output_is_fus005() {
        // depthwise(c=7) followed only by pointwise(in_c=3): 3 neither
        // covers nor evenly slices 7 channels, so the depthwise output is
        // dead by the slice-or-concat rule.
        let m = model();
        let ops = vec![Op::depthwise(8, 8, 7, 3, 1, 1), Op::pointwise(8, 8, 3, 16)];
        let dead_tiles = m.fold_plan(&ops[0]).expect("depthwise plans").len();
        let plans = ops
            .iter()
            .map(|op| m.fold_plan(op).ok().map(|plan| PlanSummary::of(&plan)))
            .collect();
        let block = PlannedBlock {
            name: "b",
            ops,
            plans,
        };
        let diags = diagnose_dead_ops(&block, "test");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::Fus005DeadValue);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(
            diags[0].message.contains("dead work"),
            "{}",
            diags[0].message
        );
        // One dead output tile per fold of the op's plan.
        assert!(
            diags[0]
                .message
                .contains(&format!("all {dead_tiles} output tiles")),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn closed_form_matches_the_lifted_ir_on_every_zoo_pair() {
        // The closed form must agree with the lifted IR, fact by fact and
        // verdict by verdict, on every candidate pair of the `analyze --all`
        // networks, plus the 1-fold and empty-consumer edge cases of each.
        // A pair's plans depend only on its two ops and the model, so
        // each distinct pair is checked once per model.
        let mut nets = zoo::all_baselines();
        nets.extend([zoo::resnet50(), zoo::efficientnet_b0()]);
        assert_eq!(nets.len(), 7);
        let mut seen = std::collections::HashSet::new();
        let mut pairs = Vec::new();
        for base in &nets {
            for variant in [FuSeVariant::Full, FuSeVariant::Half] {
                for net in [base.clone(), base.transform_all(variant)] {
                    for (_, block) in net.blocks() {
                        let ops = block.ops();
                        for (i, j) in candidate_pairs(&ops) {
                            if seen.insert((ops[i], ops[j])) {
                                pairs.push((ops[i], ops[j]));
                            }
                        }
                    }
                }
            }
        }
        assert!(pairs.len() > 100, "{} distinct pairs", pairs.len());
        for side in [16, 64] {
            let array = ArrayConfig::square(side)
                .expect("nonzero")
                .with_broadcast(true);
            let (rows, cols) = (array.rows() as u64, array.cols() as u64);
            for dataflow in Dataflow::ALL {
                let m = LatencyModel::new(array).with_dataflow(dataflow);
                for (producer, consumer) in &pairs {
                    let p = m.fold_plan(producer).expect("zoo op plans");
                    let c = m.fold_plan(consumer).expect("zoo op plans");
                    for (p, c) in [(&p[..], &c[..]), (&p[..1], &c[..1]), (&p[..], &[][..])] {
                        let ir = PlanIr::from_pair(p, c);
                        let facts = PairFacts::of_plans(&PlanSummary::of(p), &PlanSummary::of(c));
                        assert_eq!(facts, PairFacts::of_ir(&ir));
                        assert_eq!(
                            facts.check(rows, cols, dataflow),
                            check_pair(&ir, rows, cols, dataflow),
                            "{side}x{side} {dataflow:?}: `{producer}` -> `{consumer}`, {} + {} folds",
                            p.len(),
                            c.len(),
                        );
                    }
                }
            }
        }
    }
}
