//! Fold-plan intermediate representation: the reference semantics of the
//! `FUS` rule family.
//!
//! [`LatencyModel::fold_plan`](crate::LatencyModel::fold_plan) emits a flat
//! `Vec<FoldSpec>`: a schedule whose specs say nothing about *what data*
//! each fold reads and writes. [`PlanIr`] lifts one fold plan, or a
//! producer/consumer pair of them, into [`FoldNode`]s with explicit value
//! defs/uses — one ifmap, one filter and one output tile per fold, sized
//! by [`fold_footprint`] — plus dependence edges from the producer's folds
//! to the consumer's. [`PlanIr::lower`] reproduces the source plan bit for
//! bit. Over the graph, [`PlanIr::high_water`] prices SRAM under the
//! round-trip discipline (equal to
//! [`plan_high_water`](crate::plan_high_water) zoo-wide,
//! `tests/ir_differential.rs`), [`PlanIr::live_intervals`] says over which
//! folds each value must exist, and [`PlanIr::high_water_without`] prices
//! the SRAM saving of keeping a pair's intermediates on-array.
//!
//! `fuseconv_analyze::fusion` prices each pair in closed form from the
//! two fold plans; a differential test pins that closed form to
//! [`PlanIr::from_pair`] on every zoo pair, and hand-built or mutated IRs
//! (a dependence cycle) still go through the IR.

use crate::audit::{fold_footprint, FoldFootprint};
use fuseconv_trace::FoldSpec;

/// Identifier of a value in a [`PlanIr`] (an index into
/// [`PlanIr::values`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub usize);

/// Which operand stream a value occupies — the same three streams
/// [`FoldFootprint`] prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueClass {
    /// An input feature-map tile.
    Ifmap,
    /// A filter (weight) tile.
    Filter,
    /// An output tile.
    Ofmap,
}

/// Where a value's bits come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueDef {
    /// Live-in: produced outside the lifted plan (network input, weights
    /// loaded from DRAM, or an upstream operator not part of this IR).
    LiveIn,
    /// Defined by the fold node at this index.
    Node(usize),
}

/// One value of the IR: a tile of one operand stream, sized by the
/// [`fold_footprint`] address math of the fold that stages it.
#[derive(Debug, Clone)]
pub struct ValueInfo {
    /// Operand stream the value occupies.
    pub class: ValueClass,
    /// Distinct SRAM elements of the tile (equal to the traced
    /// distinct-address count of its stream within its fold).
    pub elems: u64,
    /// Producer of the value.
    pub def: ValueDef,
    /// Fold nodes that semantically consume the value. For intermediates
    /// read by a whole consumer plan this records the read *span* — the
    /// earliest and final reader — rather than every fold in between
    /// (program order chains them, so liveness spans them either way).
    pub uses: Vec<usize>,
    /// The fold whose SRAM staging holds the value under the round-trip
    /// discipline (always the fold the value was created for).
    pub staged_at: usize,
    /// Whether the value escapes the lifted plan (an operator output no
    /// lifted consumer absorbs) and must therefore survive to the end of
    /// the schedule.
    pub live_out: bool,
}

/// One fold of the lifted plan: the exact [`FoldSpec`] it lowers back to
/// plus its value defs/uses and dependence edges.
#[derive(Debug, Clone)]
pub struct FoldNode {
    /// The spec this node lowers back to, unchanged from the source plan.
    pub spec: FoldSpec,
    /// Values this fold defines.
    pub defs: Vec<ValueId>,
    /// Values this fold uses.
    pub uses: Vec<ValueId>,
    /// Dependence successors (fold indices that must run after this one).
    pub succs: Vec<usize>,
}

/// The schedule interval over which a value must exist somewhere
/// (inclusive fold indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveInterval {
    /// The value.
    pub value: ValueId,
    /// First fold index at which the value is resident.
    pub start: usize,
    /// Last fold index at which the value is resident.
    pub end: usize,
}

/// A fold plan lifted into a dependence graph with explicit values.
#[derive(Debug, Clone)]
pub struct PlanIr {
    nodes: Vec<FoldNode>,
    values: Vec<ValueInfo>,
    intermediates: Vec<ValueId>,
}

impl PlanIr {
    /// Lifts a single operator's fold plan. Every fold gets a live-in
    /// ifmap tile, a live-in filter tile and a live-out output tile; the
    /// folds of one plan partition the operator's output iteration space
    /// (the PLAN audit proves it), so no dependence edges exist between
    /// them — program order is pure schedule.
    pub fn from_plan(plan: &[FoldSpec]) -> PlanIr {
        let mut ir = PlanIr {
            nodes: Vec::new(),
            values: Vec::new(),
            intermediates: Vec::new(),
        };
        ir.push_plan(plan);
        ir
    }

    /// Lifts a producer plan and a consumer plan connected by one tensor:
    /// the producer's output tiles become the intermediate the consumer's
    /// input tiles re-read.
    ///
    /// Fold specs carry phase lengths and occupancy but no tile offsets,
    /// so the address math cannot prove any producer tile disjoint from
    /// any consumer tile: conservatively, every consumer fold reads every
    /// producer output tile. Each producer fold gains one dependence edge
    /// to the *earliest* consumer fold, and each producer output tile
    /// records its read span by the earliest and final consumer fold —
    /// program order chains the folds in between, so reachability and
    /// liveness are those of the full bipartite edge set at O(P + C)
    /// size. The producer's output tiles and the consumer's input tiles
    /// are the *intermediate* values ([`PlanIr::intermediates`]): the
    /// SRAM round-trip fusion would eliminate.
    pub fn from_pair(producer: &[FoldSpec], consumer: &[FoldSpec]) -> PlanIr {
        let mut ir = PlanIr::from_plan(producer);
        ir.push_plan(consumer);
        let (p, n) = (producer.len(), ir.nodes.len());
        let span: &[usize] = match consumer.len() {
            0 => &[],
            1 => &[p],
            _ => &[p, n - 1],
        };
        for pn in 0..p {
            if !consumer.is_empty() {
                ir.add_dependence(pn, p);
            }
            // The producer's output no longer escapes: the lifted
            // consumer absorbs it.
            let ofmap = ir.nodes[pn].defs[0];
            let v = &mut ir.values[ofmap.0];
            v.live_out = false;
            v.uses = span.to_vec();
            ir.intermediates.push(ofmap);
            for &cn in span {
                ir.nodes[cn].uses.push(ofmap);
            }
        }
        // The consumer's input tiles are re-tilings of the tensor the
        // producer finished writing at its last fold.
        for cn in p..n {
            let ifmap = ir.nodes[cn].uses[0];
            if let Some(d) = p.checked_sub(1) {
                ir.values[ifmap.0].def = ValueDef::Node(d);
                ir.nodes[d].defs.push(ifmap);
            }
            ir.intermediates.push(ifmap);
        }
        ir
    }

    /// Appends one operator's folds, each with a live-in ifmap tile, a
    /// live-in filter tile and a live-out output tile.
    fn push_plan(&mut self, plan: &[FoldSpec]) {
        for spec in plan {
            let node = self.nodes.len();
            let fp = fold_footprint(spec);
            let mut value = |class, elems, def| {
                let id = ValueId(self.values.len());
                self.values.push(ValueInfo {
                    class,
                    elems,
                    def,
                    uses: (def == ValueDef::LiveIn)
                        .then_some(node)
                        .into_iter()
                        .collect(),
                    staged_at: node,
                    live_out: def != ValueDef::LiveIn,
                });
                id
            };
            let ifmap = value(ValueClass::Ifmap, fp.ifmap_elems, ValueDef::LiveIn);
            let filter = value(ValueClass::Filter, fp.filter_elems, ValueDef::LiveIn);
            let ofmap = value(ValueClass::Ofmap, fp.ofmap_elems, ValueDef::Node(node));
            self.nodes.push(FoldNode {
                spec: *spec,
                defs: vec![ofmap],
                uses: vec![ifmap, filter],
                succs: Vec::new(),
            });
        }
    }

    /// The fold nodes, in schedule order.
    pub fn nodes(&self) -> &[FoldNode] {
        &self.nodes
    }

    /// All values of the IR.
    pub fn values(&self) -> &[ValueInfo] {
        &self.values
    }

    /// Looks up one value.
    pub fn value(&self, id: ValueId) -> &ValueInfo {
        &self.values[id.0]
    }

    /// The values that form the inter-operator tensor of a pair (producer
    /// output tiles plus consumer input tiles): the SRAM round-trips
    /// fusion would eliminate. Empty for a single-plan lift.
    pub fn intermediates(&self) -> &[ValueId] {
        &self.intermediates
    }

    /// Adds an explicit dependence edge between two folds (used by
    /// [`PlanIr::from_pair`], and by tests that mutate an IR into an
    /// illegal shape, e.g. a dependence cycle).
    pub fn add_dependence(&mut self, from: usize, to: usize) {
        if !self.nodes[from].succs.contains(&to) {
            self.nodes[from].succs.push(to);
        }
    }

    /// Lowers the IR back to the flat fold plan it was lifted from —
    /// bit-for-bit: same order, same phase lengths, same MAC counts.
    pub fn lower(&self) -> Vec<FoldSpec> {
        self.nodes.iter().map(|n| n.spec).collect()
    }

    /// SRAM high-water under the round-trip staging discipline: each fold
    /// holds exactly its own three tiles while it runs, and the per-stream
    /// maximum over the schedule is the buffer requirement. Equal to
    /// [`plan_high_water`](crate::plan_high_water) over [`PlanIr::lower`]
    /// by construction — the differential test pins it zoo-wide.
    pub fn high_water(&self) -> FoldFootprint {
        self.high_water_without(&[])
    }

    /// The round-trip high-water with the given values removed from the
    /// SRAM working set (because they stay on-array instead). Pricing the
    /// [`PlanIr::intermediates`] this way yields the exact SRAM saving of
    /// fusing a producer/consumer pair.
    pub fn high_water_without(&self, dropped: &[ValueId]) -> FoldFootprint {
        let mut drop = vec![false; self.values.len()];
        for &v in dropped {
            drop[v.0] = true;
        }
        let mut per_node: Vec<FoldFootprint> = vec![FoldFootprint::default(); self.nodes.len()];
        for (v, _) in self.values.iter().zip(&drop).filter(|(_, &d)| !d) {
            let fp = &mut per_node[v.staged_at];
            match v.class {
                ValueClass::Ifmap => fp.ifmap_elems += v.elems,
                ValueClass::Filter => fp.filter_elems += v.elems,
                ValueClass::Ofmap => fp.ofmap_elems += v.elems,
            }
        }
        per_node
            .into_iter()
            .fold(FoldFootprint::default(), FoldFootprint::max)
    }

    /// Per-value live intervals: the inclusive schedule span over which
    /// each value must exist somewhere. The interval starts at the
    /// value's definition (or first use, for live-in values that can be
    /// fetched just in time) and ends at its last use, or at the final
    /// fold for live-out values. Values that are never defined nor used
    /// are omitted.
    pub fn live_intervals(&self) -> Vec<LiveInterval> {
        // Closed form of backward liveness, valid because the IR is
        // single-assignment with every use scheduled at or after its def
        // and the CFG is the straight-line schedule plus forward
        // dependence edges. `intervals_agree_with_the_fixpoint` and the
        // zoo-wide differential test pin it to
        // [`PlanIr::live_intervals_fixpoint`].
        self.intervals(|_, v| v.uses.iter().copied().max())
    }

    /// [`PlanIr::live_intervals`] recomputed by iterating backward
    /// liveness to a fixpoint over the schedule plus the dependence
    /// edges — the semantic ground truth the closed form is pinned
    /// against. Costs `O(folds × values)` flags; prefer the closed form
    /// outside of verification.
    pub fn live_intervals_fixpoint(&self) -> Vec<LiveInterval> {
        let n = self.nodes.len();
        // `live[i][v]`: value `v` is live before fold `i` runs. A value is
        // live before a fold if the fold uses it, or if it is live after
        // the fold (at the schedule successor, at a dependence successor,
        // or at the exit for a live-out value) and the fold does not
        // define it.
        let mut live = vec![vec![false; self.values.len()]; n];
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                let mut fact: Vec<bool> = match live.get(i + 1) {
                    Some(next) => next.clone(),
                    None => self.values.iter().map(|v| v.live_out).collect(),
                };
                for &s in &self.nodes[i].succs {
                    for (f, &l) in fact.iter_mut().zip(&live[s]) {
                        *f |= l;
                    }
                }
                for &d in &self.nodes[i].defs {
                    fact[d.0] = false;
                }
                for &u in &self.nodes[i].uses {
                    fact[u.0] = true;
                }
                if fact != live[i] {
                    live[i] = fact;
                    changed = true;
                }
            }
        }
        // The last fold at which a value is live before (or defined at)
        // it ends its interval; live-out values last through the exit.
        let mut end: Vec<Option<usize>> = vec![None; self.values.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for &d in &node.defs {
                end[d.0] = Some(i);
            }
            for (e, _) in end.iter_mut().zip(&live[i]).filter(|(_, &l)| l) {
                *e = Some(i);
            }
        }
        self.intervals(|i, _| end[i])
    }

    /// The interval of every value from its def (or first use, for a
    /// live-in value fetched just in time) to `last_use(index, value)`,
    /// or to the final fold for a live-out value. Values with neither a
    /// def nor a use are omitted.
    fn intervals(
        &self,
        last_use: impl Fn(usize, &ValueInfo) -> Option<usize>,
    ) -> Vec<LiveInterval> {
        let exit = self.nodes.len().checked_sub(1);
        let interval = |(i, v): (usize, &ValueInfo)| {
            let start = match v.def {
                ValueDef::Node(d) => d,
                ValueDef::LiveIn => v.uses.iter().copied().min()?,
            };
            let end = if v.live_out {
                exit?
            } else {
                last_use(i, v).unwrap_or(start)
            };
            Some(LiveInterval {
                value: ValueId(i),
                start,
                end: end.max(start),
            })
        };
        self.values
            .iter()
            .enumerate()
            .filter_map(interval)
            .collect()
    }

    /// Whether the dependence edge set contains a cycle. Lifted plans are
    /// acyclic by construction (edges follow tensor flow, which follows
    /// the schedule); a cycle means the plan pair cannot be ordered at
    /// all and fusion — or any schedule — is illegal.
    pub fn has_cycle(&self) -> bool {
        // Kahn's algorithm: nodes on (or behind) a cycle never run out of
        // unvisited predecessors.
        let mut preds = vec![0usize; self.nodes.len()];
        for &s in self.nodes.iter().flat_map(|n| &n.succs) {
            preds[s] += 1;
        }
        let mut ready: Vec<usize> = (0..self.nodes.len()).filter(|&n| preds[n] == 0).collect();
        let mut visited = 0;
        while let Some(n) = ready.pop() {
            visited += 1;
            for &s in &self.nodes[n].succs {
                preds[s] -= 1;
                if preds[s] == 0 {
                    ready.push(s);
                }
            }
        }
        visited < self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::plan_high_water;
    use crate::LatencyModel;
    use fuseconv_nn::ops::{Axis1d, Op};
    use fuseconv_systolic::ArrayConfig;

    fn model() -> LatencyModel {
        LatencyModel::new(
            ArrayConfig::square(8)
                .expect("nonzero side")
                .with_broadcast(true),
        )
    }

    fn plan_of(op: &Op) -> Vec<FoldSpec> {
        model().fold_plan(op).expect("op plans")
    }

    #[test]
    fn lift_lower_is_identity() {
        for op in [
            Op::conv2d(14, 14, 8, 24, 3, 1, 1),
            Op::depthwise(9, 9, 6, 3, 1, 1),
            Op::pointwise(7, 7, 12, 20),
            Op::fuse1d(12, 12, 5, 3, 1, 1, Axis1d::Row),
            Op::fc(100, 37),
        ] {
            let plan = plan_of(&op);
            let ir = PlanIr::from_plan(&plan);
            assert_eq!(ir.lower(), plan, "{op}");
            assert_eq!(ir.nodes().len(), plan.len());
        }
    }

    #[test]
    fn high_water_equals_plan_high_water() {
        for op in [
            Op::conv2d(14, 14, 8, 24, 3, 1, 1),
            Op::depthwise(9, 9, 6, 3, 1, 1),
            Op::fuse1d(7, 7, 9, 5, 1, 2, Axis1d::Col),
            Op::fc(100, 37),
        ] {
            let plan = plan_of(&op);
            let ir = PlanIr::from_plan(&plan);
            assert_eq!(ir.high_water(), plan_high_water(&plan), "{op}");
        }
    }

    #[test]
    fn single_plan_values_live_only_at_their_fold() {
        let plan = plan_of(&Op::pointwise(20, 1, 12, 20));
        let ir = PlanIr::from_plan(&plan);
        for iv in ir.live_intervals() {
            let v = ir.value(iv.value);
            // Live-in operands span exactly their fold; live-out outputs
            // persist from their fold to the schedule exit.
            assert_eq!(iv.start, v.staged_at);
            if v.live_out {
                assert_eq!(iv.end, ir.nodes().len() - 1);
            } else {
                assert_eq!(iv.end, v.staged_at);
            }
        }
    }

    #[test]
    fn pair_has_dependences_and_intermediates() {
        let producer = plan_of(&Op::depthwise(9, 9, 6, 3, 1, 1));
        let consumer = plan_of(&Op::pointwise(9, 9, 6, 12));
        let ir = PlanIr::from_pair(&producer, &consumer);
        assert_eq!(ir.nodes().len(), producer.len() + consumer.len());
        // Every producer fold carries a dependence edge to the earliest
        // consumer fold (program order chains the rest), and every
        // producer output tile records its consumer read span.
        let (first_c, last_c) = (producer.len(), ir.nodes().len() - 1);
        for n in 0..producer.len() {
            assert_eq!(ir.nodes()[n].succs, vec![first_c]);
            for &vid in &ir.nodes()[n].defs {
                if ir.value(vid).class == ValueClass::Ofmap {
                    assert_eq!(ir.value(vid).uses, vec![first_c, last_c]);
                }
            }
        }
        assert!(!ir.has_cycle());
        // Every node-defined value is defined before each of its uses,
        // and is used or escapes (none is dead).
        for v in ir.values() {
            if let ValueDef::Node(d) = v.def {
                assert!(v.uses.iter().all(|&u| d < u), "{v:?}");
                assert!(v.live_out || !v.uses.is_empty(), "{v:?}");
            }
        }
        // Intermediates = producer ofmaps + consumer ifmaps.
        assert_eq!(ir.intermediates().len(), producer.len() + consumer.len());
        // The intermediate's live interval spans producer def to last
        // consumer use.
        let intervals = ir.live_intervals();
        for &vid in ir.intermediates() {
            let v = ir.value(vid);
            if v.class == ValueClass::Ofmap {
                let iv = intervals
                    .iter()
                    .find(|iv| iv.value == vid)
                    .expect("intermediate is live");
                assert_eq!(iv.start, v.staged_at);
                assert_eq!(iv.end, ir.nodes().len() - 1);
            }
        }
    }

    #[test]
    fn dropping_intermediates_prices_the_fused_working_set() {
        let producer = plan_of(&Op::fuse1d(12, 12, 5, 3, 1, 1, Axis1d::Row));
        let consumer = plan_of(&Op::pointwise(12, 12, 10, 20));
        let ir = PlanIr::from_pair(&producer, &consumer);
        let base = ir.high_water();
        let fused = ir.high_water_without(ir.intermediates());
        assert!(fused.ifmap_elems <= base.ifmap_elems);
        assert!(fused.filter_elems <= base.filter_elems);
        assert!(fused.ofmap_elems <= base.ofmap_elems);
        // The baseline matches the flat concatenated plan exactly…
        let mut concat = producer.clone();
        concat.extend(consumer.iter().copied());
        assert_eq!(base, plan_high_water(&concat));
        // …and the fused figure equals the same plan with the producer's
        // output stream and the consumer's input stream zeroed out — the
        // intermediate never staged in SRAM.
        let expected = producer
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
        assert_eq!(fused, expected);
    }

    #[test]
    fn back_edge_makes_a_cycle() {
        let producer = plan_of(&Op::depthwise(9, 9, 6, 3, 1, 1));
        let mut ir = PlanIr::from_pair(&producer, &plan_of(&Op::pointwise(9, 9, 6, 12)));
        assert!(!ir.has_cycle());
        // The first consumer fold already depends on every producer fold;
        // a reverse edge closes a mutual dependence no schedule satisfies.
        ir.add_dependence(producer.len(), 0);
        assert!(ir.has_cycle());
    }

    #[test]
    fn empty_consumer_leaves_dead_producer_outputs() {
        let producer = plan_of(&Op::depthwise(9, 9, 6, 3, 1, 1));
        let ir = PlanIr::from_pair(&producer, &[]);
        // The edge strips live-out but attaches no uses: every producer
        // output tile is dead.
        let dead = ir
            .values()
            .iter()
            .filter(|v| matches!(v.def, ValueDef::Node(_)) && v.uses.is_empty() && !v.live_out);
        assert_eq!(dead.count(), producer.len());
    }

    #[test]
    fn intervals_agree_with_the_fixpoint() {
        let producer = plan_of(&Op::depthwise(9, 9, 6, 3, 1, 1));
        let consumer = plan_of(&Op::pointwise(9, 9, 6, 12));
        for ir in [
            PlanIr::from_plan(&plan_of(&Op::conv2d(14, 14, 8, 24, 3, 1, 1))),
            PlanIr::from_plan(&plan_of(&Op::fuse1d(12, 12, 5, 3, 1, 1, Axis1d::Col))),
            PlanIr::from_pair(&producer, &consumer),
            PlanIr::from_pair(&producer, &[]),
        ] {
            assert_eq!(ir.live_intervals(), ir.live_intervals_fixpoint());
        }
    }
}
