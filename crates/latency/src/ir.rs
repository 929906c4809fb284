//! Fold-plan intermediate representation and dataflow analyses.
//!
//! [`LatencyModel::fold_plan`](crate::LatencyModel::fold_plan) emits a flat
//! `Vec<FoldSpec>` — a schedule, not a program: the specs carry no notion
//! of *what data* each fold reads and writes, so nothing downstream can
//! reason about producer/consumer structure (fold fusion, sparsity
//! packing, skip-ahead simulation). [`PlanIr`] lifts one or more fold
//! plans into a graph of [`FoldNode`]s with explicit value defs/uses —
//! one ifmap tile, one filter (weight) tile and one output tile per fold,
//! sized by the same [`fold_footprint`] address math the traced
//! simulators are pinned against — plus producer→consumer dependence
//! edges between the folds of adjacent operators. Every node carries the
//! exact [`FoldSpec`] it lowers back to, so [`PlanIr::lower`] reproduces
//! the source plan bit-for-bit and trace replay stays exact.
//!
//! On top of the graph sits a small generic fixpoint engine
//! ([`DataflowProblem`] / [`solve`]) with two shipped clients: backward
//! **liveness** and forward **reaching definitions**. They answer two
//! different questions, and the distinction matters:
//!
//! * [`PlanIr::high_water`] prices SRAM under the shipped executor's
//!   *round-trip* discipline — each fold stages exactly its own operand
//!   tiles for the duration of that fold, which is what
//!   [`plan_high_water`](crate::plan_high_water) prices and what the
//!   traced distinct-address differential test measures. The two are
//!   proven equal on the whole zoo (`tests/ir_differential.rs`).
//! * [`PlanIr::live_intervals`] (from the liveness fixpoint) reports over
//!   which schedule interval each value must exist *somewhere* — the
//!   input to fusion legality: an intermediate whose live interval is
//!   covered by on-array residency never needs its SRAM round-trip, and
//!   [`PlanIr::high_water_without`] prices exactly that saving.
//!
//! The IR is the reference semantics of the `FUS` rule family
//! (`fuseconv_analyze::fusion`), not its hot path: the analyzer prices
//! each producer/consumer pair in closed form from the two fold plans,
//! and a differential test pins that closed form to
//! [`PlanIr::from_pair`]'s edges, intervals and high-water saving on
//! every zoo pair. Hand-built and mutated IRs (a dependence cycle, a
//! dead value) still go through the IR. The fusing scheduler, sparsity
//! packing and fast-simulator skip-ahead of the roadmap build on the
//! same graph.

use crate::audit::{fold_footprint, FoldFootprint};
use fuseconv_trace::{tag_plan, FoldSpec};

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
    /// Ordinal of the source operator this fold belongs to (0 for a
    /// single-plan lift; 0 = producer, 1 = consumer for a pair).
    pub op: usize,
    /// Values this fold defines.
    pub defs: Vec<ValueId>,
    /// Values this fold uses.
    pub uses: Vec<ValueId>,
    /// Dependence predecessors (fold indices that must run first).
    pub preds: Vec<usize>,
    /// Dependence successors.
    pub succs: Vec<usize>,
}

/// The schedule interval over which a value must exist somewhere
/// (inclusive fold indices), computed by the liveness fixpoint.
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
        PlanIr::lift(&[plan], &[])
    }

    /// Lifts a producer plan and a consumer plan connected by one tensor:
    /// the producer's output tiles become the intermediate the consumer's
    /// input tiles re-read. Shorthand for [`PlanIr::from_plans`] with the
    /// single edge `(0, 1)`.
    pub fn from_pair(producer: &[FoldSpec], consumer: &[FoldSpec]) -> PlanIr {
        PlanIr::lift(&[producer, consumer], &[(0, 1)])
    }

    /// Lifts a sequence of per-operator fold plans into one graph.
    ///
    /// `edges` are operator-level dependences `(producer, consumer)` —
    /// derived by the caller from shape flow (`ShapeFlow` /
    /// `Op::output_shape`). Fold specs carry phase lengths and occupancy
    /// but no tile offsets, so the address math cannot prove any producer
    /// tile disjoint from any consumer tile: conservatively, every
    /// consumer fold reads every producer output tile (recorded in the
    /// value use lists). At the node level each producer fold gains one
    /// dependence edge to the *earliest* consumer fold — program order
    /// chains the consumer folds, so reachability (and hence every
    /// analysis over the straight-line-plus-edges CFG) is identical to
    /// the full bipartite edge set at a fraction of the size. The
    /// producer's output tiles and the consumer's input tiles are
    /// recorded as the *intermediate* values of that edge
    /// ([`PlanIr::intermediates`]) — the SRAM round-trip fusion would
    /// eliminate.
    ///
    /// # Panics
    ///
    /// Panics if an edge names an operator index out of range.
    pub fn from_plans(plans: &[Vec<FoldSpec>], edges: &[(usize, usize)]) -> PlanIr {
        let plans: Vec<&[FoldSpec]> = plans.iter().map(Vec::as_slice).collect();
        PlanIr::lift(&plans, edges)
    }

    /// [`PlanIr::from_plans`] over borrowed plans.
    fn lift(plans: &[&[FoldSpec]], edges: &[(usize, usize)]) -> PlanIr {
        let starts: Vec<usize> = plans
            .iter()
            .scan(0usize, |acc, p| {
                let s = *acc;
                *acc += p.len();
                Some(s)
            })
            .collect();
        let op_nodes = |op: usize| starts[op]..starts[op] + plans[op].len();

        let mut ir = PlanIr {
            nodes: Vec::new(),
            values: Vec::new(),
            intermediates: Vec::new(),
        };
        for (op, plan) in plans.iter().enumerate() {
            for spec in *plan {
                let node = ir.nodes.len();
                let fp = fold_footprint(spec);
                let ifmap = ir.push_value(ValueInfo {
                    class: ValueClass::Ifmap,
                    elems: fp.ifmap_elems,
                    def: ValueDef::LiveIn,
                    uses: vec![node],
                    staged_at: node,
                    live_out: false,
                });
                let filter = ir.push_value(ValueInfo {
                    class: ValueClass::Filter,
                    elems: fp.filter_elems,
                    def: ValueDef::LiveIn,
                    uses: vec![node],
                    staged_at: node,
                    live_out: false,
                });
                let ofmap = ir.push_value(ValueInfo {
                    class: ValueClass::Ofmap,
                    elems: fp.ofmap_elems,
                    def: ValueDef::Node(node),
                    uses: Vec::new(),
                    staged_at: node,
                    live_out: true,
                });
                ir.nodes.push(FoldNode {
                    spec: *spec,
                    op,
                    defs: vec![ofmap],
                    uses: vec![ifmap, filter],
                    preds: Vec::new(),
                    succs: Vec::new(),
                });
            }
        }
        let mut marked = ValueSet::empty(ir.values.len());
        for &(p, c) in edges {
            assert!(p < plans.len() && c < plans.len(), "edge op out of range");
            let producer = op_nodes(p);
            let consumers = op_nodes(c);
            // Every consumer fold conservatively reads every producer
            // output tile; the use lists record that read span by its
            // earliest and final reader (program order chains the folds
            // in between, so liveness spans them either way) — O(P + C)
            // instead of the O(P·C) full cross product.
            let span: &[usize] = match consumers.len() {
                0 => &[],
                1 => &[consumers.start],
                _ => &[consumers.start, consumers.end - 1],
            };
            for pn in producer.clone() {
                if let Some(&cn) = span.first() {
                    ir.add_dependence(pn, cn);
                }
                // The producer's output no longer escapes: the lifted
                // consumer absorbs it.
                // (A node's defs can also carry ifmap aliases added by an
                // earlier edge; only output tiles are this edge's tensor.)
                for d in 0..ir.nodes[pn].defs.len() {
                    let vid = ir.nodes[pn].defs[d];
                    if ir.values[vid.0].class != ValueClass::Ofmap {
                        continue;
                    }
                    let v = &mut ir.values[vid.0];
                    v.live_out = false;
                    v.uses = span.to_vec();
                    if marked.insert(vid) {
                        ir.intermediates.push(vid);
                    }
                    for &cn in span {
                        ir.nodes[cn].uses.push(vid);
                    }
                }
            }
            let last_producer_fold = producer.last();
            for cn in consumers {
                // The consumer's input tiles are re-tilings of the tensor
                // the producer finished writing at its last fold.
                for u in 0..ir.nodes[cn].uses.len() {
                    let vid = ir.nodes[cn].uses[u];
                    if ir.values[vid.0].class != ValueClass::Ifmap {
                        continue;
                    }
                    if let Some(d) = last_producer_fold {
                        ir.values[vid.0].def = ValueDef::Node(d);
                        ir.nodes[d].defs.push(vid);
                    }
                    if marked.insert(vid) {
                        ir.intermediates.push(vid);
                    }
                }
            }
        }
        ir
    }

    fn push_value(&mut self, v: ValueInfo) -> ValueId {
        let id = ValueId(self.values.len());
        self.values.push(v);
        id
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

    /// The values that form inter-operator tensors (producer output tiles
    /// plus consumer input tiles of every operator edge): the SRAM
    /// round-trips fusion would eliminate.
    pub fn intermediates(&self) -> &[ValueId] {
        &self.intermediates
    }

    /// Adds an explicit dependence edge between two folds (used by the
    /// constructors, and by tests that mutate an IR into an illegal
    /// shape, e.g. a dependence cycle).
    pub fn add_dependence(&mut self, from: usize, to: usize) {
        if !self.nodes[from].succs.contains(&to) {
            self.nodes[from].succs.push(to);
            self.nodes[to].preds.push(from);
        }
    }

    /// Lowers the IR back to the flat fold plan it was lifted from —
    /// bit-for-bit: same order, same phase lengths, same MAC counts.
    pub fn lower(&self) -> Vec<FoldSpec> {
        self.nodes.iter().map(|n| n.spec).collect()
    }

    /// Lowers the IR and stamps every fold with `tag`
    /// (see [`fuseconv_trace::tag_plan`]).
    pub fn lower_tagged(&self, tag: u64) -> Vec<FoldSpec> {
        let mut plan = self.lower();
        tag_plan(&mut plan, tag);
        plan
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
        let mut drop = ValueSet::empty(self.values.len());
        for &v in dropped {
            drop.insert(v);
        }
        let mut per_node: Vec<FoldFootprint> = vec![FoldFootprint::default(); self.nodes.len()];
        for (i, v) in self.values.iter().enumerate() {
            if drop.contains(ValueId(i)) {
                continue;
            }
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
    /// fetched just in time) and ends at the last schedule point the
    /// backward-liveness fixpoint keeps it alive (the final fold, for
    /// live-out values). Values that are never defined nor used are
    /// omitted.
    pub fn live_intervals(&self) -> Vec<LiveInterval> {
        // Closed form of the backward-liveness fixpoint, valid because
        // the IR is single-assignment with every use scheduled at or
        // after its def and the CFG is the straight-line schedule plus
        // forward dependence edges: a value is live exactly from its def
        // (or first use, for live-ins) to its last use — or to the
        // schedule exit if it escapes. [`live_intervals_fixpoint`] runs
        // the actual engine; `intervals_agree_with_the_fixpoint` and the
        // zoo-wide differential test pin the two against each other.
        //
        // [`live_intervals_fixpoint`]: PlanIr::live_intervals_fixpoint
        if self.nodes.is_empty() {
            return Vec::new();
        }
        let exit = self.nodes.len() - 1;
        let mut out = Vec::new();
        for (i, v) in self.values.iter().enumerate() {
            let start = match v.def {
                ValueDef::Node(d) => Some(d),
                ValueDef::LiveIn => v.uses.iter().copied().min(),
            };
            let Some(start) = start else {
                continue;
            };
            let end = if v.live_out {
                exit
            } else {
                v.uses.iter().copied().max().unwrap_or(start)
            };
            out.push(LiveInterval {
                value: ValueId(i),
                start,
                end: end.max(start),
            });
        }
        out
    }

    /// [`PlanIr::live_intervals`] recomputed by actually running the
    /// backward-liveness fixpoint ([`solve`] + [`Liveness`]) — the
    /// semantic ground truth the closed form is pinned against. Costs
    /// `O(folds × values)` bits of facts; prefer the closed form outside
    /// of verification.
    pub fn live_intervals_fixpoint(&self) -> Vec<LiveInterval> {
        let facts = solve(self, &Liveness { ir: self });
        // One ascending pass: the last node at which a value is live
        // before (or defined at) a fold is its interval end.
        let mut end: Vec<Option<usize>> = vec![None; self.values.len()];
        for (n, node) in self.nodes.iter().enumerate() {
            for &d in &node.defs {
                end[d.0] = Some(n);
            }
            for v in facts[n].before.iter() {
                end[v.0] = Some(n);
            }
        }
        // Live-out values stay live through the boundary at the exit.
        if let Some(exit) = self.nodes.len().checked_sub(1) {
            for (i, v) in self.values.iter().enumerate() {
                if v.live_out {
                    end[i] = Some(exit);
                }
            }
        }
        let mut out = Vec::new();
        for (i, v) in self.values.iter().enumerate() {
            let start = match v.def {
                ValueDef::Node(d) => Some(d),
                ValueDef::LiveIn => v.uses.iter().copied().min(),
            };
            if let (Some(start), Some(end)) = (start, end[i]) {
                out.push(LiveInterval {
                    value: ValueId(i),
                    start,
                    end: end.max(start),
                });
            }
        }
        out
    }

    /// Checks with the forward reaching-definitions fixpoint that every
    /// node-defined value reaches all of its uses — i.e. the dependence
    /// structure is consistent with the schedule. Always true for lifted
    /// plans; mutated IRs (a use scheduled before its def) fail.
    pub fn defs_reach_uses(&self) -> bool {
        let facts = solve(self, &ReachingDefs { ir: self });
        self.nodes.iter().enumerate().all(|(n, node)| {
            node.uses.iter().all(|&vid| match self.values[vid.0].def {
                ValueDef::LiveIn => true,
                ValueDef::Node(_) => facts[n].before.contains(vid),
            })
        })
    }

    /// Node-defined values no fold consumes and that do not escape the
    /// plan: computing them is pure waste. Lifted single plans have none
    /// (operator outputs are live-out); they appear when a consumer edge
    /// claims a tensor the consumer never actually reads, or in mutated
    /// IRs.
    pub fn dead_values(&self) -> Vec<ValueId> {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, v)| matches!(v.def, ValueDef::Node(_)) && v.uses.is_empty() && !v.live_out)
            .map(|(i, _)| ValueId(i))
            .collect()
    }

    /// Whether the dependence edge set contains a cycle. Lifted plans are
    /// acyclic by construction (edges follow tensor flow, which follows
    /// the schedule); a cycle means the plan pair cannot be ordered at
    /// all and fusion — or any schedule — is illegal.
    pub fn has_cycle(&self) -> bool {
        // Iterative DFS three-coloring over dependence successors.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let mut color = vec![Color::White; self.nodes.len()];
        // Stack of (node, next-successor-position); empty between roots.
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for root in 0..self.nodes.len() {
            if color[root] != Color::White {
                continue;
            }
            stack.push((root, 0));
            color[root] = Color::Grey;
            while let Some(&mut (n, ref mut pos)) = stack.last_mut() {
                if let Some(&succ) = self.nodes[n].succs.get(*pos) {
                    *pos += 1;
                    match color[succ] {
                        Color::Grey => return true,
                        Color::White => {
                            color[succ] = Color::Grey;
                            stack.push((succ, 0));
                        }
                        Color::Black => {}
                    }
                } else {
                    color[n] = Color::Black;
                    stack.pop();
                }
            }
        }
        false
    }
}

/// Traversal direction of a dataflow analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow with the schedule (entry → exit).
    Forward,
    /// Facts flow against the schedule (exit → entry).
    Backward,
}

/// Per-node result of a dataflow analysis, in *schedule* orientation
/// regardless of direction: `before` holds before the fold executes,
/// `after` holds after it.
#[derive(Debug, Clone)]
pub struct NodeFacts<F> {
    /// Fact holding before the fold executes.
    pub before: F,
    /// Fact holding after the fold executes.
    pub after: F,
}

/// A monotone dataflow problem over a [`PlanIr`] schedule.
///
/// The control-flow graph is the straight-line schedule (fold `i` →
/// fold `i+1`) plus the explicit dependence edges; [`solve`] iterates the
/// transfer/join system to a fixpoint. Transfer and join must be
/// monotone over a finite lattice or the fixpoint may not terminate.
pub trait DataflowProblem {
    /// The lattice element.
    type Fact: Clone + PartialEq;
    /// Traversal direction.
    fn direction(&self) -> Direction;
    /// Bottom element (identity of `join`).
    fn bottom(&self) -> Self::Fact;
    /// Fact at the boundary: schedule entry for forward problems,
    /// schedule exit for backward ones.
    fn boundary(&self) -> Self::Fact;
    /// Least upper bound: merges `from` into `into`.
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact);
    /// Transfer function of one fold. For forward problems `fact` is the
    /// before-fact and the result the after-fact; reversed for backward.
    fn transfer(&self, index: usize, node: &FoldNode, fact: &Self::Fact) -> Self::Fact;
}

/// Runs `problem` to a fixpoint over `ir`, returning per-node facts in
/// schedule orientation.
pub fn solve<P: DataflowProblem>(ir: &PlanIr, problem: &P) -> Vec<NodeFacts<P::Fact>> {
    let n = ir.nodes.len();
    let mut facts: Vec<NodeFacts<P::Fact>> = (0..n)
        .map(|_| NodeFacts {
            before: problem.bottom(),
            after: problem.bottom(),
        })
        .collect();
    if n == 0 {
        return facts;
    }
    let forward = problem.direction() == Direction::Forward;
    loop {
        let mut changed = false;
        let order: Box<dyn Iterator<Item = usize>> = if forward {
            Box::new(0..n)
        } else {
            Box::new((0..n).rev())
        };
        for i in order {
            if forward {
                let mut before = if i == 0 {
                    problem.boundary()
                } else {
                    problem.bottom()
                };
                if i > 0 {
                    problem.join(&mut before, &facts[i - 1].after);
                }
                for &p in &ir.nodes[i].preds {
                    problem.join(&mut before, &facts[p].after);
                }
                let after = problem.transfer(i, &ir.nodes[i], &before);
                if before != facts[i].before || after != facts[i].after {
                    changed = true;
                }
                facts[i] = NodeFacts { before, after };
            } else {
                let mut after = if i + 1 == n {
                    problem.boundary()
                } else {
                    problem.bottom()
                };
                if i + 1 < n {
                    problem.join(&mut after, &facts[i + 1].before);
                }
                for &s in &ir.nodes[i].succs {
                    problem.join(&mut after, &facts[s].before);
                }
                let before = problem.transfer(i, &ir.nodes[i], &after);
                if before != facts[i].before || after != facts[i].after {
                    changed = true;
                }
                facts[i] = NodeFacts { before, after };
            }
        }
        if !changed {
            return facts;
        }
    }
}

/// Dense bit set over [`ValueId`]s — the fact domain of the shipped
/// analyses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueSet {
    bits: Vec<u64>,
}

impl ValueSet {
    /// The empty set over a universe of `universe` values.
    pub fn empty(universe: usize) -> ValueSet {
        ValueSet {
            bits: vec![0; universe.div_ceil(64)],
        }
    }

    /// Inserts a value; returns whether the set changed.
    pub fn insert(&mut self, v: ValueId) -> bool {
        let (word, bit) = (v.0 / 64, 1u64 << (v.0 % 64));
        let had = self.bits[word] & bit != 0;
        self.bits[word] |= bit;
        !had
    }

    /// Removes a value.
    pub fn remove(&mut self, v: ValueId) {
        self.bits[v.0 / 64] &= !(1u64 << (v.0 % 64));
    }

    /// Membership test.
    pub fn contains(&self, v: ValueId) -> bool {
        self.bits
            .get(v.0 / 64)
            .is_some_and(|w| w & (1u64 << (v.0 % 64)) != 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &ValueSet) {
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Iterates the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word & (1u64 << b) != 0)
                .map(move |b| ValueId(w * 64 + b))
        })
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }
}

/// Backward liveness: a value is live before a fold if the fold uses it,
/// or if it is live after the fold and the fold does not define it. The
/// boundary (schedule exit) keeps every live-out value alive.
pub struct Liveness<'a> {
    /// The IR being analyzed.
    pub ir: &'a PlanIr,
}

impl DataflowProblem for Liveness<'_> {
    type Fact = ValueSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn bottom(&self) -> ValueSet {
        ValueSet::empty(self.ir.values().len())
    }

    fn boundary(&self) -> ValueSet {
        let mut s = self.bottom();
        for (i, v) in self.ir.values().iter().enumerate() {
            if v.live_out {
                s.insert(ValueId(i));
            }
        }
        s
    }

    fn join(&self, into: &mut ValueSet, from: &ValueSet) {
        into.union_with(from);
    }

    fn transfer(&self, _index: usize, node: &FoldNode, after: &ValueSet) -> ValueSet {
        let mut before = after.clone();
        for &d in &node.defs {
            before.remove(d);
        }
        for &u in &node.uses {
            before.insert(u);
        }
        before
    }
}

/// Forward reaching definitions: the set of values whose definition has
/// executed by a given schedule point. Live-in values reach from the
/// boundary; node-defined values join after their defining fold. Single
/// assignment (every value has exactly one def) means there are no kills.
pub struct ReachingDefs<'a> {
    /// The IR being analyzed.
    pub ir: &'a PlanIr,
}

impl DataflowProblem for ReachingDefs<'_> {
    type Fact = ValueSet;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self) -> ValueSet {
        ValueSet::empty(self.ir.values().len())
    }

    fn boundary(&self) -> ValueSet {
        let mut s = self.bottom();
        for (i, v) in self.ir.values().iter().enumerate() {
            if v.def == ValueDef::LiveIn {
                s.insert(ValueId(i));
            }
        }
        s
    }

    fn join(&self, into: &mut ValueSet, from: &ValueSet) {
        into.union_with(from);
    }

    fn transfer(&self, _index: usize, node: &FoldNode, before: &ValueSet) -> ValueSet {
        let mut after = before.clone();
        for &d in &node.defs {
            after.insert(d);
        }
        after
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
    fn lower_tagged_stamps_every_fold() {
        let ir = PlanIr::from_plan(&plan_of(&Op::pointwise(7, 7, 12, 20)));
        assert!(ir.lower_tagged(9).iter().all(|f| f.tag == 9));
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
        assert!(ir.defs_reach_uses());
        assert!(ir.dead_values().is_empty());
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
        assert_eq!(ir.dead_values().len(), producer.len());
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

    #[test]
    fn value_set_operations() {
        let mut s = ValueSet::empty(130);
        assert!(s.is_empty());
        assert!(s.insert(ValueId(0)));
        assert!(s.insert(ValueId(129)));
        assert!(!s.insert(ValueId(129)));
        assert!(s.contains(ValueId(129)) && !s.contains(ValueId(64)));
        assert_eq!(s.len(), 2);
        let collected: Vec<ValueId> = s.iter().collect();
        assert_eq!(collected, vec![ValueId(0), ValueId(129)]);
        s.remove(ValueId(0));
        assert_eq!(s.len(), 1);
        let mut t = ValueSet::empty(130);
        t.insert(ValueId(7));
        t.union_with(&s);
        assert!(t.contains(ValueId(7)) && t.contains(ValueId(129)));
    }
}
