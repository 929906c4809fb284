//! RAII span profiler: wall-clock attribution for host-side hot paths.
//!
//! Each [`span`] call pushes a frame on a thread-local stack and returns
//! a guard; dropping the guard pops the frame, charges the elapsed time
//! to an aggregation node keyed by *(parent node, name)* — so the
//! aggregate is a tree, not a flat table — and credits the duration to
//! the parent frame's child time. A node's **self time** is its total
//! minus its children's totals, and by construction the snapshot
//! satisfies `total == self + Σ child.total` exactly (the acceptance
//! invariant the CLI `profile` subcommand prints).
//!
//! Spans record into the calling thread's [`Telemetry`](crate::Telemetry)
//! run, and a span closes into the run it was opened in. Profiling is
//! off by default: a disabled [`span`] is one relaxed atomic load of
//! its run's switch and returns an unarmed guard, which keeps
//! instrumented library code cheap for ordinary runs (the ≤10 %
//! overhead budget is enforced by `tests/telemetry_overhead.rs`).
//!
//! The first ~65 k span closures are also recorded as discrete events
//! with start offsets from the profiler epoch, so
//! [`SpanTree::chrome_trace_json`] can render host spans in the same
//! Chrome trace-event JSON dialect as the simulator's
//! `fuseconv-trace` sink (host spans live on pid 1; the simulated
//! array uses pid 0).

use crate::chrome;
use crate::json::Json;
use crate::manifest::RunManifest;
use crate::run::{self, lock, State};
use crate::time::Stopwatch;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Enable or disable span collection in the calling thread's run.
pub fn set_enabled(on: bool) {
    run::with(|t| t.spans_on.store(on, Ordering::Relaxed));
}

/// Whether span collection is enabled in the calling thread's run.
#[must_use]
pub fn enabled() -> bool {
    run::with(|t| t.spans_on.load(Ordering::Relaxed))
}

/// One aggregation node: a unique *(parent, name)* path in the span tree.
#[derive(Debug)]
struct NodeData {
    name: &'static str,
    count: u64,
    total_ns: u64,
    child_ns: u64,
    /// `(name, node)` of each child, in first-seen order.
    children: Vec<(&'static str, usize)>,
}

impl NodeData {
    fn new(name: &'static str) -> Self {
        NodeData {
            name,
            count: 0,
            total_ns: 0,
            child_ns: 0,
            children: Vec::new(),
        }
    }
}

/// One recorded span closure, for Chrome-trace export.
#[derive(Debug, Clone, Copy)]
struct SpanEvent {
    node: usize,
    tid: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// Cap on retained discrete events; aggregation continues past it.
const EVENT_CAP: usize = 65_536;

/// One run's span aggregate.
pub(crate) struct Agg {
    /// Node 0 is the virtual root (name "").
    nodes: Vec<NodeData>,
    events: Vec<SpanEvent>,
    /// Events dropped once `events` hit [`EVENT_CAP`].
    dropped_events: u64,
    /// Clock every span start and end is read from.
    epoch: Stopwatch,
}

impl Agg {
    pub(crate) fn new() -> Self {
        Agg {
            nodes: vec![NodeData::new("")],
            events: Vec::new(),
            dropped_events: 0,
            epoch: Stopwatch::start(),
        }
    }

    /// The node for `name` under `parent`; a parent has few distinct
    /// children, so a scan beats hashing the name.
    fn node_id(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(&(_, id)) = self.nodes[parent].children.iter().find(|(n, _)| *n == name) {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(NodeData::new(name));
        self.nodes[parent].children.push((name, id));
        id
    }
}

/// Per-thread open-span stack frame.
struct Frame {
    /// The run the span was opened in, and closes into.
    run: Arc<State>,
    node: usize,
    /// That run's profiler epoch, so neither clock read holds its lock.
    epoch: Stopwatch,
    start_ns: u64,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Small monotone thread id for Chrome-trace track assignment.
fn thread_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// RAII guard for one profiled region; created by [`span`].
///
/// Must be dropped on the thread that created it (it is `!Send` by
/// construction: dropping pops this thread's stack).
#[must_use = "a span measures the scope it is bound to; binding it to _ drops it immediately"]
pub struct Span {
    armed: bool,
    // !Send: the guard must be dropped on the creating thread.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Open a profiled region named `name` in the calling thread's run,
/// closed when the returned guard drops. Nesting is tracked per thread;
/// names should be stable dotted paths (`"sim.gemm_os"`,
/// `"latency.fold_plan"`).
pub fn span(name: &'static str) -> Span {
    let Some(run) = run::with(|t| t.spans_on.load(Ordering::Relaxed).then(|| Arc::clone(t))) else {
        return Span {
            armed: false,
            _not_send: std::marker::PhantomData,
        };
    };
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack
            .last()
            .filter(|f| Arc::ptr_eq(&f.run, &run))
            .map_or(0, |f| f.node);
        let mut agg = lock(&run.spans);
        let (node, epoch) = (agg.node_id(parent, name), agg.epoch);
        drop(agg);
        stack.push(Frame {
            run,
            node,
            epoch,
            start_ns: epoch.elapsed_ns(),
            child_ns: 0,
        });
    });
    Span {
        armed: true,
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let Some(frame) = stack.pop() else {
                return;
            };
            let dur_ns = frame.epoch.elapsed_ns().saturating_sub(frame.start_ns);
            let tid = thread_tid();
            let mut agg = lock(&frame.run.spans);
            let Some(node) = agg.nodes.get_mut(frame.node) else {
                return; // reset() raced an open span; drop the sample.
            };
            node.count += 1;
            node.total_ns = node.total_ns.saturating_add(dur_ns);
            node.child_ns = node.child_ns.saturating_add(frame.child_ns);
            if agg.events.len() < EVENT_CAP {
                agg.events.push(SpanEvent {
                    node: frame.node,
                    tid,
                    start_ns: frame.start_ns,
                    dur_ns,
                });
            } else {
                agg.dropped_events += 1;
            }
            drop(agg);
            // Credit the parent frame, so its self time excludes this span.
            if let Some(parent) = stack.last_mut().filter(|p| Arc::ptr_eq(&p.run, &frame.run)) {
                parent.child_ns = parent.child_ns.saturating_add(dur_ns);
            }
        });
    }
}

/// Discard the calling thread's run's aggregated spans and recorded
/// events and restart its profiler epoch. Call only while no spans of
/// that run are open (spans open across a reset are dropped uncounted).
pub fn reset() {
    run::with(|t| *lock(&t.spans) = Agg::new());
}

/// One node of an aggregated [`SpanTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name as passed to [`span`].
    pub name: String,
    /// Number of times this (parent, name) path closed.
    pub count: u64,
    /// Total wall-clock nanoseconds across all closures.
    pub total_ns: u64,
    /// Wall-clock nanoseconds not attributed to any child span.
    pub self_ns: u64,
    /// Child nodes, in first-seen order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// `total_ns == self_ns + Σ children.total_ns` — the balance
    /// invariant the profiler maintains by construction.
    #[must_use]
    pub fn is_balanced(&self) -> bool {
        let child_total: u64 = self.children.iter().map(|c| c.total_ns).sum();
        self.total_ns == self.self_ns + child_total
            && self.children.iter().all(SpanNode::is_balanced)
    }
}

/// Aggregated snapshot of every span a run closed since it started (or
/// since its last [`reset`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTree {
    /// Top-level spans (those opened with no enclosing span).
    pub roots: Vec<SpanNode>,
    /// Discrete events dropped after the retention cap was hit.
    pub dropped_events: u64,
    events: Vec<(String, u64, u64, u64)>,
}

/// Snapshot the calling thread's run's span tree (and retained
/// discrete events).
#[must_use]
pub fn snapshot() -> SpanTree {
    run::with(|t| lock(&t.spans).snapshot())
}

impl Agg {
    fn snapshot(&self) -> SpanTree {
        SpanTree {
            roots: self.children(0),
            dropped_events: self.dropped_events,
            events: self
                .events
                .iter()
                .map(|e| {
                    let name = self.nodes[e.node].name.to_owned();
                    (name, e.tid, e.start_ns, e.dur_ns)
                })
                .collect(),
        }
    }

    fn children(&self, id: usize) -> Vec<SpanNode> {
        self.nodes[id]
            .children
            .iter()
            .map(|&(_, c)| {
                let node = &self.nodes[c];
                SpanNode {
                    name: node.name.to_owned(),
                    count: node.count,
                    total_ns: node.total_ns,
                    self_ns: node.total_ns.saturating_sub(node.child_ns),
                    children: self.children(c),
                }
            })
            .collect()
    }
}

impl SpanTree {
    /// Whether every node satisfies the balance invariant
    /// (see [`SpanNode::is_balanced`]).
    #[must_use]
    pub fn is_balanced(&self) -> bool {
        self.roots.iter().all(SpanNode::is_balanced)
    }

    /// Find a node by slash-separated path (`"profile/profile.plan"`).
    #[must_use]
    pub fn find(&self, path: &str) -> Option<&SpanNode> {
        let mut parts = path.split('/');
        let first = parts.next()?;
        let mut node = self.roots.iter().find(|r| r.name == first)?;
        for part in parts {
            node = node.children.iter().find(|c| c.name == part)?;
        }
        Some(node)
    }

    /// Render as an indented text tree with total, self, and call
    /// counts per node.
    #[must_use]
    pub fn to_text(&self) -> String {
        fn fmt_ms(ns: u64) -> String {
            format!("{}.{:03} ms", ns / 1_000_000, (ns / 1_000) % 1_000)
        }
        fn walk(out: &mut String, node: &SpanNode, depth: usize) {
            let indent = "  ".repeat(depth);
            let label = format!("{indent}{}", node.name);
            let _ = writeln!(
                out,
                "{label:<44} total {:>12}  self {:>12}  x{}",
                fmt_ms(node.total_ns),
                fmt_ms(node.self_ns),
                node.count
            );
            for child in &node.children {
                walk(out, child, depth + 1);
            }
        }
        let mut out = String::new();
        for root in &self.roots {
            walk(&mut out, root, 0);
        }
        if self.dropped_events > 0 {
            let _ = writeln!(
                out,
                "({} discrete events dropped past the {EVENT_CAP}-event cap)",
                self.dropped_events
            );
        }
        out
    }

    /// Render retained discrete events as Chrome trace-event JSON —
    /// the same dialect as `fuseconv-trace`'s sink, with host spans on
    /// pid 1 and the run manifest embedded alongside the event array.
    #[must_use]
    pub fn chrome_trace_json(&self, manifest: &RunManifest) -> String {
        let mut lines = vec![chrome::meta("process_name", 1, Some(0), "fuseconv host")];
        let mut tids: Vec<u64> = self.events.iter().map(|e| e.1).collect();
        tids.sort_unstable();
        tids.dedup();
        for &tid in &tids {
            let label = format!("host thread {tid}");
            lines.push(chrome::meta("thread_name", 1, Some(tid), &label));
        }
        let micros = |ns: u64| format!("{}.{:03}", ns / 1_000, ns % 1_000);
        for (name, tid, start_ns, dur_ns) in &self.events {
            let mut j = Json::compact();
            j.str("name", name)
                .str("cat", "host")
                .str("ph", "X")
                .raw("pid", 1)
                .raw("tid", tid)
                .raw("ts", micros(*start_ns))
                .raw("dur", micros(*dur_ns));
            lines.push(j.finish());
        }
        // One event per line, framed by hand: the writer's compact
        // layout has no line breaks.
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n {}\n],\"manifest\":{}}}\n",
            lines.join(",\n "),
            manifest.to_json_compact()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        {
            let _s = span("dead");
        }
        assert!(snapshot().roots.is_empty());
    }

    #[test]
    fn nesting_builds_a_tree_with_exact_balance() {
        set_enabled(true);
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
                std::hint::black_box(0u64);
            }
            {
                let _inner = span("inner");
            }
            let _other = span("other");
        }
        set_enabled(false);
        let tree = snapshot();
        assert_eq!(tree.roots.len(), 1);
        let outer = &tree.roots[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.count, 1);
        assert_eq!(outer.children.len(), 2);
        assert_eq!(outer.children[0].name, "inner");
        assert_eq!(outer.children[0].count, 2);
        assert!(tree.is_balanced());
        assert!(tree.find("outer/inner").is_some());
        assert!(tree.find("outer/missing").is_none());
    }

    #[test]
    fn random_nesting_keeps_stack_balanced_and_tree_exact() {
        set_enabled(true);
        // xorshift64* PRNG, fixed seed: deterministic random open/close.
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut rng = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
            state
        };
        const NAMES: [&str; 4] = ["a", "b", "c", "d"];
        let mut open: Vec<Span> = Vec::new();
        for _ in 0..2_000 {
            if open.is_empty() || rng() % 2 == 0 {
                if open.len() < 12 {
                    open.push(span(NAMES[(rng() % 4) as usize]));
                }
            } else {
                drop(open.pop());
            }
        }
        // Close remaining guards innermost-first (LIFO, like real scopes).
        while let Some(s) = open.pop() {
            drop(s);
        }
        set_enabled(false);
        let tree = snapshot();
        assert!(tree.is_balanced(), "random nesting broke span balance");
        // Everything closed, so the thread-local stack is empty again.
        STACK.with(|s| assert!(s.borrow().is_empty()));
    }

    #[test]
    fn a_span_closes_into_the_run_it_was_opened_in() {
        let names = |t: &SpanTree| t.roots.iter().map(|r| r.name.clone()).collect::<Vec<_>>();
        let first = crate::Telemetry::current();
        set_enabled(true);
        let outer = span("outer");
        crate::Telemetry::default().join();
        set_enabled(true);
        {
            // Not a child of `outer`, which belongs to the first run.
            let _inner = span("inner");
        }
        drop(outer);
        assert_eq!(names(&snapshot()), ["inner"]);
        first.join();
        let tree = snapshot();
        assert_eq!(names(&tree), ["outer"]);
        assert!(tree.roots[0].children.is_empty());
        assert_eq!(tree.roots[0].self_ns, tree.roots[0].total_ns);
    }

    #[test]
    fn chrome_trace_is_structurally_valid() {
        set_enabled(true);
        {
            let _s = span("export.me");
        }
        set_enabled(false);
        let json = snapshot().chrome_trace_json(&RunManifest::capture());
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"export.me\""));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"manifest\":{\"schema\":\"fuseconv-manifest-v1\""));
        assert!(json.trim_end().ends_with('}'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
    }
}
