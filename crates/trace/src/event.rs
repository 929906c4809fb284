//! The trace event vocabulary and the [`TraceSink`] consumer trait.
//!
//! Events are deliberately small `Copy` values: the cycle simulator emits
//! them from its innermost loops, so constructing one must never allocate.
//! Anything that needs a name (fold provenance, op labels) carries a numeric
//! `tag` instead; sinks that want human-readable labels register a
//! `tag → label` mapping out of band.

use std::fmt;

/// Which logical SRAM stream an access belongs to, following SCALE-Sim's
/// three-way split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Input feature map (activations).
    Ifmap,
    /// Filter weights.
    Filter,
    /// Output feature map (results).
    Ofmap,
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Ifmap => write!(f, "ifmap"),
            Operand::Filter => write!(f, "filter"),
            Operand::Ofmap => write!(f, "ofmap"),
        }
    }
}

/// The phase a cycle belongs to within its fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Operand preload: weights pinned into PEs (weight-stationary),
    /// activations pinned (input-stationary), or input lines shifted into
    /// row registers (row-broadcast). No MACs fire.
    Fill,
    /// The streaming/compute window. Output-stationary folds have no
    /// separate fill: their skewed operand fill overlaps compute, so the
    /// whole window is `Compute`.
    Compute,
    /// Results drain out of the array. No MACs fire.
    Drain,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Fill => write!(f, "fill"),
            Phase::Compute => write!(f, "compute"),
            Phase::Drain => write!(f, "drain"),
        }
    }
}

/// The dataflow a fold executes under: the three GEMM dataflows of §II-C
/// and FuSeConv's row broadcast (§IV-C). The legality verifier and the
/// analyzer's mapping rules name dataflows by this type too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FoldKind {
    /// Output-stationary GEMM: outputs accumulate in the PEs (§II-C).
    OutputStationary,
    /// Weight-stationary GEMM: a weight tile is pinned, rows stream.
    WeightStationary,
    /// Input-stationary GEMM: an activation tile is pinned, columns stream.
    InputStationary,
    /// FuSeConv's per-row weight-broadcast 1-D convolution (§IV-C).
    RowBroadcast,
}

impl FoldKind {
    /// All dataflows, in the order the simulators were introduced.
    pub const ALL: [FoldKind; 4] = [
        FoldKind::OutputStationary,
        FoldKind::WeightStationary,
        FoldKind::InputStationary,
        FoldKind::RowBroadcast,
    ];

    /// Long human-readable name, e.g. `output-stationary GEMM` (the
    /// analyzer's diagnostic context).
    pub fn name(&self) -> &'static str {
        match self {
            FoldKind::OutputStationary => "output-stationary GEMM",
            FoldKind::WeightStationary => "weight-stationary GEMM",
            FoldKind::InputStationary => "input-stationary GEMM",
            FoldKind::RowBroadcast => "row-broadcast 1-D convolution",
        }
    }

    /// Short lowercase mnemonic used in CSV/JSON output.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            FoldKind::OutputStationary => "os",
            FoldKind::WeightStationary => "ws",
            FoldKind::InputStationary => "is",
            FoldKind::RowBroadcast => "bcast",
        }
    }
}

impl fmt::Display for FoldKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One observation from the cycle simulator (or an analytic replay).
///
/// `cycle` is always the *global* cycle counter of the run — it equals the
/// length of the simulator's busy trace at emission time, so cycle counts
/// reconstructed from events match [`SimResult::cycles`] exactly.
///
/// [`SimResult::cycles`]: https://docs.rs/fuseconv-systolic
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A fold (one tile of a larger op) begins executing.
    FoldStart {
        /// Ordinal of this fold within the run (0-based).
        fold: u64,
        /// Provenance tag: replayed folds carry the tag of the
        /// [`FoldSpec`](crate::FoldSpec) that produced them (typically an
        /// op index); simulator folds repeat the fold ordinal.
        tag: u64,
        /// Global cycle at which the fold starts.
        cycle: u64,
        /// Dataflow executing the fold.
        kind: FoldKind,
        /// Array rows the fold occupies.
        rows_used: u32,
        /// Array columns the fold occupies.
        cols_used: u32,
    },
    /// One array cycle elapsed with `busy` PEs performing a MAC. Emitted
    /// exactly once per simulated cycle, in order.
    Cycle {
        /// Global cycle index.
        cycle: u64,
        /// Phase of the enclosing fold this cycle belongs to.
        phase: Phase,
        /// Number of PEs that fired a MAC this cycle.
        busy: u32,
    },
    /// PE `(row, col)` performed one MAC this cycle. Only generated when
    /// the sink opts in via [`TraceSink::wants_pe_fires`].
    PeFire {
        /// Global cycle index.
        cycle: u64,
        /// Array row of the firing PE.
        row: u32,
        /// Array column of the firing PE.
        col: u32,
    },
    /// One operand element entered the array from SRAM. Only generated
    /// when the sink opts in via [`TraceSink::wants_operand_events`].
    OperandRead {
        /// Global cycle index.
        cycle: u64,
        /// Which SRAM stream the element came from.
        operand: Operand,
        /// The edge lane (row index for left-edge ingress, column index
        /// for top-edge ingress) the element entered through.
        lane: u32,
        /// Flat element index within the operand (no base offset applied;
        /// sinks add SCALE-Sim-style region bases themselves).
        addr: u64,
    },
    /// A weight value was broadcast along an array row's weight link — one
    /// tick of the FuSe dataflow (§IV-C-1). Only generated when the sink
    /// opts in via [`TraceSink::wants_operand_events`].
    WeightBroadcast {
        /// Global cycle index.
        cycle: u64,
        /// Array row whose broadcast link fires.
        row: u32,
        /// Kernel tap index being broadcast.
        tap: u32,
    },
    /// One finished output element left the array toward SRAM. Only
    /// generated when the sink opts in via
    /// [`TraceSink::wants_operand_events`].
    OutputWrite {
        /// Global cycle index.
        cycle: u64,
        /// Flat element index within the output (no base offset applied).
        addr: u64,
    },
    /// The fold that started as `fold` finished; `cycle` is the first
    /// cycle *after* it (so `cycle − start` is the fold's length).
    FoldEnd {
        /// Ordinal of the finishing fold.
        fold: u64,
        /// First global cycle after the fold.
        cycle: u64,
    },
}

/// A consumer of [`TraceEvent`]s.
///
/// Fold events (`FoldStart`, `FoldEnd`) are always delivered, and so are
/// `Cycle` events unless the sink opts out of them. The fine-grained,
/// per-element events are expensive to generate, so a sink must opt in
/// via the `wants_*` methods; producers check them once per run and skip
/// event construction entirely otherwise. A sink that wants neither
/// cycles nor any fine-grained event (a [`NullSink`]) gets the untraced
/// path: the simulator appends each fold's busy trace in bulk instead of
/// walking it cycle by cycle.
pub trait TraceSink {
    /// Receives one event. Events arrive in nondecreasing cycle order.
    fn on_event(&mut self, event: &TraceEvent);

    /// Whether one [`TraceEvent::Cycle`] per simulated cycle should be
    /// generated. Defaults to `true`; [`NullSink`] opts out. A sink that
    /// opts into any fine-grained event still receives every `Cycle`.
    fn wants_cycles(&self) -> bool {
        true
    }

    /// Whether per-PE [`TraceEvent::PeFire`] events should be generated.
    fn wants_pe_fires(&self) -> bool {
        false
    }

    /// Whether per-element [`TraceEvent::OperandRead`],
    /// [`TraceEvent::WeightBroadcast`] and [`TraceEvent::OutputWrite`]
    /// events should be generated.
    fn wants_operand_events(&self) -> bool {
        false
    }

    /// Whether [`TraceEvent::WeightBroadcast`] ticks should be generated
    /// even when the sink opts out of the (much more numerous) per-element
    /// operand events. Defaults to following
    /// [`TraceSink::wants_operand_events`], so existing sinks keep their
    /// behaviour; counter sinks override this to track broadcast-link
    /// activity cheaply.
    fn wants_broadcast_events(&self) -> bool {
        self.wants_operand_events()
    }
}

/// The no-op sink: discards everything and opts out of per-cycle and all
/// fine-grained events. Simulating against a `NullSink` is the untraced
/// fast path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn on_event(&mut self, _event: &TraceEvent) {}

    fn wants_cycles(&self) -> bool {
        false
    }
}

/// A sink that simply collects every event into a `Vec`, opting in to all
/// granularities. Useful in tests and for ad-hoc analysis.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    /// The collected events, in arrival order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for VecSink {
    fn on_event(&mut self, event: &TraceEvent) {
        self.events.push(*event);
    }

    fn wants_pe_fires(&self) -> bool {
        true
    }

    fn wants_operand_events(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_opts_out_of_everything() {
        let mut s = NullSink;
        assert!(!s.wants_cycles());
        assert!(!s.wants_pe_fires());
        assert!(!s.wants_operand_events());
        s.on_event(&TraceEvent::Cycle {
            cycle: 0,
            phase: Phase::Compute,
            busy: 1,
        });
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut s = VecSink::default();
        assert!(s.wants_cycles() && s.wants_pe_fires() && s.wants_operand_events());
        for c in 0..3 {
            s.on_event(&TraceEvent::Cycle {
                cycle: c,
                phase: Phase::Fill,
                busy: 0,
            });
        }
        assert_eq!(s.events.len(), 3);
        assert!(matches!(s.events[2], TraceEvent::Cycle { cycle: 2, .. }));
    }

    #[test]
    fn display_forms_are_short_and_lowercase() {
        assert_eq!(Operand::Ifmap.to_string(), "ifmap");
        assert_eq!(Phase::Drain.to_string(), "drain");
        assert_eq!(FoldKind::RowBroadcast.to_string(), "bcast");
        assert_eq!(FoldKind::OutputStationary.mnemonic(), "os");
        assert_eq!(
            FoldKind::RowBroadcast.name(),
            "row-broadcast 1-D convolution"
        );
    }
}
