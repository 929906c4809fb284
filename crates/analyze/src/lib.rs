//! Static dataflow-legality analyzer for the FuSeConv reproduction.
//!
//! Before a single cycle is simulated, this crate verifies — for each
//! simulator dataflow (output-/weight-/input-stationary GEMM and the
//! row-broadcast conv1d of §IV-C) and each array × operator shape — that
//! the induced recurrence system and space–time mapping are sound:
//!
//! 1. **RIA well-formedness** (RIA001–RIA003): single assignment and
//!    constant index offsets, §II's conditions for mapping an algorithm
//!    onto a systolic array at all.
//! 2. **Schedule legality** (SCH001): `τ·d ≥ 1` for every dependence
//!    vector, so every consumer runs strictly after its producer.
//! 3. **Locality** (LOC001/LOC002): space-projected dependences reach
//!    nearest-neighbour PEs only, or ride the paper's per-row
//!    weight-broadcast link when the array provides one.
//! 4. **Resource sanity** (RES001–RES003): cycle accounting fits `u64`,
//!    no degenerate shapes, operand footprints fit SRAM addressing.
//! 5. **Utilization** (UTL001/UTL002): degenerate single-column /
//!    single-row GEMM lowerings are reported with their static
//!    utilization bound — the Fig. 1(c)–(d) argument for why im2col
//!    depthwise wastes a systolic array while FuSe fills it.
//! 6. **Fold-plan coverage** (PLAN001–PLAN004): the latency model's fold
//!    plans partition the output iteration space — no gaps, no
//!    double-compute, tiles within the array, MAC totals exact — proved
//!    by an independent interval analysis ([`fuseconv_latency::audit`]).
//! 7. **Memory feasibility** (MEM001–MEM003): every fold's operand
//!    working set fits SRAM (single- and double-buffered) and its DRAM
//!    traffic fits its compute window at the modeled bandwidth.
//! 8. **Shape flow** (SHP001/SHP002): symbolic shape propagation through
//!    whole topologies — consecutive blocks agree on the flowing shape,
//!    and every FuSe substitution preserves the output shape of the
//!    depthwise block it replaces (§IV-A's drop-in contract).
//! 9. **Serving feasibility** (SRV001–SRV007): static proofs about a
//!    whole pod/workload/SLO deployment from the analytic cost oracle
//!    alone — pod overload (ρ ≥ 1), unattainable SLO budgets, shape
//!    bucket coverage, LPT shard-plan legality, admission-queue sizing,
//!    dead or perverse preemption, and statically-dead arrays — so
//!    `fuseconv serve` can refuse a million-request simulation of a
//!    configuration already provably broken.
//! 10. **Fusion legality** (FUS001–FUS006): liveness, dependence and
//!     on-array residency proofs over pairs of fold plans, in a closed
//!     form pinned to the fold-plan IR ([`fuseconv_latency::ir`]) —
//!     statically fusible producer/consumer
//!     pairs (FuSe row/col or depthwise → pointwise) with the exact SRAM
//!     bytes fusion saves, illegal-fusion findings (residency exceeded,
//!     dependence cycle, dataflow mismatch), dead-value findings, and a
//!     per-network fusion-headroom ranking.
//!
//! Findings are structured [`Diagnostic`]s (stable rule ID, severity,
//! offending dependence vector, suggested fix) aggregated into
//! [`Report`]s that render as text or JSON. The `fuseconv analyze` CLI
//! subcommand audits every zoo network with these rules.
//!
//! The mapping-level verdicts themselves live in
//! [`fuseconv_systolic::legality`], next to the simulators whose
//! dataflows they describe; this crate wraps them into the diagnostic
//! vocabulary and adds the operator/network rules.

#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod diagnostics;
pub mod fusion;
pub mod mapping;
pub mod memory;
pub mod ops;
pub mod plan;
pub mod serve;
pub mod shapes;

pub use diagnostics::{Diagnostic, Report, RuleId, Severity};
pub use fusion::{analyze_fusion, diagnose_pair_ir, fusible_pairs, FusiblePair, PlanSummary};
pub use mapping::{analyze_dataflows, analyze_mapping};
pub use memory::{diagnose_memory, MemoryBudget};
pub use ops::{analyze_network, analyze_network_with_budget, analyze_op};
pub use plan::diagnose_plan;
pub use serve::analyze_pod;
pub use shapes::analyze_shapes;
