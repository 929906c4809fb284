//! The Regular Iterative Algorithm (RIA) formalism of Rao et al., as used in
//! §II–III of the FuSeConv paper to decide which algorithms are *systolic*.
//!
//! An algorithm is written as a set of recurrence relations over variables
//! indexed by an iteration vector. The relations form an RIA when:
//!
//! 1. every variable is identified by a name and an index vector,
//! 2. every variable is assigned at most once (single assignment), and
//! 3. in each relation the difference between the LHS index and each RHS
//!    index — the *index offset* — is a constant vector.
//!
//! RIAs are a superset of systolic algorithms; an algorithm that is *not* an
//! RIA cannot be synthesized onto a systolic array. The paper's central
//! formal claims, all reproduced as constructors and tests here:
//!
//! - matrix multiplication **is** an RIA ([`algorithms::matmul`]),
//! - 1-D convolution **is** an RIA ([`algorithms::conv1d`]),
//! - direct 2-D convolution is **not** an RIA — its offsets depend on the
//!   reduction index `k` through `⌊k/K⌋` and `k mod K`
//!   ([`algorithms::conv2d_direct`]),
//! - 2-D convolution after `im2col` **is** an RIA, but its GEMM has a single
//!   output column ([`algorithms::conv2d_im2col`]).
//!
//! [`schedule`] then assigns *systolic* (space) and *time* dimensions to an
//! RIA by searching for a valid linear schedule, completing the story of
//! Fig. 1(c)–(d).
//!
//! # Examples
//!
//! ```
//! use fuseconv_ria::algorithms;
//!
//! let mm = algorithms::matmul();
//! assert!(mm.check().is_ok());
//!
//! let conv = algorithms::conv2d_direct(3);
//! assert!(conv.check().is_err()); // not an RIA → not systolic
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod algorithms;
pub mod expr;
pub mod relation;
pub mod schedule;

pub use expr::IndexExpr;
pub use relation::{Recurrence, RecurrenceSystem, RiaViolation, Term};
pub use schedule::{Schedule, SystolicMapping};
