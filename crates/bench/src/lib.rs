//! The micro-bench harness behind `fuseconv bench`.
//!
//! [`suite`] is the fixed set of simulator, analytic-model, analyzer and
//! serving benches whose per-bench wall times `BENCH_fuseconv.json`
//! records and CI gates; [`micro`] is the timer it runs them under.
//! End-to-end host time is measured by `perfbench/`, not here.

#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod micro;
pub mod suite;

use fuseconv_systolic::ArrayConfig;

/// The paper's evaluation array: 64×64 with row-broadcast links (§V-A-3).
pub fn paper_array() -> ArrayConfig {
    ArrayConfig::square(64)
        .expect("64 is nonzero")
        .with_broadcast(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_array_is_64x64_broadcast() {
        let a = paper_array();
        assert_eq!((a.rows(), a.cols()), (64, 64));
        assert!(a.has_broadcast());
    }
}
