//! Output-stationary GEMM on the systolic array (§II-C, Fig. 1(d)).
//!
//! Operand `A` (`M×K`) streams in from the left, one array row per output
//! row; operand `B` (`K×N`) streams from the top, one array column per
//! output column. Both streams are skewed one cycle per position so that
//! PE `(i, j)` performs the MAC for reduction index `t − i − j` at cycle
//! `t`. Outputs stay in the PEs and drain down the columns afterwards.
//!
//! Work larger than the array is tiled into `⌈M/rows⌉·⌈N/cols⌉` *folds*;
//! each fold of used size `ru×cu` costs
//!
//! ```text
//! T_fold = (ru + cu + K − 2)   skewed fill + compute
//!        +  ru                 output drain down the columns
//!        = 2·ru + cu + K − 2   (the SCALE-Sim output-stationary formula)
//! ```

use crate::wavefront::Stationary;
use crate::{ArrayConfig, ConfigError, SimResult};
use fuseconv_tensor::Tensor;
use fuseconv_trace::{NullSink, TraceSink};

/// Exact cycles of one output-stationary fold using `ru` rows, `cu`
/// columns and reduction length `k`.
///
/// # Panics
///
/// Panics if any argument is zero.
pub fn fold_cycles(ru: usize, cu: usize, k: usize) -> u64 {
    Stationary::Output.fold_cycles(ru, cu, k)
}

/// Simulates `C = A·B` on the array, cycle by cycle.
///
/// Returns the product (bit-identical to the golden
/// [`matmul`](fuseconv_tensor::gemm::matmul): the simulator accumulates in
/// the same `k` order) together with exact cycle counts and the per-cycle
/// busy trace.
///
/// # Errors
///
/// Returns [`ConfigError::BadOperand`] unless `a` is `M×K` and `b` is `K×N`.
pub fn simulate(cfg: &ArrayConfig, a: &Tensor, b: &Tensor) -> Result<SimResult, ConfigError> {
    simulate_traced(cfg, a, b, &mut NullSink)
}

/// [`simulate`] with every cycle narrated to `sink` as trace events.
///
/// Per-PE and per-element events are generated only when the sink opts in
/// ([`TraceSink::wants_pe_fires`] / [`TraceSink::wants_operand_events`]);
/// the cycle numbers carried by the events match the returned
/// [`SimResult::cycles`](crate::SimResult::cycles) exactly.
///
/// # Errors
///
/// Returns [`ConfigError::BadOperand`] unless `a` is `M×K` and `b` is `K×N`.
pub fn simulate_traced(
    cfg: &ArrayConfig,
    a: &Tensor,
    b: &Tensor,
    sink: &mut dyn TraceSink,
) -> Result<SimResult, ConfigError> {
    Stationary::Output.simulate(cfg, a, b, sink)
}

/// Analytic total cycles for an `M×K·K×N` GEMM on the array — the closed
/// form the cycle simulator is validated against.
///
/// # Panics
///
/// Panics if any dimension is zero.
pub fn analytic_cycles(cfg: &ArrayConfig, m: usize, k: usize, n: usize) -> u64 {
    Stationary::Output.analytic_cycles(cfg, m, k, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_tensor::gemm::matmul;

    fn tensor(dims: &[usize], f: impl FnMut(&[usize]) -> f32) -> Tensor {
        Tensor::from_fn(dims, f).unwrap()
    }

    #[test]
    fn single_fold_matches_golden_model() {
        let cfg = ArrayConfig::new(8, 8).unwrap();
        let a = tensor(&[4, 5], |ix| (ix[0] * 5 + ix[1]) as f32 * 0.25 - 2.0);
        let b = tensor(&[5, 6], |ix| ((ix[0] + 2 * ix[1]) % 7) as f32 - 3.0);
        let sim = simulate(&cfg, &a, &b).unwrap();
        let gold = matmul(&a, &b).unwrap();
        assert!(sim.output().max_abs_diff(&gold).unwrap() < 1e-5);
        assert_eq!(sim.folds(), 1);
        assert_eq!(sim.cycles(), fold_cycles(4, 6, 5));
    }

    #[test]
    fn multi_fold_matches_golden_model() {
        let cfg = ArrayConfig::new(3, 4).unwrap();
        let a = tensor(&[7, 5], |ix| ((ix[0] * 3 + ix[1]) % 5) as f32 - 1.0);
        let b = tensor(&[5, 9], |ix| ((ix[0] * 2 + ix[1]) % 3) as f32);
        let sim = simulate(&cfg, &a, &b).unwrap();
        let gold = matmul(&a, &b).unwrap();
        assert!(sim.output().max_abs_diff(&gold).unwrap() < 1e-5);
        assert_eq!(sim.folds(), 3 * 3); // ceil(7/3)=3 row tiles, ceil(9/4)=3 col tiles
        assert_eq!(sim.cycles(), analytic_cycles(&cfg, 7, 5, 9));
    }

    #[test]
    fn macs_counted_exactly() {
        let cfg = ArrayConfig::new(2, 2).unwrap();
        let a = tensor(&[3, 4], |_| 1.0);
        let b = tensor(&[4, 5], |_| 1.0);
        let sim = simulate(&cfg, &a, &b).unwrap();
        assert_eq!(sim.macs(), 3 * 4 * 5);
        // Every MAC occupies exactly one PE-cycle.
        assert_eq!(sim.busy_pe_cycles(), sim.macs());
    }

    #[test]
    fn busy_trace_is_consistent() {
        let cfg = ArrayConfig::new(4, 4).unwrap();
        let a = tensor(&[4, 6], |_| 1.0);
        let b = tensor(&[6, 4], |_| 1.0);
        let sim = simulate(&cfg, &a, &b).unwrap();
        let total: u64 = sim.busy_trace().iter().map(|&b| b as u64).sum();
        assert_eq!(total, sim.busy_pe_cycles());
        assert_eq!(sim.busy_trace().len() as u64, sim.cycles());
        // No cycle can have more busy PEs than exist.
        assert!(sim
            .busy_trace()
            .iter()
            .all(|&b| b as usize <= cfg.pe_count()));
    }

    #[test]
    fn single_column_gemm_uses_one_column() {
        // The depthwise/im2col case of §III-B: N = 1 ⇒ only one array
        // column is ever busy ⇒ utilization bounded by 1/cols.
        let cfg = ArrayConfig::new(8, 8).unwrap();
        let a = tensor(&[8, 9], |_| 1.0);
        let b = tensor(&[9, 1], |_| 1.0);
        let sim = simulate(&cfg, &a, &b).unwrap();
        let max_busy = sim.busy_trace().iter().copied().max().unwrap();
        assert!(max_busy as usize <= cfg.rows());
        assert!(sim.utilization() <= 1.0 / cfg.cols() as f64 + 1e-9);
    }

    #[test]
    fn bad_operands_rejected() {
        let cfg = ArrayConfig::new(4, 4).unwrap();
        let a = tensor(&[2, 3], |_| 0.0);
        let b = tensor(&[4, 2], |_| 0.0);
        assert!(simulate(&cfg, &a, &b).is_err());
        let v = tensor(&[3], |_| 0.0);
        assert!(simulate(&cfg, &a, &v).is_err());
    }

    #[test]
    fn fold_formula_matches_scale_sim() {
        // 2*Sr + Sc + T - 2 with full array usage.
        assert_eq!(fold_cycles(32, 32, 100), 2 * 32 + 32 + 100 - 2);
        // Degenerate 1x1x1 fold: one compute cycle plus one drain cycle.
        assert_eq!(fold_cycles(1, 1, 1), 2);
    }

    #[test]
    #[should_panic(expected = "must be nonzero")]
    fn fold_cycles_rejects_zero() {
        let _ = fold_cycles(0, 1, 1);
    }
}
