//! Weight-stationary GEMM on the systolic array (§II-C names this dataflow
//! as the natural alternative to output-stationary).
//!
//! A tile of `B` (`K×N`) is preloaded into the PEs — array row `i` holds
//! reduction index `k0+i`, array column `j` holds output column `n0+j`.
//! Rows of `A` then stream through: operand `a[m, k]` enters row `k`'s
//! lane skewed by one cycle per position, partial sums flow down the
//! columns and exit at the bottom. The temporal dimension is therefore
//! `M` (the number of streamed rows), dual to the output-stationary
//! dataflow where it is `K`:
//!
//! ```text
//! T_fold = ru                    weight preload (one array row per cycle)
//!        + (M + ru + cu − 2)     skewed streaming + drain
//!        = 2·ru + cu + M − 2
//! ```
//!
//! Work wider than the array tiles over `K` (array rows) and `N` (array
//! columns); `K`-tiles accumulate into the same outputs, which a real
//! accelerator does in its output SRAM at no extra array cycles.

use crate::wavefront::Stationary;
use crate::{ArrayConfig, ConfigError, SimResult};
use fuseconv_tensor::Tensor;
use fuseconv_trace::{NullSink, TraceSink};

/// Exact cycles of one weight-stationary fold using `ru` rows, `cu`
/// columns and `m` streamed input rows.
///
/// # Panics
///
/// Panics if any argument is zero.
pub fn fold_cycles(ru: usize, cu: usize, m: usize) -> u64 {
    Stationary::Weight.fold_cycles(ru, cu, m)
}

/// Simulates `C = A·B` under the weight-stationary dataflow, cycle by
/// cycle.
///
/// # Errors
///
/// Returns [`ConfigError::BadOperand`] unless `a` is `M×K` and `b` is
/// `K×N`.
pub fn simulate(cfg: &ArrayConfig, a: &Tensor, b: &Tensor) -> Result<SimResult, ConfigError> {
    simulate_traced(cfg, a, b, &mut NullSink)
}

/// [`simulate`] with every cycle narrated to `sink` as trace events.
///
/// The weight preload is reported as the fold's fill phase; the streaming
/// window (whose tail doubles as the drain) as its compute phase. Output
/// writes are emitted as each partial sum leaves the bottom array row.
///
/// # Errors
///
/// Returns [`ConfigError::BadOperand`] unless `a` is `M×K` and `b` is
/// `K×N`.
pub fn simulate_traced(
    cfg: &ArrayConfig,
    a: &Tensor,
    b: &Tensor,
    sink: &mut dyn TraceSink,
) -> Result<SimResult, ConfigError> {
    Stationary::Weight.simulate(cfg, a, b, sink)
}

/// Analytic total cycles for an `M×K·K×N` weight-stationary GEMM — the
/// closed form the cycle simulator is validated against.
///
/// # Panics
///
/// Panics if any dimension is zero.
pub fn analytic_cycles(cfg: &ArrayConfig, m: usize, k: usize, n: usize) -> u64 {
    Stationary::Weight.analytic_cycles(cfg, m, k, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_tensor::gemm::matmul;

    fn tensor(dims: &[usize], f: impl FnMut(&[usize]) -> f32) -> Tensor {
        Tensor::from_fn(dims, f).unwrap()
    }

    #[test]
    fn matches_golden_model() {
        let cfg = ArrayConfig::new(3, 4).unwrap();
        let a = tensor(&[7, 5], |ix| ((ix[0] * 3 + ix[1]) % 5) as f32 - 1.5);
        let b = tensor(&[5, 9], |ix| ((ix[0] * 2 + ix[1]) % 3) as f32 * 0.5);
        let sim = simulate(&cfg, &a, &b).unwrap();
        let gold = matmul(&a, &b).unwrap();
        assert!(sim.output().max_abs_diff(&gold).unwrap() < 1e-5);
        // ceil(5/3)=2 k-tiles, ceil(9/4)=3 n-tiles.
        assert_eq!(sim.folds(), 6);
        assert_eq!(sim.cycles(), analytic_cycles(&cfg, 7, 5, 9));
    }

    #[test]
    fn temporal_dimension_is_m() {
        // Dual of the OS dataflow: for fixed array usage, WS cycles grow
        // with M, not K.
        let cfg = ArrayConfig::new(8, 8).unwrap();
        assert_eq!(fold_cycles(8, 8, 100), (8 + 100 + 8 + 8 - 2) as u64);
        let short = analytic_cycles(&cfg, 10, 8, 8);
        let long = analytic_cycles(&cfg, 100, 8, 8);
        assert!(long > short);
        // K beyond the array adds folds, each re-streaming A.
        let deep = analytic_cycles(&cfg, 10, 16, 8);
        assert_eq!(deep, 2 * short);
    }

    #[test]
    fn ws_beats_os_for_tall_skinny_depthwise_gemm() {
        // The depthwise im2col shape (M large, K = 9, N = 1): WS keeps the
        // 9 weights resident and streams the pixels once, while OS refolds
        // every `rows` pixels.
        let cfg = ArrayConfig::new(64, 64).unwrap();
        let ws = analytic_cycles(&cfg, 3136, 9, 1);
        let os = crate::gemm::analytic_cycles(&cfg, 3136, 9, 1);
        assert!(
            ws < os / 2,
            "weight-stationary {ws} should be well below output-stationary {os}"
        );
    }

    #[test]
    fn os_beats_ws_for_deep_reduction() {
        // Dual case: M small, K large (an FC layer, M = 1): OS keeps the
        // single output row resident; WS refolds over K.
        let cfg = ArrayConfig::new(64, 64).unwrap();
        let os = crate::gemm::analytic_cycles(&cfg, 1, 1024, 64);
        let ws = analytic_cycles(&cfg, 1, 1024, 64);
        assert!(os < ws, "output-stationary {os} vs weight-stationary {ws}");
    }

    #[test]
    fn macs_and_busy_accounting() {
        let cfg = ArrayConfig::new(4, 4).unwrap();
        let a = tensor(&[6, 5], |_| 1.0);
        let b = tensor(&[5, 3], |_| 1.0);
        let sim = simulate(&cfg, &a, &b).unwrap();
        assert_eq!(sim.macs(), 6 * 5 * 3);
        assert_eq!(sim.busy_pe_cycles(), sim.macs());
        let total: u64 = sim.busy_trace().iter().map(|&x| x as u64).sum();
        assert_eq!(total, sim.busy_pe_cycles());
    }

    #[test]
    fn bad_operands_rejected() {
        let cfg = ArrayConfig::new(4, 4).unwrap();
        let a = tensor(&[2, 3], |_| 0.0);
        let b = tensor(&[4, 2], |_| 0.0);
        assert!(simulate(&cfg, &a, &b).is_err());
    }
}
