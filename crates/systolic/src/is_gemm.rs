//! Input-stationary GEMM — the third dataflow §II-C names ("we can
//! similarly study input and weight stationary dataflows").
//!
//! A tile of `A` (`M×K`) is pinned in the PEs — array row `i` holds output
//! row `m0+i`, array column `j` holds reduction index `k0+j`. Columns of
//! `B` stream through the array (one per cycle, skewed), partial sums flow
//! *rightward along rows* and exit at the right edge. The temporal
//! dimension is `N`:
//!
//! ```text
//! T_fold = cu                    input preload (one array column per cycle)
//!        + (N + ru + cu − 2)     skewed streaming + drain
//!        = ru + 2·cu + N − 2
//! ```
//!
//! Tiles run over `M` (array rows) and `K` (array columns); `K`-tiles
//! accumulate into the same outputs (in output SRAM, free of array
//! cycles), exactly mirroring the weight-stationary treatment.

use crate::wavefront::Stationary;
use crate::{ArrayConfig, ConfigError, SimResult};
use fuseconv_tensor::Tensor;
use fuseconv_trace::{NullSink, TraceSink};

/// Exact cycles of one input-stationary fold using `ru` rows, `cu`
/// columns and `n` streamed output columns.
///
/// # Panics
///
/// Panics if any argument is zero.
pub fn fold_cycles(ru: usize, cu: usize, n: usize) -> u64 {
    Stationary::Input.fold_cycles(ru, cu, n)
}

/// Simulates `C = A·B` under the input-stationary dataflow, cycle by
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
/// The input preload is reported as the fold's fill phase; the streaming
/// window (whose tail doubles as the drain) as its compute phase. Output
/// writes are emitted as each partial sum leaves the rightmost array
/// column.
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
    Stationary::Input.simulate(cfg, a, b, sink)
}

/// Analytic total cycles for an `M×K·K×N` input-stationary GEMM.
///
/// # Panics
///
/// Panics if any dimension is zero.
pub fn analytic_cycles(cfg: &ArrayConfig, m: usize, k: usize, n: usize) -> u64 {
    Stationary::Input.analytic_cycles(cfg, m, k, n)
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
        // ceil(7/3)=3 m-tiles, ceil(5/4)=2 k-tiles.
        assert_eq!(sim.folds(), 6);
        assert_eq!(sim.cycles(), analytic_cycles(&cfg, 7, 5, 9));
    }

    #[test]
    fn temporal_dimension_is_n() {
        let cfg = ArrayConfig::new(8, 8).unwrap();
        assert_eq!(fold_cycles(8, 8, 100), (8 + 100 + 8 + 8 - 2) as u64);
        let narrow = analytic_cycles(&cfg, 8, 8, 10);
        let wide = analytic_cycles(&cfg, 8, 8, 100);
        assert!(wide > narrow);
    }

    #[test]
    fn is_beats_os_and_ws_for_wide_outputs_with_small_inputs() {
        // M=8, K=8 fits in the array; N=1000 streams through once under
        // input-stationary, but refolds N/cols times under the others.
        let cfg = ArrayConfig::new(8, 8).unwrap();
        let is = analytic_cycles(&cfg, 8, 8, 1000);
        let os = crate::gemm::analytic_cycles(&cfg, 8, 8, 1000);
        let ws = crate::ws_gemm::analytic_cycles(&cfg, 8, 8, 1000);
        assert!(is < os, "input-stationary {is} vs output-stationary {os}");
        assert!(is < ws, "input-stationary {is} vs weight-stationary {ws}");
    }

    #[test]
    fn three_dataflows_agree_functionally() {
        let cfg = ArrayConfig::new(4, 3).unwrap();
        let a = tensor(&[6, 7], |ix| ((ix[0] + 2 * ix[1]) % 5) as f32 - 2.0);
        let b = tensor(&[7, 5], |ix| ((3 * ix[0] + ix[1]) % 4) as f32 * 0.3);
        let os = crate::gemm::simulate(&cfg, &a, &b).unwrap();
        let ws = crate::ws_gemm::simulate(&cfg, &a, &b).unwrap();
        let is = simulate(&cfg, &a, &b).unwrap();
        let bits = |t: &Tensor| -> Vec<u32> { t.as_slice().iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(os.output()), bits(ws.output()));
        assert_eq!(bits(os.output()), bits(is.output()));
    }

    #[test]
    fn macs_accounting() {
        let cfg = ArrayConfig::new(4, 4).unwrap();
        let a = tensor(&[6, 5], |_| 1.0);
        let b = tensor(&[5, 3], |_| 1.0);
        let sim = simulate(&cfg, &a, &b).unwrap();
        assert_eq!(sim.macs(), 6 * 5 * 3);
        assert_eq!(sim.busy_pe_cycles(), sim.macs());
    }

    #[test]
    fn bad_operands_rejected() {
        let cfg = ArrayConfig::new(4, 4).unwrap();
        let a = tensor(&[2, 3], |_| 0.0);
        let b = tensor(&[4, 2], |_| 0.0);
        assert!(simulate(&cfg, &a, &b).is_err());
    }
}
