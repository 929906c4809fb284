//! Weight-stationary GEMM on the systolic array (§II-C names it as the
//! natural alternative to output-stationary). The index map and fold
//! formula are documented on [`Dataflow::WeightStationary`].

use crate::{ArrayConfig, ConfigError, Dataflow, SimResult};
use fuseconv_tensor::Tensor;
use fuseconv_trace::NullSink;

/// Simulates `C = A·B` under the weight-stationary dataflow, untraced:
/// [`Dataflow::simulate`] with a [`NullSink`].
///
/// # Errors
///
/// Returns [`ConfigError::BadOperand`] unless `a` is `M×K` and `b` is `K×N`.
pub fn simulate(cfg: &ArrayConfig, a: &Tensor, b: &Tensor) -> Result<SimResult, ConfigError> {
    Dataflow::WeightStationary.simulate(cfg, a, b, &mut NullSink)
}
