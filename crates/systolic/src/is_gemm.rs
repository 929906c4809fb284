//! Input-stationary GEMM — the third dataflow §II-C names ("we can
//! similarly study input and weight stationary dataflows"). The index map
//! and fold formula are documented on [`Dataflow::InputStationary`].

use crate::{ArrayConfig, ConfigError, Dataflow, SimResult};
use fuseconv_tensor::Tensor;
use fuseconv_trace::NullSink;

/// Simulates `C = A·B` under the input-stationary dataflow, untraced:
/// [`Dataflow::simulate`] with a [`NullSink`].
///
/// # Errors
///
/// Returns [`ConfigError::BadOperand`] unless `a` is `M×K` and `b` is `K×N`.
pub fn simulate(cfg: &ArrayConfig, a: &Tensor, b: &Tensor) -> Result<SimResult, ConfigError> {
    Dataflow::InputStationary.simulate(cfg, a, b, &mut NullSink)
}
