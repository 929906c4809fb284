//! Output-stationary GEMM on the systolic array (§II-C, Fig. 1(d)): the
//! paper's dataflow. The index map and fold formula are documented on
//! [`Dataflow::OutputStationary`].

use crate::{ArrayConfig, ConfigError, Dataflow, SimResult};
use fuseconv_tensor::Tensor;
use fuseconv_trace::NullSink;

/// Simulates `C = A·B` under the output-stationary dataflow, untraced:
/// [`Dataflow::simulate`] with a [`NullSink`].
///
/// # Errors
///
/// Returns [`ConfigError::BadOperand`] unless `a` is `M×K` and `b` is `K×N`.
pub fn simulate(cfg: &ArrayConfig, a: &Tensor, b: &Tensor) -> Result<SimResult, ConfigError> {
    Dataflow::OutputStationary.simulate(cfg, a, b, &mut NullSink)
}
