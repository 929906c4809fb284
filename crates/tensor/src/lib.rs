//! Dense tensors, shape algebra, `im2col` and a reference GEMM.
//!
//! This crate is the numeric substrate of the FuSeConv reproduction. It
//! provides exactly what the rest of the workspace needs and nothing more:
//!
//! - [`Shape`] — a small shape type with checked construction,
//! - [`Tensor`] — an owned, row-major dense `f32` tensor,
//! - [`gemm`] — a straightforward reference matrix multiply,
//! - [`im2col`] — the lowering used to map 2D convolution
//!   onto matrix hardware (§III-B of the paper).
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), fuseconv_tensor::TensorError> {
//! use fuseconv_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = fuseconv_tensor::gemm::matmul(&a, &b)?;
//! assert_eq!(c.as_slice(), a.as_slice());
//! # Ok(())
//! # }
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod error;
pub mod gemm;
pub mod half;
pub mod im2col;
pub mod rng;
pub mod shape;
pub mod tensor;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;
