//! Functional DNN layer library with exact MAC/parameter accounting.
//!
//! Two views of every layer coexist here:
//!
//! - [`ops::Op`] — a lightweight *descriptor* (shapes only) from which MACs,
//!   parameters and output sizes are computed analytically. The network
//!   tables in `fuseconv-models` and the latency model in `fuseconv-latency`
//!   work entirely on descriptors.
//! - The functional layers ([`conv`], [`fuse`], [`linear`], [`se`], …) —
//!   reference `f32` implementations operating on `[C, H, W]` tensors, used
//!   to validate the descriptors, the simulator mappings, and to train small
//!   networks in `fuseconv-train`.
//!
//! The crate implements every operator appearing in the paper's five
//! networks: standard/depthwise/pointwise convolution, the two FuSeConv
//! variants (§IV-A), squeeze-and-excite, fully-connected layers, batch norm
//! (inference form), ReLU/ReLU6/h-swish/h-sigmoid, and pooling.
//!
//! # Examples
//!
//! ```
//! use fuseconv_nn::ops::Op;
//!
//! // A 3x3 depthwise layer over a 112x112x32 feature map (MobileNet-V1's
//! // first depthwise layer).
//! let dw = Op::depthwise(112, 112, 32, 3, 1, 1);
//! assert_eq!(dw.macs(), 112 * 112 * 32 * 9);
//! assert_eq!(dw.params(), 32 * 9);
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod activation;
pub mod conv;
pub mod error;
pub mod fuse;
pub mod linear;
pub mod norm;
pub mod ops;
pub mod pool;
pub mod se;

pub use error::NnError;
pub use fuse::{FuSeConv, FuSeVariant};
pub use ops::Op;
