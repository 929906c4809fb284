//! Functional DNN layer library with exact MAC/parameter accounting.
//!
//! Two views of every layer coexist here:
//!
//! - [`ops::Op`] — a lightweight *descriptor* (shapes only) from which MACs,
//!   parameters and output sizes are computed analytically. The network
//!   tables in `fuseconv-models` and the latency model in `fuseconv-latency`
//!   work entirely on descriptors.
//! - The functional layers ([`conv`], [`linear`], [`pool`], [`activation`])
//!   — reference `f32` implementations operating on `[C, H, W]` tensors,
//!   used to validate the descriptors and the simulator mappings, and as
//!   the building blocks of the trainable layers in `fuseconv-train`.
//!
//! Between them they cover every operator appearing in the paper's five
//! networks: standard/depthwise/pointwise convolution, the two FuSeConv
//! variants (§IV-A, [`fuse`]), fully-connected layers (the
//! squeeze-and-excite FCs among them), ReLU/ReLU6/h-swish/h-sigmoid, and
//! pooling. The FuSe layer itself, a `1×K` row bank and a `K×1` column
//! bank of depthwise filters concatenated along channels, is the trainable
//! `fuseconv_train::layers::FuseLayer`, built on [`conv::depthwise2d`].
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
pub mod ops;
pub mod pool;

pub use error::NnError;
pub use fuse::FuSeVariant;
pub use ops::Op;
