//! A compact layer-wise backpropagation trainer.
//!
//! The paper validates FuSeConv accuracy by retraining MobileNets on
//! ImageNet with RMSProp (momentum 0.9, exponential LR decay, weight EMA —
//! §V-A-2). ImageNet-scale training is far outside this reproduction's
//! budget, so this crate provides the training machinery needed for the
//! *relative* accuracy experiment on a synthetic task that isolates exactly
//! what FuSeConv changes: spatial filtering capacity.
//!
//! - [`layers`] — trainable standard/depthwise/FuSe/pointwise/dense layers
//!   with hand-derived backward passes, all finite-difference checked;
//! - [`optim`] — SGD and the paper's RMSProp-with-momentum, exponential LR
//!   decay and weight EMA;
//! - [`loss`] — softmax cross-entropy;
//! - [`dataset`] — a procedurally generated oriented-texture classification
//!   task (orientation discrimination is precisely the capability a `K×K`
//!   kernel has and a single 1-D kernel lacks, making it a meaningful probe
//!   of the depthwise → FuSe substitution);
//! - [`trainer`] — the batch training loop and accuracy evaluation.
//!
//! # Examples
//!
//! ```
//! use fuseconv_train::dataset::OrientedTextures;
//!
//! let data = OrientedTextures::new(16, 4).generate(8, 42);
//! assert_eq!(data.len(), 8);
//! let (image, label) = &data[0];
//! assert_eq!(image.shape().dims(), &[1, 16, 16]);
//! assert!(*label < 4);
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod checkpoint;
pub mod dataset;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod sequential;
pub mod trainer;

pub use layers::{Layer, Param};
pub use sequential::Sequential;
