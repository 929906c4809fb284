//! Architecture tables for the five networks the paper evaluates, plus the
//! FuSeConv drop-in transformation (§V-A-1).
//!
//! Networks are sequences of [`Block`]s; each block expands into the
//! shape-level [`Op`](fuseconv_nn::ops::Op) descriptors that the latency
//! model consumes. The five constructors in [`zoo`] transcribe the
//! published layer tables of MobileNet-V1/V2/V3-Small/V3-Large and
//! MnasNet-B1 at 224×224 input resolution.
//!
//! The FuSeConv transformation replaces the depthwise convolution inside
//! any separable block with the paper's 1-D row/column filter banks —
//! either in **all** blocks (`Full`/`Half` variants) or in a caller-chosen
//! subset (the `-50%` variants, whose subset is selected for maximum
//! latency benefit by `fuseconv-core`).
//!
//! # Examples
//!
//! ```
//! use fuseconv_models::zoo;
//! use fuseconv_nn::FuSeVariant;
//!
//! let v1 = zoo::mobilenet_v1();
//! let fuse = v1.transform_all(FuSeVariant::Half);
//! // The half variant has slightly fewer MACs than the baseline (§IV-A).
//! assert!(fuse.macs() < v1.macs());
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod block;
pub mod network;
pub mod shape;
pub mod topology;
pub mod zoo;

pub use block::{Block, SeparableBlock, SpatialFilter};
pub use network::{Network, NetworkSummary};
pub use shape::{op_consumes, Shape, ShapeFlow};
