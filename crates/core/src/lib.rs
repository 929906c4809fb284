//! The FuSeConv system: drop-in network transformation plus the drivers for
//! every experiment in the paper's evaluation (§V).
//!
//! This crate ties the substrates together:
//!
//! - [`variant`] — the five Table I variants (baseline, Full, Half,
//!   Full-50 %, Half-50 %) and their application to a network, including
//!   the latency-guided block selection of the 50 % variants;
//! - [`experiments`] — one driver per table/figure:
//!   [`experiments::table1`] (Table I), [`experiments::layerwise`]
//!   (Fig. 8(b)), [`experiments::operator_breakdown`] (Fig. 8(c)),
//!   [`experiments::array_scaling`] (Fig. 8(d)),
//!   [`experiments::hw_overhead`] (§V-B-5) and
//!   [`experiments::accuracy_study`] (the Table I accuracy column, on the
//!   synthetic substitute task);
//! - [`paper`] — the published Table I numbers, kept as data so reports can
//!   print paper-vs-measured side by side;
//! - [`cnn`] — small trainable CNNs whose spatial stage is selectable
//!   (depthwise / FuSe-Full / FuSe-Half) for the accuracy study.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use fuseconv_core::experiments;
//! use fuseconv_core::variant::Variant;
//! use fuseconv_systolic::ArrayConfig;
//!
//! let array = ArrayConfig::square(64)?.with_broadcast(true);
//! let rows = experiments::table1(&array)?;
//! let v1_half = rows
//!     .iter()
//!     .find(|r| r.network == "MobileNet-V1" && r.variant == Variant::FuseHalf)
//!     .expect("present");
//! assert!(v1_half.speedup > 3.0);
//! # Ok(())
//! # }
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod cnn;
pub mod experiments;
pub mod nos;
pub mod paper;
pub mod report;
pub mod trace;
pub mod variant;

pub use variant::{apply_variant, Variant};
