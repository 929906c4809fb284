//! The FuSeConv operator's design knob (§IV-A).
//!
//! A FuSeConv layer factorizes a `K×K` depthwise filter bank into `1×K`
//! *row* filters and `K×1` *column* filters on `C/D` channels each:
//!
//! - **Full** variant (`D = 1`): both filter banks run on *all* `C`
//!   channels; their outputs are concatenated into `2C` channels.
//! - **Half** variant (`D = 2`): row filters on the first `C/2` channels,
//!   column filters on the other `C/2`; concatenated back to `C` channels.
//!
//! The subsequent `1×1` pointwise convolution (unchanged from the
//! depthwise-separable block) restores the desired output channel count,
//! making FuSeConv a drop-in replacement. The two banks are described by
//! [`Op::fuse1d`](crate::ops::Op::fuse1d); the layer that runs them is
//! `fuseconv_train::layers::FuseLayer`.

use std::fmt;

/// Which FuSeConv variant (the paper's design knob `D`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuSeVariant {
    /// `D = 1`: row and column filters on all channels; output has `2C`
    /// channels.
    Full,
    /// `D = 2`: row filters on half the channels, column filters on the
    /// other half; output has `C` channels.
    Half,
}

impl FuSeVariant {
    /// The paper's `D` value.
    pub fn d(&self) -> usize {
        match self {
            FuSeVariant::Full => 1,
            FuSeVariant::Half => 2,
        }
    }
}

impl fmt::Display for FuSeVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuSeVariant::Full => f.write_str("full"),
            FuSeVariant::Half => f.write_str("half"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_variant() {
        assert_eq!(FuSeVariant::Full.to_string(), "full");
        assert_eq!(FuSeVariant::Half.to_string(), "half");
        assert_eq!((FuSeVariant::Full.d(), FuSeVariant::Half.d()), (1, 2));
    }
}
