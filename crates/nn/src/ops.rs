//! Shape-level operator descriptors with exact MAC/parameter accounting.
//!
//! Descriptors are what the architecture tables (`fuseconv-models`) are made
//! of and what the latency model (`fuseconv-latency`) consumes. The MAC and
//! parameter formulas are those of §II-D and §IV-A of the paper; unit tests
//! pin them to hand counts, and integration tests check them against the
//! functional layers.

use std::fmt;

/// Broad operator class, used for the paper's Fig. 8(c) latency-distribution
/// breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Standard (dense) 2-D convolution.
    Standard,
    /// Depthwise 2-D convolution.
    Depthwise,
    /// Pointwise (`1×1`) convolution.
    Pointwise,
    /// A FuSeConv 1-D depthwise convolution (row or column).
    FuSe,
    /// Fully-connected layer (including the squeeze-and-excite FCs).
    Fc,
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::Standard => "standard conv",
            OpClass::Depthwise => "depthwise conv",
            OpClass::Pointwise => "pointwise conv",
            OpClass::FuSe => "fuse conv",
            OpClass::Fc => "fully connected",
        };
        f.write_str(s)
    }
}

/// Orientation of a FuSeConv 1-D filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis1d {
    /// `1×K` filter sliding along image rows (the paper's *row filters*).
    Row,
    /// `K×1` filter sliding along image columns (*column filters*).
    Col,
}

/// A shape-level description of one array-bound operator.
///
/// All spatial fields are in elements; `stride` applies to both axes (the
/// networks in the paper only use uniform strides). Padding is symmetric
/// per axis. Batch size is 1 throughout, matching the paper's edge-inference
/// latency setting.
// Deliberately exhaustive (no `#[non_exhaustive]`): the latency model must
// fail to compile, not silently miscost, when an operator kind is added.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Standard convolution: `in_c → out_c` with a `k×k` kernel.
    Conv2d {
        /// Input feature-map height.
        in_h: usize,
        /// Input feature-map width.
        in_w: usize,
        /// Input channels.
        in_c: usize,
        /// Output channels (number of filters).
        out_c: usize,
        /// Kernel extent (square).
        k: usize,
        /// Stride on both axes.
        stride: usize,
        /// Symmetric zero padding on both axes.
        pad: usize,
    },
    /// Depthwise convolution: each of `c` channels filtered independently
    /// with its own `k×k` kernel.
    Depthwise {
        /// Input feature-map height.
        in_h: usize,
        /// Input feature-map width.
        in_w: usize,
        /// Channels (input = output).
        c: usize,
        /// Kernel extent (square).
        k: usize,
        /// Stride on both axes.
        stride: usize,
        /// Symmetric zero padding on both axes.
        pad: usize,
    },
    /// Pointwise (`1×1`) convolution, stride 1.
    Pointwise {
        /// Feature-map height.
        in_h: usize,
        /// Feature-map width.
        in_w: usize,
        /// Input channels.
        in_c: usize,
        /// Output channels.
        out_c: usize,
    },
    /// A bank of FuSeConv 1-D depthwise filters on `c` channels.
    FuSe1d {
        /// Input feature-map height.
        in_h: usize,
        /// Input feature-map width.
        in_w: usize,
        /// Channels this bank filters (`C/D` in the paper).
        c: usize,
        /// Filter length `K`.
        k: usize,
        /// Stride (applied along the filter axis; the orthogonal axis is
        /// subsampled by the same stride so the output matches the
        /// depthwise layer it replaces).
        stride: usize,
        /// Zero padding along the filter axis.
        pad: usize,
        /// Filter orientation.
        axis: Axis1d,
    },
    /// Fully-connected layer.
    Fc {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
}

/// Ceiling division helper shared by the shape formulas.
fn out_extent(input: usize, k: usize, stride: usize, pad: usize) -> usize {
    (input + 2 * pad - k) / stride + 1
}

/// Ceiling of `a / b`.
fn div_ceil(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

impl Op {
    /// Standard convolution descriptor.
    pub fn conv2d(
        in_h: usize,
        in_w: usize,
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        Op::Conv2d {
            in_h,
            in_w,
            in_c,
            out_c,
            k,
            stride,
            pad,
        }
    }

    /// Depthwise convolution descriptor.
    pub fn depthwise(
        in_h: usize,
        in_w: usize,
        c: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        Op::Depthwise {
            in_h,
            in_w,
            c,
            k,
            stride,
            pad,
        }
    }

    /// Pointwise convolution descriptor.
    pub fn pointwise(in_h: usize, in_w: usize, in_c: usize, out_c: usize) -> Self {
        Op::Pointwise {
            in_h,
            in_w,
            in_c,
            out_c,
        }
    }

    /// FuSeConv 1-D filter-bank descriptor.
    pub fn fuse1d(
        in_h: usize,
        in_w: usize,
        c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        axis: Axis1d,
    ) -> Self {
        Op::FuSe1d {
            in_h,
            in_w,
            c,
            k,
            stride,
            pad,
            axis,
        }
    }

    /// Fully-connected descriptor.
    pub fn fc(in_features: usize, out_features: usize) -> Self {
        Op::Fc {
            in_features,
            out_features,
        }
    }

    /// The operator's class for breakdown reports.
    pub fn class(&self) -> OpClass {
        match self {
            Op::Conv2d { .. } => OpClass::Standard,
            Op::Depthwise { .. } => OpClass::Depthwise,
            Op::Pointwise { .. } => OpClass::Pointwise,
            Op::FuSe1d { .. } => OpClass::FuSe,
            Op::Fc { .. } => OpClass::Fc,
        }
    }

    /// Output feature-map shape `(out_h, out_w, out_c)`. FC layers report
    /// `(1, 1, out_features)`.
    pub fn output_shape(&self) -> (usize, usize, usize) {
        match *self {
            Op::Conv2d {
                in_h,
                in_w,
                out_c,
                k,
                stride,
                pad,
                ..
            } => (
                out_extent(in_h, k, stride, pad),
                out_extent(in_w, k, stride, pad),
                out_c,
            ),
            Op::Depthwise {
                in_h,
                in_w,
                c,
                k,
                stride,
                pad,
            } => (
                out_extent(in_h, k, stride, pad),
                out_extent(in_w, k, stride, pad),
                c,
            ),
            Op::Pointwise {
                in_h, in_w, out_c, ..
            } => (in_h, in_w, out_c),
            Op::FuSe1d {
                in_h,
                in_w,
                c,
                k,
                stride,
                pad,
                axis,
            } => match axis {
                // The filter axis convolves; the orthogonal axis is
                // subsampled by the stride (ceil to keep at least one line).
                Axis1d::Row => (div_ceil(in_h, stride), out_extent(in_w, k, stride, pad), c),
                Axis1d::Col => (out_extent(in_h, k, stride, pad), div_ceil(in_w, stride), c),
            },
            Op::Fc { out_features, .. } => (1, 1, out_features),
        }
    }

    /// Exact multiply-accumulate count (§II-D / §IV-A formulas).
    ///
    /// # Panics
    ///
    /// Panics if the count overflows `u64` ([`Op::checked_macs`] returns
    /// `None` instead).
    pub fn macs(&self) -> u64 {
        self.checked_macs().expect("MAC count overflows u64")
    }

    /// [`Op::macs`], or `None` if the count overflows `u64`: every
    /// operator does one MAC per weight per output pixel.
    pub fn checked_macs(&self) -> Option<u64> {
        let (oh, ow, _) = self.output_shape();
        product(&[oh, ow])?.checked_mul(self.checked_params()?)
    }

    /// Exact weight-parameter count (biases and batch-norm affine terms are
    /// excluded uniformly; the comparisons in the paper are insensitive to
    /// them).
    ///
    /// # Panics
    ///
    /// Panics if the count overflows `u64` ([`Op::checked_params`]
    /// returns `None` instead).
    pub fn params(&self) -> u64 {
        self.checked_params()
            .expect("parameter count overflows u64")
    }

    /// [`Op::params`], or `None` if the count overflows `u64`.
    pub fn checked_params(&self) -> Option<u64> {
        match *self {
            Op::Conv2d { in_c, out_c, k, .. } => product(&[out_c, k, k, in_c]),
            Op::Depthwise { c, k, .. } => product(&[c, k, k]),
            Op::Pointwise { in_c, out_c, .. } => product(&[in_c, out_c]),
            Op::FuSe1d { c, k, .. } => product(&[c, k]),
            Op::Fc {
                in_features,
                out_features,
            } => product(&[in_features, out_features]),
        }
    }
}

/// Product of `dims` in `u64`, or `None` on overflow.
fn product(dims: &[usize]) -> Option<u64> {
    dims.iter()
        .try_fold(1u64, |acc, &d| acc.checked_mul(u64::try_from(d).ok()?))
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Op::Conv2d {
                in_h,
                in_w,
                in_c,
                out_c,
                k,
                stride,
                ..
            } => write!(f, "conv {k}x{k} s{stride} {in_c}->{out_c} @{in_h}x{in_w}"),
            Op::Depthwise {
                in_h,
                in_w,
                c,
                k,
                stride,
                ..
            } => write!(f, "dwconv {k}x{k} s{stride} c{c} @{in_h}x{in_w}"),
            Op::Pointwise {
                in_h,
                in_w,
                in_c,
                out_c,
            } => write!(f, "pwconv {in_c}->{out_c} @{in_h}x{in_w}"),
            Op::FuSe1d {
                in_h,
                in_w,
                c,
                k,
                stride,
                axis,
                ..
            } => {
                let (kh, kw) = match axis {
                    Axis1d::Row => (1, k),
                    Axis1d::Col => (k, 1),
                };
                write!(f, "fuse {kh}x{kw} s{stride} c{c} @{in_h}x{in_w}")
            }
            Op::Fc {
                in_features,
                out_features,
            } => write!(f, "fc {in_features}->{out_features}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_conv_counts() {
        // MobileNet-V1 stem: 3x3 s2 3->32 on 224x224 -> 112x112.
        let op = Op::conv2d(224, 224, 3, 32, 3, 2, 1);
        assert_eq!(op.output_shape(), (112, 112, 32));
        assert_eq!(op.macs(), 112 * 112 * 32 * 9 * 3);
        assert_eq!(op.params(), 32 * 9 * 3);
        assert_eq!(op.class(), OpClass::Standard);
    }

    #[test]
    fn depthwise_counts() {
        let op = Op::depthwise(112, 112, 64, 3, 2, 1);
        assert_eq!(op.output_shape(), (56, 56, 64));
        assert_eq!(op.macs(), 56 * 56 * 64 * 9);
        assert_eq!(op.params(), 64 * 9);
    }

    #[test]
    fn pointwise_counts() {
        let op = Op::pointwise(56, 56, 64, 128);
        assert_eq!(op.output_shape(), (56, 56, 128));
        assert_eq!(op.macs(), 56 * 56 * 64 * 128);
        assert_eq!(op.params(), 64 * 128);
    }

    #[test]
    fn fuse1d_row_and_col_shapes_match_depthwise_replacement() {
        // A stride-2 3x3 depthwise on 112x112 yields 56x56; both FuSe
        // orientations must produce the same spatial output (drop-in).
        let dw = Op::depthwise(112, 112, 64, 3, 2, 1);
        let row = Op::fuse1d(112, 112, 64, 3, 2, 1, Axis1d::Row);
        let col = Op::fuse1d(112, 112, 64, 3, 2, 1, Axis1d::Col);
        assert_eq!(dw.output_shape(), row.output_shape());
        assert_eq!(dw.output_shape(), col.output_shape());
    }

    #[test]
    fn fuse1d_counts_follow_paper_formula() {
        // §IV-A: depthwise part of FuSeConv has (2/D)·N·M·C·K MACs. One
        // FuSe1d op holds one direction on C/D channels: N·M·(C/D)·K.
        let op = Op::fuse1d(56, 56, 32, 3, 1, 1, Axis1d::Row);
        assert_eq!(op.output_shape(), (56, 56, 32));
        assert_eq!(op.macs(), 56 * 56 * 32 * 3);
        assert_eq!(op.params(), 32 * 3);
        assert_eq!(op.class(), OpClass::FuSe);
    }

    #[test]
    fn full_variant_total_matches_closed_form() {
        // Full variant (D=1) on a K=3, C=16, 28x28 stride-1 layer followed
        // by C'=32 pointwise: ops must equal (2/D)·N·M·C·(K + C').
        let (n, m, c, k, c_out) = (28usize, 28usize, 16usize, 3usize, 32usize);
        let row = Op::fuse1d(n, m, c, k, 1, 1, Axis1d::Row);
        let col = Op::fuse1d(n, m, c, k, 1, 1, Axis1d::Col);
        let pw = Op::pointwise(n, m, 2 * c, c_out);
        let total = row.macs() + col.macs() + pw.macs();
        let closed_form = (2 * n * m * c * (k + c_out)) as u64;
        assert_eq!(total, closed_form);
    }

    #[test]
    fn half_variant_total_matches_closed_form() {
        // Half variant (D=2): row on C/2, col on C/2, concat -> C channels.
        let (n, m, c, k, c_out) = (28usize, 28usize, 16usize, 3usize, 32usize);
        let row = Op::fuse1d(n, m, c / 2, k, 1, 1, Axis1d::Row);
        let col = Op::fuse1d(n, m, c / 2, k, 1, 1, Axis1d::Col);
        let pw = Op::pointwise(n, m, c, c_out);
        let total = row.macs() + col.macs() + pw.macs();
        let closed_form = (2 * n * m * c * (k + c_out) / 2) as u64;
        assert_eq!(total, closed_form);
    }

    #[test]
    fn depthwise_separable_matches_paper_closed_form() {
        // §II-D: N·M·C·(K² + C').
        let (n, m, c, k, c_out) = (14usize, 14usize, 96usize, 3usize, 160usize);
        let dw = Op::depthwise(n, m, c, k, 1, 1);
        let pw = Op::pointwise(n, m, c, c_out);
        assert_eq!(dw.macs() + pw.macs(), (n * m * c * (k * k + c_out)) as u64);
    }

    #[test]
    fn fc_counts() {
        let op = Op::fc(1280, 1000);
        assert_eq!(op.macs(), 1_280_000);
        assert_eq!(op.params(), 1_280_000);
        assert_eq!(op.output_shape(), (1, 1, 1000));
        assert_eq!(op.class(), OpClass::Fc);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(
            Op::depthwise(56, 56, 128, 3, 1, 1).to_string(),
            "dwconv 3x3 s1 c128 @56x56"
        );
        assert_eq!(
            Op::fuse1d(56, 56, 64, 5, 1, 2, Axis1d::Col).to_string(),
            "fuse 5x1 s1 c64 @56x56"
        );
    }

    #[test]
    fn odd_input_subsampling_rounds_up() {
        // 7x7 input, stride 2 row filter: 4 surviving rows (ceil 7/2).
        let op = Op::fuse1d(7, 7, 8, 3, 2, 1, Axis1d::Row);
        let (oh, ow, _) = op.output_shape();
        assert_eq!(oh, 4);
        assert_eq!(ow, 4);
    }
}
