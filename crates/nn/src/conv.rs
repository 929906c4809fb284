//! Reference convolution forward passes on `[C, H, W]` tensors.
//!
//! These are the golden functional models: straightforward nested loops,
//! validated against `im2col`+GEMM and the systolic simulator in tests and
//! used as building blocks by the training crate's layers.

use crate::NnError;
use fuseconv_tensor::Tensor;

/// Per-axis convolution hyper-parameters (stride is shared by both axes, as
/// in every network the paper evaluates; padding may differ per axis, which
/// the 1-D FuSeConv filters need).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Kernel height.
    pub k_h: usize,
    /// Kernel width.
    pub k_w: usize,
    /// Stride on both axes.
    pub stride: usize,
    /// Zero padding on the height axis (top and bottom).
    pub pad_h: usize,
    /// Zero padding on the width axis (left and right).
    pub pad_w: usize,
}

impl Conv2dSpec {
    /// Creates a spec, validating the stride.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if `stride == 0` or a kernel extent is
    /// zero.
    pub fn new(
        k_h: usize,
        k_w: usize,
        stride: usize,
        pad_h: usize,
        pad_w: usize,
    ) -> Result<Self, NnError> {
        if stride == 0 {
            return Err(NnError::bad_config("stride must be nonzero"));
        }
        if k_h == 0 || k_w == 0 {
            return Err(NnError::bad_config("kernel extents must be nonzero"));
        }
        Ok(Conv2dSpec {
            k_h,
            k_w,
            stride,
            pad_h,
            pad_w,
        })
    }

    /// Square `k×k` kernel with symmetric padding — the common case.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if `stride == 0` or `k == 0`.
    pub fn square(k: usize, stride: usize, pad: usize) -> Result<Self, NnError> {
        Self::new(k, k, stride, pad, pad)
    }

    /// Output extents for an `h×w` input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if the padded input is smaller than
    /// the kernel on either axis.
    pub fn output_extents(&self, h: usize, w: usize) -> Result<(usize, usize), NnError> {
        if h + 2 * self.pad_h < self.k_h || w + 2 * self.pad_w < self.k_w {
            return Err(NnError::bad_config(format!(
                "kernel {}x{} does not fit padded input {}x{}",
                self.k_h,
                self.k_w,
                h + 2 * self.pad_h,
                w + 2 * self.pad_w
            )));
        }
        Ok((
            (h + 2 * self.pad_h - self.k_h) / self.stride + 1,
            (w + 2 * self.pad_w - self.k_w) / self.stride + 1,
        ))
    }
}

fn read_padded(plane: &[f32], h: usize, w: usize, y: isize, x: isize) -> f32 {
    if y < 0 || x < 0 || y as usize >= h || x as usize >= w {
        0.0
    } else {
        plane[y as usize * w + x as usize]
    }
}

/// Standard convolution: input `[C, H, W]`, weight `[O, C, k_h, k_w]` →
/// output `[O, OH, OW]`.
///
/// # Errors
///
/// Returns [`NnError::BadInput`] for rank/shape mismatches between input,
/// weight and spec.
pub fn conv2d(input: &Tensor, weight: &Tensor, spec: &Conv2dSpec) -> Result<Tensor, NnError> {
    let id = input.shape().dims();
    let wd = weight.shape().dims();
    if id.len() != 3 {
        return Err(bad_input("conv2d", "[C, H, W]", id));
    }
    if wd.len() != 4 || wd[1] != id[0] || wd[2] != spec.k_h || wd[3] != spec.k_w {
        return Err(bad_input("conv2d weight", "[O, C, k_h, k_w]", wd));
    }
    let (c, h, w) = (id[0], id[1], id[2]);
    let o = wd[0];
    let (oh, ow) = spec.output_extents(h, w)?;
    let iv = input.as_slice();
    let wv = weight.as_slice();
    let mut out = vec![0.0f32; o * oh * ow];
    let plane = h * w;
    let kplane = spec.k_h * spec.k_w;
    for oc in 0..o {
        for ic in 0..c {
            let wbase = (oc * c + ic) * kplane;
            let pbase = ic * plane;
            for oy in 0..oh {
                for ox in 0..ow {
                    let y0 = (oy * spec.stride) as isize - spec.pad_h as isize;
                    let x0 = (ox * spec.stride) as isize - spec.pad_w as isize;
                    let mut acc = 0.0;
                    for ky in 0..spec.k_h {
                        for kx in 0..spec.k_w {
                            acc += wv[wbase + ky * spec.k_w + kx]
                                * read_padded(
                                    &iv[pbase..pbase + plane],
                                    h,
                                    w,
                                    y0 + ky as isize,
                                    x0 + kx as isize,
                                );
                        }
                    }
                    out[(oc * oh + oy) * ow + ox] += acc;
                }
            }
        }
    }
    Ok(Tensor::from_vec(out, &[o, oh, ow])?)
}

/// Depthwise convolution: input `[C, H, W]`, weight `[C, k_h, k_w]` →
/// output `[C, OH, OW]`. Each channel is filtered independently — the
/// operation §III shows is *not* systolic.
///
/// # Errors
///
/// Returns [`NnError::BadInput`] for rank/shape mismatches.
pub fn depthwise2d(input: &Tensor, weight: &Tensor, spec: &Conv2dSpec) -> Result<Tensor, NnError> {
    let id = input.shape().dims();
    let wd = weight.shape().dims();
    if id.len() != 3 {
        return Err(bad_input("depthwise2d", "[C, H, W]", id));
    }
    if wd.len() != 3 || wd[0] != id[0] || wd[1] != spec.k_h || wd[2] != spec.k_w {
        return Err(bad_input("depthwise2d weight", "[C, k_h, k_w]", wd));
    }
    let (c, h, w) = (id[0], id[1], id[2]);
    let (oh, ow) = spec.output_extents(h, w)?;
    let iv = input.as_slice();
    let wv = weight.as_slice();
    let mut out = vec![0.0f32; c * oh * ow];
    let plane = h * w;
    let kplane = spec.k_h * spec.k_w;
    for ch in 0..c {
        let pbase = ch * plane;
        let wbase = ch * kplane;
        for oy in 0..oh {
            for ox in 0..ow {
                let y0 = (oy * spec.stride) as isize - spec.pad_h as isize;
                let x0 = (ox * spec.stride) as isize - spec.pad_w as isize;
                let mut acc = 0.0;
                for ky in 0..spec.k_h {
                    for kx in 0..spec.k_w {
                        acc += wv[wbase + ky * spec.k_w + kx]
                            * read_padded(
                                &iv[pbase..pbase + plane],
                                h,
                                w,
                                y0 + ky as isize,
                                x0 + kx as isize,
                            );
                    }
                }
                out[(ch * oh + oy) * ow + ox] = acc;
            }
        }
    }
    Ok(Tensor::from_vec(out, &[c, oh, ow])?)
}

/// Pointwise (`1×1`) convolution: input `[C, H, W]`, weight `[O, C]` →
/// output `[O, H, W]`. This is a GEMM over channels at every pixel.
///
/// # Errors
///
/// Returns [`NnError::BadInput`] for rank/shape mismatches.
pub fn pointwise(input: &Tensor, weight: &Tensor) -> Result<Tensor, NnError> {
    let id = input.shape().dims();
    let wd = weight.shape().dims();
    if id.len() != 3 {
        return Err(bad_input("pointwise", "[C, H, W]", id));
    }
    if wd.len() != 2 || wd[1] != id[0] {
        return Err(bad_input("pointwise weight", "[O, C]", wd));
    }
    let (c, h, w) = (id[0], id[1], id[2]);
    let o = wd[0];
    let plane = h * w;
    let iv = input.as_slice();
    let wv = weight.as_slice();
    let mut out = vec![0.0f32; o * plane];
    for oc in 0..o {
        for ic in 0..c {
            let wgt = wv[oc * c + ic];
            let src = &iv[ic * plane..(ic + 1) * plane];
            let dst = &mut out[oc * plane..(oc + 1) * plane];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += wgt * s;
            }
        }
    }
    Ok(Tensor::from_vec(out, &[o, h, w])?)
}

fn bad_input(layer: &'static str, expected: &str, actual: &[usize]) -> NnError {
    NnError::BadInput {
        layer,
        expected: expected.to_string(),
        actual: actual.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_tensor::im2col::{conv2d_direct, ConvGeometry};

    fn seq(dims: &[usize], scale: f32) -> Tensor {
        let mut i = 0.0f32;
        Tensor::from_fn(dims, |_| {
            i += 1.0;
            (i * scale) % 5.0 - 2.0
        })
        .unwrap()
    }

    #[test]
    fn conv2d_single_channel_matches_im2col_golden() {
        let input = seq(&[1, 6, 7], 0.7);
        let weight = seq(&[1, 1, 3, 3], 0.3);
        let spec = Conv2dSpec::square(3, 1, 1).unwrap();
        let out = conv2d(&input, &weight, &spec).unwrap();
        let g = ConvGeometry::new(6, 7, 3, 3, 1, 1).unwrap();
        let gold = conv2d_direct(
            &input.reshape(&[6, 7]).unwrap(),
            &weight.reshape(&[3, 3]).unwrap(),
            &g,
        )
        .unwrap();
        assert_eq!(out.shape().dims(), &[1, 6, 7]);
        assert!(out.reshape(&[6, 7]).unwrap().max_abs_diff(&gold).unwrap() < 1e-5);
    }

    #[test]
    fn conv2d_sums_over_input_channels() {
        // Two identical input channels with an all-ones kernel = 2x the
        // single-channel result.
        let one = seq(&[1, 4, 4], 0.9);
        let mut two_data = one.as_slice().to_vec();
        two_data.extend_from_slice(one.as_slice());
        let two = Tensor::from_vec(two_data, &[2, 4, 4]).unwrap();
        let w1 = Tensor::full(&[1, 1, 3, 3], 1.0).unwrap();
        let w2 = Tensor::full(&[1, 2, 3, 3], 1.0).unwrap();
        let spec = Conv2dSpec::square(3, 1, 0).unwrap();
        let o1 = conv2d(&one, &w1, &spec).unwrap();
        let o2 = conv2d(&two, &w2, &spec).unwrap();
        assert!(o2.max_abs_diff(&o1.scale(2.0)).unwrap() < 1e-5);
    }

    #[test]
    fn depthwise_is_independent_per_channel() {
        let input = seq(&[3, 5, 5], 0.61);
        let weight = seq(&[3, 3, 3], 0.37);
        let spec = Conv2dSpec::square(3, 1, 1).unwrap();
        let out = depthwise2d(&input, &weight, &spec).unwrap();
        // Channel 1 computed in isolation must match channel 1 of the batch.
        let in1 = Tensor::from_vec(input.as_slice()[25..50].to_vec(), &[1, 5, 5]).unwrap();
        let w1 = Tensor::from_vec(weight.as_slice()[9..18].to_vec(), &[1, 3, 3]).unwrap();
        let o1 = depthwise2d(&in1, &w1, &spec).unwrap();
        assert_eq!(&out.as_slice()[25..50], o1.as_slice());
    }

    #[test]
    fn pointwise_is_channel_gemm() {
        let input = seq(&[3, 2, 2], 0.43);
        let weight = seq(&[4, 3], 0.77);
        let out = pointwise(&input, &weight).unwrap();
        assert_eq!(out.shape().dims(), &[4, 2, 2]);
        // Check one pixel by hand.
        let pix = |t: &Tensor, c: usize| t.get(&[c, 1, 0]).unwrap();
        for oc in 0..4 {
            let expect: f32 = (0..3)
                .map(|ic| weight.get(&[oc, ic]).unwrap() * pix(&input, ic))
                .sum();
            assert!((pix(&out, oc) - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn pointwise_equals_conv2d_with_1x1_kernel() {
        let input = seq(&[3, 4, 5], 0.59);
        let weight = seq(&[2, 3], 0.83);
        let pw = pointwise(&input, &weight).unwrap();
        let w4 = weight.reshape(&[2, 3, 1, 1]).unwrap();
        let spec = Conv2dSpec::square(1, 1, 0).unwrap();
        let full = conv2d(&input, &w4, &spec).unwrap();
        assert!(pw.max_abs_diff(&full).unwrap() < 1e-5);
    }

    #[test]
    fn row_filter_via_depthwise_spec() {
        // A 1xK row filter with stride 2: output height = ceil(H/2).
        let input = seq(&[2, 7, 8], 0.71);
        let weight = seq(&[2, 1, 3], 0.53);
        let spec = Conv2dSpec::new(1, 3, 2, 0, 1).unwrap();
        let out = depthwise2d(&input, &weight, &spec).unwrap();
        assert_eq!(out.shape().dims(), &[2, 4, 4]);
    }

    #[test]
    fn shape_errors_reported() {
        let input = seq(&[2, 4, 4], 1.0);
        let spec = Conv2dSpec::square(3, 1, 1).unwrap();
        // Wrong weight rank.
        assert!(conv2d(&input, &seq(&[2, 3, 3], 1.0), &spec).is_err());
        // Wrong channel count.
        assert!(depthwise2d(&input, &seq(&[3, 3, 3], 1.0), &spec).is_err());
        // Kernel larger than padded input.
        let big = Conv2dSpec::square(9, 1, 0).unwrap();
        assert!(depthwise2d(&input, &seq(&[2, 9, 9], 1.0), &big).is_err());
        // Bad spec construction.
        assert!(Conv2dSpec::square(3, 0, 1).is_err());
        assert!(Conv2dSpec::new(0, 3, 1, 0, 0).is_err());
    }

    #[test]
    fn stride_subsamples() {
        let input = seq(&[1, 8, 8], 0.91);
        let weight = Tensor::full(&[1, 3, 3], 1.0 / 9.0).unwrap();
        let s1 = Conv2dSpec::square(3, 1, 1).unwrap();
        let s2 = Conv2dSpec::square(3, 2, 1).unwrap();
        let o1 = depthwise2d(&input, &weight, &s1).unwrap();
        let o2 = depthwise2d(&input, &weight, &s2).unwrap();
        assert_eq!(o1.shape().dims(), &[1, 8, 8]);
        assert_eq!(o2.shape().dims(), &[1, 4, 4]);
        // Strided output is a subsampling of the dense output.
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(
                    o2.get(&[0, y, x]).unwrap(),
                    o1.get(&[0, 2 * y, 2 * x]).unwrap()
                );
            }
        }
    }
}
