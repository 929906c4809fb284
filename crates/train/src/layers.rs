//! Trainable layers with hand-derived backward passes.
//!
//! Convolutions support arbitrary strides (the MobileNet downsampling
//! blocks use stride 2); every backward pass — including the strided
//! forms — is validated against central finite differences in this
//! module's tests.

use fuseconv_nn::activation::Activation;
use fuseconv_nn::conv::{conv2d, depthwise2d, pointwise, Conv2dSpec};
use fuseconv_nn::linear::linear;
use fuseconv_nn::pool::{avg_pool, global_avg_pool};
use fuseconv_nn::{FuSeVariant, NnError};
use fuseconv_tensor::rng::Rng;
use fuseconv_tensor::Tensor;

/// A trainable parameter: its value and the gradient accumulated by the
/// most recent backward passes.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Wraps a tensor as a parameter with zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().dims()).expect("value shape is valid");
        Param { value, grad }
    }

    /// Zeroes the accumulated gradient.
    pub fn zero_grad(&mut self) {
        for g in self.grad.as_mut_slice() {
            *g = 0.0;
        }
    }
}

/// He-style uniform initialization: `U(−b, b)` with `b = √(6/fan_in)`.
fn he_uniform(dims: &[usize], fan_in: usize, rng: &mut Rng) -> Tensor {
    let bound = (6.0 / fan_in.max(1) as f64).sqrt() as f32;
    Tensor::from_fn(dims, |_| rng.uniform(-bound, bound)).expect("valid dims")
}

/// A differentiable network stage.
pub trait Layer {
    /// Runs the layer, caching whatever the backward pass needs.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] for shape mismatches.
    fn forward(&mut self, x: &Tensor) -> Result<Tensor, NnError>;

    /// Backpropagates `grad_out`, accumulating into parameter gradients and
    /// returning the gradient with respect to the input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if called before `forward` or with a gradient of
    /// the wrong shape.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError>;

    /// The layer's trainable parameters (possibly none).
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Short human-readable name.
    fn name(&self) -> &'static str;
}

fn not_forwarded(layer: &'static str) -> NnError {
    NnError::BadInput {
        layer,
        expected: "forward before backward".into(),
        actual: vec![],
    }
}

// ---------------------------------------------------------------------------
// Standard convolution (symmetric padding).
// ---------------------------------------------------------------------------

/// Trainable standard convolution.
#[derive(Debug, Clone)]
pub struct Conv2dLayer {
    weight: Param,
    k: usize,
    stride: usize,
    pad: usize,
    cached_input: Option<Tensor>,
}

impl Conv2dLayer {
    /// Creates a stride-1 layer with He-initialized weights.
    pub fn new(in_c: usize, out_c: usize, k: usize, pad: usize, seed: u64) -> Self {
        Self::with_stride(in_c, out_c, k, 1, pad, seed)
    }

    /// Creates a strided layer with He-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn with_stride(
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Self {
        assert!(stride > 0, "stride must be nonzero");
        let mut rng = Rng::seed_from_u64(seed);
        let weight = he_uniform(&[out_c, in_c, k, k], in_c * k * k, &mut rng);
        Conv2dLayer {
            weight: Param::new(weight),
            k,
            stride,
            pad,
            cached_input: None,
        }
    }

    fn spec(&self) -> Conv2dSpec {
        Conv2dSpec::square(self.k, self.stride, self.pad)
            .expect("k, stride validated at construction")
    }
}

impl Layer for Conv2dLayer {
    fn forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        let out = conv2d(x, &self.weight.value, &self.spec())?;
        self.cached_input = Some(x.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or_else(|| not_forwarded("conv2d"))?;
        let xd = x.shape().dims();
        let wd = self.weight.value.shape().dims();
        let (c, h, w) = (xd[0], xd[1], xd[2]);
        let (o, k, pad) = (wd[0], self.k, self.pad);
        let gd = grad_out.shape().dims();
        let (oh, ow) = (gd[1], gd[2]);
        let (xv, wv, gv) = (
            x.as_slice(),
            self.weight.value.as_slice(),
            grad_out.as_slice(),
        );

        let gw = self.weight.grad.as_mut_slice();
        let mut gx = vec![0.0f32; c * h * w];
        for oc in 0..o {
            for ic in 0..c {
                for ky in 0..k {
                    for kx in 0..k {
                        let widx = ((oc * c + ic) * k + ky) * k + kx;
                        let wval = wv[widx];
                        let mut acc = 0.0f32;
                        for oy in 0..oh {
                            let iy = (oy * self.stride) as isize + ky as isize - pad as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            for ox in 0..ow {
                                let ix = (ox * self.stride) as isize + kx as isize - pad as isize;
                                if ix < 0 || ix as usize >= w {
                                    continue;
                                }
                                let g = gv[(oc * oh + oy) * ow + ox];
                                let xi = (ic * h + iy as usize) * w + ix as usize;
                                acc += g * xv[xi];
                                gx[xi] += g * wval;
                            }
                        }
                        gw[widx] += acc;
                    }
                }
            }
        }
        Ok(Tensor::from_vec(gx, &[c, h, w])?)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight]
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }
}

// ---------------------------------------------------------------------------
// Depthwise convolution (per-axis padding — also serves the FuSe 1-D banks
// through k_h/k_w of 1).
// ---------------------------------------------------------------------------

/// Trainable depthwise convolution with independent kernel extents, the
/// building block for both the baseline `K×K` filter and FuSe's `1×K`/`K×1`
/// banks.
#[derive(Debug, Clone)]
pub struct DepthwiseLayer {
    weight: Param,
    k_h: usize,
    k_w: usize,
    stride: usize,
    pad_h: usize,
    pad_w: usize,
    cached_input: Option<Tensor>,
}

impl DepthwiseLayer {
    /// Creates a stride-1 `c`-channel layer with a `k_h×k_w` kernel,
    /// padded to preserve extents for odd kernels.
    pub fn new(c: usize, k_h: usize, k_w: usize, seed: u64) -> Self {
        Self::with_stride(c, k_h, k_w, 1, seed)
    }

    /// Creates a strided layer (the MobileNet downsampling blocks use
    /// stride 2).
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn with_stride(c: usize, k_h: usize, k_w: usize, stride: usize, seed: u64) -> Self {
        assert!(stride > 0, "stride must be nonzero");
        let mut rng = Rng::seed_from_u64(seed);
        let weight = he_uniform(&[c, k_h, k_w], k_h * k_w, &mut rng);
        DepthwiseLayer {
            weight: Param::new(weight),
            k_h,
            k_w,
            stride,
            pad_h: k_h / 2,
            pad_w: k_w / 2,
            cached_input: None,
        }
    }

    fn spec(&self) -> Conv2dSpec {
        Conv2dSpec::new(self.k_h, self.k_w, self.stride, self.pad_h, self.pad_w)
            .expect("kernel validated at construction")
    }
}

impl Layer for DepthwiseLayer {
    fn forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        let out = depthwise2d(x, &self.weight.value, &self.spec())?;
        self.cached_input = Some(x.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or_else(|| not_forwarded("depthwise"))?;
        let xd = x.shape().dims();
        let (c, h, w) = (xd[0], xd[1], xd[2]);
        let gd = grad_out.shape().dims();
        let (oh, ow) = (gd[1], gd[2]);
        let (xv, wv, gv) = (
            x.as_slice(),
            self.weight.value.as_slice(),
            grad_out.as_slice(),
        );
        let gw = self.weight.grad.as_mut_slice();
        let mut gx = vec![0.0f32; c * h * w];
        for ch in 0..c {
            for ky in 0..self.k_h {
                for kx in 0..self.k_w {
                    let widx = (ch * self.k_h + ky) * self.k_w + kx;
                    let wval = wv[widx];
                    let mut acc = 0.0f32;
                    for oy in 0..oh {
                        let iy = (oy * self.stride) as isize + ky as isize - self.pad_h as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        for ox in 0..ow {
                            let ix =
                                (ox * self.stride) as isize + kx as isize - self.pad_w as isize;
                            if ix < 0 || ix as usize >= w {
                                continue;
                            }
                            let g = gv[(ch * oh + oy) * ow + ox];
                            let xi = (ch * h + iy as usize) * w + ix as usize;
                            acc += g * xv[xi];
                            gx[xi] += g * wval;
                        }
                    }
                    gw[widx] += acc;
                }
            }
        }
        Ok(Tensor::from_vec(gx, &[c, h, w])?)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight]
    }

    fn name(&self) -> &'static str {
        "depthwise"
    }
}

// ---------------------------------------------------------------------------
// FuSeConv layer: row + column banks with channel concatenation.
// ---------------------------------------------------------------------------

/// Trainable FuSeConv layer (§IV-A): a `1×K` row bank and a `K×1` column
/// bank whose outputs are concatenated along channels.
#[derive(Debug, Clone)]
pub struct FuseLayer {
    variant: FuSeVariant,
    channels: usize,
    row: DepthwiseLayer,
    col: DepthwiseLayer,
}

impl FuseLayer {
    /// Creates a FuSe layer over `channels` inputs with kernel length `k`.
    ///
    /// # Panics
    ///
    /// Panics if the Half variant is requested with odd `channels` or `k`
    /// is even (odd kernels let the `K/2` padding preserve extents).
    pub fn new(variant: FuSeVariant, channels: usize, k: usize, seed: u64) -> Self {
        Self::with_stride(variant, channels, k, 1, seed)
    }

    /// Creates a strided FuSe layer (drop-in for a strided depthwise).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`FuseLayer::new`], or if
    /// `stride == 0`.
    pub fn with_stride(
        variant: FuSeVariant,
        channels: usize,
        k: usize,
        stride: usize,
        seed: u64,
    ) -> Self {
        assert!(k % 2 == 1, "kernel length must be odd");
        assert!(
            variant == FuSeVariant::Full || channels.is_multiple_of(2),
            "half variant requires even channels"
        );
        let per_bank = channels / variant.d();
        FuseLayer {
            variant,
            channels,
            row: DepthwiseLayer::with_stride(per_bank, 1, k, stride, seed ^ 0x0f0f),
            col: DepthwiseLayer::with_stride(per_bank, k, 1, stride, seed ^ 0xf0f0),
        }
    }

    /// Output channel count.
    pub fn output_channels(&self) -> usize {
        2 * self.channels / self.variant.d()
    }

    fn split(&self, x: &Tensor) -> Result<(Tensor, Tensor), NnError> {
        let d = x.shape().dims();
        let (c, h, w) = (d[0], d[1], d[2]);
        match self.variant {
            FuSeVariant::Full => Ok((x.clone(), x.clone())),
            FuSeVariant::Half => {
                let half = c / 2;
                let plane = h * w;
                let xv = x.as_slice();
                Ok((
                    Tensor::from_vec(xv[..half * plane].to_vec(), &[half, h, w])?,
                    Tensor::from_vec(xv[half * plane..].to_vec(), &[half, h, w])?,
                ))
            }
        }
    }
}

impl Layer for FuseLayer {
    fn forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        let d = x.shape().dims();
        if d.len() != 3 || d[0] != self.channels {
            return Err(NnError::BadInput {
                layer: "fuse",
                expected: format!("[{}, H, W]", self.channels),
                actual: d.to_vec(),
            });
        }
        let (row_in, col_in) = self.split(x)?;
        let row_out = self.row.forward(&row_in)?;
        let col_out = self.col.forward(&col_in)?;
        let rd = row_out.shape().dims().to_vec();
        let cd = col_out.shape().dims().to_vec();
        let mut data = Vec::with_capacity((rd[0] + cd[0]) * rd[1] * rd[2]);
        data.extend_from_slice(row_out.as_slice());
        data.extend_from_slice(col_out.as_slice());
        Ok(Tensor::from_vec(data, &[rd[0] + cd[0], rd[1], rd[2]])?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let d = grad_out.shape().dims();
        let per_bank = self.channels / self.variant.d();
        let (h, w) = (d[1], d[2]);
        let plane = h * w;
        let gv = grad_out.as_slice();
        let g_row = Tensor::from_vec(gv[..per_bank * plane].to_vec(), &[per_bank, h, w])?;
        let g_col = Tensor::from_vec(gv[per_bank * plane..].to_vec(), &[per_bank, h, w])?;
        let gx_row = self.row.backward(&g_row)?;
        let gx_col = self.col.backward(&g_col)?;
        match self.variant {
            FuSeVariant::Full => Ok(gx_row.add(&gx_col)?),
            FuSeVariant::Half => {
                // The input gradients carry the *input* extents, which
                // differ from grad_out's under a stride.
                let gd = gx_row.shape().dims().to_vec();
                let mut data = Vec::with_capacity(self.channels * gd[1] * gd[2]);
                data.extend_from_slice(gx_row.as_slice());
                data.extend_from_slice(gx_col.as_slice());
                Ok(Tensor::from_vec(data, &[self.channels, gd[1], gd[2]])?)
            }
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.row.params_mut();
        p.extend(self.col.params_mut());
        p
    }

    fn name(&self) -> &'static str {
        "fuse"
    }
}

// ---------------------------------------------------------------------------
// Pointwise convolution.
// ---------------------------------------------------------------------------

/// Trainable pointwise (`1×1`) convolution.
#[derive(Debug, Clone)]
pub struct PointwiseLayer {
    weight: Param,
    cached_input: Option<Tensor>,
}

impl PointwiseLayer {
    /// Creates a layer with He-initialized `[out_c, in_c]` weights.
    pub fn new(in_c: usize, out_c: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        PointwiseLayer {
            weight: Param::new(he_uniform(&[out_c, in_c], in_c, &mut rng)),
            cached_input: None,
        }
    }
}

impl Layer for PointwiseLayer {
    fn forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        let out = pointwise(x, &self.weight.value)?;
        self.cached_input = Some(x.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or_else(|| not_forwarded("pointwise"))?;
        let xd = x.shape().dims();
        let (c, h, w) = (xd[0], xd[1], xd[2]);
        let o = self.weight.value.shape().dims()[0];
        let plane = h * w;
        let (xv, wv, gv) = (
            x.as_slice(),
            self.weight.value.as_slice(),
            grad_out.as_slice(),
        );
        let gw = self.weight.grad.as_mut_slice();
        let mut gx = vec![0.0f32; c * plane];
        for oc in 0..o {
            let grow = &gv[oc * plane..(oc + 1) * plane];
            for ic in 0..c {
                let xrow = &xv[ic * plane..(ic + 1) * plane];
                let mut acc = 0.0f32;
                for (g, xval) in grow.iter().zip(xrow) {
                    acc += g * xval;
                }
                gw[oc * c + ic] += acc;
                let wval = wv[oc * c + ic];
                for (slot, g) in gx[ic * plane..(ic + 1) * plane].iter_mut().zip(grow) {
                    *slot += wval * g;
                }
            }
        }
        Ok(Tensor::from_vec(gx, &[c, h, w])?)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight]
    }

    fn name(&self) -> &'static str {
        "pointwise"
    }
}

// ---------------------------------------------------------------------------
// Dense, activation and pooling layers.
// ---------------------------------------------------------------------------

/// Per-channel normalization over the spatial dimensions with learned
/// scale and shift (instance normalization). In this per-sample trainer it
/// stands in for the batch normalization the paper's networks use; the
/// backward pass is the textbook batch-norm gradient with the spatial
/// extent as the reduction set.
#[derive(Debug, Clone)]
pub struct ChannelNormLayer {
    gamma: Param,
    beta: Param,
    eps: f32,
    cache: Option<NormCache>,
}

#[derive(Debug, Clone)]
struct NormCache {
    dims: Vec<usize>,
    normalized: Vec<f32>,
    inv_std: Vec<f32>,
}

impl ChannelNormLayer {
    /// Creates a `c`-channel normalization with γ = 1, β = 0.
    pub fn new(c: usize) -> Self {
        ChannelNormLayer {
            gamma: Param::new(Tensor::full(&[c], 1.0).expect("c > 0")),
            beta: Param::new(Tensor::zeros(&[c]).expect("c > 0")),
            eps: 1e-5,
            cache: None,
        }
    }

    fn channels(&self) -> usize {
        self.gamma.value.shape().dims()[0]
    }
}

impl Layer for ChannelNormLayer {
    fn forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        let d = x.shape().dims();
        if d.len() != 3 || d[0] != self.channels() {
            return Err(NnError::BadInput {
                layer: "channel_norm",
                expected: format!("[{}, H, W]", self.channels()),
                actual: d.to_vec(),
            });
        }
        let (c, h, w) = (d[0], d[1], d[2]);
        let plane = h * w;
        let xv = x.as_slice();
        let mut out = vec![0.0f32; c * plane];
        let mut normalized = vec![0.0f32; c * plane];
        let mut inv_std = vec![0.0f32; c];
        for ch in 0..c {
            let slice = &xv[ch * plane..(ch + 1) * plane];
            let mean: f32 = slice.iter().sum::<f32>() / plane as f32;
            let var: f32 = slice.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / plane as f32;
            let istd = 1.0 / (var + self.eps).sqrt();
            inv_std[ch] = istd;
            let (g, b) = (
                self.gamma.value.as_slice()[ch],
                self.beta.value.as_slice()[ch],
            );
            for i in 0..plane {
                let xhat = (slice[i] - mean) * istd;
                normalized[ch * plane + i] = xhat;
                out[ch * plane + i] = g * xhat + b;
            }
        }
        self.cache = Some(NormCache {
            dims: d.to_vec(),
            normalized,
            inv_std,
        });
        Ok(Tensor::from_vec(out, d)?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let cache = self
            .cache
            .as_ref()
            .ok_or_else(|| not_forwarded("channel_norm"))?;
        let (c, h, w) = (cache.dims[0], cache.dims[1], cache.dims[2]);
        let plane = h * w;
        let n = plane as f32;
        let gv = grad_out.as_slice();
        let gamma = self.gamma.value.as_slice().to_vec();
        let ggamma = self.gamma.grad.as_mut_slice();
        let gbeta = self.beta.grad.as_mut_slice();
        let mut gx = vec![0.0f32; c * plane];
        for ch in 0..c {
            let dy = &gv[ch * plane..(ch + 1) * plane];
            let xhat = &cache.normalized[ch * plane..(ch + 1) * plane];
            let sum_dy: f32 = dy.iter().sum();
            let sum_dy_xhat: f32 = dy.iter().zip(xhat).map(|(a, b)| a * b).sum();
            gbeta[ch] += sum_dy;
            ggamma[ch] += sum_dy_xhat;
            // dx = γ·istd/N · (N·dy − Σdy − x̂·Σ(dy·x̂))
            let scale = gamma[ch] * cache.inv_std[ch] / n;
            for i in 0..plane {
                gx[ch * plane + i] = scale * (n * dy[i] - sum_dy - xhat[i] * sum_dy_xhat);
            }
        }
        Ok(Tensor::from_vec(gx, &cache.dims)?)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn name(&self) -> &'static str {
        "channel_norm"
    }
}

/// Trainable fully-connected layer over a flattened input.
#[derive(Debug, Clone)]
pub struct DenseLayer {
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl DenseLayer {
    /// Creates an `in_f → out_f` layer.
    pub fn new(in_f: usize, out_f: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        DenseLayer {
            weight: Param::new(he_uniform(&[out_f, in_f], in_f, &mut rng)),
            bias: Param::new(Tensor::zeros(&[out_f]).expect("out_f > 0")),
            cached_input: None,
        }
    }
}

impl Layer for DenseLayer {
    fn forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        let flat = x.reshape(&[x.shape().volume()])?;
        let out = linear(&flat, &self.weight.value, Some(&self.bias.value))?;
        self.cached_input = Some(x.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or_else(|| not_forwarded("dense"))?;
        let n = x.shape().volume();
        let o = self.weight.value.shape().dims()[0];
        let xv = x.as_slice();
        let gv = grad_out.as_slice();
        let wv = self.weight.value.as_slice();
        let gw = self.weight.grad.as_mut_slice();
        let gb = self.bias.grad.as_mut_slice();
        let mut gx = vec![0.0f32; n];
        for oc in 0..o {
            gb[oc] += gv[oc];
            for i in 0..n {
                gw[oc * n + i] += gv[oc] * xv[i];
                gx[i] += gv[oc] * wv[oc * n + i];
            }
        }
        Ok(Tensor::from_vec(gx, x.shape().dims())?)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &'static str {
        "dense"
    }
}

/// Element-wise activation layer.
#[derive(Debug, Clone)]
pub struct ActivationLayer {
    act: Activation,
    cached_input: Option<Tensor>,
}

impl ActivationLayer {
    /// Creates an activation layer.
    pub fn new(act: Activation) -> Self {
        ActivationLayer {
            act,
            cached_input: None,
        }
    }

    /// The ubiquitous ReLU.
    pub fn relu() -> Self {
        Self::new(Activation::Relu)
    }
}

impl Layer for ActivationLayer {
    fn forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        self.cached_input = Some(x.clone());
        Ok(self.act.apply(x))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or_else(|| not_forwarded("activation"))?;
        let deriv = x.map(|v| self.act.derivative_scalar(v));
        Ok(grad_out.mul(&deriv)?)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![]
    }

    fn name(&self) -> &'static str {
        "activation"
    }
}

/// Global average pooling layer: `[C, H, W] → [C]`.
#[derive(Debug, Clone, Default)]
pub struct GlobalPoolLayer {
    cached_dims: Option<Vec<usize>>,
}

impl GlobalPoolLayer {
    /// Creates the layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalPoolLayer {
    fn forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        let out = global_avg_pool(x)?;
        self.cached_dims = Some(x.shape().dims().to_vec());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let dims = self
            .cached_dims
            .as_ref()
            .ok_or_else(|| not_forwarded("global_pool"))?;
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        let norm = 1.0 / (h * w) as f32;
        let gv = grad_out.as_slice();
        let mut gx = vec![0.0f32; c * h * w];
        for ch in 0..c {
            let g = gv[ch] * norm;
            for slot in &mut gx[ch * h * w..(ch + 1) * h * w] {
                *slot = g;
            }
        }
        Ok(Tensor::from_vec(gx, dims)?)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![]
    }

    fn name(&self) -> &'static str {
        "global_pool"
    }
}

/// Non-overlapping `k×k` average pooling layer.
#[derive(Debug, Clone)]
pub struct AvgPoolLayer {
    k: usize,
    cached_dims: Option<Vec<usize>>,
}

impl AvgPoolLayer {
    /// Creates a pooling layer with window `k`.
    pub fn new(k: usize) -> Self {
        AvgPoolLayer {
            k,
            cached_dims: None,
        }
    }
}

impl Layer for AvgPoolLayer {
    fn forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        let out = avg_pool(x, self.k)?;
        self.cached_dims = Some(x.shape().dims().to_vec());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let dims = self
            .cached_dims
            .as_ref()
            .ok_or_else(|| not_forwarded("avg_pool"))?;
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        let k = self.k;
        let (oh, ow) = (h / k, w / k);
        let norm = 1.0 / (k * k) as f32;
        let gv = grad_out.as_slice();
        let mut gx = vec![0.0f32; c * h * w];
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = gv[(ch * oh + oy) * ow + ox] * norm;
                    for dy in 0..k {
                        for dx in 0..k {
                            gx[(ch * h + oy * k + dy) * w + ox * k + dx] = g;
                        }
                    }
                }
            }
        }
        Ok(Tensor::from_vec(gx, dims)?)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![]
    }

    fn name(&self) -> &'static str {
        "avg_pool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_nn::ops::{Axis1d, Op};

    /// Central finite-difference gradient check: perturb every weight and
    /// every input element, compare the loss delta against the analytic
    /// gradient. Loss is `Σ out·coef` for fixed pseudo-random coefficients
    /// so grad_out is simply `coef`.
    fn grad_check<L: Layer>(layer: &mut L, input_dims: &[usize], seed: u64) {
        let mut rng = Rng::seed_from_u64(seed);
        let x = Tensor::from_fn(input_dims, |_| rng.uniform(-1.0, 1.0)).unwrap();
        let out = layer.forward(&x).unwrap();
        let coef = {
            let mut r2 = Rng::seed_from_u64(seed ^ 0xdead);
            Tensor::from_fn(out.shape().dims(), |_| r2.uniform(-1.0, 1.0)).unwrap()
        };
        let gx = layer.backward(&coef).unwrap();

        let loss = |layer: &mut L, x: &Tensor| -> f32 {
            layer.forward(x).unwrap().mul(&coef).unwrap().sum()
        };

        // Input gradient check (sampled to bound runtime).
        let eps = 1e-2f32;
        let stride = (x.shape().volume() / 24).max(1);
        for i in (0..x.shape().volume()).step_by(stride) {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fd = (loss(layer, &xp) - loss(layer, &xm)) / (2.0 * eps);
            let an = gx.as_slice()[i];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs().max(an.abs())),
                "{}: input grad [{i}] fd={fd} analytic={an}",
                layer.name()
            );
        }

        // Weight gradient check. Re-run forward/backward to leave caches
        // consistent, then perturb each sampled weight.
        let _ = layer.forward(&x).unwrap();
        for p in layer.params_mut() {
            p.zero_grad();
        }
        let _ = layer.forward(&x).unwrap();
        let _ = layer.backward(&coef).unwrap();
        let param_count = layer.params_mut().len();
        for pi in 0..param_count {
            let (vol, grads) = {
                let mut ps = layer.params_mut();
                let p = &mut ps[pi];
                (p.value.shape().volume(), p.grad.as_slice().to_vec())
            };
            let wstride = (vol / 16).max(1);
            for wi in (0..vol).step_by(wstride) {
                let bump = |layer: &mut L, delta: f32| {
                    let mut ps = layer.params_mut();
                    ps[pi].value.as_mut_slice()[wi] += delta;
                };
                bump(layer, eps);
                let fp = loss(layer, &x);
                bump(layer, -2.0 * eps);
                let fm = loss(layer, &x);
                bump(layer, eps);
                let fd = (fp - fm) / (2.0 * eps);
                let an = grads[wi];
                assert!(
                    (fd - an).abs() < 2e-2 * (1.0 + fd.abs().max(an.abs())),
                    "{}: weight grad p{pi}[{wi}] fd={fd} analytic={an}",
                    layer.name()
                );
            }
        }
    }

    #[test]
    fn conv2d_gradients() {
        grad_check(&mut Conv2dLayer::new(2, 3, 3, 1, 1), &[2, 5, 5], 11);
    }

    #[test]
    fn conv2d_unpadded_gradients() {
        grad_check(&mut Conv2dLayer::new(1, 2, 3, 0, 2), &[1, 6, 6], 12);
    }

    #[test]
    fn depthwise_gradients() {
        grad_check(&mut DepthwiseLayer::new(3, 3, 3, 3), &[3, 5, 5], 13);
    }

    #[test]
    fn depthwise_row_kernel_gradients() {
        grad_check(&mut DepthwiseLayer::new(2, 1, 3, 4), &[2, 4, 6], 14);
    }

    #[test]
    fn depthwise_col_kernel_gradients() {
        grad_check(&mut DepthwiseLayer::new(2, 3, 1, 5), &[2, 6, 4], 15);
    }

    #[test]
    fn fuse_full_gradients() {
        grad_check(
            &mut FuseLayer::new(FuSeVariant::Full, 2, 3, 6),
            &[2, 5, 5],
            16,
        );
    }

    #[test]
    fn fuse_half_gradients() {
        grad_check(
            &mut FuseLayer::new(FuSeVariant::Half, 4, 3, 7),
            &[4, 5, 5],
            17,
        );
    }

    #[test]
    fn pointwise_gradients() {
        grad_check(&mut PointwiseLayer::new(3, 4, 8), &[3, 4, 4], 18);
    }

    #[test]
    fn dense_gradients() {
        grad_check(&mut DenseLayer::new(12, 5, 9), &[12], 19);
    }

    #[test]
    fn relu_gradients() {
        // Seed chosen so no sampled input lands within the finite-difference
        // eps of ReLU's kink at 0 (where fd and analytic legitimately
        // disagree).
        grad_check(&mut ActivationLayer::relu(), &[3, 4, 4], 24);
    }

    #[test]
    fn hswish_gradients() {
        grad_check(
            &mut ActivationLayer::new(Activation::HSwish),
            &[2, 3, 3],
            21,
        );
    }

    #[test]
    fn global_pool_gradients() {
        grad_check(&mut GlobalPoolLayer::new(), &[3, 4, 4], 22);
    }

    #[test]
    fn avg_pool_gradients() {
        grad_check(&mut AvgPoolLayer::new(2), &[2, 6, 6], 23);
    }

    #[test]
    fn strided_conv2d_gradients() {
        grad_check(
            &mut Conv2dLayer::with_stride(2, 3, 3, 2, 1, 31),
            &[2, 7, 7],
            31,
        );
    }

    #[test]
    fn strided_depthwise_gradients() {
        grad_check(
            &mut DepthwiseLayer::with_stride(3, 3, 3, 2, 32),
            &[3, 7, 7],
            32,
        );
    }

    #[test]
    fn strided_fuse_gradients() {
        grad_check(
            &mut FuseLayer::with_stride(FuSeVariant::Half, 4, 3, 2, 33),
            &[4, 6, 6],
            33,
        );
    }

    #[test]
    fn strided_layers_downsample() {
        let mut l = DepthwiseLayer::with_stride(2, 3, 3, 2, 0);
        let x = Tensor::zeros(&[2, 8, 8]).unwrap();
        assert_eq!(l.forward(&x).unwrap().shape().dims(), &[2, 4, 4]);
        let mut f = FuseLayer::with_stride(FuSeVariant::Full, 2, 3, 2, 0);
        assert_eq!(f.forward(&x).unwrap().shape().dims(), &[4, 4, 4]);
    }

    #[test]
    fn channel_norm_gradients() {
        grad_check(&mut ChannelNormLayer::new(3), &[3, 4, 4], 24);
    }

    #[test]
    fn channel_norm_standardizes_each_channel() {
        let mut layer = ChannelNormLayer::new(2);
        let x = Tensor::from_fn(&[2, 3, 3], |ix| (ix[0] * 10 + ix[1] * 3 + ix[2]) as f32).unwrap();
        let y = layer.forward(&x).unwrap();
        for ch in 0..2 {
            let vals: Vec<f32> = (0..9).map(|i| y.as_slice()[ch * 9 + i]).collect();
            let mean: f32 = vals.iter().sum::<f32>() / 9.0;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 9.0;
            assert!(mean.abs() < 1e-5, "channel {ch} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "channel {ch} var {var}");
        }
    }

    #[test]
    fn channel_norm_validates_channels() {
        let mut layer = ChannelNormLayer::new(2);
        assert!(layer.forward(&Tensor::zeros(&[3, 2, 2]).unwrap()).is_err());
        assert!(layer.backward(&Tensor::zeros(&[2, 2, 2]).unwrap()).is_err());
        assert_eq!(layer.params_mut().len(), 2);
    }

    #[test]
    fn backward_before_forward_errors() {
        let g = Tensor::zeros(&[2, 3, 3]).unwrap();
        assert!(Conv2dLayer::new(2, 2, 3, 1, 0).backward(&g).is_err());
        assert!(DepthwiseLayer::new(2, 3, 3, 0).backward(&g).is_err());
        assert!(PointwiseLayer::new(2, 2, 0).backward(&g).is_err());
        assert!(GlobalPoolLayer::new().backward(&g).is_err());
    }

    #[test]
    fn fuse_layer_shapes() {
        let mut full = FuseLayer::new(FuSeVariant::Full, 4, 3, 0);
        let x = Tensor::zeros(&[4, 6, 6]).unwrap();
        assert_eq!(full.forward(&x).unwrap().shape().dims(), &[8, 6, 6]);
        assert_eq!(full.output_channels(), 8);
        let mut half = FuseLayer::new(FuSeVariant::Half, 4, 3, 0);
        assert_eq!(half.forward(&x).unwrap().shape().dims(), &[4, 6, 6]);
        assert_eq!(half.params_mut().len(), 2);
    }

    #[test]
    #[should_panic(expected = "even channels")]
    fn fuse_half_odd_channels_panics() {
        let _ = FuseLayer::new(FuSeVariant::Half, 3, 3, 0);
    }

    /// A deterministic ramp folded into `[-1, 2)`.
    fn seq_tensor(dims: &[usize], scale: f32) -> Tensor {
        let mut i = 0.0f32;
        Tensor::from_fn(dims, |_| {
            i += 1.0;
            (i * scale) % 3.0 - 1.0
        })
        .unwrap()
    }

    /// A FuSe layer with the given row and column banks.
    fn fuse_with(
        variant: FuSeVariant,
        c: usize,
        stride: usize,
        row: Tensor,
        col: Tensor,
    ) -> FuseLayer {
        let k = row.shape().dims()[2];
        let mut layer = FuseLayer::with_stride(variant, c, k, stride, 0);
        let mut banks = layer.params_mut();
        banks[0].value = row;
        banks[1].value = col;
        layer
    }

    /// A FuSe layer with ramp weights.
    fn fuse_seq(variant: FuSeVariant, c: usize, k: usize, stride: usize) -> FuseLayer {
        let per_bank = c / variant.d();
        let row = seq_tensor(&[per_bank, 1, k], 0.37);
        let col = seq_tensor(&[per_bank, k, 1], 0.53);
        fuse_with(variant, c, stride, row, col)
    }

    /// The two `Op::fuse1d` descriptors of a FuSe layer over `h×w`.
    fn fuse_ops(variant: FuSeVariant, c: usize, k: usize, s: usize, h: usize, w: usize) -> [Op; 2] {
        let per_bank = c / variant.d();
        [Axis1d::Row, Axis1d::Col].map(|axis| Op::fuse1d(h, w, per_bank, k, s, k / 2, axis))
    }

    #[test]
    fn fuse_full_variant_doubles_channels() {
        let mut l = fuse_seq(FuSeVariant::Full, 4, 3, 1);
        let y = l.forward(&seq_tensor(&[4, 6, 6], 0.71)).unwrap();
        assert_eq!(y.shape().dims(), &[8, 6, 6]);
        assert_eq!(l.output_channels(), 8);
    }

    #[test]
    fn fuse_half_variant_keeps_channels() {
        let mut l = fuse_seq(FuSeVariant::Half, 4, 3, 1);
        let y = l.forward(&seq_tensor(&[4, 6, 6], 0.71)).unwrap();
        assert_eq!(y.shape().dims(), &[4, 6, 6]);
        assert_eq!(l.output_channels(), 4);
    }

    #[test]
    fn fuse_forward_matches_manual_1d_convolutions() {
        // Full variant, channel 1's row output must equal a hand-rolled 1-D
        // convolution of each image row.
        let mut l = fuse_seq(FuSeVariant::Full, 2, 3, 1);
        let x = seq_tensor(&[2, 4, 5], 0.93);
        let y = l.forward(&x).unwrap();
        let k: Vec<f32> = l.params_mut()[0].value.as_slice()[3..6].to_vec(); // channel 1
        for row in 0..4 {
            for col in 0..5 {
                let mut acc = 0.0;
                for (t, kv) in k.iter().enumerate() {
                    let xi = col as isize + t as isize - 1; // pad 1
                    if xi >= 0 && (xi as usize) < 5 {
                        acc += kv * x.get(&[1, row, xi as usize]).unwrap();
                    }
                }
                let got = y.get(&[1, row, col]).unwrap();
                assert!((got - acc).abs() < 1e-5, "row {row} col {col}");
            }
        }
    }

    #[test]
    fn fuse_column_bank_is_transposed_row_bank() {
        // With col weights equal to row weights, running on a transposed
        // input transposes the output.
        let c = 2;
        let row_w = seq_tensor(&[c, 1, 3], 0.41);
        let col_w = row_w.reshape(&[c, 3, 1]).unwrap();
        let mut l = fuse_with(FuSeVariant::Full, c, 1, row_w, col_w);
        let x = seq_tensor(&[c, 5, 5], 0.87);
        let xt = Tensor::from_fn(&[c, 5, 5], |ix| x.get(&[ix[0], ix[2], ix[1]]).unwrap()).unwrap();
        let y = l.forward(&x).unwrap();
        let yt = l.forward(&xt).unwrap();
        // Row output of x == transposed col output of xt.
        for ch in 0..c {
            for a in 0..5 {
                for b in 0..5 {
                    let row_xy = y.get(&[ch, a, b]).unwrap();
                    let col_xty = yt.get(&[c + ch, b, a]).unwrap();
                    assert!((row_xy - col_xty).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn fuse_stride_two_matches_descriptor_shapes() {
        for variant in [FuSeVariant::Full, FuSeVariant::Half] {
            let mut l = fuse_seq(variant, 4, 3, 2);
            let y = l.forward(&seq_tensor(&[4, 7, 9], 0.67)).unwrap();
            let [row, col] = fuse_ops(variant, 4, 3, 2, 7, 9);
            let (oh, ow, oc) = row.output_shape();
            assert_eq!(col.output_shape(), (oh, ow, oc));
            assert_eq!(y.shape().dims(), &[l.output_channels(), oh, ow]);
            assert_eq!(l.output_channels(), 2 * oc);
        }
    }

    #[test]
    fn fuse_parameter_count_follows_paper_formula() {
        // Params of the depthwise part: (2/D)·C·K, as the descriptors say.
        for (variant, c, k) in [(FuSeVariant::Full, 8, 3), (FuSeVariant::Half, 8, 5)] {
            let mut l = fuse_seq(variant, c, k, 1);
            let params: usize = l
                .params_mut()
                .iter()
                .map(|p| p.value.shape().volume())
                .sum();
            let described: u64 = fuse_ops(variant, c, k, 1, 16, 16)
                .iter()
                .map(Op::params)
                .sum();
            assert_eq!(params, 2 * c * k / variant.d());
            assert_eq!(params as u64, described);
        }
    }

    #[test]
    fn fuse_rejects_wrong_input_channels() {
        let mut l = FuseLayer::new(FuSeVariant::Full, 2, 3, 0);
        assert!(l.forward(&Tensor::zeros(&[3, 4, 4]).unwrap()).is_err());
        assert!(l.forward(&Tensor::zeros(&[2, 4]).unwrap()).is_err());
    }
}
