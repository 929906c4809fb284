//! FP16 inference checks (§V-A-2 uses FP16 for weights and activations):
//! running the functional layers with FP16-rounded weights, activations and
//! intermediate results stays close to FP32 — for the baseline depthwise
//! block *and* its FuSe replacements, so the numeric format does not
//! confound the drop-in substitution.

mod common;

use fuseconv::nn::conv::{depthwise2d, pointwise, Conv2dSpec};
use fuseconv::nn::FuSeVariant;
use fuseconv::tensor::half::{quantize_f16, quantize_tensor_f16};
use fuseconv::tensor::Tensor;
use fuseconv::train::layers::Layer;

fn pseudo(dims: &[usize], seed: u64, scale: f32) -> Tensor {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(17);
    Tensor::from_fn(dims, |_| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (((state >> 40) as f32 / (1u32 << 24) as f32) - 0.5) * scale
    })
    .unwrap()
}

/// Relative error of an FP16 pipeline against its FP32 reference.
fn rel_error(fp32: &Tensor, fp16: &Tensor) -> f32 {
    let scale = fp32
        .as_slice()
        .iter()
        .fold(0.0f32, |m, &x| m.max(x.abs()))
        .max(1e-6);
    fp32.max_abs_diff(fp16).unwrap() / scale
}

#[test]
fn depthwise_block_fp16_error_is_small() {
    let (c, h, w, k, c_out) = (8usize, 12usize, 12usize, 3usize, 16usize);
    let input = pseudo(&[c, h, w], 1, 2.0);
    let dw_w = pseudo(&[c, k, k], 2, 0.5);
    let pw_w = pseudo(&[c_out, c], 3, 0.5);
    let spec = Conv2dSpec::square(k, 1, 1).unwrap();

    let fp32 = pointwise(&depthwise2d(&input, &dw_w, &spec).unwrap(), &pw_w).unwrap();

    let mid = quantize_tensor_f16(
        &depthwise2d(
            &quantize_tensor_f16(&input),
            &quantize_tensor_f16(&dw_w),
            &spec,
        )
        .unwrap(),
    );
    let fp16 = quantize_tensor_f16(&pointwise(&mid, &quantize_tensor_f16(&pw_w)).unwrap());

    let err = rel_error(&fp32, &fp16);
    assert!(err < 5e-3, "fp16 relative error {err}");
}

#[test]
fn fuse_blocks_fp16_error_matches_baseline_scale() {
    let (c, h, w, k, c_out) = (8usize, 12usize, 12usize, 3usize, 16usize);
    let input = pseudo(&[c, h, w], 4, 2.0);
    for variant in [FuSeVariant::Full, FuSeVariant::Half] {
        let per_bank = c / variant.d();
        let row_w = pseudo(&[per_bank, 1, k], 5, 0.5);
        let col_w = pseudo(&[per_bank, k, 1], 6, 0.5);
        let (q_row, q_col) = (quantize_tensor_f16(&row_w), quantize_tensor_f16(&col_w));
        let mut layer = common::fuse_layer(variant, c, 1, row_w, col_w);
        let mid_c = layer.output_channels();
        let pw_w = pseudo(&[c_out, mid_c], 7, 0.5);

        let fp32 = pointwise(&layer.forward(&input).unwrap(), &pw_w).unwrap();

        let mut q_layer = common::fuse_layer(variant, c, 1, q_row, q_col);
        let mid = quantize_tensor_f16(&q_layer.forward(&quantize_tensor_f16(&input)).unwrap());
        let fp16 = quantize_tensor_f16(&pointwise(&mid, &quantize_tensor_f16(&pw_w)).unwrap());

        let err = rel_error(&fp32, &fp16);
        assert!(err < 5e-3, "{variant:?}: fp16 relative error {err}");
    }
}

#[test]
fn quantization_commutes_with_channel_concat() {
    // Quantizing before or after the FuSe channel concatenation is the
    // same operation (quantization is element-wise) — a structural
    // invariant of the Full-variant layout.
    let row = Tensor::full(&[4, 1, 3], 0.337).unwrap();
    let col = Tensor::full(&[4, 3, 1], 0.337).unwrap();
    let mut layer = common::fuse_layer(FuSeVariant::Full, 4, 1, row, col);
    let x = pseudo(&[4, 6, 6], 8, 1.5);
    let out = layer.forward(&x).unwrap();
    let q_then = quantize_tensor_f16(&out);
    // Element-wise identity check on a few positions.
    for idx in [[0usize, 0, 0], [3, 2, 4], [7, 5, 5]] {
        let v = out.get(&idx).unwrap();
        assert_eq!(q_then.get(&idx).unwrap(), quantize_f16(v));
    }
}
