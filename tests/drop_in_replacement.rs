//! The drop-in-replacement contract (§IV-A): a FuSeConv block consumes and
//! produces exactly the shapes of the depthwise-separable block it
//! replaces, across every block of every network, and the analytical
//! descriptors agree with the functional layers.

mod common;

use fuseconv::models::{zoo, Block};
use fuseconv::nn::conv::{depthwise2d, pointwise, Conv2dSpec};
use fuseconv::nn::ops::Op;
use fuseconv::nn::FuSeVariant;
use fuseconv::tensor::Tensor;
use fuseconv::train::layers::{FuseLayer, Layer};

/// A FuSe layer whose filters are all `value`.
fn constant_fuse(variant: FuSeVariant, c: usize, k: usize, stride: usize, value: f32) -> FuseLayer {
    let per_bank = c / variant.d();
    let row = Tensor::full(&[per_bank, 1, k], value).unwrap();
    let col = Tensor::full(&[per_bank, k, 1], value).unwrap();
    common::fuse_layer(variant, c, stride, row, col)
}

/// Every separable block in every network keeps its end-to-end output
/// shape under both FuSe transforms.
#[test]
fn all_blocks_preserve_shapes_under_transform() {
    for net in zoo::all_baselines() {
        for variant in [FuSeVariant::Full, FuSeVariant::Half] {
            let fused = net.transform_all(variant);
            assert_eq!(net.blocks().len(), fused.blocks().len());
            for ((_, base), (_, repl)) in net.blocks().iter().zip(fused.blocks()) {
                let base_out = base.ops().last().unwrap().output_shape();
                let repl_out = repl.ops().last().unwrap().output_shape();
                assert_eq!(
                    base_out,
                    repl_out,
                    "{net}: {base} vs {repl}",
                    net = net.name()
                );
            }
        }
    }
}

/// The paper's op-count formulas hold for every transformed block:
/// depthwise-separable N·M·C·(K²+C′) becomes (2/D)·N·M·C·(K+C′).
#[test]
fn op_count_formulas_hold_per_block() {
    for net in zoo::all_baselines() {
        for (_, block) in net.blocks() {
            let Block::Separable(sep) = block else {
                continue;
            };
            // Only blocks without SE and without expansion match the bare
            // closed forms (SE/expansion add identical terms to both sides,
            // so check the difference instead).
            let base_macs: u64 = block.ops().iter().map(Op::macs).sum();
            for variant in [FuSeVariant::Full, FuSeVariant::Half] {
                let fused = block.fused(variant);
                let fused_macs: u64 = fused.ops().iter().map(Op::macs).sum();
                let (oh, ow) = sep.out_hw();
                let nm = (oh * ow) as u64;
                let c = sep.exp_c as u64;
                let k = sep.k as u64;
                let cp = sep.out_c as u64;
                let d = variant.d() as u64;
                // Baseline spatial+project: N·M·C·K² + N·M·C·C′;
                // FuSe spatial+project: (2/D)·N·M·C·K + (2/D)·N·M·C·C′.
                let expect_delta = (nm * c * k * k + nm * c * cp) as i128
                    - ((2 * nm * c * k) / d + (2 * nm * c * cp) / d) as i128;
                let se_delta = if let Some(div) = sep.se_div {
                    // SE widths change from C to 2C/D.
                    let base_r = (sep.exp_c / div).max(1) as i128;
                    let fuse_c = (2 * sep.exp_c / variant.d()) as i128;
                    let fuse_r = (2 * sep.exp_c / variant.d() / div).max(1) as i128;
                    2 * (c as i128 * base_r - fuse_c * fuse_r)
                } else {
                    0
                };
                let actual_delta = base_macs as i128 - fused_macs as i128;
                assert_eq!(
                    actual_delta,
                    expect_delta + se_delta,
                    "{}: {} {:?}",
                    net.name(),
                    block,
                    variant
                );
            }
        }
    }
}

/// Functionally: FuSe layer + pointwise is executable wherever depthwise +
/// pointwise was, on real tensors.
#[test]
fn functional_drop_in_on_real_tensors() {
    let (c, c_out, h, w, k) = (8usize, 12usize, 10usize, 10usize, 3usize);
    let input = Tensor::from_fn(&[c, h, w], |ix| {
        ((ix[0] * 31 + ix[1] * 7 + ix[2]) % 11) as f32 * 0.1 - 0.5
    })
    .unwrap();

    // Baseline block.
    let dw_w = Tensor::full(&[c, k, k], 0.1).unwrap();
    let spec = Conv2dSpec::square(k, 1, k / 2).unwrap();
    let dw_out = depthwise2d(&input, &dw_w, &spec).unwrap();
    let pw_w = Tensor::full(&[c_out, c], 0.05).unwrap();
    let base_out = pointwise(&dw_out, &pw_w).unwrap();

    // Full-variant block: pointwise widens to 2C inputs.
    let mut fuse = constant_fuse(FuSeVariant::Full, c, k, 1, 0.1);
    let fuse_mid = fuse.forward(&input).unwrap();
    let pw_w_full = Tensor::full(&[c_out, 2 * c], 0.05).unwrap();
    let full_out = pointwise(&fuse_mid, &pw_w_full).unwrap();

    // Half-variant block: pointwise keeps C inputs.
    let mut fuse_h = constant_fuse(FuSeVariant::Half, c, k, 1, 0.1);
    let half_mid = fuse_h.forward(&input).unwrap();
    let half_out = pointwise(&half_mid, &pw_w).unwrap();

    assert_eq!(base_out.shape(), full_out.shape());
    assert_eq!(base_out.shape(), half_out.shape());
}

/// Strided blocks keep their downsampled shape under the transform.
#[test]
fn strided_drop_in_shapes() {
    for (h, w, k, s) in [(12usize, 12usize, 3usize, 2usize), (14, 10, 5, 2)] {
        let c = 4;
        let input = Tensor::full(&[c, h, w], 1.0).unwrap();
        let dw_w = Tensor::full(&[c, k, k], 1.0).unwrap();
        let spec = Conv2dSpec::square(k, s, k / 2).unwrap();
        let dw_out = depthwise2d(&input, &dw_w, &spec).unwrap();
        let mut fuse = constant_fuse(FuSeVariant::Half, c, k, s, 1.0);
        let fuse_out = fuse.forward(&input).unwrap();
        assert_eq!(
            dw_out.shape().dims(),
            fuse_out.shape().dims(),
            "h={h} w={w} k={k} s={s}"
        );
    }
}
