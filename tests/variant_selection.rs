//! Pins the 50 % variants' block selection (§V-A-1: fuse "the layers
//! with the maximum latency benefit") to the algorithm stated the long
//! way: fuse each replaceable block alone, re-estimate the whole
//! network, read that block's cycles back, and fuse the half with the
//! largest savings (ties to the lower block index).
//!
//! `apply_variant` must pick the same blocks, and return the same label
//! and network, for every network `fuseconv analyze --all` covers at
//! three array sizes, and fail with the same error where the array
//! lacks the broadcast links FuSe needs.

use fuseconv::core::variant::{apply_variant, Variant};
use fuseconv::latency::{estimate_network, LatencyError, LatencyModel, NetworkLatency};
use fuseconv::models::{zoo, Network};
use fuseconv::systolic::ArrayConfig;

/// The five baselines, ResNet-50 and EfficientNet-B0.
fn networks() -> Vec<Network> {
    let mut nets = zoo::all_baselines();
    nets.extend([zoo::resnet50(), zoo::efficientnet_b0()]);
    nets
}

/// The 50 % selection by whole-network re-estimation: 1 + B network
/// estimates for B replaceable blocks.
fn reference(
    network: &Network,
    variant: Variant,
    array: &ArrayConfig,
) -> Result<Network, LatencyError> {
    let fuse = variant.fuse_variant().expect("a FuSe variant");
    let model = LatencyModel::new(*array);
    let replaceable = network.replaceable_indices();
    let block_cycles = |report: &NetworkLatency, i: usize| -> u64 {
        let ops = report.ops.iter().filter(|op| op.block_index == i);
        ops.map(|op| op.cycles).sum()
    };
    let base = estimate_network(&model, network)?;
    let mut benefits = Vec::new();
    for &i in &replaceable {
        let fused = network.transform_selected(fuse, &[i]).expect("replaceable");
        let fused = estimate_network(&model, &fused)?;
        let saving = block_cycles(&base, i).saturating_sub(block_cycles(&fused, i));
        benefits.push((i, saving));
    }
    benefits.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut chosen: Vec<usize> = benefits
        .into_iter()
        .take(replaceable.len().div_ceil(2))
        .map(|(i, _)| i)
        .collect();
    chosen.sort_unstable();
    Ok(network
        .transform_selected(fuse, &chosen)
        .expect("replaceable"))
}

#[test]
fn fifty_percent_selection_matches_the_whole_network_reference() {
    for side in [8, 16, 64] {
        let array = ArrayConfig::square(side).unwrap().with_broadcast(true);
        for net in networks() {
            for variant in [Variant::FuseFull50, Variant::FuseHalf50] {
                let ctx = format!("{} {variant} at {side}x{side}", net.name());
                let got = apply_variant(&net, variant, &array).unwrap();
                let want = reference(&net, variant, &array).unwrap();
                assert_eq!(
                    got.replaceable_indices(),
                    want.replaceable_indices(),
                    "{ctx}: blocks left unfused"
                );
                assert_eq!(got.variant_label(), want.variant_label(), "{ctx}");
                assert_eq!(got, want, "{ctx}");
            }
        }
    }
}

#[test]
fn fifty_percent_selection_fails_alike_without_broadcast() {
    let array = ArrayConfig::square(16).unwrap();
    for net in networks() {
        for variant in [Variant::FuseFull50, Variant::FuseHalf50] {
            let got = apply_variant(&net, variant, &array);
            let want = reference(&net, variant, &array);
            assert_eq!(got, want, "{} {variant}", net.name());
            let separable = !net.replaceable_indices().is_empty();
            assert_eq!(
                matches!(got, Err(LatencyError::BroadcastRequired { .. })),
                separable,
                "{} {variant}",
                net.name()
            );
        }
    }
}
