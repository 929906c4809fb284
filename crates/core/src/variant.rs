//! The five Table I variants and their application to a network.
//!
//! A 50 % variant's savings per block (§V-A-1) are read from the block
//! pricing NOS searches over ([`crate::nos`]): blocks' latencies add.

use crate::nos::{self, BlockCosts, OpChoice};
use fuseconv_latency::LatencyError;
use fuseconv_models::Network;
use fuseconv_nn::FuSeVariant;
use fuseconv_systolic::ArrayConfig;
use std::cmp::Reverse;
use std::fmt;

/// One row-family of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The unmodified baseline network.
    Baseline,
    /// All depthwise layers replaced by FuSe-Full (`D = 1`).
    FuseFull,
    /// All depthwise layers replaced by FuSe-Half (`D = 2`).
    FuseHalf,
    /// The 50 % of layers with the largest latency benefit replaced by
    /// FuSe-Full.
    FuseFull50,
    /// The 50 % of layers with the largest latency benefit replaced by
    /// FuSe-Half.
    FuseHalf50,
}

impl Variant {
    /// All five variants in Table I order.
    pub const ALL: [Variant; 5] = [
        Variant::Baseline,
        Variant::FuseFull,
        Variant::FuseHalf,
        Variant::FuseFull50,
        Variant::FuseHalf50,
    ];

    /// The underlying FuSe variant, if any.
    pub fn fuse_variant(&self) -> Option<FuSeVariant> {
        match self {
            Variant::Baseline => None,
            Variant::FuseFull | Variant::FuseFull50 => Some(FuSeVariant::Full),
            Variant::FuseHalf | Variant::FuseHalf50 => Some(FuSeVariant::Half),
        }
    }

    /// Whether only half the replaceable layers are transformed.
    pub fn is_partial(&self) -> bool {
        matches!(self, Variant::FuseFull50 | Variant::FuseHalf50)
    }

    /// The operator choice of the blocks this variant fuses.
    pub(crate) fn choice(&self) -> OpChoice {
        match self.fuse_variant() {
            None => OpChoice::Depthwise,
            Some(FuSeVariant::Full) => OpChoice::FuseFull,
            Some(FuSeVariant::Half) => OpChoice::FuseHalf,
        }
    }

    /// The operator choice of every block under this variant, in network
    /// order. The 50 % variants fuse the half (rounded up) of the
    /// replaceable blocks whose fusing saves the most cycles, ties going
    /// to the lower index.
    pub(crate) fn choices(&self, costs: &BlockCosts) -> Vec<OpChoice> {
        let mut fused: Vec<usize> = costs.indices().collect();
        if self.is_partial() {
            let saving = |i| {
                let (depthwise, _) = costs.cost(i, OpChoice::Depthwise);
                depthwise.saturating_sub(costs.cost(i, self.choice()).0)
            };
            fused.sort_by_key(|&i| (Reverse(saving(i)), i));
            fused.truncate(fused.len().div_ceil(2));
        }
        let mut choices = vec![OpChoice::Depthwise; costs.len()];
        for i in fused {
            choices[i] = self.choice();
        }
        choices
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Variant::Baseline => "baseline",
            Variant::FuseFull => "FuSe-Full",
            Variant::FuseHalf => "FuSe-Half",
            Variant::FuseFull50 => "FuSe-Full-50%",
            Variant::FuseHalf50 => "FuSe-Half-50%",
        };
        f.write_str(s)
    }
}

/// Applies a variant to a baseline network.
///
/// For the 50 % variants, the replaced blocks are chosen **for maximum
/// latency benefit** (§V-A-1): every replaceable block is priced on
/// `array` as depthwise and as fused, and the half with the largest
/// savings is transformed.
///
/// # Errors
///
/// Propagates [`LatencyError`] from pricing the blocks (e.g. a FuSe
/// variant on an array without broadcast links).
pub fn apply_variant(
    network: &Network,
    variant: Variant,
    array: &ArrayConfig,
) -> Result<Network, LatencyError> {
    let Some(fuse) = variant.fuse_variant() else {
        return Ok(network.clone());
    };
    if !variant.is_partial() {
        return Ok(network.transform_all(fuse));
    }
    let costs = BlockCosts::price(network, array, &[variant.choice()])?;
    if costs.indices().next().is_none() {
        // Nothing to select: labelled like the whole-network transform.
        return Ok(network.transform_all(fuse));
    }
    Ok(nos::materialize(network, &variant.choices(&costs)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_latency::{estimate_network, LatencyModel};
    use fuseconv_models::zoo;

    fn array64() -> ArrayConfig {
        ArrayConfig::square(64).unwrap().with_broadcast(true)
    }

    #[test]
    fn baseline_is_identity() {
        let net = zoo::mobilenet_v1();
        let same = apply_variant(&net, Variant::Baseline, &array64()).unwrap();
        assert_eq!(net, same);
    }

    #[test]
    fn full_and_half_transform_everything() {
        let net = zoo::mobilenet_v2();
        for v in [Variant::FuseFull, Variant::FuseHalf] {
            let t = apply_variant(&net, v, &array64()).unwrap();
            assert!(t.replaceable_indices().is_empty());
        }
    }

    #[test]
    fn partial_variants_transform_half_the_blocks() {
        let net = zoo::mobilenet_v1(); // 13 replaceable blocks
        let t = apply_variant(&net, Variant::FuseHalf50, &array64()).unwrap();
        // ceil(13/2) = 7 replaced, 6 remain.
        assert_eq!(t.replaceable_indices().len(), 6);
        assert!(t.variant_label().contains("7of13"));
    }

    #[test]
    fn partial_selection_maximizes_latency_benefit() {
        // The chosen half must yield a speedup at least as good as the
        // complementary half.
        let net = zoo::mobilenet_v1();
        let array = array64();
        let model = LatencyModel::new(array);
        let base = estimate_network(&model, &net).unwrap();

        let best = apply_variant(&net, Variant::FuseFull50, &array).unwrap();
        let best_lat = estimate_network(&model, &best).unwrap();

        // Complementary selection: the blocks NOT chosen.
        let replaceable = net.replaceable_indices();
        let still_replaceable = best.replaceable_indices();
        let complement: Vec<usize> = replaceable
            .iter()
            .copied()
            .filter(|i| still_replaceable.contains(i))
            .collect();
        let worst = net
            .transform_selected(FuSeVariant::Full, &complement)
            .unwrap();
        let worst_lat = estimate_network(&model, &worst).unwrap();

        assert!(
            best_lat.speedup_over(&base) > worst_lat.speedup_over(&base),
            "picked half ({:.2}x) must beat complement ({:.2}x)",
            best_lat.speedup_over(&base),
            worst_lat.speedup_over(&base)
        );
    }

    #[test]
    fn partial_speedups_land_between_baseline_and_full() {
        let net = zoo::mnasnet_b1();
        let array = array64();
        let model = LatencyModel::new(array);
        let base = estimate_network(&model, &net).unwrap();
        let full = estimate_network(
            &model,
            &apply_variant(&net, Variant::FuseFull, &array).unwrap(),
        )
        .unwrap();
        let partial = estimate_network(
            &model,
            &apply_variant(&net, Variant::FuseFull50, &array).unwrap(),
        )
        .unwrap();
        let sp = partial.speedup_over(&base);
        let sf = full.speedup_over(&base);
        assert!(sp > 1.0 && sp < sf, "1 < {sp:.2} < {sf:.2}");
    }

    #[test]
    fn variant_metadata() {
        assert_eq!(Variant::ALL.len(), 5);
        assert_eq!(Variant::Baseline.fuse_variant(), None);
        assert_eq!(Variant::FuseFull50.fuse_variant(), Some(FuSeVariant::Full));
        assert!(Variant::FuseHalf50.is_partial());
        assert!(!Variant::FuseHalf.is_partial());
        assert_eq!(Variant::FuseHalf.to_string(), "FuSe-Half");
    }
}
