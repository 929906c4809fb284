//! Whole-network descriptions: named block sequences with MAC/parameter
//! summaries and the FuSe transformation.

use crate::block::Block;
use fuseconv_nn::ops::Op;
use fuseconv_nn::FuSeVariant;
use std::fmt;

/// A named operator within a network, tagged with the block it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedOp {
    /// Index of the owning block within the network.
    pub block_index: usize,
    /// Human-readable block label (e.g. `"bneck3"`).
    pub block_name: String,
    /// The operator descriptor.
    pub op: Op,
}

/// Aggregate MAC/parameter summary, as reported in Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkSummary {
    /// Total multiply-accumulates for one 224×224 inference.
    pub macs: u64,
    /// Total weight parameters.
    pub params: u64,
}

impl NetworkSummary {
    /// MACs in millions, the unit used by Table I.
    pub fn macs_millions(&self) -> f64 {
        self.macs as f64 / 1e6
    }

    /// Parameters in millions.
    pub fn params_millions(&self) -> f64 {
        self.params as f64 / 1e6
    }
}

/// A complete network: an ordered list of named blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    name: String,
    variant_label: String,
    blocks: Vec<(String, Block)>,
}

impl Network {
    /// Creates a network from named blocks.
    pub fn new(name: impl Into<String>, blocks: Vec<(String, Block)>) -> Self {
        Network {
            name: name.into(),
            variant_label: "baseline".into(),
            blocks,
        }
    }

    /// The network's name (e.g. `"MobileNet-V2"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Label of the variant this network represents (`"baseline"`,
    /// `"fuse-full"`, `"fuse-half-50%"`, …).
    pub fn variant_label(&self) -> &str {
        &self.variant_label
    }

    /// The blocks, with their labels.
    pub fn blocks(&self) -> &[(String, Block)] {
        &self.blocks
    }

    /// All operator descriptors in execution order, tagged by block.
    pub fn ops(&self) -> Vec<NamedOp> {
        self.blocks
            .iter()
            .enumerate()
            .flat_map(|(i, (name, block))| {
                block.ops().into_iter().map(move |op| NamedOp {
                    block_index: i,
                    block_name: name.clone(),
                    op,
                })
            })
            .collect()
    }

    /// Total MACs.
    pub fn macs(&self) -> u64 {
        self.block_ops().map(|op| op.macs()).sum()
    }

    /// Total parameters.
    pub fn params(&self) -> u64 {
        self.block_ops().map(|op| op.params()).sum()
    }

    /// Every block's operators, in order, without the [`NamedOp`] labels.
    fn block_ops(&self) -> impl Iterator<Item = Op> + '_ {
        self.blocks.iter().flat_map(|(_, b)| b.ops())
    }

    /// MAC/parameter summary.
    pub fn summary(&self) -> NetworkSummary {
        NetworkSummary {
            macs: self.macs(),
            params: self.params(),
        }
    }

    /// Indices of blocks eligible for the FuSe transformation.
    pub fn replaceable_indices(&self) -> Vec<usize> {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, (_, b))| b.is_replaceable())
            .map(|(i, _)| i)
            .collect()
    }

    /// Replaces the depthwise filter with FuSe banks in **all** separable
    /// blocks — the paper's `Full`/`Half` variants.
    #[must_use]
    pub fn transform_all(&self, variant: FuSeVariant) -> Network {
        let indices = self.replaceable_indices();
        self.transform_selected(variant, &indices)
            .expect("replaceable indices are valid by construction")
    }

    /// Replaces the depthwise filter in the chosen blocks only — used by
    /// the `-50%` variants, whose selection maximizes latency benefit.
    ///
    /// # Errors
    ///
    /// Returns the offending index if any selected block is not
    /// replaceable.
    pub fn transform_selected(
        &self,
        variant: FuSeVariant,
        indices: &[usize],
    ) -> Result<Network, usize> {
        for &i in indices {
            if self.blocks.get(i).is_none_or(|(_, b)| !b.is_replaceable()) {
                return Err(i);
            }
        }
        let blocks = self
            .blocks
            .iter()
            .enumerate()
            .map(|(i, (name, block))| {
                let b = if indices.contains(&i) {
                    block.fused(variant)
                } else {
                    *block
                };
                (name.clone(), b)
            })
            .collect();
        let all = indices.len() == self.replaceable_indices().len();
        let label = match (variant, all) {
            (FuSeVariant::Full, true) => "fuse-full".to_string(),
            (FuSeVariant::Half, true) => "fuse-half".to_string(),
            (FuSeVariant::Full, false) => format!(
                "fuse-full-{}of{}",
                indices.len(),
                self.replaceable_indices().len()
            ),
            (FuSeVariant::Half, false) => format!(
                "fuse-half-{}of{}",
                indices.len(),
                self.replaceable_indices().len()
            ),
        };
        Ok(Network {
            name: self.name.clone(),
            variant_label: label,
            blocks,
        })
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.summary();
        write!(
            f,
            "{} [{}]: {} blocks, {:.0}M MACs, {:.2}M params",
            self.name,
            self.variant_label,
            self.blocks.len(),
            s.macs_millions(),
            s.params_millions()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{SeparableBlock, SpatialFilter};

    fn tiny_network() -> Network {
        let stem = Block::Conv {
            in_h: 32,
            in_w: 32,
            in_c: 3,
            out_c: 8,
            k: 3,
            stride: 2,
        };
        let sep = Block::Separable(SeparableBlock {
            in_h: 16,
            in_w: 16,
            in_c: 8,
            exp_c: 8,
            out_c: 16,
            k: 3,
            stride: 1,
            se_div: None,
            filter: SpatialFilter::Depthwise,
        });
        let fc = Block::Fc {
            in_features: 16,
            out_features: 10,
        };
        Network::new(
            "tiny",
            vec![
                ("stem".into(), stem),
                ("sep1".into(), sep),
                ("fc".into(), fc),
            ],
        )
    }

    #[test]
    fn ops_are_tagged_by_block() {
        let net = tiny_network();
        let ops = net.ops();
        assert_eq!(ops.len(), 4); // conv, dw, pw, fc
        assert_eq!(ops[0].block_name, "stem");
        assert_eq!(ops[1].block_index, 1);
        assert_eq!(ops[2].block_index, 1);
        assert_eq!(ops[3].block_name, "fc");
    }

    #[test]
    fn summary_sums_ops() {
        let net = tiny_network();
        let by_hand: u64 = net.ops().iter().map(|n| n.op.macs()).sum();
        assert_eq!(net.summary().macs, by_hand);
        assert!(net.summary().params > 0);
    }

    #[test]
    fn transform_all_replaces_every_separable() {
        let net = tiny_network();
        let fused = net.transform_all(FuSeVariant::Half);
        assert_eq!(fused.replaceable_indices(), Vec::<usize>::new());
        assert_eq!(fused.variant_label(), "fuse-half");
        // Block count unchanged; op count grows by one (row+col vs dw).
        assert_eq!(fused.blocks().len(), net.blocks().len());
        assert_eq!(fused.ops().len(), net.ops().len() + 1);
    }

    #[test]
    fn transform_selected_validates_indices() {
        let net = tiny_network();
        assert!(net.transform_selected(FuSeVariant::Full, &[0]).is_err()); // stem
        assert!(net.transform_selected(FuSeVariant::Full, &[9]).is_err()); // out of range
        let ok = net.transform_selected(FuSeVariant::Full, &[1]).unwrap();
        assert!(ok.variant_label().starts_with("fuse-full"));
    }

    #[test]
    fn partial_transform_labels_fraction() {
        let mut blocks = tiny_network().blocks().to_vec();
        blocks.push(blocks[1].clone()); // a second separable block
        let net = Network::new("tiny2", blocks);
        let partial = net.transform_selected(FuSeVariant::Half, &[1]).unwrap();
        assert_eq!(partial.variant_label(), "fuse-half-1of2");
        assert_eq!(partial.replaceable_indices().len(), 1);
    }

    #[test]
    fn display_reports_summary() {
        let s = tiny_network().to_string();
        assert!(s.contains("tiny"));
        assert!(s.contains("baseline"));
    }
}
