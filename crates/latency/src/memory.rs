//! Operand traffic and roofline analysis.
//!
//! The paper idealizes memory ("performance is limited only by operations
//! on the array", §V-A-3); SCALE-Sim itself also reports SRAM/DRAM traffic.
//! This module adds that second axis: for every operator it counts the
//! elements streamed into and out of the array under the same fold
//! schedules the cycle model uses, and a simple roofline combines both
//! into a bandwidth-aware latency bound.
//!
//! Two structural effects matter for the paper's story:
//!
//! - the `im2col` lowering of a `K×K` (depthwise) convolution inflates
//!   input traffic by up to `K²` (every pixel appears in up to `K²`
//!   patches), while FuSeConv's 1-D lines are streamed essentially once
//!   (plus a `K−1` halo per row tile);
//! - output-stationary folds reload operand tiles once per orthogonal
//!   tile (`A` once per column tile, `B` once per row tile).

use crate::map::{c64, LatencyModel};
use crate::{LatencyError, Lowering, NetworkLatency};
use fuseconv_models::Network;
use fuseconv_nn::ops::Op;
use std::fmt;

/// Elements moved for one operator, split by stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Traffic {
    /// Activation elements streamed into the array.
    pub input_elems: u64,
    /// Weight elements streamed into the array.
    pub weight_elems: u64,
    /// Result elements drained out of the array.
    pub output_elems: u64,
}

impl Traffic {
    /// Total elements moved.
    pub fn total(&self) -> u64 {
        self.input_elems + self.weight_elems + self.output_elems
    }

    fn add(self, other: Traffic) -> Traffic {
        Traffic {
            input_elems: self.input_elems + other.input_elems,
            weight_elems: self.weight_elems + other.weight_elems,
            output_elems: self.output_elems + other.output_elems,
        }
    }
}

impl fmt::Display for Traffic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "in {} + w {} + out {} = {} elems",
            self.input_elems,
            self.weight_elems,
            self.output_elems,
            self.total()
        )
    }
}

/// Whether an operator's roofline bound comes from compute or memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bound {
    /// The array's cycle count dominates.
    Compute,
    /// The bandwidth-limited transfer time dominates.
    Memory,
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Compute => f.write_str("compute-bound"),
            Bound::Memory => f.write_str("memory-bound"),
        }
    }
}

/// Estimates an operator's operand traffic on the model's array, under
/// its lowering ([`LatencyModel::lowering`]).
///
/// # Errors
///
/// Returns [`LatencyError::DegenerateOp`] for zero-sized work and
/// [`LatencyError::ArithmeticOverflow`] when a count does not fit `u64`
/// (broadcast availability is irrelevant for traffic, so FuSe ops never
/// fail for lack of it).
pub fn op_traffic(model: &LatencyModel, op: &Op) -> Result<Traffic, LatencyError> {
    let overflow = || LatencyError::ArithmeticOverflow { op: op.to_string() };
    let mul = |xs: &[u64]| {
        xs.iter()
            .try_fold(1u64, |a, &x| a.checked_mul(x))
            .ok_or_else(overflow)
    };
    let (rows, cols) = (c64(model.array().rows()), c64(model.array().cols()));
    Ok(match model.lowering(op)? {
        // Output stationary: `A` streamed once per column tile, `B` once
        // per row tile, `C` drained once; every instance (channel) anew.
        // For im2col lowerings `A` is the im2col matrix: built-in
        // K²-ish amplification relative to the raw feature map.
        Lowering::Gemm { m, k, n, instances } => Traffic {
            input_elems: mul(&[m, k, n.div_ceil(cols), instances])?,
            weight_elems: mul(&[k, n, m.div_ceil(rows), instances])?,
            output_elems: mul(&[m, n, instances])?,
        },
        // Each line is loaded once per column tile it spans (usually 1
        // thanks to line packing); weights go once per line over the
        // broadcast link. Padding zeros are generated, not fetched.
        Lowering::RowBroadcast {
            channels,
            lines,
            l_out,
            k,
            stride,
        } => {
            let line_in = mul(&[l_out - 1, stride])?
                .checked_add(k)
                .ok_or_else(overflow)?;
            Traffic {
                input_elems: mul(&[channels, lines, line_in, l_out.div_ceil(cols)])?,
                weight_elems: mul(&[channels, lines, k])?,
                output_elems: mul(&[channels, lines, l_out])?,
            }
        }
    })
}

/// A network's total traffic.
///
/// # Errors
///
/// Propagates [`LatencyError`].
pub fn network_traffic(model: &LatencyModel, network: &Network) -> Result<Traffic, LatencyError> {
    let mut total = Traffic::default();
    for named in network.ops() {
        total = total.add(op_traffic(model, &named.op)?);
    }
    Ok(total)
}

/// Roofline combination of a latency report with its traffic: transfer
/// time at `bytes_per_cycle` (with `bytes_per_elem` wide elements, FP16 = 2)
/// versus array cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Array compute cycles.
    pub compute_cycles: u64,
    /// Bandwidth-limited transfer cycles.
    pub transfer_cycles: u64,
    /// The binding constraint.
    pub bound: Bound,
}

impl Roofline {
    /// The bound latency: `max(compute, transfer)`.
    pub fn bound_cycles(&self) -> u64 {
        self.compute_cycles.max(self.transfer_cycles)
    }
}

/// Evaluates the roofline for a whole network.
///
/// # Errors
///
/// Propagates [`LatencyError`].
///
/// # Panics
///
/// Panics if `bytes_per_cycle` is zero.
pub fn roofline(
    model: &LatencyModel,
    network: &Network,
    report: &NetworkLatency,
    bytes_per_elem: u64,
    bytes_per_cycle: u64,
) -> Result<Roofline, LatencyError> {
    assert!(bytes_per_cycle > 0, "bandwidth must be nonzero");
    let traffic = network_traffic(model, network)?;
    let transfer_cycles = (traffic.total() * bytes_per_elem).div_ceil(bytes_per_cycle);
    let compute_cycles = report.total_cycles;
    Ok(Roofline {
        compute_cycles,
        transfer_cycles,
        bound: if transfer_cycles > compute_cycles {
            Bound::Memory
        } else {
            Bound::Compute
        },
    })
}

/// On-chip buffer capacities for the two-level DRAM model (SCALE-Sim's
/// double-buffered SRAM organization: separate ifmap, filter and ofmap
/// buffers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SramConfig {
    /// Activation (ifmap) buffer capacity, elements.
    pub ifmap_elems: u64,
    /// Weight (filter) buffer capacity, elements.
    pub filter_elems: u64,
    /// Output (ofmap) buffer capacity, elements.
    pub ofmap_elems: u64,
}

impl SramConfig {
    /// SCALE-Sim's default-ish configuration at FP16: 1 MiB ifmap,
    /// 512 KiB filter, 256 KiB ofmap.
    pub fn scale_sim_default() -> Self {
        SramConfig {
            ifmap_elems: 512 * 1024,
            filter_elems: 256 * 1024,
            ofmap_elems: 128 * 1024,
        }
    }
}

/// Unique (compulsory) element counts of an operator's streams over the
/// model's batch: each input and output element once per image, each
/// weight ([`Op::params`]) once. This is the lower bound on DRAM traffic
/// and the operand footprint the analyzer checks against SRAM addressing.
/// Counts saturate: a saturated count exceeds every buffer.
pub fn unique_traffic(model: &LatencyModel, op: &Op) -> Traffic {
    let (oh, ow, out_c) = op.output_shape();
    let elems = |dims: &[usize]| {
        dims.iter()
            .fold(1u64, |a, &d| a.saturating_mul(c64(d)))
            .saturating_mul(c64(model.batch()))
    };
    let input_elems = match *op {
        Op::Conv2d {
            in_h, in_w, in_c, ..
        }
        | Op::Pointwise {
            in_h, in_w, in_c, ..
        } => elems(&[in_h, in_w, in_c]),
        Op::Depthwise { in_h, in_w, c, .. } | Op::FuSe1d { in_h, in_w, c, .. } => {
            elems(&[in_h, in_w, c])
        }
        Op::Fc { in_features, .. } => elems(&[in_features]),
    };
    Traffic {
        input_elems,
        weight_elems: op.checked_params().unwrap_or(u64::MAX),
        output_elems: elems(&[oh, ow, out_c]),
    }
}

/// Two-level DRAM traffic estimate: a stream whose unique working set fits
/// its SRAM buffer is fetched from DRAM exactly once (the buffer captures
/// all reuse); otherwise every array-side access misses to DRAM — the
/// pessimistic end SCALE-Sim's reuse analysis refines between.
///
/// # Errors
///
/// Propagates [`LatencyError::DegenerateOp`].
pub fn dram_traffic(
    model: &LatencyModel,
    op: &Op,
    sram: &SramConfig,
) -> Result<Traffic, LatencyError> {
    let streamed = op_traffic(model, op)?;
    let unique = unique_traffic(model, op);
    let pick = |unique: u64, streamed: u64, capacity: u64| {
        if unique <= capacity {
            unique
        } else {
            streamed
        }
    };
    Ok(Traffic {
        input_elems: pick(unique.input_elems, streamed.input_elems, sram.ifmap_elems),
        weight_elems: pick(
            unique.weight_elems,
            streamed.weight_elems,
            sram.filter_elems,
        ),
        // Outputs are written once regardless (they stream out).
        output_elems: pick(unique.output_elems, streamed.output_elems, sram.ofmap_elems)
            .max(unique.output_elems),
    })
}

/// A network's total DRAM traffic under the two-level model.
///
/// # Errors
///
/// Propagates [`LatencyError`].
pub fn network_dram_traffic(
    model: &LatencyModel,
    network: &Network,
    sram: &SramConfig,
) -> Result<Traffic, LatencyError> {
    let mut total = Traffic::default();
    for named in network.ops() {
        total = total.add(dram_traffic(model, &named.op, sram)?);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_models::zoo;
    use fuseconv_nn::ops::Axis1d;
    use fuseconv_nn::FuSeVariant;
    use fuseconv_systolic::ArrayConfig;

    fn model64() -> LatencyModel {
        LatencyModel::new(ArrayConfig::square(64).unwrap().with_broadcast(true))
    }

    #[test]
    fn gemm_traffic_by_hand() {
        // M=100, K=10, N=130 on 64x64: 2 row tiles, 3 col tiles.
        let t = op_traffic(&model64(), &Op::fc(10, 130)).unwrap();
        // FC is M=1: 1 row tile, 3 col tiles.
        assert_eq!(t.input_elems, 10 * 3);
        assert_eq!(t.weight_elems, 10 * 130);
        assert_eq!(t.output_elems, 130);
    }

    #[test]
    fn im2col_amplifies_depthwise_input_traffic() {
        let dw = Op::depthwise(56, 56, 64, 3, 1, 1);
        let t = op_traffic(&model64(), &dw).unwrap();
        let raw_ifmap = (56 * 56 * 64) as u64;
        // The im2col stream is ~K² times the raw feature map.
        assert!(t.input_elems > 8 * raw_ifmap);
        assert!(t.input_elems < 10 * raw_ifmap);
    }

    #[test]
    fn fuse_moves_far_less_input_than_depthwise() {
        let model = model64();
        let dw = Op::depthwise(56, 56, 64, 3, 1, 1);
        let row = Op::fuse1d(56, 56, 32, 3, 1, 1, Axis1d::Row);
        let col = Op::fuse1d(56, 56, 32, 3, 1, 1, Axis1d::Col);
        let dw_t = op_traffic(&model, &dw).unwrap();
        let fuse_t = op_traffic(&model, &row)
            .unwrap()
            .add(op_traffic(&model, &col).unwrap());
        assert!(
            fuse_t.input_elems * 4 < dw_t.input_elems,
            "fuse {} vs dw {}",
            fuse_t.input_elems,
            dw_t.input_elems
        );
    }

    #[test]
    fn fuse_line_traffic_by_hand() {
        // 2 channels, 4x6 map, k=3, stride 1, pad 1 → 4 lines of l_in 8
        // per channel, l_out 6 ≤ 64 cols → one tile.
        let op = Op::fuse1d(4, 6, 2, 3, 1, 1, Axis1d::Row);
        let t = op_traffic(&model64(), &op).unwrap();
        assert_eq!(t.input_elems, 2 * 4 * 8);
        assert_eq!(t.weight_elems, 2 * 4 * 3);
        assert_eq!(t.output_elems, 2 * 4 * 6);
    }

    #[test]
    fn network_traffic_drops_after_transform() {
        let model = model64();
        let net = zoo::mobilenet_v1();
        let base = network_traffic(&model, &net).unwrap();
        let half = network_traffic(&model, &net.transform_all(FuSeVariant::Half)).unwrap();
        assert!(
            half.total() < base.total(),
            "half {} vs base {}",
            half.total(),
            base.total()
        );
        assert!(half.input_elems < base.input_elems);
    }

    #[test]
    fn roofline_classifies_by_bandwidth() {
        let model = model64();
        let net = zoo::mobilenet_v2();
        let report = crate::estimate_network(&model, &net).unwrap();
        // Absurdly slow memory: memory-bound.
        let slow = roofline(&model, &net, &report, 2, 1).unwrap();
        assert_eq!(slow.bound, Bound::Memory);
        assert_eq!(slow.bound_cycles(), slow.transfer_cycles);
        // Generous memory (a wide on-chip bus): compute-bound, matching
        // the paper's idealization.
        let fast = roofline(&model, &net, &report, 2, 4096).unwrap();
        assert_eq!(fast.bound, Bound::Compute);
        assert_eq!(fast.bound_cycles(), report.total_cycles);
        // Transfer time scales inversely with bandwidth.
        assert!(slow.transfer_cycles > fast.transfer_cycles * 1000);
    }

    #[test]
    fn strided_fuse_counts_stride_in_line_length() {
        // Stride 2: each surviving line reads (l_out-1)*2 + k inputs.
        let op = Op::fuse1d(8, 8, 1, 3, 2, 1, Axis1d::Row);
        let (oh, ow, _) = op.output_shape();
        assert_eq!((oh, ow), (4, 4));
        let t = op_traffic(&model64(), &op).unwrap();
        assert_eq!(t.input_elems, 4 * ((4 - 1) * 2 + 3));
    }

    #[test]
    fn dram_traffic_bounded_by_unique_and_streamed() {
        let model = model64();
        let sram = SramConfig::scale_sim_default();
        let ops = [
            Op::conv2d(56, 56, 32, 64, 3, 1, 1),
            Op::depthwise(56, 56, 64, 3, 1, 1),
            Op::pointwise(28, 28, 96, 160),
            Op::fuse1d(56, 56, 32, 3, 1, 1, Axis1d::Row),
            Op::fc(1280, 1000),
        ];
        for op in ops {
            let dram = dram_traffic(&model, &op, &sram).unwrap();
            let streamed = op_traffic(&model, &op).unwrap();
            let unique = unique_traffic(&model, &op);
            assert!(dram.input_elems >= unique.input_elems, "{op}");
            assert!(
                dram.input_elems <= streamed.input_elems.max(unique.input_elems),
                "{op}"
            );
            assert!(dram.weight_elems >= unique.weight_elems, "{op}");
        }
    }

    #[test]
    fn big_buffers_capture_all_reuse() {
        let model = model64();
        let huge = SramConfig {
            ifmap_elems: u64::MAX,
            filter_elems: u64::MAX,
            ofmap_elems: u64::MAX,
        };
        let op = Op::depthwise(56, 56, 64, 3, 1, 1);
        let dram = dram_traffic(&model, &op, &huge).unwrap();
        let unique = unique_traffic(&model, &op);
        assert_eq!(dram, unique);
        // With ample SRAM, the im2col K² amplification never reaches DRAM.
        assert_eq!(dram.input_elems, 56 * 56 * 64);
    }

    #[test]
    fn tiny_buffers_degrade_to_streamed_traffic() {
        let model = model64();
        let tiny = SramConfig {
            ifmap_elems: 16,
            filter_elems: 16,
            ofmap_elems: 16,
        };
        let op = Op::pointwise(28, 28, 96, 160);
        let dram = dram_traffic(&model, &op, &tiny).unwrap();
        let streamed = op_traffic(&model, &op).unwrap();
        assert_eq!(dram.input_elems, streamed.input_elems);
        assert_eq!(dram.weight_elems, streamed.weight_elems);
    }

    #[test]
    fn fuse_networks_cut_dram_traffic_even_with_small_sram() {
        let model = model64();
        let sram = SramConfig {
            ifmap_elems: 16 * 1024,
            filter_elems: 16 * 1024,
            ofmap_elems: 16 * 1024,
        };
        let net = zoo::mobilenet_v1();
        let base = network_dram_traffic(&model, &net, &sram).unwrap();
        let half =
            network_dram_traffic(&model, &net.transform_all(FuSeVariant::Half), &sram).unwrap();
        assert!(half.total() < base.total());
    }

    #[test]
    #[should_panic(expected = "bandwidth must be nonzero")]
    fn zero_bandwidth_panics() {
        let model = model64();
        let net = zoo::mobilenet_v3_small();
        let report = crate::estimate_network(&model, &net).unwrap();
        let _ = roofline(&model, &net, &report, 2, 0);
    }
}
