//! Network-level latency reports: per-operator, per-block and per-class
//! aggregation, plus the speed-up arithmetic behind Table I and Fig. 8.

use crate::map::{LatencyError, LatencyModel};
use fuseconv_models::Network;
use fuseconv_nn::ops::OpClass;
use fuseconv_telemetry::json_escape;
use std::collections::BTreeMap;
use std::fmt;

/// Latency of a single operator within a network.
#[derive(Debug, Clone, PartialEq)]
pub struct OpLatency {
    /// Index of the owning block.
    pub block_index: usize,
    /// Label of the owning block.
    pub block_name: String,
    /// The operator, pretty-printed.
    pub op_label: String,
    /// The operator's class.
    pub class: OpClass,
    /// MACs performed.
    pub macs: u64,
    /// Estimated cycles.
    pub cycles: u64,
}

impl OpLatency {
    /// Serializes to a single JSON object. `class` is omitted, matching
    /// the crate's historical wire format.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"block_index\":{},\"block_name\":\"{}\",\"op_label\":\"{}\",\"macs\":{},\"cycles\":{}}}",
            self.block_index,
            json_escape(&self.block_name),
            json_escape(&self.op_label),
            self.macs,
            self.cycles
        )
    }
}

/// Aggregate latency of one network block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockLatency {
    /// Block index.
    pub index: usize,
    /// Block label.
    pub name: String,
    /// Total cycles of the block's operators.
    pub cycles: u64,
}

/// Latency share per operator class — the quantity plotted in Fig. 8(c).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClassBreakdown {
    cycles: BTreeMap<OpClass, u64>,
}

impl ClassBreakdown {
    /// Total cycles across all classes.
    pub fn total(&self) -> u64 {
        self.cycles.values().sum()
    }

    /// Cycles attributed to a class.
    pub fn cycles_of(&self, class: OpClass) -> u64 {
        self.cycles.get(&class).copied().unwrap_or(0)
    }

    /// Fraction of total latency attributed to a class, in `[0, 1]`.
    pub fn fraction_of(&self, class: OpClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.cycles_of(class) as f64 / total as f64
        }
    }

    /// All `(class, cycles)` entries, sorted by class.
    pub fn entries(&self) -> impl Iterator<Item = (OpClass, u64)> + '_ {
        self.cycles.iter().map(|(&c, &v)| (c, v))
    }
}

impl fmt::Display for ClassBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (class, cycles) in self.entries() {
            writeln!(
                f,
                "  {class:<16} {cycles:>12} cycles ({:5.1}%)",
                self.fraction_of(class) * 100.0
            )?;
        }
        Ok(())
    }
}

/// The complete latency estimate of one network on one array.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkLatency {
    /// Network name.
    pub network: String,
    /// Variant label (`"baseline"`, `"fuse-full"`, …).
    pub variant: String,
    /// Total cycles for one inference.
    pub total_cycles: u64,
    /// Per-operator detail, in execution order.
    pub ops: Vec<OpLatency>,
}

impl NetworkLatency {
    /// Aggregates operator latencies by block.
    pub fn by_block(&self) -> Vec<BlockLatency> {
        let mut blocks: Vec<BlockLatency> = Vec::new();
        for op in &self.ops {
            match blocks.last_mut() {
                Some(b) if b.index == op.block_index => b.cycles += op.cycles,
                _ => blocks.push(BlockLatency {
                    index: op.block_index,
                    name: op.block_name.clone(),
                    cycles: op.cycles,
                }),
            }
        }
        blocks
    }

    /// Aggregates operator latencies by operator class (Fig. 8(c)).
    pub fn breakdown(&self) -> ClassBreakdown {
        let mut cycles = BTreeMap::new();
        for op in &self.ops {
            *cycles.entry(op.class).or_insert(0) += op.cycles;
        }
        ClassBreakdown { cycles }
    }

    /// Speed-up of `self` relative to `baseline` (`>1` means faster).
    pub fn speedup_over(&self, baseline: &NetworkLatency) -> f64 {
        baseline.total_cycles as f64 / self.total_cycles as f64
    }

    /// Serializes the whole report to JSON (hand-rolled; the workspace
    /// carries no serde).
    pub fn to_json(&self) -> String {
        let ops: Vec<String> = self.ops.iter().map(|o| o.to_json()).collect();
        format!(
            "{{\"network\":\"{}\",\"variant\":\"{}\",\"total_cycles\":{},\"ops\":[{}]}}",
            json_escape(&self.network),
            json_escape(&self.variant),
            self.total_cycles,
            ops.join(",")
        )
    }

    /// Serializes the per-operator detail to CSV, one row per operator
    /// with a header line. Fields containing commas or quotes are quoted.
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::from("block_index,block_name,op_label,class,macs,cycles\n");
        for o in &self.ops {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                o.block_index,
                field(&o.block_name),
                field(&o.op_label),
                o.class,
                o.macs,
                o.cycles
            ));
        }
        out
    }
}

impl fmt::Display for NetworkLatency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}]: {} cycles",
            self.network, self.variant, self.total_cycles
        )
    }
}

/// Estimates the end-to-end latency of a network on the model's array.
///
/// Only array-bound operators are counted (convolutions of all kinds,
/// squeeze-and-excite FCs and classifier FCs), exactly as in §V-A-3.
///
/// # Errors
///
/// Propagates [`LatencyError`] from any operator (e.g. a FuSe op on a
/// broadcast-less array).
pub fn estimate_network(
    model: &LatencyModel,
    network: &Network,
) -> Result<NetworkLatency, LatencyError> {
    let mut ops = Vec::new();
    let mut total = 0u64;
    for named in network.ops() {
        let cycles = model.cycles(&named.op)?;
        total += cycles;
        ops.push(OpLatency {
            block_index: named.block_index,
            block_name: named.block_name,
            op_label: named.op.to_string(),
            class: named.op.class(),
            macs: named.op.macs(),
            cycles,
        });
    }
    Ok(NetworkLatency {
        network: network.name().to_string(),
        variant: network.variant_label().to_string(),
        total_cycles: total,
        ops,
    })
}

/// Per-block speed-ups of a transformed network relative to its baseline —
/// the quantity plotted in Fig. 8(b). Blocks are matched by index; both
/// networks must have the same block structure (the FuSe transform
/// preserves it).
///
/// # Panics
///
/// Panics if the two reports have different block counts.
pub fn block_speedups(
    baseline: &NetworkLatency,
    transformed: &NetworkLatency,
) -> Vec<(String, f64)> {
    let b = baseline.by_block();
    let t = transformed.by_block();
    assert_eq!(
        b.len(),
        t.len(),
        "networks must share block structure to compare per block"
    );
    b.iter()
        .zip(&t)
        .map(|(bb, tb)| (bb.name.clone(), bb.cycles as f64 / tb.cycles as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_models::zoo;
    use fuseconv_nn::FuSeVariant;
    use fuseconv_systolic::ArrayConfig;

    fn model64() -> LatencyModel {
        LatencyModel::new(ArrayConfig::square(64).unwrap().with_broadcast(true))
    }

    #[test]
    fn total_is_sum_of_ops() {
        let net = zoo::mobilenet_v1();
        let r = estimate_network(&model64(), &net).unwrap();
        let sum: u64 = r.ops.iter().map(|o| o.cycles).sum();
        assert_eq!(sum, r.total_cycles);
        assert_eq!(r.ops.len(), net.ops().len());
    }

    #[test]
    fn by_block_partitions_ops() {
        let net = zoo::mobilenet_v2();
        let r = estimate_network(&model64(), &net).unwrap();
        let blocks = r.by_block();
        assert_eq!(blocks.len(), net.blocks().len());
        let sum: u64 = blocks.iter().map(|b| b.cycles).sum();
        assert_eq!(sum, r.total_cycles);
    }

    #[test]
    fn breakdown_partitions_cycles() {
        let net = zoo::mobilenet_v3_large();
        let r = estimate_network(&model64(), &net).unwrap();
        let bd = r.breakdown();
        assert_eq!(bd.total(), r.total_cycles);
        // Baseline networks have depthwise but no FuSe latency.
        assert!(bd.cycles_of(OpClass::Depthwise) > 0);
        assert_eq!(bd.cycles_of(OpClass::FuSe), 0);
    }

    #[test]
    fn half_variant_speeds_up_every_network() {
        // Table I direction: all Half variants ≥ 3x on a 64x64 array.
        for net in zoo::all_baselines() {
            let base = estimate_network(&model64(), &net).unwrap();
            let half = estimate_network(&model64(), &net.transform_all(FuSeVariant::Half)).unwrap();
            let s = half.speedup_over(&base);
            assert!(s >= 3.0, "{}: half speedup {s:.2} < 3", net.name());
        }
    }

    #[test]
    fn full_variant_faster_despite_more_macs() {
        // §V-B-2's headline: the Full variant has MORE MACs than baseline
        // yet is significantly faster.
        for net in zoo::all_baselines() {
            let full_net = net.transform_all(FuSeVariant::Full);
            assert!(full_net.macs() > net.macs());
            let base = estimate_network(&model64(), &net).unwrap();
            let full = estimate_network(&model64(), &full_net).unwrap();
            let s = full.speedup_over(&base);
            assert!(s >= 2.0, "{}: full speedup {s:.2} < 2", net.name());
        }
    }

    #[test]
    fn half_beats_full_on_speed() {
        for net in zoo::all_baselines() {
            let base = estimate_network(&model64(), &net).unwrap();
            let full = estimate_network(&model64(), &net.transform_all(FuSeVariant::Full)).unwrap();
            let half = estimate_network(&model64(), &net.transform_all(FuSeVariant::Half)).unwrap();
            assert!(
                half.speedup_over(&base) > full.speedup_over(&base),
                "{}",
                net.name()
            );
        }
    }

    #[test]
    fn pointwise_dominates_after_transform() {
        // Fig. 8(c): after the transform, latency shifts to pointwise and
        // the FuSe ops account for a small fraction.
        for net in zoo::all_baselines() {
            let full = estimate_network(&model64(), &net.transform_all(FuSeVariant::Full)).unwrap();
            let bd = full.breakdown();
            let pw = bd.fraction_of(OpClass::Pointwise);
            let fuse = bd.fraction_of(OpClass::FuSe);
            assert!(pw > fuse, "{}: pw {pw:.2} vs fuse {fuse:.2}", net.name());
            assert!(fuse < 0.35, "{}: fuse fraction {fuse:.2}", net.name());
        }
    }

    #[test]
    fn early_blocks_speed_up_most_on_v2() {
        // Fig. 8(b): initial layers (larger feature maps) benefit more.
        let net = zoo::mobilenet_v2();
        let base = estimate_network(&model64(), &net).unwrap();
        let full = estimate_network(&model64(), &net.transform_all(FuSeVariant::Full)).unwrap();
        let speedups: Vec<f64> = block_speedups(&base, &full)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| net.blocks()[*i].1.is_replaceable())
            .map(|(_, (_, s))| s)
            .collect();
        assert_eq!(speedups.len(), 17);
        let first3: f64 = speedups[..3].iter().sum::<f64>() / 3.0;
        let last3: f64 = speedups[speedups.len() - 3..].iter().sum::<f64>() / 3.0;
        assert!(
            first3 > last3,
            "early blocks ({first3:.2}x) should outpace late blocks ({last3:.2}x)"
        );
        // Every separable block individually gets faster.
        assert!(speedups.iter().all(|&s| s > 1.0));
    }

    #[test]
    fn speedup_grows_with_array_size() {
        // Fig. 8(d): under-utilization grows with array size, so FuSe
        // speed-ups grow monotonically in S.
        let net = zoo::mobilenet_v1();
        let full_net = net.transform_all(FuSeVariant::Full);
        let mut prev = 0.0;
        for s in [8usize, 16, 32, 64, 128] {
            let m = LatencyModel::new(ArrayConfig::square(s).unwrap().with_broadcast(true));
            let base = estimate_network(&m, &net).unwrap();
            let full = estimate_network(&m, &full_net).unwrap();
            let speedup = full.speedup_over(&base);
            assert!(
                speedup > prev,
                "speedup {speedup:.2} at {s} not above {prev:.2}"
            );
            prev = speedup;
        }
    }

    #[test]
    fn display_formats() {
        let net = zoo::mobilenet_v3_small();
        let r = estimate_network(&model64(), &net).unwrap();
        assert!(r.to_string().contains("MobileNet-V3-Small"));
        assert!(r.breakdown().to_string().contains("depthwise"));
    }

    #[test]
    fn json_and_csv_writers_cover_every_op() {
        let net = zoo::mobilenet_v2();
        let r = estimate_network(&model64(), &net).unwrap();
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(&format!("\"total_cycles\":{}", r.total_cycles)));
        assert_eq!(json.matches("\"op_label\":").count(), r.ops.len());
        let csv = r.to_csv();
        assert_eq!(csv.lines().count(), r.ops.len() + 1);
        assert!(csv.starts_with("block_index,block_name,op_label,class,macs,cycles"));
    }
}
