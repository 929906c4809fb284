//! `analyze-zoo`: `fuseconv analyze --all --array 16` (7 networks × the 5
//! Table I variants) plus Table I regenerated at 64×64.
//!
//! The seed shuffles the order in which network/variant pairs are analyzed;
//! the findings must not depend on it. Checks: the Table I CSV is byte-equal
//! to `tests/golden/table1_64x64.csv`, no finding has error severity, and
//! every iteration reports the same findings.

use crate::layers::{Layers, Spans};
use crate::{Checks, Figure, Workload};
use fuseconv_analyze::{analyze_network, Report};
use fuseconv_core::experiments;
use fuseconv_core::report::table1_csv;
use fuseconv_core::variant::{apply_variant, Variant};
use fuseconv_latency::{LatencyModel, PlanIr};
use fuseconv_models::{zoo, Network};
use fuseconv_nn::ops::Op;
use fuseconv_systolic::ArrayConfig;
use fuseconv_telemetry as telemetry;
use fuseconv_tensor::rng::Rng;
use std::time::Instant;

const GOLDEN_TABLE1: &str = include_str!("../../tests/golden/table1_64x64.csv");

/// Networks of `fuseconv analyze --all`, in its order.
fn all_networks() -> Vec<Network> {
    let mut nets = zoo::all_baselines();
    nets.extend([zoo::resnet50(), zoo::efficientnet_b0()]);
    nets
}

/// The `analyze-zoo` workload.
pub struct AnalyzeZoo {
    array: ArrayConfig,
    table1_array: ArrayConfig,
    /// `(network index, variant)` pairs in analysis order.
    order: Vec<(usize, Variant)>,
    /// Fingerprint of the first iteration's sorted findings.
    findings: Option<u64>,
    /// Findings of the last iteration.
    diagnostics: usize,
    /// The networks the last iteration analyzed, after their variant.
    analyzed: Vec<Network>,
    /// Geometric-mean FuSe-Full speed-up of the last Table I.
    full_speedup_geomean: f64,
}

impl AnalyzeZoo {
    /// The workload with its pair order drawn from `seed`.
    pub fn new(seed: u64) -> Result<AnalyzeZoo, String> {
        let array = ArrayConfig::square(16)
            .map_err(|e| e.to_string())?
            .with_broadcast(true);
        let table1_array = ArrayConfig::square(64)
            .map_err(|e| e.to_string())?
            .with_broadcast(true);
        let networks = all_networks().len();
        let mut order: Vec<(usize, Variant)> = (0..networks)
            .flat_map(|n| Variant::ALL.map(|v| (n, v)))
            .collect();
        Rng::seed_from_u64(seed).shuffle(&mut order);
        Ok(AnalyzeZoo {
            array,
            table1_array,
            order,
            findings: None,
            diagnostics: 0,
            analyzed: Vec::new(),
            full_speedup_geomean: 0.0,
        })
    }
}

impl Workload for AnalyzeZoo {
    fn iterate(&mut self, checks: &mut Checks) -> Result<(), String> {
        let nets = {
            let _s = telemetry::span("models.zoo_build");
            all_networks()
        };
        let model = LatencyModel::new(self.array);
        let mut report = Report::new();
        self.analyzed.clear();
        for &(n, variant) in &self.order {
            let net = {
                let _s = telemetry::span("core.apply_variant");
                apply_variant(&nets[n], variant, &self.array).map_err(|e| e.to_string())?
            };
            for d in analyze_network(&model, &net).diagnostics {
                // As the CLI does: findings that repeat across networks
                // sharing a dataflow are kept once.
                if !report.diagnostics.contains(&d) {
                    report.push(d);
                }
            }
            self.analyzed.push(net);
        }
        let text = {
            let _s = telemetry::span("analyze.emit");
            report.to_text()
        };
        let csv = {
            let _s = telemetry::span("core.table1");
            let rows = experiments::table1(&self.table1_array).map_err(|e| e.to_string())?;
            let full: Vec<f64> = rows
                .iter()
                .filter(|r| r.variant == Variant::FuseFull)
                .map(|r| r.speedup.ln())
                .collect();
            self.full_speedup_geomean = (full.iter().sum::<f64>() / full.len() as f64).exp();
            table1_csv(&rows)
        };

        checks.check(csv == GOLDEN_TABLE1, || {
            "Table I CSV differs from tests/golden/table1_64x64.csv".into()
        });
        checks.check(!report.has_errors(), || {
            format!("{} error-severity finding(s)", report.error_count())
        });
        let mut lines: Vec<&str> = text.lines().collect();
        lines.sort_unstable();
        let fingerprint = telemetry::fnv1a64(lines.join("\n").as_bytes());
        let first = *self.findings.get_or_insert(fingerprint);
        checks.check(fingerprint == first, || {
            format!("findings fingerprint {fingerprint:016x} differs from {first:016x}")
        });
        self.diagnostics = report.diagnostics.len();
        Ok(())
    }

    fn layers(
        &mut self,
        _spans: &Spans,
        iter_s: f64,
        _checks: &mut Checks,
        out: &mut Layers,
    ) -> Result<(), String> {
        out.insert("analyze.diagnostics", self.diagnostics as f64);
        // The fusion analyzer lifts each spatial-filter -> pointwise pair of
        // fold plans into a `PlanIr` and runs its liveness analysis; do the
        // same directly, timing lift and liveness apart.
        let model = LatencyModel::new(self.array);
        let (mut lift_s, mut liveness_s) = (0.0, 0.0);
        for net in &self.analyzed {
            for (_, block) in net.blocks() {
                let ops = block.ops();
                for (i, op) in ops.iter().enumerate() {
                    if !matches!(op, Op::Depthwise { .. } | Op::FuSe1d { .. }) {
                        continue;
                    }
                    let Some(j) =
                        (i + 1..ops.len()).find(|&j| matches!(ops[j], Op::Pointwise { .. }))
                    else {
                        continue;
                    };
                    let (Ok(producer), Ok(consumer)) =
                        (model.fold_plan(&ops[i]), model.fold_plan(&ops[j]))
                    else {
                        continue;
                    };
                    let t = Instant::now();
                    let ir = std::hint::black_box(PlanIr::from_pair(&producer, &consumer));
                    lift_s += t.elapsed().as_secs_f64();
                    let t = Instant::now();
                    std::hint::black_box(ir.live_intervals());
                    std::hint::black_box(ir.high_water());
                    std::hint::black_box(ir.high_water_without(ir.intermediates()));
                    liveness_s += t.elapsed().as_secs_f64();
                }
            }
        }
        out.insert("latency.ir.lift_frac", lift_s / iter_s);
        out.insert("latency.ir.liveness_frac", liveness_s / iter_s);
        Ok(())
    }

    fn figures(&self, wall_s: f64) -> Vec<Figure> {
        vec![
            Figure {
                name: "analyze_nets_per_s",
                unit: "1/s",
                value: self.order.len() as f64 / wall_s,
            },
            Figure {
                name: "table1_full_speedup_geomean",
                unit: "x",
                value: self.full_speedup_geomean,
            },
            Figure {
                name: "analyze_findings",
                unit: "count",
                value: self.diagnostics as f64,
            },
        ]
    }
}
