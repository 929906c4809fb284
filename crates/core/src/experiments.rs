//! One driver per table/figure of the paper's evaluation (§V).
//!
//! Every function returns plain data rows; the example binaries and the
//! bench harness format them. The experiment ↔ artifact mapping lives in
//! `DESIGN.md` (E1–E10).

use crate::cnn::{build_cnn, CnnConfig};
use crate::variant::{apply_variant, Variant};
use fuseconv_hwcost::{Overhead, TechnologyProfile};
use fuseconv_latency::{block_speedups, estimate_network, LatencyError, LatencyModel};
use fuseconv_models::{zoo, Network};
use fuseconv_nn::ops::OpClass;
use fuseconv_nn::NnError;
use fuseconv_systolic::ArrayConfig;
use fuseconv_telemetry::Telemetry;
use fuseconv_train::dataset::{DiagonalStripes, OrientedTextures};
use fuseconv_train::trainer::{train, TrainConfig};

/// One measured row of Table I (E1/E2/E4).
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Network name.
    pub network: String,
    /// Variant.
    pub variant: Variant,
    /// Measured MACs, millions.
    pub macs_millions: f64,
    /// Measured parameters, millions.
    pub params_millions: f64,
    /// Latency on the given array, cycles (Fig. 8(a)).
    pub latency_cycles: u64,
    /// Speed-up relative to the same network's baseline.
    pub speedup: f64,
}

/// Reproduces Table I (MACs, params, latency and speed-up) for all five
/// networks and five variants on `array`.
///
/// # Errors
///
/// Propagates [`LatencyError`] (e.g. FuSe on a broadcast-less array).
pub fn table1(array: &ArrayConfig) -> Result<Vec<Table1Row>, LatencyError> {
    let model = LatencyModel::new(*array);
    let mut rows = Vec::with_capacity(25);
    for baseline in zoo::all_baselines() {
        let base_latency = estimate_network(&model, &baseline)?;
        for variant in Variant::ALL {
            let net = apply_variant(&baseline, variant, array)?;
            let latency = estimate_network(&model, &net)?;
            let summary = net.summary();
            rows.push(Table1Row {
                network: baseline.name().to_string(),
                variant,
                macs_millions: summary.macs_millions(),
                params_millions: summary.params_millions(),
                latency_cycles: latency.total_cycles,
                speedup: latency.speedup_over(&base_latency),
            });
        }
    }
    Ok(rows)
}

/// One block of the Fig. 8(b) layer-wise study.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerwiseRow {
    /// Block label.
    pub block: String,
    /// Whether the block was FuSe-transformed.
    pub transformed: bool,
    /// Baseline block cycles.
    pub baseline_cycles: u64,
    /// Transformed-network block cycles.
    pub fused_cycles: u64,
    /// Block speed-up.
    pub speedup: f64,
}

/// Reproduces Fig. 8(b): per-block speed-up of a network's Full variant.
/// The paper plots MobileNet-V2; any baseline network works.
///
/// # Errors
///
/// Propagates [`LatencyError`].
pub fn layerwise(
    network: &Network,
    variant: Variant,
    array: &ArrayConfig,
) -> Result<Vec<LayerwiseRow>, LatencyError> {
    let model = LatencyModel::new(*array);
    let base = estimate_network(&model, network)?;
    let transformed_net = apply_variant(network, variant, array)?;
    let fused = estimate_network(&model, &transformed_net)?;
    let speedups = block_speedups(&base, &fused);
    let base_blocks = base.by_block();
    let fused_blocks = fused.by_block();
    Ok(network
        .blocks()
        .iter()
        .enumerate()
        .map(|(i, (_, block))| LayerwiseRow {
            block: base_blocks[i].name.clone(),
            transformed: block.is_replaceable() && !transformed_net.blocks()[i].1.is_replaceable(),
            baseline_cycles: base_blocks[i].cycles,
            fused_cycles: fused_blocks[i].cycles,
            speedup: speedups[i].1,
        })
        .collect())
}

/// One network's operator-class latency distribution (Fig. 8(c)).
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRow {
    /// Network name.
    pub network: String,
    /// Variant.
    pub variant: Variant,
    /// `(class, latency fraction)` pairs summing to 1.
    pub fractions: Vec<(OpClass, f64)>,
}

/// Reproduces Fig. 8(c): latency distribution across operator classes for
/// baseline and Full-variant networks.
///
/// # Errors
///
/// Propagates [`LatencyError`].
pub fn operator_breakdown(array: &ArrayConfig) -> Result<Vec<BreakdownRow>, LatencyError> {
    let model = LatencyModel::new(*array);
    let mut rows = Vec::new();
    for baseline in zoo::all_baselines() {
        for variant in [Variant::Baseline, Variant::FuseFull] {
            let net = apply_variant(&baseline, variant, array)?;
            let report = estimate_network(&model, &net)?;
            let bd = report.breakdown();
            rows.push(BreakdownRow {
                network: baseline.name().to_string(),
                variant,
                fractions: bd
                    .entries()
                    .map(|(class, cycles)| (class, cycles as f64 / bd.total() as f64))
                    .collect(),
            });
        }
    }
    Ok(rows)
}

/// One point of the Fig. 8(d) ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingRow {
    /// Square array side.
    pub array_size: usize,
    /// Network name.
    pub network: String,
    /// Full-variant speed-up at this size.
    pub speedup: f64,
}

/// Reproduces Fig. 8(d): Full-variant speed-up versus systolic-array size,
/// for all five networks. Sizes are evaluated in parallel, each worker
/// recording its spans and metrics into the caller's telemetry run.
///
/// # Errors
///
/// Propagates [`LatencyError`]; `ArrayConfig` construction failures cannot
/// occur for nonzero sizes, which are validated here.
pub fn array_scaling(sizes: &[usize]) -> Result<Vec<ScalingRow>, LatencyError> {
    let run = &Telemetry::current();
    let results: Vec<Result<Vec<ScalingRow>, LatencyError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sizes
            .iter()
            .map(|&s| {
                scope.spawn(move || -> Result<Vec<ScalingRow>, LatencyError> {
                    run.join();
                    let array = ArrayConfig::square(s)
                        .expect("sizes must be nonzero")
                        .with_broadcast(true);
                    let model = LatencyModel::new(array);
                    let mut rows = Vec::new();
                    for baseline in zoo::all_baselines() {
                        let base = estimate_network(&model, &baseline)?;
                        let full = estimate_network(
                            &model,
                            &baseline.transform_all(fuseconv_nn::FuSeVariant::Full),
                        )?;
                        rows.push(ScalingRow {
                            array_size: s,
                            network: baseline.name().to_string(),
                            speedup: full.speedup_over(&base),
                        });
                    }
                    Ok(rows)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scaling worker panicked"))
            .collect()
    });
    let mut rows = Vec::new();
    for r in results {
        rows.extend(r?);
    }
    Ok(rows)
}

/// The paper's §I motivating comparison, measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntroClaim {
    /// ResNet-50 MACs divided by MobileNet-V2 MACs (paper: ~12×).
    pub mac_ratio: f64,
    /// ResNet-50 latency divided by MobileNet-V2 latency on the array
    /// (paper: only ~1.3× on 32×32 — the incommensurate scaling that
    /// motivates the whole work).
    pub latency_ratio: f64,
    /// MobileNet-V2 latency, cycles.
    pub mobilenet_cycles: u64,
    /// ResNet-50 latency, cycles.
    pub resnet_cycles: u64,
}

/// Reproduces the §I claim: "MobileNet-V2 has 12× fewer computations than
/// ResNet-50, but runs only 1.3× faster on a systolic array with MACs
/// arranged in a 32×32 array."
///
/// # Errors
///
/// Propagates [`LatencyError`]; neither network needs broadcast links.
pub fn intro_claim(array_side: usize) -> Result<IntroClaim, LatencyError> {
    let array = ArrayConfig::square(array_side).expect("array side must be nonzero");
    let model = LatencyModel::new(array);
    let v2 = zoo::mobilenet_v2();
    let resnet = zoo::resnet50();
    let v2_lat = estimate_network(&model, &v2)?;
    let rn_lat = estimate_network(&model, &resnet)?;
    Ok(IntroClaim {
        mac_ratio: resnet.macs() as f64 / v2.macs() as f64,
        latency_ratio: rn_lat.total_cycles as f64 / v2_lat.total_cycles as f64,
        mobilenet_cycles: v2_lat.total_cycles,
        resnet_cycles: rn_lat.total_cycles,
    })
}

/// Reproduces §V-B-5: broadcast-link area/power overhead per array size.
pub fn hw_overhead(sizes: &[usize]) -> Vec<(usize, Overhead)> {
    let tech = TechnologyProfile::nangate45();
    sizes
        .iter()
        .map(|&s| (s, tech.broadcast_overhead(s, s)))
        .collect()
}

/// One row of the energy study: latency and the structural power model
/// combined into per-inference energy.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyRow {
    /// Network name.
    pub network: String,
    /// Variant.
    pub variant: Variant,
    /// Latency, cycles.
    pub cycles: u64,
    /// Array power draw, milliwatts (broadcast links included for FuSe
    /// variants — they physically require them; the baseline runs on the
    /// plain array).
    pub power_mw: f64,
    /// Per-inference energy, microjoules.
    pub energy_uj: f64,
}

/// Combines the latency model (E2) with the structural power model (E8)
/// into per-inference energy at the given clock. This is the paper's
/// implicit value proposition quantified: FuSeConv pays ~2 % more power on
/// a broadcast-equipped array but finishes several times sooner, for a
/// large net energy win.
///
/// # Errors
///
/// Propagates [`LatencyError`].
pub fn energy_study(array_side: usize, clock_mhz: f64) -> Result<Vec<EnergyRow>, LatencyError> {
    let plain = ArrayConfig::square(array_side).expect("array side must be nonzero");
    let broadcast = plain.with_broadcast(true);
    let tech = TechnologyProfile::nangate45();
    let plain_power = tech.array_cost(array_side, array_side, false).power_mw();
    let bcast_power = tech.array_cost(array_side, array_side, true).power_mw();

    let mut rows = Vec::new();
    for baseline in zoo::all_baselines() {
        for variant in [Variant::Baseline, Variant::FuseFull, Variant::FuseHalf] {
            // Baselines run on the plain array; FuSe variants need the
            // broadcast links (and therefore pay their power).
            let (array, power_mw) = match variant {
                Variant::Baseline => (plain, plain_power),
                _ => (broadcast, bcast_power),
            };
            let model = LatencyModel::new(array);
            let net = apply_variant(&baseline, variant, &broadcast)?;
            let report = estimate_network(&model, &net)?;
            let seconds = report.total_cycles as f64 / (clock_mhz * 1e6);
            rows.push(EnergyRow {
                network: baseline.name().to_string(),
                variant,
                cycles: report.total_cycles,
                power_mw,
                energy_uj: power_mw * 1e3 * seconds, // mW·s = mJ → µJ ×1e3
            });
        }
    }
    Ok(rows)
}

/// Which synthetic task the accuracy study trains on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TaskKind {
    /// Oriented sinusoidal gratings — separable signals, the friendly
    /// case for 1-D filters (default).
    #[default]
    OrientedTextures,
    /// ±45° diagonal stripes — non-separable; 1-D marginals carry no
    /// class information, probing what the substitution gives up.
    DiagonalStripes,
}

/// Configuration of the accuracy study (E3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyConfig {
    /// Training samples.
    pub train_samples: usize,
    /// Held-out samples.
    pub test_samples: usize,
    /// Image side length.
    pub image_size: usize,
    /// Orientation classes.
    pub classes: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Random seed (dataset and weights).
    pub seed: u64,
    /// Which synthetic task to train on.
    pub task: TaskKind,
}

impl Default for AccuracyConfig {
    fn default() -> Self {
        AccuracyConfig {
            train_samples: 192,
            test_samples: 64,
            image_size: 16,
            classes: 4,
            epochs: 12,
            seed: 7,
            task: TaskKind::OrientedTextures,
        }
    }
}

/// One trained variant's result.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyRow {
    /// Variant trained.
    pub variant: Variant,
    /// Held-out accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Trainable parameter count.
    pub params: usize,
}

/// Trains baseline, FuSe-Full and FuSe-Half study CNNs on the synthetic
/// oriented-texture task with the paper's recipe, reporting held-out
/// accuracy — the substitute for the Table I accuracy column.
///
/// # Errors
///
/// Propagates [`NnError`] from training.
pub fn accuracy_study(cfg: &AccuracyConfig) -> Result<Vec<AccuracyRow>, NnError> {
    let (classes, train_data, test_data) = match cfg.task {
        TaskKind::OrientedTextures => {
            let gen = OrientedTextures::new(cfg.image_size, cfg.classes);
            (
                cfg.classes,
                gen.generate(cfg.train_samples, cfg.seed),
                gen.generate(cfg.test_samples, cfg.seed.wrapping_add(1)),
            )
        }
        TaskKind::DiagonalStripes => {
            let gen = DiagonalStripes::new(cfg.image_size);
            (
                gen.classes(),
                gen.generate(cfg.train_samples, cfg.seed),
                gen.generate(cfg.test_samples, cfg.seed.wrapping_add(1)),
            )
        }
    };
    let mut rows = Vec::new();
    for variant in [Variant::Baseline, Variant::FuseFull, Variant::FuseHalf] {
        let mut net = build_cnn(
            variant,
            &CnnConfig {
                classes,
                seed: cfg.seed,
                ..CnnConfig::default()
            },
        );
        let report = train(
            &mut net,
            &train_data,
            &test_data,
            &TrainConfig {
                epochs: cfg.epochs,
                batch_size: 16,
                base_lr: 0.012,
                ema_decay: None,
                seed: cfg.seed,
            },
        )?;
        rows.push(AccuracyRow {
            variant,
            accuracy: report.test_accuracy,
            params: net.num_params(),
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array64() -> ArrayConfig {
        ArrayConfig::square(64).unwrap().with_broadcast(true)
    }

    #[test]
    fn table1_has_25_rows_with_consistent_speedups() {
        let rows = table1(&array64()).unwrap();
        assert_eq!(rows.len(), 25);
        for row in &rows {
            match row.variant {
                Variant::Baseline => assert!((row.speedup - 1.0).abs() < 1e-12),
                _ => assert!(row.speedup > 1.0, "{} {}", row.network, row.variant),
            }
            assert!(row.macs_millions > 0.0 && row.params_millions > 0.0);
        }
        // Half beats Full everywhere (Table I).
        for net in ["MobileNet-V1", "MobileNet-V2", "MnasNet-B1"] {
            let get = |v: Variant| {
                rows.iter()
                    .find(|r| r.network == net && r.variant == v)
                    .unwrap()
                    .speedup
            };
            assert!(get(Variant::FuseHalf) > get(Variant::FuseFull), "{net}");
            assert!(get(Variant::FuseFull) > get(Variant::FuseFull50), "{net}");
        }
    }

    #[test]
    fn layerwise_covers_all_blocks() {
        let net = zoo::mobilenet_v2();
        let rows = layerwise(&net, Variant::FuseFull, &array64()).unwrap();
        assert_eq!(rows.len(), net.blocks().len());
        let transformed: Vec<_> = rows.iter().filter(|r| r.transformed).collect();
        assert_eq!(transformed.len(), 17);
        // Every transformed block speeds up; untransformed blocks don't
        // change except via identical op sets (speedup == 1).
        for r in &rows {
            if r.transformed {
                assert!(r.speedup > 1.0, "{}", r.block);
            } else {
                assert!((r.speedup - 1.0).abs() < 1e-9, "{}", r.block);
            }
        }
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let rows = operator_breakdown(&array64()).unwrap();
        assert_eq!(rows.len(), 10);
        for row in &rows {
            let sum: f64 = row.fractions.iter().map(|(_, f)| f).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{} {}", row.network, row.variant);
        }
    }

    #[test]
    fn scaling_is_monotone_per_network() {
        let rows = array_scaling(&[8, 32, 128]).unwrap();
        assert_eq!(rows.len(), 15);
        for net in ["MobileNet-V1", "MobileNet-V3-Small"] {
            let mut s: Vec<_> = rows.iter().filter(|r| r.network == net).collect();
            s.sort_by_key(|r| r.array_size);
            assert!(s[0].speedup < s[1].speedup && s[1].speedup < s[2].speedup);
        }
    }

    #[test]
    fn scaling_workers_record_into_the_callers_run() {
        fuseconv_telemetry::set_spans_enabled(true);
        let rows = array_scaling(&[8, 16]).unwrap();
        fuseconv_telemetry::set_spans_enabled(false);
        let tree = fuseconv_telemetry::span_snapshot();
        let priced = tree.find("latency.cycles").map_or(0, |n| n.count);
        let ops: usize = zoo::all_baselines().iter().map(|n| n.ops().len()).sum();
        // Each worker prices every op of each baseline at least once.
        assert!(priced >= (2 * ops) as u64, "{}", tree.to_text());
        assert_eq!(rows.len(), 10);
    }

    #[test]
    fn hw_overhead_reports_paper_point() {
        let rows = hw_overhead(&[16, 32, 64]);
        let at32 = rows.iter().find(|(s, _)| *s == 32).unwrap().1;
        assert!((at32.area_pct - crate::paper::HW_OVERHEAD_32X32.0).abs() < 0.2);
        assert!((at32.power_pct - crate::paper::HW_OVERHEAD_32X32.1).abs() < 0.2);
    }

    #[test]
    fn intro_claim_reproduces() {
        // §I: ~12x fewer MACs, but only ~1.3x faster on 32x32. Our model
        // must show the same incommensurate scaling: a MAC ratio an order
        // of magnitude larger than the latency ratio.
        let claim = intro_claim(32).unwrap();
        assert!(
            (10.0..16.0).contains(&claim.mac_ratio),
            "MAC ratio {:.1}",
            claim.mac_ratio
        );
        assert!(
            (0.8..4.0).contains(&claim.latency_ratio),
            "latency ratio {:.2}",
            claim.latency_ratio
        );
        assert!(
            claim.mac_ratio > 4.0 * claim.latency_ratio,
            "scaling should be incommensurate: {:.1} vs {:.2}",
            claim.mac_ratio,
            claim.latency_ratio
        );
    }

    #[test]
    fn energy_win_despite_power_overhead() {
        let rows = energy_study(64, 700.0).unwrap();
        assert_eq!(rows.len(), 15);
        for base_row in rows.iter().filter(|r| r.variant == Variant::Baseline) {
            let get = |v: Variant| {
                rows.iter()
                    .find(|r| r.network == base_row.network && r.variant == v)
                    .unwrap()
            };
            for v in [Variant::FuseFull, Variant::FuseHalf] {
                let fused = get(v);
                // FuSe pays more power…
                assert!(fused.power_mw > base_row.power_mw);
                // …but wins on energy by at least 2x.
                assert!(
                    fused.energy_uj * 2.0 < base_row.energy_uj,
                    "{} {v}: {:.1}uJ vs baseline {:.1}uJ",
                    base_row.network,
                    fused.energy_uj,
                    base_row.energy_uj
                );
            }
        }
    }

    #[test]
    fn accuracy_study_beats_chance_for_all_variants() {
        // Small-but-real training run; keeps CI fast while still learning.
        let cfg = AccuracyConfig {
            train_samples: 96,
            test_samples: 32,
            epochs: 6,
            ..AccuracyConfig::default()
        };
        let rows = accuracy_study(&cfg).unwrap();
        assert_eq!(rows.len(), 3);
        let chance = 1.0 / cfg.classes as f64;
        for row in &rows {
            assert!(
                row.accuracy > chance,
                "{}: accuracy {:.2} at or below chance",
                row.variant,
                row.accuracy
            );
        }
        // Parameter ordering mirrors Table I.
        let get = |v: Variant| rows.iter().find(|r| r.variant == v).unwrap().params;
        assert!(get(Variant::FuseFull) > get(Variant::Baseline));
        assert!(get(Variant::FuseHalf) < get(Variant::Baseline));
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use fuseconv_latency::{estimate_network, LatencyModel};

    /// The FuSe speed-up generalizes beyond the paper's five networks: the
    /// EfficientNet-B0 the paper cites for poor EdgeTPU scaling (§I)
    /// benefits just as much.
    #[test]
    fn efficientnet_b0_also_speeds_up() {
        let array = ArrayConfig::square(64).unwrap().with_broadcast(true);
        let model = LatencyModel::new(array);
        let net = zoo::efficientnet_b0();
        let base = estimate_network(&model, &net).unwrap();
        for variant in [Variant::FuseFull, Variant::FuseHalf] {
            let fused = apply_variant(&net, variant, &array).unwrap();
            let report = estimate_network(&model, &fused).unwrap();
            let s = report.speedup_over(&base);
            assert!(s > 3.0, "{variant}: {s:.2}x");
        }
    }
}
