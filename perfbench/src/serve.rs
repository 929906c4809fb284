//! The serve workloads: a 1M-request `fuseconv serve` of the FuSe-Full zoo
//! on the default four-array pod, covering preflight, simulation and JSON
//! emission.
//!
//! * `serve-fifo`: FIFO, whole dispatch, load 0.8, recorder off.
//! * `serve-sharded-ts`: bucketed batching (max batch 8), LPT-sharded
//!   dispatch, load 0.95, time-series recorder on, both JSON artifacts.
//!
//! The seed is `ServeConfig::seed`, which drives the arrival process.
//! Artifacts are rendered to strings and not written to disk.

use crate::layers::{Layers, Spans};
use crate::{Checks, Figure, Workload};
use fuseconv_analyze::analyze_pod;
use fuseconv_core::variant::{apply_variant, Variant};
use fuseconv_models::zoo;
use fuseconv_serve::{
    simulate, simulate_observed, BatchPolicy, CostOracle, Dispatch, PodSpec, ServeConfig,
    ServeReport, TimeSeriesConfig, Workload as Traffic,
};
use fuseconv_systolic::ArrayConfig;
use fuseconv_telemetry as telemetry;
use std::time::Instant;

const POD: &str = "64x64:os,32x32:ws,16x16:os,8x8:os";
const REQUESTS: u64 = 1_000_000;

/// Result fields of the last iteration, for figures and layer metrics.
struct Last {
    report: ServeReport,
    windows: usize,
    emitted_bytes: usize,
    /// Memo hits and misses of the engine's cost oracle in this run.
    oracle: (u64, u64),
}

/// The serve engine's cumulative oracle memo counters.
fn oracle_counters() -> (u64, u64) {
    (
        telemetry::counter("serve.oracle_hits_total").get(),
        telemetry::counter("serve.oracle_misses_total").get(),
    )
}

/// One serve workload.
pub struct Serve {
    pod: PodSpec,
    traffic: Traffic,
    cfg: ServeConfig,
    timeseries: Option<TimeSeriesConfig>,
    /// `results_fnv1a64` of the report and time series of the first run;
    /// every later run must repeat them.
    fingerprints: Option<(String, Option<String>)>,
    last: Option<Last>,
}

impl Serve {
    /// `serve-fifo`.
    pub fn fifo(seed: u64) -> Result<Serve, String> {
        Serve::new(ServeConfig::new(), None, seed)
    }

    /// `serve-sharded-ts`.
    pub fn sharded_ts(seed: u64) -> Result<Serve, String> {
        let cfg = ServeConfig {
            policy: BatchPolicy::parse("bucketed", 8, 50_000).expect("known policy"),
            dispatch: Dispatch::Sharded,
            load: 0.95,
            ..ServeConfig::new()
        };
        Serve::new(cfg, Some(TimeSeriesConfig::new()), seed)
    }

    fn new(
        cfg: ServeConfig,
        timeseries: Option<TimeSeriesConfig>,
        seed: u64,
    ) -> Result<Serve, String> {
        let array = ArrayConfig::square(64)
            .map_err(|e| e.to_string())?
            .with_broadcast(true);
        let baselines = {
            let _s = telemetry::span("models.zoo_build");
            zoo::all_baselines()
        };
        let networks = {
            let _s = telemetry::span("core.apply_variant");
            baselines
                .iter()
                .map(|n| apply_variant(n, Variant::FuseFull, &array))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?
        };
        Ok(Serve {
            pod: PodSpec::parse(POD).map_err(|e| e.to_string())?,
            traffic: Traffic::uniform(networks).map_err(|e| e.to_string())?,
            cfg: ServeConfig {
                requests: REQUESTS,
                seed,
                ..cfg
            },
            timeseries,
            fingerprints: None,
            last: None,
        })
    }

    /// Checks a report against the first run's fingerprint and the
    /// request-conservation law.
    fn check_report(&self, report: &ServeReport, checks: &mut Checks) {
        checks.check(
            report.offered == REQUESTS && report.completed + report.dropped == REQUESTS,
            || {
                format!(
                    "serve conservation: offered {} completed {} dropped {}",
                    report.offered, report.completed, report.dropped
                )
            },
        );
        if let Some((hash, _)) = &self.fingerprints {
            let got = report.results_hash();
            checks.check(&got == hash, || {
                format!("serve fingerprint {got} differs from the first run's {hash}")
            });
        }
    }
}

impl Workload for Serve {
    fn iterate(&mut self, checks: &mut Checks) -> Result<(), String> {
        let preflight =
            analyze_pod(&self.pod, &self.traffic, &self.cfg).map_err(|e| e.to_string())?;
        checks.check(!preflight.has_errors(), || {
            format!("preflight: {}", preflight.to_text().trim_end())
        });
        let memo = oracle_counters();
        let (report, ts) = simulate_observed(
            &self.pod,
            &self.traffic,
            &self.cfg,
            None,
            self.timeseries.as_ref(),
        )
        .map_err(|e| e.to_string())?;
        let oracle = oracle_counters();
        let emitted_bytes = {
            let _s = telemetry::span("serve.emit");
            let json = std::hint::black_box(report.to_json());
            json.len()
                + ts.as_ref()
                    .map_or(0, |ts| std::hint::black_box(ts.to_json()).len())
        };
        self.check_report(&report, checks);
        let ts_hash = ts.as_ref().map(|ts| ts.results_hash());
        match &self.fingerprints {
            None => self.fingerprints = Some((report.results_hash(), ts_hash)),
            Some((_, first)) => checks.check(&ts_hash == first, || {
                format!("time-series fingerprint {ts_hash:?} differs from {first:?}")
            }),
        }
        self.last = Some(Last {
            windows: ts.as_ref().map_or(0, |ts| ts.windows.len()),
            report,
            emitted_bytes,
            oracle: (oracle.0 - memo.0, oracle.1 - memo.1),
        });
        Ok(())
    }

    fn layers(
        &mut self,
        spans: &Spans,
        iter_s: f64,
        checks: &mut Checks,
        out: &mut Layers,
    ) -> Result<(), String> {
        let last = self.last.as_ref().expect("a traced iteration ran");
        let busy_s = spans.busy_s("serve.simulate");
        let (hits, misses) = last.oracle;
        out.insert("serve.oracle.hits", hits as f64);
        out.insert("serve.oracle.misses", misses as f64);
        out.insert(
            "serve.oracle.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        out.insert("serve.events", last.report.events as f64);
        out.insert("serve.events_per_s", last.report.events as f64 / busy_s);
        out.insert("serve.requests_per_s", REQUESTS as f64 / busy_s);
        out.insert("serve.recorder.windows", last.windows as f64);
        out.insert("serve.emit.bytes", last.emitted_bytes as f64);
        out.insert("serve.queue_depth_max", last.report.queue.max_depth as f64);
        out.insert("serve.dropped", last.report.dropped as f64);

        // The oracle is built and primed inside `simulate_observed`; build
        // and prime one directly, as the engine does before its first event.
        let t = Instant::now();
        let models = self.pod.models().map_err(|e| e.to_string())?;
        let mut oracle = CostOracle::new(models, self.traffic.networks());
        for net in 0..self.traffic.len() {
            oracle.best_cycles(net).map_err(|e| e.to_string())?;
        }
        oracle
            .pod_capacity(&self.traffic.mix_fractions(), self.cfg.dispatch)
            .map_err(|e| e.to_string())?;
        out.insert(
            "serve.oracle.build_frac",
            t.elapsed().as_secs_f64() / iter_s,
        );

        // The recorder's cost: the simulation with it against the same
        // configuration without it, run back to back.
        if let Some(ts_cfg) = &self.timeseries {
            let t = Instant::now();
            let plain =
                simulate(&self.pod, &self.traffic, &self.cfg, None).map_err(|e| e.to_string())?;
            let plain_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let (observed, _) =
                simulate_observed(&self.pod, &self.traffic, &self.cfg, None, Some(ts_cfg))
                    .map_err(|e| e.to_string())?;
            out.insert(
                "serve.recorder.overhead_frac",
                t.elapsed().as_secs_f64() / plain_s - 1.0,
            );
            self.check_report(&plain, checks);
            self.check_report(&observed, checks);
        }
        Ok(())
    }

    fn figures(&self, wall_s: f64) -> Vec<Figure> {
        let Some(last) = &self.last else {
            return Vec::new();
        };
        let r = &last.report;
        vec![
            Figure {
                name: "serve_req_per_s",
                unit: "1/s",
                value: REQUESTS as f64 / wall_s,
            },
            Figure {
                name: "p99_latency_cycles",
                unit: "cycles",
                value: r.latency.p99 as f64,
            },
            Figure {
                name: "slo_attainment",
                unit: "frac",
                value: r.slo_met as f64 / REQUESTS as f64,
            },
            Figure {
                name: "serve_events",
                unit: "count",
                value: r.events as f64,
            },
            Figure {
                name: "serve_dropped",
                unit: "count",
                value: r.dropped as f64,
            },
        ]
    }
}
