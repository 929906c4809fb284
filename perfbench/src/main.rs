//! `perfbench`: end-to-end and per-layer host-time benchmark of the FuSeConv
//! workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-fifo|serve-sharded-ts|sim-zoo|analyze-zoo \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! One process and one thread drive the library crates as a closed loop with
//! one caller: each iteration starts only after the previous one returned.
//!
//! * `--trace 0` sets the workload up [`SETUP_REPEATS`] times (input
//!   generation plus one cold iteration each), then repeats iterations for
//!   `--seconds`. It reports `setup_s`, the median set-up, and `wall_s`, the
//!   median iteration, both in reference seconds (below). The host-second
//!   figures, the peak resident memory and the workload's own figures are
//!   printed beside them.
//! * `--trace 1` alternates untraced and traced iterations for `--seconds`.
//!   Traced ones run with the `fuseconv_telemetry` span profiler on, inside a
//!   `bench.iter` root span, and yield the per-layer metrics: the median of
//!   each over the traced iterations.
//!
//! Reference seconds: after each iteration, and after each set-up, the run
//! times a fixed computation ([`reference_s`]) that takes [`REFERENCE_S`] on
//! an unloaded core. A time in reference seconds is the median host time
//! scaled by `REFERENCE_S / median reference time` of the same run. On an
//! unloaded machine the two agree; on a shared host the ratio cancels the
//! slow phases, tens of seconds long, in which contention for the core
//! slows every host time of a run alike.
//!
//! Every iteration checks its outputs. The last line on stdout is one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`; the
//! lines before it are a readable report that also carries the metrics that
//! apply to one workload only (throughput, exact simulated-model figures).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod layers;
mod serve;
mod sim;

use fuseconv_telemetry as telemetry;
use layers::{Layers, Spans, PER_LAYER};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Seed kept out of every tuning run: a later claim of a gain must also hold
/// on it.
const HELD_OUT_SEED: u64 = 918_273_645;

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Fewest measured iterations (or traced/untraced pairs) per run, whatever
/// `--seconds` says.
const MIN_ITERS: usize = 3;

/// End-to-end metrics, `(name, unit)`; mirrors `end_to_end` in
/// `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("wall_s", "s")];

/// Seconds [`reference_s`] takes on an unloaded core of a 2 GHz Xeon: the
/// scale of reference seconds.
const REFERENCE_S: f64 = 0.003;

/// Reference timings after each set-up.
const SETUP_REFERENCES: usize = 3;

/// Output checks of a run: how many were made and how many failed.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Records one check; a failure is also described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// One workload-specific figure for the readable report.
pub struct Figure {
    /// Metric name.
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
}

/// A benchmark workload: inputs generated from a seed, one iteration at a
/// time.
pub trait Workload {
    /// Untimed preparation after input generation: reference outputs the
    /// checks compare against.
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Runs one iteration and checks its outputs.
    fn iterate(&mut self, checks: &mut Checks) -> Result<(), String>;

    /// Workload-specific per-layer metrics of the traced iteration that just
    /// ended, including direct calls into layers that the iteration reaches
    /// only from inside another crate.
    /// `iter_s` is that iteration's wall time. Runs with the profiler off.
    fn layers(
        &mut self,
        spans: &Spans,
        iter_s: f64,
        checks: &mut Checks,
        out: &mut Layers,
    ) -> Result<(), String>;

    /// Workload-specific end-to-end figures, given the median iteration time.
    fn figures(&self, wall_s: f64) -> Vec<Figure>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload serve-fifo|serve-sharded-ts|sim-zoo|analyze-zoo \
--seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let seconds: f64 = flag("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: flag("--workload")?.to_string(),
        seed: flag("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match flag("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
    })
}

fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "serve-fifo" => Box::new(serve::Serve::fifo(seed)?),
        "serve-sharded-ts" => Box::new(serve::Serve::sharded_ts(seed)?),
        "sim-zoo" => Box::new(sim::SimZoo::new(seed)?),
        "analyze-zoo" => Box::new(analyze::AnalyzeZoo::new(seed)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Median of `v` (which must be nonempty).
fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (which must be nonempty).
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn describe(name: &str, unit: &str, v: &[f64]) -> String {
    format!(
        "{name:<28} median {:.6} {unit}  q1 {:.6}  q3 {:.6}  min {:.6}  n={}",
        median(v),
        quantile(v, 0.25),
        quantile(v, 0.75),
        quantile(v, 0.0),
        v.len()
    )
}

/// Host seconds of one fixed reference computation: eight independent
/// float multiply-add chains over two 16 KB arrays that stay in L1, a loop
/// bound by the core's arithmetic throughput like the simulator's and the
/// event loop's inner loops. Memory-bound candidates barely moved in the
/// slow phases that slowed the workloads by up to 1.8×; this loop moves with
/// them.
fn reference_s() -> f64 {
    const LEN: usize = 4096;
    let a: Vec<f32> = (0..LEN).map(|i| (i % 13) as f32 * 0.1).collect();
    let b: Vec<f32> = (0..LEN).map(|i| (i % 7) as f32 * 0.2).collect();
    let t = Instant::now();
    let mut acc = [0.0f32; 8];
    for _ in 0..8000 {
        for (ca, cb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
            for k in 0..8 {
                acc[k] += ca[k] * cb[k];
            }
        }
        std::hint::black_box(&mut acc);
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Nanoseconds one armed span costs to open and close, median of three
/// batches of 100 000 empty spans.
fn ns_per_span() -> f64 {
    const N: u32 = 100_000;
    let mut samples = Vec::new();
    telemetry::set_spans_enabled(true);
    for _ in 0..3 {
        telemetry::span::reset();
        let t = Instant::now();
        for _ in 0..N {
            let _s = telemetry::span("bench.span_probe");
        }
        samples.push(t.elapsed().as_nanos() as f64 / f64::from(N));
    }
    telemetry::set_spans_enabled(false);
    telemetry::span::reset();
    median(&samples)
}

/// One reported metric: name, unit and value.
type Metric = (&'static str, &'static str, f64);

fn run(args: &Args) -> Result<(Checks, Vec<Metric>), String> {
    let mut checks = Checks::default();
    let run_start = Instant::now();
    println!(
        "perfbench workload={} seed={} held_out_seed={HELD_OUT_SEED} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // Set-up: input generation plus the first, cold iteration. Process-wide
    // memos (legality and audit gates) are cold only in the first set-up. A
    // traced run sets up once, with the profiler on, for the layers that
    // only set-up reaches.
    let (mut setups, mut setup_refs) = (Vec::new(), Vec::new());
    let mut workload = None;
    telemetry::set_spans_enabled(args.trace);
    for _ in 0..if args.trace { 1 } else { SETUP_REPEATS } {
        drop(workload.take());
        let t = Instant::now();
        let mut w = build(&args.workload, args.seed)?;
        let generated = t.elapsed();
        telemetry::set_spans_enabled(false);
        w.prepare()?;
        telemetry::set_spans_enabled(args.trace);
        let t = Instant::now();
        w.iterate(&mut checks)?;
        setups.push((generated + t.elapsed()).as_secs_f64());
        setup_refs.extend((0..SETUP_REFERENCES).map(|_| reference_s()));
        workload = Some(w);
    }
    telemetry::set_spans_enabled(false);
    let setup_spans = Spans::from_tree(&telemetry::span_snapshot());
    let mut w = workload.expect("at least one set-up ran");
    println!("{}", describe("setup_host_s", "s", &setups));

    let measure_start = Instant::now();
    let done = |n: usize| n >= MIN_ITERS && measure_start.elapsed().as_secs_f64() >= args.seconds;
    let mut metrics = Vec::new();
    if !args.trace {
        let (mut walls, mut refs) = (Vec::new(), Vec::new());
        while !done(walls.len()) {
            let t = Instant::now();
            w.iterate(&mut checks)?;
            walls.push(t.elapsed().as_secs_f64());
            refs.push(reference_s());
        }
        let wall_host_s = median(&walls);
        println!("{}", describe("wall_host_s", "s", &walls));
        println!("{}", describe("reference_s", "s", &refs));
        println!("{}", describe("setup_reference_s", "s", &setup_refs));
        let values = [
            median(&setups) / median(&setup_refs) * REFERENCE_S,
            wall_host_s / median(&refs) * REFERENCE_S,
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            println!("{name:<28} {value} {unit} (reference seconds)");
            metrics.push((name, unit, value));
        }
        for f in w.figures(wall_host_s) {
            println!("{:<28} {} {}", f.name, f.value, f.unit);
        }
        // Peak memory is reported but not gated: it moves in steps of a few
        // MB with the allocator's reuse of the large per-run buffers.
        println!("{:<28} {} MB", "peak_rss_mb", peak_rss_mb()?);
    } else {
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut samples: Vec<Layers> = Vec::new();
        let mut last_tree = String::new();
        while !done(traced.len()) {
            let t = Instant::now();
            w.iterate(&mut checks)?;
            plain.push(t.elapsed().as_secs_f64());

            let folds = telemetry::counter("latency.folds_planned_total").get();
            telemetry::span::reset();
            telemetry::set_spans_enabled(true);
            let t = Instant::now();
            let result = {
                let _root = telemetry::span("bench.iter");
                w.iterate(&mut checks)
            };
            let iter_s = t.elapsed().as_secs_f64();
            telemetry::set_spans_enabled(false);
            result?;
            traced.push(iter_s);
            let tree = telemetry::span_snapshot();
            last_tree = tree.to_text();
            let spans = Spans::from_tree(&tree);
            let mut layers = Layers::new();
            layers::common(
                &spans,
                iter_s,
                telemetry::counter("latency.folds_planned_total").get() - folds,
                &mut layers,
            );
            w.layers(&spans, iter_s, &mut checks, &mut layers)?;
            samples.push(layers);
        }
        let mut layers = Layers::new();
        for &(name, _) in PER_LAYER {
            let v: Vec<f64> = samples
                .iter()
                .filter_map(|s| s.get(name).copied())
                .collect();
            if !v.is_empty() {
                layers.insert(name, median(&v));
            }
        }
        layers::setup(&setup_spans, setups[0], &mut layers);
        layers.insert("telemetry.span.ns_per_span", ns_per_span());
        layers.insert(
            "telemetry.trace_overhead_frac",
            median(&traced) / median(&plain) - 1.0,
        );
        println!(
            "span tree of the last traced iteration:\n{}",
            last_tree.trim_end()
        );
        println!("{}", describe("wall_host_s (untraced)", "s", &plain));
        println!("{}", describe("wall_host_s (traced)", "s", &traced));
        for &(name, unit) in PER_LAYER {
            let value = layers.remove(name).unwrap_or(0.0);
            println!("{name:<36} {value} {unit}");
            metrics.push((name, unit, value));
        }
        if let Some(extra) = layers.keys().next() {
            return Err(format!("per-layer metric `{extra}` is not declared"));
        }
    }
    println!(
        "{:<28} {} ({} of {} checks failed)",
        "failed_frac",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    println!("{:<28} {:.3} s", "run_s", run_start.elapsed().as_secs_f64());
    Ok((checks, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (checks, metrics) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted,
        checks.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}
