//! `fuseconv` — command-line interface to the FuSeConv reproduction.
//!
//! `fuseconv help` prints [`HELP`], the one list of every command and
//! flag.

mod args;

use args::ParsedArgs;
use fuseconv_analyze as analyze;
use fuseconv_core::experiments;
use fuseconv_core::nos;
use fuseconv_core::report;
use fuseconv_core::trace as tracecap;
use fuseconv_core::variant::{apply_variant, Variant};
use fuseconv_latency::{estimate_network, Dataflow, LatencyModel};
use fuseconv_models::{topology, zoo, Network};
use fuseconv_serve as serve;
use fuseconv_systolic::{conv1d, ArrayConfig};
use fuseconv_telemetry as telemetry;
use fuseconv_trace::{ChromeTraceSink, NullSink, ScaleSimSink, UtilizationSink};
use std::collections::HashSet;
use std::error::Error;
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;

/// `println!` that returns the write error instead of panicking; [`main`]
/// exits quietly with success when the reader closed stdout (`| head`).
macro_rules! say {
    ($($arg:tt)*) => {
        writeln!(io::stdout().lock(), $($arg)*)
    };
}

/// Usage text: every command, its flags and the common flags.
const HELP: &str = "\
fuseconv — FuSeConv (DATE 2021) reproduction CLI

USAGE: fuseconv <command> [flags]

COMMANDS:
  table1     Table I: MACs, params, latency and speed-up (all networks/variants)
  layerwise  Fig. 8(b): per-block speed-up   [--network NAME] [--variant full|half]
  breakdown  Fig. 8(c): operator-class latency distribution
  scaling    Fig. 8(d): speed-up vs array size   [--sizes 8,16,...]
  overhead   §V-B-5: broadcast-link area/power overhead   [--sizes ...]
  energy     per-inference energy (latency x power model)   [--mhz 700]
  nos        Neural Operator Search Pareto frontier   [--network NAME]
  topology   evaluate a custom network from a topology file: fuseconv topology FILE
  reports    write every latency-side experiment to CSV   [--dir reports]
  trace      capture an execution trace   [--network NAME] [--variant baseline|full|half]
             [--layer N] [--format scalesim|chrome|heatmap] [--out PATH]
             chrome:   whole-network (or --layer) Chrome/Perfetto JSON timeline
             heatmap:  per-PE activity of one layer (--layer, cycle-exact sim);
                       prints ASCII art, writes CSV
             scalesim: SCALE-Sim-style SRAM read/write traces of one layer
                       (--layer); writes <out>_{ifmap_read,filter_read,ofmap_write}.csv
  analyze    static dataflow-legality audit: verify RIA well-formedness, schedule
             legality (tau.d >= 1), locality and resource/utilization rules, plus
             fold-plan coverage (PLAN), SRAM/bandwidth feasibility (MEM) and
             tensor shape flow (SHP) — all before any simulation
             [--all | --network NAME] [--variant baseline|full|half]
             [--format text|json] [--out PATH]; exits nonzero on error findings
             --fusion: restrict the audit to the fold-plan-IR fusion family
             (FUS rules) — statically fusible producer/consumer pairs with
             exact SRAM savings, illegal-fusion findings and the per-network
             fusion-headroom ranking
             --serve: serving-feasibility mode (SRV rules) — statically prove
             pod capacity (rho < 1), SLO attainability, bucket coverage,
             shard-plan legality, queue sizing and preemption sanity for a
             pod/workload/SLO deployment; accepts all `serve` flags
  perf       cycle-accounted performance counters (fill/active/bubble/drain with
             sum == total cycles), stall attribution and a roofline/efficiency
             report from the analytic fold plans
             [--network NAME] [--variant baseline|full|half] [--array 64]
             [--bytes-per-elem 2] [--bandwidth 64] [--format text|json] [--out PATH]
  bench      run the fixed micro-bench suite (simulators + analytic paths)
             [--json] [--out BENCH_fuseconv.json] [--budget-ms 100]
             [--runs N] (per-bench min over N suite runs; default 1)
             [--baseline PATH] [--max-regress 25]; with --baseline, exits
             nonzero when a bench regresses past the geomean-normalized gate;
             --out also writes run provenance to <out>.manifest.json
  profile    profile the host-side pipeline (analyze + fold-plan replay +
             a cycle-exact 1-D conv calibration sim + perf counters) for
             one network: prints the aggregated span tree (total/self
             wall-clock per span) and the metrics
             registry   [NETWORK] [--variant baseline|full|half]
             [--chrome-trace[=PATH]]  host spans as Chrome trace JSON
                                      (default profile_trace.json)
             [--metrics-json[=PATH]]  fuseconv-metrics-v1 snapshot
                                      (default profile_metrics.json)
  serve      discrete-event pod simulation: N heterogeneous arrays behind a
             request queue under open-loop Poisson-ish traffic, at analytic
             (fold-plan oracle) speed — millions of requests in seconds
             [--pod 64x64:os,32x32:ws,...]  arrays as ROWSxCOLS[:os|ws|is]
             [--networks NAME,...|zoo] [--variant baseline|full|half]
             [--requests N] [--load F]  offered load vs estimated capacity
             [--policy fifo|dynamic|bucketed] [--max-batch N] [--max-wait N]
             [--dispatch whole|sharded]  whole-array or LPT-sharded batches
             [--preempt[=false]] [--high-frac F]  priority traffic + fold-level preemption
             [--queue-cap N] [--slo-mult F] [--seed N]
             [--slo-budget N]  absolute SLO latency budget in cycles
                               (overrides --slo-mult)
             [--buckets N]  only the first N networks get shape buckets
                            (bucketed policy only; uncovered requests drop)
             [--force]  simulate even when the static preflight
                        (fuseconv analyze --serve) proves the config infeasible
             [--format text|json] [--out PATH]
             [--chrome-trace[=PATH]]  per-array lanes (default serve_trace.json)
             [--timeseries[=PATH]]  windowed time-series observability
                            (fuseconv-serve-timeseries-v1: offered/goodput/
                            drops, queue depth, per-array utilization, latency
                            sketch, SLO burn-rate alerts, tail exemplars;
                            default serve_timeseries.json); with --chrome-trace
                            also adds goodput/utilization counter tracks
  help       this text

Common flags: --array N (square array side, default 64; every command
              but scaling, overhead, bench and serve);
              --log-level error|warn|info|debug|trace (stderr logger,
              default warn).
A flag the command does not read is an error.";

/// Every network the CLI knows: the paper's baselines plus ResNet-50
/// and EfficientNet-B0.
fn all_networks() -> Vec<Network> {
    let mut nets = zoo::all_baselines();
    nets.extend([zoo::resnet50(), zoo::efficientnet_b0()]);
    nets
}

fn find_network(name: &str) -> Result<Network, Box<dyn Error>> {
    all_networks()
        .into_iter()
        .find(|n| n.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown network `{name}`").into())
}

/// `--network NAME`, MobileNet-V2 when absent.
fn network_flag(parsed: &ParsedArgs) -> Result<Network, Box<dyn Error>> {
    find_network(parsed.flag("network").unwrap_or("MobileNet-V2"))
}

/// `--variant baseline|full|half`, `default` when absent.
fn variant_flag(parsed: &ParsedArgs, default: &str) -> Result<Variant, Box<dyn Error>> {
    match parsed.flag("variant").unwrap_or(default) {
        "baseline" => Ok(Variant::Baseline),
        "full" => Ok(Variant::FuseFull),
        "half" => Ok(Variant::FuseHalf),
        other => Err(format!("--variant must be baseline, full or half, got `{other}`").into()),
    }
}

/// `--sizes` as a list of array sides [`ArrayConfig::square`] accepts.
fn sizes_flag(parsed: &ParsedArgs, default: &[usize]) -> Result<Vec<usize>, Box<dyn Error>> {
    let sizes = parsed.usize_list_flag("sizes", default)?;
    for &side in &sizes {
        ArrayConfig::square(side)?;
    }
    Ok(sizes)
}

/// The path a `--flag[=PATH]` switch names: `default` for the bare
/// switch, `None` when the flag is absent.
fn path_flag<'a>(parsed: &'a ParsedArgs, flag: &str, default: &'a str) -> Option<&'a str> {
    parsed
        .flag(flag)
        .map(|value| if value == "true" { default } else { value })
}

/// Writes one artifact and prints its path.
fn write_artifact(path: &str, bytes: impl AsRef<[u8]>) -> Result<(), Box<dyn Error>> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {path}: {e}"))?;
    say!("{path}")?;
    Ok(())
}

/// The flags [`emit`] reads.
const EMIT: &str = "format out";

/// Renders a report as `--format text|json` and prints it, or writes it
/// to `--out`.
fn emit(
    parsed: &ParsedArgs,
    text: impl FnOnce() -> String,
    json: impl FnOnce() -> String,
) -> Result<(), Box<dyn Error>> {
    let rendered = match parsed.flag("format").unwrap_or("text") {
        "text" => text(),
        "json" => json(),
        other => return Err(format!("--format must be text or json, got `{other}`").into()),
    };
    match parsed.flag("out") {
        Some(path) => write_artifact(path, rendered)?,
        None => say!("{}", rendered.trim_end())?,
    }
    Ok(())
}

/// The flags [`serve_setup`] reads.
const SERVE: &str = "pod networks variant max-batch max-wait policy dispatch preempt \
    queue-cap requests load seed high-frac slo-mult slo-budget buckets";

/// Parses the pod / workload / serving-config flags shared by
/// `fuseconv serve` and `fuseconv analyze --serve`, so the simulator
/// and its static preflight always see the same configuration.
fn serve_setup(
    parsed: &ParsedArgs,
) -> Result<(serve::PodSpec, serve::Workload, serve::ServeConfig), Box<dyn Error>> {
    let pod_spec = parsed
        .flag("pod")
        .unwrap_or("64x64:os,32x32:ws,16x16:os,8x8:os");
    let pod = serve::PodSpec::parse(pod_spec)?;
    let names = parsed.flag("networks").unwrap_or("MobileNet-V2");
    let mut networks: Vec<Network> = if names == "zoo" {
        zoo::all_baselines()
    } else {
        names
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|name| find_network(name.trim()))
            .collect::<Result<_, _>>()?
    };
    if let Some(fuse) = variant_flag(parsed, "full")?.fuse_variant() {
        networks = networks.iter().map(|n| n.transform_all(fuse)).collect();
    }
    let workload = serve::Workload::uniform(networks)?;
    let max_batch = parsed.usize_flag("max-batch", 8)?;
    let max_wait = parsed.usize_flag("max-wait", 50_000)?;
    let policy_name = parsed.flag("policy").unwrap_or("fifo");
    let policy =
        serve::BatchPolicy::parse(policy_name, max_batch, max_wait as u64).ok_or_else(|| {
            format!("--policy must be fifo, dynamic or bucketed, got `{policy_name}`")
        })?;
    let dispatch_name = parsed.flag("dispatch").unwrap_or("whole");
    let dispatch = serve::Dispatch::parse(dispatch_name)
        .ok_or_else(|| format!("--dispatch must be whole or sharded, got `{dispatch_name}`"))?;
    // A switch, but negatable: `--preempt=false` / `--preempt=0`
    // explicitly disables it.
    let preemption = parsed
        .flag("preempt")
        .is_some_and(|v| v != "false" && v != "0");
    let high_default = if preemption { 0.05 } else { 0.0 };
    let cfg = serve::ServeConfig {
        policy,
        dispatch,
        preemption,
        queue_capacity: parsed.usize_flag("queue-cap", 4096)?,
        requests: parsed.usize_flag("requests", 100_000)? as u64,
        load: parsed.f64_flag("load", 0.8)?,
        seed: parsed.usize_flag("seed", 42)? as u64,
        high_priority_frac: parsed.f64_flag("high-frac", high_default)?,
        slo_multiplier: parsed.f64_flag("slo-mult", 10.0)?,
        slo_budget_cycles: parsed.opt_usize_flag("slo-budget")?.map(|c| c as u64),
        shape_buckets: parsed.opt_usize_flag("buckets")?,
    };
    Ok((pod, workload, cfg))
}

fn array_of(parsed: &ParsedArgs) -> Result<ArrayConfig, Box<dyn Error>> {
    let side = parsed.usize_flag("array", 64)?;
    let array = ArrayConfig::square(side)?.with_broadcast(true);
    // Record the array in the run's description so every manifest
    // captured later in this invocation carries the real dimensions.
    telemetry::manifest::set_run_array(
        array.rows(),
        array.cols(),
        Dataflow::OutputStationary.short_name(),
        array.has_broadcast(),
    );
    Ok(array)
}

/// The flags [`array_of`], [`network_flag`] and [`variant_flag`] read.
const MODEL: &str = "array network variant";

/// A command's body.
type Command = fn(&ParsedArgs) -> Result<(), Box<dyn Error>>;

/// Every command: its name, the flags it reads besides `--log-level`, its body.
#[rustfmt::skip]
const COMMANDS: &[(&str, &[&str], Command)] = &[
    ("help",      &[],                                               run_help),
    ("table1",    &["array"],                                        run_table1),
    ("layerwise", &[MODEL],                                          run_layerwise),
    ("breakdown", &["array"],                                        run_breakdown),
    ("scaling",   &["sizes"],                                        run_scaling),
    ("overhead",  &["sizes"],                                        run_overhead),
    ("energy",    &["array mhz"],                                    run_energy),
    ("nos",       &["array network"],                                run_nos),
    ("topology",  &["array"],                                        run_topology),
    ("reports",   &["array dir"],                                    run_reports),
    ("trace",     &[MODEL, "layer format out"],                      run_trace),
    ("analyze",   &[MODEL, "all fusion serve", EMIT, SERVE],         run_analyze),
    ("perf",      &[MODEL, "bytes-per-elem bandwidth", EMIT],        run_perf),
    ("bench",     &["budget-ms runs json out baseline max-regress"], run_bench),
    ("profile",   &[MODEL, "chrome-trace metrics-json"],             run_profile),
    ("serve",     &["force chrome-trace timeseries", EMIT, SERVE],   run_serve),
];

/// Looks the command up in [`COMMANDS`] and runs it. A flag the
/// command never reads is an error before it does any work: a misspelt
/// flag would otherwise silently leave its default in place. `--help`
/// and `-h` print the help whatever flags follow.
fn run(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let command = parsed.command.as_str();
    if command == "--help" || command == "-h" {
        return run_help(parsed);
    }
    let (_, lists, body) = COMMANDS
        .iter()
        .find(|(name, ..)| *name == command)
        .ok_or_else(|| format!("unknown command `{command}`; try `fuseconv help`"))?;
    for name in parsed.flag_names() {
        let read = |list: &&str| list.split_whitespace().any(|f| f == name);
        if name != "log-level" && !lists.iter().any(read) {
            return Err(format!("`{command}` does not take --{name}; try `fuseconv help`").into());
        }
    }
    body(parsed)
}

fn run_help(_: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    say!("{HELP}")?;
    Ok(())
}

fn run_table1(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let rows = experiments::table1(&array_of(parsed)?)?;
    say!("{}", report::table1_csv(&rows).trim_end())?;
    Ok(())
}

fn run_layerwise(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let array = array_of(parsed)?;
    let net = network_flag(parsed)?;
    let variant = match parsed.flag("variant").unwrap_or("full") {
        "full" => Variant::FuseFull,
        "half" => Variant::FuseHalf,
        other => return Err(format!("--variant must be full or half, got `{other}`").into()),
    };
    let rows = experiments::layerwise(&net, variant, &array)?;
    say!("{}", report::layerwise_csv(&rows).trim_end())?;
    Ok(())
}

fn run_breakdown(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let rows = experiments::operator_breakdown(&array_of(parsed)?)?;
    say!("{}", report::breakdown_csv(&rows).trim_end())?;
    Ok(())
}

fn run_scaling(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let sizes = sizes_flag(parsed, &[8, 16, 32, 64, 128])?;
    let rows = experiments::array_scaling(&sizes)?;
    say!("{}", report::scaling_csv(&rows).trim_end())?;
    Ok(())
}

fn run_overhead(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let sizes = sizes_flag(parsed, &[8, 16, 32, 64, 128, 256])?;
    let rows = experiments::hw_overhead(&sizes);
    say!("{}", report::overhead_csv(&rows).trim_end())?;
    Ok(())
}

fn run_energy(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let side = array_of(parsed)?.rows();
    let mhz = parsed.f64_flag("mhz", 700.0)?;
    if !(mhz.is_finite() && mhz > 0.0) {
        return Err(format!("--mhz must be finite and positive, got `{mhz}`").into());
    }
    let rows = experiments::energy_study(side, mhz)?;
    say!("{}", report::energy_csv(&rows).trim_end())?;
    Ok(())
}

fn run_nos(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let array = array_of(parsed)?;
    let frontier = nos::pareto_frontier(&network_flag(parsed)?, &array)?;
    say!("latency_cycles,params,assignment")?;
    for p in &frontier {
        let asg: String = p.assignment.iter().map(|c| c.letter()).collect();
        say!("{},{},{asg}", p.latency, p.params)?;
    }
    Ok(())
}

fn run_topology(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let file = parsed
        .positional
        .first()
        .ok_or("usage: fuseconv topology <file> [--array N]")?;
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let net = topology::parse(file, &text)?;
    let array = array_of(parsed)?;
    let model = LatencyModel::new(array);
    let base = estimate_network(&model, &net)?;
    say!("network,variant,macs,params,latency_cycles,speedup")?;
    for variant in Variant::ALL {
        let v = apply_variant(&net, variant, &array)?;
        let lat = estimate_network(&model, &v)?;
        say!(
            "{},{},{},{},{},{:.4}",
            net.name(),
            variant,
            v.macs(),
            v.params(),
            lat.total_cycles,
            lat.speedup_over(&base)
        )?;
    }
    Ok(())
}

fn run_reports(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let array = array_of(parsed)?;
    let dir = parsed.flag("dir").unwrap_or("reports");
    for p in report::write_all(Path::new(dir), &array)? {
        say!("{}", p.display())?;
    }
    Ok(())
}

fn run_trace(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let array = array_of(parsed)?;
    let model = LatencyModel::new(array);
    let net = network_flag(parsed)?;
    let net = apply_variant(&net, variant_flag(parsed, "baseline")?, &array)?;
    let layer = parsed.opt_usize_flag("layer")?;
    let pick_op = |i: usize| {
        let ops = net.ops();
        ops.get(i).cloned().ok_or(format!(
            "layer {i} out of range; {} has {} operators",
            net.name(),
            ops.len()
        ))
    };
    match parsed.flag("format").unwrap_or("chrome") {
        "chrome" => {
            let mut sink = ChromeTraceSink::new();
            match layer {
                // One layer: cycle-exact, with per-row PE tracks.
                Some(i) => {
                    tracecap::simulate_op_traced(&model, &pick_op(i)?.op, &mut sink)?;
                }
                // Whole network: analytic fold-plan replay.
                None => {
                    let plan = tracecap::network_fold_plan(&model, &net, None)?;
                    for (tag, label) in &plan.labels {
                        sink.label_tag(*tag, label);
                    }
                    fuseconv_trace::replay(&plan.folds, &mut sink);
                }
            }
            write_artifact(parsed.flag("out").unwrap_or("trace.json"), sink.into_json())?;
        }
        "heatmap" => {
            let i = layer.ok_or("--format heatmap needs --layer N")?;
            let named = pick_op(i)?;
            let mut sink = UtilizationSink::new(array.rows(), array.cols());
            let traced = tracecap::simulate_op_traced(&model, &named.op, &mut sink)?;
            let (fill, compute, drain) = sink.phase_cycles();
            say!(
                "{} / {}  ({} on {}x{})\n\
                 cycles {} (x{} repeats = {})  fill {}  compute {}  drain {}\n\
                 active rows {}/{}  active cols {}/{}  utilization {:.2}%",
                net.name(),
                named.op,
                named.block_name,
                array.rows(),
                array.cols(),
                sink.cycles(),
                traced.repeats,
                traced.total_cycles(),
                fill,
                compute,
                drain,
                sink.active_rows(),
                array.rows(),
                sink.active_cols(),
                array.cols(),
                100.0 * sink.utilization()
            )?;
            say!("{}", sink.heatmap_ascii())?;
            if let Some(path) = parsed.flag("out") {
                write_artifact(path, sink.heatmap_csv())?;
            }
        }
        "scalesim" => {
            let i = layer.ok_or("--format scalesim needs --layer N")?;
            let mut sink = ScaleSimSink::new();
            tracecap::simulate_op_traced(&model, &pick_op(i)?.op, &mut sink)?;
            let stem = parsed
                .flag("out")
                .unwrap_or("trace")
                .trim_end_matches(".csv");
            for (suffix, csv) in [
                ("ifmap_read", sink.ifmap_read_csv()),
                ("filter_read", sink.filter_read_csv()),
                ("ofmap_write", sink.ofmap_write_csv()),
            ] {
                write_artifact(&format!("{stem}_{suffix}.csv"), csv)?;
            }
        }
        other => {
            return Err(
                format!("--format must be scalesim, chrome or heatmap, got `{other}`").into(),
            )
        }
    }
    Ok(())
}

/// Prints the audit, then fails when it holds error-severity findings.
fn run_analyze(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let report = if parsed.flag("serve").is_some() {
        // Serving-feasibility mode: audit a pod/workload/SLO
        // deployment statically instead of per-network mappings.
        let (pod, workload, cfg) = serve_setup(parsed)?;
        analyze::analyze_pod(&pod, &workload, &cfg)?
    } else {
        network_audit(parsed)?
    };
    emit(parsed, || report.to_text(), || report.to_json())?;
    if report.has_errors() {
        return Err(format!("{} error-severity diagnostic(s)", report.error_count()).into());
    }
    Ok(())
}

/// The audit of `--all` networks, or of `--network`, in every
/// `--variant` asked for.
fn network_audit(parsed: &ParsedArgs) -> Result<analyze::Report, Box<dyn Error>> {
    let array = array_of(parsed)?;
    let model = LatencyModel::new(array);
    let nets = if parsed.flag("all").is_some() {
        all_networks()
    } else {
        vec![network_flag(parsed)?]
    };
    let variants: Vec<Variant> = match parsed.flag("variant") {
        None => Variant::ALL.to_vec(),
        Some(_) => vec![variant_flag(parsed, "baseline")?],
    };
    let fusion_only = parsed.flag("fusion").is_some();
    let mut findings = Vec::new();
    for net in &nets {
        for &variant in &variants {
            let v = apply_variant(net, variant, &array)?;
            findings.extend(if fusion_only {
                analyze::analyze_fusion(&model, &v, &analyze::MemoryBudget::paper_default())
            } else {
                analyze::analyze_network(&model, &v).diagnostics
            });
        }
    }
    // Mapping-level findings repeat identically across networks sharing
    // a dataflow; keep the first copy of each.
    let first: Vec<bool> = {
        let mut seen = HashSet::with_capacity(findings.len());
        findings.iter().map(|d| seen.insert(d)).collect()
    };
    let mut report = analyze::Report::new();
    for (d, first) in findings.into_iter().zip(first) {
        if first {
            report.push(d);
        }
    }
    Ok(report)
}

fn run_perf(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let array = array_of(parsed)?;
    let model = LatencyModel::new(array);
    let variant = variant_flag(parsed, "baseline")?;
    let net = apply_variant(&network_flag(parsed)?, variant, &array)?;
    let bytes_per_elem = parsed.usize_flag("bytes-per-elem", 2)?;
    let bandwidth = parsed.usize_flag("bandwidth", 64)?;
    if bytes_per_elem == 0 {
        return Err("--bytes-per-elem must be nonzero".into());
    }
    if bandwidth == 0 {
        return Err("--bandwidth must be nonzero".into());
    }
    let report = fuseconv_perf::network_perf_report(
        &model,
        &net,
        &variant.to_string(),
        bytes_per_elem as u64,
        bandwidth as u64,
    )?;
    emit(parsed, || report.to_text(), || report.to_json())
}

fn run_bench(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let budget_ms = parsed.usize_flag("budget-ms", 100)?;
    let harness = fuseconv_bench::micro::Micro::with_budget_ms(budget_ms as u64);
    let runs = parsed.usize_flag("runs", 1)?;
    if runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    // One-sided noise: a bench can only measure slower than the code
    // allows, so the per-bench min over spaced runs is the robust
    // estimate the gate should judge.
    let all: Vec<_> = (0..runs)
        .map(|_| fuseconv_bench::suite::run_suite(&harness))
        .collect();
    let results = fuseconv_bench::suite::min_merge(&all);
    if parsed.flag("json").is_some() || parsed.flag("out").is_some() {
        let path = parsed.flag("out").unwrap_or("BENCH_fuseconv.json");
        write_artifact(path, fuseconv_bench::suite::to_json(&results))?;
        // Standalone provenance sibling, so CI can archive the manifest
        // next to the bench numbers it describes.
        let manifest = telemetry::RunManifest::capture().to_json_pretty();
        write_artifact(&format!("{path}.manifest.json"), manifest + "\n")?;
    }
    if let Some(base_path) = parsed.flag("baseline") {
        let text = std::fs::read_to_string(base_path)
            .map_err(|e| format!("cannot read {base_path}: {e}"))?;
        let baseline = fuseconv_bench::suite::parse_json(&text);
        if baseline.is_empty() {
            return Err(format!("no benches parsed from baseline {base_path}").into());
        }
        let max_regress = parsed.f64_flag("max-regress", 25.0)?;
        let cmp = fuseconv_bench::suite::compare(&results, &baseline, max_regress);
        say!("baseline comparison (fail above +{max_regress:.0}% of geomean):")?;
        for line in &cmp.lines {
            say!("{line}")?;
        }
        if !cmp.passed() {
            return Err(format!(
                "{} bench(es) regressed past the {max_regress:.0}% gate: {}",
                cmp.failures.len(),
                cmp.failures.join(", ")
            )
            .into());
        }
    }
    Ok(())
}

fn run_profile(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let array = array_of(parsed)?;
    let model = LatencyModel::new(array);
    let name = parsed
        .positional
        .first()
        .map(String::as_str)
        .or_else(|| parsed.flag("network"))
        .unwrap_or("MobileNet-V2");
    let variant = variant_flag(parsed, "baseline")?;
    let net = apply_variant(&find_network(name)?, variant, &array)?;

    // Spans cover the profiled pipeline only, and the metrics the whole
    // command: both live in the calling thread's run, so an early error
    // return leaves no other run's switch on.
    telemetry::set_spans_enabled(true);
    {
        let _root = telemetry::span("profile");
        {
            let _s = telemetry::span("profile.analyze");
            let _ = analyze::analyze_network(&model, &net);
        }
        {
            let _s = telemetry::span("profile.plan");
            let plan = tracecap::network_fold_plan(&model, &net, None)?;
            fuseconv_trace::replay(&plan.folds, &mut NullSink);
        }
        {
            // Cycle-exact calibration: row-wise 1-D convolutions filling
            // the array — FuSeConv's core primitive — so the sim.*
            // counters and the throughput gauge reflect real simulator
            // work at this array size.
            let _s = telemetry::span("profile.sim");
            let width = 64 + 3;
            let work: Vec<conv1d::ChannelLines> = (0..array.rows())
                .map(|r| conv1d::ChannelLines {
                    kernel: vec![1.0, 0.5, -1.0],
                    lines: vec![(0..width).map(|i| ((r + i) % 7) as f32).collect()],
                })
                .collect();
            fuseconv_perf::counted(&array, |sink| {
                conv1d::simulate_packed_traced(&array, &work, sink)
            })?;
        }
        let _s = telemetry::span("profile.perf");
        fuseconv_perf::network_perf_report(&model, &net, &variant.to_string(), 2, 64)?;
    }
    telemetry::set_spans_enabled(false);

    // Host throughput: how many simulated cycles each host second of
    // cycle-exact simulation buys at this array size.
    let tree = telemetry::span_snapshot();
    let sim_cycles = telemetry::counter("sim.cycles_total").get();
    let sim_ns = tree
        .find("profile/profile.sim")
        .map_or(0, |n| n.total_ns)
        .max(1);
    let per_sec = (u128::from(sim_cycles) * 1_000_000_000) / u128::from(sim_ns);
    telemetry::gauge("profile.sim_cycles_per_host_sec")
        .set(i64::try_from(per_sec).unwrap_or(i64::MAX));

    let metrics = telemetry::metrics_snapshot();
    let manifest = telemetry::RunManifest::capture()
        .with_array(array.rows(), array.cols(), array.has_broadcast())
        .with_dataflow(model.dataflow().short_name());
    say!(
        "profile: {} [{variant}] on {}x{} — {} folds, {} sim cycles",
        net.name(),
        array.rows(),
        array.cols(),
        metrics.counter("sim.folds_total"),
        sim_cycles,
    )?;
    say!("{}", tree.to_text().trim_end())?;
    say!()?;
    say!("{}", metrics.to_text().trim_end())?;
    if let Some(path) = path_flag(parsed, "chrome-trace", "profile_trace.json") {
        write_artifact(path, tree.chrome_trace_json(&manifest))?;
    }
    if let Some(path) = path_flag(parsed, "metrics-json", "profile_metrics.json") {
        write_artifact(path, metrics.to_json(&manifest))?;
    }
    Ok(())
}

fn run_serve(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let (pod, workload, cfg) = serve_setup(parsed)?;
    // Static preflight: prove the deployment feasible before spending a
    // single simulated cycle on it.
    let preflight = analyze::analyze_pod(&pod, &workload, &cfg)?;
    for d in &preflight.diagnostics {
        telemetry::log::warn("serve", &format!("preflight: {d}"));
    }
    if preflight.has_errors() && parsed.flag("force").is_none() {
        return Err(format!(
            "preflight: {} error finding(s) statically prove this configuration \
             infeasible (pass --force to simulate it anyway):\n{}",
            preflight.error_count(),
            preflight.to_text().trim_end()
        )
        .into());
    }
    telemetry::manifest::set_run_seed(cfg.seed);
    let trace_path = path_flag(parsed, "chrome-trace", "serve_trace.json");
    let ts_path = path_flag(parsed, "timeseries", "serve_timeseries.json");
    let mut sink = trace_path.map(|_| serve::PodTraceSink::new(&pod));
    let ts_cfg = ts_path.map(|_| serve::TimeSeriesConfig::new());
    let (report, ts) =
        serve::simulate_observed(&pod, &workload, &cfg, sink.as_mut(), ts_cfg.as_ref())?;
    emit(parsed, || report.to_text(), || report.to_json())?;
    if let (Some(ts), Some(path)) = (&ts, ts_path) {
        if let Some(sink) = sink.as_mut() {
            // Counter tracks render beside the pid-0 batch lanes in the
            // same Perfetto view.
            ts.append_counters(sink);
        }
        if parsed.flag("format").unwrap_or("text") == "text" {
            say!("{}", ts.to_text().trim_end())?;
        }
        write_artifact(path, ts.to_json())?;
    }
    if let (Some(sink), Some(path)) = (sink, trace_path) {
        write_artifact(path, sink.into_json())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Seed run provenance with the full invocation before any artifact
    // can capture a manifest.
    telemetry::manifest::set_run_config(&argv.join(" "));
    let parsed = match ParsedArgs::parse(argv) {
        Ok(p) => p,
        Err(e) => {
            telemetry::log::error("cli", &e.to_string());
            eprintln!("{HELP}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(value) = parsed.flag("log-level") {
        match value.parse() {
            Ok(level) => telemetry::log::set_max_level(level),
            Err(e) => {
                telemetry::log::error("cli", &e);
                return ExitCode::FAILURE;
            }
        }
    }
    match run(&parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e)
            if e.downcast_ref::<io::Error>()
                .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            telemetry::log::error("cli", &e.to_string());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(args.iter().map(|s| s.to_string())).unwrap()
    }

    /// A 50-request serve run of MobileNet-V1 on one 16x16 array.
    const SERVE_SMALL: &str = "serve --pod 16x16:os --networks mobilenet-v1 --requests 50";

    /// Runs the command line `line` (arguments split at whitespace).
    fn cli(line: &str) -> Result<(), Box<dyn Error>> {
        cli_with(line, &[])
    }

    /// Runs `line` with `tail` (paths, which may hold spaces) appended.
    fn cli_with(line: &str, tail: &[&str]) -> Result<(), Box<dyn Error>> {
        let mut args: Vec<&str> = line.split_whitespace().collect();
        args.extend(tail);
        run(&parsed(&args))
    }

    /// A directory under the temp dir for one test and process, so two
    /// test runs at once never share it. The test removes it when done.
    fn scratch_dir(test: &str) -> String {
        let dir = std::env::temp_dir().join(format!("fuseconv-cli-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.display().to_string()
    }

    #[test]
    fn unknown_command_errors() {
        let e = cli("frobnicate").unwrap_err();
        assert!(e.to_string().contains("unknown command"));
    }

    #[test]
    fn flags_a_command_never_reads_are_rejected() {
        let e = cli("table1 --arrray 8").unwrap_err().to_string();
        assert!(e.contains("`table1` does not take --arrray"), "{e}");
        let e = cli("scaling --size 8").unwrap_err().to_string();
        assert!(e.contains("`scaling` does not take --size"), "{e}");
        cli("table1 --array 8 --log-level warn").unwrap();
    }

    #[test]
    fn every_declared_flag_is_in_help() {
        for (command, lists, _) in COMMANDS {
            assert!(HELP.contains(&format!("\n  {command} ")), "{command}");
            for flag in lists.iter().flat_map(|list| list.split_whitespace()) {
                assert!(HELP.contains(&format!("--{flag}")), "{command} --{flag}");
            }
        }
        // And back: every command HELP lists is a table entry.
        let listed = HELP
            .split("\n\n")
            .find(|s| s.starts_with("COMMANDS:"))
            .unwrap();
        for line in listed.lines().skip(1).filter(|l| !l.starts_with("   ")) {
            let name = line.split_whitespace().next().unwrap();
            assert!(COMMANDS.iter().any(|(c, ..)| *c == name), "{name}");
        }
    }

    #[test]
    fn layerwise_validates_inputs() {
        cli("layerwise --network nope").unwrap_err();
        cli("layerwise --variant quarter").unwrap_err();
        cli("layerwise --network mobilenet-v1 --variant half --array 16").unwrap();
    }

    #[test]
    fn overhead_and_scaling_accept_size_lists() {
        cli("overhead --sizes 8,32").unwrap();
        cli("scaling --sizes 8").unwrap();
        cli("scaling --sizes 8,x").unwrap_err();
    }

    #[test]
    fn zero_sizes_are_rejected() {
        for cmd in ["overhead", "scaling"] {
            let e = cli(&format!("{cmd} --sizes 8,0")).unwrap_err();
            assert!(e.to_string().contains("nonzero"), "{cmd}: {e}");
        }
    }

    #[test]
    fn overflowing_array_sides_are_rejected() {
        let side = 1usize << (usize::BITS / 2);
        for line in [
            format!("perf --array {side} --network mobilenet-v1"),
            format!("energy --array {side}"),
            format!("profile --array {side}"),
            format!("scaling --sizes 8,{side}"),
            format!("overhead --sizes {side}"),
        ] {
            let e = cli(&line).unwrap_err();
            assert!(e.to_string().contains("too large"), "{line}: {e}");
        }
    }

    #[test]
    fn energy_rejects_degenerate_array_and_clock() {
        cli("energy --array 0").unwrap_err();
        for mhz in ["0", "-5", "nan", "inf"] {
            let e = cli_with("energy --array 8 --mhz", &[mhz]).unwrap_err();
            assert!(e.to_string().contains("--mhz"), "{mhz}: {e}");
        }
    }

    #[test]
    fn nos_runs_for_resnet_too() {
        // ResNet-50 has no replaceable blocks: frontier is a single point.
        cli("nos --network resnet-50 --array 16").unwrap();
    }

    #[test]
    fn topology_requires_file() {
        cli("topology").unwrap_err();
        cli("topology /nonexistent/x.txt").unwrap_err();
    }

    #[test]
    fn zero_array_rejected() {
        cli("table1 --array 0").unwrap_err();
    }

    #[test]
    fn trace_validates_inputs() {
        cli("trace --network nope").unwrap_err();
        cli("trace --variant quarter").unwrap_err();
        cli("trace --format vcd").unwrap_err();
        // heatmap and scalesim need a concrete layer to simulate.
        cli("trace --format heatmap --array 8").unwrap_err();
        cli("trace --format scalesim --array 8").unwrap_err();
        cli("trace --format heatmap --layer 99999 --array 8").unwrap_err();
    }

    #[test]
    fn analyze_validates_inputs() {
        cli("analyze --network nope").unwrap_err();
        cli("analyze --variant quarter").unwrap_err();
        cli("analyze --format xml").unwrap_err();
    }

    #[test]
    fn analyze_passes_shipped_networks() {
        // Warnings (the depthwise UTL001 pathology) must not fail the run;
        // only error-severity findings do.
        cli("analyze --network mobilenet-v1 --array 8").unwrap();
        cli("analyze --all --array 8").unwrap();
    }

    #[test]
    fn analyze_writes_json_report() {
        let dir = scratch_dir("analyze");
        let out = &format!("{dir}/report.json");
        cli_with(
            "analyze --network mobilenet-v2 --array 8 --format json --out",
            &[out],
        )
        .unwrap();
        let text = std::fs::read_to_string(out).unwrap();
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"diagnostics\""), "{text}");
        assert!(text.contains("UTL001"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn analyze_fusion_mode_reports_fus_rules_only() {
        let dir = scratch_dir("analyze-fusion");
        let out = &format!("{dir}/fusion.json");
        // FuSe-Full MobileNet-V2 has fusible row/col -> pointwise pairs.
        cli_with(
            "analyze --network mobilenet-v2 --variant full --fusion --format json --out",
            &[out],
        )
        .unwrap();
        let text = std::fs::read_to_string(out).unwrap();
        assert!(text.contains("\"rule\":\"FUS001\""), "{text}");
        assert!(text.contains("\"rule\":\"FUS006\""), "{text}");
        assert!(!text.contains("\"rule\":\"UTL001\""), "{text}");
        // A GEMM-only network has no separable blocks and thus no FUS findings.
        let out2 = &format!("{dir}/fusion_resnet.json");
        cli_with(
            "analyze --network resnet-50 --fusion --format json --out",
            &[out2],
        )
        .unwrap();
        let text2 = std::fs::read_to_string(out2).unwrap();
        assert!(!text2.contains("FUS"), "{text2}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_chrome_writes_valid_json() {
        let dir = scratch_dir("trace");
        let out = &format!("{dir}/trace.json");
        cli_with(
            "trace --network mobilenet-v2 --variant half --array 8 --out",
            &[out],
        )
        .unwrap();
        let text = std::fs::read_to_string(out).unwrap();
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"traceEvents\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn perf_validates_inputs() {
        cli("perf --network nope").unwrap_err();
        cli("perf --variant quarter").unwrap_err();
        cli("perf --format xml").unwrap_err();
        cli("perf --bandwidth 0").unwrap_err();
        cli("perf --bytes-per-elem 0").unwrap_err();
    }

    #[test]
    fn perf_text_runs_on_small_array() {
        cli("perf --network mobilenet-v1 --variant half --array 8").unwrap();
    }

    #[test]
    fn perf_writes_json_report() {
        let dir = scratch_dir("perf");
        let out = &format!("{dir}/perf.json");
        cli_with(
            "perf --network mobilenet-v2 --array 8 --format json --out",
            &[out],
        )
        .unwrap();
        let text = std::fs::read_to_string(out).unwrap();
        assert!(text.contains("\"schema\": \"fuseconv-perf-v1\""), "{text}");
        assert!(text.contains("\"compute_stall_fraction\""), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bench_writes_json_and_gates_against_itself() {
        let dir = scratch_dir("bench");
        let out = &format!("{dir}/bench.json");
        cli_with("bench --json --out", &[out, "--budget-ms", "1"]).unwrap();
        let text = std::fs::read_to_string(out).unwrap();
        assert!(text.contains("\"schema\": \"fuseconv-bench-v1\""), "{text}");
        assert!(text.contains("\"cycles_per_sec\""), "{text}");
        // A generous gate against the just-written baseline must pass even
        // with 1 ms timing noise.
        cli_with(
            "bench --baseline",
            &[out, "--max-regress", "10000", "--budget-ms", "1"],
        )
        .unwrap();
        // Reading a missing baseline is an error.
        cli("bench --baseline /nonexistent/b.json").unwrap_err();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn profile_validates_inputs() {
        cli("profile nope --array 8").unwrap_err();
        cli("profile --variant quarter --array 8").unwrap_err();
    }

    #[test]
    fn profile_prints_balanced_tree_and_writes_artifacts() {
        let dir = scratch_dir("profile");
        let trace = &format!("{dir}/profile_trace.json");
        let metrics = &format!("{dir}/profile_metrics.json");
        let trace_flag = format!("--chrome-trace={trace}");
        let metrics_flag = format!("--metrics-json={metrics}");
        cli_with(
            "profile mobilenet-v2 --variant half --array 8",
            &[&trace_flag, &metrics_flag],
        )
        .unwrap();
        // The aggregate left behind satisfies the balance invariant and
        // holds one root, `profile`, with the pipeline phases under it.
        let tree = telemetry::span_snapshot();
        assert!(tree.is_balanced(), "span tree lost balance");
        assert_eq!(tree.roots.len(), 1, "{}", tree.to_text());
        let root = &tree.roots[0];
        assert_eq!((root.name.as_str(), root.count), ("profile", 1));
        for phase in [
            "profile.analyze",
            "profile.plan",
            "profile.sim",
            "profile.perf",
        ] {
            assert!(
                root.children.iter().any(|c| c.name == phase),
                "missing phase span {phase}"
            );
        }
        let t = std::fs::read_to_string(trace).unwrap();
        assert!(t.contains("\"traceEvents\""), "{t}");
        assert!(t.contains("\"manifest\":{\"schema\":\"fuseconv-manifest-v1\""));
        assert_eq!(t.matches('{').count(), t.matches('}').count());
        let m = std::fs::read_to_string(metrics).unwrap();
        assert!(m.contains("\"schema\": \"fuseconv-metrics-v1\""), "{m}");
        assert!(m.contains("\"sim.cycles_total\""), "{m}");
        assert!(m.contains("\"profile.sim_cycles_per_host_sec\""), "{m}");
        // The calibration sim ran for real cycles, so the run counted some.
        assert!(telemetry::counter("sim.cycles_total").get() > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bench_out_writes_manifest_sibling() {
        let dir = scratch_dir("bench-manifest");
        let out = &format!("{dir}/bench.json");
        cli_with("bench --out", &[out, "--budget-ms", "1"]).unwrap();
        let sibling = format!("{out}.manifest.json");
        let text = std::fs::read_to_string(&sibling).unwrap();
        assert!(
            text.contains("\"schema\": \"fuseconv-manifest-v1\""),
            "{text}"
        );
        assert!(text.contains("\"config_hash\": \"fnv1a64:"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_validates_inputs() {
        cli("serve --pod 64x64:xx").unwrap_err();
        cli("serve --pod 4x4:os,").unwrap_err();
        // `rows + cols` (the refill penalty) would wrap.
        let huge = "18446744073709551615x18446744073709551615";
        let flags = "--preempt --high-frac 0.5 --load 2 --force";
        let e = cli(&format!("serve --pod {huge},8x8 {flags}")).unwrap_err();
        assert!(e.to_string().contains(huge), "{e}");
        cli("serve --networks nope").unwrap_err();
        cli("serve --variant quarter").unwrap_err();
        cli("serve --policy lifo").unwrap_err();
        cli("serve --dispatch split").unwrap_err();
        cli("serve --format xml").unwrap_err();
        cli("serve --requests 0").unwrap_err();
        cli("serve --load 0").unwrap_err();
        cli("serve --preempt --dispatch sharded").unwrap_err();
        for bad in [
            "--policy dynamic --max-batch 0",
            "--policy bucketed --max-batch 0",
            "--queue-cap 0",
        ] {
            let e = cli(&format!("serve --pod 8x8:os --requests 2 {bad}")).unwrap_err();
            assert!(e.to_string().contains("at least 1"), "{bad}: {e}");
        }
        // The pod audit rejects what `serve` rejects.
        for bad in ["--slo-mult nan", "--high-frac 2"] {
            cli(&format!("analyze --serve --pod 8x8:os {bad}")).unwrap_err();
        }
        // Arrivals, or a batching deadline, past the end of the u64 clock:
        // both commands refuse them with the same message.
        for (bad, message) in [
            ("--load 1e-12", "past the clock's range"),
            (
                "--policy dynamic --max-batch 4 --max-wait 18446744073709551615",
                "max_wait 18446744073709551615 past arrivals",
            ),
        ] {
            for command in ["serve", "analyze --serve"] {
                let e = cli(&format!("{command} --pod 8x8:os --requests 10 {bad}")).unwrap_err();
                assert!(e.to_string().contains(message), "{command} {bad}: {e}");
            }
        }
    }

    #[test]
    fn serve_rejects_high_frac_outside_unit_interval() {
        for frac in ["2", "-0.1", "nan"] {
            let e = cli_with(
                "serve --pod 8x8:os --requests 50 --high-frac",
                &[frac, "--force"],
            )
            .unwrap_err();
            assert!(
                e.to_string().contains("high-priority fraction"),
                "{frac}: {e}"
            );
        }
    }

    #[test]
    fn serve_preempt_switch_is_negatable() {
        // `--preempt=false` must really disable preemption: the
        // sharded-dispatch config check only rejects it when enabled.
        cli(&format!("{SERVE_SMALL} --preempt=false --dispatch sharded")).unwrap();
    }

    #[test]
    fn serve_text_runs_on_a_small_pod() {
        let policy = "--policy dynamic --max-batch 4 --max-wait 10000";
        cli(&format!(
            "serve --pod 16x16:os,8x8:ws --networks mobilenet-v1 --requests 500 {policy}"
        ))
        .unwrap();
    }

    #[test]
    fn serve_writes_json_report_and_chrome_trace() {
        let dir = scratch_dir("serve");
        let out = &format!("{dir}/serve.json");
        let trace = &format!("{dir}/serve_trace.json");
        let trace_flag = format!("--chrome-trace={trace}");
        cli_with(
            "serve --pod",
            &[
                "16x16:os, 8x8:os",
                "--networks",
                "mobilenet-v1, mobilenet-v2",
                "--requests",
                "400",
                "--seed",
                "7",
                "--format",
                "json",
                "--out",
                out,
                &trace_flag,
            ],
        )
        .unwrap();
        let text = std::fs::read_to_string(out).unwrap();
        assert!(text.contains("\"schema\": \"fuseconv-serve-v1\""), "{text}");
        assert!(text.contains("\"results_fnv1a64\": \"fnv1a64:"), "{text}");
        assert!(
            text.contains("\"schema\": \"fuseconv-manifest-v1\""),
            "{text}"
        );
        assert!(text.contains("\"seed\": 7"), "{text}");
        let tr = std::fs::read_to_string(trace).unwrap();
        assert!(tr.contains("\"traceEvents\""), "{tr}");
        assert!(tr.contains("array 0: 16x16:os"), "{tr}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_writes_timeseries_artifact_with_counter_tracks() {
        let dir = scratch_dir("serve-ts");
        let ts = &format!("{dir}/serve_timeseries.json");
        let ts_flag = format!("--timeseries={ts}");
        let trace = &format!("{dir}/serve_trace.json");
        let trace_flag = format!("--chrome-trace={trace}");
        cli_with(
            "serve --pod",
            &[
                "16x16:os, 8x8:os",
                "--networks",
                "mobilenet-v1",
                "--requests",
                "400",
                "--seed",
                "7",
                &ts_flag,
                &trace_flag,
            ],
        )
        .unwrap();
        let body = std::fs::read_to_string(ts).unwrap();
        assert!(
            body.contains("\"schema\": \"fuseconv-serve-timeseries-v1\""),
            "{body}"
        );
        assert!(body.contains("\"results_fnv1a64\": \"fnv1a64:"), "{body}");
        assert!(
            body.contains("\"schema\": \"fuseconv-manifest-v1\""),
            "{body}"
        );
        let tr = std::fs::read_to_string(trace).unwrap();
        assert!(tr.contains("\"name\":\"goodput\""), "{tr}");
        assert!(tr.contains("\"name\":\"util 16x16:os\""), "{tr}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_preflight_refuses_overload_unless_forced() {
        let base = format!("{SERVE_SMALL} --load 1.5");
        let e = cli(&base).unwrap_err();
        assert!(e.to_string().contains("preflight"), "{e}");
        assert!(e.to_string().contains("SRV001"), "{e}");
        cli(&format!("{base} --force")).unwrap();
    }

    #[test]
    fn serve_accepts_slo_budget_and_buckets_flags() {
        // A generous absolute budget passes preflight and the run.
        cli(&format!("{SERVE_SMALL} --slo-budget 999999999999")).unwrap();
        // --buckets demands the bucketed policy, same as the engine.
        let e = cli(&format!("{SERVE_SMALL} --buckets 1")).unwrap_err();
        assert!(e.to_string().contains("bucketed"), "{e}");
        cli(&format!("{SERVE_SMALL} --policy bucketed --buckets 1")).unwrap();
    }

    #[test]
    fn analyze_serve_mode_reports_feasibility() {
        // Clean pod: no findings, exit ok.
        cli("analyze --serve --pod 16x16:os,16x16:os --networks mobilenet-v1").unwrap();
        // Overloaded pod: SRV001 is an error finding, so the command fails.
        let e =
            cli("analyze --serve --pod 16x16:os --networks mobilenet-v1 --load 1.5").unwrap_err();
        assert!(e.to_string().contains("error-severity"), "{e}");
    }

    #[test]
    fn analyze_serve_writes_json_with_rule_codes() {
        let dir = scratch_dir("analyze-serve");
        let out = &format!("{dir}/feasibility.json");
        let e = cli_with(
            "analyze --serve --pod 16x16:os --networks mobilenet-v1 --load 2.0 --format json --out",
            &[out],
        )
        .unwrap_err();
        assert!(e.to_string().contains("error-severity"), "{e}");
        let text = std::fs::read_to_string(out).unwrap();
        assert!(text.contains("\"rule\":\"SRV001\""), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_heatmap_runs_on_a_layer() {
        // Layer 1 of MobileNet-V1 is the first depthwise: the §III-B
        // pathology should confine activity to a single array column.
        cli("trace --network mobilenet-v1 --format heatmap --layer 1 --array 8").unwrap();
    }
}
