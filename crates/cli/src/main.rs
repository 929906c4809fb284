//! `fuseconv` — command-line interface to the FuSeConv reproduction.
//!
//! `fuseconv help` prints [`HELP`], the one list of every command and
//! flag.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
use std::error::Error;
use std::path::Path;
use std::process::ExitCode;

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

Common flags: --array N (square array side, default 64);
              --log-level error|warn|info|debug|trace (stderr logger,
              default warn).";

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

/// `--sizes` as a list of nonzero array sides.
fn sizes_flag(parsed: &ParsedArgs, default: &[usize]) -> Result<Vec<usize>, Box<dyn Error>> {
    let sizes = parsed.usize_list_flag("sizes", default)?;
    if sizes.contains(&0) {
        return Err("--sizes must all be nonzero".into());
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
    println!("{path}");
    Ok(())
}

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
        None => println!("{}", rendered.trim_end()),
    }
    Ok(())
}

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

/// Fails the command when a report holds error-severity findings.
fn fail_on_errors(report: &analyze::Report) -> Result<(), Box<dyn Error>> {
    if report.has_errors() {
        return Err(format!("{} error-severity diagnostic(s)", report.error_count()).into());
    }
    Ok(())
}

fn run(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    match parsed.command.as_str() {
        "help" | "--help" | "-h" => println!("{HELP}"),
        "table1" => {
            let rows = experiments::table1(&array_of(parsed)?)?;
            println!("{}", report::table1_csv(&rows).trim_end());
        }
        "layerwise" => {
            let array = array_of(parsed)?;
            let net = network_flag(parsed)?;
            let variant = match parsed.flag("variant").unwrap_or("full") {
                "full" => Variant::FuseFull,
                "half" => Variant::FuseHalf,
                other => {
                    return Err(format!("--variant must be full or half, got `{other}`").into())
                }
            };
            let rows = experiments::layerwise(&net, variant, &array)?;
            println!("{}", report::layerwise_csv(&rows).trim_end());
        }
        "breakdown" => {
            let rows = experiments::operator_breakdown(&array_of(parsed)?)?;
            println!("{}", report::breakdown_csv(&rows).trim_end());
        }
        "scaling" => {
            let sizes = sizes_flag(parsed, &[8, 16, 32, 64, 128])?;
            let rows = experiments::array_scaling(&sizes)?;
            println!("{}", report::scaling_csv(&rows).trim_end());
        }
        "overhead" => {
            let sizes = sizes_flag(parsed, &[8, 16, 32, 64, 128, 256])?;
            let rows = experiments::hw_overhead(&sizes);
            println!("{}", report::overhead_csv(&rows).trim_end());
        }
        "energy" => {
            let side = array_of(parsed)?.rows();
            let mhz = parsed.f64_flag("mhz", 700.0)?;
            if !(mhz.is_finite() && mhz > 0.0) {
                return Err(format!("--mhz must be finite and positive, got `{mhz}`").into());
            }
            let rows = experiments::energy_study(side, mhz)?;
            println!("{}", report::energy_csv(&rows).trim_end());
        }
        "nos" => {
            let array = array_of(parsed)?;
            let frontier = nos::pareto_frontier(&network_flag(parsed)?, &array)?;
            println!("latency_cycles,params,assignment");
            for p in &frontier {
                let asg: String = p
                    .assignment
                    .iter()
                    .map(|c| match c {
                        nos::OpChoice::Depthwise => 'D',
                        nos::OpChoice::FuseFull => 'F',
                        nos::OpChoice::FuseHalf => 'H',
                    })
                    .collect();
                println!("{},{},{asg}", p.latency, p.params);
            }
        }
        "topology" => {
            let file = parsed
                .positional
                .first()
                .ok_or("usage: fuseconv topology <file> [--array N]")?;
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
            let net = topology::parse(file, &text)?;
            let array = array_of(parsed)?;
            let model = LatencyModel::new(array);
            let base = estimate_network(&model, &net)?;
            println!("network,variant,macs,params,latency_cycles,speedup");
            for variant in Variant::ALL {
                let v = apply_variant(&net, variant, &array)?;
                let lat = estimate_network(&model, &v)?;
                println!(
                    "{},{},{},{},{},{:.4}",
                    net.name(),
                    variant,
                    v.macs(),
                    v.params(),
                    lat.total_cycles,
                    lat.speedup_over(&base)
                );
            }
        }
        "trace" => {
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
                    println!(
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
                    );
                    println!("{}", sink.heatmap_ascii());
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
                    return Err(format!(
                        "--format must be scalesim, chrome or heatmap, got `{other}`"
                    )
                    .into())
                }
            }
        }
        "analyze" => {
            if parsed.flag("serve").is_some() {
                // Serving-feasibility mode: audit a pod/workload/SLO
                // deployment statically instead of per-network mappings.
                let (pod, workload, cfg) = serve_setup(parsed)?;
                let report = analyze::analyze_pod(&pod, &workload, &cfg)?;
                emit(parsed, || report.to_text(), || report.to_json())?;
                return fail_on_errors(&report);
            }
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
            let mut report = analyze::Report::new();
            for net in &nets {
                for &variant in &variants {
                    let v = apply_variant(net, variant, &array)?;
                    let diagnostics = if fusion_only {
                        analyze::analyze_fusion(&model, &v, &analyze::MemoryBudget::paper_default())
                    } else {
                        analyze::analyze_network(&model, &v).diagnostics
                    };
                    for d in diagnostics {
                        // Mapping-level findings repeat identically across
                        // networks sharing a dataflow; keep one copy each.
                        if !report.diagnostics.contains(&d) {
                            report.push(d);
                        }
                    }
                }
            }
            emit(parsed, || report.to_text(), || report.to_json())?;
            fail_on_errors(&report)?;
        }
        "reports" => {
            let array = array_of(parsed)?;
            let dir = parsed.flag("dir").unwrap_or("reports");
            for p in report::write_all(Path::new(dir), &array)? {
                println!("{}", p.display());
            }
        }
        "perf" => {
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
            emit(parsed, || report.to_text(), || report.to_json())?;
        }
        "bench" => {
            let budget_ms = parsed.usize_flag("budget-ms", 100)?;
            let harness = fuseconv_bench::micro::Micro::with_budget_ms(budget_ms as u64);
            let runs = parsed.usize_flag("runs", 1)?;
            if runs == 0 {
                return Err("--runs must be at least 1".into());
            }
            // One-sided noise: a bench can only measure slower than the
            // code allows, so the per-bench min over spaced runs is the
            // robust estimate the gate should judge.
            let all: Vec<_> = (0..runs)
                .map(|_| fuseconv_bench::suite::run_suite(&harness))
                .collect();
            let results = fuseconv_bench::suite::min_merge(&all);
            if parsed.flag("json").is_some() || parsed.flag("out").is_some() {
                let path = parsed.flag("out").unwrap_or("BENCH_fuseconv.json");
                write_artifact(path, fuseconv_bench::suite::to_json(&results))?;
                // Standalone provenance sibling, so CI can archive the
                // manifest next to the bench numbers it describes.
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
                println!("baseline comparison (fail above +{max_regress:.0}% of geomean):");
                for line in &cmp.lines {
                    println!("{line}");
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
        }
        "profile" => {
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

            // Spans cover the profiled pipeline only, and the metrics the
            // whole command: both live in the calling thread's run, so an
            // early error return leaves no other run's switch on.
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
                    // Cycle-exact calibration: row-wise 1-D convolutions
                    // filling the array — FuSeConv's core primitive — so
                    // the sim.* counters and the throughput gauge reflect
                    // real simulator work at this array size.
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

            // Host throughput: how many simulated cycles each host second
            // of cycle-exact simulation buys at this array size.
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
            println!(
                "profile: {} [{variant}] on {}x{} — {} folds, {} sim cycles",
                net.name(),
                array.rows(),
                array.cols(),
                metrics.counter("sim.folds_total"),
                sim_cycles,
            );
            println!("{}", tree.to_text().trim_end());
            println!();
            println!("{}", metrics.to_text().trim_end());
            if let Some(path) = path_flag(parsed, "chrome-trace", "profile_trace.json") {
                write_artifact(path, tree.chrome_trace_json(&manifest))?;
            }
            if let Some(path) = path_flag(parsed, "metrics-json", "profile_metrics.json") {
                write_artifact(path, metrics.to_json(&manifest))?;
            }
        }
        "serve" => {
            let (pod, workload, cfg) = serve_setup(parsed)?;
            // Static preflight: prove the deployment feasible before
            // spending a single simulated cycle on it.
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
                    // Counter tracks render beside the pid-0 batch
                    // lanes in the same Perfetto view.
                    ts.append_counters(sink);
                }
                if parsed.flag("format").unwrap_or("text") == "text" {
                    println!("{}", ts.to_text().trim_end());
                }
                write_artifact(path, ts.to_json())?;
            }
            if let (Some(sink), Some(path)) = (sink, trace_path) {
                write_artifact(path, sink.into_json())?;
            }
        }
        other => return Err(format!("unknown command `{other}`; try `fuseconv help`").into()),
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

    #[test]
    fn help_runs() {
        cli("help").unwrap();
    }

    #[test]
    fn unknown_command_errors() {
        let e = cli("frobnicate").unwrap_err();
        assert!(e.to_string().contains("unknown command"));
    }

    #[test]
    fn table1_runs_on_small_array() {
        cli("table1 --array 8").unwrap();
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
        let dir = std::env::temp_dir().join("fuseconv-cli-analyze-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("report.json");
        let out = out.to_str().unwrap();
        cli_with(
            "analyze --network mobilenet-v2 --array 8 --format json --out",
            &[out],
        )
        .unwrap();
        let text = std::fs::read_to_string(out).unwrap();
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"diagnostics\""), "{text}");
        assert!(text.contains("UTL001"), "{text}");
        std::fs::remove_file(out).unwrap();
    }

    #[test]
    fn analyze_fusion_mode_reports_fus_rules_only() {
        let dir = std::env::temp_dir().join("fuseconv-cli-analyze-fusion-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("fusion.json");
        let out = out.to_str().unwrap();
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
        std::fs::remove_file(out).unwrap();
        // A GEMM-only network has no separable blocks and thus no FUS findings.
        let out2 = dir.join("fusion_resnet.json");
        let out2 = out2.to_str().unwrap();
        cli_with(
            "analyze --network resnet-50 --fusion --format json --out",
            &[out2],
        )
        .unwrap();
        let text2 = std::fs::read_to_string(out2).unwrap();
        assert!(!text2.contains("FUS"), "{text2}");
        std::fs::remove_file(out2).unwrap();
    }

    #[test]
    fn trace_chrome_writes_valid_json() {
        let dir = std::env::temp_dir().join("fuseconv-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("trace.json");
        let out = out.to_str().unwrap();
        cli_with(
            "trace --network mobilenet-v2 --variant half --array 8 --out",
            &[out],
        )
        .unwrap();
        let text = std::fs::read_to_string(out).unwrap();
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"traceEvents\""));
        std::fs::remove_file(out).unwrap();
    }

    #[test]
    fn trace_scalesim_writes_three_csvs() {
        // Layer 45 of FuSe-Full MobileNet-V3-Small is a strided 1x5 FuSe
        // row bank: a row-broadcast simulation of a few thousand cycles.
        let dir = std::env::temp_dir().join("fuseconv-cli-scalesim-test");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("layer45");
        cli_with(
            "trace --network mobilenet-v3-small --variant full --layer 45 --format scalesim \
             --array 8 --out",
            &[stem.to_str().unwrap()],
        )
        .unwrap();
        for suffix in ["ifmap_read", "filter_read", "ofmap_write"] {
            let path = dir.join(format!("layer45_{suffix}.csv"));
            let csv = std::fs::read_to_string(&path).unwrap();
            assert!(!csv.trim().is_empty(), "{suffix}");
            std::fs::remove_file(path).unwrap();
        }
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
        let dir = std::env::temp_dir().join("fuseconv-cli-perf-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("perf.json");
        let out = out.to_str().unwrap();
        cli_with(
            "perf --network mobilenet-v2 --array 8 --format json --out",
            &[out],
        )
        .unwrap();
        let text = std::fs::read_to_string(out).unwrap();
        assert!(text.contains("\"schema\": \"fuseconv-perf-v1\""), "{text}");
        assert!(text.contains("\"compute_stall_fraction\""), "{text}");
        std::fs::remove_file(out).unwrap();
    }

    #[test]
    fn bench_writes_json_and_gates_against_itself() {
        let dir = std::env::temp_dir().join("fuseconv-cli-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("bench.json");
        let out = out.to_str().unwrap();
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
        std::fs::remove_file(out).unwrap();
    }

    #[test]
    fn profile_validates_inputs() {
        cli("profile nope --array 8").unwrap_err();
        cli("profile --variant quarter --array 8").unwrap_err();
    }

    #[test]
    fn profile_prints_balanced_tree_and_writes_artifacts() {
        let dir = std::env::temp_dir().join("fuseconv-cli-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("profile_trace.json");
        let metrics = dir.join("profile_metrics.json");
        let trace_flag = format!("--chrome-trace={}", trace.display());
        let metrics_flag = format!("--metrics-json={}", metrics.display());
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
        let t = std::fs::read_to_string(&trace).unwrap();
        assert!(t.contains("\"traceEvents\""), "{t}");
        assert!(t.contains("\"manifest\":{\"schema\":\"fuseconv-manifest-v1\""));
        assert_eq!(t.matches('{').count(), t.matches('}').count());
        let m = std::fs::read_to_string(&metrics).unwrap();
        assert!(m.contains("\"schema\": \"fuseconv-metrics-v1\""), "{m}");
        assert!(m.contains("\"sim.cycles_total\""), "{m}");
        assert!(m.contains("\"profile.sim_cycles_per_host_sec\""), "{m}");
        // The calibration sim ran for real cycles, so the run counted some.
        assert!(telemetry::counter("sim.cycles_total").get() > 0);
        std::fs::remove_file(trace).unwrap();
        std::fs::remove_file(metrics).unwrap();
    }

    #[test]
    fn bench_out_writes_manifest_sibling() {
        let dir = std::env::temp_dir().join("fuseconv-cli-bench-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("bench.json");
        let out = out.to_str().unwrap();
        cli_with("bench --out", &[out, "--budget-ms", "1"]).unwrap();
        let sibling = format!("{out}.manifest.json");
        let text = std::fs::read_to_string(&sibling).unwrap();
        assert!(
            text.contains("\"schema\": \"fuseconv-manifest-v1\""),
            "{text}"
        );
        assert!(text.contains("\"config_hash\": \"fnv1a64:"), "{text}");
        std::fs::remove_file(out).unwrap();
        std::fs::remove_file(sibling).unwrap();
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
        let dir = std::env::temp_dir().join("fuseconv-cli-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("serve.json");
        let out = out.to_str().unwrap();
        let trace = dir.join("serve_trace.json");
        let trace = trace.to_str().unwrap();
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
        std::fs::remove_file(out).unwrap();
        std::fs::remove_file(trace).unwrap();
    }

    #[test]
    fn serve_writes_timeseries_artifact_with_counter_tracks() {
        let dir = std::env::temp_dir().join("fuseconv-cli-serve-ts-test");
        std::fs::create_dir_all(&dir).unwrap();
        let ts = dir.join("serve_timeseries.json");
        let ts = ts.to_str().unwrap();
        let ts_flag = format!("--timeseries={ts}");
        let trace = dir.join("serve_trace.json");
        let trace = trace.to_str().unwrap();
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
        std::fs::remove_file(ts).unwrap();
        std::fs::remove_file(trace).unwrap();
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
        let dir = std::env::temp_dir().join("fuseconv-cli-analyze-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("feasibility.json");
        let out = out.to_str().unwrap();
        let e = cli_with(
            "analyze --serve --pod 16x16:os --networks mobilenet-v1 --load 2.0 --format json --out",
            &[out],
        )
        .unwrap_err();
        assert!(e.to_string().contains("error-severity"), "{e}");
        let text = std::fs::read_to_string(out).unwrap();
        assert!(text.contains("\"rule\":\"SRV001\""), "{text}");
        std::fs::remove_file(out).unwrap();
    }

    #[test]
    fn trace_heatmap_runs_on_a_layer() {
        // Layer 1 of MobileNet-V1 is the first depthwise: the §III-B
        // pathology should confine activity to a single array column.
        cli("trace --network mobilenet-v1 --format heatmap --layer 1 --array 8").unwrap();
    }
}
