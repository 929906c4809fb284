//! Pins the serve engine's outputs over a generated configuration grid.
//!
//! Each configuration is drawn from the vendored PRNG with a fixed seed:
//! 1–4-array pods mixing OS/WS/IS arrays, FIFO / dynamic / bucketed
//! batching, whole and sharded dispatch, preemption under high-priority
//! traffic, shape buckets, overload against small queues (drops), and
//! runs with and without the time-series recorder and the pod trace
//! sink. Per configuration the test pins the report and time-series
//! `results_fnv1a64`, the pod trace's bytes (manifest excluded), the
//! event count and the cost oracle's memo hits and misses.
//!
//! The engine's outputs are a pure function of its inputs, so any
//! change to the event loop, the oracle or the recorder that alters
//! one bit of any artifact, or one memo probe, fails here. The memo
//! counters are read as deltas of the test thread's telemetry run,
//! which no concurrent test shares; the grid runs inside one test
//! function so its coverage checks and regenerable golden table see
//! every configuration at once.

use fuseconv::models::{zoo, Network};
use fuseconv::nn::FuSeVariant;
use fuseconv::serve::{
    simulate, simulate_observed, BatchPolicy, Dispatch, PodSpec, PodTraceSink, ServeConfig,
    TimeSeriesConfig, Workload,
};
use fuseconv::telemetry::{counter, fnv1a64};
use fuseconv::tensor::rng::Rng;

/// Seed of the configuration generator.
const GRID_SEED: u64 = 0x5EED_F1A6;
/// Configurations in the grid.
const GRID_LEN: usize = 28;

/// Arrays a pod draws from: every dataflow, several shapes.
const ARRAYS: [&str; 7] = [
    "8x8:os", "16x16:os", "16x16:ws", "8x8:is", "32x32:ws", "16x16:is", "12x20:os",
];

/// One generated configuration with the pieces needed to run it.
struct Case {
    label: String,
    pod: PodSpec,
    workload: Workload,
    cfg: ServeConfig,
    timeseries: Option<TimeSeriesConfig>,
    trace: bool,
}

/// What the grid pins per configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Pinned {
    report: String,
    timeseries: Option<String>,
    trace: Option<String>,
    events: u64,
    memo_hits: u64,
    memo_misses: u64,
}

fn network(pick: usize) -> Network {
    match pick {
        0 => zoo::mobilenet_v1(),
        1 => zoo::mobilenet_v2().transform_all(FuSeVariant::Full),
        2 => zoo::mobilenet_v3_small().transform_all(FuSeVariant::Full),
        _ => zoo::mnasnet_b1().transform_all(FuSeVariant::Half),
    }
}

fn grid() -> Vec<Case> {
    let mut rng = Rng::seed_from_u64(GRID_SEED);
    (0..GRID_LEN)
        .map(|i| {
            let arrays: Vec<&str> = (0..1 + rng.below(4))
                .map(|_| ARRAYS[rng.below(ARRAYS.len())])
                .collect();
            let pod = PodSpec::parse(&arrays.join(",")).expect("grid pod parses");
            let n_nets = 1 + rng.below(3);
            let workload = Workload::weighted(
                (0..n_nets).map(|k| network((k + i) % 4)).collect(),
                (0..n_nets).map(|_| 1 + rng.below(4) as u64).collect(),
            )
            .expect("grid workload is valid");
            let max_batch = 2 + rng.below(7);
            let max_wait = 1_000 * (1 + rng.below(50)) as u64;
            let policy = match rng.below(3) {
                0 => BatchPolicy::Fifo,
                1 => BatchPolicy::Dynamic {
                    max_batch,
                    max_wait,
                },
                _ => BatchPolicy::Bucketed {
                    max_batch,
                    max_wait,
                },
            };
            let dispatch = if rng.below(3) == 0 {
                Dispatch::Sharded
            } else {
                Dispatch::Whole
            };
            let high_priority_frac = [0.0, 0.05, 0.2][rng.below(3)];
            let preemption =
                dispatch == Dispatch::Whole && high_priority_frac > 0.0 && rng.below(2) == 0;
            let shape_buckets = match policy {
                BatchPolicy::Bucketed { .. } if n_nets > 1 && rng.below(2) == 0 => Some(n_nets - 1),
                _ => None,
            };
            // One in four configurations is overloaded against a small
            // queue, so admission drops requests.
            let overloaded = rng.below(4) == 0;
            let load = if overloaded {
                1.5 + rng.next_f64()
            } else {
                0.3 + 0.65 * rng.next_f64()
            };
            let queue_capacity = if overloaded { 16 + rng.below(64) } else { 4096 };
            let requests = 5_000 + 1_000 * rng.below(16) as u64;
            let timeseries = (rng.below(2) == 0).then(|| TimeSeriesConfig {
                target_windows: [16, 64, 200][rng.below(3)],
                exemplars: [0, 8][rng.below(2)],
            });
            // Preempting configurations always trace, so the pinned
            // trace bytes cover the preemption markers and labels.
            let trace = rng.below(3) == 0 || preemption;
            let cfg = ServeConfig {
                policy,
                dispatch,
                preemption,
                queue_capacity,
                requests,
                load,
                seed: rng.next_u64(),
                high_priority_frac,
                slo_multiplier: [2.0, 10.0][rng.below(2)],
                slo_budget_cycles: None,
                shape_buckets,
            };
            Case {
                label: format!(
                    "#{i} pod={} nets={n_nets} policy={} dispatch={} preempt={preemption} \
                     high={high_priority_frac} buckets={shape_buckets:?} load={load:.3} \
                     queue={queue_capacity} requests={requests} ts={} trace={trace}",
                    pod,
                    policy.name(),
                    dispatch.name(),
                    timeseries.is_some()
                ),
                pod,
                workload,
                cfg,
                timeseries,
                trace,
            }
        })
        .collect()
}

/// `fnv1a64:<16 hex>` of a pod trace with its run manifest cut off
/// (the manifest carries wall-clock fields).
fn trace_hash(json: &str) -> String {
    let body = json
        .split_once(",\"manifest\":")
        .map_or(json, |(body, _)| body);
    format!("fnv1a64:{:016x}", fnv1a64(body.as_bytes()))
}

/// Runs one configuration; also returns its (preemptions, dropped).
fn run(case: &Case) -> (Pinned, u64, u64) {
    let memo = || {
        (
            counter("serve.oracle_hits_total").get(),
            counter("serve.oracle_misses_total").get(),
        )
    };
    let mut sink = case.trace.then(|| PodTraceSink::new(&case.pod));
    let before = memo();
    let (report, ts) = simulate_observed(
        &case.pod,
        &case.workload,
        &case.cfg,
        sink.as_mut(),
        case.timeseries.as_ref(),
    )
    .unwrap_or_else(|e| panic!("{}: {e}", case.label));
    let after = memo();
    assert_eq!(
        report.completed + report.dropped,
        report.offered,
        "{}: conservation",
        case.label
    );
    let pinned = Pinned {
        report: report.results_hash(),
        timeseries: ts.map(|ts| ts.results_hash()),
        trace: sink.map(|s| trace_hash(&s.into_json())),
        events: report.events,
        memo_hits: after.0 - before.0,
        memo_misses: after.1 - before.1,
    };
    (pinned, report.preemptions, report.dropped)
}

/// One pinned row: report, time series and trace fingerprints, events,
/// memo hits, memo misses.
type Row = (
    &'static str,
    Option<&'static str>,
    Option<&'static str>,
    u64,
    u64,
    u64,
);

/// The pinned rows, in grid order.
#[rustfmt::skip]
const GOLDEN: [Row; GRID_LEN] = [
    ("fnv1a64:382d79360e0d2384", Some("fnv1a64:8e89fc315c1e9931"), Some("fnv1a64:248ecbb4c818ac0c"), 8074, 1058, 29),
    ("fnv1a64:18c491fc5beb9728", None, None, 16000, 8000, 2),
    ("fnv1a64:38d4356615257c49", Some("fnv1a64:fa0aff5672102f89"), Some("fnv1a64:d162933534d82006"), 34000, 17002, 2),
    ("fnv1a64:ce04aabc404144c3", Some("fnv1a64:6c0808b57e938ff0"), Some("fnv1a64:b7c7a87dd8a8bf73"), 20443, 10460, 3),
    ("fnv1a64:ee8dc40a633535e2", None, Some("fnv1a64:f1c84d80206adee5"), 24648, 5643, 6),
    ("fnv1a64:1cc2c02784890e97", Some("fnv1a64:cfe9e25ac1c3865e"), None, 22000, 11000, 6),
    ("fnv1a64:044504196dd57016", None, None, 21477, 15470, 20),
    ("fnv1a64:f9465e89409bcc27", Some("fnv1a64:93850c4dd5752203"), None, 20000, 11222, 4),
    ("fnv1a64:0e13290dd706c8f4", Some("fnv1a64:0dd1b7865bd11b30"), Some("fnv1a64:07b4a5855a2e6b5b"), 38000, 40644, 3),
    ("fnv1a64:fa426c91b630f5a4", Some("fnv1a64:7c683483261720b6"), None, 6078, 866, 9),
    ("fnv1a64:721b3a46a4d18839", Some("fnv1a64:9d385ce059af946e"), Some("fnv1a64:70490c9cd962185a"), 10587, 5073, 6),
    ("fnv1a64:d6e0720b02cce3c1", Some("fnv1a64:d5fc356bc7d396ec"), Some("fnv1a64:2249c5458d4f3245"), 33257, 16012, 4),
    ("fnv1a64:fed43ad62b0deda6", None, None, 13519, 6113, 18),
    ("fnv1a64:2cee23a72a3552c8", Some("fnv1a64:8e8885ed4ea49906"), None, 17593, 1575, 23),
    ("fnv1a64:9d73785fa9fb5629", Some("fnv1a64:91ecbb24dea1fd93"), None, 16392, 4582, 12),
    ("fnv1a64:515aa88e83f2b203", Some("fnv1a64:708fbba9bbf18948"), None, 18000, 9000, 10),
    ("fnv1a64:3521fa19538c083c", None, Some("fnv1a64:feb77dc7bc1f971b"), 20372, 7814, 10),
    ("fnv1a64:72cc7e94876ce141", None, None, 24047, 6036, 13),
    ("fnv1a64:94d4b051a84276a9", None, Some("fnv1a64:51fddc54c59547b8"), 37832, 26374, 10),
    ("fnv1a64:af156b1174ce7373", None, None, 20000, 10000, 4),
    ("fnv1a64:f7842a985bcc321f", Some("fnv1a64:45e43bfafd6d258d"), None, 33449, 15876, 42),
    ("fnv1a64:1acf21dcc1d4f566", Some("fnv1a64:5051558cc8f7477b"), None, 14619, 5680, 22),
    ("fnv1a64:263e01ed2630d7d7", None, Some("fnv1a64:cc180c696e6d57b3"), 26068, 31100, 8),
    ("fnv1a64:3a5b1d633564202e", Some("fnv1a64:5719101d0dad02a2"), None, 12445, 4675, 10),
    ("fnv1a64:db0fbd453eaaf50e", None, None, 24085, 8900, 6),
    ("fnv1a64:7b453e7a64643740", Some("fnv1a64:17c2d150f829b81a"), None, 40000, 26150, 6),
    ("fnv1a64:93720dae99cd0b14", None, None, 26389, 9992, 14),
    ("fnv1a64:11e8dda0666daa18", Some("fnv1a64:0492ca5ea58e40cc"), None, 38873, 15447, 15),
];

#[test]
fn serve_outputs_over_the_generated_grid_are_pinned() {
    let cases = grid();
    // The grid must span what the module docs promise.
    let any = |f: &dyn Fn(&Case) -> bool| cases.iter().any(f);
    for len in 1..=4 {
        assert!(any(&|c| c.pod.len() == len), "no {len}-array pod");
    }
    for df in [":os", ":ws", ":is"] {
        assert!(any(&|c| c.pod.to_string().contains(df)), "no {df} array");
    }
    for policy in ["fifo", "dynamic", "bucketed"] {
        assert!(any(&|c| c.cfg.policy.name() == policy), "no {policy}");
    }
    assert!(any(&|c| c.cfg.dispatch == Dispatch::Whole));
    assert!(any(&|c| c.cfg.dispatch == Dispatch::Sharded));
    assert!(any(&|c| c.cfg.preemption));
    assert!(any(&|c| c.cfg.shape_buckets.is_some()));
    assert!(any(&|c| c.cfg.queue_capacity < 4096));
    assert!(any(&|c| c.timeseries.is_some()));
    assert!(any(&|c| c.timeseries.is_none()));
    assert!(any(&|c| c.trace));

    let mut got = Vec::with_capacity(cases.len());
    let (mut preempted, mut dropped) = (false, false);
    for case in &cases {
        let (pinned, preemptions, drops) = run(case);
        preempted |= preemptions > 0;
        dropped |= drops > 0;
        got.push(pinned);
    }
    assert!(preempted, "no configuration preempted a batch");
    assert!(dropped, "no configuration dropped a request");
    let table: String = got
        .iter()
        .map(|p| {
            format!(
                "    ({:?}, {:?}, {:?}, {}, {}, {}),\n",
                p.report, p.timeseries, p.trace, p.events, p.memo_hits, p.memo_misses
            )
        })
        .collect();
    let mut mismatches = Vec::new();
    for (i, (case, p)) in cases.iter().zip(&got).enumerate() {
        let Some(&(report, ts, trace, events, hits, misses)) = GOLDEN.get(i) else {
            mismatches.push(format!("{}: no pinned row", case.label));
            continue;
        };
        let want = Pinned {
            report: report.to_string(),
            timeseries: ts.map(str::to_string),
            trace: trace.map(str::to_string),
            events,
            memo_hits: hits,
            memo_misses: misses,
        };
        if *p != want {
            mismatches.push(format!("{}:\n  want {want:?}\n  got  {p:?}", case.label));
        }
    }
    assert!(
        mismatches.is_empty(),
        "serve outputs drifted from the pinned grid:\n{}\nfull table of this build:\n{table}",
        mismatches.join("\n")
    );
}

/// High-priority fractions the preemption property is checked at.
const PREEMPT_FRACS: [f64; 3] = [0.05, 0.2, 0.5];
/// Runs of the property sweep in which at least one preemption fired:
/// all of them (15 whole-dispatch configurations × 3 fractions).
const PREEMPTING_RUNS: usize = 45;

#[test]
fn preemption_never_raises_high_priority_latency_over_the_grid() {
    // Every whole-dispatch configuration, rerun at each fraction with
    // preemption off and on: an eviction happens only when it finishes
    // the triggering request earlier, so wherever one fires the
    // high-priority mean and p99 must be no higher than without.
    let mut preempting = 0;
    let mut violations = Vec::new();
    for case in grid().iter().filter(|c| c.cfg.dispatch == Dispatch::Whole) {
        for high_priority_frac in PREEMPT_FRACS {
            let sim = |preemption| {
                let cfg = ServeConfig {
                    preemption,
                    high_priority_frac,
                    ..case.cfg.clone()
                };
                simulate(&case.pod, &case.workload, &cfg, None)
                    .unwrap_or_else(|e| panic!("{} high={high_priority_frac}: {e}", case.label))
            };
            let (without, with) = (sim(false), sim(true));
            if with.preemptions == 0 {
                continue;
            }
            preempting += 1;
            let (w, wo) = (&with.high_priority_latency, &without.high_priority_latency);
            if w.mean > wo.mean || w.p99 > wo.p99 {
                violations.push(format!(
                    "{} high={high_priority_frac}: mean {} vs {}, p99 {} vs {}",
                    case.label, w.mean, wo.mean, w.p99, wo.p99
                ));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "preemption raised high-priority latency:\n{}",
        violations.join("\n")
    );
    assert_eq!(preempting, PREEMPTING_RUNS, "preempting runs in the sweep");
}

/// Report `results_fnv1a64` and event count of the 65-array pod below.
const WIDE_POD_PINNED: (&str, u64) = ("fnv1a64:f2f60e82bef3172e", 43580);

#[test]
fn a_pod_wider_than_one_idle_word_is_pinned() {
    // 65 arrays span two 64-bit words of the engine's idle-array
    // bitset; overload with high-priority traffic keeps every array
    // busy often enough to preempt.
    let arrays: Vec<&str> = (0..65).map(|i| ARRAYS[i % ARRAYS.len()]).collect();
    let pod = PodSpec::parse(&arrays.join(",")).expect("wide pod parses");
    let workload = Workload::uniform(vec![network(0), network(2)]).expect("valid workload");
    let cfg = ServeConfig {
        preemption: true,
        high_priority_frac: 0.2,
        load: 1.1,
        requests: 20_000,
        seed: 65,
        ..ServeConfig::default()
    };
    let report = simulate(&pod, &workload, &cfg, None).expect("wide pod simulates");
    assert!(report.preemptions > 0, "no preemption on the wide pod");
    assert!(
        report.arrays[64].batches > 0,
        "the array in the second idle word never ran"
    );
    assert_eq!(
        (report.results_hash().as_str(), report.events),
        WIDE_POD_PINNED
    );
}
