//! Differential validation of the SRV serving-feasibility rules: every
//! static verdict of [`fuseconv::analyze::analyze_pod`] is checked
//! against the real discrete-event engine on a deterministic grid.
//!
//! For each rule the grid holds one *triggering* configuration — the
//! analyzer must flag it AND the simulation must exhibit the predicted
//! pathology — and one *clean* configuration — the analyzer must stay
//! silent AND the simulation must not exhibit it. The analyzer never
//! runs the event loop (it prices through the memoised cost oracle
//! only), so agreement here is the evidence that the static model and
//! the dynamics describe the same system.
//!
//! The final tests close the loop on the oracle itself: memoised
//! repricing must be a cache hit with a bit-identical price, and the
//! engine must flush the hit/miss tallies to the metrics registry.

use fuseconv::analyze::{analyze_pod, RuleId};
use fuseconv::models::{zoo, Block, Network};
use fuseconv::serve::{
    simulate, BatchPolicy, CostOracle, Dispatch, PodSpec, ServeConfig, ServeReport, Workload,
};

/// A deterministic base configuration for the grid: small enough for
/// debug-mode test budgets, long enough for steady-state behaviour.
fn cfg(requests: u64, load: f64) -> ServeConfig {
    ServeConfig {
        requests,
        load,
        seed: 11,
        ..ServeConfig::new()
    }
}

fn run(pod: &PodSpec, w: &Workload, c: &ServeConfig) -> ServeReport {
    simulate(pod, w, c, None).expect("simulation")
}

/// Whether the analyzer reports `rule` for this configuration.
fn flags(pod: &PodSpec, w: &Workload, c: &ServeConfig, rule: RuleId) -> bool {
    let report = analyze_pod(pod, w, c).expect("analysis");
    !report.with_rule(rule).is_empty()
}

/// A one-layer network whose single op cannot price on any array
/// (zero input features → `DegenerateOp` from the latency model).
fn degenerate_network() -> Network {
    Network::new(
        "Degenerate",
        vec![(
            "bad".to_string(),
            Block::Fc {
                in_features: 0,
                out_features: 8,
            },
        )],
    )
}

/// A one-layer network cheaper than any pipeline refill: 8→8 FC costs
/// a few cycles while `refill_penalty = rows + cols` is ≥ 128 on a
/// 64×64 array.
fn tiny_network() -> Network {
    Network::new(
        "Tiny-FC",
        vec![(
            "fc".to_string(),
            Block::Fc {
                in_features: 8,
                out_features: 8,
            },
        )],
    )
}

// ---------------------------------------------------------------- SRV001

/// Overload: the analyzer proves ρ ≥ 1 diverges; the engine shows
/// goodput saturating visibly below the offered rate. Clean: at ρ < 1
/// the analyzer is silent and the engine keeps goodput at the offered
/// rate with an empty loss ledger.
#[test]
fn srv001_overload_matches_goodput_collapse() {
    let pod = PodSpec::parse("16x16:os").expect("pod");
    let w = Workload::uniform(vec![zoo::mobilenet_v1()]).expect("mix");

    let hot = cfg(800, 1.6);
    assert!(flags(&pod, &w, &hot, RuleId::Srv001PodOverload));
    let r = run(&pod, &w, &hot);
    // Open-loop overload: the array serves at capacity while arrivals
    // come 1.6× faster, so goodput tops out near offered / 1.6.
    assert!(
        r.goodput_per_mcycle < 0.8 * r.offered_per_mcycle,
        "goodput {} vs offered {}",
        r.goodput_per_mcycle,
        r.offered_per_mcycle
    );

    let cool = cfg(800, 0.5);
    assert!(!flags(&pod, &w, &cool, RuleId::Srv001PodOverload));
    let r = run(&pod, &w, &cool);
    assert_eq!(r.dropped, 0);
    assert!(
        r.goodput_per_mcycle > 0.9 * r.offered_per_mcycle,
        "goodput {} vs offered {}",
        r.goodput_per_mcycle,
        r.offered_per_mcycle
    );
}

// ---------------------------------------------------------------- SRV002

/// SLO attainability: a budget below the zero-queueing floor makes
/// every completion miss; a budget above 10× the floor at low load is
/// met by every completion.
#[test]
fn srv002_floor_violation_matches_zero_slo_attainment() {
    let pod = PodSpec::parse("16x16:os").expect("pod");
    let w = Workload::uniform(vec![zoo::mobilenet_v1()]).expect("mix");
    let mut oracle = CostOracle::new(pod.models().expect("models"), w.networks());
    let floor = oracle.best_cycles(0).expect("floor");

    let strangled = ServeConfig {
        slo_budget_cycles: Some(floor - 1),
        ..cfg(300, 0.3)
    };
    assert!(flags(&pod, &w, &strangled, RuleId::Srv002SloUnattainable));
    let r = run(&pod, &w, &strangled);
    assert!(r.completed > 0);
    assert_eq!(r.slo_met, 0, "no completion can beat a sub-floor budget");

    let generous = ServeConfig {
        slo_budget_cycles: Some(floor.saturating_mul(20)),
        ..cfg(300, 0.3)
    };
    assert!(!flags(&pod, &w, &generous, RuleId::Srv002SloUnattainable));
    let r = run(&pod, &w, &generous);
    assert_eq!(r.slo_met, r.completed, "{}", r.to_text());
}

// ---------------------------------------------------------------- SRV003

/// Bucket coverage: with one shape bucket for a two-network mix the
/// uncovered network completes nothing; with full coverage both do.
#[test]
fn srv003_uncovered_bucket_matches_admission_rejection() {
    let pod = PodSpec::parse("16x16:os,16x16:os").expect("pod");
    let w = Workload::uniform(vec![zoo::mobilenet_v1(), zoo::mobilenet_v3_small()]).expect("mix");
    let bucketed = BatchPolicy::Bucketed {
        max_batch: 4,
        max_wait: 10_000,
    };

    let uncovered = ServeConfig {
        policy: bucketed,
        shape_buckets: Some(1),
        ..cfg(400, 0.6)
    };
    assert!(flags(&pod, &w, &uncovered, RuleId::Srv003BucketUncovered));
    let r = run(&pod, &w, &uncovered);
    assert_eq!(r.networks[1].completed, 0, "{}", r.to_text());
    assert!(r.dropped > 0);
    assert!(r.networks[0].completed > 0);

    let covered = ServeConfig {
        policy: bucketed,
        shape_buckets: Some(2),
        ..cfg(400, 0.6)
    };
    assert!(!flags(&pod, &w, &covered, RuleId::Srv003BucketUncovered));
    let r = run(&pod, &w, &covered);
    assert!(r.networks[1].completed > 0);
    assert_eq!(r.dropped, 0);
}

// ---------------------------------------------------------------- SRV004

/// Dispatch legality: an unpriceable op yields SRV004 error findings
/// and the engine refuses the same configuration outright; a legal
/// sharded mix is silent and simulates.
#[test]
fn srv004_unpriceable_op_matches_engine_refusal() {
    let pod = PodSpec::parse("16x16:os,8x8:os").expect("pod");
    let sharded = ServeConfig {
        dispatch: Dispatch::Sharded,
        ..cfg(200, 0.5)
    };

    let bad = Workload::uniform(vec![zoo::mobilenet_v1(), degenerate_network()]).expect("mix");
    let report = analyze_pod(&pod, &bad, &sharded).expect("analysis");
    let findings = report.with_rule(RuleId::Srv004ShardPlanIllegal);
    assert!(!findings.is_empty());
    assert!(report.has_errors());
    assert!(
        simulate(&pod, &bad, &sharded, None).is_err(),
        "the engine must refuse what the analyzer proved unpriceable"
    );

    let good = Workload::uniform(vec![zoo::mobilenet_v1()]).expect("mix");
    assert!(!flags(
        &pod,
        &good,
        &sharded,
        RuleId::Srv004ShardPlanIllegal
    ));
    let r = run(&pod, &good, &sharded);
    assert_eq!(r.completed, 200);
}

// ---------------------------------------------------------------- SRV005

/// Queue sizing: a 2-deep queue in front of a mix with a rare 22×-cost
/// straggler drops requests even at ρ = 0.8; a 4096-deep queue absorbs
/// the same bursts without loss.
#[test]
fn srv005_undersized_queue_matches_bursty_drops() {
    let pod = PodSpec::parse("8x8:os").expect("pod");
    let w = Workload::weighted(
        vec![zoo::mobilenet_v3_small(), zoo::resnet50()],
        vec![20, 1],
    )
    .expect("mix");

    let shallow = ServeConfig {
        queue_capacity: 2,
        ..cfg(600, 0.8)
    };
    assert!(flags(&pod, &w, &shallow, RuleId::Srv005QueueUndersized));
    assert!(!flags(&pod, &w, &shallow, RuleId::Srv001PodOverload));
    let r = run(&pod, &w, &shallow);
    assert!(
        r.dropped > 0,
        "ρ < 1 yet the shallow queue must drop: {}",
        r.to_text()
    );

    let deep = ServeConfig {
        queue_capacity: 4096,
        ..cfg(600, 0.8)
    };
    assert!(!flags(&pod, &w, &deep, RuleId::Srv005QueueUndersized));
    let r = run(&pod, &w, &deep);
    assert_eq!(r.dropped, 0, "{}", r.to_text());
}

// ---------------------------------------------------------------- SRV006

/// Dead preemption: enabled with zero high-priority traffic it can
/// never fire, and the engine indeed counts zero preemptions; with
/// real priority traffic the analyzer is silent and preemptions occur.
#[test]
fn srv006_dead_preemption_matches_zero_preemptions() {
    let pod = PodSpec::parse("16x16:os").expect("pod");
    let w = Workload::uniform(vec![zoo::mobilenet_v1()]).expect("mix");

    let dead = ServeConfig {
        preemption: true,
        high_priority_frac: 0.0,
        ..cfg(300, 0.9)
    };
    assert!(flags(
        &pod,
        &w,
        &dead,
        RuleId::Srv006PreemptionDeadOrPerverse
    ));
    let r = run(&pod, &w, &dead);
    assert_eq!(r.preemptions, 0);

    let live = ServeConfig {
        preemption: true,
        high_priority_frac: 0.3,
        ..cfg(300, 0.9)
    };
    assert!(!flags(
        &pod,
        &w,
        &live,
        RuleId::Srv006PreemptionDeadOrPerverse
    ));
    let r = run(&pod, &w, &live);
    assert!(r.preemptions > 0, "{}", r.to_text());
}

/// Perverse preemption: when the pipeline refill dwarfs every batch's
/// service time, evicting can never beat waiting — the analyzer warns
/// and the engine's own finish-time comparison never finds a winning
/// eviction, so the run completes preemption-free.
#[test]
fn srv006_perverse_refill_matches_no_winning_eviction() {
    let pod = PodSpec::parse("64x64:os").expect("pod");
    let w = Workload::uniform(vec![tiny_network()]).expect("mix");

    let perverse = ServeConfig {
        preemption: true,
        high_priority_frac: 0.3,
        ..cfg(400, 0.9)
    };
    assert!(flags(
        &pod,
        &w,
        &perverse,
        RuleId::Srv006PreemptionDeadOrPerverse
    ));
    let with_preempt = run(&pod, &w, &perverse);
    let without = run(
        &pod,
        &w,
        &ServeConfig {
            preemption: false,
            ..perverse
        },
    );
    // Preemption provably cannot help here: the run must be no better
    // than simply waiting.
    assert!(with_preempt.makespan_cycles >= without.makespan_cycles);
    assert!(with_preempt.latency.mean >= without.latency.mean);
}

// ---------------------------------------------------------------- SRV007

/// Dead array: an 8×8 next to a 64×64 is never the cheapest target.
/// The dispatcher still uses it as a spillover whenever the 64×64 is
/// momentarily busy — and every spilled request is then held ~47×
/// longer, so the "dead" array makes the pod strictly WORSE than not
/// having it at all. A homogeneous pod splits traffic and stays
/// unflagged.
#[test]
fn srv007_dominated_array_matches_latency_harm() {
    let w = Workload::uniform(vec![zoo::mobilenet_v1()]).expect("mix");
    let c = cfg(400, 0.3);

    let lopsided = PodSpec::parse("64x64:os,8x8:os").expect("pod");
    assert!(flags(&lopsided, &w, &c, RuleId::Srv007StaticallyDeadArray));
    let with_dead = run(&lopsided, &w, &c);
    // The dominated array contributes < 2% capacity, so the calibrated
    // arrival rate is nearly identical with and without it — but every
    // request that spills onto it pays the 8×8 service time.
    let alone = PodSpec::parse("64x64:os").expect("pod");
    let without = run(&alone, &w, &c);
    assert!(
        with_dead.latency.mean > 1.1 * without.latency.mean,
        "the statically-dead array must hurt mean latency: {} vs {}",
        with_dead.latency.mean,
        without.latency.mean
    );
    assert!(with_dead.latency.p99 > without.latency.p99);

    let uniform = PodSpec::parse("16x16:os,16x16:os").expect("pod");
    assert!(!flags(&uniform, &w, &c, RuleId::Srv007StaticallyDeadArray));
    let r = run(&uniform, &w, &c);
    assert!(r.arrays[0].requests > 0);
    assert!(r.arrays[1].requests > 0);
}

// ------------------------------------------------------------- the oracle

/// Memoised repricing is a cache hit with a bit-identical price: a
/// warm oracle returns exactly what a cold one computes, and the
/// hit/miss tallies account for every call.
#[test]
fn oracle_memo_prices_match_cold_computation() {
    let pod = PodSpec::parse("16x16:os,8x8:ws").expect("pod");
    let nets = vec![zoo::mobilenet_v1(), zoo::mobilenet_v3_small()];
    let w = Workload::uniform(nets).expect("mix");

    let mut warm = CostOracle::new(pod.models().expect("models"), w.networks());
    let mut first = Vec::new();
    for array in 0..2 {
        for net in 0..2 {
            for batch in [1, 4] {
                first.push(warm.request_cycles(array, net, batch).expect("price"));
            }
        }
    }
    assert_eq!(warm.memo_misses(), 8);
    assert_eq!(warm.memo_hits(), 0);

    // Repricing the same keys must hit the memo and reproduce every
    // price bit-for-bit.
    let mut second = Vec::new();
    for array in 0..2 {
        for net in 0..2 {
            for batch in [1, 4] {
                second.push(warm.request_cycles(array, net, batch).expect("price"));
            }
        }
    }
    assert_eq!(first, second);
    assert_eq!(warm.memo_hits(), 8);
    assert_eq!(warm.memo_misses(), 8);

    // A cold oracle agrees on every price: the memo is transparent.
    let mut cold = CostOracle::new(pod.models().expect("models"), w.networks());
    let mut recomputed = Vec::new();
    for array in 0..2 {
        for net in 0..2 {
            for batch in [1, 4] {
                recomputed.push(cold.request_cycles(array, net, batch).expect("price"));
            }
        }
    }
    assert_eq!(first, recomputed);
}

/// A pod simulation flushes its oracle tallies into its run's metrics
/// registry, and a repeat-heavy run is overwhelmingly memo hits.
#[test]
fn engine_flushes_oracle_memo_counters() {
    let pod = PodSpec::parse("16x16:os").expect("pod");
    let w = Workload::uniform(vec![zoo::mobilenet_v1()]).expect("mix");
    run(&pod, &w, &cfg(500, 0.8));

    let snap = fuseconv::telemetry::metrics_snapshot();
    let hits = snap.counter("serve.oracle_hits_total");
    let misses = snap.counter("serve.oracle_misses_total");
    assert!(misses > 0, "a cold oracle must miss at least once");
    assert!(
        hits > misses,
        "500 single-network requests must re-price mostly from the memo \
         (hits {hits}, misses {misses})"
    );
}
