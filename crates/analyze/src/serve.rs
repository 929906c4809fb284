//! Serving feasibility rules (SRV001–SRV007): static proofs about a
//! pod/workload/SLO configuration before a single simulated cycle.
//!
//! [`crate::analyze_pod`] consumes the same inputs as
//! [`fuseconv_serve::simulate`] — a [`PodSpec`], a [`Workload`] and a
//! [`ServeConfig`] — but touches only the memoised analytic cost oracle
//! ([`fuseconv_serve::CostOracle`]): no event loop, no traffic, no
//! queues. Where the RIA/SCH/LOC family proves one op's mapping legal
//! and PLAN/MEM prove one fold plan sound, this family proves (or
//! refutes) steady-state claims about a whole serving deployment:
//!
//! * **SRV001 pod overload** — offered load ρ = Σ rateᵢ·E\[costᵢ\] /
//!   aggregate pod capacity ≥ 1 means the open-loop queue diverges; no
//!   simulation length changes the verdict. The capacity denominator is
//!   [`fuseconv_serve::CostOracle::pod_capacity`], the *same* estimate
//!   the engine calibrates its arrival rate against, so the static ρ
//!   and the simulated offered load agree by construction.
//! * **SRV002 SLO unattainable** — a network's zero-queueing floor
//!   (best batch-1 cycles anywhere in the pod) already exceeds the
//!   absolute `slo_budget_cycles`; every completion will miss.
//! * **SRV003 bucket coverage** — bucketed batching with fewer
//!   provisioned shape buckets than workload networks rejects every
//!   request of the uncovered networks at admission.
//! * **SRV004 shard-plan legality** — every op must price on its
//!   target array, the LPT assignment must partition the op list with
//!   shares equal to the recomputed per-array sums, and each op's fold
//!   plan must pass the [`fuseconv_latency::audit`] interval audit on
//!   its target array.
//! * **SRV005 admission-queue sizing** — expected arrivals during one
//!   worst-case service window exceed the bounded queue's capacity
//!   (plus the pod's parallelism) by 2×: drops are statistically
//!   certain even at ρ < 1.
//! * **SRV006 dead/perverse preemption** — preemption enabled with
//!   zero high-priority traffic never fires; a pipeline-refill penalty
//!   at least as large as any batch's service time on every array costs
//!   the victim more than any eviction can save the trigger.
//! * **SRV007 statically-dead array** — an array never strictly
//!   cheapest for any network under whole-request dispatch serves
//!   traffic only once every cheaper array saturates; at moderate load
//!   its predicted utilization is 0.
//!
//! `tests/serve_analysis.rs` differentially validates every verdict
//! against the real discrete-event engine on a deterministic grid.

use crate::diagnostics::{Diagnostic, Report, RuleId, Severity};
use fuseconv_latency::audit::audit_plan;
use fuseconv_serve::{
    BatchPolicy, CostOracle, Dispatch, PodSpec, ServeConfig, ServeError, Workload,
};

/// SRV005's safety factor: the expected burst must exceed the queue's
/// slack this many times over before drops are called statically
/// certain (guards the verdict against Poisson variance).
const BURST_SAFETY_FACTOR: f64 = 2.0;

fn diag(
    rule: RuleId,
    severity: Severity,
    context: String,
    message: String,
    fix: &str,
) -> Diagnostic {
    Diagnostic {
        rule,
        severity,
        context,
        message,
        dependence: None,
        suggestion: fix.to_string(),
    }
}

/// The largest batch the configured policy can launch (preemption
/// victims are normal-lane batches of up to this size).
fn policy_max_batch(policy: BatchPolicy) -> usize {
    match policy {
        BatchPolicy::Fifo => 1,
        BatchPolicy::Dynamic { max_batch, .. } | BatchPolicy::Bucketed { max_batch, .. } => {
            max_batch
        }
    }
}

/// Statically audits a pod/workload/SLO configuration with the
/// SRV001–SRV007 rules, using only the analytic cost oracle.
///
/// Error-severity findings (SRV001–SRV004) mark configurations that a
/// simulation would only confirm as broken — the `fuseconv serve`
/// preflight refuses them without `--force`. Warnings (SRV005–SRV007)
/// mark configurations that run but waste capacity or preemptions.
///
/// # Errors
///
/// Returns [`ServeError`] for inputs [`fuseconv_serve::simulate`]
/// rejects before its event loop: every configuration
/// [`ServeConfig::validate`] rejects, and unbuildable arrays. Per-op
/// pricing failures do *not* error — they become SRV004 diagnostics so
/// the capacity rules that survive them still run.
pub fn analyze_pod(
    pod: &PodSpec,
    workload: &Workload,
    cfg: &ServeConfig,
) -> Result<Report, ServeError> {
    let _span = fuseconv_telemetry::span("analyze.pod");
    cfg.validate()?;

    let mut report = Report::new();
    let mut oracle = CostOracle::new(pod.models()?, workload.networks());
    let pod_name = pod.to_string();
    let names: Vec<String> = workload
        .networks()
        .iter()
        .map(|n| n.name().to_string())
        .collect();
    let weights = workload.weights().to_vec();
    let n_nets = workload.len();

    // SRV004 — dispatch legality. Every (array, network) pair must
    // price (the engine prices all idle arrays, so one infeasible pair
    // aborts a simulation); under sharded dispatch the LPT plan is
    // additionally re-derived from its assignment and each op's fold
    // plan is audited on its target array.
    let mut pricing_ok = true;
    for (net, name) in names.iter().enumerate() {
        for array in 0..pod.len() {
            if let Err(e) = oracle.request_cycles(array, net, 1) {
                pricing_ok = false;
                report.push(diag(
                    RuleId::Srv004ShardPlanIllegal,
                    Severity::Error,
                    format!("{name} on array {array} ({})", pod.arrays[array].name()),
                    format!("operator unpriceable on its dispatch target: {e}"),
                    "remove the degenerate network from the mix or fix the array spec",
                ));
            }
        }
    }
    if cfg.dispatch == Dispatch::Sharded && pricing_ok {
        for (net, name) in names.iter().enumerate() {
            audit_shard_plan(&mut oracle, pod, net, name, &mut report)?;
        }
    }

    // SRV003 — bucket coverage: requests of a network with no
    // provisioned shape bucket never pass admission.
    if let (BatchPolicy::Bucketed { .. }, Some(k)) = (cfg.policy, cfg.shape_buckets) {
        for net in 0..n_nets {
            if net >= k && weights[net] > 0 {
                report.push(diag(
                    RuleId::Srv003BucketUncovered,
                    Severity::Error,
                    format!("{} / {}", pod_name, names[net]),
                    format!(
                        "no shape bucket admits {} ({} buckets provisioned for {} networks): \
                         every request is rejected at admission",
                        names[net], k, n_nets
                    ),
                    "provision a bucket for every workload network or drop it from the mix",
                ));
            }
        }
    }

    // SRV006a — preemption with zero high-priority traffic is dead
    // configuration: the preemption path can never execute.
    if cfg.preemption && cfg.high_priority_frac <= 0.0 {
        report.push(diag(
            RuleId::Srv006PreemptionDeadOrPerverse,
            Severity::Warning,
            pod_name.clone(),
            "preemption is enabled but the high-priority fraction is 0: \
             no arrival can ever trigger an eviction"
                .to_string(),
            "set --high-frac above 0 or drop --preempt",
        ));
    }

    // Everything below needs every pair priceable.
    if !pricing_ok {
        return Ok(report);
    }

    let mix = workload.mix_fractions();
    let capacity = oracle.pod_capacity(&mix, cfg.dispatch)?;
    let rate = cfg.load * capacity;

    // SRV001 — pod overload. The engine calibrates its mean arrival
    // gap as 1 / (load × capacity) from the same oracle estimate, so
    // ρ = rate / capacity = load exactly; ≥ 1 diverges open-loop.
    let rho = rate / capacity;
    if rho >= 1.0 {
        let mut mean_cost = 0.0;
        for (net, &frac) in mix.iter().enumerate() {
            mean_cost += frac * oracle.best_cycles(net)? as f64;
        }
        report.push(diag(
            RuleId::Srv001PodOverload,
            Severity::Error,
            pod_name.clone(),
            format!(
                "offered load rho = {:.3} >= 1: {:.3e} requests/cycle against pod capacity \
                 {:.3e} requests/cycle (mix mean best-case cost {:.0} cycles) — the open-loop \
                 queue diverges and goodput saturates below the offered rate",
                rho, rate, capacity, mean_cost
            ),
            "lower --load below 1.0 or add arrays to the pod",
        ));
    }

    // SRV002 — SLO attainability: the floor is the cheapest batch-1
    // service anywhere in the pod; an absolute budget below it cannot
    // be met even by a request that never queues.
    if let Some(budget) = cfg.slo_budget_cycles {
        for (net, name) in names.iter().enumerate() {
            let floor = oracle.best_cycles(net)?;
            if floor > budget {
                report.push(diag(
                    RuleId::Srv002SloUnattainable,
                    Severity::Error,
                    format!("{} / {}", pod_name, name),
                    format!(
                        "zero-queueing floor {} cycles exceeds the SLO budget {} cycles: \
                         every {} completion misses its SLO",
                        floor, budget, name
                    ),
                    "raise --slo-budget above the floor or add a faster array",
                ));
            }
        }
    }

    // Worst-case single service window across the mix: under whole
    // dispatch the cheapest-array cost (a lower bound — the dispatcher
    // may do worse), under sharded the LPT makespan.
    let mut s_max = 0u64;
    for (net, &weight) in weights.iter().enumerate() {
        if weight == 0 {
            continue;
        }
        let service = match cfg.dispatch {
            Dispatch::Whole => oracle.best_cycles(net)?,
            Dispatch::Sharded => oracle.shard_plan(net, 1)?.makespan,
        };
        s_max = s_max.max(service);
    }

    // SRV005 — admission-queue sizing: while one worst-case request is
    // in service, arrivals keep coming at the calibrated rate; when the
    // expected count exceeds the queue plus the pod's parallel slack by
    // the safety factor, drops are statistically certain even at ρ < 1.
    if rho < 1.0 {
        let expected_burst = rate * s_max as f64;
        let slack = (cfg.queue_capacity + pod.len()) as f64;
        if expected_burst > BURST_SAFETY_FACTOR * slack {
            report.push(diag(
                RuleId::Srv005QueueUndersized,
                Severity::Warning,
                pod_name.clone(),
                format!(
                    "queue capacity {} cannot absorb the configured burst: one worst-case \
                     service window of {} cycles expects {:.0} arrivals (> {}x the queue + \
                     pod slack of {:.0}) — drops are statically certain despite rho = {:.3}",
                    cfg.queue_capacity, s_max, expected_burst, BURST_SAFETY_FACTOR, slack, rho
                ),
                "raise --queue-cap or rebalance the mix away from the expensive network",
            ));
        }
    }

    // SRV006b — perverse refill: if on every array the pipeline-refill
    // penalty is at least the largest batch any policy launch can
    // carry, the victim's re-run always costs more than the evicted
    // remainder the trigger could possibly save.
    if cfg.preemption && cfg.high_priority_frac > 0.0 {
        let max_batch = policy_max_batch(cfg.policy);
        let mut perverse_everywhere = true;
        let mut worst = (0u64, 0u64); // (refill, max cut) of the last array
        for (a, spec) in pod.arrays.iter().enumerate() {
            let mut max_cut = 0u64;
            for (net, &weight) in weights.iter().enumerate() {
                if weight == 0 {
                    continue;
                }
                max_cut = max_cut.max(oracle.request_cycles(a, net, max_batch)?);
            }
            let refill = spec.refill_penalty();
            worst = (refill, max_cut);
            if refill < max_cut {
                perverse_everywhere = false;
                break;
            }
        }
        if perverse_everywhere {
            report.push(diag(
                RuleId::Srv006PreemptionDeadOrPerverse,
                Severity::Warning,
                pod_name.clone(),
                format!(
                    "pipeline-refill penalty provably exceeds any latency cut: on every array \
                     the refill (e.g. {} cycles) is at least the largest batch service time \
                     (e.g. {} cycles), so each preemption adds more work than it can save",
                    worst.0, worst.1
                ),
                "drop --preempt for this workload; the requests are cheaper than the refill",
            ));
        }
    }

    // SRV007 — statically-dead array: strictly dominated for every
    // network in the mix under whole dispatch, so the dispatcher only
    // ever picks it when all cheaper arrays are busy.
    if cfg.dispatch == Dispatch::Whole && pod.len() > 1 {
        for a in 0..pod.len() {
            let mut dominated = true;
            for (net, &weight) in weights.iter().enumerate() {
                if weight == 0 {
                    continue;
                }
                let own = oracle.request_cycles(a, net, 1)?;
                let mut beaten = false;
                for b in 0..pod.len() {
                    if b != a && oracle.request_cycles(b, net, 1)? < own {
                        beaten = true;
                        break;
                    }
                }
                if !beaten {
                    dominated = false;
                    break;
                }
            }
            if dominated {
                report.push(diag(
                    RuleId::Srv007StaticallyDeadArray,
                    Severity::Warning,
                    format!("array {a} ({})", pod.arrays[a].name()),
                    format!(
                        "array {} is never the cheapest dispatch target for any network in \
                         the mix: predicted utilization 0 until every cheaper array saturates",
                        pod.arrays[a].name()
                    ),
                    "remove the array from the pod or route a workload it wins at",
                ));
            }
        }
    }

    Ok(report)
}

/// Re-derives one network's LPT shard plan from its op assignment and
/// audits every op's fold plan on its target array (SRV004).
fn audit_shard_plan(
    oracle: &mut CostOracle,
    pod: &PodSpec,
    net: usize,
    net_name: &str,
    report: &mut Report,
) -> Result<(), ServeError> {
    let plan = oracle.shard_plan(net, 1)?;
    let ops = oracle
        .network_ops(net)
        .map(<[_]>::to_vec)
        .unwrap_or_default();
    let context = format!("{} / {} (sharded)", pod, net_name);
    if plan.assignment.len() != ops.len() {
        report.push(diag(
            RuleId::Srv004ShardPlanIllegal,
            Severity::Error,
            context,
            format!(
                "shard assignment covers {} ops but the network lowers to {}: \
                 the shares do not partition the op list",
                plan.assignment.len(),
                ops.len()
            ),
            "rebuild the shard plan from the network's full op list",
        ));
        return Ok(());
    }
    // Shares must be exactly the per-array sums under the assignment,
    // and the makespan the largest share.
    let mut shares = vec![0u64; pod.len()];
    for (i, (op, &a)) in ops.iter().zip(&plan.assignment).enumerate() {
        let Some(model) = oracle.model(a).copied() else {
            report.push(diag(
                RuleId::Srv004ShardPlanIllegal,
                Severity::Error,
                context.clone(),
                format!("op {i} is assigned to array {a}, which is outside the pod"),
                "rebuild the shard plan against the pod's array list",
            ));
            return Ok(());
        };
        let cost = model.cycles(op)?;
        shares[a] = shares[a].saturating_add(cost);
        // PLAN-audit the op's fold plan on its target array: the share
        // is only meaningful if the fold accounting behind it is sound.
        let folds = model.fold_runs(op)?;
        for v in audit_plan(&model, op, &folds) {
            report.push(diag(
                RuleId::Srv004ShardPlanIllegal,
                Severity::Error,
                context.clone(),
                format!("op {i} fails the fold-plan audit on its target array: {v}"),
                "fix the latency model's fold plan for this op/array pair",
            ));
        }
    }
    if shares != plan.shares {
        report.push(diag(
            RuleId::Srv004ShardPlanIllegal,
            Severity::Error,
            context.clone(),
            format!(
                "plan shares {:?} disagree with the per-array sums {:?} recomputed from \
                 the assignment",
                plan.shares, shares
            ),
            "rebuild the shard plan; its share accounting drifted from its assignment",
        ));
    }
    let max_share = shares.iter().copied().max().unwrap_or(0);
    if plan.makespan != max_share {
        report.push(diag(
            RuleId::Srv004ShardPlanIllegal,
            Severity::Error,
            context,
            format!(
                "plan makespan {} is not the largest share {}",
                plan.makespan, max_share
            ),
            "rebuild the shard plan; its makespan drifted from its shares",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_models::zoo;

    fn cfg() -> ServeConfig {
        ServeConfig::new()
    }

    fn uniform(nets: Vec<fuseconv_models::Network>) -> Workload {
        Workload::uniform(nets).expect("mix")
    }

    #[test]
    fn clean_config_has_no_findings() {
        let pod = PodSpec::parse("16x16:os,16x16:os").expect("pod");
        let w = uniform(vec![zoo::mobilenet_v1()]);
        let report = analyze_pod(&pod, &w, &cfg()).expect("analysis");
        assert!(report.diagnostics.is_empty(), "{}", report.to_text());
    }

    #[test]
    fn overload_fires_srv001_at_the_boundary() {
        let pod = PodSpec::parse("16x16:os").expect("pod");
        let w = uniform(vec![zoo::mobilenet_v1()]);
        for (load, fires) in [(0.99, false), (1.0, true), (1.5, true)] {
            let report = analyze_pod(&pod, &w, &ServeConfig { load, ..cfg() }).expect("analysis");
            assert_eq!(
                !report.with_rule(RuleId::Srv001PodOverload).is_empty(),
                fires,
                "load {load}: {}",
                report.to_text()
            );
        }
    }

    #[test]
    fn nonsense_configs_error_like_the_engine() {
        let pod = PodSpec::parse("8x8:os").expect("pod");
        let w = uniform(vec![zoo::mobilenet_v1()]);
        for bad in [
            ServeConfig {
                requests: 0,
                ..cfg()
            },
            ServeConfig { load: 0.0, ..cfg() },
            ServeConfig {
                preemption: true,
                dispatch: Dispatch::Sharded,
                ..cfg()
            },
            ServeConfig {
                shape_buckets: Some(1),
                ..cfg()
            },
            ServeConfig {
                slo_multiplier: f64::NAN,
                ..cfg()
            },
            ServeConfig {
                high_priority_frac: 2.0,
                ..cfg()
            },
            ServeConfig {
                policy: BatchPolicy::Dynamic {
                    max_batch: 0,
                    max_wait: 100,
                },
                ..cfg()
            },
            ServeConfig {
                queue_capacity: 0,
                ..cfg()
            },
        ] {
            assert!(matches!(
                analyze_pod(&pod, &w, &bad),
                Err(ServeError::Config(_))
            ));
        }
    }
}
