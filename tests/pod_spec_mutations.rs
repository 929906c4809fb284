//! Generated-input robustness of the pod spec parser and the static pod
//! audit.
//!
//! Valid `ROWSxCOLS[:df]` lists are mutated with the vendored PRNG: a
//! count, dataflow or separator replaced by 0, 1, word boundaries, empty,
//! negative, non-numeric or stray separators, tokens repeated, dropped
//! or inserted. Each mutant must either fail `PodSpec::parse` or run
//! through `analyze_pod` without a panic under each of a whole, a
//! sharded and a preempting configuration.

use fuseconv::analyze::analyze_pod;
use fuseconv::models::topology;
use fuseconv::serve::{Dispatch, PodSpec, ServeConfig, Workload};
use fuseconv::tensor::rng::Rng;
use std::panic;

const INPUTS: usize = 10_000;

/// Valid pods the mutants start from.
const PODS: [&str; 4] = [
    "64x64:os,32x32:ws,16x16:os,8x8:os",
    "1x1",
    "8x8:is,4x4:ws,1x64",
    "2x32:ws,32x2:is",
];

/// Replacement tokens, `|`-separated (one is empty).
const FIELDS: &str = "0|1|2|3|4294967295|4294967296|9223372036854775807|18446744073709551615|\
    18446744073709551616||-1|3.5| 8|x|:|,|os|ws|is|OS|xs";

/// Applies one or two random token edits to `pod`.
fn mutate(rng: &mut Rng, pod: &str) -> String {
    let fields: Vec<&str> = FIELDS.split('|').collect();
    // Tokens: counts, dataflows and the separators `x`, `:` and `,`.
    let mut tokens: Vec<String> = Vec::new();
    for c in pod.chars() {
        match tokens.last_mut() {
            Some(t) if !"x:,".contains(c) && !t.ends_with(['x', ':', ',']) => t.push(c),
            _ => tokens.push(c.to_string()),
        }
    }
    for _ in 0..1 + rng.below(2) {
        let field = fields[rng.below(fields.len())].to_owned();
        if tokens.is_empty() {
            tokens.push(field);
            continue;
        }
        let at = rng.below(tokens.len());
        match rng.below(4) {
            0 => tokens.insert(at, field),
            1 => drop(tokens.remove(at)),
            2 => tokens.insert(at, tokens[at].clone()),
            _ => tokens[at] = field,
        }
    }
    tokens.concat()
}

#[test]
fn mutated_pod_specs_never_panic() {
    let tiny = "input, 8, 3\nconv, 4, 3, 1\nsep, 8, 8, 3, 2\nfc, 10";
    let tiny = topology::parse("tiny", tiny).expect("tiny network");
    let workload = Workload::uniform(vec![tiny]).expect("workload");
    let configs = [
        ServeConfig::default(),
        ServeConfig {
            dispatch: Dispatch::Sharded,
            ..ServeConfig::default()
        },
        ServeConfig {
            preemption: true,
            high_priority_frac: 0.2,
            ..ServeConfig::default()
        },
    ];
    let mut rng = Rng::seed_from_u64(0x706f_6473);
    let (mut audited, mut panicked) = (0, Vec::new());
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    for i in 0..INPUTS {
        let spec = mutate(&mut rng, PODS[i % PODS.len()]);
        let run = || {
            let pod = PodSpec::parse(&spec).ok()?;
            for cfg in &configs {
                let _ = analyze_pod(&pod, &workload, cfg);
            }
            Some(())
        };
        match panic::catch_unwind(panic::AssertUnwindSafe(run)) {
            Ok(parsed) => audited += usize::from(parsed.is_some()),
            Err(_) => panicked.push(spec),
        }
    }
    panic::set_hook(hook);
    // Mutants that still parse must reach the audit in numbers.
    assert!(audited >= INPUTS / 10, "only {audited} mutants parsed");
    assert!(
        panicked.is_empty(),
        "{} of {INPUTS} mutants panicked; first: `{}`",
        panicked.len(),
        panicked[0]
    );
}
