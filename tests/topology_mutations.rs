//! Generated-input robustness of the topology parser.
//!
//! Every zoo network is serialised with `topology::to_text`, then mutated
//! with the vendored PRNG: fields replaced by 0, 1, word boundaries,
//! empty, negative, non-numeric or `se` values, lines repeated or dropped,
//! fields appended. Each mutant must either fail to parse or yield a
//! network whose MAC and parameter counts, as written and under both FuSe
//! transforms, compute without a panic.

use fuseconv::models::{topology, zoo, Network};
use fuseconv::nn::FuSeVariant;
use fuseconv::tensor::rng::Rng;
use std::panic;

const INPUTS: usize = 10_000;

/// Replacement fields, `|`-separated (one is empty).
const FIELDS: &str = "0|1|2|3|4294967295|4294967296|9223372036854775807|18446744073709551615|\
    18446744073709551616||-1|x|3.5|se0|se1|se18446744073709551615|input|sep|fc";

/// Applies one to three random edits to the lines of `text`.
fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut lines: Vec<Vec<String>> = text
        .lines()
        .map(|l| l.split(',').map(str::to_owned).collect())
        .collect();
    for _ in 0..1 + rng.below(3) {
        if lines.is_empty() {
            break;
        }
        let at = rng.below(lines.len());
        let fields: Vec<&str> = FIELDS.split('|').collect();
        let field = fields[rng.below(fields.len())].to_owned();
        match rng.below(8) {
            0 => lines.insert(at, lines[at].clone()),
            1 => drop(lines.remove(at)),
            2 => lines[at].push(field),
            _ => {
                let i = rng.below(lines[at].len());
                lines[at][i] = field;
            }
        }
    }
    lines
        .iter()
        .map(|fields| fields.join(","))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Everything a parsed topology feeds: counts as written and under FuSe.
fn exercise(text: &str) {
    let Ok(net) = topology::parse("mutant", text) else {
        return;
    };
    let counts = |n: &Network| (n.macs(), n.params());
    counts(&net);
    for variant in [FuSeVariant::Full, FuSeVariant::Half] {
        counts(&net.transform_all(variant));
    }
}

#[test]
fn mutated_zoo_topologies_never_panic() {
    let mut nets = zoo::all_baselines();
    nets.push(zoo::resnet50());
    nets.push(zoo::efficientnet_b0());
    let texts: Vec<String> = nets.iter().map(topology::to_text).collect();
    let mut rng = Rng::seed_from_u64(0x746f_706f);
    let mut panicked = Vec::new();
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    for i in 0..INPUTS {
        let text = mutate(&mut rng, &texts[i % texts.len()]);
        if panic::catch_unwind(|| exercise(&text)).is_err() {
            panicked.push(text);
        }
    }
    panic::set_hook(hook);
    assert!(
        panicked.is_empty(),
        "{} of {INPUTS} mutants panicked; first:\n{}",
        panicked.len(),
        panicked[0]
    );
}
