//! Helpers shared by the integration tests: the traced shape grids
//! ([`traced`]), the zoo's distinct operators, a FuSe layer with given
//! weights and the JSON scanners of the golden schema tests. The workspace has no JSON parser; these
//! scans are all the schema tests need, and each accepts both the pretty
//! (`"key": value`) and the compact (`"key":value`) separator.

#![allow(dead_code, reason = "each test binary uses its own subset")]

pub(crate) mod traced;

use fuseconv::core::variant::{apply_variant, Variant};
use fuseconv::models::zoo;
use fuseconv::nn::ops::Op;
use fuseconv::nn::FuSeVariant;
use fuseconv::serve::{PodSpec, Workload};
use fuseconv::systolic::ArrayConfig;
use fuseconv::tensor::Tensor;
use fuseconv::train::layers::{FuseLayer, Layer};
use std::collections::HashSet;

/// The two-array pod and FuSe-Full two-network workload the serve and
/// time-series schema tests run.
pub(crate) fn schema_pod() -> (PodSpec, Workload) {
    let pod = PodSpec::parse("16x16:os,8x8:ws").expect("valid pod");
    let workload = Workload::uniform(vec![
        zoo::mobilenet_v2().transform_all(FuSeVariant::Full),
        zoo::mobilenet_v3_small().transform_all(FuSeVariant::Full),
    ])
    .expect("valid workload");
    (pod, workload)
}

/// The distinct ops of the `analyze --all` networks under every Table I
/// variant, with the variants chosen for `array`.
pub(crate) fn zoo_ops(array: &ArrayConfig) -> Vec<Op> {
    let mut nets = zoo::all_baselines();
    nets.extend([zoo::resnet50(), zoo::efficientnet_b0()]);
    let mut seen = HashSet::new();
    let mut ops = Vec::new();
    for net in &nets {
        for variant in Variant::ALL {
            let net = apply_variant(net, variant, array).expect("zoo variants apply");
            for named in net.ops() {
                if seen.insert(named.op) {
                    ops.push(named.op);
                }
            }
        }
    }
    ops
}

/// A `variant` FuSe layer over `c` channels whose row bank is `row`
/// (`[C/D, 1, K]`) and column bank `col` (`[C/D, K, 1]`), set through
/// [`Layer::params_mut`].
pub(crate) fn fuse_layer(
    variant: FuSeVariant,
    c: usize,
    stride: usize,
    row: Tensor,
    col: Tensor,
) -> FuseLayer {
    let k = row.shape().dims()[2];
    let mut layer = FuseLayer::with_stride(variant, c, k, stride, 0);
    let mut banks = layer.params_mut();
    banks[0].value = row;
    banks[1].value = col;
    layer
}

/// The quoted strings of the array named `name` in a golden file, e.g.
/// `golden_list(GOLDEN, "rules")`.
pub(crate) fn golden_list(golden: &str, name: &str) -> Vec<String> {
    let start = golden
        .find(&format!("\"{name}\""))
        .unwrap_or_else(|| panic!("golden file lacks section `{name}`"));
    let open = golden[start..].find('[').expect("section is an array") + start;
    let close = golden[open..].find(']').expect("array closes") + open;
    let mut out = Vec::new();
    let mut rest = &golden[open + 1..close];
    while let Some(q0) = rest.find('"') {
        let q1 = rest[q0 + 1..].find('"').expect("string closes") + q0 + 1;
        out.push(rest[q0 + 1..q1].to_string());
        rest = &rest[q1 + 1..];
    }
    out
}

/// Distinct object keys found at a given brace depth of a JSON document
/// (depth 1 = the outermost object), in first-appearance order.
pub(crate) fn keys_at_depth(json: &str, target: usize) -> Vec<String> {
    let bytes = json.as_bytes();
    let mut keys: Vec<String> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth = depth.saturating_sub(1),
            b'"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    if bytes[j] == b'\\' {
                        j += 1;
                    }
                    j += 1;
                }
                // Both separators put the colon right after the quote.
                let is_key = bytes.get(j + 1) == Some(&b':');
                if is_key && depth == target {
                    let key = json[start..j].to_string();
                    if !keys.contains(&key) {
                        keys.push(key);
                    }
                }
                i = j;
            }
            _ => {}
        }
        i += 1;
    }
    keys
}

/// Asserts, for each `(depth, section)`, that the document's keys at
/// `depth` are exactly the golden list `section`, in order.
pub(crate) fn assert_keys(json: &str, golden: &str, sections: &[(usize, &str)]) {
    for &(depth, section) in sections {
        assert_eq!(
            keys_at_depth(json, depth),
            golden_list(golden, section),
            "keys at depth {depth} diverged from golden `{section}`"
        );
    }
}

/// Every string value of a `"field"` member in the document.
pub(crate) fn string_values_of(json: &str, field: &str) -> Vec<String> {
    let needle = format!("\"{field}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find(&needle) {
        rest = rest[at + needle.len()..].trim_start_matches(' ');
        if let Some(value) = rest.strip_prefix('"') {
            let end = value.find('"').expect("value closes");
            out.push(value[..end].to_string());
            rest = &value[end..];
        }
    }
    out
}
