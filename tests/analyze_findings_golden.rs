//! Pins the exact text of every `fuseconv analyze --all --array 16`
//! finding across commits.
//!
//! The analyzer prices fusion pairs, plan coverage and memory in closed
//! form; any change to how a verdict is reached must leave the rendered
//! findings byte-identical. The test runs `analyze_network` over the 7
//! `--all` networks × the 5 Table I variants at 16×16, keeps each
//! finding once (the CLI's de-duplication), and compares the FNV-1a of
//! the sorted rendered text lines to a constant. Sorting makes the
//! fingerprint independent of analysis order; a deliberate message
//! change must update the constant in the same commit.

use fuseconv::analyze::{analyze_network, Report};
use fuseconv::core::variant::{apply_variant, Variant};
use fuseconv::latency::LatencyModel;
use fuseconv::models::zoo;
use fuseconv::systolic::ArrayConfig;
use fuseconv::telemetry::fnv1a64;

/// FNV-1a of the sorted text lines of the de-duplicated report.
const FINDINGS_FNV1A64: u64 = 0x8d97_209f_ea66_e046;

/// Findings in the de-duplicated report.
const FINDINGS: usize = 1839;

#[test]
fn analyze_all_findings_text_is_pinned() {
    let array = ArrayConfig::square(16)
        .expect("nonzero")
        .with_broadcast(true);
    let model = LatencyModel::new(array);
    let mut nets = zoo::all_baselines();
    nets.extend([zoo::resnet50(), zoo::efficientnet_b0()]);
    assert_eq!(nets.len(), 7);

    let mut report = Report::new();
    for net in &nets {
        for variant in Variant::ALL {
            let v = apply_variant(net, variant, &array).expect("zoo variants apply");
            for d in analyze_network(&model, &v).diagnostics {
                if !report.diagnostics.contains(&d) {
                    report.push(d);
                }
            }
        }
    }
    let text = report.to_text();
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    let fingerprint = fnv1a64(lines.join("\n").as_bytes());
    assert_eq!(report.diagnostics.len(), FINDINGS);
    assert_eq!(
        fingerprint, FINDINGS_FNV1A64,
        "analyze --all findings changed: fingerprint {fingerprint:#018x}"
    );
}
