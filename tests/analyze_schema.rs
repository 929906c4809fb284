//! Golden-file regression test for the `fuseconv analyze --format json`
//! report schema. Downstream tooling (the CI plan-audit artifacts, trace
//! viewers, dashboards) keys on the rule IDs, severity names and JSON
//! object keys; `tests/golden/analyze_schema.json` pins that surface so
//! any rename or removal shows up as a reviewable golden diff. Adding a
//! new rule is the one additive change the golden file expects — append
//! its code to the `rules` list.

use fuseconv::analyze::{analyze_network, Report, RuleId, Severity};
use fuseconv::latency::LatencyModel;
use fuseconv::models::zoo;
use fuseconv::nn::FuSeVariant;
use fuseconv::systolic::ArrayConfig;

mod common;
use common::{assert_keys, golden_list, string_values_of};

const GOLDEN: &str = include_str!("golden/analyze_schema.json");

/// The report the CLI assembles for `fuseconv analyze --array 8` on the
/// default network: MobileNet-V2 in all three variants, duplicate
/// mapping-level findings collapsed.
fn cli_equivalent_report() -> Report {
    let array = ArrayConfig::square(8)
        .expect("8 is nonzero")
        .with_broadcast(true);
    let model = LatencyModel::new(array);
    let net = zoo::mobilenet_v2();
    let mut report = Report::new();
    for v in [
        net.clone(),
        net.transform_all(FuSeVariant::Full),
        net.transform_all(FuSeVariant::Half),
    ] {
        for d in analyze_network(&model, &v).diagnostics {
            if !report.diagnostics.contains(&d) {
                report.push(d);
            }
        }
    }
    report
}

#[test]
fn rule_catalogue_matches_golden_schema() {
    let codes: Vec<String> = RuleId::ALL.iter().map(|r| r.code().to_string()).collect();
    assert_eq!(
        codes,
        golden_list(GOLDEN, "rules"),
        "rule catalogue diverged from tests/golden/analyze_schema.json — \
         renames/removals break downstream report consumers"
    );
}

#[test]
fn severity_names_match_golden_schema() {
    let names: Vec<String> = [Severity::Info, Severity::Warning, Severity::Error]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert_eq!(names, golden_list(GOLDEN, "severities"));
}

#[test]
fn analyze_json_report_keys_match_golden_schema() {
    let report = cli_equivalent_report();
    assert!(
        !report.diagnostics.is_empty(),
        "schema check needs at least one diagnostic to pin object keys"
    );
    let json = report.to_json();
    // The diagnostics array's objects sit one level below the array, two
    // below the root.
    assert_keys(
        &json,
        GOLDEN,
        &[(1, "top_level_keys"), (3, "diagnostic_keys")],
    );
}

#[test]
fn analyze_json_report_values_stay_within_golden_vocabulary() {
    let json = cli_equivalent_report().to_json();
    let rules = golden_list(GOLDEN, "rules");
    let severities = golden_list(GOLDEN, "severities");
    let seen_rules = string_values_of(&json, "rule");
    assert!(!seen_rules.is_empty());
    for r in seen_rules {
        assert!(rules.contains(&r), "rule `{r}` missing from golden schema");
    }
    for s in string_values_of(&json, "severity") {
        assert!(
            severities.contains(&s),
            "severity `{s}` missing from golden schema"
        );
    }
}
