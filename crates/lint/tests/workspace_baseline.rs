//! Golden-baseline test: the committed `LINT.json` at the repo root must
//! match a fresh scan of the real workspace, rule by rule.
//!
//! The tree stays at zero findings, and the baseline cannot drift
//! silently: a changed rule set or file discovery without a regenerated
//! baseline (`cargo run -p ada-lint -- --workspace --json LINT.json`)
//! fails here.

use ada_lint::run_workspace;
use std::path::Path;

#[test]
fn committed_baseline_matches_a_fresh_workspace_scan() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap();
    let baseline_path = repo_root.join("LINT.json");
    let baseline_bytes = std::fs::read(&baseline_path).unwrap();
    let baseline = ada_json::parse(&baseline_bytes).unwrap();
    assert_eq!(
        baseline.field("schema").unwrap().as_str().unwrap(),
        "ada-lint/3"
    );

    let report = run_workspace(repo_root).unwrap();
    assert!(
        report.diagnostics.is_empty(),
        "the tree must stay at zero findings: {:?}",
        report.diagnostics
    );
    assert_eq!(
        baseline.field("findings_total").unwrap().as_u64().unwrap(),
        0
    );
    assert_eq!(
        baseline.field("files_scanned").unwrap().as_u64().unwrap(),
        report.files_scanned as u64,
        "file-discovery drifted; regenerate LINT.json"
    );

    let rules = baseline.field("rules").unwrap();
    let counts = report.rule_counts();
    assert_eq!(
        rules.as_obj().unwrap().len(),
        counts.len(),
        "the rule set drifted; regenerate LINT.json"
    );
    for (rule, findings, files) in counts {
        let entry = rules
            .field(rule)
            .unwrap_or_else(|_| panic!("rule {} missing from LINT.json", rule));
        let get = |key: &str| entry.field(key).unwrap().as_u64().unwrap();
        assert_eq!(
            (get("findings"), get("files")),
            (findings as u64, files as u64),
            "rule {} drifted from the committed baseline; regenerate LINT.json",
            rule
        );
    }
}
