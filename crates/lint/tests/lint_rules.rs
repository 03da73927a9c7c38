//! Fixture tests for the lexer and the rule engine.
//!
//! The fixture workspaces live under `tests/fixtures/` — outside any cargo
//! target, so their deliberately-broken sources are never compiled; they are
//! only lexed by ada-lint itself.

use ada_lint::lexer::{self, TokenKind};
use ada_lint::run_workspace;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn lexer_never_tokenizes_unwrap_inside_strings_or_comments() {
    let src = concat!(
        "let s = \"call .unwrap() or panic!() here\";\n",
        "/* outer /* nested unwrap() */ done */\n",
        "let r = r##\"raw \"quoted\" unwrap()\"##;\n",
        "// trailing unwrap() in a line comment\n",
    );
    let toks = lexer::lex(src);
    assert!(
        toks.iter()
            .all(|t| !(t.kind == TokenKind::Ident && t.text == "unwrap")),
        "unwrap leaked out of a string/comment as an identifier"
    );
    assert_eq!(
        toks.iter().filter(|t| t.kind == TokenKind::Str).count(),
        2,
        "plain + raw string should each be one Str token"
    );
    assert_eq!(
        toks.iter()
            .filter(|t| t.kind == TokenKind::BlockComment)
            .count(),
        1,
        "nested block comment must collapse into one token"
    );
    assert_eq!(
        toks.iter()
            .filter(|t| t.kind == TokenKind::LineComment)
            .count(),
        1
    );
}

#[test]
fn lexer_distinguishes_lifetimes_from_char_literals() {
    let toks = lexer::lex("fn f<'a>(x: &'a str) -> char { 'x' }");
    let lifetimes: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind == TokenKind::Lifetime)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(lifetimes, ["'a", "'a"]);
    let chars: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind == TokenKind::Char)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(chars, ["'x'"]);
}

#[test]
fn lexer_spans_are_one_based() {
    let toks = lexer::lex("ab cd\n  ef");
    let spans: Vec<(&str, u32, u32)> = toks
        .iter()
        .map(|t| (t.text.as_str(), t.line, t.col))
        .collect();
    assert_eq!(spans, [("ab", 1, 1), ("cd", 1, 4), ("ef", 2, 3)]);
}

/// The dirty fixture holds the error-kind pass three ways; expectations
/// are exact `(rule, path, line, col)` tuples, so spans cannot drift.
#[test]
fn fixture_workspace_reports_exact_spans() {
    let report = run_workspace(&fixture("ws")).unwrap();
    assert_eq!(report.files_scanned, 1, "core lib");
    let got: Vec<(&str, &str, u32, u32)> = report
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.path.as_str(), d.line, d.col))
        .collect();
    let core = "crates/core/src/lib.rs";
    let expected = [
        ("error-kind-exhaustive", core, 7, 5),   // variant C unmapped
        ("error-kind-exhaustive", core, 14, 23), // duplicate kind "a"
        ("error-kind-exhaustive", core, 15, 13), // wildcard arm
    ];
    assert_eq!(got, expected);
}

/// The metric catalog pass: literals registered in METRICS.md (and names
/// in test code) pass; unregistered literals fail with exact spans. The
/// `ws`/`clean_ws` fixtures have no METRICS.md, so the pass is skipped
/// there.
#[test]
fn metric_names_must_be_registered_in_the_catalog() {
    let report = run_workspace(&fixture("metrics_ws")).unwrap();
    let got: Vec<(&str, u32, u32, &str)> = report
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.line, d.col, d.message.as_str()))
        .collect();
    assert_eq!(got.len(), 2, "{:?}", got);
    for (rule, _, _, _) in &got {
        assert_eq!(*rule, "metric-name-registered");
    }
    assert_eq!((got[0].1, got[0].2), (9, 19), "histogram literal span");
    assert!(got[0].3.contains("\"app.unknown_ns\""), "{}", got[0].3);
    assert_eq!((got[1].1, got[1].2), (10, 25), "trace root literal span");
    assert!(got[1].3.contains("\"app.trace\""), "{}", got[1].3);
}

#[test]
fn clean_workspace_has_no_findings() {
    let report = run_workspace(&fixture("clean_ws")).unwrap();
    assert_eq!(report.files_scanned, 1);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn json_report_parses_back_with_per_rule_counts() {
    let report = run_workspace(&fixture("ws")).unwrap();
    let v = ada_json::parse(&report.to_json().to_vec()).unwrap();
    assert_eq!(v.field("schema").unwrap().as_str().unwrap(), "ada-lint/3");
    assert_eq!(v.field("files_scanned").unwrap().as_u64().unwrap(), 1);
    assert_eq!(v.field("findings_total").unwrap().as_u64().unwrap(), 3);

    let rules = v.field("rules").unwrap();
    let count = |rule: &str, key: &str| {
        rules
            .field(rule)
            .unwrap()
            .field(key)
            .unwrap()
            .as_u64()
            .unwrap()
    };
    assert_eq!(rules.as_obj().unwrap().len(), 4, "one entry per rule");
    assert_eq!(count("error-kind-exhaustive", "findings"), 3);
    assert_eq!(count("error-kind-exhaustive", "files"), 1);
    // A rule that never fired keeps a zeroed entry.
    assert_eq!(count("lock-order-cycle", "findings"), 0);
    assert_eq!(count("lock-order-cycle", "files"), 0);

    let findings = v.field("findings").unwrap().as_arr().unwrap();
    assert_eq!(findings.len(), 3);
    assert_eq!(
        findings[0].field("rule").unwrap().as_str().unwrap(),
        "error-kind-exhaustive"
    );
    assert_eq!(findings[0].field("line").unwrap().as_u64().unwrap(), 7);
}

/// Acceptance criterion: `--deny` exits non-zero when fixture violations
/// are present and zero on a clean tree.
#[test]
fn deny_flag_drives_the_exit_code() {
    let bin = env!("CARGO_BIN_EXE_ada-lint");

    let dirty = std::process::Command::new(bin)
        .args(["--workspace", "--deny", "--root"])
        .arg(fixture("ws"))
        .output()
        .unwrap();
    assert_eq!(dirty.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&dirty.stdout);
    assert!(
        stdout.contains("crates/core/src/lib.rs:7:5 [error-kind-exhaustive]"),
        "diagnostic lines must be span-accurate: {}",
        stdout
    );

    let clean = std::process::Command::new(bin)
        .args(["--workspace", "--deny", "--root"])
        .arg(fixture("clean_ws"))
        .output()
        .unwrap();
    assert_eq!(clean.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&clean.stdout).contains("0 findings"));
}
