//! Fixture tests for the `lock-order-cycle` pass (DESIGN.md §15).
//!
//! The fixture workspace pairs a true positive with the nearest
//! non-finding shape (consistent lock order), and expectations are exact
//! `(rule, path, line, col)` tuples so spans cannot drift.

use ada_lint::run_workspace;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn tuples(name: &str) -> Vec<(&'static str, String, u32, u32)> {
    run_workspace(&fixture(name))
        .unwrap()
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.path.clone(), d.line, d.col))
        .collect()
}

/// `ab` acquires `a` then `b`; `ba` holds `b` across a call that acquires
/// `a` — one cycle, reported once, anchored at the first edge's witness.
/// `consistent` drops `a` before taking `b` and adds no reverse edge.
#[test]
fn lock_order_cycle_with_propagated_edge() {
    let got = tuples("lockorder_ws");
    assert_eq!(
        got,
        [(
            "lock-order-cycle",
            "crates/eng/src/lib.rs".to_string(),
            18,
            25
        )]
    );
}

#[test]
fn lock_order_message_names_both_witness_paths() {
    let report = run_workspace(&fixture("lockorder_ws")).unwrap();
    let msg = &report.diagnostics[0].message;
    assert!(msg.contains("Eng::ab"), "direct-edge witness: {}", msg);
    assert!(
        msg.contains("Eng::ba") && msg.contains("Eng::grab_a"),
        "propagated-edge witness must name the callee: {}",
        msg
    );
    assert!(msg.contains("crates/eng/src/lib.rs:31:20"), "{}", msg);
}
