//! The `repro` binary from the outside: its item table (as the usage text
//! prints it), the unknown-item exit code, and the `repro all` golden.

use std::process::{Command, Output};

/// The paper items `all` expands to, in print order.
const PAPER_ITEMS: [&str; 15] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "fig1",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "ablations",
    "playback",
    "amortization",
    "contention",
];

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

/// The names on the usage line that starts with `label`.
fn usage_names(usage: &str, label: &str) -> Vec<String> {
    let line = usage
        .lines()
        .find_map(|l| l.trim_start().strip_prefix(label))
        .unwrap_or_else(|| panic!("no '{}' line in usage:\n{}", label, usage));
    line.split_whitespace().map(str::to_string).collect()
}

#[test]
fn unknown_item_exits_2_with_the_usage_on_stderr() {
    // A known item before the unknown one must not run either.
    let out = repro(&["table3", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs beside an unknown item");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown item 'nope'"), "{}", stderr);
    assert!(stderr.contains("usage: repro"), "{}", stderr);

    let out = repro(&["table3", "--port"]);
    assert_eq!(out.status.code(), Some(2), "value flag without a value");
}

#[test]
fn item_names_are_unique_and_all_is_the_fifteen_paper_items() {
    let usage = String::from_utf8(repro(&["nope"]).stderr).unwrap();
    let all = usage_names(&usage, "all:");
    assert_eq!(all, PAPER_ITEMS);

    let mut names = all;
    names.extend(usage_names(&usage, "other:"));
    for gate in ["serve", "trace"] {
        assert!(names.iter().any(|n| n == gate), "missing {}", gate);
    }
    let listed = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), listed, "duplicate item name in the table");
}

#[test]
fn repro_all_matches_the_committed_output() {
    let golden = include_bytes!("../../../repro_output.txt");
    for args in [&["all"][..], &[]] {
        let out = repro(args);
        assert!(out.status.success());
        assert!(
            out.stdout == golden,
            "`repro {}` drifted from repro_output.txt; regenerate it with \
             `cargo run --release -p ada-bench --bin repro -- all > repro_output.txt`",
            args.join(" ")
        );
    }
}
