//! `ada-lint` CLI.
//!
//! ```text
//! cargo run -p ada-lint -- --workspace            # report findings
//! cargo run -p ada-lint -- --workspace --deny     # exit 1 on any unsuppressed finding
//! cargo run -p ada-lint -- --workspace --json LINT.json
//! cargo run -p ada-lint -- --self-check           # run the fixture corpus
//! ```
//!
//! `--root <dir>` overrides workspace discovery (default: walk up from the
//! current directory to the first `Cargo.toml` with `[workspace]`).
//!
//! `--self-check` lints every fixture workspace under
//! `crates/lint/tests/fixtures/` that carries an `EXPECT.txt` and compares
//! the diagnostics line-by-line against it (format:
//! `rule path line col open|suppressed`), exiting nonzero on any mismatch —
//! the analyzer proves its own rules still fire before gating the tree.

// A CLI: stdout and stderr are its interface.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::path::{Path, PathBuf};

fn main() {
    let mut deny = false;
    let mut self_check = false;
    let mut json_path: Option<PathBuf> = None;
    let mut root_override: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => {} // the default scan mode; accepted for clarity
            "--deny" => deny = true,
            "--self-check" => self_check = true,
            "--json" => match args.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => die("--json needs a path argument"),
            },
            "--root" => match args.next() {
                Some(p) => root_override = Some(PathBuf::from(p)),
                None => die("--root needs a directory argument"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: ada-lint [--workspace] [--deny] [--json PATH] [--root DIR] \
                     [--self-check]\n\
                     Lints crates/*/src/**, src/** and examples/** with ADA's project rules \
                     (see DESIGN.md §9 and §15).\n\
                     --self-check runs the fixture corpus under crates/lint/tests/fixtures/ \
                     against each EXPECT.txt and exits nonzero on any mismatch."
                );
                return;
            }
            other => die(&format!("unknown argument '{}'", other)),
        }
    }

    let root = match root_override {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => die(&format!("cannot determine current directory: {}", e)),
            };
            match ada_lint::find_workspace_root(&cwd) {
                Ok(r) => r,
                Err(e) => die(&e.to_string()),
            }
        }
    };

    if self_check {
        run_self_check(&root);
    }

    let report = match ada_lint::run_workspace(&root) {
        Ok(r) => r,
        Err(e) => die(&format!("lint failed: {}", e)),
    };

    for d in report.unsuppressed() {
        println!("{}:{}:{} [{}] {}", d.path, d.line, d.col, d.rule, d.message);
    }

    let open = report.unsuppressed().count();
    let quiet = report.suppressed().count();
    println!(
        "ada-lint: {} finding{} ({} suppressed) across {} files",
        open,
        if open == 1 { "" } else { "s" },
        quiet,
        report.files_scanned
    );
    for (rule, u, s) in report.rule_counts() {
        if u + s > 0 {
            println!("  {:<28} {:>4} open {:>4} suppressed", rule, u, s);
        }
    }

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, report.to_json().to_vec()) {
            die(&format!("cannot write {}: {}", path.display(), e));
        }
        println!("wrote {}", path.display());
    }

    if deny && open > 0 {
        std::process::exit(1);
    }
}

/// `--self-check`: lint every fixture workspace and compare against its
/// `EXPECT.txt` (one `rule path line col open|suppressed` line per
/// diagnostic, in report order; `#` comments and blank lines ignored).
fn run_self_check(root: &Path) -> ! {
    let fixtures = root.join("crates/lint/tests/fixtures");
    let entries = match std::fs::read_dir(&fixtures) {
        Ok(rd) => rd,
        Err(e) => die(&format!("cannot read {}: {}", fixtures.display(), e)),
    };
    let mut dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir() && p.join("EXPECT.txt").is_file())
        .collect();
    dirs.sort();
    if dirs.is_empty() {
        die(&format!(
            "no fixture with an EXPECT.txt under {}",
            fixtures.display()
        ));
    }

    let mut failed = 0usize;
    for dir in &dirs {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let expect_path = dir.join("EXPECT.txt");
        let expected: Vec<String> = match std::fs::read_to_string(&expect_path) {
            Ok(body) => body
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect(),
            Err(e) => die(&format!("cannot read {}: {}", expect_path.display(), e)),
        };
        let report = match ada_lint::run_workspace(dir) {
            Ok(r) => r,
            Err(e) => die(&format!("lint failed on fixture {}: {}", name, e)),
        };
        let actual: Vec<String> = report
            .diagnostics
            .iter()
            .map(|d| {
                format!(
                    "{} {} {} {} {}",
                    d.rule,
                    d.path,
                    d.line,
                    d.col,
                    if d.suppressed.is_some() {
                        "suppressed"
                    } else {
                        "open"
                    }
                )
            })
            .collect();
        if actual == expected {
            println!("self-check {}: ok ({} diagnostics)", name, actual.len());
            continue;
        }
        failed += 1;
        println!("self-check {}: MISMATCH", name);
        for line in &expected {
            if !actual.contains(line) {
                println!("  missing:    {}", line);
            }
        }
        for line in &actual {
            if !expected.contains(line) {
                println!("  unexpected: {}", line);
            }
        }
    }
    println!(
        "ada-lint self-check: {}/{} fixtures ok",
        dirs.len() - failed,
        dirs.len()
    );
    std::process::exit(if failed > 0 { 1 } else { 0 });
}

fn die(msg: &str) -> ! {
    eprintln!("ada-lint: {}", msg);
    std::process::exit(2);
}
