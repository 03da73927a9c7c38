//! `ada-lint` CLI.
//!
//! ```text
//! cargo run -p ada-lint -- --workspace                   # report findings
//! cargo run -p ada-lint -- --workspace --deny            # exit 1 on any finding
//! cargo run -p ada-lint -- --workspace --json LINT.json  # also write the baseline
//! ```
//!
//! `--root <dir>` overrides workspace discovery (default: walk up from the
//! current directory to the first `Cargo.toml` with `[workspace]`).

// A CLI: stdout and stderr are its interface.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::path::PathBuf;

fn main() {
    let mut deny = false;
    let mut json_path: Option<PathBuf> = None;
    let mut root_override: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => {} // the default scan mode; accepted for clarity
            "--deny" => deny = true,
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
                    "usage: ada-lint [--workspace] [--deny] [--json PATH] [--root DIR]\n\
                     Lints crates/*/src/**, src/** and examples/** with ADA's project rules \
                     (see DESIGN.md §9 and §15)."
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

    let report = match ada_lint::run_workspace(&root) {
        Ok(r) => r,
        Err(e) => die(&format!("lint failed: {}", e)),
    };

    for d in &report.diagnostics {
        println!("{}:{}:{} [{}] {}", d.path, d.line, d.col, d.rule, d.message);
    }

    let found = report.diagnostics.len();
    println!(
        "ada-lint: {} finding{} across {} files",
        found,
        if found == 1 { "" } else { "s" },
        report.files_scanned
    );
    for (rule, findings, _) in report.rule_counts() {
        if findings > 0 {
            println!("  {:<28} {:>4}", rule, findings);
        }
    }

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, report.to_json().to_vec()) {
            die(&format!("cannot write {}: {}", path.display(), e));
        }
        println!("wrote {}", path.display());
    }

    if deny && found > 0 {
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("ada-lint: {}", msg);
    std::process::exit(2);
}
