#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

//! # ada-lint — workspace-aware static analysis for the ADA reproduction
//!
//! The ingest and query paths are multi-threaded, and part of their
//! correctness rests on *project* invariants neither `rustc` nor `clippy`
//! can state: every [`AdaError`] variant mapped to a distinct telemetry
//! kind, every emitted metric name in the catalog and no stale one left
//! there, one global lock order, nothing blocking under a lock, every
//! spawn carrying its request's trace context and keeping its handle.
//! This crate holds those seven; what the toolchain can say — no
//! `unsafe`, no panic or printing in library code — it says itself,
//! through `[workspace.lints]` (DESIGN.md §9).
//!
//! * [`lexer`] — a small Rust lexer (comments, strings, raw strings,
//!   lifetimes handled correctly) so rules match tokens, not text;
//! * [`rules`] — the rule IDs, span-accurate diagnostics and
//!   `// ada-lint: allow(rule-id) reason` suppression;
//! * [`semantic`] — cross-file passes: the `AdaError::kind()` map stays
//!   exhaustive and distinct, and `METRICS.md` neither misses an emitted
//!   name nor carries a stale one;
//! * [`callgraph`] — the workspace symbol table (functions, impl blocks,
//!   lock-typed fields) and call resolution built over the token streams;
//! * [`concurrency`] — the four cross-crate concurrency passes
//!   (`lock-order-cycle`, `no-blocking-under-lock`,
//!   `trace-context-propagated`, `unjoined-spawn`) over a per-function
//!   guard-liveness walk (DESIGN.md §15).
//!
//! Run it as `cargo run -p ada-lint -- --workspace [--deny] [--json PATH]`
//! or `repro lint [--json]`; the verify gate runs it with `--deny` after
//! clippy and rustfmt, plus `--self-check` over the fixture corpus.
//!
//! [`AdaError`]: https://docs.rs/ada-core

pub mod callgraph;
pub mod concurrency;
pub mod lexer;
pub mod rules;
pub mod semantic;

use callgraph::SourceFile;
use rules::{Allow, Diagnostic, FileClass, RULES};
use std::path::{Path, PathBuf};

/// Anything that stops the lint from running (I/O, missing workspace).
#[derive(Debug)]
pub enum LintError {
    /// Reading a source file or directory failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// No workspace root (a `Cargo.toml` with `[workspace]`) was found.
    NoWorkspace(PathBuf),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io { path, source } => {
                write!(f, "io error at {}: {}", path.display(), source)
            }
            LintError::NoWorkspace(start) => write!(
                f,
                "no Cargo.toml with [workspace] at or above {}",
                start.display()
            ),
        }
    }
}

impl std::error::Error for LintError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LintError::Io { source, .. } => Some(source),
            LintError::NoWorkspace(_) => None,
        }
    }
}

/// The outcome of a full workspace scan.
#[derive(Debug)]
pub struct LintReport {
    /// All diagnostics, suppressed ones included, ordered by path/line/col.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files lexed and scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Diagnostics an `--deny` run fails on.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.suppressed.is_none())
    }

    /// Diagnostics claimed by an `allow` comment.
    pub fn suppressed(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.suppressed.is_some())
    }

    /// Per-rule `(unsuppressed, suppressed)` counts over every known rule,
    /// zeros included, in [`RULES`] order — the lint baseline.
    pub fn rule_counts(&self) -> Vec<(&'static str, usize, usize)> {
        RULES
            .iter()
            .map(|r| {
                let open = self
                    .diagnostics
                    .iter()
                    .filter(|d| d.rule == *r && d.suppressed.is_none())
                    .count();
                let quiet = self
                    .diagnostics
                    .iter()
                    .filter(|d| d.rule == *r && d.suppressed.is_some())
                    .count();
                (*r, open, quiet)
            })
            .collect()
    }

    /// Serialize the report (summary + every finding) as an `ada-json`
    /// value — `repro lint --json` writes this to `LINT.json`. Schema
    /// `ada-lint/2`: v1 plus a per-rule `files` count (distinct files with
    /// any finding of that rule, suppressed included).
    pub fn to_json(&self) -> ada_json::Value {
        use ada_json::Value;
        let rules = Value::Obj(
            self.rule_counts()
                .into_iter()
                .map(|(rule, open, quiet)| {
                    let files: std::collections::BTreeSet<&str> = self
                        .diagnostics
                        .iter()
                        .filter(|d| d.rule == rule)
                        .map(|d| d.path.as_str())
                        .collect();
                    (
                        rule.to_string(),
                        Value::obj(vec![
                            ("unsuppressed", Value::num_u(open as u64)),
                            ("suppressed", Value::num_u(quiet as u64)),
                            ("files", Value::num_u(files.len() as u64)),
                        ]),
                    )
                })
                .collect(),
        );
        let finding = |d: &Diagnostic| {
            let mut fields = vec![
                ("rule", Value::str(d.rule)),
                ("path", Value::str(d.path.clone())),
                ("line", Value::num_u(d.line as u64)),
                ("col", Value::num_u(d.col as u64)),
                ("message", Value::str(d.message.clone())),
            ];
            if let Some(reason) = &d.suppressed {
                fields.push(("allow_reason", Value::str(reason.clone())));
            }
            Value::obj(fields)
        };
        Value::obj(vec![
            ("schema", Value::str("ada-lint/2")),
            ("files_scanned", Value::num_u(self.files_scanned as u64)),
            (
                "unsuppressed_total",
                Value::num_u(self.unsuppressed().count() as u64),
            ),
            (
                "suppressed_total",
                Value::num_u(self.suppressed().count() as u64),
            ),
            ("rules", rules),
            (
                "findings",
                Value::Arr(self.unsuppressed().map(finding).collect()),
            ),
            (
                "suppressions",
                Value::Arr(self.suppressed().map(finding).collect()),
            ),
        ])
    }
}

/// Walk upward from `start` to the `Cargo.toml` declaring `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, LintError> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let body = std::fs::read_to_string(&manifest).map_err(|source| LintError::Io {
                path: manifest.clone(),
                source,
            })?;
            if body.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(LintError::NoWorkspace(start.to_path_buf()));
        }
    }
}

/// Lint every `crates/*/src/**/*.rs` file under `root` — plus the umbrella
/// crate's `src/**` and `examples/*.rs` when present — and run the
/// cross-file semantic and concurrency passes. Deterministic: files are
/// visited in sorted order and diagnostics are ordered by path/line/col.
pub fn run_workspace(root: &Path) -> Result<LintReport, LintError> {
    let mut files: Vec<SourceFile> = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = read_dir_sorted(&crates_dir)?
        .into_iter()
        .filter(|p| p.is_dir() && p.join("src").is_dir())
        .collect();
    crate_dirs.sort();

    for crate_dir in &crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        load_dir(root, &crate_dir.join("src"), &crate_name, &mut files)?;
    }
    // The umbrella crate at the workspace root (re-exports + integration
    // surface) and the runnable examples ride under the same rules.
    let root_src = root.join("src");
    if root_src.is_dir() {
        load_dir(root, &root_src, "ada", &mut files)?;
    }
    let examples = root.join("examples");
    if examples.is_dir() {
        load_dir(root, &examples, "examples", &mut files)?;
    }

    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut allows: Vec<Allow> = Vec::new();
    for file in &files {
        let (a, d) = rules::parse_allows(&file.class, &file.tokens);
        allows.extend(a);
        diagnostics.extend(d);
    }

    diagnostics.extend(semantic::check_error_kinds(&files));
    // The metric passes run only where a catalog exists: a workspace
    // without METRICS.md (e.g. rule-test fixtures) opted out.
    let catalog_path = root.join("METRICS.md");
    if catalog_path.is_file() {
        let catalog = std::fs::read_to_string(&catalog_path).map_err(|source| LintError::Io {
            path: catalog_path,
            source,
        })?;
        diagnostics.extend(semantic::check_metric_names(&files, &catalog));
        diagnostics.extend(semantic::check_metric_usage(&files, &catalog));
    }

    let symbols = callgraph::build_symbols(&files);
    diagnostics.extend(concurrency::analyze(&files, &symbols));

    rules::resolve_suppressions(&mut diagnostics, &mut allows);
    diagnostics.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    Ok(LintReport {
        diagnostics,
        files_scanned: files.len(),
    })
}

/// Lex every `.rs` file under `dir` into [`SourceFile`]s with the given
/// crate classification.
fn load_dir(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    out: &mut Vec<SourceFile>,
) -> Result<(), LintError> {
    let mut paths = Vec::new();
    collect_rs_files(dir, &mut paths)?;
    paths.sort();
    for file in paths {
        let rel = rel_path(root, &file);
        let body = std::fs::read_to_string(&file).map_err(|source| LintError::Io {
            path: file.clone(),
            source,
        })?;
        let tokens = lexer::lex(&body);
        let class = FileClass {
            crate_name: crate_name.to_string(),
            path: rel,
        };
        out.push(SourceFile::new(class, tokens));
    }
    Ok(())
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let rd = std::fs::read_dir(dir).map_err(|source| LintError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|source| LintError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
