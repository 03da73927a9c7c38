//! Cross-file semantic passes: `error-kind-exhaustive` and
//! `metric-name-registered`.
//!
//! Telemetry counts failures as `ada.{op}.err.{kind}`, so `AdaError::kind()`
//! is load-bearing: every variant must map to its *own* stable kind string.
//! The compiler guarantees the match covers every variant only while nobody
//! writes a `_ =>` arm — and it never checks distinctness. This pass walks
//! the tokens of `crates/core` (wherever the enum and impl live), recovers
//! the variant list and the `kind()` arm list, and flags:
//!
//! * a variant with no arm in `kind()` (only possible via a wildcard),
//! * two variants sharing one kind string,
//! * a `_ =>` wildcard arm, which would let future variants silently alias,
//! * a missing enum or missing `kind()` (configuration rot).
//!
//! These diagnostics are **not** suppressible: a wrong kind map silently
//! corrupts error-rate telemetry, so there is no safe reason to allow it.
//!
//! The second pass, [`check_metric_names`], keeps `METRICS.md` the single
//! source of truth for the observability vocabulary: every string literal
//! handed to a telemetry sink (`counter`/`gauge`/`histogram`/`span`/
//! `record`/`root`/`root_remote`) must appear backtick-quoted in the
//! catalog. Dynamically built names (`format!`
//! families) are invisible to the pass and are documented in the
//! catalog's prose instead. Like the kind pass, findings here are not
//! suppressible — an uncatalogued name is fixed by registering it.
//!
//! The third pass, [`check_metric_usage`], is the inverse: a *concrete*
//! catalogued name (dot-separated, not a `{…}` family) that no scanned
//! crate ever mentions in a string literal is stale and flagged at its
//! position in `METRICS.md`, so the catalog cannot drift ahead of the
//! code. Also not suppressible — a dead entry is deleted, not waived.

use crate::callgraph::SourceFile;
use crate::lexer::{Token, TokenKind};
use crate::rules::{Diagnostic, ERROR_KIND, METRIC_NAME, METRIC_UNUSED};
use std::collections::BTreeSet;

/// Name of the error enum whose `kind()` map is checked.
pub const ERROR_ENUM: &str = "AdaError";

/// A parsed `kind()` arm: variant name → kind string.
#[derive(Debug)]
struct KindArm {
    variant: String,
    kind: String,
    line: u32,
    col: u32,
}

/// Run the pass over the scanned files. The enum and its `kind()` map live
/// in `crates/core` today; `frontend` (admission-control variants' call
/// sites), `cache`, and the wire-protocol crates (`proto` carries the
/// structural error codec, `server`/`client` its endpoints) are scanned
/// too so the pass keeps working if any of them ever hosts them.
/// Workspaces with none of those crates (rule-test fixtures) have nothing
/// to check.
pub fn check_error_kinds(files: &[SourceFile]) -> Vec<Diagnostic> {
    let scope: Vec<&SourceFile> = files
        .iter()
        .filter(|f| {
            matches!(
                f.class.crate_name.as_str(),
                "core" | "frontend" | "cache" | "proto" | "server" | "client"
            )
        })
        .collect();
    if scope.is_empty() {
        return Vec::new();
    }
    let mut diags = Vec::new();

    let enum_site = scope
        .iter()
        .find_map(|f| find_enum_variants(&f.tokens).map(|v| (f.class.path.as_str(), v)));
    let kind_site = scope
        .iter()
        .find_map(|f| find_kind_arms(&f.tokens).map(|v| (f.class.path.as_str(), v)));

    let (enum_path, variants) = match enum_site {
        Some(site) => site,
        None => {
            diags.push(at(
                "crates/core",
                1,
                1,
                format!(
                    "enum {} not found in crates/core — the error-kind pass has nothing to check",
                    ERROR_ENUM
                ),
            ));
            return diags;
        }
    };
    let (kind_path, arms) = match kind_site {
        Some(site) => site,
        None => {
            diags.push(at(
                enum_path,
                1,
                1,
                format!(
                    "{}::kind() not found — telemetry cannot classify errors without it",
                    ERROR_ENUM
                ),
            ));
            return diags;
        }
    };

    // Every variant must have an arm.
    for (variant, line, col) in &variants {
        if variant == "_" {
            continue;
        }
        if !arms.iter().any(|a| &a.variant == variant) {
            diags.push(at(
                enum_path,
                *line,
                *col,
                format!(
                    "{}::{} has no arm in kind(); every variant needs its own kind string",
                    ERROR_ENUM, variant
                ),
            ));
        }
    }

    // Kind strings must be pairwise distinct.
    for (i, a) in arms.iter().enumerate() {
        if let Some(b) = arms[..i].iter().find(|b| b.kind == a.kind) {
            diags.push(at(
                kind_path,
                a.line,
                a.col,
                format!(
                    "kind \"{}\" is reused by {}::{} and {}::{}; telemetry would merge their \
                     error rates",
                    a.kind, ERROR_ENUM, b.variant, ERROR_ENUM, a.variant
                ),
            ));
        }
    }

    // No wildcard arm.
    for a in &arms {
        if a.variant == "_" {
            diags.push(at(
                kind_path,
                a.line,
                a.col,
                "wildcard `_ =>` arm in kind(); new variants would silently alias an existing \
                 kind instead of failing the build"
                    .to_string(),
            ));
        }
    }

    diags
}

/// Idents that record a metric or span when called with a string-literal
/// first argument: registry sinks (`counter`/`gauge`/`histogram`), trace
/// span openers (`span`/`root`/`root_remote`), and the pre-measured span
/// recorder (`record`).
const METRIC_SINKS: &[&str] = &[
    "counter",
    "gauge",
    "histogram",
    "span",
    "record",
    "root",
    "root_remote",
];

/// Run the metric-name pass over every scanned file, against the
/// backtick-quoted names registered in `catalog` (the text of
/// `METRICS.md`). Test code is exempt (tests mint throwaway names).
pub fn check_metric_names(files: &[SourceFile], catalog: &str) -> Vec<Diagnostic> {
    let registered = catalog_names(catalog);
    let mut diags = Vec::new();
    for file in files {
        for j in 0..file.code.len() {
            let t = file.tok(j);
            if t.kind != TokenKind::Ident
                || file.in_test_at(j)
                || !METRIC_SINKS.contains(&t.text.as_str())
            {
                continue;
            }
            // `(`, then a string literal.
            if !file.is_p(j + 1, '(') {
                continue;
            }
            let k = j + 2;
            if !(k < file.code.len() && file.tok(k).kind == TokenKind::Str) {
                continue;
            }
            let lit = file.tok(k);
            let name = lit
                .text
                .trim_start_matches('r')
                .trim_matches('#')
                .trim_matches('"');
            if !registered.contains(name) {
                diags.push(Diagnostic {
                    rule: METRIC_NAME,
                    path: file.class.path.clone(),
                    line: lit.line,
                    col: lit.col,
                    message: format!(
                        "metric/span name \"{}\" is not registered in METRICS.md; add it to the \
                         catalog (or rename to a registered family)",
                        name
                    ),
                    suppressed: None,
                });
            }
        }
    }
    diags
}

/// The inverse catalog pass: flag concrete catalogued names nothing emits.
///
/// A catalog entry is *concrete* when it looks like a metric name rather
/// than prose or a dynamic family: it contains a `.` and none of `{`,
/// space, `/`, `(`, `:` (those mark `{op}` families, file names, command
/// lines, and prose backticks). A concrete name counts as used when any
/// string literal in any scanned file — tests included, since helper
/// literals and assertions keep names alive — contains it as a substring;
/// the substring match also keeps prefixes of `format!`-built names alive.
pub fn check_metric_usage(files: &[SourceFile], catalog: &str) -> Vec<Diagnostic> {
    // First occurrence of each concrete name, with its 1-based span in the
    // catalog (anchored at the opening backtick).
    let mut entries: Vec<(&str, u32, u32)> = Vec::new();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for (lineno, line) in catalog.lines().enumerate() {
        let mut rest = line;
        let mut consumed = 0usize; // chars consumed from the line so far
        while let Some(open) = rest.find('`') {
            let open_col = consumed + rest[..open].chars().count() + 1;
            rest = &rest[open + 1..];
            consumed = open_col; // backtick itself is one char
            let Some(close) = rest.find('`') else { break };
            let name = &rest[..close];
            let concrete = name.contains('.')
                && !name.contains('{')
                && !name.contains(' ')
                && !name.contains('/')
                && !name.contains('(')
                && !name.contains(':');
            if concrete && seen.insert(name) {
                entries.push((name, (lineno + 1) as u32, open_col as u32));
            }
            consumed += name.chars().count() + 1;
            rest = &rest[close + 1..];
        }
    }
    entries
        .into_iter()
        .filter(|(name, _, _)| {
            !files.iter().any(|f| {
                f.tokens
                    .iter()
                    .any(|t| t.kind == TokenKind::Str && t.text.contains(name))
            })
        })
        .map(|(name, line, col)| Diagnostic {
            rule: METRIC_UNUSED,
            path: "METRICS.md".to_string(),
            line,
            col,
            message: format!(
                "catalogued metric/span name `{}` is never emitted by any scanned crate; the \
                 catalog has drifted — delete the stale entry (or wire up the emitter)",
                name
            ),
            suppressed: None,
        })
        .collect()
}

/// Every backtick-quoted name in the catalog. Names containing `{` are
/// dynamic-family *documentation* and never match a literal, but keeping
/// them out of the set costs nothing and keeps intent explicit.
fn catalog_names(catalog: &str) -> BTreeSet<&str> {
    let mut names = BTreeSet::new();
    let mut rest = catalog;
    while let Some(open) = rest.find('`') {
        rest = &rest[open + 1..];
        let Some(close) = rest.find('`') else { break };
        let name = &rest[..close];
        if !name.is_empty() && !name.contains('{') {
            names.insert(name);
        }
        rest = &rest[close + 1..];
    }
    names
}

fn at(path: &str, line: u32, col: u32, message: String) -> Diagnostic {
    Diagnostic {
        rule: ERROR_KIND,
        path: path.to_string(),
        line,
        col,
        message,
        suppressed: None,
    }
}

/// Find `enum AdaError { … }` and return its variant names with spans.
fn find_enum_variants(tokens: &[Token]) -> Option<Vec<(String, u32, u32)>> {
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let is_p = |j: usize, c: char| {
        tokens[code[j]].kind == TokenKind::Punct && tokens[code[j]].text.starts_with(c)
    };
    let txt = |j: usize| tokens[code[j]].text.as_str();

    let mut j = 0usize;
    let start = loop {
        if j + 2 >= code.len() {
            return None;
        }
        if txt(j) == "enum" && txt(j + 1) == ERROR_ENUM && is_p(j + 2, '{') {
            break j + 3;
        }
        j += 1;
    };

    let mut variants = Vec::new();
    let mut expect_variant = true;
    let mut j = start;
    let mut depth = 1i32; // inside the enum's `{`
    while j < code.len() && depth > 0 {
        if is_p(j, '{') || is_p(j, '(') || is_p(j, '[') {
            depth += 1;
        } else if is_p(j, '}') || is_p(j, ')') || is_p(j, ']') {
            depth -= 1;
        } else if depth == 1 {
            if is_p(j, ',') {
                expect_variant = true;
            } else if is_p(j, '#') {
                // attribute on the next variant; skip its [...] group
            } else if expect_variant && tokens[code[j]].kind == TokenKind::Ident {
                let t = &tokens[code[j]];
                variants.push((t.text.clone(), t.line, t.col));
                expect_variant = false;
            }
        }
        j += 1;
    }
    Some(variants)
}

/// Find `fn kind(…) { … match … { arms } }` and parse `AdaError::Variant`
/// (or `_`) patterns with the string literal each arm returns.
fn find_kind_arms(tokens: &[Token]) -> Option<Vec<KindArm>> {
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let is_p = |j: usize, c: char| {
        tokens[code[j]].kind == TokenKind::Punct && tokens[code[j]].text.starts_with(c)
    };
    let txt = |j: usize| tokens[code[j]].text.as_str();

    // Locate `fn kind`.
    let mut j = 0usize;
    let fn_at = loop {
        if j + 1 >= code.len() {
            return None;
        }
        if txt(j) == "fn" && txt(j + 1) == "kind" {
            break j;
        }
        j += 1;
    };

    // Find the `match` keyword, then its `{`.
    let mut j = fn_at;
    while j < code.len() && txt(j) != "match" {
        j += 1;
    }
    while j < code.len() && !is_p(j, '{') {
        j += 1;
    }
    if j >= code.len() {
        return None;
    }

    let mut arms = Vec::new();
    let mut depth = 1i32;
    let mut pending: Vec<(String, u32, u32)> = Vec::new();
    let mut k = j + 1;
    while k < code.len() && depth > 0 {
        if is_p(k, '{') || is_p(k, '(') || is_p(k, '[') {
            depth += 1;
        } else if is_p(k, '}') || is_p(k, ')') || is_p(k, ']') {
            depth -= 1;
        } else if depth == 1 {
            if txt(k) == ERROR_ENUM
                && k + 3 < code.len()
                && is_p(k + 1, ':')
                && is_p(k + 2, ':')
                && tokens[code[k + 3]].kind == TokenKind::Ident
            {
                let t = &tokens[code[k + 3]];
                pending.push((t.text.clone(), t.line, t.col));
                k += 4;
                continue;
            }
            if txt(k) == "_" && k + 1 < code.len() && is_p(k + 1, '=') {
                let t = &tokens[code[k]];
                pending.push(("_".to_string(), t.line, t.col));
            }
            if is_p(k, '=') && k + 1 < code.len() && is_p(k + 1, '>') {
                // Arm body: record the string literal it yields, if any.
                if k + 2 < code.len() && tokens[code[k + 2]].kind == TokenKind::Str {
                    let lit = &tokens[code[k + 2]].text;
                    let kind = lit.trim_matches('"').to_string();
                    for (variant, line, col) in pending.drain(..) {
                        arms.push(KindArm {
                            variant,
                            kind: kind.clone(),
                            line,
                            col,
                        });
                    }
                } else {
                    pending.clear();
                }
                k += 2;
                continue;
            }
        }
        k += 1;
    }
    Some(arms)
}
