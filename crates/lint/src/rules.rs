//! The rule catalog and the suppression machinery.
//!
//! Every rule has a stable ID (see [`RULES`]) and produces span-accurate
//! diagnostics; the passes themselves live in `semantic.rs` and
//! `concurrency.rs`. A concurrency finding can be suppressed site by site
//! with `// ada-lint: allow(rule-id) reason` — the reason is mandatory, and
//! the comment must sit on the finding's line or the line directly above
//! it. Unused or malformed suppressions are themselves findings, so
//! annotations cannot rot silently.

use crate::lexer::{Token, TokenKind};

/// `error-kind-exhaustive`: every `AdaError` variant maps to a distinct
/// kind string in `kind()`, with no wildcard arm (see `semantic.rs`).
pub const ERROR_KIND: &str = "error-kind-exhaustive";
/// `metric-name-registered`: every metric/span name literal passed to a
/// telemetry sink (`counter`/`gauge`/`histogram`/`span`/`record`/`root`)
/// must be catalogued in `METRICS.md` (see `semantic.rs`). Skipped when
/// the workspace has no catalog.
pub const METRIC_NAME: &str = "metric-name-registered";
/// `unregistered-metric-unused`: the inverse of [`METRIC_NAME`] — a
/// concrete (dot-separated, non-family) name catalogued in `METRICS.md`
/// that no scanned crate ever emits is stale and must be removed (see
/// `semantic.rs`).
pub const METRIC_UNUSED: &str = "unregistered-metric-unused";
/// `lock-order-cycle`: a cycle in the workspace-wide lock acquisition-order
/// graph (per-function acquisition sets propagated through the call graph);
/// two threads interleaving the witness paths deadlock (see
/// `concurrency.rs`).
pub const LOCK_ORDER: &str = "lock-order-cycle";
/// `no-blocking-under-lock`: a bounded-channel `send`/`recv`, a
/// `JoinHandle::join`, or a scope join while a `Mutex`/`RwLock` guard is
/// live — the classic bounded-channel deadlock shape (see `concurrency.rs`).
pub const NO_BLOCKING: &str = "no-blocking-under-lock";
/// `trace-context-propagated`: every spawn in the instrumented crates must
/// receive or capture a `TraceContext` (directly or via a callee), keeping
/// each request's span tree one connected tree (see `concurrency.rs`).
pub const TRACE_PROP: &str = "trace-context-propagated";
/// `unjoined-spawn`: a spawn whose `JoinHandle` is discarded; the thread
/// outlives supervision and its panics vanish (see `concurrency.rs`).
pub const UNJOINED: &str = "unjoined-spawn";
/// `malformed-allow`: an `ada-lint:` comment that does not parse as
/// `allow(rule-id) reason` (the reason is mandatory).
pub const MALFORMED_ALLOW: &str = "malformed-allow";
/// `unused-allow`: an `allow` comment that suppressed nothing — stale
/// annotations must be deleted, not accumulated.
pub const UNUSED_ALLOW: &str = "unused-allow";

/// All rule IDs, in reporting order. JSON reports emit a count per entry
/// even when zero, so baselines diff cleanly.
pub const RULES: &[&str] = &[
    ERROR_KIND,
    METRIC_NAME,
    METRIC_UNUSED,
    LOCK_ORDER,
    NO_BLOCKING,
    TRACE_PROP,
    UNJOINED,
    MALFORMED_ALLOW,
    UNUSED_ALLOW,
];

/// Rules an `// ada-lint: allow(...)` comment may suppress. The semantic
/// catalog rules are excluded (a wrong kind map or stale catalog is fixed,
/// not waived), as are the meta-rules. The concurrency rules *are*
/// suppressible: the passes over-approximate, and a provably-safe site
/// carries its proof in the mandatory reason string.
pub fn suppressible(rule: &str) -> bool {
    !matches!(
        rule,
        ERROR_KIND | METRIC_NAME | METRIC_UNUSED | MALFORMED_ALLOW | UNUSED_ALLOW
    )
}

/// Crates carrying request-scoped tracing: every spawn there must
/// propagate a `TraceContext` (`trace-context-propagated`).
const INSTRUMENTED_CRATES: &[&str] = &["core", "frontend", "server", "client"];

/// One finding, before or after suppression resolution.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable rule ID from [`RULES`].
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (chars).
    pub col: u32,
    /// Human-readable explanation with the fix direction.
    pub message: String,
    /// `Some(reason)` once an `allow` comment claimed this finding.
    pub suppressed: Option<String>,
}

impl Diagnostic {
    fn new(rule: &'static str, path: &str, tok: &Token, message: String) -> Diagnostic {
        Diagnostic {
            rule,
            path: path.to_string(),
            line: tok.line,
            col: tok.col,
            message,
            suppressed: None,
        }
    }
}

/// A parsed `// ada-lint: allow(rule) reason` directive.
#[derive(Debug)]
pub struct Allow {
    /// Repo-relative path of the file carrying the directive.
    pub path: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// 1-based column of the comment.
    pub col: u32,
    /// The rule it suppresses.
    pub rule: String,
    /// Why the site is safe (mandatory).
    pub reason: String,
    /// Set once the directive has claimed a finding.
    pub used: bool,
}

/// Which per-file rules apply, derived from the file's workspace position.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Crate directory name under `crates/` (e.g. `core`).
    pub crate_name: String,
    /// Repo-relative path (e.g. `crates/core/src/ada.rs`).
    pub path: String,
}

impl FileClass {
    /// Does the trace-propagation pass apply to this file's crate?
    pub(crate) fn is_instrumented(&self) -> bool {
        INSTRUMENTED_CRATES.contains(&self.crate_name.as_str())
    }
}

/// Resolve suppressions across the whole workspace: an allow covers
/// findings of its rule, in its file, on its own line or the line directly
/// below (i.e. a standalone comment above the offending line, or a trailing
/// comment on it). Afterwards, every unused allow becomes an
/// `unused-allow` finding. Diagnostics are matched in (path, line, col)
/// order, so resolution is deterministic.
pub fn resolve_suppressions(diags: &mut Vec<Diagnostic>, allows: &mut [Allow]) {
    diags.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    for d in diags.iter_mut() {
        if !suppressible(d.rule) {
            continue;
        }
        for a in allows.iter_mut() {
            if a.rule == d.rule && a.path == d.path && (a.line == d.line || a.line + 1 == d.line) {
                d.suppressed = Some(a.reason.clone());
                a.used = true;
                break;
            }
        }
    }
    for a in allows.iter() {
        if !a.used {
            diags.push(Diagnostic {
                rule: UNUSED_ALLOW,
                path: a.path.clone(),
                line: a.line,
                col: a.col,
                message: format!(
                    "allow({}) suppresses nothing on this or the next line; delete it",
                    a.rule
                ),
                suppressed: None,
            });
        }
    }
}

/// Mark every token that lives inside `#[cfg(test)]` / `#[test]` items.
///
/// The scan walks attributes; when one is a test marker it brackets the
/// following item (through its `{ … }` body or terminating `;`) and marks
/// the token range. `cfg(any(test, …))` counts: any `test` ident inside a
/// `cfg` attribute marks the item.
pub(crate) fn test_regions(tokens: &[Token]) -> Vec<bool> {
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let mut marked = vec![false; tokens.len()];
    let is_p = |j: usize, c: char| {
        tokens[code[j]].kind == TokenKind::Punct && tokens[code[j]].text.starts_with(c)
    };

    let mut j = 0usize;
    while j < code.len() {
        if !(is_p(j, '#') && j + 1 < code.len() && is_p(j + 1, '[')) {
            j += 1;
            continue;
        }
        // Find the attribute's closing `]`.
        let mut depth = 0i32;
        let mut end = j + 1;
        while end < code.len() {
            if is_p(end, '[') {
                depth += 1;
            } else if is_p(end, ']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            end += 1;
        }
        if end >= code.len() {
            break; // unterminated attribute; nothing more to mark
        }
        let content: Vec<&str> = code[j + 2..end]
            .iter()
            .map(|&i| tokens[i].text.as_str())
            .collect();
        let is_test_attr = content.as_slice() == ["test"]
            || (content.first() == Some(&"cfg")
                && content.iter().enumerate().any(|(i, t)| {
                    // `test` counts unless negated as `not(test)`.
                    *t == "test" && !(i >= 2 && content[i - 2] == "not")
                }));
        if is_test_attr {
            if let Some(item_end) = item_extent(tokens, &code, end + 1) {
                let from = code[j];
                let to = code[item_end];
                for slot in marked.iter_mut().take(to + 1).skip(from) {
                    *slot = true;
                }
            }
        }
        j = end + 1;
    }
    marked
}

/// From code index `start` (just after a test attribute), find the code
/// index of the token that ends the annotated item: the `}` matching its
/// first body brace, or a `;` reached before any brace. Skips stacked
/// attributes and ignores braces nested in `(…)` / `[…]` (e.g. default
/// expressions) while searching for the body.
fn item_extent(tokens: &[Token], code: &[usize], start: usize) -> Option<usize> {
    let is_p = |j: usize, c: char| {
        tokens[code[j]].kind == TokenKind::Punct && tokens[code[j]].text.starts_with(c)
    };
    let mut j = start;
    // Skip further attributes (`#[…]`) stacked on the same item.
    while j + 1 < code.len() && is_p(j, '#') && is_p(j + 1, '[') {
        let mut depth = 0i32;
        j += 1;
        while j < code.len() {
            if is_p(j, '[') {
                depth += 1;
            } else if is_p(j, ']') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    // Find the item body `{` (at zero paren/bracket depth) or a `;`.
    let mut pb = 0i32;
    while j < code.len() {
        if is_p(j, '(') || is_p(j, '[') {
            pb += 1;
        } else if is_p(j, ')') || is_p(j, ']') {
            pb -= 1;
        } else if pb == 0 && is_p(j, ';') {
            return Some(j);
        } else if pb == 0 && is_p(j, '{') {
            let mut depth = 0i32;
            while j < code.len() {
                if is_p(j, '{') {
                    depth += 1;
                } else if is_p(j, '}') {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j);
                    }
                }
                j += 1;
            }
            return Some(code.len() - 1);
        }
        j += 1;
    }
    None
}

/// Extract `ada-lint: allow(rule) reason` directives from comments; emit
/// `malformed-allow` diagnostics for ones that don't parse or lack a reason.
pub(crate) fn parse_allows(class: &FileClass, tokens: &[Token]) -> (Vec<Allow>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut diags = Vec::new();
    for t in tokens {
        if !t.is_comment() {
            continue;
        }
        // Doc comments document the syntax; only plain comments carry
        // directives.
        let is_doc = ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|p| t.text.starts_with(p));
        if is_doc {
            continue;
        }
        let Some(pos) = t.text.find("ada-lint:") else {
            continue;
        };
        let rest = t.text[pos + "ada-lint:".len()..].trim_start();
        let parsed = rest.strip_prefix("allow").and_then(|r| {
            let r = r.trim_start();
            let r = r.strip_prefix('(')?;
            let close = r.find(')')?;
            let rule = r[..close].trim().to_string();
            let reason = r[close + 1..]
                .trim()
                .trim_start_matches([':', '-', '—'])
                .trim()
                .trim_end_matches("*/")
                .trim()
                .to_string();
            Some((rule, reason))
        });
        match parsed {
            Some((rule, reason)) if RULES.contains(&rule.as_str()) && !reason.is_empty() => {
                allows.push(Allow {
                    path: class.path.clone(),
                    line: t.line,
                    col: t.col,
                    rule,
                    reason,
                    used: false,
                });
            }
            Some((rule, reason)) => {
                let why = if !RULES.contains(&rule.as_str()) {
                    format!("unknown rule '{}'", rule)
                } else if reason.is_empty() {
                    "missing reason — every allow must say why the site is safe".to_string()
                } else {
                    "unparsable directive".to_string()
                };
                diags.push(Diagnostic::new(
                    MALFORMED_ALLOW,
                    &class.path,
                    t,
                    format!("bad ada-lint directive: {}", why),
                ));
            }
            None => {
                diags.push(Diagnostic::new(
                    MALFORMED_ALLOW,
                    &class.path,
                    t,
                    "bad ada-lint directive: expected `ada-lint: allow(rule-id) reason`"
                        .to_string(),
                ));
            }
        }
    }
    (allows, diags)
}
