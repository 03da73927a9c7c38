//! The rule catalog, the diagnostic type and the test-region scan.
//!
//! Every rule has a stable ID (see [`RULES`]) and produces span-accurate
//! diagnostics; the passes themselves live in `semantic.rs` and
//! `concurrency.rs`. No finding can be waived: a wrong kind map or a stale
//! catalog row is fixed, and a false `lock-order-cycle` is fixed in the
//! code or in the pass (DESIGN.md §9).

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

/// All rule IDs, in reporting order. JSON reports emit a count per entry
/// even when zero, so baselines diff cleanly.
pub const RULES: &[&str] = &[ERROR_KIND, METRIC_NAME, METRIC_UNUSED, LOCK_ORDER];

/// One finding.
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
}

/// Where a scanned file sits in the workspace.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Crate directory name under `crates/` (e.g. `core`).
    pub crate_name: String,
    /// Repo-relative path (e.g. `crates/core/src/ada.rs`).
    pub path: String,
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
