//! Workspace symbol table and call graph for the lock-order pass.
//!
//! Built purely over the lexer's token stream — no type resolution, no
//! macro expansion. The model recovers just enough structure for
//! cross-crate reasoning:
//!
//! * every `fn` item (free function or method) with its body extent and
//!   enclosing `impl` type, so call sites can be resolved to definitions;
//! * call resolution: `self.method(..)` resolves through the enclosing
//!   `impl` block's type (precise), anything else resolves only when the
//!   simple name is defined exactly once in the workspace and is not a
//!   ubiquitous std method name ([`CALL_DENYLIST`]) — an unresolved call
//!   simply propagates nothing, keeping the analysis an
//!   under-approximation on calls rather than inventing false edges.
//!
//! The known over/under-approximations of the whole model are catalogued
//! in DESIGN.md §15.

use crate::lexer::{code_indices, Token, TokenKind};
use crate::rules::FileClass;
use std::collections::BTreeMap;

/// One scanned source file with its derived views, shared by every pass.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace classification (crate, path).
    pub class: FileClass,
    /// The raw token stream.
    pub tokens: Vec<Token>,
    /// Indices of non-comment tokens ("code indices").
    pub code: Vec<usize>,
    /// Per raw-token flag: inside a `#[cfg(test)]` / `#[test]` item.
    pub in_test: Vec<bool>,
}

impl SourceFile {
    /// Build the derived views for one lexed file.
    pub fn new(class: FileClass, tokens: Vec<Token>) -> SourceFile {
        let code = code_indices(&tokens);
        let in_test = crate::rules::test_regions(&tokens);
        SourceFile {
            class,
            tokens,
            code,
            in_test,
        }
    }

    /// The token behind code index `j`.
    pub fn tok(&self, j: usize) -> &Token {
        &self.tokens[self.code[j]]
    }

    /// Text of the token behind code index `j`.
    pub fn txt(&self, j: usize) -> &str {
        self.tok(j).text.as_str()
    }

    /// Is code index `j` the punctuation char `c`?
    pub fn is_p(&self, j: usize, c: char) -> bool {
        j < self.code.len() && self.tok(j).is_punct(c)
    }

    /// Is the token behind code index `j` inside test code?
    pub fn in_test_at(&self, j: usize) -> bool {
        self.in_test[self.code[j]]
    }
}

/// A `fn` item discovered in the workspace.
#[derive(Debug)]
pub struct FnDef {
    /// Simple name (`lock_order` in `fn lock_order(..)`).
    pub name: String,
    /// `Type::name` for methods (from the enclosing `impl`), else `name`.
    pub qual: String,
    /// Index of the defining file in the scanned-file slice.
    pub file: usize,
    /// Code index of the `fn` keyword (signature start).
    pub header: usize,
    /// Code-index range of the body: `Some((open_brace, close_brace))`,
    /// `None` for bodiless trait declarations.
    pub body: Option<(usize, usize)>,
    /// Declared inside test code — excluded from all analysis.
    pub is_test: bool,
}

/// The workspace-wide symbol table.
#[derive(Debug)]
pub struct Symbols {
    /// Every discovered function, in (file, position) order.
    pub functions: Vec<FnDef>,
    /// Simple name → indices into [`Symbols::functions`].
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Qualified name (`Type::name`) → indices into `functions`.
    pub by_qual: BTreeMap<String, Vec<usize>>,
}

/// Method names too ubiquitous to resolve by simple name: std containers
/// and core traits define them everywhere, so a token-level match would
/// wire `map.insert(..)` to whatever workspace type also has an `insert`.
/// `self.method(..)` calls bypass this list (resolved via the impl type).
pub const CALL_DENYLIST: &[&str] = &[
    "new",
    "default",
    "clone",
    "fmt",
    "drop",
    "from",
    "into",
    "as_ref",
    "as_mut",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "next",
    "keys",
    "values",
    "entry",
    "drain",
    "clear",
    "extend",
    "append",
    "take",
    "replace",
    "send",
    "recv",
    "join",
    "lock",
    "read",
    "write",
    "map",
    "and_then",
    "unwrap_or",
    "min",
    "max",
    "count",
    "sum",
    "first",
    "last",
    "eq",
    "cmp",
    "hash",
    "flush",
    "spawn",
];

/// Scan every file and build the symbol table.
pub fn build_symbols(files: &[SourceFile]) -> Symbols {
    let mut functions = Vec::new();
    for (fidx, file) in files.iter().enumerate() {
        let impls = impl_extents(file);
        let n = file.code.len();
        let mut j = 0usize;
        while j + 1 < n {
            if !(file.tok(j).is_ident("fn") && file.tok(j + 1).kind == TokenKind::Ident) {
                j += 1;
                continue;
            }
            let name = file.txt(j + 1).to_string();
            let body = fn_body_extent(file, j + 2);
            let qual = impls
                .iter()
                .rfind(|(s, e, _)| *s < j && j < *e)
                .map(|(_, _, t)| format!("{}::{}", t, name))
                .unwrap_or_else(|| name.clone());
            functions.push(FnDef {
                name,
                qual,
                file: fidx,
                header: j,
                body,
                is_test: file.in_test_at(j),
            });
            j += 2;
        }
    }

    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut by_qual: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, f) in functions.iter().enumerate() {
        by_name.entry(f.name.clone()).or_default().push(i);
        by_qual.entry(f.qual.clone()).or_default().push(i);
    }
    Symbols {
        functions,
        by_name,
        by_qual,
    }
}

/// Resolve a call site to function definitions, or `None` when ambiguous.
///
/// * `self_type`: the enclosing impl type when the call is `self.name(..)`.
/// * Method/free calls otherwise resolve only via a unique, non-denylisted
///   simple name.
pub fn resolve_call(symbols: &Symbols, name: &str, self_type: Option<&str>) -> Option<Vec<usize>> {
    if let Some(ty) = self_type {
        let qual = format!("{}::{}", ty, name);
        if let Some(defs) = symbols.by_qual.get(&qual) {
            return Some(defs.clone());
        }
        return None;
    }
    if CALL_DENYLIST.contains(&name) {
        return None;
    }
    match symbols.by_name.get(name) {
        Some(defs) if defs.len() == 1 => Some(defs.clone()),
        _ => None,
    }
}

/// `(start, end, type_name)` code-index extents of every `impl` block.
fn impl_extents(file: &SourceFile) -> Vec<(usize, usize, String)> {
    let n = file.code.len();
    let mut out = Vec::new();
    let mut j = 0usize;
    while j < n {
        if !file.tok(j).is_ident("impl") {
            j += 1;
            continue;
        }
        let mut k = j + 1;
        if file.is_p(k, '<') {
            k = skip_angles(file, k);
        }
        // Walk the type path; `impl Trait for Type` resets at `for` so the
        // final identifier names the self type.
        let mut ty: Option<String> = None;
        while k < n {
            if file.is_p(k, '{') {
                break;
            }
            if file.tok(k).is_ident("for") {
                ty = None;
            } else if file.tok(k).kind == TokenKind::Ident {
                ty = Some(file.txt(k).to_string());
            } else if file.is_p(k, '<') {
                k = skip_angles(file, k);
                continue;
            }
            k += 1;
        }
        let Some(ty) = ty else {
            j = k + 1;
            continue;
        };
        let end = match matching_brace(file, k) {
            Some(e) => e,
            None => n.saturating_sub(1),
        };
        out.push((k, end, ty));
        j = k + 1; // nested impls (inside fn bodies) are still discovered
    }
    out
}

/// From just after `fn NAME`, find the body braces. Returns `None` for a
/// bodiless declaration (`fn f();` in a trait). Mirrors the item-extent
/// logic in `rules.rs`: the body is the first `{` at zero paren/bracket
/// depth after the signature.
fn fn_body_extent(file: &SourceFile, start: usize) -> Option<(usize, usize)> {
    let n = file.code.len();
    let mut pb = 0i32;
    let mut j = start;
    while j < n {
        if file.is_p(j, '(') || file.is_p(j, '[') {
            pb += 1;
        } else if file.is_p(j, ')') || file.is_p(j, ']') {
            pb -= 1;
        } else if pb == 0 && file.is_p(j, ';') {
            return None;
        } else if pb == 0 && file.is_p(j, '{') {
            let close = matching_brace(file, j)?;
            return Some((j, close));
        }
        j += 1;
    }
    None
}

/// Code index of the `}` matching the `{` at `open`.
pub fn matching_brace(file: &SourceFile, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = open;
    while j < file.code.len() {
        if file.is_p(j, '{') {
            depth += 1;
        } else if file.is_p(j, '}') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        j += 1;
    }
    None
}

/// Code index just past the `>` matching the `<` at `open` (angle
/// brackets in generics; `->` arrows never decrement).
fn skip_angles(file: &SourceFile, open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < file.code.len() {
        if file.is_p(j, '<') {
            depth += 1;
        } else if file.is_p(j, '>') && !(j > 0 && file.is_p(j - 1, '-')) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}
