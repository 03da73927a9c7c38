//! The concurrency pass: `lock-order-cycle`.
//!
//! It runs over the symbol table from [`crate::callgraph`] plus a
//! per-function *guard-liveness walk*: a linear scan of each function body
//! that tracks which lock guards are live at every token. The model
//! (DESIGN.md §15):
//!
//! * `let g = x.lock();` binds a guard that lives to the end of its
//!   enclosing `{ … }` block or an explicit `drop(g)`;
//! * a chained acquisition (`x.lock().len()`) creates a *temporary* guard
//!   live only for the rest of the statement;
//! * `.lock()` counts on a named receiver (except `stdout`/`stderr`/
//!   `stdin`); `self.lock()` and `f().lock()` name no lock and are not
//!   tracked, since a merged anonymous node would fabricate cycles.
//!
//! Lock identity is the receiver *field/static name*, workspace-wide: two
//! types with a field `state` share one graph node. That over-approximates
//! (a cross-type alias could fabricate an edge) but never under-approximates
//! within one type, and it is what makes the analysis cross-crate without
//! type resolution.

use crate::callgraph::{resolve_call, FnDef, SourceFile, Symbols};
use crate::lexer::TokenKind;
use crate::rules::{Diagnostic, LOCK_ORDER};
use std::collections::{BTreeMap, BTreeSet};

/// A lock acquisition observed in a function body.
#[derive(Debug)]
struct Acq {
    /// Lock identity (receiver field name).
    lock: String,
    /// Locks already held when this one is taken.
    held: Vec<String>,
    /// Code index of the `lock` ident.
    tok: usize,
}

/// A resolved call site.
#[derive(Debug)]
struct Call {
    /// Index of the callee in [`Symbols::functions`].
    callee: usize,
    /// Locks held at the call.
    held: Vec<String>,
    /// Code index of the callee ident.
    tok: usize,
}

/// Everything the walk learns about one function.
#[derive(Debug, Default)]
struct FnFacts {
    direct_locks: BTreeSet<String>,
    acquisitions: Vec<Acq>,
    calls: Vec<Call>,
}

/// Identifiers never treated as workspace call sites even when followed by
/// `(`: control keywords, `drop`, and the std thread, channel and lock
/// methods.
const NOT_CALLS: &[&str] = &[
    "if",
    "while",
    "for",
    "match",
    "loop",
    "return",
    "fn",
    "in",
    "as",
    "move",
    "drop",
    "spawn",
    "scope",
    "lock",
    "read",
    "write",
    "send",
    "recv",
    "recv_timeout",
    "join",
    "Some",
    "Ok",
    "Err",
];

/// Run the lock-order pass and return its diagnostics.
pub fn analyze(files: &[SourceFile], symbols: &Symbols) -> Vec<Diagnostic> {
    let facts: Vec<FnFacts> = symbols
        .functions
        .iter()
        .map(|f| match f.body {
            Some(body) if !f.is_test => walk_fn(&files[f.file], f, body, symbols),
            _ => FnFacts::default(),
        })
        .collect();

    // Transitive lock-acquisition sets over the call graph, to a fixpoint.
    let mut trans: Vec<BTreeSet<String>> = facts.iter().map(|f| f.direct_locks.clone()).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..facts.len() {
            for c in 0..facts[i].calls.len() {
                let callee = facts[i].calls[c].callee;
                if callee == i {
                    continue;
                }
                let add: Vec<String> = trans[callee]
                    .iter()
                    .filter(|l| !trans[i].contains(*l))
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    trans[i].extend(add);
                    changed = true;
                }
            }
        }
    }

    lock_order_pass(files, symbols, &facts, &trans)
}

/// One edge in the acquisition-order graph, with its first witness.
#[derive(Debug)]
struct EdgeInfo {
    witness: String,
    path: String,
    line: u32,
    col: u32,
}

fn lock_order_pass(
    files: &[SourceFile],
    symbols: &Symbols,
    facts: &[FnFacts],
    trans: &[BTreeSet<String>],
) -> Vec<Diagnostic> {
    let mut edges: BTreeMap<(String, String), EdgeInfo> = BTreeMap::new();
    for (i, f) in symbols.functions.iter().enumerate() {
        let file = &files[f.file];
        for a in &facts[i].acquisitions {
            for h in &a.held {
                let t = file.tok(a.tok);
                edges
                    .entry((h.clone(), a.lock.clone()))
                    .or_insert_with(|| EdgeInfo {
                        witness: format!(
                            "{} acquires `{}` while holding `{}` ({}:{}:{})",
                            f.qual, a.lock, h, file.class.path, t.line, t.col
                        ),
                        path: file.class.path.clone(),
                        line: t.line,
                        col: t.col,
                    });
            }
        }
        for c in &facts[i].calls {
            let callee = &symbols.functions[c.callee];
            for h in &c.held {
                for l in &trans[c.callee] {
                    let t = file.tok(c.tok);
                    edges
                        .entry((h.clone(), l.clone()))
                        .or_insert_with(|| EdgeInfo {
                            witness: format!(
                                "{} calls {} (which acquires `{}`) while holding `{}` ({}:{}:{})",
                                f.qual, callee.qual, l, h, file.class.path, t.line, t.col
                            ),
                            path: file.class.path.clone(),
                            line: t.line,
                            col: t.col,
                        });
                }
            }
        }
    }

    let mut diags = Vec::new();
    for scc in strongly_connected(&edges) {
        let in_cycle = scc.len() > 1 || edges.contains_key(&(scc[0].clone(), scc[0].clone()));
        if !in_cycle {
            continue;
        }
        let set: BTreeSet<&String> = scc.iter().collect();
        let cycle_edges: Vec<&EdgeInfo> = edges
            .iter()
            .filter(|((a, b), _)| set.contains(a) && set.contains(b))
            .map(|(_, e)| e)
            .collect();
        let first = cycle_edges[0];
        let witnesses: Vec<&str> = cycle_edges.iter().map(|e| e.witness.as_str()).collect();
        diags.push(Diagnostic {
            rule: LOCK_ORDER,
            path: first.path.clone(),
            line: first.line,
            col: first.col,
            message: format!(
                "lock acquisition cycle across {}: {} — two threads interleaving these paths \
                 deadlock; pick one global acquisition order (DESIGN.md §15)",
                scc.iter()
                    .map(|l| format!("`{}`", l))
                    .collect::<Vec<_>>()
                    .join(", "),
                witnesses.join("; ")
            ),
        });
    }
    diags
}

/// `Type` for a method (`Type::name`), `None` for a free function.
fn self_type_of(f: &FnDef) -> Option<&str> {
    if f.qual == f.name {
        None
    } else {
        f.qual.split("::").next()
    }
}

/// The guard-liveness walk over one function body.
fn walk_fn(file: &SourceFile, f: &FnDef, body: (usize, usize), symbols: &Symbols) -> FnFacts {
    let (open, close) = body;
    let mut facts = FnFacts::default();
    // Nested `fn` items get their own walk; skip their extent here so their
    // guards are not attributed to the enclosing function.
    let nested: Vec<(usize, usize)> = symbols
        .functions
        .iter()
        .filter(|g| g.file == f.file && g.header > open && g.header < close)
        .map(|g| (g.header, g.body.map(|(_, e)| e).unwrap_or(g.header)))
        .collect();

    // One Vec of guards per live `{}` scope; `(lock, binder)`.
    let mut scopes: Vec<Vec<(String, Option<String>)>> = vec![Vec::new()];
    // Temporary guards from chained acquisitions, live to end of statement.
    let mut temps: Vec<String> = Vec::new();
    let self_type = self_type_of(f);

    let mut j = open + 1;
    while j < close {
        if let Some(&(_, ne)) = nested.iter().find(|&&(ns, _)| ns == j) {
            j = ne + 1;
            continue;
        }
        if file.is_p(j, '{') {
            scopes.push(Vec::new());
            temps.clear();
            j += 1;
            continue;
        }
        if file.is_p(j, '}') {
            scopes.pop();
            temps.clear();
            j += 1;
            continue;
        }
        if file.is_p(j, ';') {
            temps.clear();
            j += 1;
            continue;
        }
        let t = file.tok(j);
        if t.kind != TokenKind::Ident {
            j += 1;
            continue;
        }
        let name = t.text.as_str();
        let prev_dot = j > 0 && file.is_p(j - 1, '.');
        let next_open = file.is_p(j + 1, '(');

        // --- lock acquisition on a named receiver ---------------------------
        if prev_dot && name == "lock" && next_open && file.is_p(j + 2, ')') && j >= 2 {
            let recv = file.tok(j - 2);
            if recv.kind == TokenKind::Ident
                && !matches!(recv.text.as_str(), "self" | "stdout" | "stderr" | "stdin")
            {
                let lock = recv.text.clone();
                let held = held_locks(&scopes, &temps);
                facts.acquisitions.push(Acq {
                    lock: lock.clone(),
                    held,
                    tok: j,
                });
                facts.direct_locks.insert(lock.clone());
                match binding_of(file, open, j, j + 2) {
                    Some(binder) => {
                        if let Some(top) = scopes.last_mut() {
                            top.push((lock, Some(binder)));
                        }
                    }
                    None => temps.push(lock),
                }
                j += 3;
                continue;
            }
        }

        // --- explicit guard drop -----------------------------------------
        if name == "drop"
            && next_open
            && file.tok(j + 2).kind == TokenKind::Ident
            && file.is_p(j + 3, ')')
        {
            let binder = file.txt(j + 2).to_string();
            for sc in scopes.iter_mut() {
                sc.retain(|(_, b)| b.as_deref() != Some(binder.as_str()));
            }
            j += 4;
            continue;
        }

        // --- resolved calls -----------------------------------------------
        if next_open && !NOT_CALLS.contains(&name) && !(j > 0 && file.tok(j - 1).is_ident("fn")) {
            let self_call = prev_dot && j >= 2 && file.tok(j - 2).is_ident("self");
            let st = if self_call { self_type } else { None };
            if let Some(defs) = resolve_call(symbols, name, st) {
                let held = held_locks(&scopes, &temps);
                for d in defs {
                    if !symbols.functions[d].is_test {
                        facts.calls.push(Call {
                            callee: d,
                            held: held.clone(),
                            tok: j,
                        });
                    }
                }
            }
        }
        j += 1;
    }
    facts
}

/// If the statement containing the acquisition is `let [mut] NAME = …;`
/// and the acquisition's call is the statement's final expression (next
/// token after `()` is `;`), return NAME — a bound guard. Anything else
/// (chained call, destructuring, expression position) is a temporary.
fn binding_of(file: &SourceFile, body_open: usize, j: usize, close_paren: usize) -> Option<String> {
    if !file.is_p(close_paren + 1, ';') {
        return None;
    }
    let mut k = j;
    while k > body_open + 1
        && !(file.is_p(k - 1, ';') || file.is_p(k - 1, '{') || file.is_p(k - 1, '}'))
    {
        k -= 1;
    }
    if !file.tok(k).is_ident("let") {
        return None;
    }
    let mut b = k + 1;
    if file.tok(b).is_ident("mut") {
        b += 1;
    }
    if file.tok(b).kind == TokenKind::Ident && file.is_p(b + 1, '=') {
        Some(file.txt(b).to_string())
    } else {
        None
    }
}

/// All live lock names, bound guards then temporaries, deduplicated.
fn held_locks(scopes: &[Vec<(String, Option<String>)>], temps: &[String]) -> Vec<String> {
    let mut set = BTreeSet::new();
    for sc in scopes {
        for (lock, _) in sc {
            set.insert(lock.clone());
        }
    }
    for lock in temps {
        set.insert(lock.clone());
    }
    set.into_iter().collect()
}

/// Tarjan's strongly-connected components over the acquisition-order
/// graph. Returns each component as a sorted list of lock names, in
/// deterministic (sorted-by-first-node) order.
fn strongly_connected(edges: &BTreeMap<(String, String), EdgeInfo>) -> Vec<Vec<String>> {
    let mut nodes: BTreeSet<&String> = BTreeSet::new();
    for (a, b) in edges.keys() {
        nodes.insert(a);
        nodes.insert(b);
    }
    let index_of: BTreeMap<&String, usize> =
        nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let names: Vec<&String> = nodes.into_iter().collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
    for (a, b) in edges.keys() {
        adj[index_of[a]].push(index_of[b]);
    }

    struct Tarjan<'a> {
        adj: &'a [Vec<usize>],
        index: Vec<Option<usize>>,
        low: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: usize,
        out: Vec<Vec<usize>>,
    }
    impl Tarjan<'_> {
        fn visit(&mut self, v: usize) {
            self.index[v] = Some(self.next);
            self.low[v] = self.next;
            self.next += 1;
            self.stack.push(v);
            self.on_stack[v] = true;
            for wi in 0..self.adj[v].len() {
                let w = self.adj[v][wi];
                if self.index[w].is_none() {
                    self.visit(w);
                    self.low[v] = self.low[v].min(self.low[w]);
                } else if self.on_stack[w] {
                    if let Some(iw) = self.index[w] {
                        self.low[v] = self.low[v].min(iw);
                    }
                }
            }
            if Some(self.low[v]) == self.index[v] {
                let mut comp = Vec::new();
                while let Some(w) = self.stack.pop() {
                    self.on_stack[w] = false;
                    comp.push(w);
                    if w == v {
                        break;
                    }
                }
                self.out.push(comp);
            }
        }
    }
    let mut t = Tarjan {
        adj: &adj,
        index: vec![None; names.len()],
        low: vec![0; names.len()],
        on_stack: vec![false; names.len()],
        stack: Vec::new(),
        next: 0,
        out: Vec::new(),
    };
    for v in 0..names.len() {
        if t.index[v].is_none() {
            t.visit(v);
        }
    }
    let mut comps: Vec<Vec<String>> = t
        .out
        .into_iter()
        .map(|mut c| {
            c.sort_unstable();
            c.into_iter().map(|i| names[i].clone()).collect()
        })
        .collect();
    comps.sort();
    comps
}
