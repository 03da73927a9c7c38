//! Every project rule catches a seeded violation in the *real* tree.
//!
//! The fixture corpora prove each pass on sources written for it; this
//! suite proves it on the sources it guards. Each case copies the
//! workspace's scanned files (`crates/*/src`, `src`, `examples`,
//! `METRICS.md`) into a temp dir, injects one violation, and expects
//! exactly that rule, at exactly that span, and nothing else — so a rule
//! that stopped firing on the real tree fails here even while its fixture
//! stays green, and so does a copy that is not clean to begin with.

use ada_lint::run_workspace;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

fn copy_rs_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        let dest = to.join(path.file_name().unwrap());
        if path.is_dir() {
            copy_rs_tree(&path, &dest);
        } else if path.extension().is_some_and(|e| e == "rs") {
            std::fs::copy(&path, &dest).unwrap();
        }
    }
}

/// A scratch copy of everything `run_workspace` reads, removed on drop.
struct Tree(PathBuf);

impl Tree {
    fn copy_of_the_workspace(case: &str) -> Tree {
        let root = repo_root();
        let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("real_tree_{}", case));
        let _ = std::fs::remove_dir_all(&tmp);
        for entry in std::fs::read_dir(root.join("crates")).unwrap() {
            let krate = entry.unwrap().path();
            if krate.join("src").is_dir() {
                let name = krate.file_name().unwrap();
                copy_rs_tree(
                    &krate.join("src"),
                    &tmp.join("crates").join(name).join("src"),
                );
            }
        }
        copy_rs_tree(&root.join("src"), &tmp.join("src"));
        copy_rs_tree(&root.join("examples"), &tmp.join("examples"));
        std::fs::copy(root.join("METRICS.md"), tmp.join("METRICS.md")).unwrap();
        Tree(tmp)
    }

    /// The contents of `rel`, which must hold `needle` exactly once.
    fn read_with_one(&self, rel: &str, needle: &str) -> String {
        let body = std::fs::read_to_string(self.0.join(rel)).unwrap();
        assert_eq!(body.matches(needle).count(), 1, "{}: {:?}", rel, needle);
        body
    }

    /// Replace the one occurrence of `anchor` in `rel` with `with`.
    fn replace(&self, rel: &str, anchor: &str, with: &str) {
        let body = self.read_with_one(rel, anchor);
        std::fs::write(self.0.join(rel), body.replace(anchor, with)).unwrap();
    }

    fn append(&self, rel: &str, text: &str) {
        let path = self.0.join(rel);
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::write(path, body + text).unwrap();
    }

    /// 1-based `(line, col)` of the one occurrence of `needle` in `rel`.
    fn locate(&self, rel: &str, needle: &str) -> (u32, u32) {
        let body = self.read_with_one(rel, needle);
        let at = body.find(needle).unwrap();
        let line_start = body[..at].rfind('\n').map_or(0, |nl| nl + 1);
        let line = body[..at].matches('\n').count() + 1;
        let col = body[line_start..at].chars().count() + 1;
        (line as u32, col as u32)
    }

    /// The scan must hold exactly one finding: `rule` in `rel`, at the
    /// start of `needle` plus `skip` columns.
    fn assert_only_finding(&self, rule: &str, rel: &str, needle: &str, skip: u32) {
        let (line, col) = self.locate(rel, needle);
        let report = run_workspace(&self.0).unwrap();
        let got: Vec<(&str, &str, u32, u32)> = report
            .diagnostics
            .iter()
            .map(|d| (d.rule, d.path.as_str(), d.line, d.col))
            .collect();
        assert_eq!(
            got,
            [(rule, rel, line, col + skip)],
            "{:#?}",
            report.diagnostics
        );
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn the_unmodified_copy_is_clean() {
    let tree = Tree::copy_of_the_workspace("clean");
    let report = run_workspace(&tree.0).unwrap();
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
}

/// A new `AdaError` variant that borrows another variant's kind string.
#[test]
fn error_kind_exhaustive_catches_a_shared_kind_in_core() {
    let tree = Tree::copy_of_the_workspace("error_kind");
    let lib = "crates/core/src/lib.rs";
    tree.replace(
        lib,
        "pub enum AdaError {",
        "pub enum AdaError {\n    Seeded,",
    );
    tree.replace(
        lib,
        "            AdaError::Internal(_) => \"internal\",",
        "            AdaError::Internal(_) => \"internal\",\n            \
         AdaError::Seeded => \"internal\",",
    );
    tree.assert_only_finding("error-kind-exhaustive", lib, "Seeded =>", 0);
}

/// A metric emitted in the server under a name the catalog does not hold.
#[test]
fn metric_name_registered_catches_an_uncatalogued_counter_in_server() {
    let tree = Tree::copy_of_the_workspace("metric_name");
    let lib = "crates/server/src/lib.rs";
    tree.append(
        lib,
        "\npub fn seeded() {\n    ada_telemetry::global().counter(\"not.in.catalog\").inc();\n}\n",
    );
    tree.assert_only_finding("metric-name-registered", lib, "\"not.in.catalog\"", 0);
}

/// A catalog row for a name nothing in the tree mentions.
#[test]
fn unregistered_metric_unused_catches_a_stale_catalog_row() {
    let tree = Tree::copy_of_the_workspace("metric_unused");
    tree.append(
        "METRICS.md",
        "\n* `seeded.never_emitted` — a row nothing mentions.\n",
    );
    tree.assert_only_finding(
        "unregistered-metric-unused",
        "METRICS.md",
        "`seeded.never_emitted`",
        0,
    );
}

/// Two functions in `plfs` taking `containers` and a backend lock in
/// opposite orders.
#[test]
fn lock_order_cycle_catches_opposite_orders_in_plfs() {
    let tree = Tree::copy_of_the_workspace("lock_order");
    let file = "crates/plfs/src/container.rs";
    tree.append(
        file,
        "\nstruct Seeded {\n    containers: Mutex<u32>,\n    seeded_backend: Mutex<u32>,\n}\n\n\
         impl Seeded {\n    fn index_then_backend(&self) -> u32 {\n        \
         let index = self.containers.lock();\n        \
         let backend = self.seeded_backend.lock();\n        *index + *backend\n    }\n\n    \
         fn backend_then_index(&self) -> u32 {\n        \
         let backend = self.seeded_backend.lock();\n        \
         let index = self.containers.lock();\n        *index + *backend\n    }\n}\n",
    );
    // Anchored at the first edge's witness: the second lock of the
    // function that takes `containers` first.
    tree.assert_only_finding(
        "lock-order-cycle",
        file,
        "let backend = self.seeded_backend.lock();\n        *index",
        "let backend = self.seeded_backend.".len() as u32,
    );
}
