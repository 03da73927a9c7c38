//! Satellite suite: the full workload-gen → ingest → query pipeline is
//! byte-deterministic under a fixed seed, *including* the parallel paths
//! (frame-parallel decode, splitter pool, per-backend sealing, parallel
//! retrieval).
//!
//! Two independent runs with the same seed must leave byte-identical
//! artifacts on the simulated storage — every dropping and the label
//! file — and deliver byte-identical query
//! results. A different seed must (trivially) diverge, proving the
//! comparison actually looks at bytes.

mod common;

use std::collections::BTreeMap;

use ada_core::{AdaConfig, RetrievedData};
use ada_mdmodel::Tag;
use common::Rig;

fn rig() -> Rig {
    // Both pools on, four workers each whatever the host's width — exactly
    // the paths whose determinism this suite locks in. 2 frames a chunk
    // force the ingest pool and the retrieval through several chunks.
    Rig::new(AdaConfig {
        chunk_frames: 2,
        ingest_threads: 4,
        query_threads: 4,
        ..AdaConfig::paper_prototype("ssd", "hdd")
    })
}

/// Run the whole pipeline for `seed` and dump every artifact byte:
/// `backend-prefixed path → content` for both backends (droppings +
/// label file), plus canonical bytes of each query
/// path's delivered data.
fn artifacts(seed: u64) -> BTreeMap<String, Vec<u8>> {
    let r = rig();
    let w = ada_workload::gpcr_workload(1200, 6, seed);
    r.ada().ingest("bar", common::input(&w)).unwrap();

    let mut out = BTreeMap::new();
    for (name, fs) in [("ssd", &r.ssd), ("hdd", &r.hdd)] {
        for path in fs.list("") {
            let (content, _) = fs.read(&path).unwrap();
            out.insert(format!("{}:{}", name, path), content.bytes().to_vec());
        }
    }
    for (label, tag) in [
        ("query:protein", Some(Tag::protein())),
        ("query:misc", Some(Tag::misc())),
        ("query:full", None),
    ] {
        let q = r.ada().query("bar", tag.as_ref()).unwrap();
        let traj = match q.data {
            RetrievedData::Real(t) => t,
            other => panic!("expected real data, got {:?}", other),
        };
        out.insert(
            label.to_string(),
            ada_mdformats::xtc::write_xtc(&traj, ada_mdformats::xtc::DEFAULT_PRECISION).unwrap(),
        );
    }
    out
}

#[test]
fn same_seed_is_byte_identical_across_runs() {
    let a = artifacts(42);
    let b = artifacts(42);
    // Compare path sets first for a readable failure.
    let pa: Vec<&String> = a.keys().collect();
    let pb: Vec<&String> = b.keys().collect();
    assert_eq!(pa, pb, "artifact path sets diverged between same-seed runs");
    for (path, bytes) in &a {
        assert_eq!(
            bytes, &b[path],
            "artifact {} diverged between same-seed runs",
            path
        );
    }
    // Sanity: the run actually produced droppings and a label, and no
    // PLFS index: the label is the one record, naming every dropping.
    assert!(a.keys().any(|p| p.contains("dropping.data")));
    assert!(
        !a.keys().any(|p| p.ends_with("/index")),
        "a PLFS index file"
    );
    let label = a
        .iter()
        .find(|(p, _)| p.ends_with(".label.json"))
        .map(|(_, bytes)| String::from_utf8_lossy(bytes))
        .expect("a label file");
    for artifact in a.keys().filter(|p| p.contains("dropping.data")) {
        let (_, path) = artifact.split_once(':').unwrap();
        assert!(
            label.contains(&format!("\"{}\"", path)),
            "label misses {}",
            path
        );
    }
}

#[test]
fn different_seed_diverges() {
    let a = artifacts(1);
    let b = artifacts(2);
    assert_ne!(a, b, "different seeds must produce different artifacts");
}
