//! Satellite suite: the full workload-gen → ingest → query pipeline is
//! byte-deterministic under a fixed seed, *including* the parallel paths
//! (frame-parallel decode, splitter pool, per-backend sealing, parallel
//! retrieval).
//!
//! Two independent runs with the same seed must leave byte-identical
//! artifacts on the simulated storage — every dropping, the persisted
//! PLFS index, and the label file — and deliver byte-identical query
//! results. A different seed must (trivially) diverge, proving the
//! comparison actually looks at bytes.

use std::collections::BTreeMap;
use std::sync::Arc;

use ada_core::{Ada, AdaConfig, IngestInput, RetrievedData};
use ada_mdmodel::Tag;
use ada_plfs::ContainerSet;
use ada_simfs::{LocalFs, SimFileSystem};

struct Rig {
    ada: Ada,
    ssd: Arc<dyn SimFileSystem>,
    hdd: Arc<dyn SimFileSystem>,
}

fn rig() -> Rig {
    let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
    let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
    let cs = Arc::new(ContainerSet::new(vec![
        ("ssd".into(), ssd.clone()),
        ("hdd".into(), hdd.clone()),
    ]));
    // paper_prototype keeps every parallel knob on (ingest_threads,
    // query_threads) — exactly the paths whose
    // determinism this suite locks in. 2 frames per dropping force the
    // ingest loop through several windows.
    let config = AdaConfig {
        frames_per_dropping: 2,
        ..AdaConfig::paper_prototype("ssd", "hdd")
    };
    let ada = Ada::new(config, cs, ssd.clone());
    Rig { ada, ssd, hdd }
}

/// Run the whole pipeline for `seed` and dump every artifact byte:
/// `backend-prefixed path → content` for both backends (droppings +
/// persisted index + label file), plus canonical bytes of each query
/// path's delivered data.
fn artifacts(seed: u64) -> BTreeMap<String, Vec<u8>> {
    let r = rig();
    let w = ada_workload::gpcr_workload(1200, 6, seed);
    let pdb = ada_mdformats::write_pdb(&w.system);
    let xtc = ada_mdformats::xtc::write_xtc(&w.trajectory, ada_mdformats::xtc::DEFAULT_PRECISION)
        .unwrap();
    let input = IngestInput::Real {
        pdb_text: pdb,
        xtc_bytes: xtc,
    };
    r.ada.ingest("bar", input).unwrap();

    let mut out = BTreeMap::new();
    for (name, fs) in [("ssd", &r.ssd), ("hdd", &r.hdd)] {
        for path in fs.list("") {
            let (content, _) = fs.read(&path).unwrap();
            let bytes = content
                .as_real()
                .unwrap_or_else(|| panic!("artifact {} is not real bytes", path))
                .to_vec();
            out.insert(format!("{}:{}", name, path), bytes);
        }
    }
    for (label, tag) in [
        ("query:protein", Some(Tag::protein())),
        ("query:misc", Some(Tag::misc())),
        ("query:full", None),
    ] {
        let q = r.ada.query("bar", tag.as_ref()).unwrap();
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
    // Sanity: the run actually produced droppings, an index, and a label.
    assert!(a.keys().any(|p| p.contains("dropping.data")));
    assert!(a.keys().any(|p| p.contains("index")));
    assert!(a.keys().any(|p| p.contains("label")));
}

#[test]
fn different_seed_diverges() {
    let a = artifacts(1);
    let b = artifacts(2);
    assert_ne!(a, b, "different seeds must produce different artifacts");
}
