//! Model agreement: `ada-platforms`' volume model — per-tag byte counts
//! placed where `Ada` stores frames and priced on the same media, which
//! is what the figures run on — must agree with `Ada` ingesting and
//! querying real bytes on everything the figures depend on: the dropping
//! paths, placement, per-backend and raw volumes, the indexer and the
//! read. The model's own timing structure must scale as the paper's does.
//!
//! The suite pins its media: the model prices each read on a `LocalFs`
//! medium, so `Ada` must read off the same one.

mod common;

use ada_core::{Ada, AdaConfig, DispatchPolicy, IngestReport, LabelFile};
use ada_mdmodel::Tag;
use ada_platforms::volumes::{self, SyntheticDataset};
use ada_simfs::LocalFs;
use ada_storagesim::{CpuProfile, CpuWork};
use common::Rig;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The hybrid deployment's media: an NVMe backend, which also holds the
/// label files, and an HDD one.
fn media() -> [(&'static str, LocalFs); 2] {
    [
        ("ssd", LocalFs::ext4_on_nvme()),
        ("hdd", LocalFs::ext4_on_hdd()),
    ]
}

/// `Ada` over a fresh hybrid deployment with `policy`, and a real ingest
/// of `w` into it as `bar`.
fn real_ingest(w: &ada_workload::Workload, policy: &DispatchPolicy) -> (Arc<Ada>, IngestReport) {
    let [(_, ssd), (_, hdd)] = media();
    let config = AdaConfig {
        policy: policy.clone(),
        ..AdaConfig::paper_prototype("ssd", "hdd")
    };
    let ada = Arc::clone(Rig::over(Arc::new(ssd), Arc::new(hdd), config).ada());
    let report = ada.ingest("bar", common::input(w)).unwrap();
    (ada, report)
}

/// The model's ingest, on the same media, of the volumes `ada`'s label of
/// `bar` records: its frames, atoms and atom shares.
fn model_ingest(ada: &Ada, policy: &DispatchPolicy) -> LabelFile {
    let label = ada.label("bar").unwrap();
    let spec = SyntheticDataset {
        frames: label.nframes as u64,
        natoms: label.natoms as u64,
        compressed_bytes: 0, // priced by no ingest or query
        atoms_by_tag: (label.entries().iter())
            .map(|(tag, entry)| (tag.clone(), entry.ranges.count() as u64))
            .collect(),
    };
    let media = media();
    let (stored, _) = volumes::ingest(&media, &media[0].1, policy, "bar", &spec).unwrap();
    stored
}

fn within_1pct(real: f64, model: f64, what: &str) {
    let rel = (real - model).abs() / model;
    assert!(rel < 0.01, "{what}: real {real} vs model {model}");
}

#[test]
fn synthetic_volumes_match_real_ingest() {
    let w = ada_workload::gpcr_workload(4000, 4, 11);
    let policy = DispatchPolicy::hybrid_gpcr("ssd", "hdd");
    let (ada, report) = real_ingest(&w, &policy);
    let stored = model_ingest(&ada, &policy);

    // The same backends hold the same volumes; the real droppings carry
    // XTCF framing (frame headers, the chunk directory) on top.
    let real = ada.containers().bytes_by_backend("bar").unwrap();
    let mut model = BTreeMap::new();
    for entry in stored.entries().values() {
        *model.entry(entry.dropping.backend.clone()).or_insert(0) += entry.dropping.len;
    }
    assert_eq!(real.keys().collect::<Vec<_>>(), ["hdd", "ssd"]);
    assert_eq!(
        real.keys().collect::<Vec<_>>(),
        model.keys().collect::<Vec<_>>()
    );
    for (backend, bytes) in &real {
        within_1pct(*bytes as f64, model[backend] as f64, backend);
    }
    let raw: u64 = model.values().sum();
    within_1pct(report.raw_bytes as f64, raw as f64, "raw bytes");

    // Each query reads the same droppings off the same devices: the same
    // indexer charge, and a read within the framing's share.
    let media = media();
    for tag in [Some(Tag::protein()), Some(Tag::misc()), None] {
        let q = ada.query("bar", tag.as_ref()).unwrap();
        let m = volumes::query(&media, &stored, tag.as_ref()).unwrap();
        assert_eq!(q.indexer, m.indexer, "indexer, tag {tag:?}");
        let what = format!("read, tag {tag:?}");
        within_1pct(q.read.as_secs_f64(), m.read.as_secs_f64(), &what);
        within_1pct(q.data.bytes() as f64, m.bytes as f64, "delivered bytes");
    }
}

#[test]
fn placement_identical_across_modes() {
    let w = ada_workload::gpcr_workload(2500, 2, 5);
    let policies = [
        DispatchPolicy::hybrid_gpcr("ssd", "hdd"),
        DispatchPolicy::all_to("ssd"),
        DispatchPolicy::new(vec![(Tag::protein(), "hdd".into())], "ssd"),
    ];
    for policy in policies {
        let (ada, _) = real_ingest(&w, &policy);
        let stored = model_ingest(&ada, &policy);
        // Every tag's dropping on the backend the policy names, both ways.
        let label = ada.label("bar").unwrap();
        for (tag, entry) in label.entries() {
            let backend = policy.backend_for(tag);
            assert_eq!(entry.dropping.backend, backend, "real {tag}, {policy:?}");
            let model = &stored.entries()[tag].dropping;
            assert_eq!(model.backend, backend, "model {tag}, {policy:?}");
        }
    }
}

/// DESIGN.md §2's substitution: the same volumes over the same paths. The
/// model's label names, for every tag, the dropping `Ada`'s label names:
/// the same path on the same backend.
#[test]
fn model_writes_the_paths_ada_writes() {
    let w = ada_workload::gpcr_workload(1500, 3, 17);
    let policy = DispatchPolicy::hybrid_gpcr("ssd", "hdd");
    let (ada, _) = real_ingest(&w, &policy);
    let stored = model_ingest(&ada, &policy);
    let label = ada.label("bar").unwrap();
    assert_eq!(label.all_tags(), stored.all_tags());
    for (tag, entry) in label.entries() {
        let (real, model) = (&entry.dropping, &stored.entries()[tag].dropping);
        let place =
            |d: &ada_plfs::IndexRecord| (d.tag.clone(), d.backend.clone(), d.dropping_path.clone());
        assert_eq!(place(real), place(model), "tag {tag}");
    }
}

#[test]
fn synthetic_query_durations_scale_with_volume() {
    let media = media();
    let policy = DispatchPolicy::hybrid_gpcr("ssd", "hdd");
    let ingest = |name, frames| {
        let spec = SyntheticDataset::gpcr_paper(frames);
        volumes::ingest(&media, &media[0].1, &policy, name, &spec).unwrap()
    };
    let (a, _) = ingest("a", 1000);
    let (b, _) = ingest("b", 4000);
    let qa = volumes::query(&media, &a, Some(&Tag::protein())).unwrap();
    let qb = volumes::query(&media, &b, Some(&Tag::protein())).unwrap();
    let ratio = qb.read.as_secs_f64() / qa.read.as_secs_f64();
    // 4x the frames → ~4x the read time (modulo fixed latencies).
    assert!(ratio > 3.0 && ratio < 5.0, "ratio {}", ratio);
    assert_eq!(qb.bytes, 4 * qa.bytes);
}

#[test]
fn synthetic_ingest_decompression_dominates() {
    // Even at ingest, the decompress stage dwarfs categorize+split —
    // consistent with Fig. 8's profile now running on the storage node —
    // and it is most of what the model charges for an ingest.
    let spec = SyntheticDataset::gpcr_paper(5006);
    let cpu = CpuProfile::xeon_e5_2603_v4();
    let raw = spec.raw_bytes();
    let decompress = CpuWork::Decompress { out_bytes: raw }.duration(&cpu);
    let categorize = CpuWork::Categorize {
        bytes: spec.pdb_bytes(),
    }
    .duration(&cpu);
    let split = CpuWork::Scan { bytes: raw }.duration(&cpu);
    assert!(decompress.as_secs_f64() > 5.0 * (categorize + split).as_secs_f64());

    let media = media();
    let policy = DispatchPolicy::hybrid_gpcr("ssd", "hdd");
    let (_, ingest) = volumes::ingest(&media, &media[0].1, &policy, "x", &spec).unwrap();
    assert!(ingest > decompress + categorize + split);
    assert!(decompress.as_secs_f64() > 0.5 * ingest.as_secs_f64());
}
