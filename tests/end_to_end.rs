//! End-to-end integration: workload generator → real PDB/XTC bytes → ADA
//! ingest on the storage side → VMD session on the compute side →
//! rendered animation — the complete Fig. 3b data path on real bytes.

mod common;

use ada_core::RetrievedData;
use ada_mdformats::read_xtc;
use ada_mdmodel::{Category, Tag};
use ada_vmdsim::VmdSession;
use common::{fixture, input, Rig};

fn close(a: f32, b: f32) -> bool {
    (a - b).abs() < 0.5 / 1000.0 + 1e-6
}

#[test]
fn full_pipeline_real_bytes() {
    let w = ada_workload::gpcr_workload(3000, 5, 4242);
    let (pdb_text, xtc_bytes) = fixture(&w);

    // Storage side.
    let rig = Rig::paper();
    let ada = rig.ada();
    let report = ada.ingest("cb1", input(&w)).unwrap();
    // Every decompressed byte is stored exactly once across the two tags
    // (modulo XTCF per-dropping headers).
    let stored: u64 = report.bytes_by_tag.values().sum();
    let raw = w.trajectory.nbytes() as u64;
    assert!(
        stored >= raw && stored < raw + 4096,
        "stored {} raw {}",
        stored,
        raw
    );

    // Compute side: tagged load, then render.
    let mut vmd = VmdSession::new();
    let id = vmd.mol_new(&pdb_text).unwrap();
    vmd.mol_addfile_ada(id, ada, "cb1", Some(&Tag::protein()))
        .unwrap();
    let mol = vmd.molecule(id);
    let prot_atoms = w.system.category_ranges(Category::Protein).count();
    assert_eq!(mol.system.len(), prot_atoms);
    assert_eq!(mol.frames.len(), 5);

    // The delivered coordinates equal the XTC-quantized originals.
    let ranges = w.system.category_ranges(Category::Protein);
    let quantized = read_xtc(&xtc_bytes).unwrap();
    for (frame, qframe) in mol.frames.iter().zip(&quantized.frames) {
        let expect = ranges.gather(&qframe.coords);
        assert_eq!(frame.coords.len(), expect.len());
        for (a, b) in frame.coords.iter().zip(&expect) {
            for d in 0..3 {
                assert!(close(a[d], b[d]), "{} vs {}", a[d], b[d]);
            }
        }
    }

    // And it renders.
    let stats = vmd.animate(id, 3);
    assert_eq!(stats.len(), 5);
    assert!(stats.iter().all(|s| s.pixels_filled > 50));
}

#[test]
fn misc_subset_complements_protein() {
    let w = ada_workload::gpcr_workload(2000, 3, 7);
    let rig = Rig::paper();
    let ada = rig.ada();
    ada.ingest("cb1", input(&w)).unwrap();

    let p = match ada.query("cb1", Some(&Tag::protein())).unwrap().data {
        RetrievedData::Real(t) => t,
        _ => unreachable!(),
    };
    let m = match ada.query("cb1", Some(&Tag::misc())).unwrap().data {
        RetrievedData::Real(t) => t,
        _ => unreachable!(),
    };
    assert_eq!(p.natoms() + m.natoms(), w.system.len());
    assert_eq!(p.len(), m.len());
    // Paper Table 1: protein < 50% of the system.
    assert!(p.natoms() < m.natoms());
}

#[test]
fn untagged_query_equals_direct_decode() {
    let w = ada_workload::gpcr_workload(1500, 4, 99);
    let (_, xtc_bytes) = fixture(&w);
    let rig = Rig::paper();
    let ada = rig.ada();
    ada.ingest("cb1", input(&w)).unwrap();
    let via_ada = match ada.query("cb1", None).unwrap().data {
        RetrievedData::Real(t) => t,
        _ => unreachable!(),
    };
    let direct = read_xtc(&xtc_bytes).unwrap();
    assert_eq!(via_ada.len(), direct.len());
    for (a, b) in via_ada.frames.iter().zip(&direct.frames) {
        assert_eq!(a.step, b.step);
        assert_eq!(a.coords.len(), b.coords.len());
        for (ca, cb) in a.coords.iter().zip(&b.coords) {
            for d in 0..3 {
                // ADA stores the decompressed lattice exactly (XTCF is
                // lossless), so this must be bit-equal to the decode.
                assert_eq!(ca[d], cb[d]);
            }
        }
    }
}

#[test]
fn ingest_is_idempotent_per_dataset_name() {
    let w = ada_workload::gpcr_workload(800, 1, 3);
    let rig = Rig::paper();
    let ada = rig.ada();
    ada.ingest("x", input(&w)).unwrap();
    // Second ingest under the same name: the name has one owner.
    let err = ada.ingest("x", input(&w)).unwrap_err();
    assert_eq!(
        err.error_kind(),
        ada_core::ErrorKind::DatasetExists,
        "{err}"
    );
    // A different name is fine.
    assert!(ada.ingest("y", input(&w)).is_ok());
}
