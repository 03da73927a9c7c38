//! Failure injection across the stack: corrupted droppings, clobbered
//! indexes and label files, capacity exhaustion mid-ingest, and queries
//! racing deletions. The middleware must fail with typed errors — never
//! panic, never return silently wrong data.

use ada_core::{Ada, AdaConfig, AdaError, IngestInput, IngestReport, LabelFile, RetrievedData};
use ada_mdformats::write_pdb;
use ada_mdformats::xtc::{write_xtc, DEFAULT_PRECISION};
use ada_mdmodel::Tag;
use ada_plfs::ContainerSet;
use ada_simfs::{Content, FsParams, LocalFs, SimFileSystem};
use ada_storagesim::{Device, DeviceProfile};
use std::sync::Arc;

struct Rig {
    ada: Ada,
    ssd: Arc<dyn SimFileSystem>,
    hdd: Arc<dyn SimFileSystem>,
}

/// A hybrid rig on `ssd` that cuts a dropping — one window of the ingest
/// loop — every `frames_per_dropping` frames.
fn rig_on(ssd: Arc<dyn SimFileSystem>, frames_per_dropping: usize) -> Rig {
    let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
    let cs = Arc::new(ContainerSet::new(vec![
        ("ssd".into(), ssd.clone()),
        ("hdd".into(), hdd.clone()),
    ]));
    let config = AdaConfig {
        frames_per_dropping,
        ..AdaConfig::paper_prototype("ssd", "hdd")
    };
    Rig {
        ada: Ada::new(config, cs, ssd.clone()),
        ssd,
        hdd,
    }
}

/// Two frames per dropping, so that a fault in a later frame strikes
/// after earlier windows were stored.
fn rig() -> Rig {
    rig_on(Arc::new(LocalFs::ext4_on_nvme()), 2)
}

fn real_input(w: &ada_workload::Workload) -> IngestInput {
    IngestInput::Real {
        pdb_text: write_pdb(&w.system),
        xtc_bytes: write_xtc(&w.trajectory, DEFAULT_PRECISION).unwrap(),
    }
}

fn ingest_demo(ada: &Ada, name: &str) {
    let w = ada_workload::gpcr_workload(900, 2, 55);
    ada.ingest(name, real_input(&w)).unwrap();
}

#[test]
fn corrupt_dropping_bytes_yield_typed_error() {
    let r = rig();
    ingest_demo(&r.ada, "bar");
    // Clobber the protein dropping in place: delete + recreate with junk
    // of the same length.
    let paths = r.ssd.list("ssd/bar/hostdir.0/");
    let dropping = paths
        .iter()
        .find(|p| p.contains("dropping.data.p"))
        .expect("protein dropping exists")
        .clone();
    let len = r.ssd.stat(&dropping).unwrap().len;
    r.ssd.delete(&dropping).unwrap();
    r.ssd
        .create(&dropping, Content::real(vec![0xAAu8; len as usize]))
        .unwrap();

    let err = r.ada.query("bar", Some(&Tag::protein())).unwrap_err();
    assert!(matches!(err, AdaError::Xtcf { .. }), "got {:?}", err);
    assert_eq!(err.kind(), "xtcf");
    // The error names the corrupt dropping and chains the format error.
    assert!(err.to_string().contains("dropping.data.p"), "got {}", err);
    assert!(std::error::Error::source(&err).is_some());
    // The MISC subset is unaffected.
    assert!(r.ada.query("bar", Some(&Tag::misc())).is_ok());
}

#[test]
fn deleted_dropping_yields_fs_error() {
    let r = rig();
    ingest_demo(&r.ada, "bar");
    let paths = r.ssd.list("ssd/bar/hostdir.0/");
    let dropping = paths
        .iter()
        .find(|p| p.contains("dropping.data.p"))
        .unwrap()
        .clone();
    r.ssd.delete(&dropping).unwrap();
    let err = r.ada.query("bar", Some(&Tag::protein())).unwrap_err();
    assert!(matches!(err, AdaError::Plfs(_)), "got {:?}", err);
}

#[test]
fn corrupt_persisted_index_detected_on_reload() {
    let r = rig();
    ingest_demo(&r.ada, "bar");
    let index_path = "ssd/bar/hostdir.0/index";
    assert!(r.ssd.exists(index_path));
    r.ssd.delete(index_path).unwrap();
    r.ssd
        .create(index_path, Content::real(b"{not json".to_vec()))
        .unwrap();
    let err = r.ada.containers().load_index("bar").unwrap_err();
    assert!(matches!(err, ada_plfs::PlfsError::CorruptIndex(_)));
}

#[test]
fn truncated_xtc_at_ingest_is_rejected_cleanly() {
    let r = rig();
    let w = ada_workload::gpcr_workload(900, 2, 56);
    let xtc = write_xtc(&w.trajectory, DEFAULT_PRECISION).unwrap();
    let result = r.ada.ingest(
        "bad",
        IngestInput::Real {
            pdb_text: write_pdb(&w.system),
            xtc_bytes: xtc[..xtc.len() / 2].to_vec(),
        },
    );
    assert!(matches!(result, Err(AdaError::Xtc(_))));
    // The failed dataset is not queryable.
    assert!(matches!(
        r.ada.query("bad", None),
        Err(AdaError::UnknownDataset(_))
    ));
}

#[test]
fn pdb_xtc_atom_mismatch_rejected() {
    let r = rig();
    let w1 = ada_workload::gpcr_workload(900, 1, 57);
    let w2 = ada_workload::gpcr_workload(400, 1, 58);
    let result = r.ada.ingest(
        "bad",
        IngestInput::Real {
            pdb_text: write_pdb(&w1.system),
            xtc_bytes: write_xtc(&w2.trajectory, DEFAULT_PRECISION).unwrap(),
        },
    );
    assert!(matches!(result, Err(AdaError::AtomMismatch { .. })));
}

/// Two `.xtc` files of different atom counts, concatenated: every frame
/// is valid, the file is not. Whichever way it comes in, the answer is the
/// same typed mismatch naming the first offending frame's count — from
/// the frame headers, before a frame is decoded or a byte stored. (The
/// offending frames sit in the second and third windows.) A file with no
/// frames at all is the same mismatch against zero atoms.
#[test]
fn ragged_xtc_is_an_atom_mismatch_from_every_ingest() {
    let r = rig();
    let w = ada_workload::gpcr_workload(900, 3, 60);
    let other = ada_workload::gpcr_workload(400, 2, 61);
    let pdb = write_pdb(&w.system);
    let good = write_xtc(&w.trajectory, DEFAULT_PRECISION).unwrap();
    let mut ragged = good.clone();
    ragged.extend(write_xtc(&other.trajectory, DEFAULT_PRECISION).unwrap());
    r.ada.ingest("guide", real_input(&w)).unwrap();

    type Ingest<'a> = Box<dyn Fn(&[u8]) -> Result<IngestReport, AdaError> + 'a>;
    let entry_points: [(&str, Ingest); 2] = [
        (
            "ingest",
            Box::new(|xtc| {
                let input = IngestInput::Real {
                    pdb_text: pdb.clone(),
                    xtc_bytes: xtc.to_vec(),
                };
                r.ada.ingest("bad", input)
            }),
        ),
        (
            "ingest_guided",
            Box::new(|xtc| r.ada.ingest_guided("bad", "guide", xtc)),
        ),
    ];
    let bad_files: [(&str, &[u8], usize); 2] =
        [("ragged", &ragged, other.system.len()), ("empty", &[], 0)];
    for (name, ingest) in entry_points {
        for (what, bytes, found) in bad_files {
            let err = match ingest(bytes) {
                Err(e) => e,
                Ok(_) => panic!("{}: a {} file was ingested", name, what),
            };
            assert_eq!(err.kind(), "atom_mismatch", "{} {}: {}", name, what, err);
            assert!(
                matches!(err, AdaError::AtomMismatch { pdb, xtc }
                    if (pdb, xtc) == (w.system.len(), found)),
                "{} {}: {}",
                name,
                what,
                err
            );
            // The name is free: nothing was stored, and a well-formed
            // file ingests under it.
            assert!(!r.ada.list_datasets().contains(&"bad".to_string()));
            assert_eq!(files_of(&r, "bad"), Vec::<String>::new(), "{}", name);
            ingest(&good).unwrap();
            assert_eq!(
                protein_frames(&r.ada, "bad"),
                protein_frames(&r.ada, "guide")
            );
            r.ada.delete_dataset("bad").unwrap();
        }
    }
}

/// A hybrid rig whose SSD — protein droppings, label files and the
/// persisted index all live there — holds only 50 kB.
fn tiny_ssd_rig(frames_per_dropping: usize) -> Rig {
    let tiny_profile = DeviceProfile {
        capacity: 50_000,
        ..DeviceProfile::nvme_ssd_256gb()
    };
    let ssd = Arc::new(LocalFs::new(
        "tiny-ssd",
        FsParams::ext4(),
        ada_simfs::local::Backing::Single(Device::new(tiny_profile)),
    ));
    rig_on(ssd, frames_per_dropping)
}

/// Every file either backend holds under `<mnt>/<dataset>/`.
fn files_of(r: &Rig, dataset: &str) -> Vec<String> {
    let mut files = r.ssd.list(&format!("ssd/{}/", dataset));
    files.extend(r.hdd.list(&format!("hdd/{}/", dataset)));
    files
}

fn protein_frames(ada: &Ada, dataset: &str) -> ada_mdformats::Trajectory {
    match ada.query(dataset, Some(&Tag::protein())).unwrap().data {
        RetrievedData::Real(t) => t,
        other => panic!("expected real data, got {:?}", other),
    }
}

/// Capacity exhaustion mid-ingest must fail with a typed storage error
/// *and leave nothing behind*: the ingest is all or nothing, whichever
/// flavour (`ingest(ada, dataset, workload)`) ran it. `fits` (one frame)
/// is stored first as `guide`, so it doubles as the structure a guided
/// ingest reuses; `too_big` (twelve frames) shares its structure but
/// overflows the SSD after the window's HDD dropping (and, at two frames
/// per dropping, whole earlier windows on both backends) are already
/// written.
fn assert_no_space_is_all_or_nothing(
    frames_per_dropping: usize,
    ingest: impl Fn(&Ada, &str, &ada_workload::Workload) -> Result<IngestReport, AdaError>,
) {
    let r = tiny_ssd_rig(frames_per_dropping);
    let fits = ada_workload::gpcr_workload(2000, 1, 59);
    let too_big = ada_workload::gpcr_workload(2000, 12, 59);
    r.ada.ingest("guide", real_input(&fits)).unwrap();
    let guide_files = files_of(&r, "guide");
    let guide_frames = protein_frames(&r.ada, "guide");

    match ingest(&r.ada, "big", &too_big) {
        Err(AdaError::Plfs(ada_plfs::PlfsError::Fs(ada_simfs::FsError::NoSpace { .. })))
        | Err(AdaError::Fs(ada_simfs::FsError::NoSpace { .. })) => {}
        other => panic!("expected NoSpace, got {:?}", other.map(|r| r.dataset)),
    }
    // The name is gone from ADA, from the container layer and from both
    // backends — no orphan dropping, marker, index or label file.
    assert!(!r.ada.list_datasets().contains(&"big".to_string()));
    assert!(!r
        .ada
        .containers()
        .list_logical()
        .contains(&"big".to_string()));
    assert_eq!(files_of(&r, "big"), Vec::<String>::new());
    assert!(!r.ssd.exists(&LabelFile::path_for("big")));
    assert!(matches!(
        r.ada.query("big", None),
        Err(AdaError::UnknownDataset(_))
    ));

    // So the name can be reused: an input that fits ingests under it and
    // is queryable.
    ingest(&r.ada, "big", &fits).unwrap();
    assert_eq!(protein_frames(&r.ada, "big"), guide_frames);

    // The opposite failure: a name that is taken belongs to someone else.
    // The refused ingest must not touch the dataset that owns it.
    match ingest(&r.ada, "guide", &fits) {
        Err(AdaError::Plfs(ada_plfs::PlfsError::LogicalExists(_))) => {}
        other => panic!("expected LogicalExists, got {:?}", other.map(|r| r.dataset)),
    }
    assert_eq!(files_of(&r, "guide"), guide_files);
    assert!(r.ssd.exists(&LabelFile::path_for("guide")));
    assert_eq!(protein_frames(&r.ada, "guide"), guide_frames);
}

#[test]
fn backend_out_of_space_mid_ingest() {
    assert_no_space_is_all_or_nothing(512, |ada, dataset, w| ada.ingest(dataset, real_input(w)));
}

#[test]
fn backend_out_of_space_in_a_late_window() {
    assert_no_space_is_all_or_nothing(2, |ada, dataset, w| ada.ingest(dataset, real_input(w)));
}

#[test]
fn backend_out_of_space_mid_guided_ingest() {
    assert_no_space_is_all_or_nothing(2, |ada, dataset, w| {
        ada.ingest_guided(
            dataset,
            "guide",
            &write_xtc(&w.trajectory, DEFAULT_PRECISION).unwrap(),
        )
    });
}

#[test]
fn queries_against_wrong_tags_and_names_never_panic() {
    let r = rig();
    ingest_demo(&r.ada, "bar");
    for tag in ["", "P", "pp", "protein", "\0", "🧬"] {
        let res = r.ada.query("bar", Some(&Tag::new(tag)));
        assert!(matches!(res, Err(AdaError::UnknownTag(_))), "tag {:?}", tag);
    }
    for name in ["", "BAR", "bar ", "../bar"] {
        assert!(matches!(
            r.ada.query(name, None),
            Err(AdaError::UnknownDataset(_))
        ));
    }
}
