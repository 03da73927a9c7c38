//! Failure injection across the stack: corrupted droppings, clobbered
//! label files, capacity exhaustion mid-ingest, and queries
//! racing deletions. The middleware must fail with typed errors — never
//! panic, never return silently wrong data.

mod common;

use ada_core::{Ada, AdaConfig, AdaError, ErrorKind, IngestInput, LabelFile, RetrievedData};
use ada_mdformats::write_pdb;
use ada_mdformats::xtc::{write_xtc, DEFAULT_PRECISION};
use ada_mdmodel::Tag;
use ada_simfs::{Backing, Content, FsError, LocalFs, SimFileSystem};
use ada_simfs::{FileStat, TimedRead};
use ada_storagesim::DeviceProfile;
use common::{input, Rig};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A hybrid rig over the given SSD and HDD that seals a chunk — one unit
/// of the ingest pool — every `chunk_frames` frames.
fn rig_over(ssd: Arc<dyn SimFileSystem>, hdd: Arc<dyn SimFileSystem>, chunk_frames: usize) -> Rig {
    let config = AdaConfig {
        chunk_frames,
        ..AdaConfig::paper_prototype("ssd", "hdd")
    };
    Rig::over(ssd, hdd, config)
}

/// Two frames a chunk, so that a fault in a later frame strikes after
/// earlier chunks were split.
fn rig() -> Rig {
    let [ssd, hdd] = common::store();
    rig_over(ssd, hdd, 2)
}

fn ingest_demo(ada: &Ada, name: &str) {
    let w = ada_workload::gpcr_workload(900, 2, 55);
    ada.ingest(name, input(&w)).unwrap();
}

#[test]
fn corrupt_dropping_bytes_yield_typed_error() {
    let r = rig();
    ingest_demo(r.ada(), "bar");
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

    let err = r.ada().query("bar", Some(&Tag::protein())).unwrap_err();
    assert!(matches!(err, AdaError::Xtcf { .. }), "got {:?}", err);
    assert_eq!(err.error_kind(), ErrorKind::Corrupt);
    // The error names the corrupt dropping and chains the format error.
    assert!(err.to_string().contains("dropping.data.p"), "got {}", err);
    assert!(std::error::Error::source(&err).is_some());
    // The MISC subset is unaffected.
    assert!(r.ada().query("bar", Some(&Tag::misc())).is_ok());
}

#[test]
fn deleted_dropping_yields_fs_error() {
    let r = rig();
    ingest_demo(r.ada(), "bar");
    let paths = r.ssd.list("ssd/bar/hostdir.0/");
    let dropping = paths
        .iter()
        .find(|p| p.contains("dropping.data.p"))
        .unwrap()
        .clone();
    r.ssd.delete(&dropping).unwrap();
    let err = r.ada().query("bar", Some(&Tag::protein())).unwrap_err();
    assert!(
        matches!(err, AdaError::Fs(FsError::NotFound(_))),
        "got {:?}",
        err
    );
    // A dropping missing under a live label: the store disagrees with it.
    assert_eq!(err.error_kind(), ErrorKind::Corrupt);
}

/// The label file is a dataset's one metadata record, so `LabelFile::load`
/// refuses one it cannot answer from: garbage bytes, and a label whose
/// stored droppings are not one per tag — a tag without its dropping, a
/// dropping for a tag `tags` lacks, one tag's dropping listed twice.
#[test]
fn corrupt_label_file_detected_on_reload() {
    let r = rig();
    ingest_demo(r.ada(), "bar");
    let path = LabelFile::path_for("bar");
    let label = LabelFile::load(r.ssd.as_ref(), "bar").unwrap();
    assert_eq!(label, r.ada().label("bar").unwrap());

    // Label `bar` as JSON text, tags `m` and `p`, its droppings list
    // holding one dropping per named tag.
    let write = |droppings: &[&str]| {
        let list: Vec<String> = droppings
            .iter()
            .map(|tag| {
                format!(
                    r#"{{"tag":"{tag}","backend":"ssd","dropping_path":"ssd/bar/hostdir.0/dropping.data.{tag}","len":64}}"#
                )
            })
            .collect();
        let text = format!(
            r#"{{"dataset":"bar","natoms":20,"nframes":2,"tags":{{"m":[[0,12]],"p":[[12,20]]}},"droppings":[{}]}}"#,
            list.join(",")
        );
        r.ssd.delete(&path).unwrap();
        r.ssd
            .create(&path, Content::real(text.into_bytes()))
            .unwrap();
    };
    write(&["m", "p"]);
    let written = LabelFile::load(r.ssd.as_ref(), "bar").unwrap();
    assert_eq!(written.all_tags(), [Tag::misc(), Tag::protein()]);

    let refused = |what: &str, why: &str| {
        let err = LabelFile::load(r.ssd.as_ref(), "bar").unwrap_err();
        assert_eq!(err.error_kind(), ErrorKind::Corrupt, "{what}: {err}");
        let text = err.to_string();
        assert!(
            text.starts_with("pdb: label parse: ") && text.contains(why),
            "{what}: {err}"
        );
    };
    r.ssd.delete(&path).unwrap();
    r.ssd
        .create(&path, Content::real(b"{not json".to_vec()))
        .unwrap();
    refused("garbage", "");
    for (what, droppings) in [
        ("a tag without its dropping", &["m"][..]),
        ("a dropping for a tag `tags` lacks", &["m", "p", "w"]),
        ("one tag's dropping twice", &["m", "p", "p"]),
    ] {
        write(droppings);
        refused(what, "not one per tag");
    }
}

#[test]
fn truncated_xtc_at_ingest_is_rejected_cleanly() {
    let r = rig();
    let w = ada_workload::gpcr_workload(900, 2, 56);
    let xtc = write_xtc(&w.trajectory, DEFAULT_PRECISION).unwrap();
    let result = r.ada().ingest(
        "bad",
        IngestInput::Real {
            pdb_text: write_pdb(&w.system),
            xtc_bytes: xtc[..xtc.len() / 2].to_vec(),
        },
    );
    assert!(matches!(result, Err(AdaError::Xtc(_))));
    // The failed dataset is not queryable.
    assert!(matches!(
        r.ada().query("bad", None),
        Err(AdaError::UnknownDataset(_))
    ));
}

#[test]
fn pdb_xtc_atom_mismatch_rejected() {
    let r = rig();
    let w1 = ada_workload::gpcr_workload(900, 1, 57);
    let w2 = ada_workload::gpcr_workload(400, 1, 58);
    let result = r.ada().ingest(
        "bad",
        IngestInput::Real {
            pdb_text: write_pdb(&w1.system),
            xtc_bytes: write_xtc(&w2.trajectory, DEFAULT_PRECISION).unwrap(),
        },
    );
    assert!(matches!(result, Err(AdaError::AtomMismatch { .. })));
}

/// Two `.xtc` files of different atom counts, concatenated: every frame
/// is valid, the file is not. The answer is the typed mismatch naming the
/// first offending frame's count — from the frame headers, before a frame
/// is decoded or a byte stored. (The offending frames sit in the second
/// and third chunks.) A file with no frames at all is the same mismatch
/// against zero atoms.
#[test]
fn ragged_xtc_is_an_atom_mismatch_from_every_ingest() {
    let r = rig();
    let w = ada_workload::gpcr_workload(900, 3, 60);
    let other = ada_workload::gpcr_workload(400, 2, 61);
    let pdb = write_pdb(&w.system);
    let good = write_xtc(&w.trajectory, DEFAULT_PRECISION).unwrap();
    let mut ragged = good.clone();
    ragged.extend(write_xtc(&other.trajectory, DEFAULT_PRECISION).unwrap());
    r.ada().ingest("good", input(&w)).unwrap();

    let ingest = |xtc: &[u8]| {
        let input = IngestInput::Real {
            pdb_text: pdb.clone(),
            xtc_bytes: xtc.to_vec(),
        };
        r.ada().ingest("bad", input)
    };
    let bad_files: [(&str, &[u8], usize); 2] =
        [("ragged", &ragged, other.system.len()), ("empty", &[], 0)];
    for (what, bytes, found) in bad_files {
        let err = match ingest(bytes) {
            Err(e) => e,
            Ok(_) => panic!("a {} file was ingested", what),
        };
        assert_eq!(err.error_kind(), ErrorKind::BadInput, "{}: {}", what, err);
        assert!(
            matches!(err, AdaError::AtomMismatch { pdb, xtc }
                if (pdb, xtc) == (w.system.len(), found)),
            "{}: {}",
            what,
            err
        );
        // The name is free: nothing was stored, and a well-formed file
        // ingests under it.
        assert!(!r.ada().list_datasets().contains(&"bad".to_string()));
        assert_eq!(files_of(&r, "bad"), Vec::<String>::new(), "{}", what);
        ingest(&good).unwrap();
        assert_eq!(
            protein_frames(r.ada(), "bad"),
            protein_frames(r.ada(), "good")
        );
        r.ada().delete_dataset("bad").unwrap();
    }
}

/// A hybrid rig whose SSD — protein droppings and label files live
/// there — holds only 50 kB.
fn tiny_ssd_rig(chunk_frames: usize) -> Rig {
    ssd_of_capacity(50_000, chunk_frames)
}

/// A hybrid rig whose SSD holds only `capacity` bytes.
fn ssd_of_capacity(capacity: u64, chunk_frames: usize) -> Rig {
    let tiny_profile = DeviceProfile {
        capacity,
        ..DeviceProfile::nvme_ssd_256gb()
    };
    let ssd = Arc::new(LocalFs::new(
        "tiny-ssd",
        50.0e-6, // ext4's per-operation cost
        Backing::Single(tiny_profile),
    ));
    let [_, hdd] = common::store();
    rig_over(ssd, hdd, chunk_frames)
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
/// *and leave nothing behind*: the ingest is all or nothing. `fits` (one
/// frame) is stored first as `guide`; `too_big` (twelve frames) shares its
/// structure but overflows the SSD with its protein dropping after the
/// HDD dropping is already written — at two frames a chunk, a dropping of
/// six chunks whose late ones are past the SSD's capacity.
fn assert_no_space_is_all_or_nothing(chunk_frames: usize) {
    let ingest =
        |ada: &Ada, dataset: &str, w: &ada_workload::Workload| ada.ingest(dataset, input(w));
    let r = tiny_ssd_rig(chunk_frames);
    let fits = ada_workload::gpcr_workload(2000, 1, 59);
    let too_big = ada_workload::gpcr_workload(2000, 12, 59);
    r.ada().ingest("guide", input(&fits)).unwrap();
    let guide_files = files_of(&r, "guide");
    let guide_frames = protein_frames(r.ada(), "guide");

    assert_no_space(ingest(r.ada(), "big", &too_big));
    assert_left_nothing(&r, "big");

    // So the name can be reused: an input that fits ingests under it and
    // is queryable.
    ingest(r.ada(), "big", &fits).unwrap();
    assert_eq!(protein_frames(r.ada(), "big"), guide_frames);

    // The opposite failure: a name that is taken belongs to someone else.
    // The refused ingest must not touch the dataset that owns it.
    match ingest(r.ada(), "guide", &fits) {
        Err(AdaError::DatasetExists(_)) => {}
        other => panic!("expected DatasetExists, got {:?}", other.map(|r| r.dataset)),
    }
    assert_eq!(files_of(&r, "guide"), guide_files);
    assert!(r.ssd.exists(&LabelFile::path_for("guide")));
    assert_eq!(protein_frames(r.ada(), "guide"), guide_frames);
}

/// A refusal for want of space, whichever write met it: the file
/// system's own error, kind `no_space`. Returns the size of the refused
/// write.
fn assert_no_space(res: Result<ada_core::IngestReport, AdaError>) -> u64 {
    match res {
        Err(e @ AdaError::Fs(FsError::NoSpace { requested, .. })) => {
            assert_eq!(e.error_kind(), ErrorKind::NoSpace);
            requested
        }
        other => panic!("expected NoSpace, got {:?}", other.map(|r| r.dataset)),
    }
}

/// `dataset` is gone from ADA and from both backends — no orphan
/// dropping or label file — and no other file is left unaccounted for.
fn assert_left_nothing(r: &Rig, dataset: &str) {
    assert!(!r.ada().list_datasets().contains(&dataset.to_string()));
    assert_eq!(files_of(r, dataset), Vec::<String>::new());
    assert!(!r.ssd.exists(&LabelFile::path_for(dataset)));
    assert_eq!(r.strays(), Vec::<String>::new());
    assert!(matches!(
        r.ada().query(dataset, None),
        Err(AdaError::UnknownDataset(_))
    ));
}

/// The label file is an ingest's last write. When it is the one that runs
/// out of space — every dropping stored, the SSD one byte short of the
/// label — the refusal is the same `no_space` kind a dropping's is, and the
/// ingest leaves nothing behind.
#[test]
fn label_write_out_of_space_is_fs_and_leaves_nothing() {
    let w = ada_workload::gpcr_workload(2000, 1, 59);
    let roomy = rig();
    roomy.ada().ingest("big", input(&w)).unwrap();
    let len = |path: &str| roomy.ssd.stat(path).unwrap().len;
    let dropping = len("ssd/big/hostdir.0/dropping.data.p");
    let label = len(&LabelFile::path_for("big"));
    assert_eq!(roomy.ssd.list("").len(), 2, "the SSD holds the two");

    let r = ssd_of_capacity(dropping + label - 1, 2);
    assert_eq!(assert_no_space(r.ada().ingest("big", input(&w))), label);
    assert_left_nothing(&r, "big");
    // With the label's room, the same input ingests.
    let r = ssd_of_capacity(dropping + label, 2);
    r.ada().ingest("big", input(&w)).unwrap();
    assert_eq!(r.strays(), Vec::<String>::new());
}

#[test]
fn backend_out_of_space_mid_ingest() {
    assert_no_space_is_all_or_nothing(64);
}

#[test]
fn backend_out_of_space_in_a_late_window() {
    assert_no_space_is_all_or_nothing(2);
}

#[test]
fn queries_against_wrong_tags_and_names_never_panic() {
    let r = rig();
    ingest_demo(r.ada(), "bar");
    for tag in ["", "P", "pp", "protein", "\0", "🧬"] {
        let res = r.ada().query("bar", Some(&Tag::new(tag)));
        assert!(matches!(res, Err(AdaError::UnknownTag(_))), "tag {:?}", tag);
    }
    for name in ["", "BAR", "bar ", "../bar"] {
        assert!(matches!(
            r.ada().query(name, None),
            Err(AdaError::UnknownDataset(_))
        ));
    }
}

/// A backend that refuses some of its calls of one operation: those of
/// `op` ("create" or "delete") numbered in `refused` (the first is 1),
/// each storing or removing nothing. A refused create is out of space; a
/// refused delete is the medium's refusal, naming the file it leaves in
/// place. Every other call is the inner file system's.
struct Flaky {
    inner: Arc<dyn SimFileSystem>,
    op: &'static str,
    refused: Range<usize>,
    calls: AtomicUsize,
}

impl Flaky {
    fn new(
        inner: Arc<dyn SimFileSystem>,
        op: &'static str,
        refused: Range<usize>,
    ) -> Arc<dyn SimFileSystem> {
        Arc::new(Flaky {
            inner,
            op,
            refused,
            calls: AtomicUsize::new(0),
        })
    }

    fn refuses(&self, op: &str) -> bool {
        op == self.op
            && self
                .refused
                .contains(&(self.calls.fetch_add(1, Ordering::SeqCst) + 1))
    }
}

impl SimFileSystem for Flaky {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn create(&self, path: &str, content: Content) -> Result<(), FsError> {
        if self.refuses("create") {
            let requested = content.len();
            return Err(FsError::NoSpace { requested, free: 0 });
        }
        self.inner.create(path, content)
    }
    fn append(&self, path: &str, content: Content) -> Result<(), FsError> {
        self.inner.append(path, content)
    }
    fn read(&self, path: &str) -> Result<TimedRead, FsError> {
        self.inner.read(path)
    }
    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<TimedRead, FsError> {
        self.inner.read_range(path, offset, len)
    }
    fn delete(&self, path: &str) -> Result<(), FsError> {
        if self.refuses("delete") {
            return Err(FsError::Refused(path.to_string()));
        }
        self.inner.delete(path)
    }
    fn stat(&self, path: &str) -> Result<FileStat, FsError> {
        self.inner.stat(path)
    }
    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }
    fn used_bytes(&self) -> u64 {
        self.inner.used_bytes()
    }
}

/// A full-frame query's frames, every field as its bits.
fn frame_bits(ada: &Ada, dataset: &str) -> Vec<(i32, u32, Vec<u32>)> {
    let traj = match ada.query(dataset, None).unwrap().data {
        RetrievedData::Real(t) => t,
        other => panic!("expected real data, got {:?}", other),
    };
    let bits = |f: &ada_mdformats::Frame| {
        let pbc = f.pbc.m.iter().flatten();
        let coords = f.coords.iter().flatten();
        pbc.chain(coords).map(|v| v.to_bits()).collect()
    };
    let frames = traj.frames.iter();
    frames
        .map(|f| (f.step, f.time.to_bits(), bits(f)))
        .collect()
}

/// The misc dropping of `d`: the first one stored, on the HDD.
const LEFTOVER: &str = "hdd/d/hostdir.0/dropping.data.m";

/// A dropping the backend refuses to remove is reported by the delete
/// that met it — kind `io`, naming the dropping — yet the dataset is gone:
/// its label removed, its name unlisted and unknown to a query. The next
/// ingest of the name sweeps the leftover first; while the sweep is
/// refused, the ingest fails with that refusal and leaves the name free,
/// and once it goes through, the name reads back what was stored before.
#[test]
fn a_dropping_a_delete_leaves_behind_is_reported_then_swept() {
    let w = ada_workload::gpcr_workload(900, 5, 62);
    // The HDD refuses its first two deletes: the delete's and one sweep.
    let [ssd, hdd] = common::store();
    let r = rig_over(ssd, Flaky::new(hdd, "delete", 1..3), 2);
    r.ada().ingest("d", input(&w)).unwrap();
    let stored = frame_bits(r.ada(), "d");

    let err = r.ada().delete_dataset("d").unwrap_err();
    assert!(
        matches!(&err, AdaError::Fs(FsError::Refused(p)) if p == LEFTOVER),
        "{err:?}"
    );
    assert_eq!(err.error_kind(), ErrorKind::Io);
    assert!(r.ada().list_datasets().is_empty());
    assert!(!r.ssd.exists(&LabelFile::path_for("d")));
    assert_eq!(files_of(&r, "d"), [LEFTOVER]);
    assert!(matches!(
        r.ada().query("d", None),
        Err(AdaError::UnknownDataset(_))
    ));

    // The sweep is refused: the ingest stores nothing and frees the name.
    let err = r.ada().ingest("d", input(&w)).unwrap_err();
    assert!(
        matches!(&err, AdaError::Fs(FsError::Refused(p)) if p == LEFTOVER),
        "{err:?}"
    );
    assert_eq!(err.error_kind(), ErrorKind::Io);
    assert!(r.ada().list_datasets().is_empty());
    assert_eq!(files_of(&r, "d"), [LEFTOVER]);

    r.ada().ingest("d", input(&w)).unwrap();
    assert_eq!(frame_bits(r.ada(), "d"), stored);
    assert_eq!(r.strays(), Vec::<String>::new());
}

/// An ingest that fails once its droppings are stored — its label write
/// refused — rolls them back; a dropping the rollback cannot remove stays
/// behind without holding the name. The ingest reports its own error, and
/// the next ingest of the name sweeps the leftover and reads back what a
/// clean ingest stores.
#[test]
fn a_dropping_a_rollback_leaves_behind_is_swept_by_the_next_ingest() {
    let w = ada_workload::gpcr_workload(900, 5, 63);
    let clean = rig();
    clean.ada().ingest("d", input(&w)).unwrap();
    // The SSD refuses its second create (the label, after the protein
    // dropping); the HDD its first delete (the rollback's, of `m`).
    let [ssd, hdd] = common::store();
    let ssd = Flaky::new(ssd, "create", 2..3);
    let hdd = Flaky::new(hdd, "delete", 1..2);
    let r = rig_over(ssd, hdd, 2);

    let err = r.ada().ingest("d", input(&w)).unwrap_err();
    assert!(
        matches!(err, AdaError::Fs(FsError::NoSpace { free: 0, .. })),
        "{err:?}"
    );
    assert_eq!(err.error_kind(), ErrorKind::NoSpace);
    assert!(r.ada().list_datasets().is_empty());
    assert!(!r.ssd.exists(&LabelFile::path_for("d")));
    assert_eq!(files_of(&r, "d"), [LEFTOVER]);

    r.ada().ingest("d", input(&w)).unwrap();
    assert_eq!(frame_bits(r.ada(), "d"), frame_bits(clean.ada(), "d"));
    assert_eq!(r.strays(), Vec::<String>::new());
}
