//! The parallel query pipeline must be observably identical to the serial
//! reference retrieval (`query_threads = 0`): bit-equal trajectories for
//! full-frame and per-tag queries, identical simulated read costs, and the
//! same typed errors under injected faults — on single- and multi-dropping
//! datasets, real and synthetic.

use ada_core::{Ada, AdaConfig, AdaError, IngestInput, RetrievedData};
use ada_mdformats::xtc::{write_xtc, DEFAULT_PRECISION};
use ada_mdformats::xtcf::{parse_directory, seal_v2, write_xtcf, XTCF_TRAILER_LEN};
use ada_mdformats::{write_pdb, FormatError, Frame, Trajectory};
use ada_mdmodel::{PbcBox, Tag};
use ada_plfs::ContainerSet;
use ada_simfs::{Content, LocalFs, SimFileSystem};
use proptest::prelude::*;
use std::sync::Arc;

struct Rig {
    ada: Ada,
    ssd: Arc<dyn SimFileSystem>,
    hdd: Arc<dyn SimFileSystem>,
}

/// Hybrid SSD/HDD ADA with explicit query parallelism knobs.
fn rig(query_threads: usize, frames_per_dropping: usize) -> Rig {
    rig_chunked(query_threads, frames_per_dropping, 64)
}

fn rig_chunked(query_threads: usize, frames_per_dropping: usize, chunk_frames: usize) -> Rig {
    let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
    let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
    let containers = Arc::new(ContainerSet::new(vec![
        ("ssd".into(), ssd.clone()),
        ("hdd".into(), hdd.clone()),
    ]));
    let config = AdaConfig {
        query_threads,
        frames_per_dropping,
        chunk_frames,
        ..AdaConfig::paper_prototype("ssd", "hdd")
    };
    Rig {
        ada: Ada::new(config, containers, ssd.clone()),
        ssd,
        hdd,
    }
}

fn ingest_real(ada: &Ada, name: &str, natoms: usize, nframes: usize, seed: u64) {
    let w = ada_workload::gpcr_workload(natoms, nframes, seed);
    ada.ingest(
        name,
        IngestInput::Real {
            pdb_text: write_pdb(&w.system),
            xtc_bytes: write_xtc(&w.trajectory, DEFAULT_PRECISION).unwrap(),
        },
    )
    .unwrap();
}

fn query_real(ada: &Ada, dataset: &str, tag: Option<&Tag>) -> Trajectory {
    match ada.query(dataset, tag).unwrap().data {
        RetrievedData::Real(t) => t,
        _ => unreachable!("real ingest must yield real data"),
    }
}

/// Every query observable of `par` equals `ser`'s: bit-equal full-frame
/// and per-tag trajectories plus identical simulated indexer/read costs.
fn assert_queries_equivalent(ser: &Ada, par: &Ada, dataset: &str, what: &str) {
    let tags = ser.tags(dataset).unwrap();
    assert_eq!(tags, par.tags(dataset).unwrap(), "{}: tag set", what);
    for tag in tags.iter().map(Some).chain([None]) {
        let a = ser.query(dataset, tag).unwrap();
        let b = par.query(dataset, tag).unwrap();
        assert_eq!(
            a.indexer, b.indexer,
            "{}: indexer cost, tag {:?}",
            what, tag
        );
        assert_eq!(a.read, b.read, "{}: read cost, tag {:?}", what, tag);
        match (a.data, b.data) {
            (RetrievedData::Real(ta), RetrievedData::Real(tb)) => {
                // XTCF is lossless: delivered coordinates are bit-equal.
                assert_eq!(ta, tb, "{}: trajectory, tag {:?}", what, tag);
            }
            (RetrievedData::Synthetic { bytes: ba }, RetrievedData::Synthetic { bytes: bb }) => {
                assert_eq!(ba, bb, "{}: synthetic, tag {:?}", what, tag);
            }
            _ => panic!("{}: serial and parallel modes disagree", what),
        }
    }
}

#[test]
fn parallel_matches_serial_on_multi_dropping_real_dataset() {
    // 7 frames / 2 per dropping = 4 droppings per tag, spread over both
    // backends — the pipeline has real fan-out to get wrong.
    let ser = rig(0, 2);
    ingest_real(&ser.ada, "d", 1600, 7, 11);
    for threads in [1, 2, 4, 8] {
        let par = rig(threads, 2);
        ingest_real(&par.ada, "d", 1600, 7, 11);
        assert_queries_equivalent(
            &ser.ada,
            &par.ada,
            "d",
            &format!("query_threads={}", threads),
        );
    }
}

#[test]
fn parallel_matches_serial_on_single_dropping_real_dataset() {
    let ser = rig(0, 512);
    ingest_real(&ser.ada, "d", 900, 3, 21);
    let par = rig(4, 512);
    ingest_real(&par.ada, "d", 900, 3, 21);
    assert_queries_equivalent(&ser.ada, &par.ada, "d", "single dropping");
}

#[test]
fn parallel_matches_serial_on_synthetic_dataset() {
    let spec = ada_core::SyntheticDataset::gpcr_paper(64);
    let ser = rig(0, 512);
    ser.ada
        .ingest("syn", IngestInput::Synthetic(spec.clone()))
        .unwrap();
    let par = rig(4, 512);
    par.ada.ingest("syn", IngestInput::Synthetic(spec)).unwrap();
    assert_queries_equivalent(&ser.ada, &par.ada, "syn", "synthetic");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property sweep: any workload shape and thread count delivers the
    /// serial payload.
    #[test]
    fn parallel_query_is_serial_query(
        natoms in 200usize..1200,
        nframes in 1usize..9,
        frames_per_dropping in 1usize..4,
        threads in 1usize..6,
        seed in 0u64..1000,
    ) {
        let ser = rig(0, frames_per_dropping);
        ingest_real(&ser.ada, "d", natoms, nframes, seed);
        let par = rig(threads, frames_per_dropping);
        ingest_real(&par.ada, "d", natoms, nframes, seed);
        for tag in [Some(Tag::protein()), Some(Tag::misc()), None] {
            let a = query_real(&ser.ada, "d", tag.as_ref());
            let b = query_real(&par.ada, "d", tag.as_ref());
            prop_assert_eq!(a, b);
        }
    }
}

/// Clobber one protein dropping of `r` in place with junk bytes.
fn corrupt_protein_dropping(r: &Rig) -> String {
    let paths = r.ssd.list("ssd/d/hostdir.0/");
    let dropping = paths
        .iter()
        .find(|p| p.contains("dropping.data.p"))
        .expect("protein dropping exists")
        .clone();
    let len = r.ssd.stat(&dropping).unwrap().len;
    r.ssd.delete(&dropping).unwrap();
    r.ssd
        .create(&dropping, Content::real(vec![0x5Au8; len as usize]))
        .unwrap();
    dropping
}

#[test]
fn corrupt_dropping_yields_xtcf_error_on_both_paths() {
    for threads in [0, 4] {
        let r = rig(threads, 2);
        ingest_real(&r.ada, "d", 900, 5, 31);
        let dropping = corrupt_protein_dropping(&r);
        for tag in [Some(Tag::protein()), None] {
            let err = r.ada.query("d", tag.as_ref()).unwrap_err();
            assert!(
                matches!(err, AdaError::Xtcf { .. }),
                "threads={} tag={:?}: got {:?}",
                threads,
                tag,
                err
            );
            assert_eq!(err.kind(), "xtcf");
            assert!(err.to_string().contains(&dropping), "got {}", err);
            assert!(std::error::Error::source(&err).is_some());
        }
        // The MISC subset never touches the corrupt dropping.
        assert!(r.ada.query("d", Some(&Tag::misc())).is_ok());
    }
}

/// Rewrite one protein dropping with a prefix of its own bytes — a
/// mid-frame truncation, the classic partial-write corruption.
fn truncate_protein_dropping(r: &Rig, keep: usize) -> String {
    let paths = r.ssd.list("ssd/d/hostdir.0/");
    let dropping = paths
        .iter()
        .find(|p| p.contains("dropping.data.p"))
        .expect("protein dropping exists")
        .clone();
    let len = r.ssd.stat(&dropping).unwrap().len as usize;
    r.ssd.delete(&dropping).unwrap();
    r.ssd
        .create(&dropping, Content::real(vec![0x5Au8; keep.min(len)]))
        .unwrap();
    dropping
}

/// Satellite regression for the panic burn-down: malformed droppings of
/// several shapes (truncated mid-frame, zero-length) fed through the
/// parallel query pipeline must surface as structured `AdaError`s — never
/// as a worker panic — and must leave the `Ada` instance fully usable
/// (a panicking worker would poison the stage channels instead).
#[test]
fn malformed_dropping_in_parallel_query_is_a_structured_error_not_a_panic() {
    for (what, keep) in [("truncated", 40usize), ("zero-length", 0usize)] {
        for threads in [0, 1, 4, 8] {
            let r = rig(threads, 2);
            ingest_real(&r.ada, "d", 1200, 6, 61);
            truncate_protein_dropping(&r, keep);

            for tag in [Some(Tag::protein()), None] {
                // `unwrap_err` both asserts failure and proves no panic
                // escaped the pipeline (a panic would abort this test).
                let err = r.ada.query("d", tag.as_ref()).unwrap_err();
                assert!(
                    !err.kind().is_empty() && err.kind() != "internal",
                    "{} threads={} tag={:?}: want a decode/read error, got {:?} ({})",
                    what,
                    threads,
                    tag,
                    err,
                    err.kind()
                );
                assert!(!err.to_string().is_empty());
            }

            // The pipeline survived: untouched subsets still retrieve, so
            // no stage thread died holding a channel.
            assert!(
                r.ada.query("d", Some(&Tag::misc())).is_ok(),
                "{} threads={}: pipeline unusable after failed query",
                what,
                threads
            );
            // And the instance still ingests + queries fresh datasets.
            ingest_real(&r.ada, "d2", 600, 3, 62);
            assert!(r.ada.query("d2", None).is_ok());
        }
    }
}

#[test]
fn failed_queries_do_not_bump_access_counters() {
    for threads in [0, 4] {
        let r = rig(threads, 2);
        ingest_real(&r.ada, "d", 900, 4, 41);

        // Unknown tag: rejected before any retrieval.
        r.ada.query("d", Some(&Tag::new("zz"))).unwrap_err();
        assert!(
            r.ada.access_counts("d").is_empty(),
            "threads={}: unknown-tag query counted",
            threads
        );

        // Corrupt dropping: retrieval starts but fails — still no count.
        corrupt_protein_dropping(&r);
        r.ada.query("d", None).unwrap_err();
        r.ada.query("d", Some(&Tag::protein())).unwrap_err();
        assert!(
            r.ada.access_counts("d").is_empty(),
            "threads={}: failed query counted",
            threads
        );

        // A successful query is the first (and only) thing counted.
        r.ada.query("d", Some(&Tag::misc())).unwrap();
        let counts = r.ada.access_counts("d");
        assert_eq!(counts.get(&Tag::misc()), Some(&1));
        assert_eq!(counts.get(&Tag::protein()), None);
    }
}

#[test]
fn frame_count_mismatch_is_a_structured_error() {
    for threads in [0, 4] {
        let r = rig(threads, 512);
        ingest_real(&r.ada, "d", 900, 3, 51);

        // Splice in a foreign protein dropping, sealed and indexed as
        // ingest would: one extra well-formed frame, so tag `p` now
        // decodes 4 frames while the label (and tag `m`) say 3. Before the
        // mismatch check, full-frame reassembly silently truncated to the
        // shortest subset.
        let label = r.ada.label("d").unwrap();
        let p_atoms = label.ranges(&Tag::protein()).unwrap().count();
        let extra = Trajectory::from_frames(vec![Frame {
            step: 99,
            time: 9.9,
            pbc: PbcBox::zero(),
            coords: vec![[1.0, 2.0, 3.0]; p_atoms],
        }]);
        let sealed = seal_v2(write_xtcf(&extra).unwrap(), p_atoms, 64).unwrap();
        r.ada
            .containers()
            .append_tagged_frames("d", "p", "ssd", Content::real(sealed), 1)
            .unwrap();

        let err = r.ada.query("d", None).unwrap_err();
        match &err {
            AdaError::FrameCountMismatch { tag, expected, got } => {
                assert_eq!(tag, "p", "threads={}", threads);
                assert_eq!(*expected, 3, "threads={}", threads);
                assert_eq!(*got, 4, "threads={}", threads);
            }
            other => panic!(
                "threads={}: expected FrameCountMismatch, got {:?}",
                threads, other
            ),
        }
        assert_eq!(err.kind(), "frame_count_mismatch");
        // The failed reassembly never counted as an access.
        assert!(r.ada.access_counts("d").is_empty());
        // Per-tag queries still deliver the subsets verbatim.
        assert_eq!(query_real(&r.ada, "d", Some(&Tag::protein())).len(), 4);
        assert_eq!(query_real(&r.ada, "d", Some(&Tag::misc())).len(), 3);
    }
}

/// Two faults in one request. Twelve frames sealed four to a dropping and
/// two to a chunk: three protein droppings of two chunks each, so a fault
/// has a (dropping, chunk) position to be ordered by.
fn two_fault_rig(query_threads: usize) -> (Rig, Vec<String>) {
    let r = rig_chunked(query_threads, 4, 2);
    ingest_real(&r.ada, "d", 900, 12, 71);
    let mut protein: Vec<_> = r
        .ada
        .containers()
        .index("d")
        .unwrap()
        .into_iter()
        .filter(|rec| rec.tag == "p")
        .collect();
    protein.sort_by_key(|rec| rec.logical_offset);
    let paths: Vec<String> = protein.into_iter().map(|rec| rec.dropping_path).collect();
    assert_eq!(paths.len(), 3);
    (r, paths)
}

/// Rewrite the dropping at `path` with `mutate` applied to its bytes.
fn mutate_dropping(r: &Rig, path: &str, mutate: impl FnOnce(&mut Vec<u8>)) {
    let fs = if path.starts_with("hdd/") {
        &r.hdd
    } else {
        &r.ssd
    };
    let (content, _) = fs.read(path).unwrap();
    let mut bytes = content.as_real().expect("real dropping").to_vec();
    mutate(&mut bytes);
    fs.delete(path).unwrap();
    fs.create(path, Content::real(bytes)).unwrap();
}

/// Flip one byte inside the body of chunk `chunk`.
fn flip_in_chunk(chunk: usize) -> impl FnOnce(&mut Vec<u8>) {
    move |b| {
        let dir = parse_directory(b).unwrap().expect("sealed v2");
        b[dir.entries[chunk].offset as usize + 5] ^= 0xFF;
    }
}

/// Break the protein droppings with `faults`, then require the tagged and
/// the untagged query to fail, at every thread count, with exactly the
/// error the serial reference returns — and the tagged one with `expect`.
fn assert_two_faults_one_answer(
    what: &str,
    faults: impl Fn(&Rig, &[String]),
    expect: impl Fn(&AdaError, &[String]) -> bool,
) {
    let mut reference: Vec<String> = Vec::new();
    for threads in [0, 1, 4, 8] {
        let (r, paths) = two_fault_rig(threads);
        faults(&r, &paths);
        let mut got = Vec::new();
        for tag in [Some(Tag::protein()), None] {
            let err = r.ada.query("d", tag.as_ref()).unwrap_err();
            if tag.is_some() {
                assert!(
                    expect(&err, &paths),
                    "{} threads={}: {:?}",
                    what,
                    threads,
                    err
                );
            }
            got.push(format!("{:?}", err));
        }
        if threads == 0 {
            reference = got;
        } else {
            assert_eq!(got, reference, "{} threads={}", what, threads);
        }
    }
}

fn is_chunk_corrupt(err: &AdaError, path: &str, chunk: usize) -> bool {
    matches!(err, AdaError::Xtcf { dropping, source: FormatError::ChunkCorrupt { chunk: c, .. } }
        if dropping == path && *c == chunk)
}

#[test]
fn a_lost_dropping_outranks_an_earlier_corrupt_chunk() {
    // Everything is fetched before anything is decoded, so the fetch
    // failure is the request's error however early the decode fault sits.
    assert_two_faults_one_answer(
        "lost + corrupt",
        |r, paths| {
            mutate_dropping(r, &paths[0], flip_in_chunk(1));
            r.ssd.delete(&paths[2]).unwrap();
        },
        |err, paths| matches!(err.kind(), "fs" | "plfs") && err.to_string().contains(&paths[2]),
    );
}

#[test]
fn two_corrupt_chunks_fail_with_the_lower_dropping_and_chunk() {
    // The later dropping's fault has the lower chunk id: (dropping, chunk)
    // orders by dropping first.
    assert_two_faults_one_answer(
        "corrupt + corrupt",
        |r, paths| {
            mutate_dropping(r, &paths[0], flip_in_chunk(1));
            mutate_dropping(r, &paths[1], flip_in_chunk(0));
        },
        |err, paths| is_chunk_corrupt(err, &paths[0], 1),
    );
}

#[test]
fn an_earlier_corrupt_chunk_outranks_a_later_broken_directory() {
    // A dropping that cannot be planned ranks as its own chunk 0: behind
    // every fault of an earlier dropping.
    assert_two_faults_one_answer(
        "corrupt + truncated directory",
        |r, paths| {
            mutate_dropping(r, &paths[0], flip_in_chunk(1));
            mutate_dropping(r, &paths[2], |b| {
                let t = b.len() - XTCF_TRAILER_LEN;
                b[t..t + 4].copy_from_slice(&0xFFFFu32.to_le_bytes());
            });
        },
        |err, paths| is_chunk_corrupt(err, &paths[0], 1),
    );
}

#[test]
fn across_tags_the_lower_window_and_chunk_fails_first() {
    // A corrupt chunk 1 in tag `m`'s first dropping, a corrupt chunk 0 in
    // tag `p`'s. `m`'s dropping comes first in logical order (dispatch
    // sorts by backend name, `hdd` before `ssd`), but the untagged answer
    // is written a (window, chunk) at a time across its tags, so it fails
    // with `p`'s chunk 0 — at every thread count.
    for threads in [0, 1, 4, 8] {
        let r = rig_chunked(threads, 4, 2);
        ingest_real(&r.ada, "d", 900, 12, 71);
        let first = |tag: &str| {
            let mut records: Vec<_> = r.ada.containers().index("d").unwrap();
            records.retain(|rec| rec.tag == tag);
            records.sort_by_key(|rec| rec.logical_offset);
            records.swap_remove(0)
        };
        let (m, p) = (first("m"), first("p"));
        assert!(m.logical_offset < p.logical_offset);
        mutate_dropping(&r, &m.dropping_path, flip_in_chunk(1));
        mutate_dropping(&r, &p.dropping_path, flip_in_chunk(0));
        let err = r.ada.query("d", None).unwrap_err();
        assert!(
            is_chunk_corrupt(&err, &p.dropping_path, 0),
            "threads={}: {:?}",
            threads,
            err
        );
        // Each tag alone fails with its own fault.
        let err = r.ada.query("d", Some(&Tag::misc())).unwrap_err();
        assert!(is_chunk_corrupt(&err, &m.dropping_path, 1), "{:?}", err);
    }
}
