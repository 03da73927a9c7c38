//! The parallel query pipeline must be observably identical to the serial
//! reference retrieval (`query_threads = 0`): bit-equal trajectories for
//! full-frame and per-tag queries, identical simulated read costs, and the
//! same typed errors under injected faults — on single- and multi-chunk
//! datasets.

mod common;

use ada_core::{Ada, AdaConfig, AdaError, ErrorKind, RetrievedData};
use ada_mdformats::xtcf::{parse_directory, read_xtcf, seal_v2, write_xtcf, XTCF_TRAILER_LEN};
use ada_mdformats::{FormatError, Frame, Trajectory};
use ada_mdmodel::{PbcBox, Tag};
use ada_simfs::{Content, FsError};
use common::Rig;
use proptest::prelude::*;

/// Hybrid SSD/HDD ADA with an explicit query pool, sealing its droppings
/// in the default chunks of 64 frames.
fn rig(query_threads: usize) -> Rig {
    rig_chunked(query_threads, 64)
}

fn rig_chunked(query_threads: usize, chunk_frames: usize) -> Rig {
    Rig::new(AdaConfig {
        query_threads,
        chunk_frames,
        ..AdaConfig::paper_prototype("ssd", "hdd")
    })
}

fn ingest_real(ada: &Ada, name: &str, natoms: usize, nframes: usize, seed: u64) {
    let w = ada_workload::gpcr_workload(natoms, nframes, seed);
    ada.ingest(name, common::input(&w)).unwrap();
}

/// Every `ada.{op}.*` outcome `ada` counted so far, as `"{op}.ok={n}"` /
/// `"{op}.err.{kind}={n}"`, in name order: which calls counted as a
/// success, and which as a failure of what kind.
fn outcomes(ada: &Ada) -> Vec<String> {
    let mut snap = ada_telemetry::Snapshot::default();
    ada.write_metrics(&mut snap);
    let counters = snap.counters.iter();
    counters
        .filter_map(|(name, n)| Some(format!("{}={n}", name.strip_prefix("ada.")?)))
        .collect()
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
    let tags = ser.label(dataset).unwrap().all_tags();
    let par_tags = par.label(dataset).unwrap().all_tags();
    assert_eq!(tags, par_tags, "{}: tag set", what);
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
            _ => panic!("{}: serial and parallel modes disagree", what),
        }
    }
}

#[test]
fn parallel_matches_serial_on_multi_dropping_real_dataset() {
    // One dropping per tag on each backend, 7 frames / 2 per chunk = 4
    // chunks each — the pipeline has real fan-out to get wrong.
    let ser = rig_chunked(0, 2);
    ingest_real(ser.ada(), "d", 1600, 7, 11);
    for threads in [1, 2, 4, 8] {
        let par = rig_chunked(threads, 2);
        ingest_real(par.ada(), "d", 1600, 7, 11);
        assert_queries_equivalent(
            ser.ada(),
            par.ada(),
            "d",
            &format!("query_threads={}", threads),
        );
    }
}

#[test]
fn parallel_matches_serial_on_single_dropping_real_dataset() {
    let ser = rig(0);
    ingest_real(ser.ada(), "d", 900, 3, 21);
    let par = rig(4);
    ingest_real(par.ada(), "d", 900, 3, 21);
    assert_queries_equivalent(ser.ada(), par.ada(), "d", "single dropping");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property sweep: any workload shape and thread count delivers the
    /// serial payload.
    #[test]
    fn parallel_query_is_serial_query(
        natoms in 200usize..1200,
        nframes in 1usize..9,
        chunk_frames in 1usize..4,
        threads in 1usize..6,
        seed in 0u64..1000,
    ) {
        let ser = rig_chunked(0, chunk_frames);
        ingest_real(ser.ada(), "d", natoms, nframes, seed);
        let par = rig_chunked(threads, chunk_frames);
        ingest_real(par.ada(), "d", natoms, nframes, seed);
        for tag in [Some(Tag::protein()), Some(Tag::misc()), None] {
            let a = query_real(ser.ada(), "d", tag.as_ref());
            let b = query_real(par.ada(), "d", tag.as_ref());
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
        let r = rig_chunked(threads, 2);
        ingest_real(r.ada(), "d", 900, 5, 31);
        let dropping = corrupt_protein_dropping(&r);
        for tag in [Some(Tag::protein()), None] {
            let err = r.ada().query("d", tag.as_ref()).unwrap_err();
            assert!(
                matches!(err, AdaError::Xtcf { .. }),
                "threads={} tag={:?}: got {:?}",
                threads,
                tag,
                err
            );
            assert_eq!(err.error_kind(), ErrorKind::Corrupt);
            assert!(err.to_string().contains(&dropping), "got {}", err);
            assert!(std::error::Error::source(&err).is_some());
        }
        // The MISC subset never touches the corrupt dropping.
        assert!(r.ada().query("d", Some(&Tag::misc())).is_ok());
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
            let r = rig_chunked(threads, 2);
            ingest_real(r.ada(), "d", 1200, 6, 61);
            truncate_protein_dropping(&r, keep);

            for tag in [Some(Tag::protein()), None] {
                // `unwrap_err` both asserts failure and proves no panic
                // escaped the pipeline (a panic would abort this test).
                let err = r.ada().query("d", tag.as_ref()).unwrap_err();
                assert!(
                    err.error_kind() != ErrorKind::Internal,
                    "{} threads={} tag={:?}: want a decode/read error, got {:?} ({:?})",
                    what,
                    threads,
                    tag,
                    err,
                    err.error_kind()
                );
                assert!(!err.to_string().is_empty());
            }

            // The pipeline survived: untouched subsets still retrieve, so
            // no stage thread died holding a channel.
            assert!(
                r.ada().query("d", Some(&Tag::misc())).is_ok(),
                "{} threads={}: pipeline unusable after failed query",
                what,
                threads
            );
            // And the instance still ingests + queries fresh datasets.
            ingest_real(r.ada(), "d2", 600, 3, 62);
            assert!(r.ada().query("d2", None).is_ok());
        }
    }
}

#[test]
fn failed_queries_do_not_bump_access_counters() {
    for threads in [0, 4] {
        let r = rig_chunked(threads, 2);
        ingest_real(r.ada(), "d", 900, 4, 41);

        // Unknown tag: rejected before any retrieval.
        r.ada().query("d", Some(&Tag::new("zz"))).unwrap_err();
        assert_eq!(
            outcomes(r.ada()),
            ["ingest.ok=1", "query.err.unknown_tag=1"],
            "threads={}: unknown-tag query counted as a success",
            threads
        );

        // Corrupt dropping: retrieval starts but fails — still no count.
        corrupt_protein_dropping(&r);
        r.ada().query("d", None).unwrap_err();
        r.ada().query("d", Some(&Tag::protein())).unwrap_err();
        let failed = [
            "ingest.ok=1",
            "query.err.corrupt=2",
            "query.err.unknown_tag=1",
        ];
        assert_eq!(
            outcomes(r.ada()),
            failed,
            "threads={}: failed query counted as a success",
            threads
        );

        // A successful query is the first (and only) success counted.
        r.ada().query("d", Some(&Tag::misc())).unwrap();
        let mut counted = failed.to_vec();
        counted.push("query.ok=1");
        assert_eq!(outcomes(r.ada()), counted, "threads={}", threads);
    }
}

#[test]
fn frame_count_mismatch_is_a_structured_error() {
    for threads in [0, 4] {
        let r = rig_chunked(threads, 3);
        ingest_real(r.ada(), "d", 900, 3, 51);

        // Re-seal the protein dropping, as ingest would, with one extra
        // well-formed frame in a chunk of its own: tag `p` now decodes 4
        // frames while the label (and tag `m`) say 3. Before the mismatch
        // check, full-frame reassembly silently truncated to the shortest
        // subset.
        let label = r.ada().label("d").unwrap();
        let p_atoms = label.ranges(&Tag::protein()).unwrap().count();
        let path = r
            .ssd
            .list("ssd/d/hostdir.0/")
            .into_iter()
            .find(|p| p.contains("dropping.data.p"))
            .expect("protein dropping exists");
        mutate_dropping(&r, &path, |b| {
            let mut frames = read_xtcf(b).unwrap();
            frames.frames.push(Frame {
                step: 99,
                time: 9.9,
                pbc: PbcBox::zero(),
                coords: vec![[1.0, 2.0, 3.0]; p_atoms],
            });
            *b = seal_v2(write_xtcf(&frames).unwrap(), p_atoms, 3).unwrap();
        });

        let err = r.ada().query("d", None).unwrap_err();
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
        assert_eq!(err.error_kind(), ErrorKind::Corrupt);
        // The failed reassembly never counted as a success.
        assert_eq!(outcomes(r.ada()), ["ingest.ok=1", "query.err.corrupt=1"]);
        // Per-tag queries still deliver the subsets verbatim.
        assert_eq!(query_real(r.ada(), "d", Some(&Tag::protein())).len(), 4);
        assert_eq!(query_real(r.ada(), "d", Some(&Tag::misc())).len(), 3);
    }
}

/// Two faults in one request. Twelve frames sealed two to a chunk: one
/// dropping per tag — `m`'s on the HDD first in label order, then
/// `p`'s — of six chunks each, so a fault has a chunk position to be
/// ordered by. The dropping paths, in label order.
fn two_fault_rig(query_threads: usize) -> (Rig, Vec<String>) {
    let r = rig_chunked(query_threads, 2);
    ingest_real(r.ada(), "d", 900, 12, 71);
    let label = r.ada().label("d").unwrap();
    let entries = label.entries().values();
    let records: Vec<_> = entries.map(|e| e.dropping.clone()).collect();
    let tags: Vec<&str> = records.iter().map(|rec| rec.tag.as_str()).collect();
    assert_eq!(tags, ["m", "p"]);
    let paths = records.into_iter().map(|rec| rec.dropping_path).collect();
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
    let mut bytes = content.bytes().to_vec();
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

/// Break the droppings with `faults`, then require the protein and the
/// untagged query to fail, at every thread count, with exactly the error
/// the serial reference returns — and with `expect`.
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
            let err = r.ada().query("d", tag.as_ref()).unwrap_err();
            assert!(
                expect(&err, &paths),
                "{} threads={} tag={:?}: {:?}",
                what,
                threads,
                tag,
                err
            );
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
    // failure of `p` is the request's error however early the decode
    // fault in `m` sits.
    assert_two_faults_one_answer(
        "lost p + corrupt m",
        |r, paths| {
            mutate_dropping(r, &paths[0], flip_in_chunk(0));
            r.ssd.delete(&paths[1]).unwrap();
        },
        |err, paths| {
            // Both faults are `corrupt`: the lost dropping is the one named.
            matches!(err, AdaError::Fs(FsError::NotFound(p)) if *p == paths[1])
                && err.error_kind() == ErrorKind::Corrupt
        },
    );
}

#[test]
fn two_corrupt_chunks_fail_with_the_lower_chunk() {
    // Two corrupt chunks of one dropping: the lower chunk id is the
    // request's error, whichever worker met which first.
    assert_two_faults_one_answer(
        "corrupt + corrupt",
        |r, paths| {
            mutate_dropping(r, &paths[1], flip_in_chunk(4));
            mutate_dropping(r, &paths[1], flip_in_chunk(1));
        },
        |err, paths| is_chunk_corrupt(err, &paths[1], 1),
    );
}

#[test]
fn a_broken_directory_outranks_an_earlier_corrupt_chunk() {
    // A dropping that cannot be planned ranks ahead of the unit its first
    // frame falls in — and every dropping starts at frame 0 — so `p`'s
    // broken directory fails the request ahead of the corrupt chunk 0 of
    // `m`, the dropping before it in logical and label order.
    assert_two_faults_one_answer(
        "corrupt m + truncated p directory",
        |r, paths| {
            mutate_dropping(r, &paths[0], flip_in_chunk(0));
            mutate_dropping(r, &paths[1], |b| {
                let t = b.len() - XTCF_TRAILER_LEN;
                b[t..t + 4].copy_from_slice(&0xFFFFu32.to_le_bytes());
            });
        },
        |err, paths| {
            matches!(err, AdaError::Xtcf { dropping, source: FormatError::Corrupt(why) }
                if dropping == &paths[1] && why.contains("truncated chunk directory"))
        },
    );
}

#[test]
fn across_tags_the_lower_chunk_fails_first() {
    // A corrupt chunk 1 in tag `m`'s dropping, a corrupt chunk 0 in tag
    // `p`'s. `m`'s dropping comes first in label order, but the untagged
    // answer is written a chunk at a time across its tags, so it fails
    // with `p`'s chunk 0 — at every thread count.
    for threads in [0, 1, 4, 8] {
        let (r, paths) = two_fault_rig(threads);
        let (m, p) = (&paths[0], &paths[1]);
        mutate_dropping(&r, m, flip_in_chunk(1));
        mutate_dropping(&r, p, flip_in_chunk(0));
        let err = r.ada().query("d", None).unwrap_err();
        assert!(
            is_chunk_corrupt(&err, p, 0),
            "threads={}: {:?}",
            threads,
            err
        );
        // Each tag alone fails with its own fault.
        let err = r.ada().query("d", Some(&Tag::misc())).unwrap_err();
        assert!(is_chunk_corrupt(&err, m, 1), "{:?}", err);
    }
}
