//! What an ingest stores must not depend on how it was scheduled: same
//! label file, same per-tag stored bytes, and bit-equal query payloads —
//! for every ingest-pool size and chunk size — and however long the
//! trajectory, it is one dropping per tag.
//!
//! The ingest pool's contract sits here too, where `query_equivalence`
//! pins the decode pool's: every stored dropping is `seal_v2` of the
//! serial split of the trajectory, two faults fail with the earlier
//! chunk's, a broken last chunk leaves nothing of what the earlier chunks
//! wrote into the shared droppings, and the trace shows one decode → split
//! per chunk on the worker that ran it.

mod common;

use ada_core::{
    categorize_algo1, split_trajectory, Ada, AdaConfig, AdaError, DispatchPolicy, IngestInput,
    RetrievedData,
};
use ada_mdformats::xtc::{index_frames, read_xtc, XtcError};
use ada_mdformats::xtcf::seal_v2;
use ada_mdformats::{FormatError, Trajectory};
use ada_mdmodel::Tag;
use ada_plfs::IndexRecord;
use common::{fixture, input, Rig};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A hybrid SSD/HDD rig with an explicit ingest pool and chunk size.
fn rig_with(ingest_threads: usize, chunk_frames: usize) -> Rig {
    Rig::new(AdaConfig {
        ingest_threads,
        chunk_frames,
        ..AdaConfig::paper_prototype("ssd", "hdd")
    })
}

/// The stored droppings dataset `d`'s label records, in tag order.
fn droppings(ada: &Ada) -> Vec<IndexRecord> {
    let label = ada.label("d").unwrap();
    let entries = label.entries().values();
    entries.map(|e| e.dropping.clone()).collect()
}

fn query_real(ada: &Ada, dataset: &str, tag: Option<&ada_mdmodel::Tag>) -> Trajectory {
    match ada.query(dataset, tag).unwrap().data {
        RetrievedData::Real(t) => t,
        _ => unreachable!("real ingest must yield real data"),
    }
}

/// Every observable output of `b` equals `a`'s: label file, per-tag
/// stored bytes, and bit-equal per-tag and untagged query payloads.
fn assert_equivalent(
    a: (&Ada, &ada_core::IngestReport),
    b: (&Ada, &ada_core::IngestReport),
    what: &str,
) {
    let (ada_a, rep_a) = a;
    let (ada_b, rep_b) = b;
    assert_eq!(rep_a.raw_bytes, rep_b.raw_bytes, "{}: raw bytes", what);

    let label_a = ada_a.label(&rep_a.dataset).unwrap();
    let label_b = ada_b.label(&rep_b.dataset).unwrap();
    assert_eq!(label_a.natoms, label_b.natoms, "{}: label natoms", what);
    assert_eq!(label_a.nframes, label_b.nframes, "{}: label nframes", what);
    let ranges = |label: ada_core::LabelFile| {
        let entries = label.entries().iter();
        let ranges = entries.map(|(tag, e)| (tag.clone(), e.ranges.clone()));
        ranges.collect::<Vec<_>>()
    };
    assert_eq!(
        ranges(label_a),
        ranges(label_b),
        "{}: label tag ranges",
        what
    );

    assert_eq!(
        rep_a.bytes_by_tag.keys().collect::<Vec<_>>(),
        rep_b.bytes_by_tag.keys().collect::<Vec<_>>(),
        "{}: tag set",
        what
    );
    for (tag, &bytes_a) in &rep_a.bytes_by_tag {
        let bytes_b = rep_b.bytes_by_tag[tag];
        assert_eq!(bytes_a, bytes_b, "{}: stored bytes for tag {:?}", what, tag);
    }

    // XTCF is lossless, so delivered coordinates must be bit-equal.
    for tag in rep_a.bytes_by_tag.keys() {
        assert_eq!(
            query_real(ada_a, &rep_a.dataset, Some(tag)),
            query_real(ada_b, &rep_b.dataset, Some(tag)),
            "{}: query payload for tag {:?}",
            what,
            tag
        );
    }
    assert_eq!(
        query_real(ada_a, &rep_a.dataset, None),
        query_real(ada_b, &rep_b.dataset, None),
        "{}: untagged query payload",
        what
    );
}

#[test]
fn batch_ingest_parallel_split_matches_serial() {
    let w = ada_workload::gpcr_workload(1600, 7, 11);
    // One chunk, and 7 frames in chunks of 2, 2, 2, 1.
    for chunk_frames in [64, 2] {
        let serial = rig_with(1, chunk_frames);
        let rep_serial = serial.ada().ingest("d", input(&w)).unwrap();
        for threads in [2, 4, 8] {
            let par = rig_with(threads, chunk_frames);
            let rep_par = par.ada().ingest("d", input(&w)).unwrap();
            // Same chunk size ⇒ same droppings ⇒ byte totals exactly equal.
            assert_equivalent(
                (serial.ada(), &rep_serial),
                (par.ada(), &rep_par),
                &format!("ingest threads={} chunk={}", threads, chunk_frames),
            );
        }
    }
}

/// However long the trajectory — here 600 frames, past the benchmark's
/// 512 — the default config stores one dropping per tag holding every
/// frame: `seal_v2` of the tag's serial split, in chunks of 64.
#[test]
fn dropping_size_changes_only_the_framing() {
    let w = ada_workload::gpcr_workload(300, 600, 23);
    let whole = read_xtc(&fixture(&w).1).unwrap();
    let config = AdaConfig::paper_prototype("ssd", "hdd");
    let labeler = categorize_algo1(&w.system, &config.taxonomy);
    let split = split_trajectory(&whole, &labeler).unwrap().subsets;
    let rig = Rig::new(config);
    let ada = rig.ada();
    let report = ada.ingest("d", input(&w)).unwrap();

    let index = ada.containers().index("d").unwrap();
    assert_eq!(index.len(), labeler.len(), "one dropping per tag");
    assert_eq!(droppings(ada), index, "the label records them");
    for record in &index {
        let tag = Tag::new(record.tag.clone());
        let sealed = seal_v2(split[&tag].clone(), labeler[&tag].count(), 64).unwrap();
        let (stored, _) = ada.containers().read_dropping(record).unwrap();
        assert!(stored.bytes() == &sealed[..], "tag {}", tag);
        assert_eq!(report.bytes_by_tag[&tag], sealed.len() as u64);
    }
}

/// Whatever the pool size, the chunk size and the policy, every stored
/// dropping is what sealing the serial split of the trajectory makes —
/// `seal_v2(split_trajectory(whole)[tag])` — one per tag, on the backend
/// the policy names, and recorded in the label as the backends list them.
#[test]
fn every_stored_dropping_is_the_sealed_serial_split_of_its_window() {
    let w = ada_workload::gpcr_workload(700, 7, 13);
    let decoded = read_xtc(&fixture(&w).1).unwrap();
    let labeler = categorize_algo1(
        &w.system,
        &AdaConfig::paper_prototype("ssd", "hdd").taxonomy,
    );
    let (p, m) = (Tag::protein(), Tag::misc());
    // Per policy, each tag's backend, in tag order.
    let policies = [
        (DispatchPolicy::all_to("ssd"), [(&m, "ssd"), (&p, "ssd")]),
        (
            DispatchPolicy::hybrid_gpcr("ssd", "hdd"),
            [(&m, "hdd"), (&p, "ssd")],
        ),
        (
            DispatchPolicy::hybrid_gpcr("hdd", "ssd"),
            [(&m, "ssd"), (&p, "hdd")],
        ),
    ];
    for (policy, order) in &policies {
        for chunk_frames in [0usize, 1, 3, 100] {
            // What the serial reference stores.
            let subsets = split_trajectory(&decoded, &labeler).unwrap().subsets;
            let mut expected = Vec::new();
            for (tag, backend) in order {
                let natoms = labeler[*tag].count();
                let sealed = seal_v2(subsets[*tag].clone(), natoms, chunk_frames).unwrap();
                expected.push((tag.to_string(), backend.to_string(), sealed));
            }
            for ingest_threads in [0usize, 1, 2, 3, 8] {
                let what = format!(
                    "threads {} chunk {} policy {:?}",
                    ingest_threads, chunk_frames, policy
                );
                let rig = Rig::new(AdaConfig {
                    policy: policy.clone(),
                    ingest_threads,
                    chunk_frames,
                    ..AdaConfig::paper_prototype("ssd", "hdd")
                });
                let ada = rig.ada();
                ada.ingest("d", input(&w)).unwrap();
                let index = ada.containers().index("d").unwrap();
                assert_eq!(index.len(), expected.len(), "{}", what);
                assert_eq!(droppings(ada), index, "{}", what);
                for (record, (tag, backend, sealed)) in index.iter().zip(&expected) {
                    assert_eq!((&record.tag, &record.backend), (tag, backend), "{}", what);
                    let (stored, _) = ada.containers().read_dropping(record).unwrap();
                    let stored = stored.bytes();
                    assert!(stored[..] == sealed[..], "{}: dropping {:?}", what, record);
                }
            }
        }
    }
}

/// Two faults, one answer: two differently broken frames in one ingest —
/// both in fields the header scan skips — fail the ingest with the error
/// of the earlier chunk, whichever worker met which first, and the failed
/// ingest leaves nothing behind on any backend.
#[test]
fn two_broken_chunks_fail_with_the_earlier_chunks_error_and_store_nothing() {
    let (pdb_text, xtc) = fixture(&ada_workload::gpcr_workload(600, 12, 17));
    let spans = index_frames(&xtc).unwrap();
    // The compressed body's `precision` and `smallidx` fields, by their
    // offsets in a frame (after the 52-byte header and the atom count).
    let zero_precision = |bytes: &mut [u8], frame: usize| {
        let at = spans[frame].offset + 56;
        bytes[at..at + 4].fill(0);
    };
    let wild_smallidx = |bytes: &mut [u8], frame: usize| {
        let at = spans[frame].offset + 84;
        bytes[at..at + 4].copy_from_slice(&i32::MAX.to_be_bytes());
    };
    let is_precision = |e: &AdaError| matches!(e, AdaError::Xtc(XtcError::BadPrecision(_)));
    let is_smallidx =
        |e: &AdaError| matches!(e, AdaError::Xtc(XtcError::Format(FormatError::Corrupt(_))));

    // Two frames to a chunk: frame 3 is in chunk 1, frame 10 in chunk 5.
    let mut precision_first = xtc.clone();
    zero_precision(&mut precision_first, 3);
    wild_smallidx(&mut precision_first, 10);
    let mut smallidx_first = xtc.clone();
    wild_smallidx(&mut smallidx_first, 3);
    zero_precision(&mut smallidx_first, 10);

    for ingest_threads in [0usize, 1, 2, 4, 8] {
        let rig = Rig::new(AdaConfig {
            ingest_threads,
            chunk_frames: 2,
            ..AdaConfig::paper_prototype("ssd", "hdd")
        });
        let ada = rig.ada();
        let ingest = |xtc_bytes: &[u8]| {
            ada.ingest(
                "d",
                IngestInput::Real {
                    pdb_text: pdb_text.clone(),
                    xtc_bytes: xtc_bytes.to_vec(),
                },
            )
        };
        let err = ingest(&precision_first).unwrap_err();
        assert!(is_precision(&err), "threads {}: {:?}", ingest_threads, err);
        let err = ingest(&smallidx_first).unwrap_err();
        assert!(is_smallidx(&err), "threads {}: {:?}", ingest_threads, err);

        // Nothing of either attempt is left, and the name is free.
        assert!(ada.list_datasets().is_empty());
        assert_eq!(rig.strays(), Vec::<String>::new());
        ingest(&xtc).unwrap();
        assert_eq!(rig.strays(), Vec::<String>::new());
    }
}

/// A fault in the *last* chunk, met after every earlier chunk's worker has
/// written its records into the shared droppings, still leaves nothing:
/// no dropping, label or container on any backend, and the name is free.
#[test]
fn a_broken_last_chunk_discards_the_shared_droppings_and_frees_the_name() {
    let (pdb_text, xtc) = fixture(&ada_workload::gpcr_workload(600, 12, 29));
    // Frame 11 is the last of six 2-frame chunks; zero its precision field,
    // which the header scan skips (after the 52-byte header and the count).
    let mut broken = xtc.clone();
    let at = index_frames(&xtc).unwrap()[11].offset + 56;
    broken[at..at + 4].fill(0);
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    for ingest_threads in [0usize, 1, 2, host] {
        let rig = Rig::new(AdaConfig {
            ingest_threads,
            chunk_frames: 2,
            ..AdaConfig::paper_prototype("ssd", "hdd")
        });
        let ada = rig.ada();
        let input = |xtc_bytes: &[u8]| IngestInput::Real {
            pdb_text: pdb_text.clone(),
            xtc_bytes: xtc_bytes.to_vec(),
        };
        let (ctx, root) = ada.flight_recorder().root("test.ingest");
        let id = ctx.trace_id().expect("tracing is on by default");
        let err = ada.ingest_traced("d", input(&broken), &ctx).unwrap_err();
        drop(root);
        assert!(
            matches!(err, AdaError::Xtc(XtcError::BadPrecision(_))),
            "threads {}: {:?}",
            ingest_threads,
            err
        );
        // Every other chunk was split — its records written in place —
        // before the request failed.
        let trace = ada.flight_recorder().all().into_iter().find(|t| t.id == id);
        let trace = trace.expect("the failed request's trace was sealed");
        let splits = trace.spans.iter().filter(|s| s.name == "ingest.split");
        assert_eq!(splits.count(), 5, "threads {}", ingest_threads);

        assert!(ada.list_datasets().is_empty());
        assert_eq!(rig.strays(), Vec::<String>::new());
        ada.ingest("d", input(&xtc)).unwrap();
        assert_eq!(ada.label("d").unwrap().nframes, 12);
        assert_eq!(rig.strays(), Vec::<String>::new());
    }
}

/// The trace of a 512-frame ingest at the default 64 frames a chunk: one
/// `ingest.decode` and one `ingest.split` per chunk, each chunk's split
/// right after its own decode on the worker that ran both — never the
/// caller at `ingest_threads: 4`, only the caller at `0`.
#[test]
fn a_traced_ingest_shows_one_decode_and_split_per_chunk_on_its_worker() {
    let w = ada_workload::gpcr_workload(300, 512, 19);
    for ingest_threads in [4usize, 0] {
        let rig = rig_with(ingest_threads, 64);
        let ada = rig.ada();
        let (ctx, root) = ada.flight_recorder().root("test.ingest");
        let id = ctx.trace_id().expect("tracing is on by default");
        ada.ingest_traced("d", input(&w), &ctx).unwrap();
        drop(root);
        let trace = ada.flight_recorder().all().into_iter().find(|t| t.id == id);
        let trace = trace.expect("the trace was just sealed");

        let caller = &trace.root().expect("root span").thread;
        let mut by_thread: BTreeMap<Arc<str>, Vec<_>> = BTreeMap::new();
        for s in &trace.spans {
            if s.name == "ingest.decode" || s.name == "ingest.split" {
                by_thread.entry(s.thread.clone()).or_default().push(s);
            }
        }
        let (mut decodes, mut splits) = (0, 0);
        for spans in by_thread.values_mut() {
            // A worker's spans alternate: a chunk's decode, then its split.
            spans.sort_by_key(|s| s.start_ns);
            for pair in spans.chunks(2) {
                assert_eq!(
                    (pair[0].name, pair[1].name),
                    ("ingest.decode", "ingest.split")
                );
                assert!(pair[1].start_ns >= pair[0].end_ns);
                assert_eq!(pair[0].arg_u64("frames"), Some(64));
                assert_eq!(pair[1].arg_u64("frames"), Some(64));
                decodes += 1;
                splits += 1;
            }
        }
        assert_eq!((decodes, splits), (8, 8), "threads {}", ingest_threads);
        if ingest_threads == 0 {
            assert!(trace.spans.iter().all(|s| &s.thread == caller));
        } else {
            assert!(
                !by_thread.contains_key(caller),
                "no chunk runs on the caller"
            );
            assert!(by_thread.len() <= ingest_threads);
        }
    }
}
