//! What an ingest stores must not depend on how it was scheduled: same
//! label file, same per-tag stored bytes, and bit-equal query payloads —
//! for every ingest-pool size, for every dropping size (one window of
//! the ingest loop each; only the per-dropping framing may differ), and
//! for guided ingest ([`Ada::ingest_guided`]) against [`Ada::ingest`].
//!
//! The ingest pool's contract sits here too, where `query_equivalence`
//! pins the decode pool's: every stored dropping is `seal_v2` of the
//! serial split of its window, two faults in one window fail with the
//! earlier chunk's, and the trace shows one decode → split per chunk on
//! the worker that ran it.

use ada_core::{
    categorize_algo1, split_trajectory, Ada, AdaConfig, AdaError, DispatchPolicy, IngestInput,
    RetrievedData,
};
use ada_mdformats::xtc::{index_frames, read_xtc, write_xtc, XtcError, DEFAULT_PRECISION};
use ada_mdformats::xtcf::{seal_v2, XTCF_DIR_ENTRY_LEN, XTCF_HEADER_LEN, XTCF_TRAILER_LEN};
use ada_mdformats::{write_pdb, FormatError, Trajectory};
use ada_mdmodel::Tag;
use ada_plfs::ContainerSet;
use ada_simfs::{LocalFs, SimFileSystem};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Hybrid SSD/HDD ADA with an explicit ingest pool and dropping size.
fn ada_with(ingest_threads: usize, frames_per_dropping: usize) -> Ada {
    let config = AdaConfig {
        ingest_threads,
        frames_per_dropping,
        ..AdaConfig::paper_prototype("ssd", "hdd")
    };
    ada_on_backends(config).0
}

/// An ADA over fresh SSD and HDD backends, and the two backends.
fn ada_on_backends(config: AdaConfig) -> (Ada, [Arc<dyn SimFileSystem>; 2]) {
    let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
    let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
    let containers = Arc::new(ContainerSet::new(vec![
        ("ssd".into(), ssd.clone()),
        ("hdd".into(), hdd.clone()),
    ]));
    (Ada::new(config, containers, ssd.clone()), [ssd, hdd])
}

struct Workload {
    pdb_text: String,
    xtc_bytes: Vec<u8>,
    nframes: usize,
}

fn workload() -> Workload {
    let w = ada_workload::gpcr_workload(1600, 7, 11);
    Workload {
        pdb_text: write_pdb(&w.system),
        xtc_bytes: write_xtc(&w.trajectory, DEFAULT_PRECISION).unwrap(),
        nframes: w.trajectory.len(),
    }
}

impl Workload {
    fn ingest(&self, ada: &Ada) -> ada_core::IngestReport {
        let input = IngestInput::Real {
            pdb_text: self.pdb_text.clone(),
            xtc_bytes: self.xtc_bytes.clone(),
        };
        ada.ingest("d", input).unwrap()
    }
}

fn query_real(ada: &Ada, dataset: &str, tag: Option<&ada_mdmodel::Tag>) -> Trajectory {
    match ada.query(dataset, tag).unwrap().data {
        RetrievedData::Real(t) => t,
        _ => unreachable!("real ingest must yield real data"),
    }
}

/// Per-dropping framing overhead of a sealed single-chunk XTCF v2 file:
/// the v1 header plus one chunk-directory entry plus the footer trailer.
/// Exact here because every dropping these tests produce holds fewer
/// frames than `AdaConfig::chunk_frames`.
const DROPPING_OVERHEAD: u64 = (XTCF_HEADER_LEN + XTCF_DIR_ENTRY_LEN + XTCF_TRAILER_LEN) as u64;

/// Every observable output of `b` equals `a`'s: label file, per-tag
/// stored bytes (modulo `extra_droppings_per_tag` sealed droppings'
/// framing), and bit-equal per-tag and untagged query payloads.
fn assert_equivalent(
    a: (&Ada, &ada_core::IngestReport),
    b: (&Ada, &ada_core::IngestReport),
    extra_droppings_per_tag: u64,
    what: &str,
) {
    let (ada_a, rep_a) = a;
    let (ada_b, rep_b) = b;
    assert_eq!(rep_a.raw_bytes, rep_b.raw_bytes, "{}: raw bytes", what);

    let label_a = ada_a.label(&rep_a.dataset).unwrap();
    let label_b = ada_b.label(&rep_b.dataset).unwrap();
    assert_eq!(label_a.natoms, label_b.natoms, "{}: label natoms", what);
    assert_eq!(label_a.nframes, label_b.nframes, "{}: label nframes", what);
    assert_eq!(label_a.tags, label_b.tags, "{}: label tag ranges", what);

    let overhead = extra_droppings_per_tag * DROPPING_OVERHEAD;
    assert_eq!(
        rep_a.bytes_by_tag.keys().collect::<Vec<_>>(),
        rep_b.bytes_by_tag.keys().collect::<Vec<_>>(),
        "{}: tag set",
        what
    );
    for (tag, &bytes_a) in &rep_a.bytes_by_tag {
        let bytes_b = rep_b.bytes_by_tag[tag];
        assert_eq!(
            bytes_a + overhead,
            bytes_b,
            "{}: stored bytes for tag {:?}",
            what,
            tag
        );
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
    let w = workload();
    // One window, and 7 frames in windows of 2, 2, 2, 1.
    for fpd in [512, 2] {
        let serial = ada_with(1, fpd);
        let rep_serial = w.ingest(&serial);
        for threads in [2, 4, 8] {
            let par = ada_with(threads, fpd);
            let rep_par = w.ingest(&par);
            // Same dropping size ⇒ same droppings ⇒ byte totals exactly equal.
            assert_equivalent(
                (&serial, &rep_serial),
                (&par, &rep_par),
                0,
                &format!("ingest threads={} fpd={}", threads, fpd),
            );
        }
    }
}

#[test]
fn dropping_size_changes_only_the_framing() {
    let w = workload();
    // frames_per_dropping ≫ nframes: one dropping per tag.
    let one = ada_with(4, 1 << 20);
    let rep_one = w.ingest(&one);

    // 3 frames per dropping on 7 frames is 3 droppings per tag, i.e. two
    // extra droppings' framing per tag over the single dropping.
    for fpd in [1, 3, w.nframes, 512] {
        let cut = ada_with(4, fpd);
        let rep_cut = w.ingest(&cut);
        let droppings_per_tag = w.nframes.div_ceil(fpd);
        assert_equivalent(
            (&one, &rep_one),
            (&cut, &rep_cut),
            droppings_per_tag as u64 - 1,
            &format!("fpd={}", fpd),
        );

        // Each tag's droppings hold `fpd` frames, the last one the rest.
        let index = cut.containers().index("d").unwrap();
        for tag in rep_cut.bytes_by_tag.keys() {
            let frames: Vec<u64> = index
                .iter()
                .filter(|r| r.tag == tag.to_string())
                .map(|r| r.frames)
                .collect();
            let expect: Vec<u64> = (0..w.nframes)
                .step_by(fpd)
                .map(|first| fpd.min(w.nframes - first) as u64)
                .collect();
            assert_eq!(frames, expect, "fpd={} tag {:?}", fpd, tag);
        }
    }
}

#[test]
fn guided_ingest_matches_batch_ingest() {
    let w = workload();
    // A second motion phase over the same structure (same seed ⇒ same
    // system), with a frame count of its own so the guided label cannot
    // get away with copying the guide's.
    let phase2 = ada_workload::gpcr_workload(1600, 5, 11);
    let xtc2 = write_xtc(&phase2.trajectory, DEFAULT_PRECISION).unwrap();
    // One window, and 5 frames in windows of 2, 2, 1.
    for (ingest_threads, fpd) in [(1, 512), (0, 512), (0, 2)] {
        let reference = ada_with(ingest_threads, fpd);
        let rep_ref = reference
            .ingest(
                "b",
                IngestInput::Real {
                    pdb_text: w.pdb_text.clone(),
                    xtc_bytes: xtc2.clone(),
                },
            )
            .unwrap();

        let guided = ada_with(ingest_threads, fpd);
        guided
            .ingest(
                "a",
                IngestInput::Real {
                    pdb_text: w.pdb_text.clone(),
                    xtc_bytes: w.xtc_bytes.clone(),
                },
            )
            .unwrap();
        let rep_guided = guided.ingest_guided("b", "a", &xtc2).unwrap();
        assert_equivalent(
            (&reference, &rep_ref),
            (&guided, &rep_guided),
            0,
            &format!("guided ingest_threads={} fpd={}", ingest_threads, fpd),
        );
    }
}

/// Whatever the pool size, the chunk size, the dropping size and the
/// policy, every stored dropping is what sealing the serial split of its
/// window makes — `seal_v2(split_trajectory(window)[tag])` — and the
/// droppings of a window are appended in backend-then-tag order.
#[test]
fn every_stored_dropping_is_the_sealed_serial_split_of_its_window() {
    let w = ada_workload::gpcr_workload(700, 7, 13);
    let pdb_text = write_pdb(&w.system);
    let xtc_bytes = write_xtc(&w.trajectory, DEFAULT_PRECISION).unwrap();
    let decoded = read_xtc(&xtc_bytes).unwrap();
    let labeler = categorize_algo1(
        &w.system,
        &AdaConfig::paper_prototype("ssd", "hdd").taxonomy,
    );
    let (p, m) = (Tag::protein(), Tag::misc());
    // "hdd" sorts before "ssd": the hybrid policy appends misc first.
    let policies = [
        (DispatchPolicy::all_to("ssd"), [(&m, "ssd"), (&p, "ssd")]),
        (
            DispatchPolicy::hybrid_gpcr("ssd", "hdd"),
            [(&m, "hdd"), (&p, "ssd")],
        ),
        (
            DispatchPolicy::hybrid_gpcr("hdd", "ssd"),
            [(&p, "hdd"), (&m, "ssd")],
        ),
    ];
    for (policy, order) in &policies {
        for frames_per_dropping in [0usize, 3] {
            for chunk_frames in [0usize, 1, 3, 100] {
                // What the serial reference stores.
                let window_len = match frames_per_dropping {
                    0 => decoded.len(),
                    n => n,
                };
                let mut expected = Vec::new();
                for window in decoded.frames.chunks(window_len) {
                    let window = Trajectory::from_frames(window.to_vec());
                    let subsets = split_trajectory(&window, &labeler).unwrap().subsets;
                    for (tag, backend) in order {
                        let natoms = labeler[*tag].count();
                        let sealed = seal_v2(subsets[*tag].clone(), natoms, chunk_frames).unwrap();
                        expected.push((tag.to_string(), backend.to_string(), window.len(), sealed));
                    }
                }
                for ingest_threads in [0usize, 1, 3, 8] {
                    let what = format!(
                        "threads {} chunk {} fpd {} policy {:?}",
                        ingest_threads, chunk_frames, frames_per_dropping, policy
                    );
                    let (ada, _) = ada_on_backends(AdaConfig {
                        policy: policy.clone(),
                        ingest_threads,
                        chunk_frames,
                        frames_per_dropping,
                        ..AdaConfig::paper_prototype("ssd", "hdd")
                    });
                    let input = IngestInput::Real {
                        pdb_text: pdb_text.clone(),
                        xtc_bytes: xtc_bytes.clone(),
                    };
                    ada.ingest("d", input).unwrap();
                    let index = ada.containers().index("d").unwrap();
                    assert_eq!(index.len(), expected.len(), "{}", what);
                    for (record, (tag, backend, frames, sealed)) in index.iter().zip(&expected) {
                        assert_eq!((&record.tag, &record.backend), (tag, backend), "{}", what);
                        assert_eq!(record.frames, *frames as u64, "{}", what);
                        let (stored, _) = ada.containers().read_dropping(record).unwrap();
                        let stored = stored.as_real().expect("real bytes");
                        assert!(stored[..] == sealed[..], "{}: dropping {:?}", what, record);
                    }
                }
            }
        }
    }
}

/// Two faults, one answer: two differently broken frames in one window —
/// both in fields the header scan skips — fail the ingest with the error
/// of the earlier chunk, whichever worker met which first, and the failed
/// ingest leaves nothing behind on any backend.
#[test]
fn two_broken_chunks_fail_with_the_earlier_chunks_error_and_store_nothing() {
    let w = ada_workload::gpcr_workload(600, 12, 17);
    let pdb_text = write_pdb(&w.system);
    let xtc = write_xtc(&w.trajectory, DEFAULT_PRECISION).unwrap();
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

    for ingest_threads in [0usize, 1, 4, 8] {
        let (ada, backends) = ada_on_backends(AdaConfig {
            ingest_threads,
            chunk_frames: 2,
            ..AdaConfig::paper_prototype("ssd", "hdd")
        });
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
        assert!(ada.containers().list_logical().is_empty());
        for fs in &backends {
            assert_eq!(fs.list(""), Vec::<String>::new());
        }
        ingest(&xtc).unwrap();
    }
}

/// The trace of a 512-frame window at the default 64 frames a chunk: one
/// `ingest.decode` and one `ingest.split` per chunk, each chunk's split
/// right after its own decode on the worker that ran both — never the
/// caller at `ingest_threads: 4`, only the caller at `0`.
#[test]
fn a_traced_ingest_shows_one_decode_and_split_per_chunk_on_its_worker() {
    let w = ada_workload::gpcr_workload(300, 512, 19);
    let pdb_text = write_pdb(&w.system);
    let xtc_bytes = write_xtc(&w.trajectory, DEFAULT_PRECISION).unwrap();
    for ingest_threads in [4usize, 0] {
        let ada = ada_with(ingest_threads, 512);
        let (ctx, root) = ada_telemetry::trace::root("test.ingest");
        let id = ctx.trace_id().expect("tracing is on by default");
        let input = IngestInput::Real {
            pdb_text: pdb_text.clone(),
            xtc_bytes: xtc_bytes.clone(),
        };
        ada.ingest_traced("d", input, &ctx).unwrap();
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
