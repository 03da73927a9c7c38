//! Pipelined ingest must be observably identical to the serial baseline:
//! same label file, same per-tag stored bytes, and bit-equal query
//! payloads — for every split-thread count, for the batch path
//! ([`Ada::ingest`]), the streaming pipeline ([`Ada::ingest_streaming`])
//! and guided ingest ([`Ada::ingest_guided`]).

use ada_core::{Ada, AdaConfig, IngestInput, RetrievedData};
use ada_mdformats::xtc::{write_xtc, DEFAULT_PRECISION};
use ada_mdformats::xtcf::{XTCF_DIR_ENTRY_LEN, XTCF_HEADER_LEN, XTCF_TRAILER_LEN};
use ada_mdformats::{write_pdb, Trajectory};
use ada_plfs::ContainerSet;
use ada_simfs::{LocalFs, SimFileSystem};
use std::sync::Arc;

/// Hybrid SSD/HDD ADA with explicit parallelism knobs.
fn ada_with(split_threads: usize, pipeline_depth: usize) -> Ada {
    let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
    let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
    let containers = Arc::new(ContainerSet::new(vec![
        ("ssd".into(), ssd.clone()),
        ("hdd".into(), hdd),
    ]));
    let config = AdaConfig {
        split_threads,
        pipeline_depth,
        ..AdaConfig::paper_prototype("ssd", "hdd")
    };
    Ada::new(config, containers, ssd)
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
    let serial = ada_with(1, 1);
    let rep_serial = serial
        .ingest(
            "d",
            IngestInput::Real {
                pdb_text: w.pdb_text.clone(),
                xtc_bytes: w.xtc_bytes.clone(),
            },
        )
        .unwrap();
    for threads in [2, 4, 8] {
        let par = ada_with(threads, 2);
        let rep_par = par
            .ingest(
                "d",
                IngestInput::Real {
                    pdb_text: w.pdb_text.clone(),
                    xtc_bytes: w.xtc_bytes.clone(),
                },
            )
            .unwrap();
        assert_equivalent(
            (&serial, &rep_serial),
            (&par, &rep_par),
            0,
            &format!("ingest threads={}", threads),
        );
    }
}

#[test]
fn streaming_pipeline_matches_serial_streaming() {
    let w = workload();
    let batch = 2; // 7 frames -> batches of 2,2,2,1
    let serial = ada_with(1, 1);
    let rep_serial = serial
        .ingest_streaming("d", &w.pdb_text, &w.xtc_bytes, batch)
        .unwrap();
    for (threads, depth) in [(2, 1), (4, 4), (8, 3)] {
        let par = ada_with(threads, depth);
        let rep_par = par
            .ingest_streaming("d", &w.pdb_text, &w.xtc_bytes, batch)
            .unwrap();
        // Same batch size ⇒ same droppings ⇒ byte totals exactly equal.
        assert_equivalent(
            (&serial, &rep_serial),
            (&par, &rep_par),
            0,
            &format!("streaming threads={} depth={}", threads, depth),
        );
    }
}

#[test]
fn streaming_matches_batch_ingest_modulo_chunk_headers() {
    let w = workload();
    let batch_ada = ada_with(4, 2);
    let rep_batch = batch_ada
        .ingest(
            "d",
            IngestInput::Real {
                pdb_text: w.pdb_text.clone(),
                xtc_bytes: w.xtc_bytes.clone(),
            },
        )
        .unwrap();

    // batch_frames ≥ nframes: one streaming dropping per tag, exactly
    // like the batch path (frames_per_dropping ≫ nframes here).
    let stream_one = ada_with(4, 2);
    let rep_one = stream_one
        .ingest_streaming("d", &w.pdb_text, &w.xtc_bytes, w.nframes)
        .unwrap();
    assert_equivalent(
        (&batch_ada, &rep_batch),
        (&stream_one, &rep_one),
        0,
        "streaming single-batch",
    );

    // Small batches: 7 frames / 3 = 3 droppings per tag, i.e. two extra
    // droppings' framing per tag over the batch path's single dropping.
    let stream_many = ada_with(4, 2);
    let rep_many = stream_many
        .ingest_streaming("d", &w.pdb_text, &w.xtc_bytes, 3)
        .unwrap();
    assert_equivalent(
        (&batch_ada, &rep_batch),
        (&stream_many, &rep_many),
        2,
        "streaming batch=3",
    );
}

#[test]
fn guided_ingest_matches_batch_ingest() {
    let w = workload();
    // A second motion phase over the same structure (same seed ⇒ same
    // system), with a frame count of its own so the guided label cannot
    // get away with copying the guide's.
    let phase2 = ada_workload::gpcr_workload(1600, 5, 11);
    let xtc2 = write_xtc(&phase2.trajectory, DEFAULT_PRECISION).unwrap();
    for split_threads in [1, 0] {
        let reference = ada_with(split_threads, 2);
        let rep_ref = reference
            .ingest(
                "b",
                IngestInput::Real {
                    pdb_text: w.pdb_text.clone(),
                    xtc_bytes: xtc2.clone(),
                },
            )
            .unwrap();

        let guided = ada_with(split_threads, 2);
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
            &format!("guided split_threads={}", split_threads),
        );
    }
}
