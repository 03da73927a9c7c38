//! What an ingest stores must not depend on how it was scheduled: same
//! label file, same per-tag stored bytes, and bit-equal query payloads —
//! for every split-thread count, for every dropping size (one window of
//! the ingest loop each; only the per-dropping framing may differ), and
//! for guided ingest ([`Ada::ingest_guided`]) against [`Ada::ingest`].

use ada_core::{Ada, AdaConfig, IngestInput, RetrievedData};
use ada_mdformats::xtc::{write_xtc, DEFAULT_PRECISION};
use ada_mdformats::xtcf::{XTCF_DIR_ENTRY_LEN, XTCF_HEADER_LEN, XTCF_TRAILER_LEN};
use ada_mdformats::{write_pdb, Trajectory};
use ada_plfs::ContainerSet;
use ada_simfs::{LocalFs, SimFileSystem};
use std::sync::Arc;

/// Hybrid SSD/HDD ADA with an explicit splitter pool and dropping size.
fn ada_with(split_threads: usize, frames_per_dropping: usize) -> Ada {
    let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
    let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
    let containers = Arc::new(ContainerSet::new(vec![
        ("ssd".into(), ssd.clone()),
        ("hdd".into(), hdd),
    ]));
    let config = AdaConfig {
        split_threads,
        frames_per_dropping,
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
    for (split_threads, fpd) in [(1, 512), (0, 512), (0, 2)] {
        let reference = ada_with(split_threads, fpd);
        let rep_ref = reference
            .ingest(
                "b",
                IngestInput::Real {
                    pdb_text: w.pdb_text.clone(),
                    xtc_bytes: xtc2.clone(),
                },
            )
            .unwrap();

        let guided = ada_with(split_threads, fpd);
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
            &format!("guided split_threads={} fpd={}", split_threads, fpd),
        );
    }
}
