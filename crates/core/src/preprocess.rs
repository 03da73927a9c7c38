//! The data pre-processor's heavy lifting: decompression and splitting.
//!
//! On ingest ADA decompresses the `.xtc` once (on the storage node) and
//! divides every frame into per-tag sub-trajectories according to the
//! labeler's ranges; each subset is then re-encoded in the uncompressed
//! XTCF format for its backend, so later reads need no decompression at
//! all.
//!
//! An ingest splits one stored chunk of frames at a time
//! ([`crate::Ada::ingest`]'s pool: decode → split → checksum per chunk, the
//! chunk bodies assembled into one v2 dropping per tag). XTCF frame
//! records are fixed-size and encoded independently, so chunk bodies in
//! frame order are exactly the bytes one encode of the whole window would
//! produce — [`split_trajectory`] is that one encode, the reference the
//! stored droppings are compared with.
//!
//! The hot loop is allocation-free after startup: a worker reuses one
//! gather buffer across frames ([`IndexRanges::gather_into`]) and each
//! output buffer is pre-sized from [`ada_mdformats::xtcf::encoded_len`].

use crate::categorizer::Labeler;
use crate::AdaError;
use ada_mdformats::xtcf::XtcfWriter;
use ada_mdformats::Trajectory;
use ada_mdmodel::{IndexRanges, Tag};
use std::collections::BTreeMap;

/// Result of splitting a trajectory by tags.
#[derive(Debug)]
pub struct PreprocessOutput {
    /// Per-tag uncompressed XTCF payloads, in labeler tag order.
    pub subsets: BTreeMap<Tag, Vec<u8>>,
    /// Decompressed raw volume (bytes of frame coordinate data).
    pub raw_bytes: u64,
}

/// Split `traj` into per-tag XTCF v1 payloads guided by `labeler`, on the
/// caller's thread: the reference splitter (what an ingest's droppings are
/// compared with, and the serial side of the overhead bench). Same
/// allocation-free frame loop as the ingest pool's, over every frame.
pub fn split_trajectory(
    traj: &Trajectory,
    labeler: &Labeler,
) -> Result<PreprocessOutput, AdaError> {
    check_ranges(labeler, traj.natoms())?;
    let mut subsets = BTreeMap::new();
    let mut gather_buf: Vec<[f32; 3]> = Vec::new();
    for (tag, ranges) in labeler {
        let bytes = encode_chunk(traj, ranges, &mut gather_buf)?;
        subsets.insert(tag.clone(), bytes);
    }
    Ok(PreprocessOutput {
        subsets,
        raw_bytes: traj.nbytes() as u64,
    })
}

/// Every range of the labeler must lie inside a frame of `natoms` atoms.
pub(crate) fn check_ranges(labeler: &Labeler, natoms: usize) -> Result<(), AdaError> {
    for ranges in labeler.values() {
        if let Some(end) = ranges.end() {
            if end > natoms {
                return Err(AdaError::AtomMismatch {
                    pdb: end,
                    xtc: natoms,
                });
            }
        }
    }
    Ok(())
}

/// Encode the tag subset of `traj` selected by `ranges` as one XTCF v1
/// byte string (header + records). `gather_buf` is reused across frames
/// so the loop allocates nothing beyond the pre-sized output buffer.
pub(crate) fn encode_chunk(
    traj: &Trajectory,
    ranges: &IndexRanges,
    gather_buf: &mut Vec<[f32; 3]>,
) -> Result<Vec<u8>, AdaError> {
    let mut w = XtcfWriter::with_capacity(traj.len(), ranges.count());
    for frame in &traj.frames {
        ranges.gather_into(&frame.coords, gather_buf);
        w.write_frame_parts(frame.step, frame.time, &frame.pbc, gather_buf)
            .map_err(|e| AdaError::Pdb(format!("xtcf encode: {}", e)))?;
    }
    Ok(w.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_mdformats::read_xtcf;
    use ada_mdmodel::category::Taxonomy;

    fn workload() -> (ada_mdmodel::MolecularSystem, Trajectory, Labeler) {
        let w = ada_workload::gpcr_workload(2000, 4, 3);
        let labeler = crate::categorizer::categorize_algo1(&w.system, &Taxonomy::paper_default());
        (w.system, w.trajectory, labeler)
    }

    #[test]
    fn subsets_partition_every_frame() {
        let (system, traj, labeler) = workload();
        let out = split_trajectory(&traj, &labeler).unwrap();
        assert_eq!(out.raw_bytes, traj.nbytes() as u64);
        let mut atoms_total = 0usize;
        for (tag, bytes) in &out.subsets {
            let sub = read_xtcf(bytes).unwrap();
            assert_eq!(sub.len(), traj.len());
            assert_eq!(sub.natoms(), labeler[tag].count());
            atoms_total += sub.natoms();
        }
        assert_eq!(atoms_total, system.len());
    }

    #[test]
    fn subset_coordinates_match_gather() {
        let (_, traj, labeler) = workload();
        let out = split_trajectory(&traj, &labeler).unwrap();
        for (tag, ranges) in &labeler {
            let sub = read_xtcf(&out.subsets[tag]).unwrap();
            for (f, sf) in traj.frames.iter().zip(&sub.frames) {
                assert_eq!(sf.coords, ranges.gather(&f.coords));
                assert_eq!(sf.step, f.step);
                assert_eq!(sf.time, f.time);
                assert_eq!(sf.pbc, f.pbc);
            }
        }
    }

    #[test]
    fn range_overflow_detected() {
        let (_, traj, _) = workload();
        let mut bad: Labeler = BTreeMap::new();
        bad.insert(Tag::protein(), IndexRanges::single(0..traj.natoms() + 5));
        assert!(matches!(
            split_trajectory(&traj, &bad),
            Err(AdaError::AtomMismatch { .. })
        ));
    }

    #[test]
    fn empty_labeler_produces_nothing() {
        let (_, traj, _) = workload();
        let out = split_trajectory(&traj, &BTreeMap::new()).unwrap();
        assert!(out.subsets.is_empty());
    }

    #[test]
    fn empty_trajectory_ok() {
        let mut labeler: Labeler = BTreeMap::new();
        labeler.insert(Tag::protein(), IndexRanges::single(0..0));
        let out = split_trajectory(&Trajectory::new(), &labeler).unwrap();
        let sub = read_xtcf(&out.subsets[&Tag::protein()]).unwrap();
        assert!(sub.is_empty());
    }
}
