//! The data pre-processor's heavy lifting: decompression and splitting.
//!
//! On ingest ADA decompresses the `.xtc` once (on the storage node) and
//! divides every frame into per-tag sub-trajectories according to the
//! labeler's ranges; each subset is then re-encoded in the uncompressed
//! XTCF format for its backend, so later reads need no decompression at
//! all.
//!
//! Splitting parallelizes across **two** dimensions: tags × frame
//! chunks. A trajectory with two tags on an eight-core storage node
//! would leave six cores idle under per-tag threading alone, so the
//! frame axis is also cut into chunks and every (tag, chunk) cell
//! becomes one unit of work on a shared queue. XTCF frame records are
//! fixed-size and encoded independently, so per-chunk encodes stitch
//! back together — one header plus chunk bodies in frame order — into
//! exactly the bytes a serial encode would produce.
//!
//! The per-cell hot loop is allocation-free after startup: each worker
//! reuses one gather buffer across frames ([`IndexRanges::gather_into`])
//! and each cell's output buffer is pre-sized from
//! [`ada_mdformats::xtcf::encoded_len`].

use crate::categorizer::Labeler;
use crate::AdaError;
use ada_mdformats::xtcf::XtcfWriter;
use ada_mdformats::{xtcf, Trajectory};
use ada_mdmodel::{IndexRanges, Tag};
use ada_telemetry::trace::TraceContext;
use std::collections::BTreeMap;
use std::ops::Range;

/// Result of splitting a trajectory by tags.
#[derive(Debug)]
pub struct PreprocessOutput {
    /// Per-tag uncompressed XTCF payloads, in labeler tag order.
    pub subsets: BTreeMap<Tag, Vec<u8>>,
    /// Decompressed raw volume (bytes of frame coordinate data).
    pub raw_bytes: u64,
}

/// Tuning knobs for [`split_trajectory_traced`]. The default (zeros) means
/// one worker per available core with automatic chunking.
#[derive(Debug, Clone, Copy, Default)]
pub struct SplitOptions {
    /// Worker threads; 0 means one per available core.
    pub threads: usize,
    /// Frames per work cell; 0 picks a chunk size that yields a few
    /// cells per worker (load balance without stitch overhead).
    pub chunk_frames: usize,
}

impl SplitOptions {
    /// Explicit thread count, automatic chunking.
    pub fn with_threads(threads: usize) -> SplitOptions {
        SplitOptions {
            threads,
            chunk_frames: 0,
        }
    }

    fn resolve(&self, nframes: usize) -> (usize, usize) {
        let threads = if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        };
        let chunk = if self.chunk_frames > 0 {
            self.chunk_frames
        } else {
            // ~4 cells per worker per tag keeps the queue long enough to
            // balance uneven tags without drowning in tiny encodes.
            (nframes / (threads * 4)).max(16)
        };
        (threads, chunk)
    }
}

/// Split `traj` into per-tag XTCF payloads guided by `labeler`, using
/// default parallelism (one worker per core).
pub fn split_trajectory(
    traj: &Trajectory,
    labeler: &Labeler,
) -> Result<PreprocessOutput, AdaError> {
    split_trajectory_traced(
        traj,
        labeler,
        SplitOptions::default(),
        &TraceContext::inactive(),
    )
}

/// Split `traj` with explicit parallelism options, under request trace
/// `ctx` (an untraced caller passes [`TraceContext::inactive`]).
///
/// Work is a queue of (tag, frame-chunk) cells claimed by the workers of
/// the crate's pool (at most `threads`); the output is byte-identical to
/// [`split_trajectory_serial`] for every thread count and chunk size.
/// Each worker records an `ingest.split.worker` span under `ctx` covering
/// its share of the cell queue, so the flight recorder shows the split
/// stage's actual fan-out instead of one opaque gap.
pub fn split_trajectory_traced(
    traj: &Trajectory,
    labeler: &Labeler,
    opts: SplitOptions,
    ctx: &TraceContext,
) -> Result<PreprocessOutput, AdaError> {
    let natoms = traj.natoms();
    check_ranges(labeler, natoms)?;

    let entries: Vec<(&Tag, &IndexRanges)> = labeler.iter().collect();
    let nframes = traj.len();
    let (threads, chunk_frames) = opts.resolve(nframes.max(1));
    let nchunks = nframes.div_ceil(chunk_frames);
    let ncells = entries.len() * nchunks;

    // cell index -> encoded bytes (header stripped at stitch time).
    let cells = crate::run_pool("split worker", threads, ncells, ctx, |ctx, claim| {
        let mut ts = ctx.span("ingest.split.worker");
        let mut done: Vec<(usize, Result<Vec<u8>, AdaError>)> = Vec::new();
        let mut gather_buf: Vec<[f32; 3]> = Vec::new();
        while let Some(cell) = claim() {
            let ranges = entries[cell / nchunks].1;
            let start = (cell % nchunks) * chunk_frames;
            let end = (start + chunk_frames).min(nframes);
            done.push((
                cell,
                encode_chunk(traj, ranges, start..end, &mut gather_buf),
            ));
        }
        ts.arg("cells", done.len());
        done
    })?;
    let mut cells = cells.into_iter();

    // Stitch: per tag, one header + chunk bodies in frame order.
    let mut subsets = BTreeMap::new();
    for (tag, ranges) in &entries {
        let mut out = Vec::with_capacity(xtcf::encoded_len(nframes, ranges.count()));
        out.extend_from_slice(&xtcf::XTCF_MAGIC.to_le_bytes());
        out.extend_from_slice(&xtcf::XTCF_VERSION.to_le_bytes());
        for cell in cells.by_ref().take(nchunks) {
            out.extend_from_slice(&cell?[xtcf::XTCF_HEADER_LEN..]);
        }
        subsets.insert((*tag).clone(), out);
    }
    Ok(PreprocessOutput {
        subsets,
        raw_bytes: traj.nbytes() as u64,
    })
}

/// Single-threaded reference splitter (equivalence baseline and the
/// serial side of the ingest benchmarks). Same allocation-free frame
/// loop as the parallel path, minus threading.
pub fn split_trajectory_serial(
    traj: &Trajectory,
    labeler: &Labeler,
) -> Result<PreprocessOutput, AdaError> {
    check_ranges(labeler, traj.natoms())?;
    let mut subsets = BTreeMap::new();
    let mut gather_buf: Vec<[f32; 3]> = Vec::new();
    for (tag, ranges) in labeler {
        let bytes = encode_chunk(traj, ranges, 0..traj.len(), &mut gather_buf)?;
        subsets.insert(tag.clone(), bytes);
    }
    Ok(PreprocessOutput {
        subsets,
        raw_bytes: traj.nbytes() as u64,
    })
}

fn check_ranges(labeler: &Labeler, natoms: usize) -> Result<(), AdaError> {
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

/// Encode `frames` of the tag subset selected by `ranges` as one XTCF
/// byte string (header + records). `gather_buf` is reused across frames
/// so the loop allocates nothing beyond the pre-sized output buffer.
fn encode_chunk(
    traj: &Trajectory,
    ranges: &IndexRanges,
    frames: Range<usize>,
    gather_buf: &mut Vec<[f32; 3]>,
) -> Result<Vec<u8>, AdaError> {
    let mut w = XtcfWriter::with_capacity(frames.len(), ranges.count());
    for frame in &traj.frames[frames] {
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
    fn parallel_matches_serial_bytewise() {
        let (_, traj, labeler) = workload();
        let serial = split_trajectory_serial(&traj, &labeler).unwrap();
        // Sweep thread counts and chunk sizes, including chunks that
        // don't divide the frame count and chunks larger than it.
        for threads in [1, 2, 3, 8] {
            for chunk_frames in [1, 2, 3, 100] {
                let par = split_trajectory_traced(
                    &traj,
                    &labeler,
                    SplitOptions {
                        threads,
                        chunk_frames,
                    },
                    &TraceContext::inactive(),
                )
                .unwrap();
                assert_eq!(par.raw_bytes, serial.raw_bytes);
                assert_eq!(
                    par.subsets, serial.subsets,
                    "threads={} chunk_frames={}",
                    threads, chunk_frames
                );
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
        assert!(matches!(
            split_trajectory_serial(&traj, &bad),
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
