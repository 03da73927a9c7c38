//! Trajectory frames: the in-memory representation shared by all codecs.

use ada_mdmodel::PbcBox;

/// One trajectory frame: simulation step/time, periodic box, and coordinates
/// in nanometres.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// MD integration step number.
    pub step: i32,
    /// Simulation time in picoseconds.
    pub time: f32,
    /// Periodic box of the frame.
    pub pbc: PbcBox,
    /// One coordinate triple per atom.
    pub coords: Vec<[f32; 3]>,
}

impl Frame {
    /// A frame with the given coordinates at step 0, time 0, zero box.
    pub fn from_coords(coords: Vec<[f32; 3]>) -> Frame {
        Frame {
            step: 0,
            time: 0.0,
            pbc: PbcBox::zero(),
            coords,
        }
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// True when the frame has no atoms.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// In-memory footprint of the decoded frame in bytes (what VMD must hold
    /// to replay this frame).
    pub fn nbytes(&self) -> usize {
        std::mem::size_of::<Frame>() + self.coords.len() * 12
    }

    /// Extract the sub-frame covered by `ranges` (ADA's splitter applies
    /// the labeler's ranges to every frame).
    pub fn subset(&self, ranges: &ada_mdmodel::IndexRanges) -> Frame {
        Frame {
            step: self.step,
            time: self.time,
            pbc: self.pbc,
            coords: ranges.gather(&self.coords),
        }
    }
}

/// An in-memory trajectory: an ordered list of frames over a fixed atom set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trajectory {
    /// Frames in time order.
    pub frames: Vec<Frame>,
}

impl Trajectory {
    /// Empty trajectory.
    pub fn new() -> Trajectory {
        Trajectory::default()
    }

    /// Wrap a frame list.
    pub fn from_frames(frames: Vec<Frame>) -> Trajectory {
        Trajectory { frames }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when there are no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Atom count of the first frame (0 when empty). The writers enforce a
    /// uniform count (`XtcWriter::write_frame` and the XTCF writer refuse a
    /// frame of another size) and an XTCF file has one count by
    /// construction, but an `.xtc` read back is whatever its frame headers
    /// say: a consumer that needs uniformity checks the
    /// [`index_frames`](crate::xtc::index_frames) spans, as ADA's ingest
    /// does against the structure's count before it decodes anything.
    pub fn natoms(&self) -> usize {
        self.frames.first().map_or(0, Frame::len)
    }

    /// Total decoded size in bytes.
    pub fn nbytes(&self) -> usize {
        self.frames.iter().map(Frame::nbytes).sum()
    }

    /// Apply `ranges` to every frame (subset trajectory).
    pub fn subset(&self, ranges: &ada_mdmodel::IndexRanges) -> Trajectory {
        Trajectory {
            frames: self.frames.iter().map(|f| f.subset(ranges)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_mdmodel::IndexRanges;

    #[test]
    fn frame_subset() {
        let f = Frame::from_coords((0..10).map(|i| [i as f32; 3]).collect());
        let sub = f.subset(&IndexRanges::from_ranges([2..4, 7..9]));
        assert_eq!(sub.len(), 4);
        assert_eq!(sub.coords[0], [2.0; 3]);
        assert_eq!(sub.coords[3], [8.0; 3]);
    }

    #[test]
    fn trajectory_accounting() {
        let t = Trajectory::from_frames(vec![
            Frame::from_coords(vec![[0.0; 3]; 5]),
            Frame::from_coords(vec![[1.0; 3]; 5]),
        ]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.natoms(), 5);
        assert!(t.nbytes() >= 2 * 5 * 12);
        let sub = t.subset(&IndexRanges::single(0..2));
        assert_eq!(sub.natoms(), 2);
    }
}
