#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! # ada-workload — synthetic GPCR-like systems and trajectories
//!
//! The paper evaluates ADA with trajectories from the GPCR (CB1 receptor)
//! MD study [10]. Those production datasets are not redistributable, so this
//! crate builds the closest synthetic equivalent:
//!
//! * a **7-transmembrane-helix protein** embedded in a **POPC bilayer**,
//!   solvated with **TIP3-like water** and ions ([`builder`]);
//! * molecule ordering follows standard preparation tools (protein first,
//!   then lipids, water, ions) so the categorizer sees the same contiguous
//!   run structure real files have;
//! * a **trajectory generator** ([`motion`]) that displaces atoms with
//!   category-dependent diffusion (water drifts fastest, protein wobbles
//!   least) — giving XTC the same "small consecutive displacement"
//!   compressibility structure real solvated systems have;
//! * **calibration** ([`calibration`]) reproducing the byte accounting of
//!   the paper's Tables 1, 2 and 6 (0.52 MB/frame raw, ~0.16 compressed,
//!   ~0.22 protein) and the atom counts they imply.
//!
//! What matters for ADA is (a) PDB residue classes, (b) XTC frame structure
//! and compressibility, (c) the protein:MISC volume split — all three are
//! reproduced; chemistry beyond that is irrelevant to I/O behaviour.

pub mod builder;
pub mod calibration;
pub mod motion;
pub mod sampling;

pub use builder::{SystemBuilder, SystemSpec};
pub use calibration::{DatasetSpec, PaperCalibration};
pub use motion::{MotionModel, TrajectoryGenerator};
pub use sampling::{shuffled_epochs, Sample, SamplingConfig};

use ada_mdformats::Trajectory;
use ada_mdmodel::MolecularSystem;

/// A ready-to-run workload: structure + trajectory, as the paper's
/// `.pdb` + `.xtc` pairs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The structure (what would be written to `foo.pdb`).
    pub system: MolecularSystem,
    /// The trajectory (what would be written to `bar.xtc`).
    pub trajectory: Trajectory,
}

/// Build a GPCR-like workload with roughly `natoms` atoms and `nframes`
/// frames, deterministically from `seed`.
pub fn gpcr_workload(natoms: usize, nframes: usize, seed: u64) -> Workload {
    let system = SystemBuilder::gpcr_like(natoms).build(seed);
    let trajectory =
        TrajectoryGenerator::new(&system, MotionModel::default(), seed ^ 0x5EED).generate(nframes);
    Workload { system, trajectory }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_mdmodel::Category;

    #[test]
    fn gpcr_workload_protein_fraction_in_paper_band() {
        let w = gpcr_workload(4000, 3, 42);
        let f = w.system.protein_fraction();
        // Paper Table 1: 43.5%–49% of bytes are protein; our atom fraction
        // targets the same band.
        assert!(f > 0.40 && f < 0.50, "protein fraction {}", f);
        assert_eq!(w.trajectory.natoms(), w.system.len());
        assert_eq!(w.trajectory.len(), 3);
    }

    #[test]
    fn workload_is_deterministic() {
        let a = gpcr_workload(1500, 2, 7);
        let b = gpcr_workload(1500, 2, 7);
        assert_eq!(a.system, b.system);
        assert_eq!(a.trajectory, b.trajectory);
    }

    #[test]
    fn categories_are_contiguous_blocks() {
        let w = gpcr_workload(3000, 1, 1);
        // Standard preparation order: protein, lipid, water, ion — each in
        // one contiguous run.
        for cat in [Category::Protein, Category::Lipid, Category::Water] {
            let r = w.system.category_ranges(cat);
            assert_eq!(r.iter_ranges().count(), 1, "{:?} not contiguous", cat);
        }
    }
}
