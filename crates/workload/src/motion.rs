//! Trajectory generation: category-dependent stochastic motion.
//!
//! Each category gets a diffusion amplitude (nm per frame step) and the
//! whole system breathes slightly; waters additionally drift. Displacements
//! are small relative to interatomic spacing, which is what makes real MD
//! trajectories compress well in XTC's small-number run coder — the
//! property the paper's decompression-cost analysis rests on.

use ada_mdformats::{Frame, Trajectory};
use ada_mdmodel::{Category, MolecularSystem};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Normal};

/// Per-category motion amplitudes (nm per frame).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionModel {
    /// Protein thermal wobble.
    pub protein_sigma: f32,
    /// Lipid lateral diffusion.
    pub lipid_sigma: f32,
    /// Water diffusion.
    pub water_sigma: f32,
    /// Ion diffusion.
    pub ion_sigma: f32,
    /// Time per frame in ps (header metadata).
    pub dt_ps: f32,
}

impl Default for MotionModel {
    fn default() -> MotionModel {
        MotionModel {
            protein_sigma: 0.004,
            lipid_sigma: 0.008,
            water_sigma: 0.02,
            ion_sigma: 0.015,
            dt_ps: 10.0,
        }
    }
}

impl MotionModel {
    fn sigma_for(&self, c: Category) -> f32 {
        match c {
            Category::Protein => self.protein_sigma,
            Category::Lipid => self.lipid_sigma,
            Category::Water => self.water_sigma,
            Category::Ion => self.ion_sigma,
            _ => self.water_sigma,
        }
    }
}

/// Streaming trajectory generator (random-walk displacement per frame).
#[derive(Debug)]
pub struct TrajectoryGenerator {
    current: Vec<[f32; 3]>,
    sigmas: Vec<f32>,
    model: MotionModel,
    rng: StdRng,
    step: i32,
    frame_index: usize,
    pbc: ada_mdmodel::PbcBox,
}

impl TrajectoryGenerator {
    /// Generator starting from the system's reference coordinates.
    pub fn new(system: &MolecularSystem, model: MotionModel, seed: u64) -> TrajectoryGenerator {
        // Precompute each atom's sigma (per-residue category lookup).
        let mut sigmas = vec![0.0f32; system.len()];
        for res in &system.residues {
            let s = model.sigma_for(res.category());
            for slot in &mut sigmas[res.atom_start..res.atom_end] {
                *slot = s;
            }
        }
        TrajectoryGenerator {
            current: system.coords.clone(),
            sigmas,
            model,
            rng: StdRng::seed_from_u64(seed),
            step: 0,
            frame_index: 0,
            pbc: system.pbc,
        }
    }

    /// Produce the next frame (the first call returns the starting
    /// coordinates unperturbed, like frame 0 of an MD run).
    pub fn next_frame(&mut self) -> Frame {
        if self.frame_index > 0 {
            #[expect(
                clippy::expect_used,
                reason = "constant parameters: sigma = 1.0 is finite and positive, Normal::new cannot fail"
            )]
            let normal = Normal::new(0.0f32, 1.0f32).expect("unit normal");
            for (c, &sigma) in self.current.iter_mut().zip(&self.sigmas) {
                for axis in c.iter_mut() {
                    *axis += sigma * normal.sample(&mut self.rng);
                }
            }
        }
        let frame = Frame {
            step: self.step,
            time: self.frame_index as f32 * self.model.dt_ps,
            pbc: self.pbc,
            coords: self.current.clone(),
        };
        self.frame_index += 1;
        self.step += 100;
        frame
    }

    /// Generate `nframes` frames.
    pub fn generate(mut self, nframes: usize) -> Trajectory {
        let frames = (0..nframes).map(|_| self.next_frame()).collect();
        Trajectory::from_frames(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SystemBuilder;
    use ada_mdformats::read_xtc;
    use ada_mdformats::xtc::{write_xtc, DEFAULT_PRECISION};

    fn system() -> MolecularSystem {
        SystemBuilder::gpcr_like(2500).build(11)
    }

    #[test]
    fn frame_zero_is_reference() {
        let sys = system();
        let t = TrajectoryGenerator::new(&sys, MotionModel::default(), 5).generate(3);
        assert_eq!(t.frames[0].coords, sys.coords);
        assert_ne!(t.frames[1].coords, sys.coords);
    }

    #[test]
    fn displacement_scales_with_category() {
        let sys = system();
        let t = TrajectoryGenerator::new(&sys, MotionModel::default(), 5).generate(20);
        let prot = sys.category_ranges(Category::Protein);
        let water = sys.category_ranges(Category::Water);
        let last = &t.frames[19].coords;
        let rms = |ranges: &ada_mdmodel::IndexRanges| -> f64 {
            let mut sum = 0.0f64;
            let mut n = 0usize;
            for i in ranges.iter_indices() {
                for (a, b) in last[i].iter().zip(&sys.coords[i]) {
                    let dd = (a - b) as f64;
                    sum += dd * dd;
                }
                n += 1;
            }
            (sum / n as f64).sqrt()
        };
        assert!(
            rms(&water) > 2.0 * rms(&prot),
            "water {} vs protein {}",
            rms(&water),
            rms(&prot)
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let sys = system();
        let a = TrajectoryGenerator::new(&sys, MotionModel::default(), 9).generate(4);
        let b = TrajectoryGenerator::new(&sys, MotionModel::default(), 9).generate(4);
        assert_eq!(a, b);
        let c = TrajectoryGenerator::new(&sys, MotionModel::default(), 10).generate(4);
        assert_ne!(a, c);
    }

    #[test]
    fn time_and_step_metadata() {
        let sys = system();
        let t = TrajectoryGenerator::new(&sys, MotionModel::default(), 1).generate(3);
        assert_eq!(t.frames[0].time, 0.0);
        assert_eq!(t.frames[1].time, 10.0);
        assert_eq!(t.frames[2].step, 200);
    }

    #[test]
    fn generated_trajectory_compresses_like_md() {
        // The compressibility contract: XTC on generated frames should land
        // in the 2.5–4.5x band the paper's tables imply (raw/compressed =
        // 327/100 ≈ 3.27).
        let sys = system();
        let t = TrajectoryGenerator::new(&sys, MotionModel::default(), 3).generate(5);
        let bytes = write_xtc(&t, DEFAULT_PRECISION).unwrap();
        let raw = t.nbytes() as f64;
        let ratio = raw / bytes.len() as f64;
        assert!(ratio > 2.2 && ratio < 5.0, "compression ratio {}", ratio);
        // And it must decode.
        let back = read_xtc(&bytes).unwrap();
        assert_eq!(back.len(), 5);
    }
}
