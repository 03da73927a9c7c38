//! Trajectory analysis — the "analyze" half of "animate and analyze the
//! trajectory of an MD simulation".
//!
//! Implements the measures a VMD user runs over loaded frames: RMSD against
//! a reference, per-atom RMSF, radius of gyration, and center-of-mass
//! drift. All of them consume exactly the frames ADA delivered — which is
//! the point: for a protein study, the protein subset suffices, so the
//! analyses run on 42 % of the data.
//!
//! Frame-parallel measures fan out over `std::thread::scope`.

use ada_mdformats::Frame;
use ada_mdmodel::MolecularSystem;

/// Mass-weighted center of mass of one frame.
pub fn center_of_mass(system: &MolecularSystem, coords: &[[f32; 3]]) -> [f64; 3] {
    assert_eq!(system.len(), coords.len());
    let mut acc = [0.0f64; 3];
    let mut total = 0.0f64;
    for (atom, c) in system.atoms.iter().zip(coords) {
        let m = atom.element.mass() as f64;
        total += m;
        for d in 0..3 {
            acc[d] += m * c[d] as f64;
        }
    }
    if total > 0.0 {
        for a in acc.iter_mut() {
            *a /= total;
        }
    }
    acc
}

/// Mass-weighted radius of gyration (nm) of one frame.
pub fn radius_of_gyration(system: &MolecularSystem, coords: &[[f32; 3]]) -> f64 {
    let com = center_of_mass(system, coords);
    let mut acc = 0.0f64;
    let mut total = 0.0f64;
    for (atom, c) in system.atoms.iter().zip(coords) {
        let m = atom.element.mass() as f64;
        total += m;
        let mut r2 = 0.0f64;
        for d in 0..3 {
            let dd = c[d] as f64 - com[d];
            r2 += dd * dd;
        }
        acc += m * r2;
    }
    if total == 0.0 {
        0.0
    } else {
        (acc / total).sqrt()
    }
}

/// RMSD (nm) between a frame and a reference, without fitting (the frames
/// of one trajectory share a frame of reference).
pub fn rmsd(reference: &[[f32; 3]], coords: &[[f32; 3]]) -> f64 {
    assert_eq!(reference.len(), coords.len());
    if reference.is_empty() {
        return 0.0;
    }
    let mut acc = 0.0f64;
    for (a, b) in reference.iter().zip(coords) {
        for d in 0..3 {
            let dd = a[d] as f64 - b[d] as f64;
            acc += dd * dd;
        }
    }
    (acc / reference.len() as f64).sqrt()
}

/// Per-frame RMSD series against the first frame, parallel across frames.
pub fn rmsd_series(frames: &[Frame], nthreads: usize) -> Vec<f64> {
    let Some(first) = frames.first() else {
        return Vec::new();
    };
    let reference = &first.coords;
    let nthreads = nthreads.max(1).min(frames.len());
    let chunk = frames.len().div_ceil(nthreads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = frames
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || -> Vec<f64> {
                    part.iter().map(|f| rmsd(reference, &f.coords)).collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// Per-atom root-mean-square fluctuation (nm) around the mean structure.
pub fn rmsf(frames: &[Frame]) -> Vec<f64> {
    let Some(first) = frames.first() else {
        return Vec::new();
    };
    let natoms = first.len();
    // Mean position per atom.
    let mut mean = vec![[0.0f64; 3]; natoms];
    for f in frames {
        assert_eq!(f.len(), natoms, "uniform atom count required");
        for (m, c) in mean.iter_mut().zip(&f.coords) {
            for d in 0..3 {
                m[d] += c[d] as f64;
            }
        }
    }
    let nf = frames.len() as f64;
    for m in mean.iter_mut() {
        for axis in m.iter_mut() {
            *axis /= nf;
        }
    }
    // Fluctuation around the mean.
    let mut acc = vec![0.0f64; natoms];
    for f in frames {
        for ((a, c), m) in acc.iter_mut().zip(&f.coords).zip(&mean) {
            for d in 0..3 {
                let dd = c[d] as f64 - m[d];
                *a += dd * dd;
            }
        }
    }
    acc.into_iter().map(|a| (a / nf).sqrt()).collect()
}

/// Center-of-mass displacement (nm) of each frame from frame 0.
pub fn com_drift(system: &MolecularSystem, frames: &[Frame]) -> Vec<f64> {
    let Some(first) = frames.first() else {
        return Vec::new();
    };
    let com0 = center_of_mass(system, &first.coords);
    frames
        .iter()
        .map(|f| {
            let com = center_of_mass(system, &f.coords);
            let mut r2 = 0.0f64;
            for d in 0..3 {
                let dd = com[d] - com0[d];
                r2 += dd * dd;
            }
            r2.sqrt()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_mdmodel::Category;

    fn workload() -> (MolecularSystem, Vec<Frame>) {
        let w = ada_workload::gpcr_workload(1500, 10, 31);
        (w.system, w.trajectory.frames)
    }

    #[test]
    fn rmsd_zero_against_self() {
        let (_, frames) = workload();
        assert_eq!(rmsd(&frames[0].coords, &frames[0].coords), 0.0);
        let series = rmsd_series(&frames, 3);
        assert_eq!(series[0], 0.0);
        // Random-walk motion: RMSD grows (statistically) over frames.
        assert!(series[9] > series[1]);
    }

    #[test]
    fn rmsd_known_value() {
        let a = vec![[0.0f32; 3]; 4];
        let b = vec![[1.0f32, 0.0, 0.0]; 4];
        assert!((rmsd(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rmsd_series_parallel_matches_serial() {
        let (_, frames) = workload();
        let s1 = rmsd_series(&frames, 1);
        let s4 = rmsd_series(&frames, 4);
        assert_eq!(s1, s4);
    }

    #[test]
    fn radius_of_gyration_scales() {
        let (sys, frames) = workload();
        let rg = radius_of_gyration(&sys, &frames[0].coords);
        assert!(rg > 0.5 && rg < 20.0, "rg {}", rg);
        // Doubling all coordinates doubles Rg.
        let scaled: Vec<[f32; 3]> = frames[0]
            .coords
            .iter()
            .map(|c| [c[0] * 2.0, c[1] * 2.0, c[2] * 2.0])
            .collect();
        let rg2 = radius_of_gyration(&sys, &scaled);
        assert!((rg2 / rg - 2.0).abs() < 1e-3);
    }

    #[test]
    fn com_translation_invariance_of_rg() {
        let (sys, frames) = workload();
        let rg = radius_of_gyration(&sys, &frames[0].coords);
        let moved: Vec<[f32; 3]> = frames[0]
            .coords
            .iter()
            .map(|c| [c[0] + 5.0, c[1] - 3.0, c[2] + 1.0])
            .collect();
        assert!((radius_of_gyration(&sys, &moved) - rg).abs() < 1e-3);
    }

    #[test]
    fn rmsf_tracks_category_mobility() {
        // Water jitters more than protein in the motion model; RMSF must
        // see that through the frames.
        let (sys, frames) = workload();
        let fluct = rmsf(&frames);
        let mean_of = |cat: Category| -> f64 {
            let r = sys.category_ranges(cat);
            let n = r.count().max(1);
            r.iter_indices().map(|i| fluct[i]).sum::<f64>() / n as f64
        };
        assert!(
            mean_of(Category::Water) > 2.0 * mean_of(Category::Protein),
            "water {} vs protein {}",
            mean_of(Category::Water),
            mean_of(Category::Protein)
        );
    }

    #[test]
    fn com_drift_starts_at_zero() {
        let (sys, frames) = workload();
        let drift = com_drift(&sys, &frames);
        assert_eq!(drift[0], 0.0);
        assert!(drift.iter().all(|&d| d.is_finite()));
    }

    #[test]
    fn empty_inputs() {
        let sys = MolecularSystem::default();
        assert_eq!(rmsd_series(&[], 4), Vec::<f64>::new());
        assert_eq!(rmsf(&[]), Vec::<f64>::new());
        assert_eq!(com_drift(&sys, &[]), Vec::<f64>::new());
        assert_eq!(radius_of_gyration(&sys, &[]), 0.0);
    }
}
