//! Inputs, references and the product stack at its shipped defaults.
//!
//! The program under test only ever sees what [`generate`] hands out: the
//! `.pdb` text and `.xtc` bytes of each dataset. References come from the
//! same bytes through `read_xtc`, restricted with the *generator's* atom
//! categories, so verification never asks the system what it stored.

use ada_cache::CacheConfig;
use ada_core::{Ada, AdaConfig, IngestInput};
use ada_frontend::{Frontend, FrontendConfig};
use ada_mdformats::xtc::{write_xtc, DEFAULT_PRECISION};
use ada_mdformats::{read_xtc, write_pdb, Frame, Trajectory};
use ada_mdmodel::{Category, IndexRanges};
use ada_plfs::ContainerSet;
use ada_simfs::{LocalFs, SimFileSystem};
use std::sync::Arc;

/// Datasets per fixture, named `ds0..`.
pub const DATASETS: usize = 4;
/// Atoms asked of the generator (it builds 2,054).
pub const NATOMS_ASKED: usize = 2000;
/// Frames per dataset.
pub const NFRAMES: usize = 512;
/// Client name the in-process workloads submit under.
pub const CLIENT_NAME: &str = "bench";

/// One generated dataset, in the only form the program receives it.
#[derive(Debug)]
pub struct Dataset {
    /// `ds{i}`.
    pub name: String,
    /// `.pdb` contents.
    pub pdb_text: String,
    /// `.xtc` contents at [`DEFAULT_PRECISION`].
    pub xtc_bytes: Vec<u8>,
    /// Atoms of tag `p`, from the generator's categories.
    pub protein: IndexRanges,
}

impl Dataset {
    /// A fresh ingest request for this dataset's bytes.
    pub fn input(&self) -> IngestInput {
        IngestInput::Real {
            pdb_text: self.pdb_text.clone(),
            xtc_bytes: self.xtc_bytes.clone(),
        }
    }
}

/// The fixture of `seed`: dataset `i` is `gpcr_workload(2000, 512, seed + i)`.
pub fn generate(seed: u64) -> Result<Vec<Dataset>, String> {
    (0..DATASETS)
        .map(|i| {
            let w = ada_workload::gpcr_workload(NATOMS_ASKED, NFRAMES, seed + i as u64);
            Ok(Dataset {
                name: format!("ds{i}"),
                pdb_text: write_pdb(&w.system),
                xtc_bytes: write_xtc(&w.trajectory, DEFAULT_PRECISION)
                    .map_err(|e| format!("write_xtc ds{i}: {e}"))?,
                protein: w.system.category_ranges(Category::Protein),
            })
        })
        .collect()
}

/// What a correct system returns for one dataset.
#[derive(Debug)]
pub struct Reference {
    /// Every atom: the answer to an untagged query.
    pub full: Trajectory,
    /// Tag `p`: the answer to `query(.., "p")`; windows are slices of it.
    pub p: Trajectory,
}

/// Decode the input bytes the way a reader without ADA would.
pub fn reference(ds: &Dataset) -> Result<Reference, String> {
    let full = read_xtc(&ds.xtc_bytes).map_err(|e| format!("read_xtc {}: {e}", ds.name))?;
    let p = full.subset(&ds.protein);
    Ok(Reference { full, p })
}

/// `(frames, atoms, first step, last step)`: the cheap check every timed
/// op gets.
pub type Shape = (usize, usize, i32, i32);

/// Shape of the frames `want` yields.
pub fn shape_of<'a>(frames: impl IntoIterator<Item = &'a Frame>) -> Shape {
    let mut it = frames.into_iter();
    let Some(first) = it.next() else {
        return (0, 0, 0, 0);
    };
    let (n, last) = it.fold((1, first), |(n, _), f| (n + 1, f));
    (n, first.len(), first.step, last.step)
}

/// Fail unless `got` has the shape of `want`.
pub fn check_shape<'a>(
    got: &Trajectory,
    want: impl IntoIterator<Item = &'a Frame>,
) -> Result<(), String> {
    let (g, w) = (shape_of(&got.frames), shape_of(want));
    if g == w {
        Ok(())
    } else {
        Err(format!(
            "shape (frames, atoms, first step, last step) {g:?}, expected {w:?}"
        ))
    }
}

/// Fail unless `got` equals `want` frame by frame: every header field, and
/// every coordinate to within `tol` nm (`0.0` = the same f32).
pub fn check_frames<'a>(
    got: &Trajectory,
    want: impl IntoIterator<Item = &'a Frame>,
    tol: f32,
) -> Result<(), String> {
    let want: Vec<&Frame> = want.into_iter().collect();
    if got.len() != want.len() {
        return Err(format!("{} frames, expected {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.frames.iter().zip(want).enumerate() {
        if g.step != w.step || g.len() != w.len() {
            return Err(format!(
                "frame {i}: step {} / {} atoms, expected step {} / {} atoms",
                g.step,
                g.len(),
                w.step,
                w.len()
            ));
        }
        let exact = g.time == w.time && g.pbc == w.pbc && g.coords == w.coords;
        let close = || {
            (g.time - w.time).abs() <= tol
                && g.coords
                    .iter()
                    .zip(&w.coords)
                    .all(|(a, b)| (0..3).all(|d| (a[d] - b[d]).abs() <= tol))
        };
        if !(exact || tol > 0.0 && close()) {
            return Err(format!(
                "frame {i}: coordinates differ by more than {tol} nm"
            ));
        }
    }
    Ok(())
}

/// The product as shipped: `AdaConfig::paper_prototype("ssd", "hdd")` over
/// `LocalFs::ext4_on_nvme` + `ext4_on_hdd`, behind `FrontendConfig::default`.
#[derive(Debug)]
pub struct Stack {
    /// The PLFS containers both backends live in (the ladder reads
    /// droppings through it).
    pub containers: Arc<ContainerSet>,
    /// Admission front-end over the instance; `frontend.ada()` is the core.
    pub frontend: Arc<Frontend>,
}

impl Stack {
    /// Build a stack. Only what a workload is *about* departs from the
    /// defaults: the decoded-dropping cache budget, and `query_threads: 0`
    /// for the ladder's serial reference rung.
    pub fn new(cache: CacheConfig, query_threads: Option<usize>) -> Stack {
        let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
        let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
        let containers = Arc::new(ContainerSet::new(vec![
            ("ssd".to_string(), Arc::clone(&ssd)),
            ("hdd".to_string(), hdd),
        ]));
        let mut config = AdaConfig::paper_prototype("ssd", "hdd");
        config.cache = cache;
        if let Some(n) = query_threads {
            config.query_threads = n;
        }
        let ada = Arc::new(Ada::new(config, Arc::clone(&containers), ssd));
        Stack {
            containers,
            frontend: Arc::new(Frontend::new(ada, FrontendConfig::default())),
        }
    }

    /// The core instance behind the front-end.
    pub fn ada(&self) -> &Ada {
        self.frontend.ada()
    }

    /// Ingest every dataset under its own name through the front-end.
    pub fn seed(&self, datasets: &[Dataset]) -> Result<(), String> {
        for ds in datasets {
            self.frontend
                .ingest(CLIENT_NAME, &ds.name, ds.input())
                .map_err(|e| format!("seeding ingest of {}: {e}", ds.name))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj(steps: &[i32], x: f32) -> Trajectory {
        Trajectory::from_frames(
            steps
                .iter()
                .map(|&step| {
                    let mut f = Frame::from_coords(vec![[x, 0.0, 0.0], [1.0, 2.0, 3.0]]);
                    f.step = step;
                    f
                })
                .collect(),
        )
    }

    #[test]
    fn shape_is_frames_atoms_first_and_last_step() {
        assert_eq!(shape_of(&traj(&[5, 6, 9], 0.0).frames), (3, 2, 5, 9));
        assert_eq!(shape_of(&traj(&[], 0.0).frames), (0, 0, 0, 0));
        assert!(check_shape(&traj(&[5, 9], 0.0), &traj(&[5, 9], 1.0).frames).is_ok());
        assert!(check_shape(&traj(&[5, 9], 0.0), &traj(&[5, 8], 0.0).frames).is_err());
    }

    #[test]
    fn exact_check_rejects_what_the_tolerant_check_accepts() {
        let want = traj(&[1, 2], 0.5);
        let near = traj(&[1, 2], 0.5004);
        let far = traj(&[1, 2], 0.502);
        assert!(check_frames(&want, &want.frames, 0.0).is_ok());
        assert!(check_frames(&near, &want.frames, 0.0).is_err());
        assert!(check_frames(&near, &want.frames, 1e-3).is_ok());
        assert!(check_frames(&far, &want.frames, 1e-3).is_err());
        assert!(check_frames(&traj(&[1], 0.5), &want.frames, 1e-3).is_err());
    }

    #[test]
    fn windows_of_the_reference_are_strided_slices() {
        let r = traj(&[0, 1, 2, 3, 4, 5], 0.0);
        let window = r.frames[1..6].iter().step_by(2);
        assert_eq!(shape_of(window), (3, 2, 1, 5));
    }
}
