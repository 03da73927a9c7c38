//! The `mol` command layer.
//!
//! Mirrors the workflow of §3.4:
//!
//! ```text
//! $ mol new foo.pdb
//! $ mol addfile /mnt/bar.xtc           # traditional: decompress locally
//! $ mol addfile /mnt/bar.xtc tag p     # ADA: fetch the protein subset
//! ```

use crate::render::{render_trajectory, RenderStats};
use ada_core::{Ada, AdaError, RetrievedData};
use ada_mdformats::pdb::parse_pdb;
use ada_mdformats::{read_xtc, Frame};
use ada_mdmodel::{infer_bonds, Bond, MolecularSystem, Tag};

/// Identifier of a loaded molecule within a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MolId(pub usize);

/// A loaded molecule: structure + frames + derived bonds.
#[derive(Debug)]
pub struct Molecule {
    /// Structure (possibly a tagged subset of the ingested one).
    pub system: MolecularSystem,
    /// Loaded trajectory frames.
    pub frames: Vec<Frame>,
    /// Bonds derived from the reference coordinates.
    pub bonds: Vec<Bond>,
}

impl Molecule {
    /// Resident memory of the loaded frames in bytes.
    pub fn frames_bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.nbytes() as u64).sum()
    }

    /// Every frame must carry the structure's atom count; the first that
    /// does not is the error, and nothing is loaded.
    fn check_frames(&self, frames: &[Frame]) -> Result<(), AdaError> {
        match frames.iter().find(|f| f.len() != self.system.len()) {
            Some(f) => Err(AdaError::AtomMismatch {
                pdb: self.system.len(),
                xtc: f.len(),
            }),
            None => Ok(()),
        }
    }
}

/// A VMD-like session.
#[derive(Debug, Default)]
pub struct VmdSession {
    molecules: Vec<Molecule>,
}

impl VmdSession {
    /// Empty session.
    pub fn new() -> VmdSession {
        VmdSession::default()
    }

    /// Loaded molecules.
    pub fn molecules(&self) -> &[Molecule] {
        &self.molecules
    }

    /// Access one molecule.
    pub fn molecule(&self, id: MolId) -> &Molecule {
        &self.molecules[id.0]
    }

    /// `mol new foo.pdb` — load a structure, derive bonds.
    pub fn mol_new(&mut self, pdb_text: &str) -> Result<MolId, AdaError> {
        let system = parse_pdb(pdb_text).map_err(|e| AdaError::Pdb(e.to_string()))?;
        let bonds = infer_bonds(
            &system,
            &system.coords,
            ada_mdmodel::bonds::DEFAULT_TOLERANCE,
        );
        self.molecules.push(Molecule {
            system,
            frames: Vec::new(),
            bonds,
        });
        Ok(MolId(self.molecules.len() - 1))
    }

    /// `mol addfile bar.xtc` — traditional path: the compute node gets the
    /// compressed bytes and decompresses them itself.
    pub fn mol_addfile_xtc(&mut self, id: MolId, xtc_bytes: &[u8]) -> Result<usize, AdaError> {
        let traj = read_xtc(xtc_bytes)?;
        let mol = &mut self.molecules[id.0];
        mol.check_frames(&traj.frames)?;
        let added = traj.len();
        mol.frames.extend(traj.frames);
        Ok(added)
    }

    /// `mol addfile /mnt/bar.xtc tag p` — ADA path: fetch a pre-decompressed
    /// subset; the molecule's structure is narrowed to the tag's atoms so
    /// rendering keeps working.
    pub fn mol_addfile_ada(
        &mut self,
        id: MolId,
        ada: &Ada,
        dataset: &str,
        tag: Option<&Tag>,
    ) -> Result<usize, AdaError> {
        let report = ada.query(dataset, tag)?;
        let traj = match report.data {
            RetrievedData::Real(t) => t,
            RetrievedData::Synthetic { .. } => return Err(AdaError::size_only()),
        };
        let mol = &mut self.molecules[id.0];
        if let Some(t) = tag {
            let label = ada.label(dataset)?;
            let ranges = label.ranges(t)?;
            if ranges.count() != traj.natoms() && !traj.is_empty() {
                return Err(AdaError::AtomMismatch {
                    pdb: ranges.count(),
                    xtc: traj.natoms(),
                });
            }
            // Narrow the structure to the subset and rebuild bonds.
            let sub = mol.system.subset(ranges);
            mol.bonds = infer_bonds(&sub, &sub.coords, ada_mdmodel::bonds::DEFAULT_TOLERANCE);
            mol.system = sub;
        } else {
            mol.check_frames(&traj.frames)?;
        }
        let added = traj.len();
        mol.frames.extend(traj.frames);
        Ok(added)
    }

    /// Render the loaded animation (all frames), parallel across frames.
    pub fn animate(&self, id: MolId, nthreads: usize) -> Vec<RenderStats> {
        let mol = &self.molecules[id.0];
        render_trajectory(&mol.system, &mol.bonds, &mol.frames, nthreads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_core::{AdaConfig, IngestInput};
    use ada_mdformats::write_pdb;
    use ada_mdformats::xtc::{write_xtc, DEFAULT_PRECISION};
    use ada_plfs::ContainerSet;
    use ada_simfs::{LocalFs, SimFileSystem};
    use std::sync::Arc;

    fn setup() -> (Ada, ada_workload::Workload, String, Vec<u8>) {
        let w = ada_workload::gpcr_workload(1500, 3, 13);
        let pdb_text = write_pdb(&w.system);
        let xtc_bytes = write_xtc(&w.trajectory, DEFAULT_PRECISION).unwrap();
        let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
        let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
        let cs = Arc::new(ContainerSet::new(vec![
            ("ssd".into(), ssd.clone()),
            ("hdd".into(), hdd),
        ]));
        let ada = Ada::new(AdaConfig::paper_prototype("ssd", "hdd"), cs, ssd);
        ada.ingest(
            "bar",
            IngestInput::Real {
                pdb_text: pdb_text.clone(),
                xtc_bytes: xtc_bytes.clone(),
            },
        )
        .unwrap();
        (ada, w, pdb_text, xtc_bytes)
    }

    #[test]
    fn traditional_load_and_animate() {
        let (_ada, w, pdb_text, xtc_bytes) = setup();
        let mut vmd = VmdSession::new();
        let id = vmd.mol_new(&pdb_text).unwrap();
        let n = vmd.mol_addfile_xtc(id, &xtc_bytes).unwrap();
        assert_eq!(n, 3);
        assert_eq!(vmd.molecule(id).system.len(), w.system.len());
        let stats = vmd.animate(id, 2);
        assert_eq!(stats.len(), 3);
        assert!(stats.iter().all(|s| s.pixels_filled > 0));
    }

    #[test]
    fn ada_tagged_load_narrows_structure() {
        let (ada, w, pdb_text, _) = setup();
        let mut vmd = VmdSession::new();
        let id = vmd.mol_new(&pdb_text).unwrap();
        let n = vmd
            .mol_addfile_ada(id, &ada, "bar", Some(&Tag::protein()))
            .unwrap();
        assert_eq!(n, 3);
        let prot_atoms = w
            .system
            .category_ranges(ada_mdmodel::Category::Protein)
            .count();
        assert_eq!(vmd.molecule(id).system.len(), prot_atoms);
        assert!((vmd.molecule(id).system.protein_fraction() - 1.0).abs() < 1e-9);
        // Less memory than the traditional load would need.
        assert!(vmd.molecule(id).frames_bytes() < (w.trajectory.nbytes() as u64));
        let stats = vmd.animate(id, 2);
        assert_eq!(stats.len(), 3);
        assert!(stats[0].pixels_filled > 0);
    }

    #[test]
    fn ada_untagged_load_matches_traditional() {
        let (ada, _w, pdb_text, xtc_bytes) = setup();
        let mut trad = VmdSession::new();
        let t_id = trad.mol_new(&pdb_text).unwrap();
        trad.mol_addfile_xtc(t_id, &xtc_bytes).unwrap();

        let mut viaada = VmdSession::new();
        let a_id = viaada.mol_new(&pdb_text).unwrap();
        viaada.mol_addfile_ada(a_id, &ada, "bar", None).unwrap();

        let a = &trad.molecule(t_id).frames;
        let b = &viaada.molecule(a_id).frames;
        assert_eq!(a.len(), b.len());
        for (fa, fb) in a.iter().zip(b.iter()) {
            assert_eq!(fa.coords.len(), fb.coords.len());
            for (ca, cb) in fa.coords.iter().zip(&fb.coords) {
                for d in 0..3 {
                    // Both went through the same lossy XTC quantization.
                    assert!((ca[d] - cb[d]).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn atom_mismatch_rejected() {
        let (_ada, _w, pdb_text, _) = setup();
        let other = ada_workload::gpcr_workload(400, 1, 99);
        let bad_xtc = write_xtc(&other.trajectory, DEFAULT_PRECISION).unwrap();
        let mut vmd = VmdSession::new();
        let id = vmd.mol_new(&pdb_text).unwrap();
        assert!(matches!(
            vmd.mol_addfile_xtc(id, &bad_xtc),
            Err(AdaError::AtomMismatch { .. })
        ));
    }

    #[test]
    fn ragged_xtc_is_rejected_and_loads_nothing() {
        // A frame with another atom count after good ones: the whole file is
        // refused, so the renderer never meets a frame it cannot draw.
        let (_ada, w, pdb_text, mut xtc_bytes) = setup();
        let other = ada_workload::gpcr_workload(400, 1, 99);
        xtc_bytes.extend(write_xtc(&other.trajectory, DEFAULT_PRECISION).unwrap());
        let mut vmd = VmdSession::new();
        let id = vmd.mol_new(&pdb_text).unwrap();
        match vmd.mol_addfile_xtc(id, &xtc_bytes) {
            Err(AdaError::AtomMismatch { pdb, xtc }) => {
                assert_eq!(pdb, w.system.len());
                assert_eq!(xtc, other.system.len());
            }
            res => panic!("expected AtomMismatch, got {:?}", res),
        }
        assert!(vmd.molecule(id).frames.is_empty());
        assert!(vmd.animate(id, 2).is_empty());
    }

    #[test]
    fn bad_pdb_rejected() {
        let mut vmd = VmdSession::new();
        assert!(vmd
            .mol_new("ATOM      1  CA  GLY A   1      bogus\n")
            .is_err());
    }
}
