//! The `mol` command layer.
//!
//! Mirrors the workflow of §3.4:
//!
//! ```text
//! $ mol new foo.pdb
//! $ mol addfile /mnt/bar.xtc           # traditional: decompress locally
//! $ mol addfile /mnt/bar.xtc tag p     # ADA: fetch the protein subset
//! ```

use crate::render::{render_frame, render_trajectory, DrawStyle, RenderOptions, RenderStats};
use ada_core::{Ada, AdaError, RetrievedData};
use ada_mdformats::pdb::parse_pdb;
use ada_mdformats::{read_xtc, Frame};
use ada_mdmodel::{infer_bonds, parse_selection, Bond, IndexRanges, MolecularSystem, Tag};

/// One representation of a molecule: a selection drawn in a style (VMD's
/// `mol addrep` / `mol modselect` / `mol modstyle`).
#[derive(Debug, Clone)]
pub struct Representation {
    /// Selection text the rep was created with.
    pub selection_text: String,
    /// Atom ranges the selection resolved to.
    pub atoms: IndexRanges,
    /// Drawing style.
    pub style: DrawStyle,
    /// Whether the rep is drawn.
    pub visible: bool,
}

/// Identifier of a loaded molecule within a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MolId(pub usize);

/// A loaded molecule: structure + frames + derived bonds + representations.
#[derive(Debug)]
pub struct Molecule {
    /// Structure (possibly a tagged subset of the ingested one).
    pub system: MolecularSystem,
    /// Loaded trajectory frames.
    pub frames: Vec<Frame>,
    /// Bonds derived from the reference coordinates.
    pub bonds: Vec<Bond>,
    /// Representations (empty = draw everything with default style).
    pub reps: Vec<Representation>,
}

impl Molecule {
    /// Resident memory of the loaded frames in bytes.
    pub fn frames_bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.nbytes() as u64).sum()
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
            reps: Vec::new(),
        });
        Ok(MolId(self.molecules.len() - 1))
    }

    /// `mol addfile bar.xtc` — traditional path: the compute node gets the
    /// compressed bytes and decompresses them itself.
    pub fn mol_addfile_xtc(&mut self, id: MolId, xtc_bytes: &[u8]) -> Result<usize, AdaError> {
        let traj = read_xtc(xtc_bytes)?;
        let mol = &mut self.molecules[id.0];
        if let Some(f) = traj.frames.first() {
            if f.len() != mol.system.len() {
                return Err(AdaError::AtomMismatch {
                    pdb: mol.system.len(),
                    xtc: f.len(),
                });
            }
        }
        let added = traj.len();
        mol.frames.extend(traj.frames);
        Ok(added)
    }

    /// `mol addfile /mnt/bar.xtc tag p` — ADA path: fetch a pre-decompressed
    /// subset; the molecule's structure is narrowed to the tag's atoms so
    /// rendering and selections keep working.
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
            RetrievedData::Synthetic { .. } => {
                return Err(AdaError::Pdb(
                    "cannot load a synthetic dataset into a VMD session".into(),
                ))
            }
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
        } else if let Some(f) = traj.frames.first() {
            if f.len() != mol.system.len() {
                return Err(AdaError::AtomMismatch {
                    pdb: mol.system.len(),
                    xtc: f.len(),
                });
            }
        }
        let added = traj.len();
        mol.frames.extend(traj.frames);
        Ok(added)
    }

    /// Render the loaded animation (all frames), parallel across frames.
    pub fn animate(&self, id: MolId, opts: &RenderOptions, nthreads: usize) -> Vec<RenderStats> {
        let mol = &self.molecules[id.0];
        render_trajectory(&mol.system, &mol.bonds, &mol.frames, opts, nthreads)
    }

    /// `mol addrep`: add a representation drawing `selection` in `style`.
    /// Returns the rep index.
    pub fn mol_addrep(
        &mut self,
        id: MolId,
        selection: &str,
        style: DrawStyle,
    ) -> Result<usize, AdaError> {
        let mol = &mut self.molecules[id.0];
        let sel = parse_selection(selection).map_err(AdaError::Pdb)?;
        let atoms = sel.evaluate(&mol.system);
        mol.reps.push(Representation {
            selection_text: selection.to_string(),
            atoms,
            style,
            visible: true,
        });
        Ok(mol.reps.len() - 1)
    }

    /// `mol showrep`: toggle a representation's visibility.
    pub fn mol_showrep(&mut self, id: MolId, rep: usize, visible: bool) {
        self.molecules[id.0].reps[rep].visible = visible;
    }

    /// Render one frame through the molecule's representations: each
    /// visible rep draws its selection in its own style; per-rep stats are
    /// returned in rep order (hidden reps yield empty stats).
    pub fn render_reps(
        &self,
        id: MolId,
        frame_idx: usize,
        opts: &RenderOptions,
    ) -> Vec<RenderStats> {
        let mol = &self.molecules[id.0];
        let frame = &mol.frames[frame_idx];
        // One coordinate buffer reused across reps (gather_into), instead
        // of a fresh allocation per rep.
        let mut sub_coords: Vec<[f32; 3]> = Vec::new();
        mol.reps
            .iter()
            .map(|rep| {
                if !rep.visible || rep.atoms.is_empty() {
                    return RenderStats {
                        atoms_drawn: 0,
                        bonds_drawn: 0,
                        pixels_filled: 0,
                        framebuffer: Vec::new(),
                    };
                }
                let sub_sys = mol.system.subset(&rep.atoms);
                rep.atoms.gather_into(&frame.coords, &mut sub_coords);
                // Remap bonds into the subset's index space.
                let index_map: std::collections::HashMap<usize, u32> = rep
                    .atoms
                    .iter_indices()
                    .enumerate()
                    .map(|(new, old)| (old, new as u32))
                    .collect();
                let sub_bonds: Vec<Bond> = mol
                    .bonds
                    .iter()
                    .filter_map(|b| {
                        let a = index_map.get(&(b.a as usize))?;
                        let c = index_map.get(&(b.b as usize))?;
                        Some(Bond::new(*a, *c))
                    })
                    .collect();
                let rep_opts = RenderOptions {
                    style: rep.style,
                    ..*opts
                };
                render_frame(&sub_sys, &sub_bonds, &sub_coords, &rep_opts)
            })
            .collect()
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
        let stats = vmd.animate(id, &RenderOptions::default(), 2);
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
        let stats = vmd.animate(id, &RenderOptions::default(), 2);
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
    fn representations_draw_selections() {
        let (_ada, _w, pdb_text, xtc_bytes) = setup();
        let mut vmd = VmdSession::new();
        let id = vmd.mol_new(&pdb_text).unwrap();
        vmd.mol_addfile_xtc(id, &xtc_bytes).unwrap();
        let prot_rep = vmd
            .mol_addrep(id, "protein", crate::render::DrawStyle::Licorice)
            .unwrap();
        let wat_rep = vmd
            .mol_addrep(id, "water", crate::render::DrawStyle::Points)
            .unwrap();
        let stats = vmd.render_reps(id, 0, &RenderOptions::default());
        assert_eq!(stats.len(), 2);
        assert!(stats[prot_rep].atoms_drawn > 0);
        assert!(stats[prot_rep].bonds_drawn > 0); // licorice draws bonds
        assert!(stats[wat_rep].atoms_drawn > 0);
        assert_eq!(stats[wat_rep].bonds_drawn, 0); // points hide bonds

        // Hide water: its stats go empty.
        vmd.mol_showrep(id, wat_rep, false);
        let stats2 = vmd.render_reps(id, 0, &RenderOptions::default());
        assert_eq!(stats2[wat_rep].atoms_drawn, 0);
        assert_eq!(stats2[prot_rep].atoms_drawn, stats[prot_rep].atoms_drawn);
    }

    #[test]
    fn bad_rep_selection_rejected() {
        let (_ada, _w, pdb_text, _) = setup();
        let mut vmd = VmdSession::new();
        let id = vmd.mol_new(&pdb_text).unwrap();
        assert!(vmd
            .mol_addrep(id, "resname", crate::render::DrawStyle::Lines)
            .is_err());
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
    fn bad_pdb_rejected() {
        let mut vmd = VmdSession::new();
        assert!(vmd
            .mol_new("ATOM      1  CA  GLY A   1      bogus\n")
            .is_err());
    }
}
