//! Molecular topology: atoms, residues, and whole systems.

use crate::category::{Category, Tag, Taxonomy};
use crate::element::Element;
use crate::pbc::PbcBox;
use crate::ranges::IndexRanges;
use std::collections::BTreeMap;

/// One atom of the topology (coordinates live in trajectory frames, not
/// here; the PDB's reference coordinates are stored on [`MolecularSystem`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Atom {
    /// PDB serial number (1-based in files; preserved verbatim).
    pub serial: u32,
    /// Atom name, e.g. `CA`, `N`, `OW`.
    pub name: String,
    /// Residue name, e.g. `ALA`, `SOL`, `POPC`.
    pub resname: String,
    /// Residue sequence number.
    pub resid: i32,
    /// Chain identifier.
    pub chain: char,
    /// Chemical element (derived from the name if the file lacks it).
    pub element: Element,
    /// Whether this atom came from a HETATM record.
    pub hetero: bool,
}

impl Atom {
    /// Category of this atom (decided by residue name, as in VMD).
    pub fn category(&self) -> Category {
        Category::of_residue(&self.resname)
    }
}

/// A contiguous run of atoms forming one residue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Residue {
    /// Residue name.
    pub name: String,
    /// Residue sequence number.
    pub resid: i32,
    /// Chain identifier.
    pub chain: char,
    /// Atom index range `[start, end)` into the system's atom list.
    pub atom_start: usize,
    /// One past the last atom index.
    pub atom_end: usize,
}

impl Residue {
    /// Number of atoms in this residue.
    pub fn len(&self) -> usize {
        self.atom_end - self.atom_start
    }

    /// Whether the residue holds no atoms (never true for built systems).
    pub fn is_empty(&self) -> bool {
        self.atom_end == self.atom_start
    }

    /// Category of this residue.
    pub fn category(&self) -> Category {
        Category::of_residue(&self.name)
    }
}

/// A complete molecular system: topology plus the reference coordinates of
/// the structure file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MolecularSystem {
    /// Human-readable title (PDB TITLE/HEADER).
    pub title: String,
    /// All atoms in file order.
    pub atoms: Vec<Atom>,
    /// Residues (contiguous runs of atoms, in order).
    pub residues: Vec<Residue>,
    /// Reference coordinates in nanometres, one per atom.
    pub coords: Vec<[f32; 3]>,
    /// Periodic box (CRYST1), if present.
    pub pbc: PbcBox,
}

impl MolecularSystem {
    /// Build a system from atoms + coordinates, deriving the residue table
    /// from (chain, resid, resname) change points.
    pub fn from_atoms(
        title: impl Into<String>,
        atoms: Vec<Atom>,
        coords: Vec<[f32; 3]>,
        pbc: PbcBox,
    ) -> MolecularSystem {
        assert_eq!(atoms.len(), coords.len(), "atoms and coords must align");
        let residues = derive_residues(&atoms);
        MolecularSystem {
            title: title.into(),
            atoms,
            residues,
            coords,
            pbc,
        }
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True when the system has no atoms.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Index ranges of atoms in a given category.
    pub fn category_ranges(&self, category: Category) -> IndexRanges {
        let mut out = IndexRanges::new();
        for res in &self.residues {
            if res.category() == category {
                out.push(res.atom_start..res.atom_end);
            }
        }
        out
    }

    /// Count atoms per category.
    pub fn category_counts(&self) -> BTreeMap<Category, usize> {
        let mut map = BTreeMap::new();
        for res in &self.residues {
            *map.entry(res.category()).or_insert(0) += res.len();
        }
        map
    }

    /// Fraction of atoms that are protein (the paper's Table 1 metric is in
    /// bytes, but for uncompressed fixed-size-per-atom data the atom
    /// fraction equals the byte fraction).
    pub fn protein_fraction(&self) -> f64 {
        if self.atoms.is_empty() {
            return 0.0;
        }
        let protein = self
            .category_counts()
            .get(&Category::Protein)
            .copied()
            .unwrap_or(0);
        protein as f64 / self.atoms.len() as f64
    }

    /// Tag ranges under a taxonomy: the categorizer/labeler output of
    /// Algorithm 1, computed the straightforward way. `ada-core` implements
    /// the paper's literal algorithm and is tested for equivalence against
    /// this method.
    pub fn tag_ranges(&self, taxonomy: &Taxonomy) -> BTreeMap<Tag, IndexRanges> {
        let mut out: BTreeMap<Tag, IndexRanges> = BTreeMap::new();
        for res in &self.residues {
            let tag = taxonomy.tag_of(&res.name);
            out.entry(tag)
                .or_default()
                .push(res.atom_start..res.atom_end);
        }
        out
    }

    /// Extract the sub-system covered by `ranges` (atoms, coords and residue
    /// table are all rebuilt; serials are preserved).
    pub fn subset(&self, ranges: &IndexRanges) -> MolecularSystem {
        let atoms: Vec<Atom> = ranges
            .iter_indices()
            .map(|i| self.atoms[i].clone())
            .collect();
        let coords = ranges.gather(&self.coords);
        MolecularSystem::from_atoms(self.title.clone(), atoms, coords, self.pbc)
    }
}

/// Derive contiguous residues from the atom list.
fn derive_residues(atoms: &[Atom]) -> Vec<Residue> {
    let mut residues = Vec::new();
    let mut start = 0usize;
    for i in 1..=atoms.len() {
        let boundary = i == atoms.len() || {
            let a = &atoms[i - 1];
            let b = &atoms[i];
            a.resid != b.resid || a.chain != b.chain || a.resname != b.resname
        };
        if boundary && i > start {
            let a = &atoms[start];
            residues.push(Residue {
                name: a.resname.clone(),
                resid: a.resid,
                chain: a.chain,
                atom_start: start,
                atom_end: i,
            });
            start = i;
        }
    }
    residues
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(serial: u32, name: &str, resname: &str, resid: i32, chain: char) -> Atom {
        Atom {
            serial,
            name: name.to_string(),
            resname: resname.to_string(),
            resid,
            chain,
            element: Element::from_pdb_atom_name(name, resname),
            hetero: false,
        }
    }

    fn tiny_system() -> MolecularSystem {
        // 2 protein residues (3 + 2 atoms), 2 waters (3 atoms each), 1 ion.
        let atoms = vec![
            atom(1, "N", "ALA", 1, 'A'),
            atom(2, "CA", "ALA", 1, 'A'),
            atom(3, "C", "ALA", 1, 'A'),
            atom(4, "N", "GLY", 2, 'A'),
            atom(5, "CA", "GLY", 2, 'A'),
            atom(6, "OW", "SOL", 3, 'W'),
            atom(7, "HW1", "SOL", 3, 'W'),
            atom(8, "HW2", "SOL", 3, 'W'),
            atom(9, "OW", "SOL", 4, 'W'),
            atom(10, "HW1", "SOL", 4, 'W'),
            atom(11, "HW2", "SOL", 4, 'W'),
            atom(12, "NA", "SOD", 5, 'I'),
        ];
        let coords = vec![[0.0; 3]; 12];
        MolecularSystem::from_atoms("tiny", atoms, coords, PbcBox::rectangular(5.0, 5.0, 5.0))
    }

    #[test]
    fn residue_derivation() {
        let s = tiny_system();
        assert_eq!(s.residues.len(), 5);
        assert_eq!(s.residues[0].len(), 3);
        assert_eq!(s.residues[1].len(), 2);
        assert_eq!(s.residues[4].len(), 1);
        assert_eq!(s.residues[4].name, "SOD");
    }

    #[test]
    fn category_ranges_and_counts() {
        let s = tiny_system();
        let prot = s.category_ranges(Category::Protein);
        assert_eq!(prot, IndexRanges::single(0..5));
        let water = s.category_ranges(Category::Water);
        assert_eq!(water, IndexRanges::single(5..11));
        let counts = s.category_counts();
        assert_eq!(counts[&Category::Protein], 5);
        assert_eq!(counts[&Category::Water], 6);
        assert_eq!(counts[&Category::Ion], 1);
    }

    #[test]
    fn protein_fraction() {
        let s = tiny_system();
        assert!((s.protein_fraction() - 5.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn tag_ranges_paper_default() {
        let s = tiny_system();
        let tags = s.tag_ranges(&Taxonomy::paper_default());
        assert_eq!(tags[&Tag::protein()], IndexRanges::single(0..5));
        assert_eq!(tags[&Tag::misc()], IndexRanges::single(5..12));
    }

    #[test]
    fn subset_extraction() {
        let s = tiny_system();
        let prot = s.subset(&s.category_ranges(Category::Protein));
        assert_eq!(prot.len(), 5);
        assert_eq!(prot.residues.len(), 2);
        assert_eq!(prot.atoms[0].serial, 1);
        assert!((prot.protein_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(prot.pbc, s.pbc);
        assert!(!prot.pbc.is_zero());
    }

    #[test]
    fn residue_split_on_resid_change_same_name() {
        // Two SOL waters with different resids are distinct residues even if
        // adjacent — derive_residues must split on resid.
        let s = tiny_system();
        let waters: Vec<_> = s
            .residues
            .iter()
            .filter(|r| r.category() == Category::Water)
            .collect();
        assert_eq!(waters.len(), 2);
    }

    #[test]
    fn empty_system() {
        let s = MolecularSystem::from_atoms("empty", vec![], vec![], PbcBox::zero());
        assert!(s.is_empty());
        assert_eq!(s.protein_fraction(), 0.0);
        assert!(s.residues.is_empty());
        assert!(s.pbc.is_zero());
    }

    #[test]
    #[should_panic]
    fn mismatched_coords_panic() {
        let atoms = vec![atom(1, "CA", "ALA", 1, 'A')];
        MolecularSystem::from_atoms("bad", atoms, vec![], PbcBox::zero());
    }
}
