//! Distance-based bond inference.
//!
//! VMD derives bonds from inter-atomic distances when a structure file has
//! no explicit CONECT records: two atoms are bonded when their distance is
//! below `tolerance × (r_cov(a) + r_cov(b))`. A uniform cell grid makes the
//! search O(n) for liquid-like densities instead of O(n²).

use crate::element::Element;
use crate::system::MolecularSystem;

/// A covalent bond between two atom indices (`a < b`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bond {
    /// Lower atom index.
    pub a: u32,
    /// Higher atom index.
    pub b: u32,
}

impl Bond {
    /// Construct with normalized ordering.
    pub fn new(a: u32, b: u32) -> Bond {
        if a <= b {
            Bond { a, b }
        } else {
            Bond { a: b, b: a }
        }
    }
}

/// Default VMD-like tolerance factor on the sum of covalent radii.
pub const DEFAULT_TOLERANCE: f32 = 1.2;

/// Infer bonds for `system` using `coords` (commonly the reference
/// coordinates, or a trajectory frame with matching atom count).
///
/// Hydrogens bond to at most one partner (their nearest candidate); no atom
/// exceeds 8 bonds (both caps mirror VMD's heuristics and keep degenerate
/// overlapping coordinates from producing quadratic bond lists).
pub fn infer_bonds(system: &MolecularSystem, coords: &[[f32; 3]], tolerance: f32) -> Vec<Bond> {
    assert_eq!(system.len(), coords.len(), "coords must match atom count");
    let n = coords.len();
    if n < 2 {
        return Vec::new();
    }

    // Maximum bond length bounds the grid cell size.
    let max_radius = system
        .atoms
        .iter()
        .map(|a| a.element.covalent_radius_nm())
        .fold(0.0f32, f32::max);
    let cutoff = (2.0 * max_radius * tolerance).max(1e-3);

    let grid = CellGrid::build(coords, cutoff);

    let mut bonds: Vec<Bond> = Vec::new();
    let mut degree = vec![0u8; n];
    // For hydrogens keep only the closest partner.
    let mut h_best: Vec<Option<(f32, u32)>> = vec![None; n];

    let mut neighbor_buffer = Vec::with_capacity(64);
    for i in 0..n {
        neighbor_buffer.clear();
        grid.neighbors_after(i, coords, cutoff, &mut neighbor_buffer);
        let ei = system.atoms[i].element;
        for &j in &neighbor_buffer {
            let ej = system.atoms[j as usize].element;
            let limit = tolerance * (ei.covalent_radius_nm() + ej.covalent_radius_nm());
            let d2 = dist2(coords[i], coords[j as usize]);
            if d2 < limit * limit && d2 > 1e-8 {
                let d = d2.sqrt();
                let i32_ = i as u32;
                if ei == Element::H {
                    update_h(&mut h_best, i, d, j);
                } else if ej == Element::H {
                    update_h(&mut h_best, j as usize, d, i32_);
                } else if degree[i] < 8 && degree[j as usize] < 8 {
                    bonds.push(Bond::new(i32_, j));
                    degree[i] += 1;
                    degree[j as usize] += 1;
                }
            }
        }
    }

    for (h, best) in h_best.iter().enumerate() {
        if let Some((_, partner)) = best {
            bonds.push(Bond::new(h as u32, *partner));
        }
    }
    bonds.sort_unstable();
    bonds.dedup();
    bonds
}

fn update_h(h_best: &mut [Option<(f32, u32)>], h: usize, d: f32, partner: u32) {
    match &mut h_best[h] {
        Some((best_d, best_p)) if d < *best_d => {
            *best_d = d;
            *best_p = partner;
        }
        Some(_) => {}
        slot @ None => *slot = Some((d, partner)),
    }
}

#[inline]
fn dist2(a: [f32; 3], b: [f32; 3]) -> f32 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    dx * dx + dy * dy + dz * dz
}

/// Uniform cell grid over the coordinate bounding box.
struct CellGrid {
    origin: [f32; 3],
    cell: f32,
    dims: [usize; 3],
    /// CSR layout: atom ids grouped by cell.
    cell_start: Vec<u32>,
    atom_ids: Vec<u32>,
}

impl CellGrid {
    /// Build a grid with cell edge ≥ `cell_size` covering all points.
    fn build(coords: &[[f32; 3]], cell_size: f32) -> CellGrid {
        assert!(cell_size > 0.0);
        let mut lo = [f32::INFINITY; 3];
        let mut hi = [f32::NEG_INFINITY; 3];
        for p in coords {
            for d in 0..3 {
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
        }
        if coords.is_empty() {
            lo = [0.0; 3];
            hi = [0.0; 3];
        }
        // Grow the cell edge until the grid fits a sane budget — tiny
        // cutoffs over large spans must not allocate billions of cells.
        const MAX_CELLS: usize = 2 << 20;
        let mut cell = cell_size;
        let mut dims = [1usize; 3];
        loop {
            for d in 0..3 {
                dims[d] = (((hi[d] - lo[d]) / cell).floor() as usize + 1).max(1);
            }
            match dims[0]
                .checked_mul(dims[1])
                .and_then(|p| p.checked_mul(dims[2]))
            {
                Some(n) if n <= MAX_CELLS => break,
                _ => cell *= 2.0,
            }
        }
        let ncells = dims[0] * dims[1] * dims[2];

        let index_of = |p: &[f32; 3]| -> usize {
            let mut c = [0usize; 3];
            for d in 0..3 {
                c[d] = (((p[d] - lo[d]) / cell) as usize).min(dims[d] - 1);
            }
            (c[2] * dims[1] + c[1]) * dims[0] + c[0]
        };

        // Counting sort into CSR.
        let mut counts = vec![0u32; ncells + 1];
        for p in coords {
            counts[index_of(p) + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let mut atom_ids = vec![0u32; coords.len()];
        let mut cursor = counts.clone();
        for (i, p) in coords.iter().enumerate() {
            let c = index_of(p);
            atom_ids[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        CellGrid {
            origin: lo,
            cell,
            dims,
            cell_start: counts,
            atom_ids,
        }
    }

    fn cell_of(&self, p: &[f32; 3]) -> [usize; 3] {
        let mut c = [0usize; 3];
        for d in 0..3 {
            c[d] = (((p[d] - self.origin[d]) / self.cell) as usize).min(self.dims[d] - 1);
        }
        c
    }

    /// Collect candidate neighbors `j > i` within `cutoff` (coarse, cell
    /// resolution) into `out`.
    fn neighbors_after(&self, i: usize, coords: &[[f32; 3]], cutoff: f32, out: &mut Vec<u32>) {
        let c = self.cell_of(&coords[i]);
        let reach = (cutoff / self.cell).ceil() as isize;
        for dz in -reach..=reach {
            let z = c[2] as isize + dz;
            if z < 0 || z as usize >= self.dims[2] {
                continue;
            }
            for dy in -reach..=reach {
                let y = c[1] as isize + dy;
                if y < 0 || y as usize >= self.dims[1] {
                    continue;
                }
                for dx in -reach..=reach {
                    let x = c[0] as isize + dx;
                    if x < 0 || x as usize >= self.dims[0] {
                        continue;
                    }
                    let cell = (z as usize * self.dims[1] + y as usize) * self.dims[0] + x as usize;
                    let start = self.cell_start[cell] as usize;
                    let end = self.cell_start[cell + 1] as usize;
                    for &j in &self.atom_ids[start..end] {
                        if (j as usize) > i {
                            out.push(j);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbc::PbcBox;
    use crate::system::Atom;

    fn make_system(spec: &[(&str, &str, [f32; 3])]) -> (MolecularSystem, Vec<[f32; 3]>) {
        let atoms: Vec<Atom> = spec
            .iter()
            .enumerate()
            .map(|(i, (name, resname, _))| Atom {
                serial: i as u32 + 1,
                name: name.to_string(),
                resname: resname.to_string(),
                resid: 1,
                chain: 'A',
                element: Element::from_pdb_atom_name(name, resname),
                hetero: false,
            })
            .collect();
        let coords: Vec<[f32; 3]> = spec.iter().map(|(_, _, c)| *c).collect();
        let sys = MolecularSystem::from_atoms("t", atoms, coords.clone(), PbcBox::zero());
        (sys, coords)
    }

    #[test]
    fn water_molecule_bonds() {
        // O-H distances ~0.096 nm; H-H ~0.15 nm (should NOT bond H-H since
        // hydrogens take only their closest partner).
        let (sys, coords) = make_system(&[
            ("OW", "SOL", [0.0, 0.0, 0.0]),
            ("HW1", "SOL", [0.096, 0.0, 0.0]),
            ("HW2", "SOL", [-0.024, 0.093, 0.0]),
        ]);
        let bonds = infer_bonds(&sys, &coords, DEFAULT_TOLERANCE);
        assert_eq!(bonds, vec![Bond::new(0, 1), Bond::new(0, 2)]);
    }

    #[test]
    fn carbon_chain() {
        // C-C at 0.154 nm: bonded. Next-nearest at 0.308: not bonded.
        let (sys, coords) = make_system(&[
            ("C1", "LIG", [0.0, 0.0, 0.0]),
            ("C2", "LIG", [0.154, 0.0, 0.0]),
            ("C3", "LIG", [0.308, 0.0, 0.0]),
        ]);
        let bonds = infer_bonds(&sys, &coords, DEFAULT_TOLERANCE);
        assert_eq!(bonds, vec![Bond::new(0, 1), Bond::new(1, 2)]);
    }

    #[test]
    fn distant_atoms_unbonded() {
        let (sys, coords) = make_system(&[
            ("C1", "LIG", [0.0, 0.0, 0.0]),
            ("C2", "LIG", [1.0, 1.0, 1.0]),
        ]);
        assert!(infer_bonds(&sys, &coords, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn coincident_atoms_not_self_bonded() {
        let (sys, coords) = make_system(&[
            ("C1", "LIG", [0.0, 0.0, 0.0]),
            ("C2", "LIG", [0.0, 0.0, 0.0]),
        ]);
        // Distance² <= 1e-8 is rejected (overlapping atoms are treated as
        // bad input rather than bonded).
        assert!(infer_bonds(&sys, &coords, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn grid_matches_brute_force() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let spec: Vec<(String, String, [f32; 3])> = (0..200)
            .map(|_| {
                (
                    "C".to_string(),
                    "LIG".to_string(),
                    [
                        rng.gen_range(0.0..2.0f32),
                        rng.gen_range(0.0..2.0f32),
                        rng.gen_range(0.0..2.0f32),
                    ],
                )
            })
            .collect();
        let spec_ref: Vec<(&str, &str, [f32; 3])> = spec
            .iter()
            .map(|(a, b, c)| (a.as_str(), b.as_str(), *c))
            .collect();
        let (sys, coords) = make_system(&spec_ref);
        let got = infer_bonds(&sys, &coords, DEFAULT_TOLERANCE);

        // Brute force reference (all carbons, no caps assumed to trigger).
        let limit = DEFAULT_TOLERANCE * 2.0 * Element::C.covalent_radius_nm();
        let mut expect = Vec::new();
        for i in 0..coords.len() {
            for j in (i + 1)..coords.len() {
                let d2 = dist2(coords[i], coords[j]);
                if d2 < limit * limit && d2 > 1e-8 {
                    expect.push(Bond::new(i as u32, j as u32));
                }
            }
        }
        expect.sort_unstable();
        // Degree caps may drop bonds in pathological clusters; with random
        // sparse points equality should hold.
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_and_single() {
        let (sys, coords) = make_system(&[]);
        assert!(infer_bonds(&sys, &coords, DEFAULT_TOLERANCE).is_empty());
        let (sys1, coords1) = make_system(&[("C", "LIG", [0.0; 3])]);
        assert!(infer_bonds(&sys1, &coords1, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn hydrogen_prefers_nearest_heavy_atom() {
        let (sys, coords) = make_system(&[
            ("C1", "LIG", [0.0, 0.0, 0.0]),
            ("O1", "LIG", [0.2, 0.0, 0.0]),
            // H nearer to O than C.
            ("H1", "LIG", [0.13, 0.0, 0.0]),
        ]);
        let bonds = infer_bonds(&sys, &coords, DEFAULT_TOLERANCE);
        assert!(bonds.contains(&Bond::new(1, 2)));
        assert!(!bonds.contains(&Bond::new(0, 2)));
    }
}
