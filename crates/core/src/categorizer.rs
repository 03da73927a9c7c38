//! The data categorizer — Algorithm 1 of the paper.
//!
//! The pseudocode scans the atoms of a `.pdb` file once, reading each
//! atom's type (`GetType`), and emits per-tag `[begin, end)` ranges by
//! tracking runs of equal tags. This module implements that single-pass
//! run-tracking algorithm literally (per-atom `GetType`, `prev_tag`
//! comparison, run close-out on change), with the two obvious
//! transcription fixes the printed pseudocode needs: the range closed on a
//! tag change belongs to `prev_tag` (not the new tag), and the final run is
//! flushed after the loop. Equivalence with the declarative
//! residue-granular computation in `ada-mdmodel` is property-tested.

use ada_mdmodel::category::Taxonomy;
use ada_mdmodel::{IndexRanges, MolecularSystem, Tag};
use std::collections::BTreeMap;

/// The labeler mapping Algorithm 1 produces: tag → data subset ranges.
pub type Labeler = BTreeMap<Tag, IndexRanges>;

/// Run Algorithm 1 over the atoms of `system` with `GetType` given by
/// `taxonomy`.
pub fn categorize_algo1(system: &MolecularSystem, taxonomy: &Taxonomy) -> Labeler {
    let mut labeler: Labeler = BTreeMap::new();
    let mut begin: usize = 0;
    let mut prev_tag: Option<Tag> = None;

    for (offset, atom) in system.atoms.iter().enumerate() {
        // Categorizer module: read the atom's type from the pdb record.
        let tag = taxonomy.tag_of(&atom.resname);
        match &prev_tag {
            None => {
                prev_tag = Some(tag);
                begin = offset;
            }
            Some(prev) if *prev == tag => {
                // Same run: extend (implicit — the range closes later).
            }
            Some(prev) => {
                // Labeler module: close the finished run under prev_tag.
                labeler.entry(prev.clone()).or_default().push(begin..offset);
                prev_tag = Some(tag);
                begin = offset;
            }
        }
    }
    // Flush the final run.
    if let Some(prev) = prev_tag {
        labeler
            .entry(prev)
            .or_default()
            .push(begin..system.atoms.len());
    }
    labeler
}

/// Byte volume of each tag's subset for a given per-atom payload size
/// (12 bytes/atom/frame for uncompressed coordinates).
pub fn bytes_by_tag(labeler: &Labeler, bytes_per_atom: u64) -> BTreeMap<Tag, u64> {
    labeler
        .iter()
        .map(|(t, r)| (t.clone(), r.count() as u64 * bytes_per_atom))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_mdmodel::{Atom, Element, PbcBox};

    fn atom(resname: &str, resid: i32) -> Atom {
        Atom {
            serial: 0,
            name: "X".into(),
            resname: resname.into(),
            resid,
            chain: 'A',
            element: Element::C,
            hetero: false,
        }
    }

    fn system_of(resnames: &[(&str, usize)]) -> MolecularSystem {
        let mut atoms = Vec::new();
        for (resid, (name, count)) in resnames.iter().enumerate() {
            for _ in 0..*count {
                atoms.push(atom(name, resid as i32 + 1));
            }
        }
        let n = atoms.len();
        MolecularSystem::from_atoms("t", atoms, vec![[0.0; 3]; n], PbcBox::zero())
    }

    /// More tags than protein/MISC: one per category the systems hold.
    fn per_category() -> Taxonomy {
        let config = "tag p = category protein\ntag w = category water\n\
                      tag l = category lipid\ntag i = category ion\ndefault o";
        Taxonomy::parse_config(config).unwrap()
    }

    #[test]
    fn single_run_per_tag() {
        let sys = system_of(&[("ALA", 5), ("SOL", 3)]);
        let labeler = categorize_algo1(&sys, &Taxonomy::paper_default());
        assert_eq!(labeler[&Tag::protein()], IndexRanges::single(0..5));
        assert_eq!(labeler[&Tag::misc()], IndexRanges::single(5..8));
    }

    #[test]
    fn alternating_runs() {
        let sys = system_of(&[("ALA", 2), ("SOL", 2), ("GLY", 3), ("SOL", 1)]);
        let labeler = categorize_algo1(&sys, &Taxonomy::paper_default());
        assert_eq!(
            labeler[&Tag::protein()],
            IndexRanges::from_ranges([0..2, 4..7])
        );
        assert_eq!(
            labeler[&Tag::misc()],
            IndexRanges::from_ranges([2..4, 7..8])
        );
    }

    #[test]
    fn empty_system() {
        let sys = system_of(&[]);
        assert!(categorize_algo1(&sys, &Taxonomy::paper_default()).is_empty());
    }

    #[test]
    fn all_one_tag() {
        let sys = system_of(&[("ALA", 4), ("GLY", 4)]);
        let labeler = categorize_algo1(&sys, &Taxonomy::paper_default());
        assert_eq!(labeler.len(), 1);
        assert_eq!(labeler[&Tag::protein()], IndexRanges::single(0..8));
    }

    #[test]
    fn matches_declarative_tag_ranges() {
        // Algorithm 1 must agree with the residue-granular computation.
        for taxonomy in [Taxonomy::paper_default(), per_category()] {
            let sys = system_of(&[
                ("ALA", 3),
                ("POPC", 52),
                ("SOL", 9),
                ("GLY", 2),
                ("SOD", 1),
                ("CLA", 1),
                ("SOL", 3),
            ]);
            let a = categorize_algo1(&sys, &taxonomy);
            let b = sys.tag_ranges(&taxonomy);
            assert_eq!(a, b, "taxonomy mismatch");
        }
    }

    #[test]
    fn ranges_partition_the_atom_set() {
        let sys = system_of(&[("ALA", 10), ("SOL", 20), ("POPC", 52), ("ALA", 5)]);
        let labeler = categorize_algo1(&sys, &per_category());
        assert_eq!(labeler.len(), 3);
        let total: usize = labeler.values().map(IndexRanges::count).sum();
        assert_eq!(total, sys.len());
        // Every atom carries exactly one tag.
        for atom in 0..sys.len() {
            assert_eq!(labeler.values().filter(|r| r.contains(atom)).count(), 1);
        }
    }

    #[test]
    fn bytes_by_tag_scaling() {
        let sys = system_of(&[("ALA", 5), ("SOL", 3)]);
        let labeler = categorize_algo1(&sys, &Taxonomy::paper_default());
        let bytes = bytes_by_tag(&labeler, 12);
        assert_eq!(bytes[&Tag::protein()], 60);
        assert_eq!(bytes[&Tag::misc()], 36);
    }

    #[test]
    fn gpcr_workload_protein_band() {
        let w = ada_workload::gpcr_workload(3000, 1, 5);
        let labeler = categorize_algo1(&w.system, &Taxonomy::paper_default());
        let p = labeler[&Tag::protein()].count() as f64 / w.system.len() as f64;
        assert!(p > 0.40 && p < 0.50, "protein fraction {}", p);
    }
}
