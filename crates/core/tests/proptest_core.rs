//! Property tests over the categorizer and splitter: for ANY residue
//! sequence and ANY taxonomy, Algorithm 1 must produce a partition of the
//! atom set that agrees with the declarative specification, and splitting
//! + reassembling a trajectory must be the identity.

use ada_core::{categorize_algo1, split_trajectory};
use ada_mdformats::{read_xtcf, Frame, Trajectory};
use ada_mdmodel::category::{Taxonomy, TaxonomyRule};
use ada_mdmodel::{Atom, Element, IndexRanges, MolecularSystem, PbcBox, Tag};
use proptest::prelude::*;
use std::collections::BTreeMap;

const RESNAMES: [&str; 8] = ["ALA", "GLY", "SOL", "POPC", "SOD", "CLA", "LIG", "DA"];

fn arb_system() -> impl Strategy<Value = MolecularSystem> {
    prop::collection::vec((0usize..RESNAMES.len(), 1usize..6), 0..40).prop_map(|residues| {
        let mut atoms = Vec::new();
        let mut coords = Vec::new();
        for (resid, (rn, count)) in residues.into_iter().enumerate() {
            for k in 0..count {
                atoms.push(Atom {
                    serial: atoms.len() as u32 + 1,
                    name: format!("A{}", k),
                    resname: RESNAMES[rn].to_string(),
                    resid: resid as i32 + 1,
                    chain: 'A',
                    element: Element::C,
                    hetero: false,
                });
                coords.push([resid as f32 * 0.3, k as f32 * 0.1, 0.0]);
            }
        }
        MolecularSystem::from_atoms("prop", atoms, coords, PbcBox::zero())
    })
}

fn arb_taxonomy() -> impl Strategy<Value = Taxonomy> {
    // Random subset of residue names per tag, random default.
    (
        prop::collection::vec((0usize..RESNAMES.len(), 0usize..4), 0..5),
        0usize..4,
    )
        .prop_map(|(assignments, default)| {
            let rules = assignments
                .into_iter()
                .map(|(rn, tag)| TaxonomyRule {
                    residues: vec![RESNAMES[rn].to_string()],
                    category: None,
                    tag: Tag::new(format!("t{}", tag)),
                })
                .collect();
            Taxonomy::new(rules, Tag::new(format!("t{}", default)))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn algo1_partitions_and_matches_spec(system in arb_system(), taxonomy in arb_taxonomy()) {
        let labeler = categorize_algo1(&system, &taxonomy);
        // Partition: counts sum to n, and every atom carries exactly one tag.
        let total: usize = labeler.values().map(IndexRanges::count).sum();
        prop_assert_eq!(total, system.len());
        for atom in 0..system.len() {
            prop_assert_eq!(labeler.values().filter(|r| r.contains(atom)).count(), 1);
        }
        // Agreement with the declarative residue-granular computation.
        prop_assert_eq!(labeler, system.tag_ranges(&taxonomy));
    }

    #[test]
    fn split_then_scatter_is_identity(system in arb_system(), taxonomy in arb_taxonomy(), nframes in 1usize..4) {
        let frames: Vec<Frame> = (0..nframes)
            .map(|f| Frame {
                step: f as i32,
                time: f as f32,
                pbc: PbcBox::zero(),
                coords: system
                    .coords
                    .iter()
                    .map(|c| [c[0] + f as f32, c[1], c[2]])
                    .collect(),
            })
            .collect();
        let traj = Trajectory::from_frames(frames);
        let labeler = categorize_algo1(&system, &taxonomy);
        let out = split_trajectory(&traj, &labeler).unwrap();
        prop_assert_eq!(out.subsets.len(), labeler.len());

        // Reassemble every frame from the subsets.
        let mut rebuilt: Vec<Vec<[f32; 3]>> =
            vec![vec![[f32::NAN; 3]; system.len()]; traj.len()];
        let mut per_tag: BTreeMap<&Tag, Trajectory> = BTreeMap::new();
        for (tag, bytes) in &out.subsets {
            per_tag.insert(tag, read_xtcf(bytes).unwrap());
        }
        for (tag, ranges) in &labeler {
            let sub = &per_tag[tag];
            for (fi, f) in sub.frames.iter().enumerate() {
                ranges.scatter(&f.coords, &mut rebuilt[fi]);
            }
        }
        for (fi, f) in traj.frames.iter().enumerate() {
            prop_assert_eq!(&rebuilt[fi], &f.coords); // XTCF is bit exact
        }
    }
}
