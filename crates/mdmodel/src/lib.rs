#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! # ada-mdmodel — molecular system model
//!
//! Foundation types shared by the whole ADA reproduction:
//!
//! * [`Atom`], [`Residue`], [`MolecularSystem`] — a molecular topology as
//!   parsed from a PDB file or produced by the synthetic workload generator.
//! * [`Category`] / [`Tag`] — the *application-conscious* data taxonomy that
//!   ADA's categorizer (the paper's Algorithm 1) assigns to atoms. The paper
//!   uses "p" (protein, active) and "m" (MISC, inactive); we keep the full
//!   residue-class taxonomy so the finer-grained queries of Section 4.1's
//!   `mol addfile ... tag p` extension work too.
//! * [`IndexRanges`] — sorted disjoint half-open index ranges; the exact data
//!   structure the labeler stores per tag ("Data Subset Ranges" in Algo 1).
//! * [`bonds`] — covalent-radius + cell-grid bond inference used by the
//!   VMD-like renderer.
//! * [`PbcBox`] — the periodic box matrix the structure and trajectory
//!   codecs carry.
//!
//! Selecting and drawing atoms is the consumer's business, not the
//! storage layer's: ADA hands VMD a tagged subset, and VMD selects within it.

pub mod bonds;
pub mod category;
pub mod element;
pub mod pbc;
pub mod ranges;
pub mod system;

pub use bonds::{infer_bonds, Bond};
pub use category::{Category, Tag};
pub use element::Element;
pub use pbc::PbcBox;
pub use ranges::IndexRanges;
pub use system::{Atom, MolecularSystem, Residue};
