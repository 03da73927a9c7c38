#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! # ada-mdformats — molecular file formats, from scratch
//!
//! The ADA paper's data plane is built around two file types (§2.1):
//!
//! * **`.xtc`** — GROMACS' compressed trajectory format. Frames are XDR
//!   encoded; coordinates go through the `xdr3dfcoord` algorithm (integer
//!   quantization at a given precision, mixed-radix "sizeofints" packing,
//!   and a small-displacement run-length coder). Decompression of this
//!   format is exactly the repeated CPU burden the paper measures (Fig. 8).
//!   Implemented from scratch in [`xtc`].
//! * **`.pdb`** — the Protein Data Bank structure format that *guides* the
//!   categorizer ("One .xtc file is guided by a corresponding .pdb file").
//!   Implemented in [`pdb`]; it is the one structure format ADA ingests.
//!
//! Additionally [`xtcf`] defines **XTCF**, the uncompressed flat frame
//! format ADA uses for the *decompressed* data subsets it stores on its
//! backends (the paper stores decompressed protein/MISC trajectories; the
//! on-disk encoding is unspecified, so we define a simple exact one).

pub mod pdb;
pub mod traj;
pub mod xdr;
pub mod xtc;
pub mod xtcf;

pub use pdb::{parse_pdb, write_pdb, PdbError};
pub use traj::{Frame, Trajectory};
pub use xtc::{read_xtc, write_xtc, XtcError, XtcWriter};
pub use xtcf::{read_xtcf, write_xtcf, XtcfReader, XtcfWriter};

/// Errors shared by the format codecs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// Input ended before a complete record was read.
    UnexpectedEof,
    /// Structural corruption (bad magic, impossible counts, ...).
    Corrupt(String),
    /// A value fell outside what the format can represent.
    OutOfRange(String),
    /// Corruption localized to one chunk of a chunked (XTCF v2) file —
    /// checksum mismatch, bad directory entry, or broken records.
    ChunkCorrupt {
        /// Zero-based chunk index within the file.
        chunk: usize,
        /// What was wrong with it.
        detail: String,
    },
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::UnexpectedEof => write!(f, "unexpected end of input"),
            FormatError::Corrupt(m) => write!(f, "corrupt data: {}", m),
            FormatError::OutOfRange(m) => write!(f, "value out of range: {}", m),
            FormatError::ChunkCorrupt { chunk, detail } => {
                write!(f, "corrupt chunk {}: {}", chunk, detail)
            }
        }
    }
}

impl std::error::Error for FormatError {}
