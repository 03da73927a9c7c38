#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! # ada-simfs — the simulated file system
//!
//! The file-system layer ADA sits on top of (Fig. 4's bottom box). There is
//! one file system, [`LocalFs`]: a store (an in-memory file table) charged
//! to a medium (a [`Backing`]). The medium is a single device, a RAID-50
//! array, or a PVFS/OrangeFS-like striped parallel file system's storage
//! servers and network, and it is a pure function from a byte count to a
//! virtual duration. Its presets are the paper's file systems: ext4 on the
//! NVMe SSD server, XFS on the fat node's RAID-50 array, and the cluster's
//! PVFS over three HDD nodes and over three SSD nodes.
//!
//! ## The dual-mode data plane
//!
//! File contents are a [`Content`]: either `Real` bytes (actual PDB/XTC
//! payloads, the only kind `ada-core` stores) or `Synthetic` size-only
//! blobs (what `ada-platforms`' volume model stores for the figures, whose
//! fat-node datasets reach 2.6 TB — far beyond what a test process should
//! materialize).
//! Every operation charges identical virtual time for both modes, because
//! the medium charges by byte count, not by buffer contents.
//!
//! File systems never touch the shared clock themselves — operations return
//! [`SimDuration`]s and callers compose them (sequential `+`, parallel
//! `max`), which is what lets the platform harness model concurrent striped
//! reads correctly.

pub mod backing;
pub mod local;
pub mod trace;

pub use backing::Backing;
pub use local::LocalFs;
pub use trace::{OpKind, TraceEvent, TraceLog};

use ada_storagesim::SimDuration;
use bytes::Bytes;

/// File contents: real bytes or a size-only synthetic blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Content {
    /// Actual bytes (cheaply clonable).
    Real(Bytes),
    /// A virtual blob of `len` bytes whose contents are never materialized.
    Synthetic {
        /// Virtual length in bytes.
        len: u64,
    },
}

impl Content {
    /// Real content from a byte vector.
    pub fn real(data: impl Into<Bytes>) -> Content {
        Content::Real(data.into())
    }

    /// Synthetic content of `len` bytes.
    pub fn synthetic(len: u64) -> Content {
        Content::Synthetic { len }
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Content::Real(b) => b.len() as u64,
            Content::Synthetic { len } => *len,
        }
    }

    /// True when zero-length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow real bytes, or `None` for synthetic content.
    pub fn as_real(&self) -> Option<&Bytes> {
        match self {
            Content::Real(b) => Some(b),
            Content::Synthetic { .. } => None,
        }
    }

    /// Sub-range `[offset, offset+len)`; synthetic content slices to a
    /// synthetic blob, real content to a zero-copy `Bytes` slice.
    pub fn slice(&self, offset: u64, len: u64) -> Result<Content, FsError> {
        if offset + len > self.len() {
            return Err(FsError::OutOfRange {
                offset,
                len,
                file_len: self.len(),
            });
        }
        Ok(match self {
            Content::Real(b) => Content::Real(b.slice(offset as usize..(offset + len) as usize)),
            Content::Synthetic { .. } => Content::Synthetic { len },
        })
    }

    /// Concatenate (append semantics). Real ++ Real stays real; any
    /// synthetic operand degrades the result to synthetic (sizes add).
    pub fn concat(&self, other: &Content) -> Content {
        match (self, other) {
            (Content::Real(a), Content::Real(b)) => {
                let mut v = Vec::with_capacity(a.len() + b.len());
                v.extend_from_slice(a);
                v.extend_from_slice(b);
                Content::Real(Bytes::from(v))
            }
            _ => Content::Synthetic {
                len: self.len() + other.len(),
            },
        }
    }
}

/// Metadata of a stored file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStat {
    /// File length in bytes.
    pub len: u64,
}

/// File-system errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path does not exist.
    NotFound(String),
    /// Create on an existing path.
    AlreadyExists(String),
    /// Backing store is full.
    NoSpace {
        /// Bytes requested.
        requested: u64,
        /// Bytes still free.
        free: u64,
    },
    /// Read past end of file.
    OutOfRange {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Actual file length.
        file_len: u64,
    },
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "not found: {}", p),
            FsError::AlreadyExists(p) => write!(f, "already exists: {}", p),
            FsError::NoSpace { requested, free } => {
                write!(f, "no space: requested {} B, free {} B", requested, free)
            }
            FsError::OutOfRange {
                offset,
                len,
                file_len,
            } => write!(
                f,
                "range {}+{} exceeds file length {}",
                offset, len, file_len
            ),
        }
    }
}

impl std::error::Error for FsError {}

/// A (content, virtual-duration) pair returned by timed reads.
pub type TimedRead = (Content, SimDuration);

/// The VFS interface ADA's I/O determinator programs against. All methods
/// are `&self`; implementations use interior mutability so one FS can be
/// shared by the dispatcher and many readers.
pub trait SimFileSystem: Send + Sync {
    /// Short name for reports ("ext4", "pvfs-ssd", ...).
    fn name(&self) -> &str;

    /// Create a file with contents. Fails if the path exists.
    fn create(&self, path: &str, content: Content) -> Result<SimDuration, FsError>;

    /// Append to an existing file (creates it when absent).
    fn append(&self, path: &str, content: Content) -> Result<SimDuration, FsError>;

    /// Read a whole file.
    fn read(&self, path: &str) -> Result<TimedRead, FsError>;

    /// Read `[offset, offset+len)` of a file.
    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<TimedRead, FsError>;

    /// Delete a file.
    fn delete(&self, path: &str) -> Result<(), FsError>;

    /// Stat a file.
    fn stat(&self, path: &str) -> Result<FileStat, FsError>;

    /// Whether a path exists.
    fn exists(&self, path: &str) -> bool {
        self.stat(path).is_ok()
    }

    /// All paths with the given prefix, sorted.
    fn list(&self, prefix: &str) -> Vec<String>;

    /// Total bytes stored.
    fn used_bytes(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_len_and_kind() {
        let r = Content::real(vec![1u8, 2, 3]);
        let s = Content::synthetic(1 << 40);
        assert_eq!(r.len(), 3);
        assert!(r.as_real().is_some());
        assert_eq!(s.len(), 1 << 40);
        assert!(s.as_real().is_none());
        assert!(Content::real(Vec::new()).is_empty());
    }

    #[test]
    fn slice_real_and_synthetic() {
        let r = Content::real((0u8..10).collect::<Vec<_>>());
        let sl = r.slice(2, 5).unwrap();
        assert_eq!(sl.as_real().unwrap().as_ref(), &[2, 3, 4, 5, 6]);
        let s = Content::synthetic(100);
        assert_eq!(s.slice(10, 50).unwrap().len(), 50);
        assert!(matches!(r.slice(8, 5), Err(FsError::OutOfRange { .. })));
    }

    #[test]
    fn concat_rules() {
        let a = Content::real(vec![1u8]);
        let b = Content::real(vec![2u8, 3]);
        let ab = a.concat(&b);
        assert_eq!(ab.as_real().unwrap().as_ref(), &[1, 2, 3]);
        let s = Content::synthetic(5);
        let mixed = a.concat(&s);
        assert!(mixed.as_real().is_none());
        assert_eq!(mixed.len(), 6);
    }
}
