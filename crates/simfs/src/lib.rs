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
//! A file system stores bytes. What an operation costs is
//! [`LocalFs::cost`]: the medium's time for the byte count plus the file
//! system's per-operation overhead. A read returns that duration with its
//! bytes, a write returns none, and no file system touches a shared clock:
//! callers compose durations (`+` within one queue, `max` across media
//! that serve at once). A model that needs only the price of a volume —
//! `ada-platforms`' figures, whose fat-node datasets reach 2.6 TB — calls
//! `cost` on the medium and stores nothing.

pub mod backing;
pub mod local;

pub use backing::Backing;
pub use local::LocalFs;

use ada_storagesim::SimDuration;
use bytes::Bytes;

/// File contents: bytes, cheaply clonable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Content(Bytes);

impl Content {
    /// Content from a byte vector.
    pub fn real(data: impl Into<Bytes>) -> Content {
        Content(data.into())
    }

    /// The bytes.
    pub fn bytes(&self) -> &Bytes {
        &self.0
    }

    /// The bytes, as the option the benchmark's ladder binds: always
    /// `Some`.
    pub fn as_real(&self) -> Option<&Bytes> {
        Some(&self.0)
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.0.len() as u64
    }

    /// True when zero-length.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sub-range `[offset, offset+len)`, a zero-copy slice.
    pub fn slice(&self, offset: u64, len: u64) -> Result<Content, FsError> {
        match offset.checked_add(len) {
            Some(end) if end <= self.len() => {
                Ok(Content(self.0.slice(offset as usize..end as usize)))
            }
            _ => Err(FsError::OutOfRange {
                offset,
                len,
                file_len: self.len(),
            }),
        }
    }

    /// `self` followed by `other` (append semantics).
    pub fn concat(&self, other: &Content) -> Content {
        Content(Bytes::from([&self.0[..], &other.0[..]].concat()))
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
    /// The medium refused the call on this path: nothing was stored or
    /// removed.
    Refused(String),
    /// No backend is mounted under this name.
    Unmounted(String),
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
            FsError::Refused(p) => write!(f, "refused: {}", p),
            FsError::Unmounted(b) => write!(f, "unknown backend '{}'", b),
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
    fn create(&self, path: &str, content: Content) -> Result<(), FsError>;

    /// Append to an existing file (creates it when absent).
    fn append(&self, path: &str, content: Content) -> Result<(), FsError>;

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
    fn content_len_and_bytes() {
        let r = Content::real(vec![1u8, 2, 3]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.as_real(), Some(r.bytes()));
        assert!(Content::real(Vec::new()).is_empty());
    }

    #[test]
    fn slice_in_and_out_of_range() {
        let r = Content::real((0u8..10).collect::<Vec<_>>());
        let sl = r.slice(2, 5).unwrap();
        assert_eq!(sl.bytes().as_ref(), &[2, 3, 4, 5, 6]);
        assert!(matches!(r.slice(8, 5), Err(FsError::OutOfRange { .. })));
        assert!(matches!(
            r.slice(u64::MAX, 2),
            Err(FsError::OutOfRange { .. })
        ));
    }

    #[test]
    fn concat_appends() {
        let ab = Content::real(vec![1u8]).concat(&Content::real(vec![2u8, 3]));
        assert_eq!(ab.bytes().as_ref(), &[1, 2, 3]);
    }
}
