#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! # ada-plfs — a PLFS-style container layer with multiple backends
//!
//! ADA's I/O dispatcher "is developed based on PLFS, a parallel
//! log-structured file system... Since PLFS supports multiple backends, the
//! I/O dispatcher modifies this feature to distribute sub datasets with
//! diverse target storage information to their right destinations" (§3.3).
//!
//! This crate reproduces the abstraction ADA actually uses:
//!
//! * a **logical file** (e.g. `bar`) maps to a *container* on each backend
//!   mount: a `mnt*/bar/` directory holding its **data droppings**
//!   (`hostdir.0/dropping.data.<tag>`), one per tag. The container set
//!   does not decide who owns a name or whether it exists: its caller
//!   does (ADA's dataset map), and a name with nothing stored simply
//!   indexes as empty;
//! * every write is stored as a tag's dropping on a *caller-chosen backend*
//!   and described by the [`IndexRecord`] the append returns — tag,
//!   backend, path, length (Fig. 6's `bar/mnt1`, `bar/mnt2` picture). The
//!   caller keeps the records (ADA's label file); the backends are the
//!   only other copy, and [`ContainerSet::index`] reads them back;
//! * a read fetches one dropping by its record; droppings living on
//!   different backends are fetched from each backend in parallel
//!   (durations compose by `max` per backend, `+` within a backend's
//!   queue).
//!
//! The underlying [`SimFileSystem`]s stay completely unaware that the
//! dropping files they store are pieces of a larger logical file — PLFS's
//! transparency property, which is what lets ADA run over unmodified
//! ext4/XFS/PVFS.

pub mod container;

pub use container::{ContainerSet, IndexRecord};

#[cfg(test)]
mod tests {
    // Integration-style checks live in container.rs and in the workspace
    // tests/ suite.
}
