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
//!   mount: a `mnt*/bar/` directory tree holding **data droppings**
//!   (`hostdir.0/dropping.data.<seq>`) and an **index**;
//! * every write is appended as a new dropping on a *caller-chosen backend*
//!   and recorded in the index with its logical offset, length, tag and
//!   physical location (Fig. 6's `bar/mnt1`, `bar/mnt2` picture);
//! * reads reassemble a logical file — or just the droppings carrying one
//!   tag — by walking the index; droppings living on different backends
//!   are fetched from each backend in parallel (durations compose by
//!   `max` per backend, `+` within a backend's queue).
//!
//! The underlying [`SimFileSystem`]s stay completely unaware that the
//! dropping files they store are pieces of a larger logical file — PLFS's
//! transparency property, which is what lets ADA run over unmodified
//! ext4/XFS/PVFS.

pub mod container;

pub use container::{ContainerSet, IndexRecord, PlfsError};

#[cfg(test)]
mod tests {
    // Integration-style checks live in container.rs and in the workspace
    // tests/ suite.
}
