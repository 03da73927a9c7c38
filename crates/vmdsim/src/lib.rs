#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! # ada-vmdsim — a VMD-like visualization front end
//!
//! The paper uses VMD as the fixed downstream consumer: it loads a
//! structure (`mol new foo.pdb`), loads trajectory data
//! (`mol addfile /mnt/bar.xtc [tag p]`), derives bonds, builds 3D geometry
//! per frame and replays the animation. This crate reproduces that consumer
//! with real code:
//!
//! * [`mol`] — the command layer: a [`mol::VmdSession`] holding loaded
//!   molecules, with plain-FS loading (decompress-on-compute-node, the
//!   traditional path) and ADA-backed tagged loading;
//! * [`render`] — an actual software renderer (rotation + orthographic
//!   projection + Bresenham bond drawing into a framebuffer), parallel
//!   across frames over scoped threads;
//! * [`playback`] — the §2.1 motivation: an LRU frame cache replaying
//!   access patterns ("replaying the frames back and forth") with hit-rate
//!   accounting.
//!
//! It draws what ADA delivers, one fixed view of every atom it is handed;
//! selecting what to load is the tag's job (`mol addfile … tag p`).

pub mod mol;
pub mod playback;
pub mod render;

pub use mol::{MolId, Molecule, VmdSession};
pub use playback::{AccessPattern, FrameCache, ReplayStats};
pub use render::{render_frame, render_trajectory, RenderStats};
