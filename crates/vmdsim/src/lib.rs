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
//! * [`profiler`] — per-phase time accounting, the Fig. 8 instrument;
//! * [`playback`] — the §2.1 motivation: an LRU frame cache replaying
//!   access patterns ("replaying the frames back and forth") with hit-rate
//!   accounting.

pub mod mol;
pub mod playback;
pub mod profiler;
pub mod render;

pub use mol::{MolId, Molecule, Representation, VmdSession};
pub use playback::{AccessPattern, FrameCache, ReplayStats};
pub use profiler::PhaseProfiler;
pub use render::{render_frame, render_trajectory, DrawStyle, RenderOptions, RenderStats};
