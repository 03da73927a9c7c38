#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! # ada-platforms — the paper's three testbeds and every experiment
//!
//! §4 evaluates ADA on (1) an NVMe **SSD server**, (2) a **nine-node
//! OrangeFS cluster** (3 compute + 3 HDD-storage + 3 SSD-storage nodes) and
//! (3) a **1 TB fat-node server** with a RAID-50 HDD array. This crate
//! assembles those platforms from the simulator substrate and provides:
//!
//! * [`config`] — platform definitions with the published hardware
//!   (Tables 4 and 5) plus the calibrated power model;
//! * [`scenario`] — the Table 3 notation (`C`/`D` × `ext4`/`PVFS`/`XFS` ×
//!   `ADA (all)` / `ADA (protein)`) as a type;
//! * [`volumes`] — the volume model: ADA's ingest and query over per-tag
//!   byte counts, placed as `Ada` places them (`DispatchPolicy`, plfs's
//!   dropping paths) and priced on the platform's media
//!   (`LocalFs::cost`) and by the CPU model; it stores nothing;
//! * [`runner`] — executes one scenario at one frame count end-to-end
//!   over the real placement and the real volumes, producing retrieval /
//!   turnaround / memory / energy metrics and OOM kills;
//! * [`figures`] — one generator per table and figure of the paper,
//!   returning printable rows (used by the `repro` binary and asserted by
//!   the shape tests).

pub mod ablations;
pub mod amortization;
pub mod config;
pub mod contention;
pub mod figures;
pub mod playback;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod volumes;

pub use config::{Platform, PlatformKind};
pub use runner::{run_scenario, KillPoint, RunMetrics};
pub use scenario::Scenario;
