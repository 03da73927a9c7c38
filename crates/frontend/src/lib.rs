#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![deny(missing_docs)]

//! # ada-frontend — multi-client admission control over a shared `Ada`
//!
//! The paper's Fig. 9 measures ADA under *concurrent* VMD clients, where
//! the storage node's fixed CPU and bandwidth are the bottleneck. The
//! core [`Ada`](ada_core::Ada) object is already shareable (`&self` with
//! internal `ada_sync` locks) but unguarded: any number of clients can
//! pile onto it and the node degrades unboundedly. This crate adds the
//! arbitration layer:
//!
//! * [`FrontendConfig`] — per-class (ingest vs. query) concurrency slots
//!   and bounded queue capacities;
//! * [`SchedulerCore`] — a deterministic, lock-free-of-time state machine
//!   implementing FIFO-within-class scheduling, deadline expiry and typed
//!   load shedding (`AdaError::Overloaded { queue_depth, retry_after }`);
//!   all timestamps are supplied by the caller, so the proptest suite can
//!   replay arbitrary interleavings exactly;
//! * [`Frontend`] — the core under one lock, shared by client threads.
//!   It owns no threads: an admitted request executes on the thread that
//!   submitted it, and a request that has to wait blocks on a one-shot
//!   bounded channel until a finishing caller's slot release starts it.
//!   A request is therefore a call, not a message: [`Frontend::run`]
//!   takes the operation as a closure over the shared `Ada` and returns
//!   whatever it returns; the typed `ingest` / `query` / … wrappers are
//!   one such call each, and nothing owned is built to carry a request.
//!   Full `ada-telemetry` integration (queue-depth HWM gauges,
//!   admission-wait histograms, per-client accepted / rejected /
//!   deadline-exceeded counters).
//!
//! Shedding is graceful: a rejected request carries the current queue
//! depth and a retry-after hint derived from the observed mean service
//! time, so clients can back off proportionally to the overload instead
//! of retrying blindly.

pub mod config;
pub mod frontend;
pub mod scheduler;
pub mod stats;

pub use config::FrontendConfig;
pub use frontend::Frontend;
pub use scheduler::{Class, ClassCounters, Popped, Rejection, SchedulerCore};
pub use stats::{ClassStats, FrontendStats};
