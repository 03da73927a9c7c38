//! Point-in-time front-end statistics, independent of the global
//! telemetry registry so concurrent tests in one process don't share
//! counters.

use crate::scheduler::{Class, ClassCounters};

/// Snapshot of one class's admission state.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassStats {
    /// Lifetime request accounting.
    pub counters: ClassCounters,
    /// Requests waiting right now.
    pub queue_depth: usize,
    /// Highest queue depth ever observed.
    pub queue_hwm: usize,
    /// Requests executing right now.
    pub running: usize,
    /// Configured slot limit.
    pub slots: usize,
}

/// Snapshot of both classes, from [`crate::Frontend::stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontendStats {
    /// Write-path admission state.
    pub ingest: ClassStats,
    /// Read-path admission state.
    pub query: ClassStats,
}

impl FrontendStats {
    /// The stats for `class`.
    pub fn class(&self, class: Class) -> &ClassStats {
        match class {
            Class::Ingest => &self.ingest,
            Class::Query => &self.query,
        }
    }

    /// True when every submitted request has been fully accounted for:
    /// nothing queued, nothing running, and the lifetime counters balance
    /// (`submitted == admitted + rejected + expired`, `completed ==
    /// admitted`).
    pub fn is_quiescent(&self) -> bool {
        [self.ingest, self.query].iter().all(|c| {
            let n = c.counters;
            c.queue_depth == 0
                && c.running == 0
                && n.submitted == n.admitted + n.rejected + n.expired
                && n.completed == n.admitted
        })
    }
}
