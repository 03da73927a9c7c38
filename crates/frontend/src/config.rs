//! Front-end tuning knobs: per-class slots and queue capacities.

/// Configuration for [`crate::Frontend`]: per-class concurrency limits and
/// bounded queue capacities, mirroring the storage node's fixed resources
/// in the paper's Fig. 9 contention experiment.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Ingest requests executing concurrently (ingest is write-heavy and
    /// CPU-bound on the storage node, so it gets fewer slots by default).
    pub ingest_slots: usize,
    /// Query requests executing concurrently.
    pub query_slots: usize,
    /// Ingest requests allowed to wait; one more is shed with
    /// [`ada_core::AdaError::Overloaded`].
    pub ingest_queue: usize,
    /// Query requests allowed to wait.
    pub query_queue: usize,
}

impl Default for FrontendConfig {
    fn default() -> FrontendConfig {
        FrontendConfig {
            ingest_slots: 2,
            query_slots: 4,
            ingest_queue: 16,
            query_queue: 32,
        }
    }
}

impl FrontendConfig {
    /// Clamp degenerate values: at least one slot and a queue of at least
    /// one per class, so the front-end can always make progress.
    pub fn normalized(mut self) -> FrontendConfig {
        self.ingest_slots = self.ingest_slots.max(1);
        self.query_slots = self.query_slots.max(1);
        self.ingest_queue = self.ingest_queue.max(1);
        self.query_queue = self.query_queue.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_already_normalized() {
        let d = FrontendConfig::default();
        let n = d.clone().normalized();
        assert_eq!(d.ingest_slots, n.ingest_slots);
        assert_eq!(d.query_queue, n.query_queue);
    }

    #[test]
    fn normalized_clamps_zeros() {
        let c = FrontendConfig {
            ingest_slots: 0,
            query_slots: 0,
            ingest_queue: 0,
            query_queue: 0,
        }
        .normalized();
        assert_eq!(c.ingest_slots, 1);
        assert_eq!(c.query_slots, 1);
        assert_eq!(c.ingest_queue, 1);
        assert_eq!(c.query_queue, 1);
    }
}
