//! I/O tracing.
//!
//! A [`TraceLog`] can be attached to any simulated file system; every
//! operation appends a [`TraceEvent`] (op kind, path, bytes, virtual
//! duration). The platform harness and tests use traces to verify *what*
//! the middleware actually touched — e.g. that a `tag p` query never reads
//! a MISC dropping from the HDD backend.

use ada_storagesim::SimDuration;
use ada_sync::Mutex;
use std::sync::Arc;

/// Kind of file-system operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// File creation (write).
    Create,
    /// Append (write).
    Append,
    /// Whole-file read.
    Read,
    /// Range read.
    ReadRange,
    /// Deletion.
    Delete,
}

impl OpKind {
    /// Stable short name, used as the telemetry counter suffix.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Create => "create",
            OpKind::Append => "append",
            OpKind::Read => "read",
            OpKind::ReadRange => "read_range",
            OpKind::Delete => "delete",
        }
    }
}

/// One traced operation.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// File system name the op ran on.
    pub fs: String,
    /// Operation kind.
    pub op: OpKind,
    /// Path touched.
    pub path: String,
    /// Bytes moved.
    pub bytes: u64,
    /// Virtual duration charged.
    pub duration: SimDuration,
}

/// A shared, clonable trace sink.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl TraceLog {
    /// New empty log.
    pub fn new() -> TraceLog {
        TraceLog::default()
    }

    /// Record an event. Piggybacks per-fs, per-op counts and bytes onto
    /// the global telemetry registry (`simfs.{fs}.{op}.ops` / `.bytes`),
    /// so backend op mixes show up in every metrics snapshot without a
    /// second instrumentation pass.
    pub fn record(&self, event: TraceEvent) {
        if ada_telemetry::enabled() {
            let reg = ada_telemetry::global();
            let base = format!("simfs.{}.{}", event.fs, event.op.name());
            reg.counter(&format!("{}.ops", base)).inc();
            if event.bytes > 0 {
                reg.counter(&format!("{}.bytes", base)).add(event.bytes);
            }
        }
        self.events.lock().push(event);
    }

    /// Snapshot of all events so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Clear the log.
    pub fn clear(&self) {
        self.events.lock().clear();
    }

    /// Total bytes moved by ops matching a filter.
    pub fn bytes_where(&self, pred: impl Fn(&TraceEvent) -> bool) -> u64 {
        self.events
            .lock()
            .iter()
            .filter(|e| pred(e))
            .map(|e| e.bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(op: OpKind, path: &str, bytes: u64) -> TraceEvent {
        TraceEvent {
            fs: "test".into(),
            op,
            path: path.into(),
            bytes,
            duration: SimDuration::ZERO,
        }
    }

    #[test]
    fn record_and_filter() {
        let log = TraceLog::new();
        log.record(ev(OpKind::Create, "/a/x", 10));
        log.record(ev(OpKind::Read, "/a/x", 10));
        log.record(ev(OpKind::Read, "/b/y", 5));
        assert_eq!(log.len(), 3);
        assert_eq!(log.bytes_where(|e| e.op == OpKind::Read), 15);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn record_piggybacks_telemetry_counters() {
        let log = TraceLog::new();
        log.record(ev(OpKind::ReadRange, "/t/z", 64));
        let snap = ada_telemetry::global().snapshot();
        assert!(snap.counters["simfs.test.read_range.ops"] >= 1);
        assert!(snap.counters["simfs.test.read_range.bytes"] >= 64);
    }

    #[test]
    fn shared_across_clones() {
        let log = TraceLog::new();
        let log2 = log.clone();
        log.record(ev(OpKind::Delete, "/x", 0));
        assert_eq!(log2.len(), 1);
    }
}
