#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! # ada-telemetry — in-tree observability for the ADA middleware
//!
//! The ingest engine is a decoder→splitter→dispatcher pipeline, but until
//! now nothing could say *where* wall-time goes (the ROADMAP question: "is
//! decode, split, or dispatch the wall-clock ceiling?"). This crate is the
//! measurement substrate every layer shares, built so it can stay enabled
//! in hot loops:
//!
//! * lock-free metric cells: atomic [`Counter`]s, [`Gauge`]s (with
//!   high-water marks) and log-bucketed [`Histogram`]s with p50/p90/p99
//!   readout. They are plain fields of the instance that owns them —
//!   built in its constructor, never registered, never looked up by name —
//!   so counting an event is a relaxed `fetch_add` and two instances in
//!   one process never share a count.
//! * **snapshot export**: an owner writes its fields into a [`Snapshot`]
//!   under the names `METRICS.md` catalogs (`Server` walks its `Frontend`,
//!   which walks its `Ada`, which walks its flight recorder, cache and
//!   container set), and [`Snapshot::to_json`] exports it via `ada-json`,
//!   consumed by `repro --metrics-out`.
//! * **request tracing** ([`trace`]): per-request span *trees* with a
//!   propagatable [`TraceContext`], a bounded [`trace::FlightRecorder`]
//!   per stack (each `Ada` and each `Client` owns one) retaining
//!   slow/shed/errored traces, and Chrome trace-event export
//!   ([`trace::chrome_trace`]) for Perfetto (DESIGN.md §13). A trace span
//!   is the only stage instrumentation there is: when a trace seals, the
//!   recorder folds each of its spans once into its
//!   `span.{stage}.ns/.calls/.bytes/.frames` family, and the sealed tree
//!   stays in the recorder as the request's own timing — one clock per
//!   stage, read by every view.
//!
//! Telemetry is on by default and globally switchable: [`set_enabled`]
//! flips the one `AtomicBool` that trace roots and the instrumented call
//! sites check first, so a disabled build path costs one relaxed load
//! (the `telemetry_overhead` bench in `ada-bench` guards the budget).
//!
//! Zero external dependencies — the container is offline; the only deps
//! are the in-tree `ada-json` (export) and `ada-sync` (the recorder's
//! lock).

pub mod histogram;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot};
pub use trace::{FlightRecorder, Trace, TraceContext, TraceSpan, TraceSpanGuard};

use ada_json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enable or disable telemetry recording.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether telemetry is currently recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A monotonically increasing event/byte counter.
///
/// `add` is a single relaxed `fetch_add`; concurrent increments from any
/// number of threads are never lost (see the stress test below).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// New counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (queue depth, resident bytes) that also tracks
/// its high-water mark.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    high_water: AtomicI64,
}

impl Gauge {
    /// New gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    fn raise(&self, seen: i64) {
        self.high_water.fetch_max(seen, Ordering::Relaxed);
    }

    /// Set the level.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.raise(v);
    }

    /// Move the level by `delta`; returns the new level.
    pub fn add(&self, delta: i64) -> i64 {
        let now = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.raise(now);
        now
    }

    /// Level + 1.
    pub fn inc(&self) -> i64 {
        self.add(1)
    }

    /// Level − 1.
    pub fn dec(&self) -> i64 {
        self.add(-1)
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest level ever observed (never decreases).
    pub fn high_water(&self) -> i64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

/// Point-in-time view of a gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Level at snapshot time.
    pub value: i64,
    /// High-water mark.
    pub high_water: i64,
}

/// A point-in-time view of one instance's metrics. Each owner — `Server`,
/// `Frontend`, `Ada`, its cache and container set, `Client`, `Router`,
/// a [`trace::FlightRecorder`] — holds its metrics as plain fields and
/// writes them here under the names `METRICS.md` catalogs; a parent walks
/// its children into the same snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge value + high-water mark by name.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Histogram stats by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// A metric name from its dot-separated parts — for the families whose
/// names carry a runtime part (a backend, a client, a span), joined when a
/// snapshot is taken, never when an event is counted.
pub fn key(parts: &[&str]) -> String {
    parts.join(".")
}

impl Snapshot {
    /// Set counter `name`.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Set counter `name` if it has counted anything: the rows of a sparse
    /// family (per op and error kind, per backend) appear once they occur.
    pub fn nonzero(&mut self, name: &str, value: u64) {
        if value > 0 {
            self.counter(name, value);
        }
    }

    /// Set gauge `name`.
    pub fn gauge(&mut self, name: &str, value: i64, high_water: i64) {
        let g = GaugeSnapshot { value, high_water };
        self.gauges.insert(name.to_string(), g);
    }

    /// Set histogram `name`.
    pub fn histogram(&mut self, name: &str, h: &Histogram) {
        self.histograms.insert(name.to_string(), h.snapshot());
    }

    /// Machine-readable export:
    /// `{"counters": {..}, "gauges": {..}, "histograms": {..}}`.
    pub fn to_json(&self) -> Value {
        let counters = Value::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Value::num_u(*v)))
                .collect(),
        );
        let gauges = Value::Obj(
            self.gauges
                .iter()
                .map(|(k, g)| {
                    (
                        k.clone(),
                        Value::obj(vec![
                            ("value", Value::Num(g.value as f64)),
                            ("high_water", Value::Num(g.high_water as f64)),
                        ]),
                    )
                })
                .collect(),
        );
        let histograms = Value::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.to_json()))
                .collect(),
        );
        Value::obj(vec![
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_concurrent_increments_none_lost() {
        // Satellite requirement: a multi-thread stress test asserting no
        // lost increments.
        let c = Counter::new();
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 100_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 3);
        g.set(10);
        g.set(1);
        assert_eq!(g.get(), 1);
        assert_eq!(g.high_water(), 10);
    }

    #[test]
    fn sparse_rows_appear_once_they_count() {
        let mut snap = Snapshot::default();
        snap.nonzero("quiet", 0);
        snap.nonzero("busy", 2);
        snap.counter("fixed", 0);
        assert_eq!(snap.counters.keys().collect::<Vec<_>>(), ["busy", "fixed"]);
        assert_eq!(key(&["plfs", "ssd", "read", "ops"]), "plfs.ssd.read.ops");
    }

    #[test]
    fn snapshot_json_roundtrips_through_parser() {
        let mut snap = Snapshot::default();
        snap.counter("ops", 7);
        snap.gauge("queue", 1, 3);
        let lat = Histogram::new();
        lat.record(100);
        snap.histogram("lat", &lat);
        let json = snap.to_json();
        let parsed = ada_json::parse(&json.to_vec()).unwrap();
        assert_eq!(
            parsed
                .field("counters")
                .unwrap()
                .field("ops")
                .unwrap()
                .as_u64()
                .unwrap(),
            7
        );
        assert_eq!(
            parsed
                .field("gauges")
                .unwrap()
                .field("queue")
                .unwrap()
                .field("high_water")
                .unwrap()
                .as_u64()
                .unwrap(),
            3
        );
        assert_eq!(
            parsed
                .field("histograms")
                .unwrap()
                .field("lat")
                .unwrap()
                .field("count")
                .unwrap()
                .as_u64()
                .unwrap(),
            1
        );
    }
}
