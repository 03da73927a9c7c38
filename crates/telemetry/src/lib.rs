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
//! * a global, lock-free **metrics registry** ([`Registry`], [`global`]) of
//!   atomic [`Counter`]s, [`Gauge`]s (with high-water marks) and
//!   log-bucketed [`Histogram`]s with p50/p90/p99 readout. Registration
//!   takes a short lock once; the returned `Arc` handles touch only
//!   atomics, so per-event cost on the hot path is a relaxed
//!   `fetch_add`.
//! * **snapshot export**: [`Registry::snapshot`] → [`Snapshot::to_json`]
//!   via `ada-json`, consumed by `repro --metrics-out`.
//! * **request tracing** ([`trace`]): per-request span *trees* with a
//!   propagatable [`TraceContext`], a bounded [`trace::FlightRecorder`]
//!   retaining slow/shed/errored traces, and Chrome trace-event export
//!   ([`trace::chrome_trace`]) for Perfetto (DESIGN.md §13). A trace span
//!   is the only stage instrumentation there is: when a trace seals, each
//!   of its spans is folded once into the registry's
//!   `span.{stage}.ns/.calls/.bytes/.frames` family, and `ada-core` cuts a
//!   request's stage profile from the same tree — one clock per stage,
//!   read by every view.
//!
//! Telemetry is on by default and globally switchable: [`set_enabled`]
//! flips an `AtomicBool` that trace roots and the instrumented call
//! sites check first, so a disabled build path costs one relaxed load
//! (the `telemetry_overhead` bench in `ada-bench` guards the budget).
//!
//! Zero external dependencies — the container is offline; the only deps
//! are the in-tree `ada-json` (export) and `ada-sync` (registration
//! lock).

pub mod histogram;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot};
pub use trace::{FlightRecorder, Trace, TraceContext, TraceSpan, TraceSpanGuard};

use ada_json::Value;
use ada_sync::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enable or disable telemetry recording.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether telemetry is currently recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether telemetry is currently off (one relaxed atomic load — the
/// cost instrumented hot loops pay when recording is switched off).
pub fn disabled() -> bool {
    !enabled()
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

/// Handles of one stage's `span.{stage}.*` family. The byte and frame
/// counters register on the first span that carries the arg, so a stage
/// that never annotates them leaves no zero-valued counter behind.
struct StageMetrics {
    ns: Arc<Histogram>,
    calls: Arc<Counter>,
    bytes: Option<Arc<Counter>>,
    frames: Option<Arc<Counter>>,
}

/// The metric store. Handles returned by `counter`/`gauge`/`histogram`
/// are `Arc`s sharing the underlying atomics: keep them across a loop and
/// the loop never touches the registry lock.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    /// `span.{stage}.*` handles by span name, so sealing a trace formats
    /// and looks up a stage's metric names once, not once per span.
    stages: Mutex<BTreeMap<&'static str, StageMetrics>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Metric handles are atomics behind Arcs; summarize by name count
        // instead of locking all three maps for a full dump.
        f.debug_struct("Registry")
            .field("counters", &self.counters.lock().len())
            .field("gauges", &self.gauges.lock().len())
            .field("histograms", &self.histograms.lock().len())
            .finish()
    }
}

impl Registry {
    /// New empty registry (tests; production code uses [`global`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get-or-register a counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut g = self.counters.lock();
        match g.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::new());
                g.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    /// Get-or-register a gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut g = self.gauges.lock();
        match g.get(name) {
            Some(v) => Arc::clone(v),
            None => {
                let v = Arc::new(Gauge::new());
                g.insert(name.to_string(), Arc::clone(&v));
                v
            }
        }
    }

    /// Get-or-register a histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut g = self.histograms.lock();
        match g.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::new());
                g.insert(name.to_string(), Arc::clone(&h));
                h
            }
        }
    }

    /// Fold the spans of a sealed trace into the `span.{stage}.*` family:
    /// per span, its duration into the `.ns` histogram, one `.calls`, and
    /// its `bytes` / `frames` args into the counters of the same name.
    pub(crate) fn record_spans(&self, spans: &[TraceSpan]) {
        let mut stages = self.stages.lock();
        for s in spans {
            let m = stages.entry(s.name).or_insert_with(|| StageMetrics {
                ns: self.histogram(&format!("span.{}.ns", s.name)),
                calls: self.counter(&format!("span.{}.calls", s.name)),
                bytes: None,
                frames: None,
            });
            m.ns.record(s.duration_ns());
            m.calls.inc();
            for (key, slot) in [("bytes", &mut m.bytes), ("frames", &mut m.frames)] {
                if let Some(n) = s.arg_u64(key).filter(|n| *n > 0) {
                    slot.get_or_insert_with(|| self.counter(&format!("span.{}.{}", s.name, key)))
                        .add(n);
                }
            }
        }
    }

    /// Point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        GaugeSnapshot {
                            value: v.get(),
                            high_water: v.high_water(),
                        },
                    )
                })
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }

    /// Drop every metric. Handles already held keep working but are
    /// detached from future snapshots — use between isolated profiling
    /// runs, not mid-flight.
    pub fn reset(&self) {
        self.counters.lock().clear();
        self.gauges.lock().clear();
        self.histograms.lock().clear();
        self.stages.lock().clear();
    }
}

/// The process-wide registry all instrumented layers share.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

/// A point-in-time view of a [`Registry`].
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge value + high-water mark by name.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Histogram stats by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
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

/// [`global`] registry snapshot as JSON with the flight recorder's trace
/// summaries attached under `"traces"` — the full observability export
/// (`repro --metrics-out` writes this).
pub fn snapshot_with_traces() -> Value {
    let mut v = global().snapshot().to_json();
    if let Value::Obj(fields) = &mut v {
        fields.push(("traces".to_string(), trace::recorder().to_json()));
    }
    v
}

/// Serializes tests that observe or flip the global enable switch.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_concurrent_increments_none_lost() {
        // Satellite requirement: a multi-thread stress test asserting no
        // lost increments.
        let reg = Registry::new();
        let c = reg.counter("stress");
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 100_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS as u64 * PER_THREAD);
        assert_eq!(
            reg.snapshot().counters["stress"],
            THREADS as u64 * PER_THREAD
        );
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
    fn registry_returns_shared_handles() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(2);
        b.add(3);
        assert_eq!(reg.counter("x").get(), 5);
        // Distinct names are distinct metrics.
        reg.counter("y").inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counters["x"], 5);
        assert_eq!(snap.counters["y"], 1);
    }

    #[test]
    fn snapshot_json_roundtrips_through_parser() {
        let reg = Registry::new();
        reg.counter("ops").add(7);
        reg.gauge("queue").set(3);
        reg.histogram("lat").record(100);
        let json = reg.snapshot().to_json();
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

    #[test]
    fn reset_clears_metrics() {
        let reg = Registry::new();
        reg.counter("a").inc();
        reg.reset();
        assert!(reg.snapshot().counters.is_empty());
    }

    #[test]
    fn enable_switch() {
        let _g = test_guard();
        assert!(enabled());
        set_enabled(false);
        assert!(disabled());
        set_enabled(true);
        assert!(enabled());
    }
}
