//! Causal request tracing: span trees, a flight recorder, and Chrome
//! trace-event export.
//!
//! The metrics side of this crate answers *aggregate* questions (how many
//! queries, p99 decode time). This module answers the per-request one —
//! "why was **this** request slow" — by giving every request a
//! [`TraceContext`] minted at its entry point (`Frontend` admission, the
//! server's wire-carried id, the `Ada` facade for direct callers, or the
//! `Client`) from the [`FlightRecorder`] its trace seals into, and carried
//! **explicitly** across every thread boundary of the pipelines: the
//! splitter's and the retriever's worker pools. Each stage opens a child span; the spans of
//! one request form a single connected tree regardless of which threads
//! executed them.
//!
//! ## Context propagation rules
//!
//! * A context is either **active** (it carries a shared handle to the
//!   request's span buffer) or **inactive** (telemetry switched off by
//!   [`crate::set_enabled`] — every operation is a no-op costing one
//!   branch).
//! * A spawned worker is handed the context (or a clone); its spans land
//!   in the same tree. Nothing is implicit — there is no thread-local
//!   "current span", so a context passed along is the only way causality
//!   crosses a thread boundary.
//! * The **root** guard finishes the trace: when it drops, the span
//!   buffer is sealed into an immutable [`Trace`] and offered to the
//!   [`FlightRecorder`] the root was minted from — the one of the stack
//!   that served the request, so two stacks in one process keep disjoint
//!   traces. Workers must therefore be joined before the root drops (the
//!   pipelines already do — they run under scoped threads); late spans
//!   from leaked clones are dropped on the floor.
//!
//! ## One clock per stage
//!
//! A trace span is the only record a stage writes. Sealing a trace
//! ([`FlightRecorder::root`]'s guard dropping) folds every span of it into
//! the recorder's `span.{stage}.ns/.calls/.bytes/.frames` family; a caller
//! that wants one request's cut of the tree reads its sealed [`Trace`]
//! from the recorder.
//!
//! ## Flight recorder
//!
//! Completed traces go into a bounded ring of recent traces (any of which
//! `repro trace` can export), plus a second bounded ring that *retains*
//! flagged traces — errored, shed (`Overloaded`), deadline-expired, or
//! slower than a configurable latency bound — so the one bad request out
//! of thousands survives until someone looks. Both rings hold `Arc`s;
//! sealing a trace is one short lock acquisition, under which its spans
//! are folded into the per-stage totals and it joins the rings.
//!
//! ## Export
//!
//! [`chrome_trace`] renders traces as Chrome trace-event JSON (`ph:"X"`
//! complete events + thread-name metadata) loadable directly in Perfetto
//! or `chrome://tracing`; span args carry bytes, frames, tags, backends
//! and error kinds.

use crate::histogram::Tally;
use crate::{key, Snapshot};
use ada_json::Value;
use ada_sync::Mutex;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The process-wide monotonic epoch all span timestamps are relative to,
/// so spans recorded on different threads are directly comparable.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn next_trace_id() -> u128 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    // The low 64 bits are a process-unique sequence; the high bits are
    // reserved for a node id once traces cross machines (the future RPC
    // protocol propagates the full 128 bits).
    NEXT.fetch_add(1, Ordering::Relaxed) as u128
}

/// Stable label for the calling thread: its name when it has one, else a
/// process-unique `t{n}` — the Chrome export's track name. Built once per
/// thread; every span of the thread shares it.
fn thread_label() -> Arc<str> {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static LABEL: Arc<str> = match std::thread::current().name() {
            Some(n) => n.into(),
            None => format!("t{}", NEXT.fetch_add(1, Ordering::Relaxed)).into(),
        };
    }
    LABEL.with(Arc::clone)
}

/// One argument value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (bytes, frames, depths).
    U64(u64),
    /// Free-form text (tags, backends).
    Str(String),
}

impl ArgValue {
    fn to_json(&self) -> Value {
        match self {
            ArgValue::U64(n) => Value::num_u(*n),
            ArgValue::Str(s) => Value::str(s.clone()),
        }
    }
}

impl From<u64> for ArgValue {
    fn from(n: u64) -> ArgValue {
        ArgValue::U64(n)
    }
}
impl From<usize> for ArgValue {
    fn from(n: usize) -> ArgValue {
        ArgValue::U64(n as u64)
    }
}
impl From<u32> for ArgValue {
    fn from(n: u32) -> ArgValue {
        ArgValue::U64(u64::from(n))
    }
}
impl From<&str> for ArgValue {
    fn from(s: &str) -> ArgValue {
        ArgValue::Str(s.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(s: String) -> ArgValue {
        ArgValue::Str(s)
    }
}

/// One finished span of a trace.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    /// Span id, unique within the trace; the root is always id 1.
    pub id: u64,
    /// Parent span id (`None` only for the root).
    pub parent: Option<u64>,
    /// Stage name (catalogued in `METRICS.md`).
    pub name: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Label of the thread that recorded the span.
    pub thread: Arc<str>,
    /// Key/value annotations (bytes, frames, tag, backend, …).
    pub args: Vec<(&'static str, ArgValue)>,
    /// `ErrorKind::name()` of the failure this span observed, if any.
    pub error: Option<&'static str>,
}

impl TraceSpan {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The first arg named `key`.
    pub fn arg(&self, key: &str) -> Option<&ArgValue> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The arg named `key`, when it is an unsigned integer.
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        match self.arg(key) {
            Some(ArgValue::U64(n)) => Some(*n),
            _ => None,
        }
    }
}

/// The in-flight, shared state of one request's trace.
struct ActiveTrace {
    id: u128,
    op: &'static str,
    next_span: AtomicU64,
    spans: Mutex<Vec<TraceSpan>>,
}

impl ActiveTrace {
    fn alloc_span(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, span: TraceSpan) {
        self.spans.lock().push(span);
    }
}

impl std::fmt::Debug for ActiveTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveTrace")
            .field("id", &self.id)
            .field("op", &self.op)
            .finish_non_exhaustive()
    }
}

/// The propagatable trace context: which trace the caller is inside, and
/// which span is the current parent. Cloning is one `Arc` bump; an
/// inactive context (tracing off) clones for free and ignores every call.
#[derive(Debug, Clone)]
pub struct TraceContext {
    inner: Option<Arc<ActiveTrace>>,
    span: u64,
}

impl TraceContext {
    /// The inert context: every operation on it is a no-op. Direct `Ada`
    /// callers pass this implicitly (the facade mints its own root).
    pub const fn inactive() -> TraceContext {
        TraceContext {
            inner: None,
            span: 0,
        }
    }

    /// Whether this context belongs to a live trace.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace id, when active.
    pub fn trace_id(&self) -> Option<u128> {
        self.inner.as_ref().map(|t| t.id)
    }

    /// Open a child span of the current span. The guard records the span
    /// when dropped; use [`TraceSpanGuard::ctx`] to parent deeper work
    /// under the new span. The guard borrows this context's handle on the
    /// trace, so opening a span shares nothing more than an id.
    pub fn span(&self, name: &'static str) -> TraceSpanGuard<'_> {
        let Some(trace) = &self.inner else {
            return TraceSpanGuard { live: None };
        };
        TraceSpanGuard {
            live: Some(GuardLive {
                trace: Handle::Child(trace),
                id: trace.alloc_span(),
                parent: Some(self.span),
                name,
                start_ns: now_ns(),
                args: Vec::new(),
                error: None,
            }),
        }
    }

    /// Record an already-measured child span (stages that time themselves
    /// to exclude channel-blocked time, or the queue wait reconstructed
    /// from the scheduler's `waited_ns`).
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        let Some(trace) = &self.inner else { return };
        trace.push(TraceSpan {
            id: trace.alloc_span(),
            parent: Some(self.span),
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            thread: thread_label(),
            args,
            error: None,
        });
    }
}

/// A live guard's hold on its trace: the root guard owns a handle and
/// borrows the recorder it seals the trace into, every other guard
/// borrows the handle of the context it was opened from.
enum Handle<'a> {
    Root(Arc<ActiveTrace>, &'a FlightRecorder),
    Child(&'a Arc<ActiveTrace>),
}

impl Handle<'_> {
    fn trace(&self) -> &Arc<ActiveTrace> {
        match self {
            Handle::Root(trace, _) => trace,
            Handle::Child(trace) => trace,
        }
    }

    /// Add `span` to the trace's finished spans; a root's handle then
    /// seals the trace, once the lock is released.
    fn close(self, span: TraceSpan) {
        match self {
            Handle::Child(trace) => trace.push(span),
            Handle::Root(trace, recorder) => {
                let spans = {
                    let mut spans = trace.spans.lock();
                    spans.push(span);
                    std::mem::take(&mut *spans)
                };
                recorder.finalize(&trace, spans);
            }
        }
    }
}

struct GuardLive<'a> {
    trace: Handle<'a>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    args: Vec<(&'static str, ArgValue)>,
    error: Option<&'static str>,
}

/// An open trace span; records itself (and, for the root, seals the whole
/// trace into its flight recorder) on drop. A child span's guard borrows
/// the context it was opened from; a root's guard owns its trace and
/// borrows the recorder it was minted from.
pub struct TraceSpanGuard<'a> {
    live: Option<GuardLive<'a>>,
}

impl std::fmt::Debug for TraceSpanGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSpanGuard")
            .field("name", &self.live.as_ref().map(|l| l.name))
            .finish_non_exhaustive()
    }
}

impl TraceSpanGuard<'_> {
    /// Attach a key/value annotation.
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let Some(l) = &mut self.live {
            l.args.push((key, value.into()));
        }
    }

    /// Mark the span failed with an error kind (`ErrorKind::name()`).
    pub fn set_error(&mut self, kind: &'static str) {
        if let Some(l) = &mut self.live {
            l.error = Some(kind);
        }
    }

    /// A context whose current span is this guard's span — hand it to
    /// workers and channels so their spans nest under this one.
    pub fn ctx(&self) -> TraceContext {
        match &self.live {
            Some(l) => TraceContext {
                inner: Some(Arc::clone(l.trace.trace())),
                span: l.id,
            },
            None => TraceContext::inactive(),
        }
    }
}

impl Drop for TraceSpanGuard<'_> {
    fn drop(&mut self) {
        let Some(l) = self.live.take() else { return };
        let span = TraceSpan {
            id: l.id,
            parent: l.parent,
            name: l.name,
            start_ns: l.start_ns,
            end_ns: now_ns(),
            thread: thread_label(),
            args: l.args,
            error: l.error,
        };
        l.trace.close(span);
    }
}

/// One completed request's span tree, sealed and immutable.
#[derive(Debug)]
pub struct Trace {
    /// Trace id (process-unique; high bits reserved for a node id).
    pub id: u128,
    /// Root operation name (`frontend.request`, `ada.query`, …).
    pub op: &'static str,
    /// Root span wall time.
    pub duration_ns: u64,
    /// All spans, ordered by `(start_ns, id)`.
    pub spans: Vec<TraceSpan>,
    /// Why the flight recorder retained this trace (`error:{kind}` or
    /// `slow`), `None` for an ordinary fast success.
    pub flag: Option<String>,
}

impl Trace {
    /// The root span (id 1).
    pub fn root(&self) -> Option<&TraceSpan> {
        self.spans.iter().find(|s| s.id == 1)
    }

    /// Whether the recorder retained this trace.
    pub fn is_flagged(&self) -> bool {
        self.flag.is_some()
    }

    fn summary_json(&self) -> Value {
        let mut fields = vec![
            ("trace", Value::str(format!("{:032x}", self.id))),
            ("op", Value::str(self.op)),
            ("duration_ns", Value::num_u(self.duration_ns)),
            ("spans", Value::num_u(self.spans.len() as u64)),
        ];
        if let Some(flag) = &self.flag {
            fields.push(("flag", Value::str(flag.clone())));
        }
        Value::obj(fields)
    }
}

/// Bounded, lock-cheap store of recently completed traces, and the
/// `span.{stage}.*` totals folded from them. Each `Ada` builds one (its
/// `Frontend` and `Server` root their requests in it through `ada()`),
/// and each `Client` keeps one for its half of a remote trace — sealing
/// is one short `Mutex` acquisition per *request* (not per span): under
/// it a span adds to plain integers, and the trace a full ring pushes out
/// is freed once the lock is released.
pub struct FlightRecorder {
    /// Latency bound above which a successful trace is retained
    /// (`u64::MAX` disables the threshold).
    threshold_ns: AtomicU64,
    held: Mutex<Held>,
}

/// Everything a seal updates, under the recorder's one lock.
#[derive(Default)]
struct Held {
    recent: VecDeque<Arc<Trace>>,
    retained: VecDeque<Arc<Trace>>,
    /// Every stage's totals, in the order its name was first sealed.
    stages: Vec<(&'static str, StageTotals)>,
    /// Where a span name's totals are, by the name's address and length:
    /// a seal finds them without reading the name. Two copies of one name
    /// (each crate that spells it may hold its own) find the same entry.
    by_addr: HashMap<(usize, usize), usize, BuildHasherDefault<AddrHasher>>,
}

impl Held {
    fn stage(&mut self, name: &'static str) -> &mut StageTotals {
        let addr = (name.as_ptr() as usize, name.len());
        let k = match self.by_addr.get(&addr) {
            Some(&k) => k,
            None => {
                let seen = self.stages.iter().position(|(n, _)| *n == name);
                let k = seen.unwrap_or_else(|| {
                    self.stages.push((name, StageTotals::default()));
                    self.stages.len() - 1
                });
                self.by_addr.insert(addr, k);
                k
            }
        };
        &mut self.stages[k].1
    }
}

/// One stage's `span.{stage}.*` family: every sealed span of that name
/// adds its duration (its count is the stage's calls) and its `bytes` /
/// `frames` args.
#[derive(Default)]
struct StageTotals {
    ns: Tally,
    bytes: u64,
    frames: u64,
}

/// The address map's hasher: rustc's FxHash, a rotate, xor and multiply
/// per word — a few nanoseconds where `std`'s SipHash costs more than the
/// rest of a span's fold, and the same on every run.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_usize(usize::from(b));
        }
    }

    fn write_usize(&mut self, word: usize) {
        self.0 = (self.0.rotate_left(5) ^ word as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let held = self.held.lock();
        f.debug_struct("FlightRecorder")
            .field("recent", &held.recent.len())
            .field("retained", &held.retained.len())
            .field("stages", &held.stages.len())
            .finish_non_exhaustive()
    }
}

/// Capacity of the recent-traces ring.
pub const RECENT_CAPACITY: usize = 256;
/// Capacity of the retained (flagged) ring.
pub const RETAINED_CAPACITY: usize = 128;

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// An empty recorder with no latency threshold.
    pub fn new() -> FlightRecorder {
        FlightRecorder {
            threshold_ns: AtomicU64::new(u64::MAX),
            held: Mutex::new(Held::default()),
        }
    }

    /// Mint a new trace rooted at `op` that seals into this recorder, and
    /// return its context plus the root guard. With telemetry off
    /// ([`crate::set_enabled`]), both are inert. The root guard must
    /// outlive every worker of the request (drop it last).
    pub fn root(&self, op: &'static str) -> (TraceContext, TraceSpanGuard<'_>) {
        self.root_with_id(op, None)
    }

    /// Mint a new trace rooted at `op` that *continues* a trace id carried
    /// over the wire (the networked RPC path): the server's span tree seals
    /// under the same 128-bit id the client minted, so the client's
    /// recorder and the server's stack each hold their tree of the request,
    /// joined by id. `id == 0` (an untraced remote caller) falls back to a
    /// fresh id.
    pub fn root_remote(&self, op: &'static str, id: u128) -> (TraceContext, TraceSpanGuard<'_>) {
        self.root_with_id(op, (id != 0).then_some(id))
    }

    fn root_with_id(
        &self,
        op: &'static str,
        id: Option<u128>,
    ) -> (TraceContext, TraceSpanGuard<'_>) {
        if !crate::enabled() {
            return (TraceContext::inactive(), TraceSpanGuard { live: None });
        }
        let trace = Arc::new(ActiveTrace {
            id: id.unwrap_or_else(next_trace_id),
            op,
            next_span: AtomicU64::new(2),
            spans: Mutex::new(Vec::with_capacity(8)),
        });
        let guard = TraceSpanGuard {
            live: Some(GuardLive {
                trace: Handle::Root(Arc::clone(&trace), self),
                id: 1,
                parent: None,
                name: op,
                start_ns: now_ns(),
                args: Vec::new(),
                error: None,
            }),
        };
        let ctx = TraceContext {
            inner: Some(trace),
            span: 1,
        };
        (ctx, guard)
    }

    /// Seal a finished trace — its root's `spans`, taken out of `trace` —
    /// into this recorder.
    fn finalize(&self, trace: &ActiveTrace, mut spans: Vec<TraceSpan>) {
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let (duration_ns, error) = spans
            .iter()
            .find(|s| s.id == 1)
            .map(|r| (r.duration_ns(), r.error))
            .unwrap_or((0, None));
        let flag = match error {
            Some(kind) => Some(format!("error:{}", kind)),
            None if duration_ns >= self.threshold_ns.load(Ordering::Relaxed) => {
                Some("slow".to_string())
            }
            None => None,
        };
        self.seal(Arc::new(Trace {
            id: trace.id,
            op: trace.op,
            duration_ns,
            spans,
            flag,
        }));
    }

    /// Retain any successful trace at least this slow; `None` disables
    /// the latency trigger (errored/shed traces are always retained).
    pub fn set_latency_threshold(&self, bound: Option<Duration>) {
        let ns = bound.map_or(u64::MAX, |d| d.as_nanos().min(u64::MAX as u128) as u64);
        self.threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Append `trace` to `ring` and hand back the oldest trace when that
    /// took the ring past `cap`.
    fn push(ring: &mut VecDeque<Arc<Trace>>, trace: Arc<Trace>, cap: usize) -> Option<Arc<Trace>> {
        ring.push_back(trace);
        (ring.len() > cap).then(|| ring.pop_front()).flatten()
    }

    /// Fold a sealed trace's spans into the stage totals and hold it. The
    /// traces this pushes out of the rings are freed after the lock.
    fn seal(&self, trace: Arc<Trace>) {
        let _evicted = {
            let mut held = self.held.lock();
            for s in &trace.spans {
                let t = held.stage(s.name);
                t.ns.record(s.duration_ns());
                t.bytes += s.arg_u64("bytes").unwrap_or(0);
                t.frames += s.arg_u64("frames").unwrap_or(0);
            }
            let retained = if trace.is_flagged() {
                Self::push(&mut held.retained, Arc::clone(&trace), RETAINED_CAPACITY)
            } else {
                None
            };
            (
                Self::push(&mut held.recent, trace, RECENT_CAPACITY),
                retained,
            )
        };
    }

    /// The recent completed traces, oldest first.
    pub fn recent(&self) -> Vec<Arc<Trace>> {
        self.held.lock().recent.iter().cloned().collect()
    }

    /// The retained (flagged) traces, oldest first.
    pub fn retained(&self) -> Vec<Arc<Trace>> {
        self.held.lock().retained.iter().cloned().collect()
    }

    /// Every held trace exactly once (retained traces may have already
    /// rotated out of the recent ring), ordered by trace id. The other
    /// tree of a remote request, under the same id, is in the recorder of
    /// the other end.
    pub fn all(&self) -> Vec<Arc<Trace>> {
        let mut out: Vec<Arc<Trace>> = {
            let held = self.held.lock();
            held.recent.iter().chain(&held.retained).cloned().collect()
        };
        out.sort_by_key(|t| (t.id, t.op, Arc::as_ptr(t) as usize));
        out.dedup_by(|a, b| Arc::ptr_eq(a, b));
        out
    }

    /// Write the `span.{stage}.ns/.calls/.bytes/.frames` family (its
    /// owner's `write_metrics` walk calls this): a stage's `.ns` and
    /// `.calls` once any of its spans sealed, `.bytes` / `.frames` once a
    /// span carried a non-zero arg of that name.
    pub fn write_metrics(&self, snap: &mut Snapshot) {
        let held = self.held.lock();
        for (stage, t) in &held.stages {
            let ns = t.ns.snapshot();
            snap.histograms.insert(key(&["span", stage, "ns"]), ns);
            snap.counter(&key(&["span", stage, "calls"]), ns.count);
            snap.nonzero(&key(&["span", stage, "bytes"]), t.bytes);
            snap.nonzero(&key(&["span", stage, "frames"]), t.frames);
        }
    }

    /// Summaries of held traces:
    /// `{"recent": [...], "retained": [...]}` — what `repro --metrics-out`
    /// writes beside a stack's metrics.
    pub fn to_json(&self) -> Value {
        let summarize =
            |ts: Vec<Arc<Trace>>| Value::Arr(ts.iter().map(|t| t.summary_json()).collect());
        Value::obj(vec![
            ("recent", summarize(self.recent())),
            ("retained", summarize(self.retained())),
        ])
    }
}

/// Render traces as Chrome trace-event JSON: an object with a
/// `traceEvents` array of `ph:"X"` complete events (timestamps in
/// microseconds relative to the process trace epoch) plus `ph:"M"`
/// process/thread-name metadata, loadable directly in Perfetto or
/// `chrome://tracing`. Spans keep their trace/span/parent ids, error
/// kinds, and annotations in `args`.
pub fn chrome_trace(traces: &[Arc<Trace>]) -> Value {
    let mut tids: Vec<Arc<str>> = Vec::new();
    let mut events: Vec<Value> = Vec::new();
    events.push(Value::obj(vec![
        ("name", Value::str("process_name")),
        ("ph", Value::str("M")),
        ("pid", Value::num_u(1)),
        ("tid", Value::num_u(0)),
        (
            "args",
            Value::obj(vec![("name", Value::str("ada-storage-node"))]),
        ),
    ]));
    for trace in traces {
        for span in &trace.spans {
            let tid = match tids.iter().position(|t| *t == span.thread) {
                Some(i) => i + 1,
                None => {
                    tids.push(Arc::clone(&span.thread));
                    events.push(Value::obj(vec![
                        ("name", Value::str("thread_name")),
                        ("ph", Value::str("M")),
                        ("pid", Value::num_u(1)),
                        ("tid", Value::num_u(tids.len() as u64)),
                        (
                            "args",
                            Value::obj(vec![("name", Value::str(&*span.thread))]),
                        ),
                    ]));
                    tids.len()
                }
            };
            let mut args = vec![
                ("trace", Value::str(format!("{:032x}", trace.id))),
                ("span", Value::num_u(span.id)),
            ];
            if let Some(parent) = span.parent {
                args.push(("parent", Value::num_u(parent)));
            }
            if let Some(kind) = span.error {
                args.push(("error", Value::str(kind)));
            }
            for (k, v) in &span.args {
                args.push((k, v.to_json()));
            }
            events.push(Value::obj(vec![
                ("name", Value::str(span.name)),
                ("cat", Value::str(trace.op)),
                ("ph", Value::str("X")),
                ("ts", Value::Num(span.start_ns as f64 / 1000.0)),
                ("dur", Value::Num(span.duration_ns() as f64 / 1000.0)),
                ("pid", Value::num_u(1)),
                ("tid", Value::num_u(tid as u64)),
                (
                    "args",
                    Value::Obj(args.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
                ),
            ]));
        }
    }
    Value::obj(vec![
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test seals into a recorder of its own. None flips the enable
    // switch: that is `tests/enable_switch.rs`, a binary of its own.

    #[test]
    fn root_span_tree_crosses_threads_connected() {
        let rec = FlightRecorder::new();
        let (ctx, mut guard) = rec.root("test.trace_op");
        guard.arg("client", "c0");
        let id = ctx.trace_id().expect("tracing is on");
        {
            let stage = ctx.span("test.trace_stage");
            let worker_ctx = stage.ctx();
            std::thread::scope(|s| {
                s.spawn(move || {
                    let mut inner = worker_ctx.span("test.trace_worker");
                    inner.arg("bytes", 128u64);
                });
            });
        }
        drop(guard);
        let recent = rec.recent();
        assert_eq!(recent.len(), 1);
        let trace = &recent[0];
        assert_eq!(trace.id, id);
        assert_eq!(trace.op, "test.trace_op");
        assert_eq!(trace.spans.len(), 3);
        let root = trace.root().unwrap();
        assert!(root.parent.is_none());
        let stage = trace
            .spans
            .iter()
            .find(|s| s.name == "test.trace_stage")
            .unwrap();
        let worker = trace
            .spans
            .iter()
            .find(|s| s.name == "test.trace_worker")
            .unwrap();
        assert_eq!(stage.parent, Some(root.id));
        assert_eq!(worker.parent, Some(stage.id));
        // Children nest within their parents' wall time.
        assert!(stage.start_ns >= root.start_ns && stage.end_ns <= root.end_ns);
        assert!(worker.start_ns >= stage.start_ns && worker.end_ns <= stage.end_ns);
        assert_eq!(worker.args, vec![("bytes", ArgValue::U64(128))]);
        assert!(!trace.is_flagged());
    }

    #[test]
    fn errored_trace_is_retained_with_kind() {
        let rec = FlightRecorder::new();
        let (_ctx, mut guard) = rec.root("test.trace_err");
        guard.set_error("unknown_dataset");
        drop(guard);
        let retained = rec.retained();
        let t = retained.first().expect("flagged trace retained");
        assert_eq!(t.flag.as_deref(), Some("error:unknown_dataset"));
        assert_eq!(t.root().unwrap().error.as_deref(), Some("unknown_dataset"));
    }

    #[test]
    fn latency_threshold_retains_slow_traces() {
        let rec = FlightRecorder::new();
        rec.set_latency_threshold(Some(Duration::from_nanos(1)));
        let (_ctx, guard) = rec.root("test.trace_slow");
        std::thread::sleep(Duration::from_millis(1));
        drop(guard);
        let retained = rec.retained();
        let t = retained.first().expect("slow trace retained");
        assert_eq!(t.flag.as_deref(), Some("slow"));
    }

    fn stage_metrics(rec: &FlightRecorder) -> Snapshot {
        let mut snap = Snapshot::default();
        rec.write_metrics(&mut snap);
        snap
    }

    #[test]
    fn sealed_spans_feed_stage_metrics() {
        let rec = FlightRecorder::new();
        let (ctx, guard) = rec.root("test.fold_op");
        for (bytes, frames) in [(100u64, 2u64), (28, 0)] {
            let mut s = ctx.span("test.fold_stage");
            s.arg("bytes", bytes);
            s.arg("frames", frames);
        }
        // The seal is the one place spans reach the stage totals.
        assert!(stage_metrics(&rec).counters.is_empty());
        drop(guard);
        let snap = stage_metrics(&rec);
        assert_eq!(snap.counters["span.test.fold_op.calls"], 1);
        assert_eq!(snap.counters["span.test.fold_stage.calls"], 2);
        assert_eq!(snap.counters["span.test.fold_stage.bytes"], 128);
        assert_eq!(snap.counters["span.test.fold_stage.frames"], 2);
        assert_eq!(snap.histograms["span.test.fold_stage.ns"].count, 2);
        // Un-annotated stages leave no zero-valued byte/frame counters.
        assert!(!snap.counters.contains_key("span.test.fold_op.bytes"));
        assert!(!snap.counters.contains_key("span.test.fold_op.frames"));
    }

    #[test]
    fn a_name_spelled_twice_is_one_stage() {
        let rec = FlightRecorder::new();
        // Two copies of one name at two addresses, as two crates may hold.
        let copy: &'static str = Box::leak(String::from("test.twice").into_boxed_str());
        let (ctx, guard) = rec.root("test.twice_op");
        ctx.span("test.twice").arg("bytes", 3u64);
        ctx.span(copy).arg("bytes", 4u64);
        drop(guard);
        let snap = stage_metrics(&rec);
        assert_eq!(snap.counters["span.test.twice.calls"], 2);
        assert_eq!(snap.counters["span.test.twice.bytes"], 7);
        assert_eq!(snap.histograms["span.test.twice.ns"].count, 2);
    }

    #[test]
    fn two_recorders_keep_disjoint_traces_and_stage_metrics() {
        let (a, b) = (FlightRecorder::new(), FlightRecorder::new());
        let (_, guard) = a.root("test.stack_a");
        drop(guard);
        let (ctx, guard) = b.root_remote("test.stack_b", 7);
        drop(ctx.span("test.stack_b_stage"));
        drop(guard);
        assert_eq!(
            a.all().iter().map(|t| t.op).collect::<Vec<_>>(),
            ["test.stack_a"]
        );
        assert_eq!(b.all().iter().map(|t| t.id).collect::<Vec<_>>(), [7]);
        let calls = |rec| -> Vec<String> { stage_metrics(rec).counters.into_keys().collect() };
        assert_eq!(calls(&a), ["span.test.stack_a.calls"]);
        assert_eq!(
            calls(&b),
            ["span.test.stack_b.calls", "span.test.stack_b_stage.calls"]
        );
    }

    #[test]
    fn rings_stay_bounded() {
        let rec = FlightRecorder::new();
        for _ in 0..RECENT_CAPACITY + 16 {
            let (_ctx, mut guard) = rec.root("test.trace_fill");
            guard.set_error("internal");
        }
        assert_eq!(rec.recent().len(), RECENT_CAPACITY);
        assert_eq!(rec.retained().len(), RETAINED_CAPACITY);
    }

    #[test]
    fn chrome_export_parses_and_has_schema() {
        let rec = FlightRecorder::new();
        let (ctx, _guard) = rec.root("test.trace_export");
        {
            let mut s = ctx.span("test.trace_export_child");
            s.arg("backend", "ssd");
        }
        drop(_guard);
        let json = chrome_trace(&rec.all());
        let parsed = ada_json::parse(&json.to_vec()).unwrap();
        let events = parsed.field("traceEvents").unwrap().as_arr().unwrap();
        let phase = |ev: &Value| ev.field("ph").unwrap().as_str().unwrap() == "X";
        assert_eq!(
            events.iter().filter(|ev| phase(ev)).count(),
            2,
            "one X event per span"
        );
        for ev in events {
            let ph = ev.field("ph").unwrap().as_str().unwrap();
            assert!(ph == "X" || ph == "M", "unexpected phase {}", ph);
            ev.field("name").unwrap().as_str().unwrap();
            ev.field("pid").unwrap().as_u64().unwrap();
            ev.field("tid").unwrap().as_u64().unwrap();
            if ph == "X" {
                assert!(matches!(ev.field("ts").unwrap(), Value::Num(n) if *n >= 0.0));
                assert!(matches!(ev.field("dur").unwrap(), Value::Num(n) if *n >= 0.0));
                ev.field("args").unwrap().field("trace").unwrap();
            }
        }
    }
}
