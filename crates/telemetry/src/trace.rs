//! Causal request tracing: span trees, a flight recorder, and Chrome
//! trace-event export.
//!
//! The metrics side of this crate answers *aggregate* questions (how many
//! queries, p99 decode time). This module answers the per-request one —
//! "why was **this** request slow" — by giving every request a
//! [`TraceContext`] minted at its entry point (`Frontend` admission, or
//! the `Ada` facade for direct callers) and carried **explicitly** across
//! every thread boundary of the pipelines: the splitter's and the
//! retriever's worker pools. Each stage opens a child span; the spans of
//! one request form a single connected tree regardless of which threads
//! executed them.
//!
//! ## Context propagation rules
//!
//! * A context is either **active** (it carries a shared handle to the
//!   request's span buffer) or **inactive** (tracing disabled — every
//!   operation is a no-op costing one branch).
//! * A spawned worker is handed the context (or a clone); its spans land
//!   in the same tree. Nothing is implicit — there is no thread-local
//!   "current span", so a context passed along is the only way causality
//!   crosses a thread boundary.
//! * The **root** guard finishes the trace: when it drops, the span
//!   buffer is sealed into an immutable [`Trace`] and offered to the
//!   global [`FlightRecorder`]. Workers must therefore be joined before
//!   the root drops (the pipelines already do — they run under scoped
//!   threads); late spans from leaked clones are dropped on the floor.
//!
//! ## One clock per stage
//!
//! A trace span is the only record a stage writes. Sealing a trace
//! ([`root`]'s guard dropping) folds every span of it into the registry's
//! `span.{stage}.ns/.calls/.bytes/.frames` family, and a caller that wants
//! its own cut of the tree (`ada-core`'s stage profile) closes its span
//! with [`TraceSpanGuard::finish_with`] and reads the same spans.
//!
//! ## Flight recorder
//!
//! Completed traces go into a bounded ring of recent traces (any of which
//! `repro trace` can export), plus a second bounded ring that *retains*
//! flagged traces — errored, shed (`Overloaded`), deadline-expired, or
//! slower than a configurable latency bound — so the one bad request out
//! of thousands survives until someone looks. Both rings hold `Arc`s;
//! recording a trace is two short lock acquisitions, nothing more.
//!
//! ## Export
//!
//! [`chrome_trace`] renders traces as Chrome trace-event JSON (`ph:"X"`
//! complete events + thread-name metadata) loadable directly in Perfetto
//! or `chrome://tracing`; span args carry bytes, frames, tags, backends
//! and error kinds.

use ada_json::Value;
use ada_sync::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

static TRACING: AtomicBool = AtomicBool::new(true);

/// Enable or disable trace collection (metrics are governed separately by
/// [`crate::set_enabled`]; tracing requires both switches on).
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether trace collection is currently on.
pub fn tracing_enabled() -> bool {
    crate::enabled() && TRACING.load(Ordering::Relaxed)
}

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
    /// Signed integer.
    I64(i64),
    /// Free-form text (tags, backends).
    Str(String),
}

impl ArgValue {
    fn to_json(&self) -> Value {
        match self {
            ArgValue::U64(n) => Value::num_u(*n),
            ArgValue::I64(n) => Value::Num(*n as f64),
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
impl From<i64> for ArgValue {
    fn from(n: i64) -> ArgValue {
        ArgValue::I64(n)
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
    /// `AdaError::kind()` of the failure this span observed, if any.
    pub error: Option<String>,
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
    /// under the new span.
    pub fn span(&self, name: &'static str) -> TraceSpanGuard {
        let Some(trace) = &self.inner else {
            return TraceSpanGuard { live: None };
        };
        TraceSpanGuard {
            live: Some(GuardLive {
                trace: Arc::clone(trace),
                id: trace.alloc_span(),
                parent: Some(self.span),
                name,
                start_ns: now_ns(),
                args: Vec::new(),
                error: None,
                root: false,
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

struct GuardLive {
    trace: Arc<ActiveTrace>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    args: Vec<(&'static str, ArgValue)>,
    error: Option<String>,
    root: bool,
}

impl GuardLive {
    /// End the span now and add it to its trace's finished spans.
    fn close(self) -> (Arc<ActiveTrace>, u64, bool) {
        self.trace.push(TraceSpan {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: now_ns(),
            thread: thread_label(),
            args: self.args,
            error: self.error,
        });
        (self.trace, self.id, self.root)
    }
}

/// An open trace span; records itself (and, for the root, seals the whole
/// trace into the flight recorder) on drop.
pub struct TraceSpanGuard {
    live: Option<GuardLive>,
}

impl std::fmt::Debug for TraceSpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSpanGuard")
            .field("name", &self.live.as_ref().map(|l| l.name))
            .finish_non_exhaustive()
    }
}

impl TraceSpanGuard {
    /// Attach a key/value annotation.
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let Some(l) = &mut self.live {
            l.args.push((key, value.into()));
        }
    }

    /// Mark the span failed with an error kind (`AdaError::kind()`).
    pub fn set_error(&mut self, kind: impl Into<String>) {
        if let Some(l) = &mut self.live {
            l.error = Some(kind.into());
        }
    }

    /// A context whose current span is this guard's span — hand it to
    /// workers and channels so their spans nest under this one.
    pub fn ctx(&self) -> TraceContext {
        match &self.live {
            Some(l) => TraceContext {
                inner: Some(Arc::clone(&l.trace)),
                span: l.id,
            },
            None => TraceContext::inactive(),
        }
    }

    /// Close the span now and read the trace as it stands: `f` gets every
    /// finished span of the trace (completion order, this span last) and
    /// this span's id, before a root guard seals them away. `None` when
    /// the guard is inert. Workers of the span must have been joined —
    /// what they have not pushed yet, `f` does not see.
    pub fn finish_with<R>(mut self, f: impl FnOnce(&[TraceSpan], u64) -> R) -> Option<R> {
        let (trace, id, root) = self.live.take()?.close();
        let out = f(&trace.spans.lock(), id);
        if root {
            finalize(&trace);
        }
        Some(out)
    }
}

impl Drop for TraceSpanGuard {
    fn drop(&mut self) {
        let Some(l) = self.live.take() else { return };
        let (trace, _, root) = l.close();
        if root {
            finalize(&trace);
        }
    }
}

/// Mint a new trace rooted at `op` and return its context plus the root
/// guard. With tracing off, both are inert. The root guard must outlive
/// every worker of the request (drop it last).
pub fn root(op: &'static str) -> (TraceContext, TraceSpanGuard) {
    root_with_id(op, None)
}

/// Mint a new trace rooted at `op` that *continues* a trace id carried
/// over the wire (the networked RPC path): the server's span tree seals
/// under the same 128-bit id the client minted, so the flight recorder
/// holds one client-side and one server-side tree per request, joined by
/// id. `id == 0` (an untraced remote caller) falls back to a fresh id.
pub fn root_remote(op: &'static str, id: u128) -> (TraceContext, TraceSpanGuard) {
    root_with_id(op, (id != 0).then_some(id))
}

fn root_with_id(op: &'static str, id: Option<u128>) -> (TraceContext, TraceSpanGuard) {
    if !tracing_enabled() {
        return (TraceContext::inactive(), TraceSpanGuard { live: None });
    }
    let trace = Arc::new(ActiveTrace {
        id: id.unwrap_or_else(next_trace_id),
        op,
        next_span: AtomicU64::new(2),
        spans: Mutex::new(Vec::with_capacity(16)),
    });
    let guard = TraceSpanGuard {
        live: Some(GuardLive {
            trace: Arc::clone(&trace),
            id: 1,
            parent: None,
            name: op,
            start_ns: now_ns(),
            args: Vec::new(),
            error: None,
            root: true,
        }),
    };
    let ctx = TraceContext {
        inner: Some(trace),
        span: 1,
    };
    (ctx, guard)
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

fn finalize(trace: &Arc<ActiveTrace>) {
    let mut spans = std::mem::take(&mut *trace.spans.lock());
    spans.sort_by_key(|s| (s.start_ns, s.id));
    let (duration_ns, error) = spans
        .iter()
        .find(|s| s.id == 1)
        .map(|r| (r.duration_ns(), r.error.clone()))
        .unwrap_or((0, None));
    crate::global().record_spans(&spans);
    let rec = recorder();
    let flag = match error {
        Some(kind) => Some(format!("error:{}", kind)),
        None if duration_ns >= rec.threshold_ns.load(Ordering::Relaxed) => Some("slow".to_string()),
        None => None,
    };
    rec.push(Arc::new(Trace {
        id: trace.id,
        op: trace.op,
        duration_ns,
        spans,
        flag,
    }));
}

/// Bounded, lock-cheap store of recently completed traces. One global
/// instance ([`recorder`]) is shared by every `Ada`/`Frontend` in the
/// process — recording is two short `Mutex` acquisitions per *request*
/// (not per span), far off any hot loop.
pub struct FlightRecorder {
    /// Latency bound above which a successful trace is retained
    /// (`u64::MAX` disables the threshold).
    threshold_ns: AtomicU64,
    recent_cap: AtomicUsize,
    retained_cap: AtomicUsize,
    recent: Mutex<VecDeque<Arc<Trace>>>,
    retained: Mutex<VecDeque<Arc<Trace>>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("recent", &self.recent.lock().len())
            .field("retained", &self.retained.lock().len())
            .finish_non_exhaustive()
    }
}

/// Default capacity of the recent-traces ring.
pub const RECENT_CAPACITY: usize = 256;
/// Default capacity of the retained (flagged) ring.
pub const RETAINED_CAPACITY: usize = 128;

/// The process-wide flight recorder.
pub fn recorder() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| FlightRecorder {
        threshold_ns: AtomicU64::new(u64::MAX),
        recent_cap: AtomicUsize::new(RECENT_CAPACITY),
        retained_cap: AtomicUsize::new(RETAINED_CAPACITY),
        recent: Mutex::new(VecDeque::new()),
        retained: Mutex::new(VecDeque::new()),
    })
}

impl FlightRecorder {
    /// Retain any successful trace at least this slow; `None` disables
    /// the latency trigger (errored/shed traces are always retained).
    pub fn set_latency_threshold(&self, bound: Option<Duration>) {
        let ns = bound.map_or(u64::MAX, |d| d.as_nanos().min(u64::MAX as u128) as u64);
        self.threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Resize both rings (existing overflow is evicted oldest-first).
    pub fn set_capacity(&self, recent: usize, retained: usize) {
        self.recent_cap.store(recent.max(1), Ordering::Relaxed);
        self.retained_cap.store(retained.max(1), Ordering::Relaxed);
        Self::trim(&mut self.recent.lock(), recent.max(1));
        Self::trim(&mut self.retained.lock(), retained.max(1));
    }

    fn trim(ring: &mut VecDeque<Arc<Trace>>, cap: usize) {
        while ring.len() > cap {
            ring.pop_front();
        }
    }

    fn push(&self, trace: Arc<Trace>) {
        {
            let mut recent = self.recent.lock();
            recent.push_back(Arc::clone(&trace));
            Self::trim(&mut recent, self.recent_cap.load(Ordering::Relaxed));
        }
        if trace.is_flagged() {
            let mut retained = self.retained.lock();
            retained.push_back(trace);
            Self::trim(&mut retained, self.retained_cap.load(Ordering::Relaxed));
        }
    }

    /// The recent completed traces, oldest first.
    pub fn recent(&self) -> Vec<Arc<Trace>> {
        self.recent.lock().iter().cloned().collect()
    }

    /// The retained (flagged) traces, oldest first.
    pub fn retained(&self) -> Vec<Arc<Trace>> {
        self.retained.lock().iter().cloned().collect()
    }

    /// Every held trace exactly once (retained traces may have already
    /// rotated out of the recent ring), ordered by trace id. Two trees
    /// under one id — the client's and the server's of a remote request,
    /// when one process hosts both ends — are two traces.
    pub fn all(&self) -> Vec<Arc<Trace>> {
        let mut out = self.recent();
        out.extend(self.retained());
        out.sort_by_key(|t| (t.id, t.op, Arc::as_ptr(t) as usize));
        out.dedup_by(|a, b| Arc::ptr_eq(a, b));
        out
    }

    /// Drop every held trace (profiling runs isolate themselves with
    /// this, like [`crate::Registry::reset`]).
    pub fn clear(&self) {
        self.recent.lock().clear();
        self.retained.lock().clear();
    }

    /// Summaries of held traces:
    /// `{"recent": [...], "retained": [...]}` — the piece registry
    /// snapshots embed.
    pub fn to_json(&self) -> Value {
        let summarize =
            |ts: Vec<Arc<Trace>>| Value::Arr(ts.iter().map(|t| t.summary_json()).collect());
        Value::obj(vec![
            ("recent", summarize(self.recent())),
            ("retained", summarize(self.retained())),
        ])
    }

    /// Chrome trace-event export of everything held (see [`chrome_trace`]).
    pub fn export_chrome(&self) -> Value {
        chrome_trace(&self.all())
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
            if let Some(kind) = &span.error {
                args.push(("error", Value::str(kind.clone())));
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

    // Trace tests share the global recorder and the enable switches with
    // every other test in this binary; they serialize on the crate's
    // test_guard and match on their own ids instead of assuming an empty
    // recorder.

    #[test]
    fn root_span_tree_crosses_threads_connected() {
        let _g = crate::test_guard();
        let (ctx, mut guard) = root("test.trace_op");
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
        let trace = recorder()
            .recent()
            .into_iter()
            .find(|t| t.id == id)
            .expect("trace recorded");
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
        let _g = crate::test_guard();
        let (_ctx, mut guard) = root("test.trace_err");
        guard.set_error("unknown_dataset");
        drop(guard);
        let t = recorder()
            .retained()
            .into_iter()
            .rev()
            .find(|t| t.op == "test.trace_err")
            .expect("flagged trace retained");
        assert_eq!(t.flag.as_deref(), Some("error:unknown_dataset"));
        assert_eq!(t.root().unwrap().error.as_deref(), Some("unknown_dataset"));
    }

    #[test]
    fn latency_threshold_retains_slow_traces() {
        let _g = crate::test_guard();
        recorder().set_latency_threshold(Some(Duration::from_nanos(1)));
        let (_ctx, guard) = root("test.trace_slow");
        std::thread::sleep(Duration::from_millis(1));
        drop(guard);
        recorder().set_latency_threshold(None);
        let t = recorder()
            .retained()
            .into_iter()
            .rev()
            .find(|t| t.op == "test.trace_slow")
            .expect("slow trace retained");
        assert_eq!(t.flag.as_deref(), Some("slow"));
    }

    #[test]
    fn disabled_tracing_costs_nothing_and_records_nothing() {
        let _g = crate::test_guard();
        set_tracing(false);
        let (ctx, guard) = root("test.trace_off");
        assert!(!ctx.is_active());
        let child = ctx.span("test.trace_off_child");
        assert!(!child.ctx().is_active());
        drop(child);
        drop(guard);
        set_tracing(true);
        assert!(recorder().recent().iter().all(|t| t.op != "test.trace_off"));
    }

    #[test]
    fn sealed_spans_feed_stage_metrics() {
        let _g = crate::test_guard();
        let (ctx, guard) = root("test.fold_op");
        for (bytes, frames) in [(100u64, 2u64), (28, 0)] {
            let mut s = ctx.span("test.fold_stage");
            s.arg("bytes", bytes);
            s.arg("frames", frames);
        }
        // The seal is the one place spans reach the registry.
        let before = crate::global().snapshot();
        assert!(!before.counters.contains_key("span.test.fold_stage.calls"));
        drop(guard);
        let snap = crate::global().snapshot();
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
    fn disabled_telemetry_registers_no_stage_metrics() {
        let _g = crate::test_guard();
        crate::set_enabled(false);
        let (ctx, guard) = root("test.fold_off");
        ctx.span("test.fold_off_stage").arg("bytes", 1u64);
        drop(guard);
        crate::set_enabled(true);
        let snap = crate::global().snapshot();
        assert!(!snap.counters.contains_key("span.test.fold_off.calls"));
        assert!(!snap.counters.contains_key("span.test.fold_off_stage.calls"));
    }

    #[test]
    fn finish_with_reads_the_trace_then_seals_a_root() {
        let _g = crate::test_guard();
        let (ctx, root_guard) = root("test.finish_root");
        let id = ctx.trace_id().expect("tracing is on");
        let op = ctx.span("test.finish_op");
        drop(op.ctx().span("test.finish_child"));
        let seen = op
            .finish_with(|spans, op_id| {
                assert_eq!(spans.last().map(|s| s.id), Some(op_id));
                spans.iter().map(|s| s.name).collect::<Vec<_>>()
            })
            .expect("live guard");
        assert_eq!(seen, ["test.finish_child", "test.finish_op"]);
        // A root closed this way still seals its trace.
        assert_eq!(
            root_guard.finish_with(|spans, id| (spans.len(), id)),
            Some((3, 1))
        );
        assert!(recorder().recent().iter().any(|t| t.id == id));

        set_tracing(false);
        let (_, inert) = root("test.finish_off");
        assert_eq!(inert.finish_with(|_, _| ()), None);
        set_tracing(true);
    }

    #[test]
    fn rings_stay_bounded() {
        let _g = crate::test_guard();
        let rec = recorder();
        for _ in 0..RECENT_CAPACITY + 16 {
            let (_ctx, guard) = root("test.trace_fill");
            drop(guard);
        }
        assert!(rec.recent.lock().len() <= RECENT_CAPACITY);
        assert!(rec.retained.lock().len() <= RETAINED_CAPACITY);
    }

    #[test]
    fn chrome_export_parses_and_has_schema() {
        let _g = crate::test_guard();
        let (ctx, _guard) = root("test.trace_export");
        {
            let mut s = ctx.span("test.trace_export_child");
            s.arg("backend", "ssd");
        }
        drop(_guard);
        let json = recorder().export_chrome();
        let parsed = ada_json::parse(&json.to_vec()).unwrap();
        let events = parsed.field("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
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
