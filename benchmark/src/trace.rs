//! The harness's own spans. The benchmark sits outside the program, so a
//! span is recorded here around each call into a layer's public entry
//! point: name, start, end, the span that caused it, and the id of the
//! request (one timed op or one ladder call) all its spans share. Spans
//! stay in memory and are written as Chrome trace-event JSON when the run
//! ends.

use ada_json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The request id of op `seq` issued by client `lane`: the lane sits in the
/// top 16 bits so the trace file can give each client its own track.
pub fn request_id(lane: usize, seq: u64) -> u64 {
    ((lane as u64) << 48) | (seq & ((1 << 48) - 1))
}

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.entry_point`.
    pub name: &'static str,
    /// Span id, unique in the run (never 0).
    pub id: u32,
    /// Id of the span that caused this one, 0 for a root.
    pub parent: u32,
    /// Shared by every span of one request.
    pub request: u64,
    /// Nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was made.
    pub end_ns: u64,
}

/// An open span: close it with [`Tracer::close`].
#[derive(Debug)]
pub struct Open {
    name: &'static str,
    /// Pass as `parent` when opening a child span.
    pub id: u32,
    parent: u32,
    request: u64,
    start: Instant,
}

/// Span recorder. Switched off it costs one branch per call, so the same
/// op code runs in the untraced end-to-end run and the traced one.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Roots of one name written to the trace file; the rest stay in memory
/// only, so a run of 10⁵ tiny ops does not write a 50 MB file.
const ROOTS_PER_NAME_IN_FILE: usize = 48;

impl Tracer {
    /// A recorder that records (`on`) or does nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Open a span. `parent` is 0 for the root of a request.
    pub fn open(&self, name: &'static str, parent: u32, request: u64) -> Open {
        let id = if self.on {
            // Relaxed: the id is a label, it publishes no other data.
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            name,
            id,
            parent,
            request,
            start: Instant::now(),
        }
    }

    /// Close a span and return its duration in nanoseconds.
    pub fn close(&self, open: Open) -> u64 {
        let end = Instant::now();
        if self.on {
            let span = Span {
                name: open.name,
                id: open.id,
                parent: open.parent,
                request: open.request,
                start_ns: (open.start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
            };
            self.spans
                .lock()
                .expect("no span is recorded while panicking")
                .push(span);
        }
        (end - open.start).as_nanos() as u64
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent, request);
        let out = f();
        self.close(open);
        out
    }

    /// Every span recorded so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no span is recorded while panicking")
            .clone()
    }
}

/// Self time per span name: a span's duration minus the part its direct
/// children cover, summed over all spans of that name (nanoseconds).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_insert(0) += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let covered = child_ns.get(&s.id).copied().unwrap_or(0);
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, with id, parent, request, start and end in
/// `args`. Keeps the first [`ROOTS_PER_NAME_IN_FILE`] requests of each
/// root name with all their descendants and says how many spans it left out.
pub fn chrome_trace(spans: &[Span]) -> Value {
    let mut roots_seen: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut kept_requests: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for s in spans.iter().filter(|s| s.parent == 0) {
        let n = roots_seen.entry(s.name).or_insert(0);
        if *n < ROOTS_PER_NAME_IN_FILE {
            kept_requests.insert(s.request);
        }
        *n += 1;
    }
    let events: Vec<Value> = spans
        .iter()
        .filter(|s| kept_requests.contains(&s.request))
        .map(|s| {
            Value::obj(vec![
                ("name", Value::str(s.name)),
                ("ph", Value::str("X")),
                ("pid", Value::num_u(1)),
                ("tid", Value::num_u(1 + (s.request >> 48))),
                ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                ("dur", Value::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                (
                    "args",
                    Value::obj(vec![
                        ("id", Value::num_u(u64::from(s.id))),
                        ("parent", Value::num_u(u64::from(s.parent))),
                        ("request", Value::num_u(s.request)),
                        ("start_ns", Value::num_u(s.start_ns)),
                        ("end_ns", Value::num_u(s.end_ns)),
                    ]),
                ),
            ])
        })
        .collect();
    let written = events.len();
    Value::obj(vec![
        ("displayTimeUnit", Value::str("ms")),
        ("spans_recorded", Value::num_u(spans.len() as u64)),
        ("spans_written", Value::num_u(written as u64)),
        ("traceEvents", Value::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            request: 7,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn an_off_tracer_times_but_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.time("x", 0, 1, || std::hint::black_box(3 + 4)), 7);
        let open = t.open("y", 0, 2);
        assert!(t.close(open) < 1_000_000_000);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn children_carry_their_parent_and_the_request_id() {
        let t = Tracer::new(true);
        let root = t.open("op", 0, 42);
        t.time("layer.call", root.id, 42, || ());
        let root_id = root.id;
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "layer.call");
        assert_eq!(spans[0].parent, root_id);
        assert_eq!(spans[1].parent, 0);
        assert!(spans.iter().all(|s| s.request == 42));
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("op", 1, 0, 0, 100),
            span("a", 2, 1, 10, 40),
            span("b", 3, 1, 50, 90),
            span("a.inner", 4, 2, 15, 20),
        ];
        let st = self_times(&spans);
        assert_eq!(st["op"], 30);
        assert_eq!(st["a"], 25);
        assert_eq!(st["b"], 40);
        assert_eq!(st["a.inner"], 5);
    }

    #[test]
    fn chrome_trace_events_carry_name_start_end_parent_and_request() {
        let doc = chrome_trace(&[
            span("op", 1, 0, 1_000, 3_000),
            span("a", 2, 1, 1_500, 2_000),
        ]);
        let events = doc.field("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        let a = &events[1];
        assert_eq!(a.field("name").unwrap().as_str().unwrap(), "a");
        assert_eq!(a.field("ts").unwrap(), &Value::Num(1.5));
        assert_eq!(a.field("dur").unwrap(), &Value::Num(0.5));
        let args = a.field("args").unwrap();
        assert_eq!(args.field("parent").unwrap().as_u64().unwrap(), 1);
        assert_eq!(args.field("request").unwrap().as_u64().unwrap(), 7);
        assert_eq!(args.field("end_ns").unwrap().as_u64().unwrap(), 2_000);
        // Round-trips through the repo's own JSON parser.
        assert_eq!(ada_json::parse(&doc.to_vec()).unwrap(), doc);
    }
}
