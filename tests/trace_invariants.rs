//! Satellite suite (ISSUE 7): trace-tree invariants under concurrent load.
//!
//! What must hold:
//! * every admitted request yields exactly one trace whose spans form a
//!   single connected, acyclic tree rooted at span 1 — even when the
//!   spans were recorded on reader/decoder worker threads;
//! * child spans nest within their parent's wall time;
//! * shed (`overloaded`), deadline-expired, and errored requests still
//!   produce a trace, flagged and retained by the flight recorder, with
//!   the shed/expired ones carrying queue-depth and retry/deadline args;
//! * each entry point's stages are spans under its op span in the sealed
//!   trace, and the recorder's `span.*` family is a fold of that tree,
//!   not a measurement taken beside it;
//! * an admitted request executes on the thread that submitted it, and one
//!   that had to queue still seals as one tree, on its own thread.
//!
//! Each test reads the flight recorder of the stack it built, so the
//! tests run side by side. That turning telemetry off changes no query
//! bytes is `tests/tracing_toggle.rs`: the switch is process-global, and
//! that test has its binary to itself.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc::{sync_channel, RecvTimeoutError};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use ada_core::{AdaConfig, AdaError, ErrorKind, RetrievedData};
use ada_frontend::{Class, FrontendConfig};
use ada_mdmodel::Tag;
use ada_telemetry::trace::{ArgValue, FlightRecorder, Trace, TraceSpan};
use ada_telemetry::Snapshot;
use ada_workload::gpcr_workload;
use common::{input, Rig};

/// Both pools on, four workers each whatever the host's width: the trees
/// below must cross reader and decoder worker threads.
fn pooled() -> AdaConfig {
    AdaConfig {
        ingest_threads: 4,
        query_threads: 4,
        ..AdaConfig::paper_prototype("ssd", "hdd")
    }
}

fn span_by_id(t: &Trace, id: u64) -> &TraceSpan {
    t.spans
        .iter()
        .find(|s| s.id == id)
        .unwrap_or_else(|| panic!("trace {:x}: dangling span id {}", t.id, id))
}

fn arg<'a>(s: &'a TraceSpan, key: &str) -> Option<&'a ArgValue> {
    s.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

/// The structural invariants every sealed trace must satisfy.
fn assert_tree_invariants(t: &Trace) {
    assert!(!t.spans.is_empty(), "trace {:x} has no spans", t.id);

    // Exactly one root, and it is span 1.
    let roots: Vec<&TraceSpan> = t.spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(
        roots.len(),
        1,
        "trace {:x}: expected exactly one root span, got {:?}",
        t.id,
        roots.iter().map(|s| s.name).collect::<Vec<_>>()
    );
    assert_eq!(roots[0].id, 1, "root span must be id 1");
    assert_eq!(roots[0].name, t.op, "root span is named after the op");

    // Span ids are unique within the trace.
    let mut ids: Vec<u64> = t.spans.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    let n = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), n, "trace {:x}: duplicate span ids", t.id);

    // Every parent link resolves, and every walk terminates at the root
    // (acyclic: a cycle would exceed the span count in hops).
    for s in &t.spans {
        let mut cur = s;
        let mut hops = 0usize;
        while let Some(p) = cur.parent {
            cur = span_by_id(t, p);
            hops += 1;
            assert!(
                hops <= t.spans.len(),
                "trace {:x}: parent cycle through span {}",
                t.id,
                s.id
            );
        }
        assert_eq!(cur.id, 1, "trace {:x}: span {} not rooted", t.id, s.id);
    }

    // Children nest within their parent's wall time.
    for s in &t.spans {
        let Some(p) = s.parent else { continue };
        let parent = span_by_id(t, p);
        assert!(
            s.start_ns >= parent.start_ns && s.end_ns <= parent.end_ns,
            "trace {:x}: span {} ({}) [{},{}] escapes parent {} ({}) [{},{}]",
            t.id,
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            parent.id,
            parent.name,
            parent.start_ns,
            parent.end_ns
        );
    }
}

/// Concurrent mixed traffic: one connected tree per admitted request,
/// crossing the frontend worker, backend reader, and decoder threads.
#[test]
fn concurrent_load_yields_one_connected_tree_per_request() {
    const CLIENTS: usize = 6;
    const QUERIES_PER_CLIENT: usize = 4;

    let rig = Rig::new(pooled()).with_frontend(FrontendConfig {
        ingest_slots: 2,
        query_slots: 4,
        ingest_queue: 64,
        query_queue: 64,
        ..FrontendConfig::default()
    });
    let fe = rig.frontend();
    fe.ingest("setup", "shared", input(&gpcr_workload(500, 4, 7)))
        .unwrap();

    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let fe = &fe;
            let barrier = &barrier;
            scope.spawn(move || {
                let client = format!("c{}", t);
                barrier.wait();
                for i in 0..QUERIES_PER_CLIENT {
                    let tag = match i % 3 {
                        0 => Some(Tag::protein()),
                        1 => Some(Tag::misc()),
                        _ => None,
                    };
                    fe.query(&client, "shared", tag.as_ref()).unwrap();
                }
            });
        }
    });

    let traces = fe.flight_recorder().recent();
    let requests: Vec<&Arc<Trace>> = traces
        .iter()
        .filter(|t| t.op == "frontend.request")
        .collect();
    // Setup ingest + every client query minted exactly one root each.
    assert_eq!(
        requests.len(),
        1 + CLIENTS * QUERIES_PER_CLIENT,
        "one trace per admitted request"
    );

    let mut queue_waits = 0usize;
    for t in &requests {
        assert_tree_invariants(t);
        assert!(!t.is_flagged(), "all requests succeeded: {:?}", t.flag);
        // The admission root carries the op and client names.
        let root = t.root().unwrap();
        assert!(arg(root, "op").is_some() && arg(root, "client").is_some());
        // The scheduler's queue wait and the slot-held execute span are
        // both children of the root.
        queue_waits += t
            .spans
            .iter()
            .filter(|s| s.name == "frontend.queue_wait")
            .count();
        let exec = t
            .spans
            .iter()
            .find(|s| s.name == "frontend.execute")
            .expect("admitted request has an execute span");
        assert_eq!(exec.parent, Some(root.id));
        // The middleware facade span sits under execute, and the query
        // traces reach the per-dropping decode stage recorded on worker
        // threads.
        if matches!(arg(root, "op"), Some(ArgValue::Str(op)) if op == "query") {
            let facade = t
                .spans
                .iter()
                .find(|s| s.name == "ada.query")
                .expect("query trace reaches the facade");
            assert_eq!(facade.parent, Some(exec.id));
            assert!(
                t.spans.iter().any(|s| s.name == "query.read"),
                "query trace records backend reads"
            );
            assert!(
                t.spans.iter().any(|s| s.name == "query.reassemble"),
                "query trace records reassembly"
            );
            // Spans recorded off the worker that minted the root prove
            // the context crossed a thread boundary.
            let root_thread = &root.thread;
            assert!(
                t.spans.iter().any(|s| &s.thread != root_thread),
                "trace {:x} never left the admission thread",
                t.id
            );
        }
    }
    assert_eq!(
        queue_waits,
        1 + CLIENTS * QUERIES_PER_CLIENT,
        "every admitted request records exactly one queue wait"
    );

    // The stack's metrics walk writes its recorder's `span.*` family, and
    // the recorder's summaries list every request.
    let mut stack = Snapshot::default();
    fe.write_metrics(&mut stack);
    let roots = stack.counters["span.frontend.request.calls"];
    assert_eq!(roots, requests.len() as u64);
    let summaries = fe.flight_recorder().to_json();
    let recent = summaries.field("recent").and_then(|r| r.as_arr());
    assert_eq!(recent.expect("recent summaries").len(), requests.len());
}

/// An errored request (unknown dataset) still produces a full trace,
/// flagged with the error kind and retained by the flight recorder.
#[test]
fn errored_request_trace_is_flagged_and_retained() {
    let rig = Rig::new(pooled()).with_frontend(FrontendConfig::default());
    let fe = rig.frontend();
    let err = fe.query("c0", "no-such-dataset", None).unwrap_err();
    assert_eq!(err.error_kind(), ErrorKind::UnknownDataset);

    let retained = fe.flight_recorder().retained();
    let t = retained
        .iter()
        .find(|t| t.flag.as_deref() == Some("error:unknown_dataset"))
        .expect("errored trace retained");
    assert_tree_invariants(t);
    assert_eq!(t.root().unwrap().error.as_deref(), Some("unknown_dataset"));
    // The facade span that observed the failure carries the kind too.
    let facade = t.spans.iter().find(|s| s.name == "ada.query").unwrap();
    assert_eq!(facade.error.as_deref(), Some("unknown_dataset"));
}

/// A queued deadline miss produces a flagged trace whose queue-wait span
/// records how long it waited, the deadline, and the observed depth.
#[test]
fn expired_request_trace_records_wait_and_depth() {
    let rig = Rig::new(pooled()).with_frontend(FrontendConfig::default());
    let fe = rig.frontend();
    fe.ingest("setup", "d", input(&gpcr_workload(300, 2, 3)))
        .unwrap();
    // 1 ns is always in the past by the time the queue drains.
    let err = fe
        .run(
            Class::Query,
            "query",
            "c0",
            Some(Duration::from_nanos(1)),
            |ada, ctx| ada.query_traced("d", None, ctx),
        )
        .unwrap_err();
    assert!(matches!(err, AdaError::DeadlineExceeded { .. }));

    let retained = fe.flight_recorder().retained();
    let t = retained
        .iter()
        .find(|t| t.flag.as_deref() == Some("error:deadline_exceeded"))
        .expect("expired trace retained");
    assert_tree_invariants(t);
    let wait = t
        .spans
        .iter()
        .find(|s| s.name == "frontend.queue_wait")
        .expect("expired request still records its queue wait");
    for key in ["waited_ns", "deadline_ns", "queue_depth"] {
        assert!(
            arg(wait, key).is_some(),
            "queue_wait span missing arg {}",
            key
        );
    }
    assert!(
        !t.spans.iter().any(|s| s.name == "frontend.execute"),
        "an expired request never executes"
    );
}

/// Shed requests (typed `Overloaded`) leave flagged traces whose root
/// records the observed queue depth and the retry hint handed back to
/// the client. Contention needs overlapping clients, so the scenario is
/// retried like the tier-1 thundering-herd test.
#[test]
fn shed_request_trace_records_depth_and_retry_hint() {
    const CLIENTS: usize = 8;
    for attempt in 0..5 {
        let rig = Rig::new(pooled()).with_frontend(FrontendConfig {
            ingest_slots: 1,
            query_slots: 1,
            ingest_queue: 1,
            query_queue: 1,
            ..FrontendConfig::default()
        });
        let fe = rig.frontend();
        fe.ingest("setup", "big", input(&gpcr_workload(2500, 8, 11)))
            .unwrap();

        let barrier = Barrier::new(CLIENTS);
        let mut shed = 0u64;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..CLIENTS {
                let fe = &fe;
                let barrier = &barrier;
                handles.push(scope.spawn(move || {
                    barrier.wait();
                    fe.query(&format!("c{}", t), "big", None)
                }));
            }
            for h in handles {
                if let Err(AdaError::Overloaded { .. }) =
                    h.join().expect("client thread must not panic")
                {
                    shed += 1;
                }
            }
        });
        if shed == 0 {
            eprintln!("attempt {}: herd fully serialized, retrying", attempt);
            continue;
        }

        let flagged: Vec<Arc<Trace>> = fe
            .flight_recorder()
            .retained()
            .into_iter()
            .filter(|t| t.flag.as_deref() == Some("error:overloaded"))
            .collect();
        assert_eq!(flagged.len() as u64, shed, "every shed request is retained");
        for t in &flagged {
            assert_tree_invariants(t);
            let root = t.root().unwrap();
            assert_eq!(root.error.as_deref(), Some("overloaded"));
            match arg(root, "queue_depth") {
                Some(ArgValue::U64(d)) => assert!(*d >= 1),
                other => panic!("missing queue_depth arg: {:?}", other),
            }
            match arg(root, "retry_after_ns") {
                Some(ArgValue::U64(ns)) => assert!(*ns > 0),
                other => panic!("missing retry_after_ns arg: {:?}", other),
            }
        }
        return;
    }
    panic!("8 clients through a 1-slot/1-deep queue never overlapped in 5 attempts");
}

fn u64_arg(s: &TraceSpan, key: &str) -> Option<u64> {
    match arg(s, key) {
        Some(ArgValue::U64(n)) => Some(*n),
        _ => None,
    }
}

/// Run one request on the stack that `recorder` belongs to and return its
/// reply with the trace it sealed, having checked that the request moved
/// every `span.{stage}.calls` counter of the recorder by exactly the
/// number of spans of that stage in the trace, and no other counter.
fn sealed<R>(recorder: &FlightRecorder, request: impl FnOnce() -> R) -> (R, Arc<Trace>) {
    let calls = || -> BTreeMap<String, u64> {
        let mut snap = Snapshot::default();
        recorder.write_metrics(&mut snap);
        let counters = snap.counters.into_iter();
        counters.filter(|(k, _)| k.ends_with(".calls")).collect()
    };
    let (before, held) = (calls(), recorder.recent().len());
    let reply = request();
    let after = calls();
    let traces = recorder.recent();
    assert_eq!(traces.len(), held + 1, "one request seals one trace");
    let t = Arc::clone(&traces[held]);
    assert_tree_invariants(&t);

    let mut spans_of: BTreeMap<&str, u64> = BTreeMap::new();
    for s in &t.spans {
        *spans_of.entry(s.name).or_insert(0) += 1;
    }
    let moved = after.iter().filter(|(k, n)| before.get(*k) != Some(n));
    assert_eq!(
        moved.count(),
        spans_of.len(),
        "a stage counted with no span sealed"
    );
    for (name, n) in spans_of {
        let counter = ada_telemetry::key(&["span", name, "calls"]);
        let counted = |calls: &BTreeMap<String, u64>| calls.get(&counter).copied().unwrap_or(0);
        assert_eq!(
            counted(&after) - counted(&before),
            n,
            "{} vs {} sealed span(s)",
            counter,
            n
        );
    }
    (reply, t)
}

/// The subtree of the span named `op`, the op span itself excluded: its
/// distinct span names, sorted, and the distinct `tag`s its
/// `query.decode` spans decoded.
fn under_op<'t>(t: &'t Trace, op: &str) -> (Vec<&'static str>, Vec<&'t str>) {
    let op_span = span_named(t, op);
    let inside = |s: &TraceSpan| {
        let mut cur = s;
        while let Some(up) = cur.parent {
            if up == op_span.id {
                return true;
            }
            cur = span_by_id(t, up);
        }
        false
    };
    let spans: Vec<&TraceSpan> = t.spans.iter().filter(|s| inside(s)).collect();
    let names: BTreeSet<&'static str> = spans.iter().map(|s| s.name).collect();
    let tags = spans.iter().filter(|s| s.name == "query.decode");
    let tags = tags.map(|s| match arg(s, "tag") {
        Some(ArgValue::Str(tag)) => tag.as_str(),
        other => panic!("query.decode span without a tag: {:?}", other),
    });
    let tags: BTreeSet<&str> = tags.collect();
    (names.into_iter().collect(), tags.into_iter().collect())
}

/// A request's timing is its sealed trace: every stage of an entry point
/// is a span under its op span, and the `span.*` counters move by exactly
/// the spans sealed (`sealed`) — on an ingest of one chunk and of several,
/// on both retrieval schedules, tagged and full, and on a range read cold
/// and served from the cache.
#[test]
fn stage_spans_sit_under_the_op_span() {
    const INGEST: [&str; 5] = [
        "ingest.categorize",
        "ingest.decode",
        "ingest.dispatch",
        "ingest.label_write",
        "ingest.split",
    ];
    let w = gpcr_workload(900, 12, 21);

    // The ingest body, in one chunk.
    let rig = Rig::new(pooled()).with_frontend(FrontendConfig::default());
    let fe = rig.frontend();
    let (_, t) = sealed(fe.flight_recorder(), || {
        fe.ingest("c0", "whole", input(&w)).unwrap()
    });
    assert_eq!(under_op(&t, "ada.ingest").0, INGEST);

    // Twelve frames at four to a chunk: three chunks through the same
    // body, the same stages — and the trace shows their schedule: each
    // decode holds one chunk's frames, and the one dispatch starts once
    // every chunk is decoded.
    let rig4 = Rig::new(AdaConfig {
        chunk_frames: 4,
        ..AdaConfig::paper_prototype("ssd", "hdd")
    })
    .with_frontend(FrontendConfig::default());
    let fe4 = rig4.frontend();
    let (_, t) = sealed(fe4.flight_recorder(), || {
        fe4.ingest("c0", "chunked", input(&w)).unwrap()
    });
    assert_eq!(under_op(&t, "ada.ingest").0, INGEST);
    let named =
        |name: &str| -> Vec<&TraceSpan> { t.spans.iter().filter(|s| s.name == name).collect() };
    let (decodes, dispatches) = (named("ingest.decode"), named("ingest.dispatch"));
    assert_eq!((decodes.len(), dispatches.len()), (3, 1));
    for (k, decode) in decodes.iter().enumerate() {
        assert_eq!(u64_arg(decode, "frames"), Some(4), "chunk {}", k);
        assert!(
            decode.end_ns <= dispatches[0].start_ns,
            "chunk {} decoded after the dispatch began",
            k
        );
    }

    // Both retrieval schedules, tagged and full.
    for query_threads in [0, 4] {
        let rig = Rig::new(AdaConfig {
            query_threads,
            chunk_frames: 4,
            ..AdaConfig::paper_prototype("ssd", "hdd")
        })
        .with_frontend(FrontendConfig::default());
        let fe = rig.frontend();
        fe.ingest("c0", "d", input(&w)).unwrap();
        for (tag, decoded) in [
            (Some(Tag::protein()), ["p"].as_slice()),
            (None, &["m", "p"]),
        ] {
            let (_, t) = sealed(fe.flight_recorder(), || {
                fe.query("c0", "d", tag.as_ref()).unwrap()
            });
            let (names, tags) = under_op(&t, "ada.query");
            let at = format!("query_threads {query_threads}, tag {tag:?}");
            let stages = [
                "query.decode",
                "query.index",
                "query.read",
                "query.reassemble",
            ];
            assert_eq!(names, stages, "{at}");
            assert_eq!(tags, decoded, "{at}");
        }
    }

    // A range read, cold and then served from the cache.
    let rig = Rig::new(AdaConfig {
        chunk_frames: 4,
        cache: ada_cache::CacheConfig::with_capacity(64 << 20),
        ..AdaConfig::paper_prototype("ssd", "hdd")
    })
    .with_frontend(FrontendConfig::default());
    let fe = rig.frontend();
    fe.ingest("c0", "d", input(&w)).unwrap();
    let range = || {
        fe.query_range("c0", "d", &Tag::protein(), 2..10, 2)
            .unwrap()
    };
    let (cold, t) = sealed(fe.flight_recorder(), range);
    let (names, tags) = under_op(&t, "ada.query_range");
    assert_eq!(
        names,
        [
            "cache.lookup",
            "query.decode",
            "query.index",
            "query.read",
            "query.reassemble"
        ]
    );
    assert_eq!(tags, ["p"]);
    let (hit, t) = sealed(fe.flight_recorder(), range);
    let (names, tags) = under_op(&t, "ada.query_range");
    assert_eq!(names, ["cache.lookup", "query.index", "query.reassemble"]);
    assert!(tags.is_empty(), "a cache hit decodes nothing");
    let frames = |r: ada_core::QueryReport| match r.data {
        RetrievedData::Real(traj) => traj.frames,
        other => panic!("expected real data, got {:?}", other),
    };
    let (cold, hit) = (frames(cold), frames(hit));
    assert_eq!(cold.len(), 4);
    assert_eq!(cold, hit);
}

fn span_named<'a>(t: &'a Trace, name: &str) -> &'a TraceSpan {
    t.spans
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("trace {:x} has no {} span", t.id, name))
}

/// Caller-runs admission: an uncontended request never leaves the thread
/// that submitted it — queue wait, slot-held execution and the middleware
/// facade all carry the root's thread label.
#[test]
fn uncontended_request_runs_on_the_submitting_thread() {
    let rig = Rig::new(AdaConfig {
        chunk_frames: 4,
        cache: ada_cache::CacheConfig::with_capacity(64 << 20),
        ..AdaConfig::paper_prototype("ssd", "hdd")
    })
    .with_frontend(FrontendConfig::default());
    let fe = rig.frontend();
    fe.ingest("c0", "d", input(&gpcr_workload(600, 12, 5)))
        .unwrap();
    let range = || {
        fe.query_range("c0", "d", &Tag::protein(), 2..10, 2)
            .unwrap()
    };
    range(); // warm the cache: the next read starts no decode worker
    let (_, t) = sealed(fe.flight_recorder(), range);
    let root = t.root().unwrap();
    for name in ["frontend.queue_wait", "frontend.execute", "ada.query_range"] {
        assert_eq!(
            span_named(&t, name).thread,
            root.thread,
            "{} left the submitting thread",
            name
        );
    }
}

/// Two clients, one query slot: the one that had to queue is woken by the
/// other's slot release and then runs its request itself. Its trace is one
/// tree with a real queue wait, executed on its own thread — not on the
/// thread of the client whose release started it. The overlap is a race
/// the barrier and a multi-millisecond query stack heavily; it is retried
/// like the thundering-herd tests. A wake-up that cannot come (awaited
/// under the scheduler lock, or lost) hangs both clients, so the scenario
/// runs under a watchdog and such a hang fails the test.
#[test]
fn queued_request_traces_as_one_tree_on_its_own_thread() {
    let (done_tx, done_rx) = sync_channel::<()>(1);
    let scenario = std::thread::spawn(move || {
        queued_request_scenario();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(Duration::from_secs(60)) {
        // Done, or failed an assertion and hung up: join reports which.
        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
            scenario.join().expect("scenario must not panic")
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("a queued query was never woken: both clients hung")
        }
    }
}

/// The two-client scenario of
/// [`queued_request_traces_as_one_tree_on_its_own_thread`].
fn queued_request_scenario() {
    for attempt in 0..5 {
        let rig = Rig::new(pooled()).with_frontend(FrontendConfig {
            query_slots: 1,
            ..FrontendConfig::default()
        });
        let fe = rig.frontend();
        fe.ingest("setup", "big", input(&gpcr_workload(2500, 8, 11)))
            .unwrap();

        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            for client in ["c0", "c1"] {
                let (fe, barrier) = (&fe, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    fe.query(client, "big", None).unwrap();
                });
            }
        });

        let mut queries: Vec<Arc<Trace>> = fe
            .flight_recorder()
            .recent()
            .into_iter()
            .filter(|t| matches!(arg(t.root().unwrap(), "op"), Some(ArgValue::Str(op)) if op == "query"))
            .collect();
        assert_eq!(queries.len(), 2, "one trace per client");
        queries.sort_by_key(|t| span_named(t, "frontend.execute").start_ns);
        let (first, second) = (&queries[0], &queries[1]);
        // `second` queued behind `first` iff its wait began while `first`
        // still held the only slot.
        let wait = span_named(second, "frontend.queue_wait");
        if wait.start_ns >= span_named(first, "frontend.execute").end_ns {
            eprintln!(
                "attempt {}: the two queries never overlapped, retrying",
                attempt
            );
            continue;
        }

        assert_tree_invariants(second);
        assert!(
            !second.is_flagged(),
            "queued, then served: {:?}",
            second.flag
        );
        assert!(u64_arg(wait, "waited_ns").unwrap() > 0);
        let exec = span_named(second, "frontend.execute");
        assert_eq!(exec.thread, second.root().unwrap().thread);
        assert_eq!(span_named(second, "ada.query").thread, exec.thread);
        assert_ne!(
            exec.thread,
            span_named(first, "frontend.execute").thread,
            "the queued request ran on the thread that woke it"
        );
        return;
    }
    panic!("two clients through one query slot never overlapped in 5 attempts");
}
