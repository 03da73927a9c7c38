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
//! * turning tracing off changes no query bytes (observability is
//!   side-effect-free);
//! * a report's `StageProfile` and the `span.*` registry family are folds
//!   of the request's span tree, not measurements taken beside it;
//! * an admitted request executes on the thread that submitted it, and one
//!   that had to queue still seals as one tree, on its own thread.
//!
//! The flight recorder is process-global, so these tests serialize on a
//! local mutex and only assert on traces they can attribute to
//! themselves (by op, flag, or a cleared recorder).

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::Duration;

use ada_core::{Ada, AdaConfig, AdaError, IngestInput, RetrievedData, StageProfile};
use ada_frontend::{Class, Frontend, FrontendConfig};
use ada_mdmodel::Tag;
use ada_plfs::ContainerSet;
use ada_simfs::{LocalFs, SimFileSystem};
use ada_telemetry::trace::{self, ArgValue, Trace, TraceSpan};

static GUARD: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

fn make_ada() -> Arc<Ada> {
    make_ada_with(AdaConfig::paper_prototype("ssd", "hdd"))
}

fn make_ada_with(config: AdaConfig) -> Arc<Ada> {
    let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
    let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
    let cs = Arc::new(ContainerSet::new(vec![
        ("ssd".into(), ssd.clone()),
        ("hdd".into(), hdd),
    ]));
    Arc::new(Ada::new(config, cs, ssd))
}

fn real_input(natoms: usize, nframes: usize, seed: u64) -> IngestInput {
    let w = ada_workload::gpcr_workload(natoms, nframes, seed);
    IngestInput::Real {
        pdb_text: ada_mdformats::write_pdb(&w.system),
        xtc_bytes: ada_mdformats::xtc::write_xtc(
            &w.trajectory,
            ada_mdformats::xtc::DEFAULT_PRECISION,
        )
        .unwrap(),
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
    let _g = serialize();
    trace::set_tracing(true);
    trace::recorder().clear();

    let fe = Frontend::new(
        make_ada(),
        FrontendConfig {
            ingest_slots: 2,
            query_slots: 4,
            ingest_queue: 64,
            query_queue: 64,
            default_deadline: None,
            ..FrontendConfig::default()
        },
    );
    fe.ingest("setup", "shared", real_input(500, 4, 7)).unwrap();

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

    // The registry snapshot embeds flight-recorder summaries.
    let snap = ada_telemetry::snapshot_with_traces();
    let recent = snap
        .field("traces")
        .and_then(|t| t.field("recent"))
        .and_then(|r| r.as_arr())
        .expect("snapshot embeds trace summaries");
    assert!(recent.len() >= requests.len());
}

/// An errored request (unknown dataset) still produces a full trace,
/// flagged with the error kind and retained by the flight recorder.
#[test]
fn errored_request_trace_is_flagged_and_retained() {
    let _g = serialize();
    trace::set_tracing(true);
    trace::recorder().clear();

    let fe = Frontend::new(make_ada(), FrontendConfig::default());
    let err = fe.query("c0", "no-such-dataset", None).unwrap_err();
    assert_eq!(err.kind(), "unknown_dataset");

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
    let _g = serialize();
    trace::set_tracing(true);
    trace::recorder().clear();

    let fe = Frontend::new(make_ada(), FrontendConfig::default());
    fe.ingest("setup", "d", real_input(300, 2, 3)).unwrap();
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
    let _g = serialize();
    trace::set_tracing(true);
    for attempt in 0..5 {
        trace::recorder().clear();
        let fe = Frontend::new(
            make_ada(),
            FrontendConfig {
                ingest_slots: 1,
                query_slots: 1,
                ingest_queue: 1,
                query_queue: 1,
                default_deadline: None,
                ..FrontendConfig::default()
            },
        );
        fe.ingest("setup", "big", real_input(2500, 8, 11)).unwrap();

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

/// Tracing must be side-effect-free: the same ingest+query sequence with
/// tracing on and off returns byte-identical data.
#[test]
fn tracing_toggle_leaves_query_bytes_identical() {
    let _g = serialize();

    let run = |tracing_on: bool| -> Vec<u8> {
        trace::set_tracing(tracing_on);
        let ada = make_ada();
        ada.ingest("d", real_input(600, 3, 42)).unwrap();
        let report = ada.query("d", Some(&Tag::protein())).unwrap();
        match report.data {
            RetrievedData::Real(traj) => {
                ada_mdformats::xtc::write_xtc(&traj, ada_mdformats::xtc::DEFAULT_PRECISION).unwrap()
            }
            other => panic!("expected real data, got {:?}", other),
        }
    };

    let with_tracing = run(true);
    let without_tracing = run(false);
    trace::set_tracing(true);
    assert_eq!(
        with_tracing, without_tracing,
        "tracing on/off changed query bytes"
    );
}

/// The span → stage table as METRICS.md documents it, written out here so
/// the check does not lean on `StageProfile::from_spans`' own copy.
fn stage_of(span: &str) -> Option<&'static str> {
    Some(match span {
        "ingest.categorize" => "categorize",
        "ingest.decode" | "query.decode" => "decode",
        "ingest.split" => "split",
        "ingest.dispatch" => "dispatch",
        "ingest.label_write" => "label_write",
        "query.index" => "index",
        "cache.lookup" => "cache_lookup",
        "query.read" => "read",
        "query.reassemble" => "reassemble",
        _ => return None,
    })
}

fn u64_arg(s: &TraceSpan, key: &str) -> Option<u64> {
    match arg(s, key) {
        Some(ArgValue::U64(n)) => Some(*n),
        _ => None,
    }
}

/// Run one request against a cleared recorder and return its reply with
/// the trace it sealed, having checked that every `span.{stage}.calls`
/// counter grew by exactly the number of spans of that stage in the trace.
fn sealed<R>(request: impl FnOnce() -> R) -> (R, Arc<Trace>) {
    trace::recorder().clear();
    let before = ada_telemetry::global().snapshot().counters;
    let reply = request();
    let after = ada_telemetry::global().snapshot().counters;
    let traces = trace::recorder().recent();
    assert_eq!(traces.len(), 1, "one request seals one trace");
    let t = Arc::clone(&traces[0]);
    assert_tree_invariants(&t);

    let mut spans_of: BTreeMap<&str, u64> = BTreeMap::new();
    for s in &t.spans {
        *spans_of.entry(s.name).or_insert(0) += 1;
    }
    for (name, n) in spans_of {
        let counter = format!("span.{}.calls", name);
        let grew =
            after.get(&counter).copied().unwrap_or(0) - before.get(&counter).copied().unwrap_or(0);
        assert_eq!(grew, n, "{} vs {} sealed span(s)", counter, n);
    }
    (reply, t)
}

/// Recompute a profile from the sealed trace — the subtree of the span
/// named `op` — and require `p` to be exactly that.
fn assert_profile_is_fold(
    p: &StageProfile,
    t: &Trace,
    op: &str,
    mode: &str,
    stored_by_tag: Option<&BTreeMap<Tag, u64>>,
) {
    let op_span = t
        .spans
        .iter()
        .find(|s| s.name == op)
        .unwrap_or_else(|| panic!("trace {:x} has no {} span", t.id, op));
    let under_op = |s: &TraceSpan| {
        let mut cur = s;
        while cur.id != op_span.id {
            match cur.parent {
                Some(up) => cur = span_by_id(t, up),
                None => return false,
            }
        }
        true
    };

    let mut stages_ns: BTreeMap<String, u64> = BTreeMap::new();
    let mut decoded_by_tag: BTreeMap<String, u64> = BTreeMap::new();
    for s in t.spans.iter().filter(|s| under_op(s)) {
        if let Some(stage) = stage_of(s.name) {
            *stages_ns.entry(stage.to_string()).or_insert(0) += s.end_ns - s.start_ns;
        }
        if s.name == "query.decode" {
            let Some(ArgValue::Str(tag)) = arg(s, "tag") else {
                panic!("query.decode span without a tag");
            };
            *decoded_by_tag.entry(tag.clone()).or_insert(0) += u64_arg(s, "bytes").unwrap();
        }
    }
    let bytes_by_tag = match stored_by_tag {
        Some(stored) => stored.iter().map(|(t, b)| (t.to_string(), *b)).collect(),
        None => decoded_by_tag,
    };

    assert_eq!(p.mode, mode);
    assert_eq!(p.wall_ns, op_span.end_ns - op_span.start_ns, "{} wall", op);
    assert_eq!(p.stages_ns, stages_ns, "{} stages", op);
    assert_eq!(p.bytes_by_tag, bytes_by_tag, "{} per-tag bytes", op);
}

/// A report's profile and the `span.*` counters are two folds of the
/// request's one span tree: recomputing them from the sealed trace gives
/// the same numbers, on an ingest of one window and of several and on both
/// retrieval schedules, under a front-end root and under the facade's own.
#[test]
fn profile_is_a_fold_of_the_tree() {
    let _g = serialize();
    trace::set_tracing(true);
    let stages = |p: &StageProfile| -> Vec<String> { p.stages_ns.keys().cloned().collect() };

    let w = ada_workload::gpcr_workload(900, 12, 21);
    let pdb = ada_mdformats::write_pdb(&w.system);
    let xtc = ada_mdformats::xtc::write_xtc(&w.trajectory, ada_mdformats::xtc::DEFAULT_PRECISION)
        .unwrap();
    let input = || IngestInput::Real {
        pdb_text: pdb.clone(),
        xtc_bytes: xtc.clone(),
    };

    // The ingest body, in one window.
    let fe = Frontend::new(make_ada(), FrontendConfig::default());
    let (report, t) = sealed(|| fe.ingest("c0", "whole", input()).unwrap());
    let p = report
        .profile
        .as_ref()
        .expect("traced ingest has a profile");
    assert_profile_is_fold(p, &t, "ada.ingest", "serial", Some(&report.bytes_by_tag));
    assert_eq!(
        stages(p),
        ["categorize", "decode", "dispatch", "label_write", "split"]
    );

    // Twelve frames at four to a dropping: three windows of the same
    // body, the same fold — and the trace shows their schedule. No window
    // decodes more than a dropping's frames, and window k + 1 starts
    // decoding only once window k's droppings are stored, so one window's
    // decoded frames are all an ingest ever holds.
    let fe4 = Frontend::new(
        make_ada_with(AdaConfig {
            frames_per_dropping: 4,
            ..AdaConfig::paper_prototype("ssd", "hdd")
        }),
        FrontendConfig::default(),
    );
    let (report, t) = sealed(|| fe4.ingest("c0", "windowed", input()).unwrap());
    let p = report
        .profile
        .as_ref()
        .expect("traced ingest has a profile");
    let stored = Some(&report.bytes_by_tag);
    assert_profile_is_fold(p, &t, "ada.ingest", "serial", stored);
    assert_eq!(
        stages(p),
        ["categorize", "decode", "dispatch", "label_write", "split"]
    );
    let in_start_order = |name: &str| {
        let mut spans: Vec<&TraceSpan> = t.spans.iter().filter(|s| s.name == name).collect();
        spans.sort_by_key(|s| s.start_ns);
        spans
    };
    let decodes = in_start_order("ingest.decode");
    let dispatches = in_start_order("ingest.dispatch");
    assert_eq!((decodes.len(), dispatches.len()), (3, 3));
    for (k, decode) in decodes.iter().enumerate() {
        assert_eq!(u64_arg(decode, "frames"), Some(4), "window {}", k);
        assert!(
            k == 0 || decode.start_ns >= dispatches[k - 1].end_ns,
            "window {} decoded before window {} was stored",
            k,
            k - 1
        );
    }

    // No front-end entry for a guided ingest: the facade mints the root,
    // so the op span is the trace's root span.
    let (report, t) = sealed(|| fe.ada().ingest_guided("guided", "whole", &xtc).unwrap());
    let p = report
        .profile
        .as_ref()
        .expect("traced ingest has a profile");
    let stored = Some(&report.bytes_by_tag);
    assert_profile_is_fold(p, &t, "ada.ingest_guided", "guided", stored);
    assert_eq!(t.op, "ada.ingest_guided");
    assert_eq!(stages(p), ["decode", "dispatch", "label_write", "split"]);

    // Both retrieval schedules.
    for (query_threads, mode) in [(0, "query"), (4, "query_parallel")] {
        let fe = Frontend::new(
            make_ada_with(AdaConfig {
                query_threads,
                frames_per_dropping: 4,
                ..AdaConfig::paper_prototype("ssd", "hdd")
            }),
            FrontendConfig::default(),
        );
        fe.ingest("c0", "d", input()).unwrap();
        for tag in [Some(Tag::protein()), None] {
            let (report, t) = sealed(|| fe.query("c0", "d", tag.as_ref()).unwrap());
            let p = report.profile.as_ref().expect("traced query has a profile");
            assert_profile_is_fold(p, &t, "ada.query", mode, None);
            assert_eq!(stages(p), ["decode", "index", "read", "reassemble"]);
            assert_eq!(p.bytes_by_tag.len(), if tag.is_some() { 1 } else { 2 });
        }
    }

    // A range read, cold and then served from the cache.
    let fe = Frontend::new(
        make_ada_with(AdaConfig {
            frames_per_dropping: 4,
            cache: ada_cache::CacheConfig {
                min_heat: 0,
                ..ada_cache::CacheConfig::with_capacity(64 << 20)
            },
            ..AdaConfig::paper_prototype("ssd", "hdd")
        }),
        FrontendConfig::default(),
    );
    fe.ingest("c0", "d", input()).unwrap();
    let range = || {
        fe.query_range("c0", "d", &Tag::protein(), 2..10, 2)
            .unwrap()
    };
    let (cold, t) = sealed(range);
    let p = cold
        .profile
        .as_ref()
        .expect("traced range read has a profile");
    assert_profile_is_fold(p, &t, "ada.query_range", "query_range", None);
    assert_eq!(
        stages(p),
        ["cache_lookup", "decode", "index", "read", "reassemble"]
    );
    let (hit, t) = sealed(range);
    let p = hit
        .profile
        .as_ref()
        .expect("traced range read has a profile");
    assert_profile_is_fold(p, &t, "ada.query_range", "query_range", None);
    assert_eq!(stages(p), ["cache_lookup", "index", "reassemble"]);
    assert!(p.bytes_by_tag.is_empty(), "a cache hit decodes nothing");

    // Untraced, there is no tree to cut a profile from — and nothing else
    // about the reply changes.
    trace::set_tracing(false);
    let untraced = range();
    trace::set_tracing(true);
    assert!(untraced.profile.is_none());
    let frames = |r: ada_core::QueryReport| match r.data {
        RetrievedData::Real(traj) => traj.frames,
        other => panic!("expected real data, got {:?}", other),
    };
    let (cold, hit, untraced) = (frames(cold), frames(hit), frames(untraced));
    assert_eq!(cold.len(), 4);
    assert_eq!(cold, hit);
    assert_eq!(cold, untraced);
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
    let _g = serialize();
    trace::set_tracing(true);

    let fe = Frontend::new(
        make_ada_with(AdaConfig {
            frames_per_dropping: 4,
            cache: ada_cache::CacheConfig {
                min_heat: 0,
                ..ada_cache::CacheConfig::with_capacity(64 << 20)
            },
            ..AdaConfig::paper_prototype("ssd", "hdd")
        }),
        FrontendConfig::default(),
    );
    fe.ingest("c0", "d", real_input(600, 12, 5)).unwrap();
    let range = || {
        fe.query_range("c0", "d", &Tag::protein(), 2..10, 2)
            .unwrap()
    };
    range(); // warm the cache: the next read starts no decode worker
    let (_, t) = sealed(range);
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
/// like the thundering-herd tests.
#[test]
fn queued_request_traces_as_one_tree_on_its_own_thread() {
    let _g = serialize();
    trace::set_tracing(true);
    for attempt in 0..5 {
        trace::recorder().clear();
        let fe = Frontend::new(
            make_ada(),
            FrontendConfig {
                query_slots: 1,
                ..FrontendConfig::default()
            },
        );
        fe.ingest("setup", "big", real_input(2500, 8, 11)).unwrap();

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
