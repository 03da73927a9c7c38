//! The sealed trace of two requests, pinned span by span: a warm
//! `Frontend::query_range` cache hit and a cache-off `Frontend::query`.
//! Each span's name, parent, args (keys and values) and thread is
//! written out here, so a change to how spans are recorded cannot drop,
//! rename or re-parent one, lose an arg, or move a span to another thread
//! without failing this suite. Only the queue wait's `waited_ns` is a
//! clock reading; its key and kind are pinned, not its value.
//!
//! Each test reads the flight recorder of the stack it built.

mod common;

use ada_cache::CacheConfig;
use ada_core::{AdaConfig, QueryReport, RetrievedData};
use ada_frontend::{Frontend, FrontendConfig};
use ada_mdformats::xtcf::parse_directory;
use ada_mdmodel::Tag;
use ada_telemetry::trace::{ArgValue, TraceSpan};
use common::Rig;

/// A rig with a front-end over an SSD/HDD `Ada` holding `d`: 64 frames
/// (one stored chunk per tag) of a 600-atom system.
fn stack(config: AdaConfig) -> Rig {
    let rig = Rig::new(config).with_frontend(FrontendConfig::default());
    let w = ada_workload::gpcr_workload(600, 64, 47);
    rig.frontend().ingest("c0", "d", common::input(&w)).unwrap();
    rig
}

/// Run `request` on `fe`; its reply and the one trace it sealed in the
/// stack's recorder, spans in id order.
fn sealed(fe: &Frontend, request: impl FnOnce() -> QueryReport) -> (QueryReport, Vec<TraceSpan>) {
    let held = fe.flight_recorder().recent().len();
    let reply = request();
    let traces = fe.flight_recorder().recent();
    assert_eq!(traces.len(), held + 1, "one request seals one trace");
    let mut spans = traces[held].spans.clone();
    spans.sort_by_key(|s| s.id);
    (reply, spans)
}

/// The answer's frames and the bytes `query.reassemble` reports for them.
fn frames_and_bytes(reply: &QueryReport) -> (u64, u64) {
    match &reply.data {
        RetrievedData::Real(t) => (t.len() as u64, t.nbytes() as u64),
        other => panic!("expected frames, got {:?}", other),
    }
}

fn s(v: &str) -> ArgValue {
    ArgValue::Str(v.to_string())
}

/// One pinned span: id, name, parent, args. `None` for an arg value is a
/// clock reading: only its key and that it is a `U64` are pinned.
type Pinned = (
    u64,
    &'static str,
    Option<u64>,
    Vec<(&'static str, Option<ArgValue>)>,
);

fn assert_spans(spans: &[TraceSpan], pinned: &[Pinned]) {
    let got: Vec<(u64, &str, Option<u64>)> =
        spans.iter().map(|s| (s.id, s.name, s.parent)).collect();
    let want: Vec<(u64, &str, Option<u64>)> = pinned.iter().map(|p| (p.0, p.1, p.2)).collect();
    assert_eq!(got, want, "span ids, names and parents");
    for (span, (_, name, _, args)) in spans.iter().zip(pinned) {
        let keys: Vec<&str> = span.args.iter().map(|(k, _)| *k).collect();
        let want_keys: Vec<&str> = args.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, want_keys, "{} arg keys", name);
        for ((key, got), (_, want)) in span.args.iter().zip(args) {
            match want {
                Some(v) => assert_eq!(got, v, "{} arg {}", name, key),
                None => assert!(
                    matches!(got, ArgValue::U64(_)),
                    "{} arg {}: {:?}",
                    name,
                    key,
                    got
                ),
            }
        }
        assert_eq!(span.error, None, "{} error", name);
    }
}

#[test]
fn a_warm_range_hit_seals_seven_spans_on_the_callers_thread() {
    let cache = CacheConfig::with_capacity(64 << 20);
    let rig = stack(AdaConfig {
        cache,
        ..AdaConfig::paper_prototype("ssd", "hdd")
    });
    let fe = rig.frontend();
    let p = Tag::protein();
    // The first read decodes the window's chunk and leaves it resident.
    fe.query_range("c0", "d", &p, 16..32, 1).unwrap();
    let (reply, spans) = sealed(&fe, || fe.query_range("c0", "d", &p, 16..32, 1).unwrap());
    let (frames, bytes) = frames_and_bytes(&reply);
    assert_eq!(frames, 16);

    let u = |n: u64| Some(ArgValue::U64(n));
    assert_spans(
        &spans,
        &[
            (
                1,
                "frontend.request",
                None,
                vec![("op", Some(s("query_range"))), ("client", Some(s("c0")))],
            ),
            (2, "frontend.queue_wait", Some(1), vec![("waited_ns", None)]),
            (3, "frontend.execute", Some(1), vec![]),
            (4, "ada.query_range", Some(3), vec![]),
            (5, "query.index", Some(4), vec![]),
            (
                6,
                "cache.lookup",
                Some(4),
                vec![("hits", u(1)), ("misses", u(0))],
            ),
            (
                7,
                "query.reassemble",
                Some(4),
                vec![("bytes", u(bytes)), ("frames", u(frames))],
            ),
        ],
    );
    // An all-hit request checks no stored chunk, so it runs inline: every
    // span is the caller's.
    let caller = &spans[0].thread;
    for span in &spans {
        assert_eq!(&span.thread, caller, "{} ran off the caller", span.name);
    }
}

#[test]
fn a_cache_off_query_decodes_and_reassembles_on_its_one_worker() {
    let rig = stack(AdaConfig {
        query_threads: 1,
        ..AdaConfig::paper_prototype("ssd", "hdd")
    });
    let fe = rig.frontend();
    let p = Tag::protein();
    let (reply, spans) = sealed(&fe, || fe.query("c0", "d", Some(&p)).unwrap());
    let (frames, bytes) = frames_and_bytes(&reply);
    assert_eq!(frames, 64);

    // What the stored dropping holds: its length, and its one chunk's body.
    let label = fe.ada().label("d").unwrap();
    let record = &label.entry(&p).unwrap().dropping;
    let (content, _) = fe.ada().containers().read_dropping(record).unwrap();
    let dir = parse_directory(content.bytes()).unwrap().unwrap();
    assert_eq!(dir.nchunks(), 1);
    let body = dir.entries[0].body_len() as u64;

    let u = |n: u64| Some(ArgValue::U64(n));
    assert_spans(
        &spans,
        &[
            (
                1,
                "frontend.request",
                None,
                vec![("op", Some(s("query"))), ("client", Some(s("c0")))],
            ),
            (2, "frontend.queue_wait", Some(1), vec![("waited_ns", None)]),
            (3, "frontend.execute", Some(1), vec![]),
            (4, "ada.query", Some(3), vec![]),
            (5, "query.index", Some(4), vec![]),
            (6, "query.read", Some(4), vec![("bytes", u(content.len()))]),
            (
                7,
                "query.decode",
                Some(4),
                vec![
                    ("tag", Some(s("p"))),
                    ("chunk", u(0)),
                    ("bytes", u(body)),
                    ("frames", u(frames)),
                ],
            ),
            (
                8,
                "query.reassemble",
                Some(4),
                vec![("bytes", u(bytes)), ("frames", u(frames))],
            ),
        ],
    );
    // The caller admits, indexes and reads; the pool's one worker checks
    // the chunk and writes the answer.
    let caller = &spans[0].thread;
    for span in &spans[..6] {
        assert_eq!(&span.thread, caller, "{} ran off the caller", span.name);
    }
    let worker = &spans[6].thread;
    assert_ne!(worker, caller, "the decode ran on the caller");
    assert_eq!(
        &spans[7].thread, worker,
        "reassemble left the decode's worker"
    );
}
