//! Metrics belong to the instance that owns them, and `METRICS.md` names
//! exactly what the instances emit.
//!
//! `metrics_md_catalogs_exactly_what_a_stack_emits` builds a fresh stack —
//! `Ada` (cache on) over two backends, `Frontend`, `Server`, `Client`,
//! `Router` — drives a traced run through it that touches every family
//! (successes, errors, a skipped chunk, a corrupt one), and compares its
//! snapshot keys and sealed span names with the catalog's rows, both
//! ways: a name with no row fails, and so does a row nothing emitted.
//!
//! `two_servers_in_one_process_count_their_own_load`: two stacks in one
//! process under different op mixes read different values, and each
//! stack's flight recorder holds only its own traces and `span.*` family.

mod common;

use std::collections::BTreeSet;

use ada_cache::CacheConfig;
use ada_client::{ClientConfig, Router};
use ada_core::{AdaConfig, ErrorKind};
use ada_frontend::Frontend;
use ada_mdformats::xtcf::parse_directory;
use ada_mdmodel::Tag;
use ada_server::ServerConfig;
use ada_simfs::Content;
use ada_telemetry::Snapshot;
use ada_workload::gpcr_workload;
use common::{fixture, input, Rig};

/// A served rig: `Ada` (with its flight recorder) with a hot cache and
/// 2-frame chunks, its front-end and a daemon.
fn served() -> Rig {
    Rig::new(AdaConfig {
        chunk_frames: 2,
        cache: CacheConfig::with_capacity(64 << 20),
        ..AdaConfig::paper_prototype("ssd", "hdd")
    })
    .serve(ServerConfig::default())
}

fn metrics_of(rig: &Rig) -> Snapshot {
    let mut snap = Snapshot::default();
    rig.server().write_metrics(&mut snap);
    snap
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Span,
    Counter,
    Gauge,
    Histogram,
}

/// `METRICS.md`'s rows: the first cell of every table row, by the section
/// it sits in.
fn catalog() -> Vec<(Kind, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/METRICS.md"))
        .expect("METRICS.md is readable");
    let mut section = None;
    let mut rows = Vec::new();
    for line in text.lines() {
        if let Some(heading) = line.strip_prefix("## ") {
            section = match heading {
                h if h.starts_with("Trace span names") => Some(Kind::Span),
                "Counters" => Some(Kind::Counter),
                "Gauges" => Some(Kind::Gauge),
                "Histograms" => Some(Kind::Histogram),
                _ => None,
            };
        } else if let (Some(kind), Some(cell)) = (section, line.strip_prefix("| `")) {
            let name = cell.split('`').next().unwrap_or_default();
            rows.push((kind, name.to_string()));
        }
    }
    rows
}

/// Whether `name` is an instance of catalog row `pattern`: `{stage}`
/// stands for one of the catalogued `spans`, any other `{x}` for one or
/// more dot-free characters.
fn matches(pattern: &str, name: &str, spans: &[String]) -> bool {
    let Some(open) = pattern.find('{') else {
        return pattern == name;
    };
    let Some(name) = name.strip_prefix(&pattern[..open]) else {
        return false;
    };
    let close = open + pattern[open..].find('}').expect("a row closes its {}");
    let (hole, rest) = (&pattern[open + 1..close], &pattern[close + 1..]);
    let lengths: Vec<usize> = if hole == "stage" {
        let fits = spans.iter().filter(|s| name.starts_with(s.as_str()));
        fits.map(|s| s.len()).collect()
    } else {
        (1..=name.find('.').unwrap_or(name.len())).collect()
    };
    lengths
        .into_iter()
        .any(|n| matches(rest, &name[n..], spans))
}

#[test]
fn metrics_md_catalogs_exactly_what_a_stack_emits() {
    let mut rig = served();
    let remote = rig.client("catalog");
    let router = Router::new(
        vec![rig.server().local_addr().to_string()],
        ClientConfig::default(),
    );

    // Over the wire: an ingest, a forwarded tag query and a failed query.
    let (pdb, xtc) = fixture(&gpcr_workload(300, 6, 5));
    remote.ingest("ds", &pdb, &xtc).expect("remote ingest");
    remote.query("ds", Some("p")).expect("remote tag query");
    remote
        .query("nobody-ingested-this", None)
        .expect_err("unknown dataset");
    router
        .query("nobody-routed-this", None)
        .expect_err("unknown dataset");
    // In process: ranged and full-frame reads through the cache (the
    // range, first, reads one of three chunks and skips two), then a
    // dataset whose stored chunk 1 is corrupt.
    let (fe, ssd) = (rig.frontend(), &rig.ssd);
    fe.query_range("local", "ds", &Tag::protein(), 0..2, 1)
        .expect("range query");
    fe.query("local", "ds", None).expect("full-frame query");
    fe.ingest("local", "bad", input(&gpcr_workload(300, 6, 6)))
        .expect("second ingest");
    let path = ssd
        .list("ssd/bad/hostdir.0/")
        .into_iter()
        .find(|p| p.contains("dropping.data.p"))
        .expect("protein dropping exists");
    let (content, _) = ssd.read(&path).unwrap();
    let mut bytes = content.bytes().to_vec();
    let dir = parse_directory(&bytes).unwrap().unwrap();
    bytes[dir.entries[1].offset as usize + 60] ^= 0x10;
    ssd.delete(&path).unwrap();
    ssd.create(&path, Content::real(bytes)).unwrap();
    let err = fe.query("local", "bad", Some(&Tag::protein())).unwrap_err();
    assert_eq!(err.error_kind(), ErrorKind::Corrupt, "{}", err);
    rig.shutdown();

    let mut snap = metrics_of(&rig);
    remote.write_metrics(&mut snap);
    router.write_metrics(&mut snap);
    let mut emitted: Vec<(Kind, String)> = Vec::new();
    emitted.extend(snap.counters.keys().map(|k| (Kind::Counter, k.clone())));
    emitted.extend(snap.gauges.keys().map(|k| (Kind::Gauge, k.clone())));
    emitted.extend(snap.histograms.keys().map(|k| (Kind::Histogram, k.clone())));
    let traces = [
        rig.frontend().flight_recorder().all(),
        remote.flight_recorder().all(),
    ]
    .concat();
    let mut span_names: Vec<String> = traces
        .iter()
        .flat_map(|t| t.spans.iter().map(|s| s.name.to_string()))
        .collect();
    span_names.sort();
    span_names.dedup();
    emitted.extend(span_names.into_iter().map(|n| (Kind::Span, n)));

    let rows = catalog();
    let spans: Vec<String> = rows
        .iter()
        .filter(|(kind, _)| *kind == Kind::Span)
        .map(|(_, name)| name.clone())
        .collect();
    let row_of = |kind: Kind, name: &str| {
        rows.iter()
            .any(|(k, pattern)| *k == kind && matches(pattern, name, &spans))
    };
    let uncatalogued: Vec<_> = emitted
        .iter()
        .filter(|(kind, name)| !row_of(*kind, name))
        .collect();
    assert!(
        uncatalogued.is_empty(),
        "no METRICS.md row: {:?}",
        uncatalogued
    );
    let stale: Vec<_> = rows
        .iter()
        .filter(|(kind, pattern)| {
            let of_kind = emitted.iter().filter(|(k, _)| k == kind);
            !of_kind
                .into_iter()
                .any(|(_, name)| matches(pattern, name, &spans))
        })
        .collect();
    assert!(
        stale.is_empty(),
        "METRICS.md rows nothing emitted: {:?}",
        stale
    );
}

#[test]
fn catalog_patterns_match_one_name_part_per_hole() {
    let spans = vec!["query.decode".to_string()];
    assert!(matches(
        "plfs.{backend}.read.ops",
        "plfs.ssd.read.ops",
        &spans
    ));
    assert!(!matches(
        "plfs.{backend}.read.ops",
        "plfs.a.b.read.ops",
        &spans
    ));
    assert!(!matches(
        "frontend.{class}.accepted",
        "frontend.client.x.accepted",
        &spans
    ));
    assert!(matches(
        "span.{stage}.calls",
        "span.query.decode.calls",
        &spans
    ));
    assert!(!matches(
        "span.{stage}.calls",
        "span.query.read.calls",
        &spans
    ));
    assert!(!matches("cache.hit", "cache.hits", &spans));
}

#[test]
fn two_servers_in_one_process_count_their_own_load() {
    let (mut busy, mut idle) = (served(), served());
    let (pdb, xtc) = fixture(&gpcr_workload(300, 6, 9));
    let c = busy.client("busy");
    c.ingest("ds", &pdb, &xtc)
        .expect("ingest on the busy server");
    for _ in 0..3 {
        c.query_range("ds", "p", 0, 4, 1).expect("range query");
    }
    let c = idle.client("idle");
    c.ingest("ds", &pdb, &xtc)
        .expect("ingest on the idle server");
    c.query_range("ds", "p", 0, 4, 1).expect("range query");
    c.query("ds", Some("p")).expect("tag query");
    busy.shutdown();
    idle.shutdown();

    let (b, i) = (metrics_of(&busy), metrics_of(&idle));
    assert_eq!(b.counters["server.requests"], 4);
    assert_eq!(i.counters["server.requests"], 3);
    assert_eq!(b.counters["frontend.query.accepted"], 3);
    assert_eq!(i.counters["frontend.query.accepted"], 2);
    assert_eq!(b.counters["frontend.client.busy.accepted"], 4);
    assert!(!i.counters.contains_key("frontend.client.busy.accepted"));
    // The first read of the window misses, every later one hits.
    assert_eq!(b.counters["cache.hit"], 2);
    assert_eq!(i.counters["cache.hit"], 0);
    assert_eq!(b.counters["cache.miss"], i.counters["cache.miss"]);

    // Each stack's recorder holds the trees of the requests it served and
    // nothing else, and its `span.*` family counts only their spans.
    let ids = |fe: &Frontend| -> BTreeSet<u128> {
        fe.flight_recorder().all().iter().map(|t| t.id).collect()
    };
    let (b_ids, i_ids) = (ids(busy.frontend()), ids(idle.frontend()));
    assert_eq!((b_ids.len(), i_ids.len()), (4, 3));
    assert!(b_ids.is_disjoint(&i_ids), "a trace sealed in both stacks");
    assert_eq!(b.counters["span.server.request.calls"], 4);
    assert_eq!(i.counters["span.server.request.calls"], 3);
    assert_eq!(b.counters["span.ada.query_range.calls"], 3);
    assert_eq!(i.counters["span.ada.query_range.calls"], 1);
    assert!(!b.counters.contains_key("span.ada.query.calls"));
    assert_eq!(i.counters["span.ada.query.calls"], 1);
}
