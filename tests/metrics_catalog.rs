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
//! process under different loads read different values.

use std::sync::{Arc, Mutex, MutexGuard};

use ada_cache::CacheConfig;
use ada_client::{Client, ClientConfig, Router};
use ada_core::{Ada, AdaConfig, IngestInput};
use ada_frontend::{Frontend, FrontendConfig};
use ada_mdformats::xtcf::parse_directory;
use ada_mdmodel::Tag;
use ada_plfs::ContainerSet;
use ada_server::{Server, ServerConfig};
use ada_simfs::{Content, LocalFs, SimFileSystem};
use ada_telemetry::{trace, Snapshot};

static GUARD: Mutex<()> = Mutex::new(());

/// Both tests seal traces into the one process-wide recorder; the
/// catalog test reads the span names back from its rings.
fn serialize() -> MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

/// A served stack: `Ada` with a hot cache and 2-frame chunks over an SSD
/// and an HDD backend, its front-end and a daemon. The SSD is handed back
/// so a test can corrupt what was stored on it.
fn stack() -> (Server, Arc<Frontend>, Arc<dyn SimFileSystem>) {
    let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
    let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
    let cs = Arc::new(ContainerSet::new(vec![
        ("ssd".into(), ssd.clone()),
        ("hdd".into(), hdd),
    ]));
    let config = AdaConfig {
        chunk_frames: 2,
        cache: CacheConfig {
            capacity_bytes: 64 << 20,
            shards: 4,
            min_heat: 0,
        },
        ..AdaConfig::paper_prototype("ssd", "hdd")
    };
    let ada = Arc::new(Ada::new(config, cs, ssd.clone()));
    let fe = Arc::new(Frontend::new(ada, FrontendConfig::default()));
    let server = Server::start(Arc::clone(&fe), ServerConfig::default()).expect("server starts");
    (server, fe, ssd)
}

fn client(server: &Server, name: &str) -> Client {
    let config = ClientConfig {
        name: name.to_string(),
        ..ClientConfig::default()
    };
    Client::new(server.local_addr().to_string(), config)
}

fn real_bytes(natoms: usize, nframes: usize, seed: u64) -> (String, Vec<u8>) {
    let w = ada_workload::gpcr_workload(natoms, nframes, seed);
    (
        ada_mdformats::write_pdb(&w.system),
        ada_mdformats::xtc::write_xtc(&w.trajectory, ada_mdformats::xtc::DEFAULT_PRECISION)
            .unwrap(),
    )
}

fn real_input(natoms: usize, nframes: usize, seed: u64) -> IngestInput {
    let (pdb_text, xtc_bytes) = real_bytes(natoms, nframes, seed);
    IngestInput::Real {
        pdb_text,
        xtc_bytes,
    }
}

fn metrics_of(server: &Server) -> Snapshot {
    let mut snap = Snapshot::default();
    server.write_metrics(&mut snap);
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
    let _g = serialize();
    trace::set_tracing(true);
    trace::recorder().clear();
    let (mut server, fe, ssd) = stack();
    let remote = client(&server, "catalog");
    let router = Router::new(
        vec![server.local_addr().to_string()],
        ClientConfig::default(),
    );

    // Over the wire: an ingest, a forwarded tag query and a failed query.
    let (pdb, xtc) = real_bytes(300, 6, 5);
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
    fe.query_range("local", "ds", &Tag::protein(), 0..2, 1)
        .expect("range query");
    fe.query("local", "ds", None).expect("full-frame query");
    fe.ingest("local", "bad", real_input(300, 6, 6))
        .expect("second ingest");
    let path = ssd
        .list("ssd/bad/hostdir.0/")
        .into_iter()
        .find(|p| p.contains("dropping.data.p"))
        .expect("protein dropping exists");
    let (content, _) = ssd.read(&path).unwrap();
    let mut bytes = content.as_real().expect("real dropping").to_vec();
    let dir = parse_directory(&bytes).unwrap().unwrap();
    bytes[dir.entries[1].offset as usize + 60] ^= 0x10;
    ssd.delete(&path).unwrap();
    ssd.create(&path, Content::real(bytes)).unwrap();
    let err = fe.query("local", "bad", Some(&Tag::protein())).unwrap_err();
    assert_eq!(err.kind(), "xtcf", "{}", err);
    server.shutdown();

    let mut snap = metrics_of(&server);
    remote.write_metrics(&mut snap);
    router.write_metrics(&mut snap);
    trace::recorder().write_metrics(&mut snap);
    let mut emitted: Vec<(Kind, String)> = Vec::new();
    emitted.extend(snap.counters.keys().map(|k| (Kind::Counter, k.clone())));
    emitted.extend(snap.gauges.keys().map(|k| (Kind::Gauge, k.clone())));
    emitted.extend(snap.histograms.keys().map(|k| (Kind::Histogram, k.clone())));
    let mut span_names: Vec<String> = trace::recorder()
        .all()
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
    let _g = serialize();
    let (mut busy, _, _) = stack();
    let (mut idle, _, _) = stack();
    let (pdb, xtc) = real_bytes(300, 6, 9);
    let c = client(&busy, "busy");
    c.ingest("ds", &pdb, &xtc)
        .expect("ingest on the busy server");
    for _ in 0..3 {
        c.query_range("ds", "p", 0, 4, 1).expect("range query");
    }
    let c = client(&idle, "idle");
    c.ingest("ds", &pdb, &xtc)
        .expect("ingest on the idle server");
    c.query_range("ds", "p", 0, 4, 1).expect("range query");
    busy.shutdown();
    idle.shutdown();

    let (b, i) = (metrics_of(&busy), metrics_of(&idle));
    assert_eq!(b.counters["server.requests"], 4);
    assert_eq!(i.counters["server.requests"], 2);
    assert_eq!(b.counters["frontend.query.accepted"], 3);
    assert_eq!(i.counters["frontend.query.accepted"], 1);
    assert_eq!(b.counters["frontend.client.busy.accepted"], 4);
    assert!(!i.counters.contains_key("frontend.client.busy.accepted"));
    // The first read of the window misses, every later one hits.
    assert_eq!(b.counters["cache.hit"], 2);
    assert_eq!(i.counters["cache.hit"], 0);
    assert_eq!(b.counters["cache.miss"], i.counters["cache.miss"]);
}
