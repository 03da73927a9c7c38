//! The read column of a request's byte ledger: what one call fetches from
//! each backend (the delta of `plfs.{backend}.read.bytes`), pinned as a
//! formula over the dataset's label — its droppings' backends and lengths
//! — never as a literal, at `query_threads` 0 and 4:
//!
//! * `query(p)` reads `p`'s dropping;
//! * the full query reads both droppings;
//! * a 16-frame range miss reads `p`'s whole dropping (the read
//!   amplification a ranged fetch would remove);
//! * with the cache on, the same range read again reads nothing.

mod common;

use std::collections::BTreeMap;

use ada_cache::CacheConfig;
use ada_core::{Ada, AdaConfig, LabelFile};
use ada_mdmodel::Tag;
use ada_telemetry::Snapshot;
use common::Rig;

/// Bytes read per backend, by backend name: what a call fetches.
type Fetched = BTreeMap<String, u64>;

/// `plfs.{backend}.read.bytes` of every backend that has read.
fn read_bytes(ada: &Ada) -> Fetched {
    let mut snap = Snapshot::default();
    ada.containers().write_metrics(&mut snap);
    let reads = snap.counters.into_iter().filter_map(|(name, n)| {
        let backend = name.strip_prefix("plfs.")?.strip_suffix(".read.bytes")?;
        Some((backend.to_string(), n))
    });
    reads.collect()
}

/// What `call` fetched from each backend that it read from.
fn fetched_by(ada: &Ada, call: impl FnOnce()) -> Fetched {
    let before = read_bytes(ada);
    call();
    let after = read_bytes(ada);
    let grew = after.into_iter().map(|(backend, n)| {
        let n = n - before.get(&backend).copied().unwrap_or(0);
        (backend, n)
    });
    grew.filter(|&(_, n)| n > 0).collect()
}

/// The formula: each of `tags`' droppings in `label`, whole, from the
/// backend that holds it.
fn droppings(label: &LabelFile, tags: &[Tag]) -> Fetched {
    let mut out = Fetched::new();
    for tag in tags {
        let dropping = &label.entry(tag).unwrap().dropping;
        *out.entry(dropping.backend.clone()).or_default() += dropping.len;
    }
    out
}

/// `d`, 96 frames of a 600-atom system in chunks of 64: two chunks per
/// dropping, so a 16-frame window touches one of them.
fn ingested(query_threads: usize, cache: CacheConfig) -> Rig {
    let rig = Rig::new(AdaConfig {
        query_threads,
        cache,
        ..AdaConfig::paper_prototype("ssd", "hdd")
    });
    let w = ada_workload::gpcr_workload(600, 96, 7);
    rig.ada().ingest("d", common::input(&w)).unwrap();
    rig
}

#[test]
fn each_read_fetches_its_tags_whole_droppings() {
    let (p, m) = (Tag::protein(), Tag::misc());
    for query_threads in [0, 4] {
        let rig = ingested(query_threads, CacheConfig::default());
        let ada = rig.ada();
        let label = ada.label("d").unwrap();
        let at = format!("query_threads {query_threads}");
        assert_ne!(
            label.entry(&p).unwrap().dropping.backend,
            label.entry(&m).unwrap().dropping.backend,
            "{at}: the tags live on different backends"
        );

        let tag_p = fetched_by(ada, || drop(ada.query("d", Some(&p)).unwrap()));
        assert_eq!(tag_p, droppings(&label, &[p.clone()]), "{at}: query(p)");

        let full = fetched_by(ada, || drop(ada.query("d", None).unwrap()));
        assert_eq!(
            full,
            droppings(&label, &[p.clone(), m.clone()]),
            "{at}: full"
        );

        let miss = fetched_by(ada, || {
            drop(ada.query_range("d", &p, 16..32, 1).unwrap());
        });
        assert_eq!(miss, droppings(&label, &[p.clone()]), "{at}: range miss");
    }
}

#[test]
fn a_cached_range_read_again_fetches_nothing() {
    let p = Tag::protein();
    for query_threads in [0, 4] {
        let rig = ingested(query_threads, CacheConfig::with_capacity(64 << 20));
        let ada = rig.ada();
        let label = ada.label("d").unwrap();
        let at = format!("query_threads {query_threads}");
        let read = || drop(ada.query_range("d", &p, 16..32, 1).unwrap());

        let miss = fetched_by(ada, read);
        assert_eq!(miss, droppings(&label, &[p.clone()]), "{at}: first read");
        let hit = fetched_by(ada, read);
        assert_eq!(hit, Fetched::new(), "{at}: repeat read");
        assert_eq!(ada.cache_stats().hits, 1, "{at}: the repeat is a hit");
    }
}
