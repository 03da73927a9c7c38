//! Satellite suite: the decoded-dropping cache under the ML-sampling
//! workload (ISSUE 6 acceptance).
//!
//! What must hold:
//! * **byte identity** — every `query_range` answer with the cache on is
//!   byte-for-byte the answer a cache-off instance gives, across whole
//!   shuffled epochs and under concurrency;
//! * **the perf claim** — with a budget covering the hot set, steady-state
//!   epochs (2nd onward) decode at least 5x fewer bytes than cache-off.

mod common;

use std::sync::{Arc, Barrier};

use ada_cache::CacheConfig;
use ada_core::{Ada, AdaConfig, QueryReport, RetrievedData};
use ada_frontend::FrontendConfig;
use ada_mdmodel::Tag;
use ada_workload::{gpcr_workload, shuffled_epochs, SamplingConfig};
use common::{input, Rig};

/// Hybrid SSD/HDD rig with small chunks (so ranges span several) and the
/// given cache config.
fn rig(chunk_frames: usize, cache: CacheConfig) -> Rig {
    Rig::new(AdaConfig {
        chunk_frames,
        cache,
        ..AdaConfig::paper_prototype("ssd", "hdd")
    })
}

fn make_ada(chunk_frames: usize, cache: CacheConfig) -> Arc<Ada> {
    Arc::clone(rig(chunk_frames, cache).ada())
}

fn hot_cache() -> CacheConfig {
    CacheConfig::with_capacity(64 << 20)
}

fn cache_off() -> CacheConfig {
    CacheConfig {
        capacity_bytes: 0,
        ..CacheConfig::default()
    }
}

/// Canonical byte form of a query result, for byte-identity checks.
fn query_bytes(report: QueryReport) -> Vec<u8> {
    match report.data {
        RetrievedData::Real(traj) => {
            ada_mdformats::xtc::write_xtc(&traj, ada_mdformats::xtc::DEFAULT_PRECISION).unwrap()
        }
        other => panic!("expected real data, got {:?}", other),
    }
}

fn schedule() -> Vec<Vec<ada_workload::Sample>> {
    shuffled_epochs(&SamplingConfig {
        nframes: 96,
        window: 8,
        stride: 2,
        epochs: 3,
        tags: vec!["p".to_string(), "m".to_string()],
        seed: 0xC0FFEE,
    })
}

/// Whole shuffled epochs through a cached instance give byte-identical
/// answers to a cache-off instance, and the cache genuinely engages.
#[test]
fn shuffled_epochs_are_byte_identical_cache_on_vs_off() {
    let cached = make_ada(16, hot_cache());
    let plain = make_ada(16, cache_off());
    cached
        .ingest("ds", input(&gpcr_workload(600, 96, 21)))
        .unwrap();
    plain
        .ingest("ds", input(&gpcr_workload(600, 96, 21)))
        .unwrap();

    for epoch in &schedule() {
        for s in epoch {
            let tag = Tag::new(s.tag.clone());
            let hot = query_bytes(
                cached
                    .query_range("ds", &tag, s.start..s.end, s.stride)
                    .unwrap(),
            );
            let cold = query_bytes(
                plain
                    .query_range("ds", &tag, s.start..s.end, s.stride)
                    .unwrap(),
            );
            assert_eq!(
                hot, cold,
                "cached result diverged for tag {} window {}..{} stride {}",
                s.tag, s.start, s.end, s.stride
            );
        }
    }
    let stats = cached.cache_stats();
    assert!(stats.hits > 0, "cache never engaged: {:?}", stats);
    assert_eq!(plain.cache_stats().hits, 0);
}

/// A full-window stride-1 `query_range` delivers exactly the frames of
/// the plain tagged `query`, cache on or off.
#[test]
fn full_window_range_read_equals_tagged_query() {
    let ada = make_ada(16, hot_cache());
    ada.ingest("ds", input(&gpcr_workload(500, 48, 3))).unwrap();
    let tag = Tag::protein();
    let whole = query_bytes(ada.query("ds", Some(&tag)).unwrap());
    // Twice: a cold pass (misses populate) and a warm pass (all hits).
    for pass in 0..2 {
        let ranged = query_bytes(ada.query_range("ds", &tag, 0..48, 1).unwrap());
        assert_eq!(ranged, whole, "pass {} diverged", pass);
    }
    assert!(ada.cache_stats().hits > 0);
}

/// The headline perf claim, asserted: once the hot set is resident,
/// steady-state epochs decode >= 5x fewer bytes than cache-off.
#[test]
fn steady_state_epochs_decode_five_times_less() {
    let run = |cache: CacheConfig| -> Vec<u64> {
        let ada = make_ada(16, cache);
        ada.ingest("ds", input(&gpcr_workload(600, 96, 21)))
            .unwrap();
        let mut per_epoch = Vec::new();
        let mut before = ada.cache_stats().bytes_decoded;
        for epoch in &schedule() {
            for s in epoch {
                let tag = Tag::new(s.tag.clone());
                ada.query_range("ds", &tag, s.start..s.end, s.stride)
                    .unwrap();
            }
            let now = ada.cache_stats().bytes_decoded;
            per_epoch.push(now - before);
            before = now;
        }
        per_epoch
    };

    let off = run(cache_off());
    let on = run(hot_cache());
    let off_steady: u64 = off.iter().skip(1).sum();
    let on_steady: u64 = on.iter().skip(1).sum();
    assert!(off_steady > 0, "cache-off run decoded nothing: {:?}", off);
    assert!(
        off_steady >= 5 * on_steady.max(1) || on_steady == 0,
        "steady-state reduction below 5x: off {:?} vs on {:?}",
        off,
        on
    );
    // First epoch pays the decode either way; the budget covers the hot
    // set, so later epochs must be (near-)free.
    assert!(
        on_steady * 5 <= on[0].max(1) * 2,
        "hot-set epochs still decoding heavily: {:?}",
        on
    );
}

/// Eight concurrent clients mixing whole-tag `query` and strided
/// `query_range` through the front-end over ONE shared cached instance:
/// every answer must match a cache-off serial rerun byte for byte.
#[test]
fn concurrent_mixed_reads_match_cache_off_serial_rerun() {
    const CLIENTS: usize = 8;
    const READS_PER_CLIENT: usize = 6;

    // (client, read index) -> deterministic request shape, shared by the
    // concurrent run and the serial reference.
    #[derive(Clone, Copy)]
    enum Read {
        Whole,
        Range {
            start: usize,
            end: usize,
            stride: usize,
        },
    }
    let plan = |t: usize, i: usize| -> (Tag, Read) {
        let tag = if (t + i) % 2 == 0 {
            Tag::protein()
        } else {
            Tag::misc()
        };
        let read = if i % 3 == 0 {
            Read::Whole
        } else {
            let start = ((t * 7 + i * 11) % 40) & !1;
            Read::Range {
                start,
                end: start + 8,
                stride: 1 + i % 2,
            }
        };
        (tag, read)
    };
    let issue = |via_query: &dyn Fn(&Tag) -> QueryReport,
                 via_range: &dyn Fn(&Tag, usize, usize, usize) -> QueryReport,
                 t: usize,
                 i: usize|
     -> Vec<u8> {
        let (tag, read) = plan(t, i);
        match read {
            Read::Whole => query_bytes(via_query(&tag)),
            Read::Range { start, end, stride } => query_bytes(via_range(&tag, start, end, stride)),
        }
    };

    let rig = rig(16, hot_cache()).with_frontend(FrontendConfig {
        query_slots: 4,
        query_queue: 64,
        ..FrontendConfig::default()
    });
    let (cached, fe) = (rig.ada(), rig.frontend());
    cached
        .ingest("ds", input(&gpcr_workload(600, 48, 9)))
        .unwrap();

    let mut harvested: Vec<(usize, usize, Vec<u8>)> = Vec::new();
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..CLIENTS {
            let fe = &fe;
            let barrier = &barrier;
            let issue = &issue;
            handles.push(scope.spawn(move || {
                let client = format!("c{}", t);
                barrier.wait();
                (0..READS_PER_CLIENT)
                    .map(|i| {
                        let bytes = issue(
                            &|tag| fe.query(&client, "ds", Some(tag)).unwrap(),
                            &|tag, s, e, k| fe.query_range(&client, "ds", tag, s..e, k).unwrap(),
                            t,
                            i,
                        );
                        (t, i, bytes)
                    })
                    .collect::<Vec<_>>()
            }));
        }
        for h in handles {
            harvested.extend(h.join().expect("client thread must not panic"));
        }
    });
    assert_eq!(harvested.len(), CLIENTS * READS_PER_CLIENT);
    assert!(fe.stats().is_quiescent());
    assert!(
        cached.cache_stats().hits > 0,
        "the mixed workload never hit the cache"
    );

    // Serial cache-off reference.
    let plain = make_ada(16, cache_off());
    plain
        .ingest("ds", input(&gpcr_workload(600, 48, 9)))
        .unwrap();
    for (t, i, bytes) in &harvested {
        let expect = issue(
            &|tag| plain.query("ds", Some(tag)).unwrap(),
            &|tag, s, e, k| plain.query_range("ds", tag, s..e, k).unwrap(),
            *t,
            *i,
        );
        assert_eq!(
            &expect, bytes,
            "client {} read {} diverged from the cache-off serial rerun",
            t, i
        );
    }
}
