//! Observability is side-effect-free: with telemetry switched off by
//! `ada_telemetry::set_enabled(false)`, the one switch, a stack answers
//! with the same bytes and only loses its traces.
//!
//! The switch is process-global, so this test has its binary to itself:
//! a trace test running beside it would see its roots go inert.

mod common;

use ada_core::{AdaConfig, RetrievedData};
use ada_frontend::FrontendConfig;
use ada_mdformats::{Frame, Trajectory};
use ada_mdmodel::Tag;
use common::Rig;

/// Both pools four wide, 4-frame chunks and a cache that admits on the
/// first read.
fn rig() -> Rig {
    Rig::new(AdaConfig {
        ingest_threads: 4,
        query_threads: 4,
        chunk_frames: 4,
        cache: ada_cache::CacheConfig::with_capacity(64 << 20),
        ..AdaConfig::paper_prototype("ssd", "hdd")
    })
}

fn trajectory(data: RetrievedData) -> Trajectory {
    match data {
        RetrievedData::Real(traj) => traj,
        other => panic!("expected real data, got {:?}", other),
    }
}

/// What one stack answers with telemetry `on` or off: a tag query's XTC
/// bytes, and a cold then a warm range read's frames through the
/// front-end, and how many traces its recorder sealed.
fn run(on: bool) -> (Vec<u8>, Vec<Vec<Frame>>, usize) {
    ada_telemetry::set_enabled(on);
    let rig = rig().with_frontend(FrontendConfig::default());
    let (fe, ada) = (rig.frontend(), rig.ada());
    ada.ingest(
        "d",
        common::input(&ada_workload::gpcr_workload(600, 12, 42)),
    )
    .unwrap();
    let report = ada.query("d", Some(&Tag::protein())).unwrap();
    let traj = trajectory(report.data);
    let xtc = ada_mdformats::xtc::write_xtc(&traj, ada_mdformats::xtc::DEFAULT_PRECISION).unwrap();
    let ranges = (0..2)
        .map(|_| {
            let r = fe
                .query_range("c0", "d", &Tag::protein(), 2..10, 2)
                .unwrap();
            trajectory(r.data).frames
        })
        .collect();
    let sealed = ada.flight_recorder().all().len();
    ada_telemetry::set_enabled(true);
    (xtc, ranges, sealed)
}

#[test]
fn tracing_toggle_leaves_query_bytes_identical() {
    let (xtc_on, ranges_on, sealed_on) = run(true);
    let (xtc_off, ranges_off, sealed_off) = run(false);
    assert_eq!(xtc_on, xtc_off, "tracing on/off changed query bytes");
    assert_eq!((sealed_on, sealed_off), (4, 0));
    for (on, off) in ranges_on.into_iter().zip(ranges_off) {
        assert_eq!(on.len(), 4);
        assert_eq!(on, off, "tracing on/off changed a range read");
    }
}
