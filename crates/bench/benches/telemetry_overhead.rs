//! Telemetry overhead budget: the same instrumented split hot loop with
//! telemetry enabled vs `set_enabled(false)`.
//!
//! The loop is the serial splitter under a trace span that records
//! bytes/frames — exactly the shape `Ada::ingest` uses: the span is the
//! stage's one clock, and sealing its trace folds it into the flight
//! recorder's `span.*` family. With telemetry disabled every record site collapses
//! to a relaxed load + branch, so the enabled/disabled delta IS the
//! telemetry cost.
//!
//! A second group measures request *tracing* the same way: a full
//! ingest+query roundtrip through the `Ada` facade (which mints a trace
//! root in its stack's recorder and records a span tree per request) with
//! telemetry on vs `set_enabled(false)`, the one switch. Tracing must fit
//! the same <2 % budget.
//!
//! The <2 % regression assertions are off by default (Criterion
//! wall-clock noise on shared CI would flake them); opt in with
//! `ADA_TELEMETRY_OVERHEAD_ASSERT=1 cargo bench -p ada-bench --bench
//! telemetry_overhead`.

use ada_core::{categorize_algo1, split_trajectory, Ada, AdaConfig, IngestInput, Labeler};
use ada_mdformats::Trajectory;
use ada_mdmodel::category::Taxonomy;
use ada_mdmodel::Tag;
use ada_plfs::ContainerSet;
use ada_simfs::{LocalFs, SimFileSystem};
use ada_telemetry::trace::FlightRecorder;
use ada_workload::gpcr_workload;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::sync::Arc;
use std::time::Instant;

fn split_instrumented(traj: &Trajectory, labeler: &Labeler, rec: &FlightRecorder) -> u64 {
    let (ctx, _root) = rec.root("bench.request");
    let mut s = ctx.span("bench.split");
    let out = split_trajectory(traj, labeler).unwrap();
    s.arg("bytes", out.raw_bytes);
    s.arg("frames", traj.len());
    out.raw_bytes
}

/// Mean ns per instrumented split over `reps` runs.
fn measure(traj: &Trajectory, labeler: &Labeler, rec: &FlightRecorder, reps: u32) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        black_box(split_instrumented(traj, labeler, rec));
    }
    t.elapsed().as_nanos() as f64 / f64::from(reps)
}

fn bench_overhead(c: &mut Criterion) {
    let w = gpcr_workload(20_000, 6, 5);
    let labeler = categorize_algo1(&w.system, &Taxonomy::paper_default());
    let rec = FlightRecorder::new();

    let mut g = c.benchmark_group("telemetry_overhead");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    g.throughput(Throughput::Bytes(w.trajectory.nbytes() as u64));

    ada_telemetry::set_enabled(true);
    g.bench_function("split_telemetry_enabled", |b| {
        b.iter(|| split_instrumented(&w.trajectory, &labeler, &rec))
    });
    ada_telemetry::set_enabled(false);
    g.bench_function("split_telemetry_disabled", |b| {
        b.iter(|| split_instrumented(&w.trajectory, &labeler, &rec))
    });
    ada_telemetry::set_enabled(true);
    g.finish();

    if std::env::var("ADA_TELEMETRY_OVERHEAD_ASSERT").as_deref() == Ok("1") {
        // Interleave the two modes so drift hits both equally; warm up first.
        let (reps, rounds) = (8, 5);
        measure(&w.trajectory, &labeler, &rec, reps);
        let (mut on, mut off) = (0.0, 0.0);
        for _ in 0..rounds {
            ada_telemetry::set_enabled(true);
            on += measure(&w.trajectory, &labeler, &rec, reps);
            ada_telemetry::set_enabled(false);
            off += measure(&w.trajectory, &labeler, &rec, reps);
        }
        ada_telemetry::set_enabled(true);
        let overhead = on / off - 1.0;
        println!(
            "telemetry overhead on split loop: {:+.3}% (enabled {:.2} ms, disabled {:.2} ms)",
            overhead * 100.0,
            on / 1e6 / f64::from(rounds),
            off / 1e6 / f64::from(rounds),
        );
        assert!(
            overhead < 0.02,
            "telemetry overhead {:.3}% exceeds the 2% budget",
            overhead * 100.0
        );
    }
}

fn tracing_bench_ada() -> Ada {
    let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
    let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
    let containers = Arc::new(ContainerSet::new(vec![
        ("ssd".into(), ssd.clone()),
        ("hdd".into(), hdd),
    ]));
    Ada::new(AdaConfig::paper_prototype("ssd", "hdd"), containers, ssd)
}

/// One traced request pair: ingest a fresh dataset (unique name per rep
/// — ingest refuses to overwrite), query the protein tag, delete. Each
/// call mints a trace root and records its span tree when telemetry is on.
fn roundtrip(ada: &Ada, pdb_text: &str, xtc_bytes: &[u8], rep: u64) -> u64 {
    let dataset = format!("ovh{}", rep);
    ada.ingest(
        &dataset,
        IngestInput::Real {
            pdb_text: pdb_text.to_string(),
            xtc_bytes: xtc_bytes.to_vec(),
        },
    )
    .unwrap();
    let report = ada.query(&dataset, Some(&Tag::protein())).unwrap();
    ada.delete_dataset(&dataset).unwrap();
    report.data.bytes()
}

/// Mean ns per traced ingest+query roundtrip over `reps` runs.
fn measure_roundtrip(ada: &Ada, pdb: &str, xtc: &[u8], reps: u64, base: &mut u64) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        *base += 1;
        black_box(roundtrip(ada, pdb, xtc, *base));
    }
    t.elapsed().as_nanos() as f64 / reps as f64
}

fn bench_tracing_overhead(c: &mut Criterion) {
    let w = gpcr_workload(2_000, 20, 5);
    let pdb_text = ada_mdformats::write_pdb(&w.system);
    let xtc_bytes =
        ada_mdformats::xtc::write_xtc(&w.trajectory, ada_mdformats::xtc::DEFAULT_PRECISION)
            .unwrap();
    let ada = tracing_bench_ada();
    let mut rep = 0u64;

    let mut g = c.benchmark_group("tracing_overhead");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    g.throughput(Throughput::Bytes(w.trajectory.nbytes() as u64));

    ada_telemetry::set_enabled(true);
    g.bench_function("ingest_query_telemetry_enabled", |b| {
        b.iter(|| {
            rep += 1;
            roundtrip(&ada, &pdb_text, &xtc_bytes, rep)
        })
    });
    ada_telemetry::set_enabled(false);
    g.bench_function("ingest_query_telemetry_disabled", |b| {
        b.iter(|| {
            rep += 1;
            roundtrip(&ada, &pdb_text, &xtc_bytes, rep)
        })
    });
    ada_telemetry::set_enabled(true);
    g.finish();

    if std::env::var("ADA_TELEMETRY_OVERHEAD_ASSERT").as_deref() == Ok("1") {
        let (reps, rounds) = (4u64, 5u32);
        measure_roundtrip(&ada, &pdb_text, &xtc_bytes, reps, &mut rep);
        let (mut on, mut off) = (0.0, 0.0);
        for _ in 0..rounds {
            ada_telemetry::set_enabled(true);
            on += measure_roundtrip(&ada, &pdb_text, &xtc_bytes, reps, &mut rep);
            ada_telemetry::set_enabled(false);
            off += measure_roundtrip(&ada, &pdb_text, &xtc_bytes, reps, &mut rep);
        }
        ada_telemetry::set_enabled(true);
        let overhead = on / off - 1.0;
        println!(
            "tracing overhead on ingest+query roundtrip: {:+.3}% (enabled {:.2} ms, disabled {:.2} ms)",
            overhead * 100.0,
            on / 1e6 / f64::from(rounds),
            off / 1e6 / f64::from(rounds),
        );
        assert!(
            overhead < 0.02,
            "tracing overhead {:.3}% exceeds the 2% budget",
            overhead * 100.0
        );
    }
}

criterion_group!(benches, bench_overhead, bench_tracing_overhead);
criterion_main!(benches);
