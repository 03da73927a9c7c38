//! Satellite suite: N client threads issuing mixed ingest/query traffic
//! against ONE shared `Ada` through the admission front-end.
//!
//! What must hold (ISSUE 5 acceptance):
//! * no deadlock, no panic — every client thread joins;
//! * every request resolves to success or a *typed* rejection
//!   (`overloaded` / `deadline_exceeded`), never an untyped failure;
//! * accepted query outputs are byte-identical to a serial run of the
//!   same accepted set on a fresh, serially-driven instance;
//! * the front-end's accounting balances at quiescence.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use ada_core::{Ada, AdaConfig, AdaError, IngestInput, RetrievedData};
use ada_frontend::{Class, Frontend, FrontendConfig};
use ada_mdmodel::Tag;
use ada_plfs::ContainerSet;
use ada_simfs::{Content, FileStat, FsError, LocalFs, SimFileSystem, TimedRead};
use ada_storagesim::SimDuration;

fn make_ada() -> Arc<Ada> {
    let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
    let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
    let cs = Arc::new(ContainerSet::new(vec![
        ("ssd".into(), ssd.clone()),
        ("hdd".into(), hdd),
    ]));
    Arc::new(Ada::new(AdaConfig::paper_prototype("ssd", "hdd"), cs, ssd))
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

/// Canonical byte form of a query result, for the byte-identity check.
fn query_bytes(ada_result: ada_core::QueryReport) -> Vec<u8> {
    match ada_result.data {
        RetrievedData::Real(traj) => {
            ada_mdformats::xtc::write_xtc(&traj, ada_mdformats::xtc::DEFAULT_PRECISION).unwrap()
        }
        other => panic!("expected real data, got {:?}", other),
    }
}

fn tag_cycle(i: usize) -> Option<Tag> {
    match i % 3 {
        0 => Some(Tag::protein()),
        1 => Some(Tag::misc()),
        _ => None,
    }
}

/// Eight concurrent clients, mixed traffic, generous queues: everything
/// must succeed and match a serial rerun byte for byte.
#[test]
fn eight_mixed_clients_match_serial_byte_for_byte() {
    const CLIENTS: usize = 8;
    const QUERIES_PER_CLIENT: usize = 6;
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
    fe.ingest("setup", "shared", real_input(500, 3, 7)).unwrap();

    // (dataset, tag index, bytes) per accepted query, collected per thread.
    let mut harvested: Vec<(String, usize, Vec<u8>)> = Vec::new();
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..CLIENTS {
            let fe = &fe;
            let barrier = &barrier;
            handles.push(scope.spawn(move || {
                let client = format!("c{}", t);
                barrier.wait();
                let mut out = Vec::new();
                // Odd clients first ingest a private dataset, exercising
                // ingest/query interleaving on the shared instance.
                let dataset = if t % 2 == 1 {
                    let name = format!("ds{}", t);
                    fe.ingest(&client, &name, real_input(400, 2, 100 + t as u64))
                        .unwrap();
                    name
                } else {
                    "shared".to_string()
                };
                for i in 0..QUERIES_PER_CLIENT {
                    let tag = tag_cycle(i);
                    let q = fe.query(&client, &dataset, tag.as_ref()).unwrap();
                    out.push((dataset.clone(), i % 3, query_bytes(q)));
                }
                out
            }));
        }
        for h in handles {
            harvested.extend(h.join().expect("client thread must not panic"));
        }
    });

    // Accounting must balance now that every client returned.
    let s = fe.stats();
    assert!(s.is_quiescent(), "front-end not quiescent: {:?}", s);
    assert_eq!(s.ingest.counters.submitted, 1 + CLIENTS as u64 / 2);
    assert_eq!(
        s.query.counters.submitted,
        (CLIENTS * QUERIES_PER_CLIENT) as u64
    );
    assert_eq!(
        s.query.counters.rejected, 0,
        "queues were sized to admit all"
    );

    // Serial reference: a fresh instance, driven from one thread, same
    // accepted set. Every concurrent result must match byte-for-byte.
    let serial = make_ada();
    serial.ingest("shared", real_input(500, 3, 7)).unwrap();
    for t in (1..CLIENTS).step_by(2) {
        serial
            .ingest(&format!("ds{}", t), real_input(400, 2, 100 + t as u64))
            .unwrap();
    }
    for (dataset, tag_idx, bytes) in &harvested {
        let tag = tag_cycle(*tag_idx);
        let expect = query_bytes(serial.query(dataset, tag.as_ref()).unwrap());
        assert_eq!(
            &expect, bytes,
            "concurrent query of {} (tag {:?}) diverged from serial",
            dataset, tag
        );
    }
    assert_eq!(
        harvested.len(),
        CLIENTS * QUERIES_PER_CLIENT,
        "every accepted query must be harvested"
    );
}

/// A starved configuration (1 slot, 1 queue entry) under a thundering
/// herd: accepted requests succeed, the rest are shed with a typed
/// `Overloaded` carrying the queue depth and a usable retry hint.
#[test]
fn thundering_herd_sheds_typed_overloads() {
    const CLIENTS: usize = 8;
    // The race (all clients must overlap) is real but heavily stacked in
    // the test's favor: full-frame queries over this dataset take
    // milliseconds while the submit window after the barrier is
    // microseconds. Retry the scenario a few times to make the test
    // deterministic in practice on any scheduler.
    for attempt in 0..5 {
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
        let mut ok = 0u64;
        let mut overloaded = 0u64;
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
                match h.join().expect("client thread must not panic") {
                    Ok(_) => ok += 1,
                    Err(AdaError::Overloaded {
                        queue_depth,
                        retry_after,
                    }) => {
                        assert!(queue_depth >= 1);
                        assert!(retry_after > Duration::ZERO);
                        overloaded += 1;
                    }
                    Err(other) => panic!("untyped rejection: {:?}", other),
                }
            }
        });
        assert_eq!(ok + overloaded, CLIENTS as u64);
        assert!(ok >= 1, "at least one request must be served");
        let s = fe.stats();
        assert!(s.is_quiescent(), "front-end not quiescent: {:?}", s);
        assert_eq!(s.query.counters.rejected, overloaded);
        assert_eq!(s.query.counters.admitted, ok);
        if overloaded >= 1 {
            return; // contention observed and fully typed — done
        }
        eprintln!(
            "attempt {}: herd fully serialized ({} ok), retrying",
            attempt, ok
        );
    }
    panic!("8 clients through a 1-slot/1-deep queue never overlapped in 5 attempts");
}

/// Requests whose deadline expires while queued come back as typed
/// `DeadlineExceeded`, and the scheduler accounts them as expired.
#[test]
fn queued_deadline_misses_are_typed() {
    const CLIENTS: usize = 4;
    let fe = Frontend::new(
        make_ada(),
        FrontendConfig {
            ingest_slots: 1,
            query_slots: 1,
            ingest_queue: 8,
            query_queue: 8,
            default_deadline: None,
            ..FrontendConfig::default()
        },
    );
    fe.ingest("setup", "bar", real_input(400, 2, 3)).unwrap();

    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..CLIENTS {
            let fe = &fe;
            let barrier = &barrier;
            handles.push(scope.spawn(move || {
                barrier.wait();
                // 1 ns is always in the past by the time the queue drains.
                fe.run(
                    Class::Query,
                    "query",
                    &format!("c{}", t),
                    Some(Duration::from_nanos(1)),
                    |ada, ctx| ada.query_traced("bar", None, ctx),
                )
            }));
        }
        for h in handles {
            match h.join().expect("client thread must not panic") {
                Err(AdaError::DeadlineExceeded { waited, deadline }) => {
                    assert!(waited >= deadline);
                }
                other => panic!("expected a deadline miss, got {:?}", other),
            }
        }
    });
    let s = fe.stats();
    assert!(s.is_quiescent(), "front-end not quiescent: {:?}", s);
    assert_eq!(s.query.counters.expired, CLIENTS as u64);
    assert_eq!(s.query.counters.admitted, 0);
}

/// A file system whose reads panic while `poisoned` is set: a bug in a
/// layer below the front-end, on demand.
struct PanickyFs {
    inner: LocalFs,
    poisoned: AtomicBool,
}

impl PanickyFs {
    fn check(&self) {
        if self.poisoned.load(Ordering::SeqCst) {
            panic!("injected read fault");
        }
    }
}

impl SimFileSystem for PanickyFs {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn create(&self, path: &str, content: Content) -> Result<SimDuration, FsError> {
        self.inner.create(path, content)
    }
    fn append(&self, path: &str, content: Content) -> Result<SimDuration, FsError> {
        self.inner.append(path, content)
    }
    fn read(&self, path: &str) -> Result<TimedRead, FsError> {
        self.check();
        self.inner.read(path)
    }
    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<TimedRead, FsError> {
        self.check();
        self.inner.read_range(path, offset, len)
    }
    fn delete(&self, path: &str) -> Result<(), FsError> {
        self.inner.delete(path)
    }
    fn stat(&self, path: &str) -> Result<FileStat, FsError> {
        self.inner.stat(path)
    }
    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }
    fn used_bytes(&self) -> u64 {
        self.inner.used_bytes()
    }
}

/// A request that panics inside the middleware answers its caller with a
/// typed `Internal` error and gives its slot back: with one query slot,
/// the next query must still be served. A leaked slot shows as a hang, so
/// the scenario runs under its own watchdog.
#[test]
fn panicking_request_is_typed_and_releases_its_slot() {
    let (done_tx, done_rx) = sync_channel::<()>(1);
    let scenario = std::thread::spawn(move || {
        let ssd = Arc::new(PanickyFs {
            inner: LocalFs::ext4_on_nvme(),
            poisoned: AtomicBool::new(false),
        });
        let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
        let cs = Arc::new(ContainerSet::new(vec![
            ("ssd".into(), ssd.clone() as Arc<dyn SimFileSystem>),
            ("hdd".into(), hdd),
        ]));
        // Serial retrieval: the read, and so the panic, happen on the
        // thread that executes the request, not in a pool of `ada-core`.
        let config = AdaConfig {
            query_threads: 0,
            ..AdaConfig::paper_prototype("ssd", "hdd")
        };
        let fe = Frontend::new(
            Arc::new(Ada::new(config, cs, ssd.clone())),
            FrontendConfig {
                query_slots: 1,
                ..FrontendConfig::default()
            },
        );
        fe.ingest("setup", "bar", real_input(400, 2, 3)).unwrap();

        ssd.poisoned.store(true, Ordering::SeqCst);
        let err = fe.query("c0", "bar", Some(&Tag::protein())).unwrap_err();
        assert_eq!(err.kind(), "internal", "got {:?}", err);
        let text = err.to_string();
        assert!(
            text.contains("query") && text.contains("injected read fault"),
            "the error names the op and the panic: {}",
            text
        );
        let s = fe.stats();
        assert!(s.is_quiescent(), "the slot leaked: {:?}", s);

        ssd.poisoned.store(false, Ordering::SeqCst);
        fe.query("c1", "bar", Some(&Tag::protein())).unwrap();
        let s = fe.stats();
        assert!(s.is_quiescent(), "front-end not quiescent: {:?}", s);
        assert_eq!(s.query.counters.completed, 2);
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(Duration::from_secs(60)) {
        // Done, or failed an assertion and hung up: join reports which.
        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
            scenario.join().expect("scenario must not panic")
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("a query behind a panicked one never got the only slot")
        }
    }
}
