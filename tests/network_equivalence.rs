//! Satellite suite (ISSUE 10): the networked path is semantically
//! transparent.
//!
//! What must hold:
//! * eight mixed ingest/query/query_range clients over real TCP get
//!   frames bit-identical (`f32::to_bits` on step, time, box and every
//!   coordinate) to a serial rerun of the same accepted set on a fresh,
//!   in-process instance — whole-tag, full-frame and strided-range alike
//!   (queries cross the wire as uncompressed XTCF v2 chunks, so nothing
//!   is re-quantized on the way);
//! * answers of every chunk shape survive: a single frame, a frame count
//!   that is not a multiple of the wire chunk size, and an empty window
//!   (the same typed `invalid_range` on both paths);
//! * an answer is a stream of chunk frames, so one larger than
//!   `max_frame_len` arrives whole (whole-tag, full-frame, strided), and a
//!   whole tag is forwarded as stored: ragged chunks where droppings meet
//!   survive, the report's simulated durations and the server's tag heat
//!   are the in-process ones, and the server decodes nothing — while what
//!   cannot be forwarded (a v1 dropping, a size-only dataset) still
//!   answers, decoded;
//! * remote errors keep their exact `kind()` — `unknown_dataset` and
//!   `invalid_range` cross the wire as themselves, not as a generic
//!   network failure;
//! * a traced remote request seals ONE connected tree under the
//!   client's trace id: the server's spans are rooted from the
//!   wire-carried id instead of minting a disconnected root, recorded on
//!   the connection's own thread from root to `ada.{op}`, and the root
//!   names `op` (the one that ran) and `client` once;
//! * a two-server fleet behind `Router` stores every dataset on exactly
//!   the shard `Router::shard_for` names, and routed answers are the
//!   in-process ones;
//! * a herd against a starved server is shed as typed `overloaded`
//!   errors whose `retry_after` survives the wire, and the server's
//!   `rejected` counter agrees with what the clients saw.

use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::Duration;

use ada_client::{Client, ClientConfig, Router};
use ada_core::synth::SyntheticDataset;
use ada_core::tiering::heat_snapshot;
use ada_core::{Ada, AdaConfig, AdaError, IngestInput, RetrievedData};
use ada_frontend::{Frontend, FrontendConfig};
use ada_mdformats::xtcf::{parse_directory, read_xtcf, write_xtcf};
use ada_mdformats::Trajectory;
use ada_mdmodel::Tag;
use ada_plfs::ContainerSet;
use ada_proto::{WirePayload, WireQueryReport};
use ada_server::{Server, ServerConfig};
use ada_simfs::{Content, LocalFs, SimFileSystem};
use ada_telemetry::trace;

static GUARD: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

fn make_ada() -> Arc<Ada> {
    make_ada_with(AdaConfig::paper_prototype("ssd", "hdd")).0
}

/// An instance and its SSD backend (where tag `p` lives).
fn make_ada_with(config: AdaConfig) -> (Arc<Ada>, Arc<dyn SimFileSystem>) {
    let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
    let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
    let cs = Arc::new(ContainerSet::new(vec![
        ("ssd".into(), ssd.clone()),
        ("hdd".into(), hdd),
    ]));
    (Arc::new(Ada::new(config, cs, ssd.clone())), ssd)
}

/// A server over `ada` whose frontend the test keeps, to ingest without a
/// request frame and to read the instance's state afterwards.
fn serve(ada: Arc<Ada>, config: ServerConfig) -> (Server, Arc<Frontend>) {
    let fe = Arc::new(Frontend::new(ada, FrontendConfig::default()));
    let server = Server::start(Arc::clone(&fe), config).expect("server must start");
    (server, fe)
}

fn start_server() -> Server {
    let fe = Arc::new(Frontend::new(
        make_ada(),
        FrontendConfig {
            ingest_slots: 2,
            query_slots: 4,
            ingest_queue: 64,
            query_queue: 64,
            default_deadline: None,
            ..FrontendConfig::default()
        },
    ));
    Server::start(fe, ServerConfig::default()).expect("server must start")
}

fn client_for(server: &Server, name: &str) -> Client {
    Client::new(
        server.local_addr().to_string(),
        ClientConfig {
            name: name.to_string(),
            ..ClientConfig::default()
        },
    )
}

/// `(pdb_text, xtc_bytes)` of a deterministic workload.
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

/// One frame as raw bits: step, time, box, every coordinate. Comparing
/// these is `f32::to_bits` identity — it tells `-0.0` from `0.0` and one
/// NaN from another, which `==` on floats would not.
type FrameBits = (i32, u32, Vec<u32>, Vec<[u32; 3]>);

fn frame_bits(traj: &Trajectory) -> Vec<FrameBits> {
    traj.frames
        .iter()
        .map(|f| {
            (
                f.step,
                f.time.to_bits(),
                f.pbc.m.iter().flatten().map(|v| v.to_bits()).collect(),
                f.coords.iter().map(|c| c.map(f32::to_bits)).collect(),
            )
        })
        .collect()
}

/// The frames of an in-process query result.
fn query_bits(rep: ada_core::QueryReport) -> Vec<FrameBits> {
    match rep.data {
        RetrievedData::Real(traj) => frame_bits(&traj),
        other => panic!("expected real data, got {:?}", other),
    }
}

/// The frames a remote query delivers, decoded (and CRC-verified chunk by
/// chunk) from its wire payload.
fn wire_bits(rep: WireQueryReport) -> Vec<FrameBits> {
    frame_bits(&rep.trajectory().expect("remote payload must decode"))
}

fn tag_cycle(i: usize) -> Option<Tag> {
    match i % 3 {
        0 => Some(Tag::protein()),
        1 => Some(Tag::misc()),
        _ => None,
    }
}

/// One client's operation log entry, replayable against a serial
/// in-process reference.
enum Op {
    Query {
        dataset: String,
        tag_idx: usize,
        frames: Vec<FrameBits>,
    },
    QueryRange {
        dataset: String,
        start: usize,
        end: usize,
        stride: usize,
        frames: Vec<FrameBits>,
    },
}

/// Eight mixed clients over real TCP; every harvested answer must match
/// a serial in-process rerun bit for bit (the test keeps its PR 10 name;
/// the identity it checks is now per `f32`, not per XTC byte).
#[test]
fn eight_tcp_clients_match_in_process_serial_byte_for_byte() {
    let _guard = serialize();
    const CLIENTS: usize = 8;
    const QUERIES_PER_CLIENT: usize = 4;
    let mut server = start_server();

    // Shared dataset every client can read.
    let (pdb, xtc) = real_bytes(500, 6, 7);
    client_for(&server, "setup")
        .ingest("shared", &pdb, &xtc)
        .unwrap();

    let barrier = Barrier::new(CLIENTS);
    let mut harvested: Vec<Op> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..CLIENTS {
            let server = &server;
            let barrier = &barrier;
            handles.push(scope.spawn(move || {
                let client = client_for(server, &format!("c{}", t));
                barrier.wait();
                let mut out = Vec::new();
                // Odd clients first ingest a private dataset, exercising
                // ingest/query interleaving over the wire.
                let dataset = if t % 2 == 1 {
                    let name = format!("ds{}", t);
                    let (pdb, xtc) = real_bytes(400, 4, 100 + t as u64);
                    client.ingest(&name, &pdb, &xtc).unwrap();
                    name
                } else {
                    "shared".to_string()
                };
                for i in 0..QUERIES_PER_CLIENT {
                    if i == QUERIES_PER_CLIENT - 1 {
                        // Last op: a strided range read of the protein tag.
                        let rep = client.query_range(&dataset, "p", 0, 4, 2).unwrap();
                        out.push(Op::QueryRange {
                            dataset: dataset.clone(),
                            start: 0,
                            end: 4,
                            stride: 2,
                            frames: wire_bits(rep),
                        });
                    } else {
                        let tag = tag_cycle(i);
                        let rep = client
                            .query(&dataset, tag.as_ref().map(|t| t.as_str()))
                            .unwrap();
                        out.push(Op::Query {
                            dataset: dataset.clone(),
                            tag_idx: i % 3,
                            frames: wire_bits(rep),
                        });
                    }
                }
                out
            }));
        }
        for h in handles {
            harvested.extend(h.join().expect("client thread must not panic"));
        }
    });
    server.shutdown();
    assert_eq!(harvested.len(), CLIENTS * QUERIES_PER_CLIENT);

    // Serial reference: a fresh in-process instance, one thread.
    let serial = make_ada();
    serial.ingest("shared", real_input(500, 6, 7)).unwrap();
    for t in (1..CLIENTS).step_by(2) {
        serial
            .ingest(&format!("ds{}", t), real_input(400, 4, 100 + t as u64))
            .unwrap();
    }
    for op in &harvested {
        match op {
            Op::Query {
                dataset,
                tag_idx,
                frames,
            } => {
                let tag = tag_cycle(*tag_idx);
                let expect = query_bits(serial.query(dataset, tag.as_ref()).unwrap());
                assert_eq!(
                    &expect, frames,
                    "remote query of {} (tag {:?}) diverged from in-process serial",
                    dataset, tag
                );
            }
            Op::QueryRange {
                dataset,
                start,
                end,
                stride,
                frames,
            } => {
                let expect = query_bits(
                    serial
                        .query_range(dataset, &Tag::protein(), *start..*end, *stride)
                        .unwrap(),
                );
                assert_eq!(
                    &expect, frames,
                    "remote range query of {} diverged from in-process serial",
                    dataset
                );
            }
        }
    }
}

/// Answers whose frame count is one, or not a multiple of the wire chunk
/// size, round-trip bit-identically; an empty window is the same typed
/// error on both paths.
#[test]
fn ragged_single_frame_and_empty_windows_round_trip() {
    let _guard = serialize();
    let nframes = ada_proto::QUERY_CHUNK_FRAMES + 6;
    let mut server = start_server();
    let client = client_for(&server, "ragged");
    let (pdb, xtc) = real_bytes(300, nframes, 77);
    client.ingest("ds", &pdb, &xtc).unwrap();
    let serial = make_ada();
    serial.ingest("ds", real_input(300, nframes, 77)).unwrap();
    let p = Tag::protein();

    // Whole tag: one full chunk plus a six-frame tail.
    let local = match serial.query("ds", Some(&p)).unwrap().data {
        RetrievedData::Real(traj) => traj,
        other => panic!("expected real data, got {:?}", other),
    };
    let remote = client.query("ds", Some("p")).unwrap();
    assert_eq!(
        remote.bytes(),
        (nframes * ada_mdformats::xtcf::frame_record_len(local.natoms())) as u64,
        "bytes() must report the decoded volume"
    );
    assert_eq!(local.len(), nframes);
    assert_eq!(wire_bits(remote), frame_bits(&local));

    // Strided range crossing the chunk boundary, ragged on both ends.
    let (start, end, stride) = (3, nframes - 1, 5);
    let remote = wire_bits(
        client
            .query_range("ds", "p", start as u64, end as u64, stride as u64)
            .unwrap(),
    );
    let local = query_bits(serial.query_range("ds", &p, start..end, stride).unwrap());
    assert_eq!(remote.len(), (end - start).div_ceil(stride));
    assert_eq!(remote, local);

    // A single frame, the last one.
    let last = nframes - 1;
    let remote = wire_bits(
        client
            .query_range("ds", "p", last as u64, nframes as u64, 1)
            .unwrap(),
    );
    assert_eq!(remote.len(), 1);
    assert_eq!(
        remote,
        query_bits(serial.query_range("ds", &p, last..nframes, 1).unwrap())
    );

    // An empty window delivers no payload at all: the same typed error.
    let remote = client.query_range("ds", "p", 4, 4, 1).unwrap_err();
    let local = serial.query_range("ds", &p, 4..4, 1).unwrap_err();
    assert_eq!(remote.kind(), "invalid_range");
    assert_eq!(remote.to_string(), local.to_string());

    server.shutdown();
}

/// An answer is as many frames as it has chunks, so `max_frame_len` — here
/// 256 KiB on both ends — bounds a frame and not an answer: whole-tag
/// (forwarded), full-frame and strided (sealed, then streamed) answers of
/// several times that come back bit-identical. At the parent commit each
/// was one frame, and `Oversized`.
#[test]
fn answers_larger_than_max_frame_len_arrive_whole() {
    let _guard = serialize();
    const MAX_FRAME: u32 = 256 << 10;
    let nframes = 900;
    let config = ServerConfig {
        max_frame_len: MAX_FRAME,
        ..ServerConfig::default()
    };
    let (mut server, fe) = serve(make_ada(), config);
    // In process: the `.xtc` alone would not fit a request frame.
    fe.ingest("setup", "ds", real_input(250, nframes, 91))
        .unwrap();
    let serial = make_ada();
    serial.ingest("ds", real_input(250, nframes, 91)).unwrap();
    let client = Client::new(
        server.local_addr().to_string(),
        ClientConfig {
            max_frame_len: MAX_FRAME,
            ..ClientConfig::default()
        },
    );
    let p = Tag::protein();

    let oversize = |rep: WireQueryReport| {
        assert!(
            rep.bytes() > u64::from(MAX_FRAME),
            "the case needs an answer above the frame limit, got {} B",
            rep.bytes()
        );
        wire_bits(rep)
    };
    assert_eq!(
        oversize(client.query("ds", Some("p")).unwrap()),
        query_bits(serial.query("ds", Some(&p)).unwrap())
    );
    assert_eq!(
        oversize(client.query("ds", None).unwrap()),
        query_bits(serial.query("ds", None).unwrap())
    );
    assert_eq!(
        oversize(client.query_range("ds", "p", 1, nframes as u64, 2).unwrap()),
        query_bits(serial.query_range("ds", &p, 1..nframes, 2).unwrap())
    );
    server.shutdown();
}

/// A tag spread over droppings whose length is not a multiple of the chunk
/// size has short chunks in the middle of its answer. Forwarded, they
/// arrive as stored — and the rest of the report is the in-process one:
/// the simulated durations, and the heat the query left behind.
#[test]
fn forwarded_multi_dropping_answer_keeps_ragged_chunks_durations_and_heat() {
    let _guard = serialize();
    let config = || AdaConfig {
        frames_per_dropping: 20,
        chunk_frames: 8,
        ..AdaConfig::paper_prototype("ssd", "hdd")
    };
    let (mut server, fe) = serve(make_ada_with(config()).0, ServerConfig::default());
    let (serial, _) = make_ada_with(config());
    let client = client_for(&server, "ragged-stored");
    let (pdb, xtc) = real_bytes(400, 50, 63);
    client.ingest("ds", &pdb, &xtc).unwrap();
    serial.ingest("ds", real_input(400, 50, 63)).unwrap();
    let p = Tag::protein();

    for _ in 0..2 {
        let remote = client.query("ds", Some("p")).unwrap();
        let local = serial.query("ds", Some(&p)).unwrap();
        assert_eq!(remote.indexer_ns, local.indexer.0);
        assert_eq!(remote.read_ns, local.read.0);
        let WirePayload::Xtcf(container) = &remote.payload else {
            panic!("a real answer is an XTCF container");
        };
        let dir = parse_directory(container).unwrap().unwrap();
        // Droppings of 20, 20 and 10 frames in chunks of 8.
        assert_eq!(dir.chunk_nframes(), [8, 8, 4, 8, 8, 4, 8, 2]);
        assert_eq!(dir.chunk_frames, 8);
        assert_eq!(wire_bits(remote), query_bits(local));
    }
    // The other tag, and a ranged read: one forwarded, one not.
    client.query("ds", Some("m")).unwrap();
    serial.query("ds", Some(&Tag::misc())).unwrap();
    client.query_range("ds", "p", 5, 45, 3).unwrap();
    serial.query_range("ds", &p, 5..45, 3).unwrap();
    assert_eq!(heat_snapshot(fe.ada(), "ds"), heat_snapshot(&serial, "ds"));
    assert_eq!(heat_snapshot(&serial, "ds").heat(&p), 3);
    server.shutdown();
}

/// What is not stored as checksummed chunks cannot be forwarded and is
/// answered the old way, decoded and sealed: a tag with a v1 dropping
/// among its droppings (no directory), and a size-only dataset.
#[test]
fn v1_droppings_and_size_only_datasets_answer_through_the_decoded_path() {
    let _guard = serialize();
    let (ada, ssd) = make_ada_with(AdaConfig::paper_prototype("ssd", "hdd"));
    let (mut server, fe) = serve(ada, ServerConfig::default());
    let client = client_for(&server, "fallback");
    let (pdb, xtc) = real_bytes(300, 6, 71);
    client.ingest("old", &pdb, &xtc).unwrap();

    // Re-encode the protein dropping as the v1 file it would have been.
    let path = ssd
        .list("ssd/old/hostdir.0/")
        .into_iter()
        .find(|p| p.contains("dropping.data.p"))
        .expect("protein dropping exists");
    let (content, _) = ssd.read(&path).unwrap();
    let frames = read_xtcf(content.as_real().expect("real dropping")).unwrap();
    let v1 = write_xtcf(&frames).unwrap();
    assert!(parse_directory(&v1).unwrap().is_none(), "a genuine v1 file");
    ssd.delete(&path).unwrap();
    ssd.create(&path, Content::real(v1)).unwrap();

    let decoded_before = fe.ada().cache_stats().bytes_decoded;
    let remote = client.query("old", Some("p")).unwrap();
    assert_eq!(
        fe.ada().cache_stats().bytes_decoded - decoded_before,
        frames.nbytes() as u64,
        "a v1 dropping is decoded on the server"
    );
    assert_eq!(wire_bits(remote), frame_bits(&frames));

    let spec = SyntheticDataset::gpcr_paper(626);
    fe.ingest("setup", "big", IngestInput::Synthetic(spec))
        .unwrap();
    let remote = client.query("big", Some("p")).unwrap();
    let local = fe.ada().query("big", Some(&Tag::protein())).unwrap();
    assert!(matches!(remote.payload, WirePayload::Synthetic { .. }));
    assert_eq!(remote.bytes(), local.data.bytes());
    assert_eq!(
        (remote.indexer_ns, remote.read_ns),
        (local.indexer.0, local.read.0)
    );
    server.shutdown();
}

/// Remote failures keep their exact kind: the wire carries the full
/// `AdaError` structure, not a lossy "remote error" wrapper.
#[test]
fn remote_error_kinds_match_in_process() {
    let _guard = serialize();
    let mut server = start_server();
    let client = client_for(&server, "errs");
    let (pdb, xtc) = real_bytes(300, 3, 21);
    client.ingest("ds", &pdb, &xtc).unwrap();

    // unknown dataset
    let remote = client.query("no-such-dataset", None).unwrap_err();
    assert_eq!(remote.kind(), "unknown_dataset");

    // invalid range (frames beyond the trajectory)
    let remote = client.query_range("ds", "p", 0, 5000, 1).unwrap_err();
    assert_eq!(remote.kind(), "invalid_range");

    // unknown tag
    let remote = client.query("ds", Some("zz")).unwrap_err();
    assert_eq!(remote.kind(), "unknown_tag");

    // In-process reference: identical kinds AND identical Display text.
    let serial = make_ada();
    serial.ingest("ds", real_input(300, 3, 21)).unwrap();
    let local = serial.query("no-such-dataset", None).unwrap_err();
    let remote = client.query("no-such-dataset", None).unwrap_err();
    assert_eq!(local.kind(), remote.kind());
    assert_eq!(local.to_string(), remote.to_string());
    let local = serial
        .query_range("ds", &Tag::protein(), 0..5000, 1)
        .unwrap_err();
    let remote = client.query_range("ds", "p", 0, 5000, 1).unwrap_err();
    assert_eq!(local.kind(), remote.kind());
    assert_eq!(local.to_string(), remote.to_string());

    server.shutdown();
}

/// Ingest reports survive the wire: simulated stage durations and the
/// stored-volume accounting match an identical in-process ingest.
#[test]
fn remote_ingest_report_matches_in_process() {
    let _guard = serialize();
    let mut server = start_server();
    let client = client_for(&server, "rep");
    let (pdb, xtc) = real_bytes(350, 4, 33);
    let wire = client.ingest("ds", &pdb, &xtc).unwrap();
    server.shutdown();

    let serial = make_ada();
    let local = serial.ingest("ds", real_input(350, 4, 33)).unwrap();
    let rebuilt = wire.into_report();
    assert_eq!(rebuilt.dataset, local.dataset);
    assert_eq!(rebuilt.raw_bytes, local.raw_bytes);
    assert_eq!(rebuilt.bytes_by_tag, local.bytes_by_tag);
    assert_eq!(rebuilt.total(), local.total());
}

/// A traced remote request produces ONE server-side tree sealed under
/// the client's trace id — the wire carries the id, `root_remote` adopts
/// it, and the frontend's spans nest under that root. The whole tree down
/// to the middleware's facade span is recorded on the connection's own
/// thread, and its root names the op that actually ran, once.
#[test]
fn server_trace_tree_adopts_the_wire_trace_id() {
    let _guard = serialize();
    trace::set_tracing(true);
    trace::recorder().clear();

    let mut server = start_server();
    let client = client_for(&server, "traced");
    let (pdb, xtc) = real_bytes(300, 3, 55);
    client.ingest("ds", &pdb, &xtc).unwrap();
    client.ingest("ds-again", &pdb, &xtc).unwrap();
    client.query("ds", Some("p")).unwrap();
    server.shutdown();

    let traces = trace::recorder().recent();
    let client_roots: Vec<_> = traces
        .iter()
        .filter(|t| {
            t.root()
                .map(|r| r.name == "client.request")
                .unwrap_or(false)
        })
        .collect();
    let server_roots: Vec<_> = traces
        .iter()
        .filter(|t| {
            t.root()
                .map(|r| r.name == "server.request")
                .unwrap_or(false)
        })
        .collect();
    assert_eq!(client_roots.len(), 3, "one client tree per request");
    assert_eq!(server_roots.len(), 3, "one server tree per request");
    let mut ops = Vec::new();
    for st in &server_roots {
        assert!(
            client_roots.iter().any(|ct| ct.id == st.id),
            "server tree {:x} does not share its id with any client tree",
            st.id
        );
        let root = st.root().unwrap();
        let mut keys: Vec<_> = root.args.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        assert_eq!(keys, ["client", "op"], "root args of tree {:x}", st.id);
        let Some(trace::ArgValue::Str(op)) = root.arg("op") else {
            panic!("op of tree {:x} is not text: {:?}", st.id, root.arg("op"));
        };
        ops.push(op.as_str());

        // The frontend's spans sealed under the adopted root, and the
        // thread that read the request waited for its slot, held it and
        // ran the middleware: a remote request never leaves its
        // connection's thread either.
        assert!(
            root.thread.starts_with("ada-server-conn-"),
            "root of tree {:x} was recorded on thread {:?}",
            st.id,
            root.thread
        );
        let facade = format!("ada.{}", op);
        let find = |name: &str| {
            let span = st.spans.iter().find(|s| s.name == name);
            span.unwrap_or_else(|| panic!("server tree {:x} has no {} span", st.id, name))
        };
        for name in [
            "frontend.queue_wait",
            "frontend.execute",
            facade.as_str(),
            "server.send",
        ] {
            assert_eq!(
                find(name).thread,
                root.thread,
                "{} left the connection",
                name
            );
        }

        // The root stays open across the write: the send is its child and
        // says what left. The tag query was forwarded as stored — chunk
        // frames on the wire, and no decode anywhere in the server's tree.
        let send = find("server.send");
        assert_eq!(send.parent, Some(root.id));
        assert!(send.end_ns <= root.end_ns);
        assert!(send.arg_u64("bytes").unwrap() > 0);
        let forwarded = send.arg("forwarded");
        if op == "query" {
            assert_eq!(forwarded, Some(&trace::ArgValue::Str("true".into())));
            assert_eq!(send.arg_u64("chunks"), Some(1));
            assert!(st.spans.iter().all(|s| s.name != "query.decode"));
            assert!(send.start_ns >= find("frontend.execute").end_ns);
        } else {
            assert_eq!(forwarded, Some(&trace::ArgValue::Str("false".into())));
            assert_eq!(send.arg_u64("chunks"), Some(0));
        }
    }
    ops.sort_unstable();
    assert_eq!(ops, ["ingest", "ingest", "query"]);
    trace::set_tracing(false);
}

/// Two servers, each over its own instance, behind one `Router`: every
/// dataset lives on its ring owner and nowhere else, and what the router
/// returns is what an in-process instance returns.
#[test]
fn router_places_each_dataset_on_its_ring_shard() {
    let _guard = serialize();
    const DATASETS: usize = 8;
    let mut servers = [start_server(), start_server()];
    let addrs = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let router = Router::new(addrs, ClientConfig::default());
    assert_eq!(router.shards(), 2);

    let serial = make_ada();
    let p = Tag::protein();
    let mut owned = [0usize; 2];
    for d in 0..DATASETS {
        let name = format!("ds{}", d);
        let (pdb, xtc) = real_bytes(300, 5, 200 + d as u64);
        router.ingest(&name, &pdb, &xtc).unwrap();
        serial
            .ingest(&name, real_input(300, 5, 200 + d as u64))
            .unwrap();

        let owner = router.shard_for(&name);
        owned[owner] += 1;
        let owner_client = router.client(owner).unwrap();
        let decoded_before = owner_client.cache_stats().unwrap().bytes_decoded;
        owner_client
            .query(&name, Some("p"))
            .unwrap_or_else(|e| panic!("{} is not on its ring shard {}: {}", name, owner, e));
        let stray = router.client(1 - owner).unwrap().query(&name, Some("p"));
        assert_eq!(stray.unwrap_err().kind(), "unknown_dataset");
        // A whole tag is forwarded as stored: the probe decoded nothing.
        assert_eq!(
            owner_client.cache_stats().unwrap().bytes_decoded,
            decoded_before,
            "the whole-tag probe of {} was decoded on its shard",
            name
        );

        assert_eq!(
            wire_bits(router.query(&name, None).unwrap()),
            query_bits(serial.query(&name, None).unwrap()),
            "routed full query of {} diverged from in-process",
            name
        );
        assert_eq!(
            wire_bits(router.query_range(&name, "p", 1, 5, 2).unwrap()),
            query_bits(serial.query_range(&name, &p, 1..5, 2).unwrap()),
            "routed range query of {} diverged from in-process",
            name
        );
    }
    assert!(
        owned[0] > 0 && owned[1] > 0,
        "ring left a shard empty: {:?}",
        owned
    );

    // Every shard answers, and together they decoded what one instance
    // serving the full and range queries decodes (the cache is off: each
    // such read is a fresh decode, counted in `bytes_decoded`).
    let stats = router.cache_stats_all();
    assert_eq!(stats.len(), 2);
    let decoded: u64 = stats
        .values()
        .map(|s| s.as_ref().expect("live shard").bytes_decoded)
        .sum();
    assert_eq!(decoded, serial.cache_stats().bytes_decoded);

    for s in &mut servers {
        s.shutdown();
    }
}

/// The TCP twin of `concurrent_clients::thundering_herd_sheds_typed_overloads`:
/// eight clients released at once against a one-slot, one-waiter query
/// front-end. Whatever is not served is shed as `Overloaded` with its
/// retry hint intact across the wire, and the server counted the same.
#[test]
fn tcp_herd_is_shed_as_typed_overloads() {
    let _guard = serialize();
    const CLIENTS: usize = 8;
    // Same race, same remedy as the in-process test: the queries take
    // milliseconds, the submit window after the barrier microseconds.
    for attempt in 0..5 {
        let fe = Arc::new(Frontend::new(
            make_ada(),
            FrontendConfig {
                ingest_slots: 1,
                query_slots: 1,
                ingest_queue: 1,
                query_queue: 1,
                default_deadline: None,
                ..FrontendConfig::default()
            },
        ));
        let mut server =
            Server::start(fe.clone(), ServerConfig::default()).expect("server must start");
        let (pdb, xtc) = real_bytes(2500, 8, 11);
        client_for(&server, "setup")
            .ingest("big", &pdb, &xtc)
            .unwrap();

        let barrier = Barrier::new(CLIENTS);
        let (mut ok, mut overloaded) = (0u64, 0u64);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..CLIENTS {
                let (server, barrier) = (&server, &barrier);
                handles.push(scope.spawn(move || {
                    let client = client_for(server, &format!("c{}", t));
                    client.ping().unwrap(); // dial before the race, not in it
                    barrier.wait();
                    client.query("big", None)
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
        server.shutdown();
        assert_eq!(ok + overloaded, CLIENTS as u64);
        assert!(ok >= 1, "at least one request must be served");
        assert_eq!(fe.stats().query.counters.rejected, overloaded);
        if overloaded >= 1 {
            return;
        }
        eprintln!(
            "attempt {}: herd fully serialized ({} ok), retrying",
            attempt, ok
        );
    }
    panic!("8 TCP clients through a 1-slot/1-deep queue never overlapped in 5 attempts");
}
