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
//!   survive, the report's simulated durations and the `ada.{op}.ok`
//!   counts the server's stack keeps are the in-process ones, and the server decodes nothing — while a
//!   v1 dropping (no chunk directory) is the in-process typed error,
//!   whole-tag and full-frame alike, each on a kept connection;
//! * remote errors keep their exact `error_kind()` and `Display` —
//!   `unknown_dataset`, `invalid_range`, `unknown_tag`, `dataset_exists`,
//!   and errors whose in-process form wraps a nested source (`xtc`) cross
//!   the wire as themselves, not as a generic network failure;
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

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::Duration;

use ada_client::{ClientConfig, Router};
use ada_core::{Ada, AdaConfig, AdaError, ErrorKind, IngestInput, RetrievedData};
use ada_frontend::FrontendConfig;
use ada_mdformats::xtcf::{frame_record_len, parse_directory, read_xtcf, write_xtcf};
use ada_mdformats::Trajectory;
use ada_mdmodel::Tag;
use ada_proto::{
    encode_frame, RequestBody, RequestEnvelope, WireQueryReport, WireReader, CHUNK_MAGIC,
    HEADER_LEN,
};
use ada_server::{Server, ServerConfig};
use ada_simfs::Content;
use ada_telemetry::trace;
use ada_workload::gpcr_workload;
use common::{fixture, input, Rig};

static GUARD: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

/// A fresh in-process instance: the serial reference.
fn make_ada() -> Arc<Ada> {
    Arc::clone(Rig::paper().ada())
}

/// A served rig whose queues admit every request the tests send.
fn served() -> Rig {
    let frontend = FrontendConfig {
        ingest_slots: 2,
        query_slots: 4,
        ingest_queue: 64,
        query_queue: 64,
    };
    Rig::paper()
        .with_frontend(frontend)
        .serve(ServerConfig::default())
}

/// Every `ada.{op}.*` outcome `ada` counted so far, as `"{op}.ok={n}"` /
/// `"{op}.err.{kind}={n}"`, in name order: which calls counted as a
/// success, and which as a failure of what kind.
fn outcomes(ada: &Ada) -> Vec<String> {
    let mut snap = ada_telemetry::Snapshot::default();
    ada.write_metrics(&mut snap);
    let counters = snap.counters.iter();
    counters
        .filter_map(|(name, n)| Some(format!("{}={n}", name.strip_prefix("ada.")?)))
        .collect()
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
    let mut rig = served();

    // Shared dataset every client can read.
    let (pdb, xtc) = fixture(&gpcr_workload(500, 6, 7));
    rig.client("setup").ingest("shared", &pdb, &xtc).unwrap();

    let barrier = Barrier::new(CLIENTS);
    let mut harvested: Vec<Op> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..CLIENTS {
            let rig = &rig;
            let barrier = &barrier;
            handles.push(scope.spawn(move || {
                let client = rig.client(&format!("c{}", t));
                barrier.wait();
                let mut out = Vec::new();
                // Odd clients first ingest a private dataset, exercising
                // ingest/query interleaving over the wire.
                let dataset = if t % 2 == 1 {
                    let name = format!("ds{}", t);
                    let (pdb, xtc) = fixture(&gpcr_workload(400, 4, 100 + t as u64));
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
    rig.shutdown();
    assert_eq!(harvested.len(), CLIENTS * QUERIES_PER_CLIENT);

    // Serial reference: a fresh in-process instance, one thread.
    let serial = make_ada();
    serial
        .ingest("shared", input(&gpcr_workload(500, 6, 7)))
        .unwrap();
    for t in (1..CLIENTS).step_by(2) {
        serial
            .ingest(
                &format!("ds{}", t),
                input(&gpcr_workload(400, 4, 100 + t as u64)),
            )
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
    let mut rig = served();
    let client = rig.client("ragged");
    let (pdb, xtc) = fixture(&gpcr_workload(300, nframes, 77));
    client.ingest("ds", &pdb, &xtc).unwrap();
    let serial = make_ada();
    serial
        .ingest("ds", input(&gpcr_workload(300, nframes, 77)))
        .unwrap();
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
    assert_eq!(remote.error_kind(), ErrorKind::InvalidRange);
    assert_eq!(remote.to_string(), local.to_string());

    rig.shutdown();
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
    let mut rig = Rig::paper().serve(config);
    // In process: the `.xtc` alone would not fit a request frame.
    rig.frontend()
        .ingest("setup", "ds", input(&gpcr_workload(250, nframes, 91)))
        .unwrap();
    let serial = make_ada();
    serial
        .ingest("ds", input(&gpcr_workload(250, nframes, 91)))
        .unwrap();
    let client = rig.client_with(ClientConfig {
        max_frame_len: MAX_FRAME,
        ..ClientConfig::default()
    });
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
    rig.shutdown();
}

/// How a tag answer left the server, read off a raw socket: each chunk
/// frame's frame count (its length over the record length), between a
/// head of atoms and frames and a trailer of the id and the end mark.
fn chunk_layout(server: &Server, dataset: &str, tag: &str) -> Vec<u32> {
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let query = RequestEnvelope {
        id: 1,
        client: "raw".to_string(),
        trace_id: 0,
        deadline_ns: 0,
        body: RequestBody::Query {
            dataset: dataset.to_string(),
            tag: Some(tag.to_string()),
        },
    };
    s.write_all(&encode_frame(&query.encode()).unwrap())
        .unwrap();
    let mut frame = || {
        let mut header = [0u8; HEADER_LEN];
        s.read_exact(&mut header).expect("frame header");
        let len = u32::from_le_bytes([header[5], header[6], header[7], header[8]]);
        let mut payload = vec![0u8; len as usize];
        s.read_exact(&mut payload).expect("frame payload");
        (header[..4] == CHUNK_MAGIC, payload)
    };
    let (chunk, head) = frame();
    assert!(!chunk, "a stream opens with its head");
    let mut r = WireReader::new(&head);
    assert_eq!((r.get_u64().unwrap(), r.get_u8().unwrap()), (1, 4));
    let record = frame_record_len(r.get_u32().unwrap() as usize);
    let nframes = r.get_u64().unwrap();
    r.expect_end().unwrap();
    let mut layout = Vec::new();
    let trailer = loop {
        match frame() {
            (true, body) => {
                assert_eq!(body.len() % record, 0, "a chunk is whole records");
                layout.push((body.len() / record) as u32);
            }
            (false, trailer) => break trailer,
        }
    };
    assert_eq!(trailer, [1, 0, 0, 0, 0, 0, 0, 0, 5]);
    assert_eq!(layout.iter().map(|&n| u64::from(n)).sum::<u64>(), nframes);
    layout
}

/// A tag whose frame count is not a multiple of the chunk size has a short
/// last chunk. Forwarded, its chunks arrive as stored, its frames are the
/// in-process ones, and the stack counts the successes it counts in
/// process.
#[test]
fn forwarded_multi_dropping_answer_keeps_ragged_chunks_and_counts() {
    let _guard = serialize();
    let config = || AdaConfig {
        chunk_frames: 8,
        ..AdaConfig::paper_prototype("ssd", "hdd")
    };
    let mut rig = Rig::new(config()).serve(ServerConfig::default());
    let serial = Rig::new(config());
    let serial = serial.ada();
    let client = rig.client("ragged-stored");
    let (pdb, xtc) = fixture(&gpcr_workload(400, 50, 63));
    client.ingest("ds", &pdb, &xtc).unwrap();
    serial
        .ingest("ds", input(&gpcr_workload(400, 50, 63)))
        .unwrap();
    let p = Tag::protein();

    for _ in 0..2 {
        let remote = client.query("ds", Some("p")).unwrap();
        let local = serial.query("ds", Some(&p)).unwrap();
        assert_eq!(wire_bits(remote), query_bits(local));
    }
    // One dropping of 50 frames, its chunks of 8 as stored.
    assert_eq!(chunk_layout(rig.server(), "ds", "p"), [8, 8, 8, 8, 8, 8, 2]);
    serial.query("ds", Some(&p)).unwrap();
    // The other tag, and a ranged read: one forwarded, one not.
    client.query("ds", Some("m")).unwrap();
    serial.query("ds", Some(&Tag::misc())).unwrap();
    client.query_range("ds", "p", 5, 45, 3).unwrap();
    serial.query_range("ds", &p, 5..45, 3).unwrap();
    let counted = ["ingest.ok=1", "query.ok=4", "query_range.ok=1"];
    assert_eq!(outcomes(rig.ada()), outcomes(serial));
    assert_eq!(outcomes(serial), counted);
    rig.shutdown();
}

/// A tag with a v1 dropping among its droppings (no chunk directory) is
/// refused remotely with the typed error the in-process query raises, on a
/// connection that stays open — tagged, and again in a full-frame query
/// on the same connection.
#[test]
fn v1_droppings_are_typed_errors_on_a_kept_connection() {
    let _guard = serialize();
    let mut rig = Rig::paper().serve(ServerConfig::default());
    let ssd = Arc::clone(&rig.ssd);
    let client = rig.client("fallback");
    let (pdb, xtc) = fixture(&gpcr_workload(300, 6, 71));
    client.ingest("old", &pdb, &xtc).unwrap();

    // Re-encode the protein dropping as the v1 file it would have been.
    let path = ssd
        .list("ssd/old/hostdir.0/")
        .into_iter()
        .find(|p| p.contains("dropping.data.p"))
        .expect("protein dropping exists");
    let (content, _) = ssd.read(&path).unwrap();
    let frames = read_xtcf(content.bytes()).unwrap();
    let v1 = write_xtcf(&frames).unwrap();
    assert!(parse_directory(&v1).unwrap().is_none(), "a genuine v1 file");
    ssd.delete(&path).unwrap();
    ssd.create(&path, Content::real(v1)).unwrap();

    let accepted = || {
        let mut snap = ada_telemetry::Snapshot::default();
        rig.server().write_metrics(&mut snap);
        snap.counters["server.connections.accepted"]
    };
    let accepted_before = accepted();
    let remote = client.query("old", Some("p")).unwrap_err();
    let local = rig.ada().query("old", Some(&Tag::protein())).unwrap_err();
    assert_eq!(remote.error_kind(), ErrorKind::Xtcf, "{}", remote);
    assert_eq!(remote.to_string(), local.to_string());
    assert!(remote.to_string().contains(&path), "{}", remote);
    assert!(
        remote.to_string().contains("carries no chunk directory"),
        "{}",
        remote
    );
    assert_eq!(rig.ada().cache_stats().bytes_decoded, 0, "nothing decoded");
    let failed = ["ingest.ok=1", "query.err.xtcf=2"];
    assert_eq!(outcomes(rig.ada()), failed, "no success");

    let remote = client.query("old", None).unwrap_err();
    let local = rig.ada().query("old", None).unwrap_err();
    assert_eq!(remote.error_kind(), ErrorKind::Xtcf, "{}", remote);
    assert_eq!(remote.to_string(), local.to_string());
    let failed = ["ingest.ok=1", "query.err.xtcf=4"];
    assert_eq!(outcomes(rig.ada()), failed, "no success");
    assert_eq!(
        accepted(),
        accepted_before,
        "every error answer kept the connection"
    );
    rig.shutdown();
}

/// Remote failures keep their exact kind and text: the wire carries an
/// error's kind and its rendering, so a remote error reads as the
/// in-process one, nested sources (`xtc`) included.
#[test]
fn remote_error_kinds_match_in_process() {
    let _guard = serialize();
    let mut rig = served();
    let client = rig.client("errs");
    let (pdb, xtc) = fixture(&gpcr_workload(300, 3, 21));
    client.ingest("ds", &pdb, &xtc).unwrap();

    // unknown dataset
    let remote = client.query("no-such-dataset", None).unwrap_err();
    assert_eq!(remote.error_kind(), ErrorKind::UnknownDataset);

    // invalid range (frames beyond the trajectory)
    let remote = client.query_range("ds", "p", 0, 5000, 1).unwrap_err();
    assert_eq!(remote.error_kind(), ErrorKind::InvalidRange);

    // unknown tag
    let remote = client.query("ds", Some("zz")).unwrap_err();
    assert_eq!(remote.error_kind(), ErrorKind::UnknownTag);

    // In-process reference: identical kinds AND identical Display text.
    let serial = make_ada();
    serial
        .ingest("ds", input(&gpcr_workload(300, 3, 21)))
        .unwrap();
    let local = serial.query("no-such-dataset", None).unwrap_err();
    let remote = client.query("no-such-dataset", None).unwrap_err();
    assert_eq!(local.error_kind(), remote.error_kind());
    assert_eq!(local.to_string(), remote.to_string());
    let local = serial
        .query_range("ds", &Tag::protein(), 0..5000, 1)
        .unwrap_err();
    let remote = client.query_range("ds", "p", 0, 5000, 1).unwrap_err();
    assert_eq!(local.error_kind(), remote.error_kind());
    assert_eq!(local.to_string(), remote.to_string());

    // A second ingest under a taken name: the name's owner refuses it.
    let local = serial
        .ingest("ds", input(&gpcr_workload(300, 3, 21)))
        .unwrap_err();
    assert!(matches!(local, AdaError::DatasetExists(_)), "{:?}", local);
    let remote = client.ingest("ds", &pdb, &xtc).unwrap_err();
    assert_eq!(remote.error_kind(), ErrorKind::DatasetExists);
    assert_eq!(local.error_kind(), remote.error_kind());
    assert_eq!(local.to_string(), remote.to_string());

    // A truncated `.xtc`: the trajectory decoder's refusal.
    let cut = xtc[..xtc.len() / 2].to_vec();
    let local = serial
        .ingest(
            "cut",
            IngestInput::Real {
                pdb_text: pdb.clone(),
                xtc_bytes: cut.clone(),
            },
        )
        .unwrap_err();
    assert!(matches!(local, AdaError::Xtc(_)), "{:?}", local);
    let remote = client.ingest("cut", &pdb, &cut).unwrap_err();
    assert_eq!(remote.error_kind(), ErrorKind::Xtc);
    assert_eq!(local.error_kind(), remote.error_kind());
    assert_eq!(local.to_string(), remote.to_string());

    rig.shutdown();
}

/// Ingest reports survive the wire: the remote report equals an
/// identical in-process ingest's, field for field.
#[test]
fn remote_ingest_report_matches_in_process() {
    let _guard = serialize();
    let mut rig = served();
    let client = rig.client("rep");
    let (pdb, xtc) = fixture(&gpcr_workload(350, 4, 33));
    let wire = client.ingest("ds", &pdb, &xtc).unwrap();
    rig.shutdown();

    let serial = make_ada();
    let local = serial
        .ingest("ds", input(&gpcr_workload(350, 4, 33)))
        .unwrap();
    assert_eq!(wire, local);
}

/// A traced remote request produces one tree in the client's recorder
/// and ONE in the serving stack's, sealed under the same trace id — the
/// wire carries the id, `root_remote` adopts it, and the frontend's spans
/// nest under that root. The whole server tree down to the middleware's
/// facade span is recorded on the connection's own thread, and its root
/// names the op that actually ran, once.
#[test]
fn server_trace_tree_adopts_the_wire_trace_id() {
    let _guard = serialize();
    let mut rig = Rig::paper().serve(ServerConfig::default());
    let client = rig.client("traced");
    let (pdb, xtc) = fixture(&gpcr_workload(300, 3, 55));
    client.ingest("ds", &pdb, &xtc).unwrap();
    client.ingest("ds-again", &pdb, &xtc).unwrap();
    client.query("ds", Some("p")).unwrap();
    rig.shutdown();

    // Each end holds its own half of every request, and only that half.
    let roots = |traces: &[Arc<trace::Trace>]| -> Vec<&'static str> {
        traces.iter().map(|t| t.op).collect()
    };
    let client_trees = client.flight_recorder().all();
    let server_trees = rig.frontend().flight_recorder().all();
    assert_eq!(roots(&client_trees), ["client.request"; 3]);
    assert_eq!(roots(&server_trees), ["server.request"; 3]);
    let ids = |traces: &[Arc<trace::Trace>]| -> Vec<u128> { traces.iter().map(|t| t.id).collect() };
    assert_eq!(
        ids(&client_trees),
        ids(&server_trees),
        "both ends' trees of one request carry one id"
    );
    let mut ops = Vec::new();
    for st in &server_trees {
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
}

/// Two servers, each over its own instance, behind one `Router`: every
/// dataset lives on its ring owner and nowhere else, and what the router
/// returns is what an in-process instance returns.
#[test]
fn router_places_each_dataset_on_its_ring_shard() {
    let _guard = serialize();
    const DATASETS: usize = 8;
    let mut servers = [served(), served()];
    let addrs = servers
        .iter()
        .map(|s| s.server().local_addr().to_string())
        .collect();
    let router = Router::new(addrs, ClientConfig::default());
    assert_eq!(router.shards(), 2);

    let serial = make_ada();
    let p = Tag::protein();
    let mut owned = [0usize; 2];
    for d in 0..DATASETS {
        let name = format!("ds{}", d);
        let (pdb, xtc) = fixture(&gpcr_workload(300, 5, 200 + d as u64));
        router.ingest(&name, &pdb, &xtc).unwrap();
        serial
            .ingest(&name, input(&gpcr_workload(300, 5, 200 + d as u64)))
            .unwrap();

        let owner = router.shard_for(&name);
        owned[owner] += 1;
        let owner_client = router.client(owner).unwrap();
        let decoded_before = owner_client.cache_stats().unwrap().bytes_decoded;
        owner_client
            .query(&name, Some("p"))
            .unwrap_or_else(|e| panic!("{} is not on its ring shard {}: {}", name, owner, e));
        let stray = router.client(1 - owner).unwrap().query(&name, Some("p"));
        assert_eq!(stray.unwrap_err().error_kind(), ErrorKind::UnknownDataset);
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
        let frontend = FrontendConfig {
            ingest_slots: 1,
            query_slots: 1,
            ingest_queue: 1,
            query_queue: 1,
        };
        let mut rig = Rig::paper()
            .with_frontend(frontend)
            .serve(ServerConfig::default());
        let (pdb, xtc) = fixture(&gpcr_workload(2500, 8, 11));
        rig.client("setup").ingest("big", &pdb, &xtc).unwrap();

        let barrier = Barrier::new(CLIENTS);
        let (mut ok, mut overloaded) = (0u64, 0u64);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..CLIENTS {
                let (rig, barrier) = (&rig, &barrier);
                handles.push(scope.spawn(move || {
                    let client = rig.client(&format!("c{}", t));
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
        rig.shutdown();
        assert_eq!(ok + overloaded, CLIENTS as u64);
        assert!(ok >= 1, "at least one request must be served");
        assert_eq!(rig.frontend().stats().query.counters.rejected, overloaded);
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
