//! Satellite suite (ISSUE 10): protocol fault injection.
//!
//! Every frame in the hostile corpus — truncated frame, flipped CRC
//! byte, bad magic, oversized declared length, mid-response connection
//! drop, slow-loris half-written header — must yield a *typed*
//! `AdaError` on the receiving side, never a hang or a panic, with
//! bounded memory (oversized declarations are rejected before
//! allocation), and both sides must stay usable for well-formed peers
//! afterwards. The corpus runs against the real server with 0, 1, 4,
//! and 8 well-behaved background client threads hammering it the whole
//! time. Under the same load, a hostile *server* answers a query with a
//! perfectly framed response whose XTCF payload has one flipped byte: the
//! frame CRC passes, so only the per-chunk CRC stands between the
//! corruption and the caller, and `Client::query` must fail with a typed
//! `corrupt` error naming the chunk — never hand out frames.
//!
//! A query answer is a stream of chunk frames, which adds the faults of
//! a stream. Corruption *stored on the backend* is found while the answer
//! is being forwarded, after its first chunk has left: the stream ends in
//! the typed error the in-process query raises, and the client hands out
//! that error and no report. A hostile server's streams — closed after a
//! chunk, longer than announced, a chunk of one and a half records, a head
//! announcing `u64::MAX` frames, an error trailer after good chunks, a
//! flipped byte in a chunk body, a record declaring another atom count
//! under a matching CRC — each end in one typed error from
//! `Client::query`: the chunk checks run as each chunk lands.
//!
//! What a failure does to the connection: an error answered in full keeps
//! it, a chunk that fails its check mid-stream drops it (the rest of the
//! answer is still in the socket), counted in accepts on a listener the
//! test owns. A request whose wire deadline passes in the admission queue
//! is answered `deadline_exceeded` under its own id, on a connection that
//! then serves the next request.
//!
//! Two peers that are not malformed, only inconsiderate: one sends eight
//! frames ahead of their answers and gets them back in request order; one
//! sends queries and never reads, and loses its connection after
//! `frame_timeout` instead of holding it (and a `max_connections` slot)
//! until shutdown.

mod common;

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ada_client::{Client, ClientConfig};
use ada_core::{AdaConfig, AdaError, ErrorKind, QueryReport, RetrievedData};
use ada_frontend::FrontendConfig;
use ada_mdformats::xtcf::{crc32, frame_record_len, parse_directory, XTCF_RECORD_NATOMS_OFFSET};
use ada_mdmodel::Tag;
use ada_proto::{
    encode_frame, read_frame, write_query_stream, RequestBody, RequestEnvelope, ResponseBody,
    ResponseEnvelope, StreamHead, WireQueryReport, CHUNK_MAGIC, DEFAULT_MAX_FRAME, HEADER_LEN,
    MAGIC, QUERY_CHUNK_FRAMES,
};
use ada_server::ServerConfig;
use ada_simfs::Content;
use common::{fixture, input, Rig};

static GUARD: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

/// The threads of this process whose name starts with `prefix` and that
/// have not begun to exit. `comm` holds a name's first 15 bytes. A thread
/// that is exiting (`PF_EXITING` in the flags, field 9 of its `stat`) can
/// still be listed for a moment after a `join` on it returned.
fn live_threads_named(prefix: &str) -> Vec<String> {
    const PF_EXITING: u64 = 0x4;
    let tasks = std::fs::read_dir("/proc/self/task").expect("list /proc/self/task");
    tasks
        .filter_map(|task| {
            let dir = task.ok()?.path();
            let comm = std::fs::read_to_string(dir.join("comm")).ok()?;
            let stat = std::fs::read_to_string(dir.join("stat")).ok()?;
            // The fields after the `)` that closes the name start at field 3.
            let flags: u64 = stat
                .rsplit_once(')')?
                .1
                .split_whitespace()
                .nth(6)?
                .parse()
                .ok()?;
            (comm.starts_with(prefix) && flags & PF_EXITING == 0)
                .then(|| comm.trim_end().to_string())
        })
        .collect()
}

/// A server with short fault deadlines (so slow-loris eviction is fast)
/// and a 1 MiB frame limit (so the oversized case is cheap to assert).
fn start_fault_server() -> Rig {
    let frontend = FrontendConfig {
        ingest_slots: 2,
        query_slots: 4,
        ingest_queue: 64,
        query_queue: 64,
    };
    Rig::paper().with_frontend(frontend).serve(ServerConfig {
        idle_timeout: Duration::from_secs(5),
        frame_timeout: Duration::from_millis(300),
        max_frame_len: 1 << 20,
        ..ServerConfig::default()
    })
}

fn well_behaved_client(rig: &Rig, name: &str) -> Client {
    rig.client_with(ClientConfig {
        name: name.to_string(),
        io_timeout: Duration::from_secs(10),
        ..ClientConfig::default()
    })
}

/// Raw evil socket with a bounded read patience (a hung server would
/// otherwise hang the test — the timeout IS the no-hang assertion).
fn evil_socket(rig: &Rig) -> TcpStream {
    let s = TcpStream::connect(rig.server().local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

fn ping_payload() -> Vec<u8> {
    RequestEnvelope {
        id: 7,
        client: "evil".to_string(),
        trace_id: 0,
        deadline_ns: 0,
        body: RequestBody::Ping,
    }
    .encode()
}

/// Read one response off an evil socket the way a client does: one
/// message frame, or a chunk stream folded into its query report.
fn read_response(stream: &mut TcpStream) -> Option<ResponseEnvelope> {
    match ada_proto::read_response(stream, DEFAULT_MAX_FRAME) {
        Ok(resp) => resp,
        Err(e) => panic!("reading the server's response failed: {:?}", e),
    }
}

fn assert_network_error(resp: Option<ResponseEnvelope>, what: &str) {
    match resp {
        Some(ResponseEnvelope {
            body: ResponseBody::Error(e),
            ..
        }) => assert_eq!(
            e.error_kind(),
            ErrorKind::Network,
            "{}: wrong kind: {}",
            what,
            e
        ),
        Some(other) => panic!("{}: expected an error frame, got {:?}", what, other.body),
        // The server may also have torn the connection down before the
        // best-effort error frame made it out; EOF is an acceptable
        // outcome for a protocol violation, a hang is not.
        None => {}
    }
}

/// The six-fault corpus against a live server. Each fault uses a fresh
/// evil connection; the final step proves the server still serves
/// well-formed peers.
fn run_fault_corpus(rig: &Rig) {
    // 1. Truncated frame: header declares 64 payload bytes, 10 arrive,
    //    then the write side closes.
    let mut s = evil_socket(rig);
    let frame = encode_frame(&[0xab; 64]).unwrap();
    s.write_all(&frame[..frame.len() - 54]).unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    assert_network_error(read_response(&mut s), "truncated frame");

    // 2. Flipped CRC byte.
    let mut s = evil_socket(rig);
    let mut frame = encode_frame(&ping_payload()).unwrap();
    frame[9] ^= 0x01;
    s.write_all(&frame).unwrap();
    assert_network_error(read_response(&mut s), "flipped crc");

    // 3. Bad magic.
    let mut s = evil_socket(rig);
    let mut frame = encode_frame(&ping_payload()).unwrap();
    frame[0] = b'X';
    s.write_all(&frame).unwrap();
    assert_network_error(read_response(&mut s), "bad magic");

    // 4. Oversized declared length: 4 GiB declared against a 1 MiB
    //    limit. The server must reject from the header alone — before
    //    allocating — so the response arrives although no payload was
    //    ever sent.
    let mut s = evil_socket(rig);
    let mut frame = encode_frame(&[0u8; 4]).unwrap();
    frame[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
    s.write_all(&frame[..13]).unwrap();
    let started = Instant::now();
    assert_network_error(read_response(&mut s), "oversized length");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "oversized declaration must be rejected from the header, not awaited"
    );

    // 5. Mid-response connection drop: a valid request whose sender
    //    vanishes before reading the reply. The server's write fails
    //    internally; nothing may leak or wedge.
    let mut s = evil_socket(rig);
    let frame = encode_frame(&ping_payload()).unwrap();
    s.write_all(&frame).unwrap();
    drop(s);

    // 6. Slow-loris: half a header, then silence. The server's frame
    //    deadline must evict the connection in bounded time.
    let mut s = evil_socket(rig);
    let frame = encode_frame(&ping_payload()).unwrap();
    s.write_all(&frame[..5]).unwrap();
    let started = Instant::now();
    assert_network_error(read_response(&mut s), "slow loris");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "slow-loris eviction took {:?}",
        started.elapsed()
    );

    // 7. Well-framed garbage: the CRC is valid, the payload is not a
    //    request. The stream stays aligned, so the server answers with a
    //    typed error and KEEPS the connection — a ping on the same
    //    socket must still work.
    let mut s = evil_socket(rig);
    let frame = encode_frame(&[0xff, 0xee, 0xdd]).unwrap();
    s.write_all(&frame).unwrap();
    match read_response(&mut s) {
        Some(ResponseEnvelope {
            body: ResponseBody::Error(e),
            ..
        }) => assert_eq!(e.error_kind(), ErrorKind::Network),
        other => panic!("well-framed garbage: expected error frame, got {:?}", other),
    }
    let frame = encode_frame(&ping_payload()).unwrap();
    s.write_all(&frame).unwrap();
    match read_response(&mut s) {
        Some(ResponseEnvelope {
            id: 7,
            body: ResponseBody::Pong,
        }) => {}
        other => panic!("connection unusable after recoverable fault: {:?}", other),
    }
}

/// An answer of two full chunks and a three-frame tail.
fn three_chunk_answer() -> WireQueryReport {
    let w = ada_workload::gpcr_workload(120, 2 * QUERY_CHUNK_FRAMES + 3, 41);
    WireQueryReport::try_from(QueryReport {
        indexer: ada_storagesim::SimDuration(0),
        read: ada_storagesim::SimDuration(0),
        data: RetrievedData::Real(w.trajectory),
    })
    .expect("frames of one atom count")
}

/// Where a one-frame `Query` response's container starts: after the id,
/// the body discriminant and the container's length.
const CONTAINER_AT: usize = 8 + 1 + 4;

/// A hostile server answers one query with a well-framed response (valid
/// frame CRC, valid envelope, matching request id) whose container has one
/// flipped byte inside chunk 1 of three. `Client::query` must refuse it
/// with a typed `corrupt` error naming chunk 1.
fn corrupt_chunk_in_response_is_typed() {
    let mut payload = ResponseEnvelope {
        id: 0,
        body: ResponseBody::Query(three_chunk_answer()),
    }
    .encode();
    let dir = parse_directory(&payload[CONTAINER_AT..])
        .expect("directory parses")
        .expect("payload is v2");
    assert_eq!(dir.nchunks(), 3);
    payload[CONTAINER_AT + dir.entries[1].offset as usize + 60] ^= 0x10;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let evil = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let request = read_frame(&mut stream, DEFAULT_MAX_FRAME)
            .expect("request frame")
            .expect("a request, not EOF");
        let id = RequestEnvelope::decode(&request).expect("request").id;
        payload[..8].copy_from_slice(&id.to_le_bytes());
        let frame = encode_frame(&payload).unwrap();
        stream.write_all(&frame).unwrap();
        let _ = stream.shutdown(Shutdown::Write);
    });

    let victim = Client::new(
        addr.to_string(),
        ClientConfig {
            name: "victim".to_string(),
            io_timeout: Duration::from_secs(5),
            ..ClientConfig::default()
        },
    );
    let err = victim
        .query("shared", Some("p"))
        .expect_err("a corrupt chunk must never decode into frames");
    assert_eq!(err.error_kind(), ErrorKind::Corrupt, "{}", err);
    let text = err.to_string();
    assert!(text.contains("corrupt chunk 1"), "{}", text);
    assert!(text.contains("checksum"), "{}", text);
    evil.join().expect("evil server thread must not panic");
}

/// Sets its flag when dropped — also while the test thread unwinds from a
/// failed assertion — so the background clients stop and the scope's join
/// returns: a corpus that fails fails the suite instead of hanging it.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// The corpus with N background clients hammering the same server; every
/// background request must resolve Ok (the server stays fully usable
/// while hostile peers are being evicted).
fn corpus_under_background_load(background: usize) {
    let _guard = serialize();
    let rig = start_fault_server();
    let w = ada_workload::gpcr_workload(300, 3, 17);
    let (pdb, xtc) = fixture(&w);
    well_behaved_client(&rig, "setup")
        .ingest("shared", &pdb, &xtc)
        .unwrap();

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..background {
            let rig = &rig;
            let stop = &stop;
            handles.push(scope.spawn(move || {
                let client = well_behaved_client(rig, &format!("bg{}", t));
                let mut served = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    client.query("shared", Some("p")).expect("background query");
                    served += 1;
                }
                served
            }));
        }

        let stopping = StopOnDrop(&stop);
        run_fault_corpus(&rig);
        corrupt_chunk_in_response_is_typed();

        drop(stopping);
        for h in handles {
            let served = h.join().expect("background client must not panic");
            assert!(served > 0, "background client never got a request through");
        }
    });

    // The server is still healthy for a fresh client after the corpus.
    well_behaved_client(&rig, "after")
        .query("shared", None)
        .unwrap();
}

#[test]
fn fault_corpus_with_0_background_clients() {
    corpus_under_background_load(0);
}

#[test]
fn fault_corpus_with_1_background_client() {
    corpus_under_background_load(1);
}

#[test]
fn fault_corpus_with_4_background_clients() {
    corpus_under_background_load(4);
}

#[test]
fn fault_corpus_with_8_background_clients() {
    corpus_under_background_load(8);
}

/// The client side of the corpus: a hostile/broken server must surface
/// as typed `AdaError::Network` on the real client — bounded time, no
/// panic — and the client must redial cleanly afterwards.
#[test]
fn hostile_server_yields_typed_client_errors() {
    let _guard = serialize();

    // Each scenario scripts what the "server" writes after accepting.
    type Script = Box<dyn Fn(&mut TcpStream) + Send>;
    let scenarios: Vec<(&str, Script)> = vec![
        ("eof instead of response", Box::new(|_s| {})),
        (
            "truncated response frame",
            Box::new(|s| {
                let frame = encode_frame(&[0xcd; 100]).unwrap();
                s.write_all(&frame[..frame.len() - 90]).unwrap();
            }),
        ),
        (
            "flipped response crc",
            Box::new(|s| {
                let mut frame = encode_frame(&[1, 2, 3, 4]).unwrap();
                frame[10] ^= 0x80;
                s.write_all(&frame).unwrap();
            }),
        ),
        (
            "bad response magic",
            Box::new(|s| {
                let mut frame = encode_frame(&[1, 2, 3, 4]).unwrap();
                frame[0] = b'Z';
                s.write_all(&frame).unwrap();
            }),
        ),
        (
            "oversized response declaration",
            Box::new(|s| {
                let mut frame = encode_frame(&[0u8; 4]).unwrap();
                frame[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
                s.write_all(&frame[..13]).unwrap();
                std::thread::sleep(Duration::from_millis(600));
            }),
        ),
        (
            "slow-loris response header",
            Box::new(|s| {
                let frame = encode_frame(&[0u8; 4]).unwrap();
                s.write_all(&frame[..5]).unwrap();
                // Stall past the client's io timeout.
                std::thread::sleep(Duration::from_millis(900));
            }),
        ),
        (
            "well-framed garbage response",
            Box::new(|s| {
                let frame = encode_frame(&[0xff; 7]).unwrap();
                s.write_all(&frame).unwrap();
            }),
        ),
    ];

    for (what, script) in scenarios {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let evil = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            // Consume the request frame (scripts that answer before
            // reading would deadlock a large request otherwise).
            let _ = read_frame(&mut stream, DEFAULT_MAX_FRAME);
            script(&mut stream);
            let _ = stream.shutdown(Shutdown::Both);
        });

        let client = Client::new(
            addr.to_string(),
            ClientConfig {
                name: "victim".to_string(),
                io_timeout: Duration::from_millis(500),
                ..ClientConfig::default()
            },
        );
        let started = Instant::now();
        let err = client.ping().expect_err(what);
        assert_eq!(err.error_kind(), ErrorKind::Network, "{}: {}", what, err);
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "{}: client took {:?} to fail",
            what,
            started.elapsed()
        );
        evil.join().expect("evil server thread must not panic");

        // The poisoned connection is dropped; the next call redials and
        // fails with a typed connect error (the listener is gone), not a
        // hang or a panic on a stale socket.
        let err = client.ping().expect_err("listener is gone");
        assert_eq!(err.error_kind(), ErrorKind::Network);
    }
}

/// What a hostile server's chunk stream must come to at the client.
enum Expect {
    /// `Client::query` fails with a `network` error mentioning this.
    Network(&'static str),
    /// `Client::query` fails with exactly this error text.
    Remote(&'static str),
    /// `Client::query` fails with a `corrupt` error mentioning this.
    Xtcf(String),
}

/// The atom count of [`three_chunk_answer`]'s frames and its chunk bodies,
/// with the CRCs they were sealed with.
fn three_chunks() -> (u32, Vec<(Vec<u8>, u32)>) {
    let encoded = ResponseEnvelope {
        id: 0,
        body: ResponseBody::Query(three_chunk_answer()),
    }
    .encode();
    let container = &encoded[CONTAINER_AT..];
    let dir = parse_directory(container).unwrap().unwrap();
    let chunks = dir.entries.iter().map(|e| {
        let start = e.offset as usize;
        (container[start..start + e.body_len()].to_vec(), e.crc)
    });
    (dir.entries[0].natoms, chunks.collect())
}

/// The stream side of the client corpus: a hostile server answers a tag
/// query with a chunk stream that is broken in one way. Each must end in
/// one typed error and no report — within bounded time, and with nothing
/// sized from what the head merely claims.
#[test]
fn hostile_chunk_streams_yield_one_typed_error_and_no_report() {
    let _guard = serialize();
    let (natoms, chunks) = three_chunks();
    let record = frame_record_len(natoms as usize);
    let total = (2 * QUERY_CHUNK_FRAMES + 3) as u64;

    // Each scenario: the announced total, the chunks to send (`Err` ends
    // the stream with an `unknown_dataset` error of that name), how many
    // bytes to cut off the end of the encoded stream before closing, and
    // the outcome.
    type Chunk = Result<(Vec<u8>, u32), &'static str>;
    let good = || -> Vec<Chunk> { chunks.iter().cloned().map(Ok).collect() };
    let trailer_len = HEADER_LEN + 8 + 1;
    let mut flipped = good();
    if let Ok((body, _)) = &mut flipped[1] {
        body[60] ^= 0x10;
    }
    // Record 1 of chunk 2 declares one atom more, under a CRC re-sealed
    // over the change: the frame and its CRC are fine, the records are not.
    let mut redeclared = good();
    if let Ok((body, crc)) = &mut redeclared[2] {
        let at = record + XTCF_RECORD_NATOMS_OFFSET;
        body[at..at + 4].copy_from_slice(&(natoms + 1).to_le_bytes());
        *crc = crc32(body);
    }
    let mut errored = good();
    errored[2] = Err("vanished mid-stream");
    let scenarios: Vec<(&str, u64, Vec<Chunk>, usize, Expect)> = vec![
        (
            "closed after chunk 1",
            total,
            good(),
            trailer_len + HEADER_LEN + chunks[2].0.len(),
            Expect::Network("truncated"),
        ),
        (
            "closed inside chunk 2",
            total,
            good(),
            trailer_len + 100,
            Expect::Network("truncated"),
        ),
        (
            "trailer after two of three chunks",
            total,
            good().into_iter().take(2).collect(),
            0,
            Expect::Network("ended after 128 of the 131 frames"),
        ),
        (
            "chunk frames past the head's total",
            2 * QUERY_CHUNK_FRAMES as u64,
            good(),
            0,
            Expect::Network("more than the 128 frames"),
        ),
        (
            "a chunk of one and a half records",
            total,
            vec![Ok((chunks[0].0[..record + record / 2].to_vec(), 0))],
            0,
            Expect::Network("whole number"),
        ),
        (
            "a head announcing u64::MAX frames",
            u64::MAX,
            good(),
            0,
            Expect::Network("more than memory addresses"),
        ),
        (
            "an error trailer after two good chunks",
            total,
            errored,
            0,
            Expect::Remote("unknown dataset 'vanished mid-stream'"),
        ),
        (
            "a flipped body byte in chunk 1",
            total,
            flipped,
            0,
            Expect::Xtcf("corrupt chunk 1: checksum mismatch".to_string()),
        ),
        (
            "a record of another atom count in chunk 2",
            total,
            redeclared,
            0,
            Expect::Xtcf(format!(
                "corrupt chunk 2: frame 1 declares {} atoms, not the chunk's {}",
                natoms + 1,
                natoms
            )),
        ),
    ];

    for (what, nframes, chunks, cut, expect) in scenarios {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let evil = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let request = read_frame(&mut stream, DEFAULT_MAX_FRAME)
                .expect("request frame")
                .expect("a request, not EOF");
            let head = StreamHead {
                id: RequestEnvelope::decode(&request).expect("request").id,
                natoms,
                nframes,
            };
            let mut wire = Vec::new();
            let chunks = chunks.iter().map(|c| match c {
                Ok((body, crc)) => Ok((&body[..], *crc)),
                Err(name) => Err(AdaError::UnknownDataset(name.to_string())),
            });
            write_query_stream(&mut wire, head, chunks).unwrap();
            // The peer may have given up already; that is its answer.
            let _ = stream.write_all(&wire[..wire.len() - cut]);
            let _ = stream.shutdown(Shutdown::Both);
        });

        let client = Client::new(
            addr.to_string(),
            ClientConfig {
                name: "victim".to_string(),
                io_timeout: Duration::from_secs(5),
                ..ClientConfig::default()
            },
        );
        let started = Instant::now();
        let outcome = client.query("shared", Some("p"));
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "{}: client took {:?}",
            what,
            started.elapsed()
        );
        match (expect, outcome) {
            (Expect::Network(needle), Err(e)) => {
                assert_eq!(e.error_kind(), ErrorKind::Network, "{}: {}", what, e);
                assert!(e.to_string().contains(needle), "{}: {}", what, e);
            }
            (Expect::Remote(text), Err(e)) => {
                assert_eq!(e.error_kind(), ErrorKind::UnknownDataset, "{}: {}", what, e);
                assert!(e.to_string().ends_with(text), "{}: {}", what, e);
            }
            (Expect::Xtcf(needle), Err(e)) => {
                assert_eq!(e.error_kind(), ErrorKind::Corrupt, "{}: {}", what, e);
                assert!(e.to_string().contains(&needle), "{}: {}", what, e);
            }
            (_, Ok(_)) => panic!("{}: the client handed out a report", what),
        }
        evil.join().expect("evil server thread must not panic");
    }
}

/// A typed error the server answers a request with, read in full, leaves
/// the connection aligned, so the client keeps it: an `unknown_dataset`
/// reply and then a good answer arrive over one connection. A chunk that
/// fails its check mid-stream leaves the rest of the answer in the socket,
/// so the client drops that connection and the next call dials again.
#[test]
fn an_error_answer_keeps_the_connection_and_a_corrupt_chunk_drops_it() {
    let _guard = serialize();
    let (natoms, chunks) = three_chunks();
    let mut flipped = chunks.clone();
    flipped[1].0[60] ^= 0x10;
    // What the scripted server answers its requests with, in order.
    let script: Vec<Option<Vec<(Vec<u8>, u32)>>> =
        vec![None, Some(chunks.clone()), Some(flipped), Some(chunks)];

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let accepts = Arc::new(AtomicUsize::new(0));
    let server_accepts = Arc::clone(&accepts);
    let server = std::thread::spawn(move || {
        let mut script = script.into_iter();
        while let Ok((mut stream, _)) = listener.accept() {
            server_accepts.fetch_add(1, Ordering::SeqCst);
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            // Serve this connection until the client drops it.
            while let Ok(Some(request)) = read_frame(&mut stream, DEFAULT_MAX_FRAME) {
                let id = RequestEnvelope::decode(&request).expect("request").id;
                let Some(answer) = script.next() else {
                    panic!("request {} past the script", id);
                };
                let mut wire = Vec::new();
                match answer {
                    None => {
                        let body = ResponseBody::Error(AdaError::UnknownDataset("nope".into()));
                        ada_proto::write_response(&mut wire, &ResponseEnvelope { id, body })
                    }
                    Some(chunks) => {
                        let head = StreamHead {
                            id,
                            natoms,
                            nframes: (2 * QUERY_CHUNK_FRAMES + 3) as u64,
                        };
                        let chunks = chunks.iter().map(|(b, crc)| Ok((&b[..], *crc)));
                        write_query_stream(&mut wire, head, chunks)
                    }
                }
                .unwrap();
                // A client that gave up mid-stream may have closed already.
                let _ = stream.write_all(&wire);
                if script.len() == 0 {
                    return;
                }
            }
        }
    });

    let client = Client::new(
        addr.to_string(),
        ClientConfig {
            name: "keeper".to_string(),
            io_timeout: Duration::from_secs(5),
            ..ClientConfig::default()
        },
    );
    let err = client.query("nope", Some("p")).unwrap_err();
    assert_eq!(err.error_kind(), ErrorKind::UnknownDataset, "{}", err);
    let rep = client.query("shared", Some("p")).unwrap();
    assert_eq!(rep.trajectory().unwrap().len(), 2 * QUERY_CHUNK_FRAMES + 3);
    assert_eq!(
        accepts.load(Ordering::SeqCst),
        1,
        "the error answer cost a dial"
    );

    let err = client.query("shared", Some("p")).unwrap_err();
    assert_eq!(err.error_kind(), ErrorKind::Corrupt, "{}", err);
    assert!(err.to_string().contains("corrupt chunk 1"), "{}", err);
    let rep = client.query("shared", Some("p")).unwrap();
    assert_eq!(rep.trajectory().unwrap().len(), 2 * QUERY_CHUNK_FRAMES + 3);
    assert_eq!(
        accepts.load(Ordering::SeqCst),
        2,
        "a corrupt chunk must drop the connection it arrived on"
    );
    server.join().expect("scripted server must not panic");
}

/// A request carrying a wire deadline the admission queue cannot meet
/// (1 ns) is answered with a typed `deadline_exceeded` under its own id,
/// counted once as expired by the frontend, and the same connection then
/// serves a deadline-free query: one accept for both.
#[test]
fn a_wire_deadline_expires_in_the_queue_and_keeps_the_connection() {
    let _guard = serialize();
    let mut rig = Rig::paper().serve(ServerConfig::default());
    let fe = rig.frontend();
    let w = ada_workload::gpcr_workload(300, 3, 41);
    fe.ingest("setup", "ds", input(&w)).unwrap();

    let accepted = || {
        let mut snap = ada_telemetry::Snapshot::default();
        rig.server().write_metrics(&mut snap);
        snap.counters["server.connections.accepted"]
    };
    let accepted_before = accepted();
    let expired_before = fe.stats().query.counters.expired;
    let query = |id: u64, deadline_ns: u64| {
        let envelope = RequestEnvelope {
            id,
            client: "hurried".to_string(),
            trace_id: 0,
            deadline_ns,
            body: RequestBody::Query {
                dataset: "ds".to_string(),
                tag: Some("p".to_string()),
            },
        };
        encode_frame(&envelope.encode()).unwrap()
    };
    let mut s = evil_socket(&rig);

    s.write_all(&query(21, 1)).unwrap();
    match read_response(&mut s) {
        Some(ResponseEnvelope {
            id: 21,
            body: ResponseBody::Error(e),
        }) => assert_eq!(e.error_kind(), ErrorKind::DeadlineExceeded, "{}", e),
        other => panic!("expected deadline_exceeded for request 21, got {:?}", other),
    }
    assert_eq!(fe.stats().query.counters.expired, expired_before + 1);

    s.write_all(&query(22, 0)).unwrap();
    match read_response(&mut s) {
        Some(ResponseEnvelope {
            id: 22,
            body: ResponseBody::Query(rep),
        }) => assert_eq!(rep.trajectory().expect("payload decodes").len(), 3),
        other => panic!("expected the answer to request 22, got {:?}", other),
    }
    assert_eq!(fe.stats().query.counters.expired, expired_before + 1);
    assert_eq!(accepted() - accepted_before, 1, "one connection for both");
    rig.shutdown();
}

/// One raw frame off a socket: its magic and payload, nothing verified.
fn read_raw_frame(stream: &mut TcpStream) -> ([u8; 4], Vec<u8>) {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header).expect("frame header");
    let len = u32::from_le_bytes([header[5], header[6], header[7], header[8]]) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).expect("frame payload");
    ([header[0], header[1], header[2], header[3]], payload)
}

/// Corruption stored on the backend — a flipped byte in chunk 1 of a
/// three-chunk dropping — is found while the answer is being forwarded:
/// chunk 0 is already on the wire, then the stream ends in the typed
/// error. It is the error the in-process query raises on the same
/// instance, kind and text, and the client hands out no report; the
/// connection and the server stay usable.
#[test]
fn stored_corruption_ends_a_forwarded_stream_in_the_in_process_error() {
    let _guard = serialize();
    let config = AdaConfig {
        chunk_frames: 2,
        ..AdaConfig::paper_prototype("ssd", "hdd")
    };
    let mut rig = Rig::new(config).serve(ServerConfig::default());
    let (ada, ssd) = (rig.ada(), &rig.ssd);
    let client = well_behaved_client(&rig, "reader");
    let w = ada_workload::gpcr_workload(300, 6, 37);
    let (pdb, xtc) = fixture(&w);
    client.ingest("ds", &pdb, &xtc).unwrap();
    assert_eq!(
        client
            .query("ds", Some("p"))
            .unwrap()
            .trajectory()
            .unwrap()
            .len(),
        6
    );

    let path = ssd
        .list("ssd/ds/hostdir.0/")
        .into_iter()
        .find(|p| p.contains("dropping.data.p"))
        .expect("protein dropping exists");
    let (content, _) = ssd.read(&path).unwrap();
    let mut bytes = content.bytes().to_vec();
    let dir = parse_directory(&bytes).unwrap().unwrap();
    assert_eq!(dir.nchunks(), 3);
    bytes[dir.entries[1].offset as usize + 60] ^= 0x10;
    ssd.delete(&path).unwrap();
    ssd.create(&path, Content::real(bytes)).unwrap();

    let local = ada.query("ds", Some(&Tag::protein())).unwrap_err();
    assert_eq!(local.error_kind(), ErrorKind::Corrupt);
    assert!(local.to_string().contains("corrupt chunk 1"), "{}", local);
    let remote = client
        .query("ds", Some("p"))
        .expect_err("no report may be handed out");
    assert_eq!(remote.error_kind(), local.error_kind());
    assert_eq!(remote.to_string(), local.to_string());

    // The same answer frame by frame: head, chunk 0 as stored, then the
    // error — nothing of chunk 1 or 2.
    let mut s = evil_socket(&rig);
    let query = RequestEnvelope {
        id: 11,
        client: "raw".to_string(),
        trace_id: 0,
        deadline_ns: 0,
        body: RequestBody::Query {
            dataset: "ds".to_string(),
            tag: Some("p".to_string()),
        },
    };
    s.write_all(&encode_frame(&query.encode()).unwrap())
        .unwrap();
    let (magic, _head) = read_raw_frame(&mut s);
    assert_eq!(magic, MAGIC);
    let (magic, chunk0) = read_raw_frame(&mut s);
    assert_eq!(magic, CHUNK_MAGIC);
    let len0 = 2 * frame_record_len(dir.entries[0].natoms as usize);
    let start0 = dir.entries[0].offset as usize;
    let (content, _) = ssd.read(&path).unwrap();
    assert_eq!(chunk0, content.bytes()[start0..start0 + len0]);
    let (magic, trailer) = read_raw_frame(&mut s);
    assert_eq!(magic, MAGIC);
    match ResponseEnvelope::decode(&trailer)
        .expect("error trailer")
        .body
    {
        ResponseBody::Error(e) => assert_eq!(e.to_string(), local.to_string()),
        other => panic!("expected the error trailer, got {:?}", other),
    }

    // Both connections are still aligned, and the other tag still reads.
    s.write_all(&encode_frame(&ping_payload()).unwrap())
        .unwrap();
    assert!(matches!(
        read_response(&mut s),
        Some(ResponseEnvelope {
            id: 7,
            body: ResponseBody::Pong
        })
    ));
    assert!(client.query("ds", Some("m")).is_ok());
    rig.shutdown();
}

/// Graceful shutdown with clients in flight: every in-flight call either
/// completes or fails typed; `shutdown()` joins every server thread; the
/// port stops accepting.
#[test]
fn graceful_shutdown_with_clients_in_flight() {
    let _guard = serialize();
    let mut rig = start_fault_server();
    let addr = rig.server().local_addr();
    let w = ada_workload::gpcr_workload(300, 3, 29);
    let (pdb, xtc) = fixture(&w);
    well_behaved_client(&rig, "setup")
        .ingest("shared", &pdb, &xtc)
        .unwrap();

    let stop = AtomicBool::new(false);
    let mut total_ok = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..4 {
            let stop = &stop;
            let addr_s = addr.to_string();
            handles.push(scope.spawn(move || {
                let client = Client::new(
                    addr_s,
                    ClientConfig {
                        name: format!("inflight{}", t),
                        connect_timeout: Duration::from_secs(1),
                        io_timeout: Duration::from_secs(5),
                        ..ClientConfig::default()
                    },
                );
                let mut ok = 0u64;
                let mut err_kind = None;
                while !stop.load(Ordering::Relaxed) {
                    match client.query("shared", Some("p")) {
                        Ok(_) => ok += 1,
                        Err(e) => {
                            err_kind = Some(e.error_kind());
                            break;
                        }
                    }
                }
                (ok, err_kind)
            }));
        }
        // Let the clients get in flight, then pull the plug mid-stream.
        std::thread::sleep(Duration::from_millis(100));
        rig.shutdown();
        // shutdown() joined every server thread: none is left running.
        let left = live_threads_named("ada-server-");
        stop.store(true, Ordering::Relaxed);
        assert!(
            left.is_empty(),
            "server threads outlived shutdown(): {:?}",
            left
        );
        for h in handles {
            let (ok, err_kind) = h.join().expect("client thread must not panic");
            total_ok += ok;
            if let Some(kind) = err_kind {
                // In-flight work severed by shutdown fails typed, as a
                // transport error or a shed — never an untyped shape.
                assert!(
                    kind == ErrorKind::Network || kind == ErrorKind::Overloaded,
                    "unexpected error kind {:?}",
                    kind
                );
            }
        }
    });
    assert!(total_ok >= 1, "no request was served before shutdown");

    // The port no longer serves: a fresh client gets a typed error.
    let late = Client::new(
        addr.to_string(),
        ClientConfig {
            name: "late".to_string(),
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_millis(500),
            ..ClientConfig::default()
        },
    );
    let err = late.ping().expect_err("server is down");
    assert_eq!(err.error_kind(), ErrorKind::Network);
}

/// What a connection's single thread owes a peer that sends ahead of its
/// answers: K frames written back to back before anything is read — pings,
/// a tag query, one well-framed garbage payload in the middle — come back
/// as K responses in request order, the garbage as a typed `network` error
/// under its own id, and the frames behind it are still served.
#[test]
fn pipelined_frames_are_answered_in_request_order() {
    let _guard = serialize();
    let mut rig = start_fault_server();
    let w = ada_workload::gpcr_workload(300, 3, 23);
    let (pdb, xtc) = fixture(&w);
    well_behaved_client(&rig, "setup")
        .ingest("shared", &pdb, &xtc)
        .unwrap();

    const K: u64 = 8;
    const QUERY_ID: u64 = 3;
    const GARBAGE_ID: u64 = 4;
    let mut burst = Vec::new();
    for id in 1..=K {
        let payload = match id {
            // The id where a request keeps it, then nothing a request has.
            GARBAGE_ID => [&id.to_le_bytes()[..], &[0xff; 5]].concat(),
            _ => RequestEnvelope {
                id,
                client: "pipeliner".to_string(),
                trace_id: 0,
                deadline_ns: 0,
                body: match id {
                    QUERY_ID => RequestBody::Query {
                        dataset: "shared".to_string(),
                        tag: Some("p".to_string()),
                    },
                    _ => RequestBody::Ping,
                },
            }
            .encode(),
        };
        burst.extend(encode_frame(&payload).unwrap());
    }
    let mut s = evil_socket(&rig);
    s.write_all(&burst).unwrap();

    for id in 1..=K {
        let resp = read_response(&mut s).expect("one response per frame sent");
        assert_eq!(resp.id, id, "responses must come back in request order");
        match (id, resp.body) {
            (GARBAGE_ID, ResponseBody::Error(e)) => {
                assert_eq!(e.error_kind(), ErrorKind::Network, "{}", e)
            }
            (QUERY_ID, ResponseBody::Query(rep)) => {
                assert_eq!(rep.trajectory().expect("payload decodes").len(), 3)
            }
            (GARBAGE_ID | QUERY_ID, other) => panic!("frame {}: wrong answer {:?}", id, other),
            (_, ResponseBody::Pong) => {}
            (_, other) => panic!("frame {}: expected a pong, got {:?}", id, other),
        }
    }
    rig.shutdown();
}

/// A peer that sends queries and never reads an answer holds its
/// connection only until a write makes no progress for `frame_timeout`:
/// with one connection allowed, a well-behaved client gets in again — at
/// the parent commit it was `Overloaded` until shutdown.
#[test]
fn peer_that_never_reads_is_evicted_and_frees_its_connection() {
    let _guard = serialize();
    let frame_timeout = Duration::from_millis(300);
    let mut rig = Rig::paper().serve(ServerConfig {
        max_connections: 1,
        frame_timeout,
        ..ServerConfig::default()
    });

    // In process, so the one connection is still free for the hostile peer.
    let w = ada_workload::gpcr_workload(3000, 32, 31);
    let ingest = rig.frontend().ingest("setup", "big", input(&w));
    let raw_bytes = ingest.unwrap().raw_bytes;
    assert!(raw_bytes >= 1 << 20, "answer too small: {} B", raw_bytes);

    // 64 answers of ≥ 1 MiB are several times what the loopback socket
    // buffers between the two ends can absorb.
    let mut deaf = evil_socket(&rig);
    for id in 1..=64 {
        let query = RequestEnvelope {
            id,
            client: "deaf".to_string(),
            trace_id: 0,
            deadline_ns: 0,
            body: RequestBody::Query {
                dataset: "big".to_string(),
                tag: None,
            },
        };
        deaf.write_all(&encode_frame(&query.encode()).unwrap())
            .unwrap();
    }

    let patient = well_behaved_client(&rig, "patient");
    let give_up = Instant::now() + frame_timeout + Duration::from_secs(3);
    loop {
        match patient.ping() {
            Ok(()) => break,
            Err(e) if e.error_kind() == ErrorKind::Overloaded && Instant::now() < give_up => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("the deaf peer still holds the only connection: {}", e),
        }
    }
    drop(deaf);
    rig.shutdown();
}

/// A peer that puts a fresh client name on every request must not grow
/// a server's metrics with it: the first 64 names a `Frontend` meets get
/// a `frontend.client.{name}.*` family each, every later one is counted
/// under `frontend.client.other.*`.
#[test]
fn ten_thousand_client_names_leave_a_bounded_metric_family() {
    let _guard = serialize();
    const NAMES: u64 = 10_000;
    const FAMILIES: u64 = 64; // ada-frontend's CLIENT_FAMILIES_MAX
    let client_counters = |rig: &Rig| -> Vec<(String, u64)> {
        let mut snap = ada_telemetry::Snapshot::default();
        rig.server().write_metrics(&mut snap);
        snap.counters
            .into_iter()
            .filter(|(name, _)| name.starts_with("frontend.client."))
            .collect()
    };
    let count_of = |counters: &[(String, u64)], name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    let mut rig = start_fault_server();
    let before = client_counters(&rig);

    // A query of a dataset nobody ingested is admitted, then fails typed:
    // the cheapest request that passes admission accounting.
    let mut s = evil_socket(&rig);
    for batch in (0..NAMES).collect::<Vec<_>>().chunks(500) {
        let mut burst = Vec::new();
        for &id in batch {
            let query = RequestEnvelope {
                id,
                client: format!("swarm-{}", id),
                trace_id: 0,
                deadline_ns: 0,
                body: RequestBody::Query {
                    dataset: "nobody-ingested-this".to_string(),
                    tag: None,
                },
            };
            burst.extend(encode_frame(&query.encode()).unwrap());
        }
        s.write_all(&burst).unwrap();
        for &id in batch {
            let resp = read_response(&mut s).expect("one response per frame sent");
            assert_eq!(resp.id, id);
            match resp.body {
                ResponseBody::Error(e) => {
                    assert_eq!(e.error_kind(), ErrorKind::UnknownDataset, "{}", e)
                }
                other => panic!("request {}: expected a typed error, got {:?}", id, other),
            }
        }
    }

    let after = client_counters(&rig);
    assert!(
        after.len() - before.len() <= 3 * (FAMILIES as usize + 1),
        "{} new frontend.client.* counters",
        after.len() - before.len()
    );
    let swarm = after
        .iter()
        .filter(|(n, _)| n.starts_with("frontend.client.swarm-"))
        .count();
    assert_eq!(swarm, 3 * FAMILIES as usize);
    for id in 0..FAMILIES {
        let swarm_id = format!("swarm-{}", id);
        let name = ada_telemetry::key(&["frontend.client", &swarm_id, "accepted"]);
        assert_eq!(count_of(&after, &name), 1, "{}", name);
    }
    let other = "frontend.client.other.accepted";
    assert_eq!(
        count_of(&after, other) - count_of(&before, other),
        NAMES - FAMILIES
    );
    rig.shutdown();
}
