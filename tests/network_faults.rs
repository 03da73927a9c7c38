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
//! corruption and the caller, and it must surface as a typed `xtcf`
//! error naming the chunk — never as frames.
//!
//! A query answer is a stream of chunk frames, which adds the faults of
//! a stream. Corruption *stored on the backend* is found while the answer
//! is being forwarded, after its first chunk has left: the stream ends in
//! the typed error the in-process query raises, and the client hands out
//! that error and no report. A hostile server's streams — closed after a
//! chunk, longer than announced, a chunk of one and a half records, a head
//! announcing `u64::MAX` frames, an error trailer after good chunks, a
//! flipped byte in a chunk body — each end in one typed error, at the
//! client or (the flipped byte, which no frame check sees) at
//! `trajectory()`.
//!
//! Two peers that are not malformed, only inconsiderate: one sends eight
//! frames ahead of their answers and gets them back in request order; one
//! sends queries and never reads, and loses its connection after
//! `frame_timeout` instead of holding it (and a `max_connections` slot)
//! until shutdown.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ada_client::{Client, ClientConfig};
use ada_core::{Ada, AdaConfig, AdaError, IngestInput, QueryReport, RetrievedData};
use ada_frontend::{Frontend, FrontendConfig};
use ada_mdformats::xtcf::{frame_record_len, parse_directory};
use ada_mdmodel::Tag;
use ada_plfs::ContainerSet;
use ada_proto::{
    encode_frame, read_frame, write_query_stream, RequestBody, RequestEnvelope, ResponseBody,
    ResponseEnvelope, StreamHead, WirePayload, WireQueryReport, CHUNK_MAGIC, DEFAULT_MAX_FRAME,
    HEADER_LEN, MAGIC, QUERY_CHUNK_FRAMES,
};
use ada_server::{Server, ServerConfig};
use ada_simfs::{Content, LocalFs, SimFileSystem};

static GUARD: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

fn make_ada() -> Arc<Ada> {
    let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
    let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
    let cs = Arc::new(ContainerSet::new(vec![
        ("ssd".into(), ssd.clone()),
        ("hdd".into(), hdd),
    ]));
    Arc::new(Ada::new(AdaConfig::paper_prototype("ssd", "hdd"), cs, ssd))
}

/// A server with short fault deadlines (so slow-loris eviction is fast)
/// and a 1 MiB frame limit (so the oversized case is cheap to assert).
fn start_fault_server() -> Server {
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
    Server::start(
        fe,
        ServerConfig {
            idle_timeout: Duration::from_secs(5),
            frame_timeout: Duration::from_millis(300),
            max_frame_len: 1 << 20,
            ..ServerConfig::default()
        },
    )
    .expect("server must start")
}

fn well_behaved_client(server: &Server, name: &str) -> Client {
    Client::new(
        server.local_addr().to_string(),
        ClientConfig {
            name: name.to_string(),
            io_timeout: Duration::from_secs(10),
            ..ClientConfig::default()
        },
    )
}

/// Raw evil socket with a bounded read patience (a hung server would
/// otherwise hang the test — the timeout IS the no-hang assertion).
fn evil_socket(server: &Server) -> TcpStream {
    let s = TcpStream::connect(server.local_addr()).expect("connect");
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
        }) => assert_eq!(e.kind(), "network", "{}: wrong kind: {}", what, e),
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
fn run_fault_corpus(server: &Server) {
    // 1. Truncated frame: header declares 64 payload bytes, 10 arrive,
    //    then the write side closes.
    let mut s = evil_socket(server);
    let frame = encode_frame(&[0xab; 64]).unwrap();
    s.write_all(&frame[..frame.len() - 54]).unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    assert_network_error(read_response(&mut s), "truncated frame");

    // 2. Flipped CRC byte.
    let mut s = evil_socket(server);
    let mut frame = encode_frame(&ping_payload()).unwrap();
    frame[9] ^= 0x01;
    s.write_all(&frame).unwrap();
    assert_network_error(read_response(&mut s), "flipped crc");

    // 3. Bad magic.
    let mut s = evil_socket(server);
    let mut frame = encode_frame(&ping_payload()).unwrap();
    frame[0] = b'X';
    s.write_all(&frame).unwrap();
    assert_network_error(read_response(&mut s), "bad magic");

    // 4. Oversized declared length: 4 GiB declared against a 1 MiB
    //    limit. The server must reject from the header alone — before
    //    allocating — so the response arrives although no payload was
    //    ever sent.
    let mut s = evil_socket(server);
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
    let mut s = evil_socket(server);
    let frame = encode_frame(&ping_payload()).unwrap();
    s.write_all(&frame).unwrap();
    drop(s);

    // 6. Slow-loris: half a header, then silence. The server's frame
    //    deadline must evict the connection in bounded time.
    let mut s = evil_socket(server);
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
    let mut s = evil_socket(server);
    let frame = encode_frame(&[0xff, 0xee, 0xdd]).unwrap();
    s.write_all(&frame).unwrap();
    match read_response(&mut s) {
        Some(ResponseEnvelope {
            body: ResponseBody::Error(e),
            ..
        }) => assert_eq!(e.kind(), "network"),
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

/// A sealed answer of two full chunks and a three-frame tail.
fn three_chunk_answer() -> WireQueryReport {
    let w = ada_workload::gpcr_workload(120, 2 * QUERY_CHUNK_FRAMES + 3, 41);
    WireQueryReport::from_report(&QueryReport {
        indexer: ada_storagesim::SimDuration(0),
        read: ada_storagesim::SimDuration(0),
        data: RetrievedData::Real(w.trajectory),
        profile: None,
    })
    .expect("seal the answer")
}

/// A hostile server answers one query with a well-framed response (valid
/// frame CRC, valid envelope, matching request id) whose payload has one
/// flipped byte inside chunk 1 of three. The client must hand the answer
/// over (the frame is fine) and `trajectory()` must refuse it with a
/// typed `xtcf` error naming chunk 1.
fn corrupt_chunk_in_response_is_typed() {
    let mut wire = three_chunk_answer();
    let WirePayload::Xtcf(bytes) = &mut wire.payload else {
        panic!("a real report must seal an XTCF payload");
    };
    let dir = parse_directory(bytes)
        .expect("directory parses")
        .expect("payload is v2");
    assert_eq!(dir.nchunks(), 3);
    bytes[dir.entries[1].offset as usize + 60] ^= 0x10;

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
        let resp = ResponseEnvelope {
            id,
            body: ResponseBody::Query(wire),
        };
        let frame = encode_frame(&resp.encode()).unwrap();
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
    let rep = victim
        .query("shared", Some("p"))
        .expect("the frame itself is valid, so the transport must deliver it");
    let err = rep
        .trajectory()
        .expect_err("a corrupt chunk must never decode into frames");
    assert_eq!(err.kind(), "xtcf", "{}", err);
    let text = err.to_string();
    assert!(text.contains("corrupt chunk 1"), "{}", text);
    assert!(text.contains("checksum"), "{}", text);
    evil.join().expect("evil server thread must not panic");
}

/// The corpus with N background clients hammering the same server; every
/// background request must resolve Ok (the server stays fully usable
/// while hostile peers are being evicted).
fn corpus_under_background_load(background: usize) {
    let _guard = serialize();
    let server = start_fault_server();
    let w = ada_workload::gpcr_workload(300, 3, 17);
    let pdb = ada_mdformats::write_pdb(&w.system);
    let xtc = ada_mdformats::xtc::write_xtc(&w.trajectory, ada_mdformats::xtc::DEFAULT_PRECISION)
        .unwrap();
    well_behaved_client(&server, "setup")
        .ingest("shared", &pdb, &xtc)
        .unwrap();

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..background {
            let server = &server;
            let stop = &stop;
            handles.push(scope.spawn(move || {
                let client = well_behaved_client(server, &format!("bg{}", t));
                let mut served = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    client.query("shared", Some("p")).expect("background query");
                    served += 1;
                }
                served
            }));
        }

        run_fault_corpus(&server);
        corrupt_chunk_in_response_is_typed();

        stop.store(true, Ordering::Relaxed);
        for h in handles {
            let served = h.join().expect("background client must not panic");
            assert!(served > 0, "background client never got a request through");
        }
    });

    // The server is still healthy for a fresh client after the corpus.
    well_behaved_client(&server, "after")
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
        assert_eq!(err.kind(), "network", "{}: {}", what, err);
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
        assert_eq!(err.kind(), "network");
    }
}

/// What a hostile server's chunk stream must come to at the client.
enum Expect {
    /// `Client::query` fails with a `network` error mentioning this.
    Network(&'static str),
    /// `Client::query` fails with exactly this error text.
    Remote(&'static str),
    /// `Client::query` succeeds; `trajectory()` fails with an `xtcf`
    /// error mentioning this.
    Xtcf(&'static str),
}

/// The stream side of the client corpus: a hostile server answers a tag
/// query with a chunk stream that is broken in one way. Each must end in
/// one typed error and no report — within bounded time, and with nothing
/// sized from what the head merely claims.
#[test]
fn hostile_chunk_streams_yield_one_typed_error_and_no_report() {
    let _guard = serialize();
    let WirePayload::Xtcf(container) = three_chunk_answer().payload else {
        panic!("a real report must seal an XTCF payload");
    };
    let dir = parse_directory(&container).unwrap().unwrap();
    let natoms = dir.entries[0].natoms;
    let record = frame_record_len(natoms as usize);
    let chunks: Vec<(Vec<u8>, u32)> = dir
        .entries
        .iter()
        .map(|e| {
            let start = e.offset as usize;
            let body = &container[start..start + e.nframes as usize * record];
            (body.to_vec(), e.crc)
        })
        .collect();
    let total = dir.nframes() as u64;

    // Each scenario: the announced total, the chunks to send (`Err` ends
    // the stream with an `unknown_dataset` error of that name), how many
    // bytes to cut off the end of the encoded stream before closing, and
    // the outcome.
    type Chunk = Result<(Vec<u8>, u32), &'static str>;
    let good = || -> Vec<Chunk> { chunks.iter().cloned().map(Ok).collect() };
    let trailer_len = HEADER_LEN + 8 + 1 + 32;
    let mut flipped = good();
    if let Ok((body, _)) = &mut flipped[1] {
        body[60] ^= 0x10;
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
            Expect::Xtcf("corrupt chunk 1"),
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
                chunk_frames: QUERY_CHUNK_FRAMES as u32,
            };
            let mut wire = Vec::new();
            let chunks = chunks.iter().map(|c| match c {
                Ok((body, crc)) => Ok((&body[..], *crc)),
                Err(name) => Err(AdaError::UnknownDataset(name.to_string())),
            });
            write_query_stream(&mut wire, head, 0, 0, chunks).unwrap();
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
                assert_eq!(e.kind(), "network", "{}: {}", what, e);
                assert!(e.to_string().contains(needle), "{}: {}", what, e);
            }
            (Expect::Remote(text), Err(e)) => {
                assert_eq!(e.kind(), "unknown_dataset", "{}: {}", what, e);
                assert!(e.to_string().ends_with(text), "{}: {}", what, e);
            }
            (Expect::Xtcf(needle), Ok(rep)) => {
                let e = rep.trajectory().expect_err(what);
                assert_eq!(e.kind(), "xtcf", "{}: {}", what, e);
                assert!(e.to_string().contains(needle), "{}: {}", what, e);
                assert!(e.to_string().contains("checksum"), "{}: {}", what, e);
            }
            (_, Ok(_)) => panic!("{}: the client handed out a report", what),
            (_, Err(e)) => panic!("{}: unexpected error {}", what, e),
        }
        evil.join().expect("evil server thread must not panic");
    }
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
    let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
    let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
    let cs = Arc::new(ContainerSet::new(vec![
        ("ssd".into(), ssd.clone()),
        ("hdd".into(), hdd),
    ]));
    let config = AdaConfig {
        chunk_frames: 2,
        ..AdaConfig::paper_prototype("ssd", "hdd")
    };
    let ada = Arc::new(Ada::new(config, cs, ssd.clone()));
    let fe = Arc::new(Frontend::new(Arc::clone(&ada), FrontendConfig::default()));
    let mut server = Server::start(fe, ServerConfig::default()).expect("server must start");
    let client = well_behaved_client(&server, "reader");
    let w = ada_workload::gpcr_workload(300, 6, 37);
    let pdb = ada_mdformats::write_pdb(&w.system);
    let xtc = ada_mdformats::xtc::write_xtc(&w.trajectory, ada_mdformats::xtc::DEFAULT_PRECISION)
        .unwrap();
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
    let mut bytes = content.as_real().expect("real dropping").to_vec();
    let dir = parse_directory(&bytes).unwrap().unwrap();
    assert_eq!(dir.nchunks(), 3);
    bytes[dir.entries[1].offset as usize + 60] ^= 0x10;
    ssd.delete(&path).unwrap();
    ssd.create(&path, Content::real(bytes)).unwrap();

    let local = ada.query("ds", Some(&Tag::protein())).unwrap_err();
    assert_eq!(local.kind(), "xtcf");
    assert!(local.to_string().contains("corrupt chunk 1"), "{}", local);
    let remote = client
        .query("ds", Some("p"))
        .expect_err("no report may be handed out");
    assert_eq!(remote.kind(), local.kind());
    assert_eq!(remote.to_string(), local.to_string());

    // The same answer frame by frame: head, chunk 0 as stored, then the
    // error — nothing of chunk 1 or 2.
    let mut s = evil_socket(&server);
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
    assert_eq!(chunk0, content.as_real().unwrap()[start0..start0 + len0]);
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
    server.shutdown();
}

/// Graceful shutdown with clients in flight: every in-flight call either
/// completes or fails typed; `shutdown()` joins every server thread; the
/// port stops accepting.
#[test]
fn graceful_shutdown_with_clients_in_flight() {
    let _guard = serialize();
    let mut server = start_fault_server();
    let addr = server.local_addr();
    let w = ada_workload::gpcr_workload(300, 3, 29);
    let pdb = ada_mdformats::write_pdb(&w.system);
    let xtc = ada_mdformats::xtc::write_xtc(&w.trajectory, ada_mdformats::xtc::DEFAULT_PRECISION)
        .unwrap();
    well_behaved_client(&server, "setup")
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
                            err_kind = Some(e.kind().to_string());
                            break;
                        }
                    }
                }
                (ok, err_kind)
            }));
        }
        // Let the clients get in flight, then pull the plug mid-stream.
        // shutdown() returning means every server thread was joined.
        std::thread::sleep(Duration::from_millis(100));
        server.shutdown();
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            let (ok, err_kind) = h.join().expect("client thread must not panic");
            total_ok += ok;
            if let Some(kind) = err_kind {
                // In-flight work severed by shutdown fails typed, as a
                // transport error or a shed — never an untyped shape.
                assert!(
                    kind == "network" || kind == "overloaded",
                    "unexpected error kind {}",
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
    assert_eq!(err.kind(), "network");
}

/// What a connection's single thread owes a peer that sends ahead of its
/// answers: K frames written back to back before anything is read — pings,
/// a tag query, one well-framed garbage payload in the middle — come back
/// as K responses in request order, the garbage as a typed `network` error
/// under its own id, and the frames behind it are still served.
#[test]
fn pipelined_frames_are_answered_in_request_order() {
    let _guard = serialize();
    let mut server = start_fault_server();
    let w = ada_workload::gpcr_workload(300, 3, 23);
    let pdb = ada_mdformats::write_pdb(&w.system);
    let xtc = ada_mdformats::xtc::write_xtc(&w.trajectory, ada_mdformats::xtc::DEFAULT_PRECISION)
        .unwrap();
    well_behaved_client(&server, "setup")
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
    let mut s = evil_socket(&server);
    s.write_all(&burst).unwrap();

    for id in 1..=K {
        let resp = read_response(&mut s).expect("one response per frame sent");
        assert_eq!(resp.id, id, "responses must come back in request order");
        match (id, resp.body) {
            (GARBAGE_ID, ResponseBody::Error(e)) => assert_eq!(e.kind(), "network", "{}", e),
            (QUERY_ID, ResponseBody::Query(rep)) => {
                assert_eq!(rep.trajectory().expect("payload decodes").len(), 3)
            }
            (GARBAGE_ID | QUERY_ID, other) => panic!("frame {}: wrong answer {:?}", id, other),
            (_, ResponseBody::Pong) => {}
            (_, other) => panic!("frame {}: expected a pong, got {:?}", id, other),
        }
    }
    server.shutdown();
}

/// A peer that sends queries and never reads an answer holds its
/// connection only until a write makes no progress for `frame_timeout`:
/// with one connection allowed, a well-behaved client gets in again — at
/// the parent commit it was `Overloaded` until shutdown.
#[test]
fn peer_that_never_reads_is_evicted_and_frees_its_connection() {
    let _guard = serialize();
    let frame_timeout = Duration::from_millis(300);
    let fe = Arc::new(Frontend::new(make_ada(), FrontendConfig::default()));
    let mut server = Server::start(
        Arc::clone(&fe),
        ServerConfig {
            max_connections: 1,
            frame_timeout,
            ..ServerConfig::default()
        },
    )
    .expect("server must start");

    // In process, so the one connection is still free for the hostile peer.
    let w = ada_workload::gpcr_workload(3000, 32, 31);
    let input = IngestInput::Real {
        pdb_text: ada_mdformats::write_pdb(&w.system),
        xtc_bytes: ada_mdformats::xtc::write_xtc(
            &w.trajectory,
            ada_mdformats::xtc::DEFAULT_PRECISION,
        )
        .unwrap(),
    };
    let raw_bytes = fe.ingest("setup", "big", input).unwrap().raw_bytes;
    assert!(raw_bytes >= 1 << 20, "answer too small: {} B", raw_bytes);

    // 64 answers of ≥ 1 MiB are several times what the loopback socket
    // buffers between the two ends can absorb.
    let mut deaf = evil_socket(&server);
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

    let patient = well_behaved_client(&server, "patient");
    let give_up = Instant::now() + frame_timeout + Duration::from_secs(3);
    loop {
        match patient.ping() {
            Ok(()) => break,
            Err(e) if e.kind() == "overloaded" && Instant::now() < give_up => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("the deaf peer still holds the only connection: {}", e),
        }
    }
    drop(deaf);
    server.shutdown();
}

/// A peer that puts a fresh client name on every request must not grow
/// the metric registry with it: the first 64 names a `Frontend` meets get
/// a `frontend.client.{name}.*` family each, every later one is counted
/// under `frontend.client.other.*`.
#[test]
fn ten_thousand_client_names_leave_a_bounded_metric_family() {
    let _guard = serialize();
    const NAMES: u64 = 10_000;
    const FAMILIES: u64 = 64; // ada-frontend's CLIENT_FAMILIES_MAX
    let client_counters = || -> Vec<(String, u64)> {
        ada_telemetry::global()
            .snapshot()
            .counters
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
    let mut server = start_fault_server();
    let before = client_counters();

    // A query of a dataset nobody ingested is admitted, then fails typed:
    // the cheapest request that passes admission accounting.
    let mut s = evil_socket(&server);
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
                ResponseBody::Error(e) => assert_eq!(e.kind(), "unknown_dataset", "{}", e),
                other => panic!("request {}: expected a typed error, got {:?}", id, other),
            }
        }
    }

    let after = client_counters();
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
        let name = format!("frontend.client.swarm-{}.accepted", id);
        assert_eq!(count_of(&after, &name), 1, "{}", name);
    }
    let other = "frontend.client.other.accepted";
    assert_eq!(
        count_of(&after, other) - count_of(&before, other),
        NAMES - FAMILIES
    );
    server.shutdown();
}
