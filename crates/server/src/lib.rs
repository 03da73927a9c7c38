//! `ada-server`: a TCP daemon exposing the in-process
//! [`ada_frontend::Frontend`] over the `ada-proto` wire protocol.
//!
//! The daemon adds transport, not semantics: every request decoded off
//! the wire is driven through [`Frontend::run_rooted`] under a trace
//! root minted from the wire-carried trace id
//! ([`trace::root_remote`]), so admission, shedding, deadlines, and the
//! flight-recorder tree behave exactly as they do for an in-process
//! caller — the protocol equivalence suite holds the two paths
//! bit-identical (every delivered `f32`).
//!
//! ## Threading model
//!
//! One nonblocking accept loop polls a stop flag; each accepted
//! connection gets **one** named thread (`ada-server-conn-{id}`) that
//! serves it one request at a time: deframe ([`ada_proto::read_frame`]
//! behind the idle and whole-frame deadlines, which evict silent and
//! slow-loris peers), decode, run the request through the frontend,
//! write. The frontend owns no threads, so the thread that read
//! the request is the thread that waits for the admission slot, holds it,
//! runs the middleware and writes the answer.
//!
//! A real-mode query answer leaves as a stream of chunk frames
//! ([`ada_proto::stream`]). A whole-tag `Query` is **forwarded**: the
//! slot covers index + fetch ([`ada_core::Ada::query_stored`]), and the
//! stored chunks go from the backend's own bytes to the socket, each
//! checked just before it is written — no decode, no re-seal, nothing
//! allocated in proportion to the answer. A full-frame or ranged answer
//! has to be assembled, so it is decoded and sealed as before and then
//! streamed chunk by chunk out of that one container.
//!
//! Requests a peer sends ahead of their answers wait in the socket
//! buffers: TCP back-pressure is the bound on what a connection can hold
//! — no decoded request and at most one answer — and the answers
//! come back in request order. A peer that stops *reading* stalls the
//! write; `frame_timeout` bounds that as it bounds a stalled request
//! frame, and the connection closes.
//!
//! ## Shutdown sequence
//!
//! [`Server::shutdown`] sets the stop flag, then the accept loop calls
//! `TcpStream::shutdown(Both)` on every registered connection. A
//! connection thread waiting for a frame observes EOF (or the flag at its
//! next poll tick) and returns; one inside a request finishes it, fails
//! the write and returns. The accept thread joins every connection
//! thread before exiting, so no thread outlives the `Server`.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

use std::io::{ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ada_core::{AdaError, IngestInput, QueryReport, StoredAnswer};
use ada_frontend::{Class, Frontend};
use ada_mdmodel::Tag;
use ada_proto::{
    read_frame, write_query_stream, write_response, ProtoError, RequestBody, RequestEnvelope,
    ResponseBody, ResponseEnvelope, Sent, StreamHead, WireIngestReport, WireQueryReport,
    DEFAULT_MAX_FRAME, HEADER_LEN,
};
use ada_sync::Mutex;
use ada_telemetry::trace::{self, TraceSpanGuard};
use ada_telemetry::{Counter, Gauge, Histogram};

/// Tuning knobs for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::local_addr`]).
    pub addr: String,
    /// Connections beyond this are answered with a typed `Overloaded`
    /// error frame and closed.
    pub max_connections: usize,
    /// A connection idle (no frame started) longer than this is closed.
    pub idle_timeout: Duration,
    /// A frame that started arriving must complete within this window —
    /// the slow-loris bound — and a response frame the peer takes nothing
    /// of for this long is abandoned with the connection.
    pub frame_timeout: Duration,
    /// Receive-side limit on a frame's payload; larger declared lengths
    /// are rejected before allocation.
    pub max_frame_len: u32,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            idle_timeout: Duration::from_secs(30),
            frame_timeout: Duration::from_secs(10),
            max_frame_len: DEFAULT_MAX_FRAME,
        }
    }
}

/// How often blocked socket reads and the accept loop wake to check the
/// stop flag and deadlines.
const POLL_TICK: Duration = Duration::from_millis(25);

/// Global-registry handles, resolved once in [`Server::start`]: no request
/// looks a `server.*` metric up by name.
struct Metrics {
    requests: Arc<Counter>,
    request_errors: Arc<Counter>,
    request_ns: Arc<Histogram>,
    bytes_read: Arc<Counter>,
    bytes_written: Arc<Counter>,
    write_errors: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    accepted: Arc<Counter>,
    rejected: Arc<Counter>,
    active: Arc<Gauge>,
    accept_errors: Arc<Counter>,
    connection_panics: Arc<Counter>,
}

impl Metrics {
    fn register() -> Metrics {
        let reg = ada_telemetry::global();
        Metrics {
            requests: reg.counter("server.requests"),
            request_errors: reg.counter("server.request.errors"),
            request_ns: reg.histogram("server.request.ns"),
            bytes_read: reg.counter("server.bytes.read"),
            bytes_written: reg.counter("server.bytes.written"),
            write_errors: reg.counter("server.write.errors"),
            protocol_errors: reg.counter("server.protocol.errors"),
            accepted: reg.counter("server.connections.accepted"),
            rejected: reg.counter("server.connections.rejected"),
            active: reg.gauge("server.connections.active"),
            accept_errors: reg.counter("server.accept.errors"),
            connection_panics: reg.counter("server.connection.panics"),
        }
    }
}

struct Shared {
    frontend: Arc<Frontend>,
    config: ServerConfig,
    metrics: Metrics,
    stop: Arc<AtomicBool>,
    /// Clones of live connection sockets, keyed by connection id, so
    /// shutdown can sever every socket without waiting for idle timers.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    next_conn_id: AtomicU64,
}

impl Shared {
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = match stream.try_clone() {
            Ok(c) => c,
            Err(_) => return None,
        };
        let id = self.next_conn_id.fetch_add(1, Ordering::Relaxed);
        self.conns.lock().push((id, clone));
        Some(id)
    }

    fn unregister(&self, id: u64) {
        let mut conns = self.conns.lock();
        conns.retain(|(cid, _)| *cid != id);
        self.metrics.active.set(conns.len() as i64);
    }
}

/// A running daemon. Dropping it without calling [`Server::shutdown`]
/// shuts it down (threads are joined either way).
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `config.addr` and start serving `frontend`.
    pub fn start(frontend: Arc<Frontend>, config: ServerConfig) -> Result<Server, AdaError> {
        let listener = TcpListener::bind(&config.addr).map_err(|e| AdaError::Network {
            detail: format!("bind {}: {}", config.addr, e),
        })?;
        let local_addr = listener.local_addr().map_err(|e| AdaError::Network {
            detail: format!("local_addr: {}", e),
        })?;
        listener
            .set_nonblocking(true)
            .map_err(|e| AdaError::Network {
                detail: format!("set_nonblocking: {}", e),
            })?;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            frontend,
            config,
            metrics: Metrics::register(),
            stop: Arc::clone(&stop),
            conns: Mutex::new(Vec::new()),
            next_conn_id: AtomicU64::new(1),
        });
        // The accept loop owns every per-connection handler handle and
        // joins them before exiting, so joining it in `shutdown()` means
        // no server thread is left running.
        let accept = thread::Builder::new()
            .name("ada-server-accept".to_string())
            .spawn(move || accept_loop(listener, shared))
            .map_err(|e| AdaError::Network {
                detail: format!("spawn accept loop: {}", e),
            })?;
        Ok(Server {
            local_addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The address the daemon actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, sever live connections, and join every server
    /// thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            if handle.join().is_err() {
                ada_telemetry::global()
                    .counter("server.connection.panics")
                    .inc();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let metrics = &shared.metrics;
    let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, peer)) => {
                metrics.accepted.inc();
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let active = shared.conns.lock().len();
                if active >= shared.config.max_connections {
                    metrics.rejected.inc();
                    reject_connection(stream, active);
                    continue;
                }
                let Some(conn_id) = shared.register(&stream) else {
                    continue;
                };
                metrics.active.set((active + 1) as i64);
                let conn_shared = Arc::clone(&shared);
                let spawned = thread::Builder::new()
                    .name(format!("ada-server-conn-{}", conn_id))
                    .spawn(move || handle_connection(conn_shared, stream, conn_id, peer));
                match spawned {
                    Ok(handle) => handlers.push(handle),
                    Err(_) => shared.unregister(conn_id),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(POLL_TICK);
            }
            Err(_) => {
                metrics.accept_errors.inc();
                thread::sleep(POLL_TICK);
            }
        }
    }
    // Sever every live socket so blocked readers observe EOF promptly.
    for (_, stream) in shared.conns.lock().iter() {
        let _ = stream.shutdown(Shutdown::Both);
    }
    for handle in handlers {
        if handle.join().is_err() {
            metrics.connection_panics.inc();
        }
    }
}

/// Tell an over-limit peer why it is being dropped (best-effort) with a
/// connection-level (id 0) typed error frame.
fn reject_connection(mut stream: TcpStream, active: usize) {
    let resp = ResponseEnvelope {
        id: 0,
        body: ResponseBody::Error(AdaError::Overloaded {
            queue_depth: active,
            retry_after: Duration::from_millis(100),
        }),
    };
    let _ = write_response(&mut stream, &resp);
    let _ = stream.shutdown(Shutdown::Both);
}

fn handle_connection(shared: Arc<Shared>, stream: TcpStream, conn_id: u64, peer: SocketAddr) {
    if let Err(proto_err) = serve_connection(&shared, &stream) {
        // The byte stream is no longer trustworthy: say why under the
        // connection-level id 0 (best-effort), then close.
        shared.metrics.protocol_errors.inc();
        let resp = ResponseEnvelope {
            id: 0,
            body: ResponseBody::Error(AdaError::Network {
                detail: format!("{} (peer {})", proto_err, peer),
            }),
        };
        send_response(&shared.metrics, &stream, resp);
    }
    let _ = stream.shutdown(Shutdown::Both);
    shared.unregister(conn_id);
}

/// Serve one connection on the calling thread: deframe, decode, execute,
/// write, one request at a time. Returns `Ok` at a clean EOF, at
/// the stop flag and after a failed write; `Err` for an idle or frame
/// deadline and for any transport or framing violation. Structural decode
/// failures on a well-framed payload are answered with a typed error
/// frame and the connection keeps serving.
fn serve_connection(shared: &Shared, stream: &TcpStream) -> Result<(), ProtoError> {
    let (config, metrics) = (&shared.config, &shared.metrics);
    stream.set_read_timeout(Some(POLL_TICK))?;
    // `frame_timeout` in the other direction: a peer that stops reading
    // its answers is dropped like one that stops sending its request.
    stream.set_write_timeout(Some(config.frame_timeout))?;
    // A streamed answer ends in a small trailer frame; behind Nagle it
    // would wait for the peer's delayed ACK of the chunk before it.
    stream.set_nodelay(true)?;
    loop {
        let mut patient = PatientRead {
            stream,
            shared,
            idle_deadline: Instant::now() + config.idle_timeout,
            frame_deadline: None,
            stopping: false,
        };
        let payload = match read_frame(&mut patient, config.max_frame_len) {
            Ok(Some(payload)) => payload,
            Ok(None) => return Ok(()),
            Err(_) if patient.stopping => return Ok(()),
            Err(e) => return Err(e),
        };
        metrics
            .bytes_read
            .add(payload.len() as u64 + HEADER_LEN as u64);
        let delivered = match RequestEnvelope::decode(&payload) {
            Ok(env) => {
                drop(payload);
                // The root outlives the write: the send is part of the
                // request's trace.
                let (mut root, id, answer) = execute_request(shared, env);
                send_answer(metrics, stream, id, answer, &mut root)
            }
            Err(e) => {
                // The frame passed CRC, so the stream is still aligned:
                // answer with a typed error and keep the connection.
                metrics.protocol_errors.inc();
                let resp = ResponseEnvelope {
                    id: peek_request_id(&payload),
                    body: ResponseBody::Error(AdaError::from(e)),
                };
                send_response(metrics, stream, resp)
            }
        };
        if !delivered {
            return Ok(());
        }
    }
}

/// What a request left to be written.
enum Answer {
    /// A response in hand. A real-mode query report among these is a
    /// sealed container, and leaves as the stream of its chunks.
    Body(ResponseBody),
    /// A whole tag as the backend stores it, to be forwarded chunk by
    /// chunk.
    Stored(StoredAnswer),
}

/// What an admitted query produced while it held its slot.
enum Queried {
    Stored(StoredAnswer),
    Decoded(QueryReport),
}

impl Queried {
    /// The answer to write: a decoded report is sealed for the wire here,
    /// after the slot is released.
    fn into_answer(self) -> Result<Answer, AdaError> {
        match self {
            Queried::Stored(stored) => Ok(Answer::Stored(stored)),
            Queried::Decoded(rep) => WireQueryReport::from_report(&rep)
                .map(|wire| Answer::Body(ResponseBody::Query(wire))),
        }
    }
}

/// Count what a write put on the wire; `None` when the peer is gone or
/// took nothing for `frame_timeout`.
fn written(metrics: &Metrics, res: Result<Sent, ProtoError>) -> Option<Sent> {
    match res {
        Ok(sent) => {
            metrics.bytes_written.add(sent.bytes);
            Some(sent)
        }
        Err(_) => {
            metrics.write_errors.inc();
            None
        }
    }
}

/// Write a response no request root covers; `false` when the connection
/// is done for.
fn send_response(metrics: &Metrics, mut stream: &TcpStream, resp: ResponseEnvelope) -> bool {
    written(metrics, write_response(&mut stream, &resp)).is_some()
}

/// Write a request's answer under its root, as one `server.send` span;
/// `false` when the connection is done for. A stored answer is checked
/// chunk by chunk as it leaves, so it can still fail here, after its
/// first chunks are gone: the stream then ends in the typed error, which
/// counts as the request's.
fn send_answer(
    metrics: &Metrics,
    mut stream: &TcpStream,
    id: u64,
    answer: Answer,
    root: &mut TraceSpanGuard,
) -> bool {
    let mut span = root.ctx().span("server.send");
    let (res, forwarded) = match answer {
        Answer::Body(body) => {
            let resp = ResponseEnvelope { id, body };
            (write_response(&mut stream, &resp), "false")
        }
        Answer::Stored(stored) => {
            let head = StreamHead {
                id,
                natoms: u32::try_from(stored.natoms()).unwrap_or(u32::MAX),
                nframes: stored.nframes() as u64,
                chunk_frames: stored.chunk_frames(),
            };
            let chunks = stored
                .chunks()
                .map(|chunk| chunk.map(|(body, _, crc)| (body, crc)));
            let (indexer, read) = (stored.indexer.0, stored.read.0);
            (
                write_query_stream(&mut stream, head, indexer, read, chunks),
                "true",
            )
        }
    };
    span.arg("forwarded", forwarded);
    let Some(sent) = written(metrics, res) else {
        span.set_error("network");
        return false;
    };
    span.arg("chunks", sent.chunks);
    span.arg("bytes", sent.bytes);
    if let Some(e) = sent.error {
        metrics.request_errors.inc();
        span.set_error(e.kind());
        root.set_error(e.kind());
    }
    true
}

/// The connection's socket as [`read_frame`] sees it for one frame: the
/// socket has a short `SO_RCVTIMEO` ([`POLL_TICK`]), and every timeout
/// tick re-checks the stop flag, the frame deadline (a frame started
/// arriving but has not completed — the slow-loris case) and the idle
/// deadline (no frame started) before reading again.
struct PatientRead<'a> {
    stream: &'a TcpStream,
    shared: &'a Shared,
    idle_deadline: Instant,
    /// Set by the frame's first byte.
    frame_deadline: Option<Instant>,
    /// The read failed because the stop flag is up, not because of the peer.
    stopping: bool,
}

impl Read for PatientRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let config = &self.shared.config;
        loop {
            let e = match self.stream.read(buf) {
                Ok(n) => {
                    if n > 0 {
                        self.frame_deadline
                            .get_or_insert_with(|| Instant::now() + config.frame_timeout);
                    }
                    return Ok(n);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => e,
                Err(e) => return Err(e),
            };
            if self.shared.stop.load(Ordering::SeqCst) {
                self.stopping = true;
                return Err(e);
            }
            let late = match self.frame_deadline {
                Some(d) if Instant::now() >= d => format!(
                    "frame incomplete after {:?} (slow peer)",
                    config.frame_timeout
                ),
                None if Instant::now() >= self.idle_deadline => {
                    format!("idle for {:?}", config.idle_timeout)
                }
                _ => continue,
            };
            return Err(std::io::Error::new(ErrorKind::TimedOut, late));
        }
    }
}

/// Best-effort extraction of the request id from a payload that failed
/// structural decoding, so the error frame can still be correlated.
fn peek_request_id(payload: &[u8]) -> u64 {
    if payload.len() >= 8 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&payload[..8]);
        u64::from_le_bytes(b)
    } else {
        0
    }
}

/// Drive one decoded request through the frontend under a trace root
/// minted from the wire-carried trace id. Returns the root — the caller
/// keeps it open across the write — with the request id and the answer.
fn execute_request(shared: &Shared, env: RequestEnvelope) -> (TraceSpanGuard, u64, Answer) {
    let (frontend, metrics) = (&shared.frontend, &shared.metrics);
    metrics.requests.inc();
    let started = Instant::now();
    let (_, mut root) = trace::root_remote("server.request", env.trace_id);
    let deadline = (env.deadline_ns != 0).then(|| Duration::from_nanos(env.deadline_ns));
    let RequestEnvelope {
        id, client, body, ..
    } = env;
    if matches!(body, RequestBody::Ping | RequestBody::CacheStats) {
        // Answered without admission; `run_rooted` names every other root.
        root.arg("op", body.op_name());
        root.arg("client", client.as_str());
    }

    let outcome: Result<Answer, AdaError> = match body {
        RequestBody::Ping => Ok(Answer::Body(ResponseBody::Pong)),
        RequestBody::CacheStats => Ok(Answer::Body(ResponseBody::CacheStats(
            frontend.ada().cache_stats(),
        ))),
        RequestBody::Ingest {
            dataset,
            pdb_text,
            xtc_bytes,
        } => {
            let input = IngestInput::Real {
                pdb_text,
                xtc_bytes,
            };
            frontend
                .run_rooted(
                    Class::Ingest,
                    "ingest",
                    &client,
                    deadline,
                    &mut root,
                    |ada, ctx| ada.ingest_traced(&dataset, input, ctx),
                )
                .map(|rep| Answer::Body(ResponseBody::Ingest(WireIngestReport::from_report(&rep))))
        }
        RequestBody::Query { dataset, tag } => {
            let tag = tag.map(Tag::new);
            // A whole tag is forwarded as stored; what is not stored in
            // forwardable form (a size-only dataset, a v1 dropping) and
            // the full-frame query take the decoded path. Either way the
            // slot is gone before anything is sealed or written.
            frontend
                .run_rooted(
                    Class::Query,
                    "query",
                    &client,
                    deadline,
                    &mut root,
                    |ada, ctx| {
                        let stored = match &tag {
                            Some(tag) => ada.query_stored(&dataset, tag, ctx)?,
                            None => None,
                        };
                        match stored {
                            Some(stored) => Ok(Queried::Stored(stored)),
                            None => ada
                                .query_traced(&dataset, tag.as_ref(), ctx)
                                .map(Queried::Decoded),
                        }
                    },
                )
                .and_then(Queried::into_answer)
        }
        RequestBody::QueryRange {
            dataset,
            tag,
            start,
            end,
            stride,
        } => {
            let tag = Tag::new(tag);
            let window = start as usize..end as usize;
            frontend
                .run_rooted(
                    Class::Query,
                    "query_range",
                    &client,
                    deadline,
                    &mut root,
                    |ada, ctx| ada.query_range_traced(&dataset, &tag, window, stride as usize, ctx),
                )
                .and_then(|rep| Queried::Decoded(rep).into_answer())
        }
    };

    metrics
        .request_ns
        .record(started.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    let answer = outcome.unwrap_or_else(|e| {
        metrics.request_errors.inc();
        Answer::Body(ResponseBody::Error(e))
    });
    (root, id, answer)
}
