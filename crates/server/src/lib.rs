//! `ada-server`: a TCP daemon exposing the in-process
//! [`ada_frontend::Frontend`] over the `ada-proto` wire protocol.
//!
//! The daemon adds transport, not semantics: every request decoded off
//! the wire is driven through [`Frontend::submit_rooted`] under a trace
//! root minted from the wire-carried trace id
//! ([`trace::root_remote`]), so admission, shedding, deadlines, and the
//! flight-recorder tree behave exactly as they do for an in-process
//! caller — the protocol equivalence suite holds the two paths
//! bit-identical (every delivered `f32`).
//!
//! ## Threading model
//!
//! One nonblocking accept loop polls a stop flag; each accepted
//! connection gets three threads joined at connection teardown:
//!
//! - a **reader** that deframes and decodes requests (with an idle
//!   timeout between frames and a whole-frame deadline once the first
//!   byte of a frame arrives, which evicts slow-loris peers),
//! - an **executor** that drives decoded requests through the frontend
//!   (in-flight bounded by the `sync_channel` between reader and
//!   executor) — the frontend owns no threads, so this is the thread that
//!   waits for the admission slot, holds it and runs the request — and
//! - a **writer** that frames responses back to the socket.
//!
//! ## Shutdown sequence
//!
//! [`Server::shutdown`] sets the stop flag, then the accept loop calls
//! `TcpStream::shutdown(Both)` on every registered connection. Readers
//! observe EOF (or the flag at their next poll tick) and drop their job
//! channel; executors drain and drop the response channel; writers
//! flush what remains and exit. The accept thread joins every
//! connection handler before exiting, so no thread outlives the
//! `Server`.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ada_core::{AdaError, IngestInput};
use ada_frontend::{Frontend, Reply, Request};
use ada_mdmodel::Tag;
use ada_proto::{
    parse_header, verify_payload, write_frame, ProtoError, RequestBody, RequestEnvelope,
    ResponseBody, ResponseEnvelope, WireIngestReport, WireQueryReport, DEFAULT_MAX_FRAME,
    HEADER_LEN,
};
use ada_telemetry::trace;
use parking_lot::Mutex;

/// Tuning knobs for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::local_addr`]).
    pub addr: String,
    /// Connections beyond this are answered with a typed `Overloaded`
    /// error frame and closed.
    pub max_connections: usize,
    /// Decoded requests buffered between a connection's reader and its
    /// executor; the reader stops deframing once this many are pending.
    pub max_in_flight: usize,
    /// A connection idle (no frame started) longer than this is closed.
    pub idle_timeout: Duration,
    /// A frame that started arriving must complete within this window —
    /// the slow-loris bound.
    pub frame_timeout: Duration,
    /// Receive-side payload limit; larger declared lengths are rejected
    /// before allocation.
    pub max_frame_len: u32,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            max_in_flight: 4,
            idle_timeout: Duration::from_secs(30),
            frame_timeout: Duration::from_secs(10),
            max_frame_len: DEFAULT_MAX_FRAME,
        }
    }
}

/// How often blocked socket reads and the accept loop wake to check the
/// stop flag and deadlines.
const POLL_TICK: Duration = Duration::from_millis(25);

struct Shared {
    frontend: Arc<Frontend>,
    config: ServerConfig,
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
        ada_telemetry::global()
            .gauge("server.connections.active")
            .set(conns.len() as i64);
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
    let registry = ada_telemetry::global();
    let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, peer)) => {
                registry.counter("server.connections.accepted").inc();
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let active = shared.conns.lock().len();
                if active >= shared.config.max_connections {
                    registry.counter("server.connections.rejected").inc();
                    reject_connection(stream, active);
                    continue;
                }
                let Some(conn_id) = shared.register(&stream) else {
                    continue;
                };
                registry
                    .gauge("server.connections.active")
                    .set((active + 1) as i64);
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
                registry.counter("server.accept.errors").inc();
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
            registry.counter("server.connection.panics").inc();
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
    let _ = write_frame(&mut stream, &resp.encode());
    let _ = stream.shutdown(Shutdown::Both);
}

/// Why the reader stopped deframing.
enum ReadEnd {
    /// Peer closed cleanly at a frame boundary.
    Eof,
    /// Stop flag observed.
    Stopping,
    /// Idle/frame deadline hit or a transport/framing violation; the
    /// byte stream is no longer trustworthy, so the connection closes
    /// after a best-effort error frame.
    Fatal(ProtoError),
}

fn handle_connection(shared: Arc<Shared>, stream: TcpStream, conn_id: u64, peer: SocketAddr) {
    let registry = ada_telemetry::global();
    let config = shared.config.clone();

    // reader -> executor (bounds in-flight requests per connection) and
    // executor/reader -> writer (encoded response frames).
    let (job_tx, job_rx) = sync_channel::<RequestEnvelope>(config.max_in_flight.max(1));
    let (resp_tx, resp_rx) = sync_channel::<Vec<u8>>(config.max_in_flight.max(1) + 1);

    let writer = stream.try_clone().ok().map(|mut wstream| {
        // ada-lint: allow(trace-context-propagated) byte pump: frames reaching this thread were already sealed under their request ctx by the executor
        thread::spawn(move || {
            for frame in resp_rx {
                if write_frame(&mut wstream, &frame).is_err() {
                    ada_telemetry::global().counter("server.write.errors").inc();
                    break;
                }
                ada_telemetry::global()
                    .counter("server.bytes.written")
                    .add(frame.len() as u64 + HEADER_LEN as u64);
            }
            let _ = wstream.shutdown(Shutdown::Write);
        })
    });

    let exec_frontend = Arc::clone(&shared.frontend);
    let exec_resp_tx = resp_tx.clone();
    let executor = thread::spawn(move || {
        for env in job_rx {
            let resp = execute_request(&exec_frontend, env);
            if exec_resp_tx.send(resp.encode()).is_err() {
                break; // writer is gone; the reader will notice EOF/stop
            }
        }
    });

    let end = read_loop(&shared, &stream, &config, &job_tx, &resp_tx);

    if let ReadEnd::Fatal(proto_err) = &end {
        registry.counter("server.protocol.errors").inc();
        let resp = ResponseEnvelope {
            id: 0,
            body: ResponseBody::Error(AdaError::Network {
                detail: format!("{} (peer {})", proto_err, peer),
            }),
        };
        let _ = resp_tx.send(resp.encode());
    }

    // Teardown in dependency order: no more jobs -> executor drains and
    // exits -> last response sender drops -> writer flushes and exits.
    drop(job_tx);
    if executor.join().is_err() {
        registry.counter("server.connection.panics").inc();
    }
    drop(resp_tx);
    if let Some(handle) = writer {
        if handle.join().is_err() {
            registry.counter("server.connection.panics").inc();
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    shared.unregister(conn_id);
}

/// Deframe and decode requests until EOF, stop, or a fatal violation.
/// Structural decode failures on a well-framed payload are answered with
/// a typed error frame and the connection keeps serving.
fn read_loop(
    shared: &Shared,
    stream: &TcpStream,
    config: &ServerConfig,
    job_tx: &std::sync::mpsc::SyncSender<RequestEnvelope>,
    resp_tx: &std::sync::mpsc::SyncSender<Vec<u8>>,
) -> ReadEnd {
    let registry = ada_telemetry::global();
    if stream.set_read_timeout(Some(POLL_TICK)).is_err() {
        return ReadEnd::Fatal(ProtoError::Io("set_read_timeout failed".to_string()));
    }
    loop {
        let payload = match read_frame_timed(stream, config, &shared.stop) {
            TimedRead::Frame(payload) => payload,
            TimedRead::Eof => return ReadEnd::Eof,
            TimedRead::Stopping => return ReadEnd::Stopping,
            TimedRead::Failed(e) => return ReadEnd::Fatal(e),
        };
        registry
            .counter("server.bytes.read")
            .add(payload.len() as u64 + HEADER_LEN as u64);
        match RequestEnvelope::decode(&payload) {
            Ok(env) => {
                if job_tx.send(env).is_err() {
                    // Executor died (its panic already became a counter);
                    // nothing can be served anymore.
                    return ReadEnd::Fatal(ProtoError::Io("executor is gone".to_string()));
                }
            }
            Err(e) => {
                // The frame passed CRC, so the stream is still aligned:
                // answer with a typed error and keep the connection.
                registry.counter("server.protocol.errors").inc();
                let resp = ResponseEnvelope {
                    id: peek_request_id(&payload),
                    body: ResponseBody::Error(AdaError::from(e)),
                };
                if resp_tx.send(resp.encode()).is_err() {
                    return ReadEnd::Fatal(ProtoError::Io("writer is gone".to_string()));
                }
            }
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

enum TimedRead {
    Frame(Vec<u8>),
    Eof,
    Stopping,
    Failed(ProtoError),
}

/// Read one frame under the connection's deadlines. The socket has a
/// short `SO_RCVTIMEO`; every timeout tick re-checks the stop flag, the
/// idle deadline (no frame started), and the frame deadline (a frame
/// started arriving but has not completed — the slow-loris case).
fn read_frame_timed(mut stream: &TcpStream, config: &ServerConfig, stop: &AtomicBool) -> TimedRead {
    let idle_deadline = Instant::now() + config.idle_timeout;
    let mut frame_deadline: Option<Instant> = None;

    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        match stream.read(&mut header[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    TimedRead::Eof
                } else {
                    TimedRead::Failed(ProtoError::Truncated {
                        needed: HEADER_LEN,
                        got: filled,
                    })
                };
            }
            Ok(n) => {
                filled += n;
                frame_deadline.get_or_insert_with(|| Instant::now() + config.frame_timeout);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    return TimedRead::Stopping;
                }
                match frame_deadline {
                    Some(d) if Instant::now() >= d => {
                        return TimedRead::Failed(ProtoError::Io(format!(
                            "frame incomplete after {:?} (slow peer)",
                            config.frame_timeout
                        )));
                    }
                    None if Instant::now() >= idle_deadline => {
                        return TimedRead::Failed(ProtoError::Io(format!(
                            "idle for {:?}",
                            config.idle_timeout
                        )));
                    }
                    _ => {}
                }
            }
            Err(e) => return TimedRead::Failed(ProtoError::Io(e.to_string())),
        }
    }

    let h = match parse_header(&header, config.max_frame_len) {
        Ok(h) => h,
        Err(e) => return TimedRead::Failed(e),
    };
    let mut payload = vec![0u8; h.len as usize];
    let mut filled = 0usize;
    while filled < payload.len() {
        match stream.read(&mut payload[filled..]) {
            Ok(0) => {
                return TimedRead::Failed(ProtoError::Truncated {
                    needed: payload.len(),
                    got: filled,
                });
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    return TimedRead::Stopping;
                }
                if let Some(d) = frame_deadline {
                    if Instant::now() >= d {
                        return TimedRead::Failed(ProtoError::Io(format!(
                            "frame incomplete after {:?} (slow peer)",
                            config.frame_timeout
                        )));
                    }
                }
            }
            Err(e) => return TimedRead::Failed(ProtoError::Io(e.to_string())),
        }
    }
    match verify_payload(&h, &payload) {
        Ok(()) => TimedRead::Frame(payload),
        Err(e) => TimedRead::Failed(e),
    }
}

/// Drive one decoded request through the frontend under a trace root
/// minted from the wire-carried trace id, and build the response.
fn execute_request(frontend: &Frontend, env: RequestEnvelope) -> ResponseEnvelope {
    let registry = ada_telemetry::global();
    registry.counter("server.requests").inc();
    let started = Instant::now();
    let (ctx, mut root) = trace::root_remote("server.request", env.trace_id);
    root.arg("op", env.body.op_name());
    root.arg("client", env.client.as_str());
    let deadline = (env.deadline_ns != 0).then(|| Duration::from_nanos(env.deadline_ns));
    let id = env.id;
    let client = env.client;

    let outcome: Result<ResponseBody, AdaError> = match env.body {
        RequestBody::Ping => Ok(ResponseBody::Pong),
        RequestBody::CacheStats => Ok(ResponseBody::CacheStats(
            frontend.ada().cache_stats().into(),
        )),
        RequestBody::Ingest {
            dataset,
            pdb_text,
            xtc_bytes,
            batch_frames,
        } => {
            let request = if batch_frames == 0 {
                Request::Ingest {
                    dataset,
                    input: IngestInput::Real {
                        pdb_text,
                        xtc_bytes,
                    },
                }
            } else {
                Request::IngestStreaming {
                    dataset,
                    pdb_text,
                    xtc_bytes,
                    batch_frames: batch_frames as usize,
                }
            };
            frontend
                .submit_rooted(&client, request, deadline, &ctx, &mut root)
                .and_then(reply_to_ingest)
        }
        RequestBody::Query { dataset, tag } => {
            let request = Request::Query {
                dataset,
                tag: tag.map(Tag::new),
            };
            frontend
                .submit_rooted(&client, request, deadline, &ctx, &mut root)
                .and_then(reply_to_query)
        }
        RequestBody::QueryRange {
            dataset,
            tag,
            start,
            end,
            stride,
        } => {
            let request = Request::QueryRange {
                dataset,
                tag: Tag::new(tag),
                start: start as usize,
                end: end as usize,
                stride: stride as usize,
            };
            frontend
                .submit_rooted(&client, request, deadline, &ctx, &mut root)
                .and_then(reply_to_query)
        }
    };

    registry
        .histogram("server.request.ns")
        .record(started.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    match outcome {
        Ok(body) => ResponseEnvelope { id, body },
        Err(e) => {
            registry.counter("server.request.errors").inc();
            ResponseEnvelope {
                id,
                body: ResponseBody::Error(e),
            }
        }
    }
}

fn reply_to_ingest(reply: Reply) -> Result<ResponseBody, AdaError> {
    match reply.into_ingest() {
        Some(rep) => Ok(ResponseBody::Ingest(WireIngestReport::from_report(&rep))),
        None => Err(AdaError::Internal(
            "ingest request got a query reply".to_string(),
        )),
    }
}

fn reply_to_query(reply: Reply) -> Result<ResponseBody, AdaError> {
    match reply.into_query() {
        Some(rep) => WireQueryReport::from_report(&rep).map(ResponseBody::Query),
        None => Err(AdaError::Internal(
            "query request got an ingest reply".to_string(),
        )),
    }
}
