//! `ada-client`: a blocking TCP client for `ada-server`, plus a
//! consistent-hash [`Router`] that spreads datasets across a fleet of
//! server instances.
//!
//! The client is synchronous and self-healing: one request is in flight
//! per [`Client`] at a time, the socket is dialed lazily on first use,
//! and a failure after which the stream may hold unread bytes — a
//! transport or framing error, a connection-level (id 0) frame, a chunk
//! that failed its check mid-stream — poisons the connection so the
//! *next* call redials instead of reusing a desynchronized byte stream.
//! A typed error the server sent as the request's answer, read in full,
//! keeps it: a shed request costs no fresh dial. Every failure surfaces
//! as a typed [`AdaError`] — transport and framing problems as
//! [`AdaError::Network`], a chunk whose CRC or atom counts fail as the
//! [`AdaError::Xtcf`] a corrupt stored dropping raises, and remote
//! middleware errors with exactly the kind and the text the in-process
//! path would have returned: `Overloaded` and `DeadlineExceeded` with
//! their fields, every other kind as an [`AdaError::Remote`] (`ada-proto`
//! sends an error as its kind and its text).

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod router;

pub use router::{Ring, Router};

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ada_core::{AdaError, IngestReport};
use ada_proto::{
    read_response, write_frame, CacheStats, ProtoError, RequestBody, RequestEnvelope, ResponseBody,
    WireQueryReport, DEFAULT_MAX_FRAME,
};
use ada_sync::Mutex;
use ada_telemetry::trace::FlightRecorder;
use ada_telemetry::{Counter, Snapshot};

/// Tuning knobs for one [`Client`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Client name sent with every request; the server's frontend
    /// accounts admission per client under this name.
    pub name: String,
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout per blocking read (bounds how long a call can
    /// hang on a stalled or half-dead server).
    pub io_timeout: Duration,
    /// Receive-side limit on a frame's payload. An answer is a stream of
    /// frames and may exceed it; no single frame may.
    pub max_frame_len: u32,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            name: "remote".to_string(),
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(30),
            max_frame_len: DEFAULT_MAX_FRAME,
        }
    }
}

/// A blocking connection to one `ada-server`, dialed lazily and redialed
/// after any failure.
#[derive(Debug)]
pub struct Client {
    addr: String,
    config: ClientConfig,
    conn: Mutex<Option<TcpStream>>,
    next_id: AtomicU64,
    metrics: Metrics,
    /// The client's half of every remote trace: one `client.request` root
    /// per call, whose id the server's tree adopts.
    recorder: FlightRecorder,
}

/// What one client counts (`client.*`).
#[derive(Debug, Default)]
struct Metrics {
    requests: Counter,
    errors: Counter,
    connects: Counter,
}

impl Client {
    /// A client for the server at `addr` (e.g. `"127.0.0.1:7878"`). No
    /// connection is made until the first request.
    pub fn new(addr: impl Into<String>, config: ClientConfig) -> Client {
        Client {
            addr: addr.into(),
            config,
            conn: Mutex::new(None),
            next_id: AtomicU64::new(1),
            metrics: Metrics::default(),
            recorder: FlightRecorder::new(),
        }
    }

    /// Write this client's `client.*` metrics, each once it has counted,
    /// then its flight recorder's `span.*` family.
    pub fn write_metrics(&self, snap: &mut Snapshot) {
        let m = &self.metrics;
        snap.nonzero("client.requests", m.requests.get());
        snap.nonzero("client.errors", m.errors.get());
        snap.nonzero("client.connects", m.connects.get());
        self.recorder.write_metrics(snap);
    }

    /// This client's flight recorder: its `client.request` trees, each
    /// under the id the server's tree of the same request carries.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The server address this client dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Liveness probe.
    pub fn ping(&self) -> Result<(), AdaError> {
        match self.request(RequestBody::Ping)? {
            ResponseBody::Pong => Ok(()),
            other => Err(unexpected_body("pong", &other)),
        }
    }

    /// Ingest real bytes remotely.
    pub fn ingest(
        &self,
        dataset: &str,
        pdb_text: &str,
        xtc_bytes: &[u8],
    ) -> Result<IngestReport, AdaError> {
        let body = RequestBody::Ingest {
            dataset: dataset.to_string(),
            pdb_text: pdb_text.to_string(),
            xtc_bytes: xtc_bytes.to_vec(),
        };
        match self.request(body)? {
            ResponseBody::Ingest(rep) => Ok(rep),
            other => Err(unexpected_body("ingest report", &other)),
        }
    }

    /// Tag-aware (or full-frame, when `tag` is `None`) remote query.
    pub fn query(&self, dataset: &str, tag: Option<&str>) -> Result<WireQueryReport, AdaError> {
        let body = RequestBody::Query {
            dataset: dataset.to_string(),
            tag: tag.map(|t| t.to_string()),
        };
        match self.request(body)? {
            ResponseBody::Query(rep) => Ok(rep),
            other => Err(unexpected_body("query report", &other)),
        }
    }

    /// Strided frame-range remote query.
    pub fn query_range(
        &self,
        dataset: &str,
        tag: &str,
        start: u64,
        end: u64,
        stride: u64,
    ) -> Result<WireQueryReport, AdaError> {
        let body = RequestBody::QueryRange {
            dataset: dataset.to_string(),
            tag: tag.to_string(),
            start,
            end,
            stride,
        };
        match self.request(body)? {
            ResponseBody::Query(rep) => Ok(rep),
            other => Err(unexpected_body("query report", &other)),
        }
    }

    /// Snapshot of the server's decoded-dropping cache counters.
    pub fn cache_stats(&self) -> Result<CacheStats, AdaError> {
        match self.request(RequestBody::CacheStats)? {
            ResponseBody::CacheStats(s) => Ok(s),
            other => Err(unexpected_body("cache stats", &other)),
        }
    }

    /// Send one request and wait for its response. Serialized per client
    /// (the connection lock is held across the round trip).
    fn request(&self, body: RequestBody) -> Result<ResponseBody, AdaError> {
        self.metrics.requests.inc();
        let (ctx, mut root) = self.recorder.root("client.request");
        root.arg("op", body.op_name());
        root.arg("addr", self.addr.as_str());
        let env = RequestEnvelope {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            client: self.config.name.clone(),
            trace_id: ctx.trace_id().unwrap_or(0),
            // No deadline: the request waits in the server's admission
            // queue for as long as it takes.
            deadline_ns: 0,
            body,
        };
        let mut conn = self.conn.lock();
        let result = match self.round_trip(&mut conn, &env) {
            Ok(answer) => answer,
            Err(e) => {
                // The stream may hold the rest of an answer: the next call
                // redials.
                *conn = None;
                Err(e)
            }
        };
        if let Err(e) = &result {
            self.metrics.errors.inc();
            root.set_error(e.error_kind().name());
        }
        result
    }

    /// Send `env` and read its answer. The outer `Err` is a failure that
    /// leaves the connection unusable; the inner one a typed error the
    /// server answered the request with, after which the stream is aligned.
    fn round_trip(
        &self,
        conn: &mut Option<TcpStream>,
        env: &RequestEnvelope,
    ) -> Result<Result<ResponseBody, AdaError>, AdaError> {
        if conn.is_none() {
            *conn = Some(self.dial()?);
        }
        let stream = conn.as_mut().ok_or_else(|| AdaError::Network {
            detail: "connection vanished under the lock".to_string(),
        })?;
        write_frame(stream, &env.encode()).map_err(|e| self.proto(e))?;
        // One frame, or a chunk stream folded into the query report it
        // carries, each chunk checked as it landed; a stream that breaks
        // off or carries a bad chunk is an error, never a report.
        let resp = match read_response(stream, self.config.max_frame_len) {
            Ok(Some(resp)) => resp,
            Ok(None) => {
                return Err(self.net("server closed the connection mid-request".to_string()))
            }
            Err(e) => return Err(self.proto(e)),
        };
        match (resp.id, resp.body) {
            (id, ResponseBody::Error(e)) if id == env.id => Ok(Err(e)),
            (id, body) if id == env.id => Ok(Ok(body)),
            // A connection-level error (protocol violation, overload
            // reject): the server closes the connection after it.
            (0, ResponseBody::Error(e)) => Err(e),
            (0, _) => Err(self.net("connection-level frame carried a non-error body".to_string())),
            (id, _) => Err(self.net(format!(
                "response id {} does not match request id {}",
                id, env.id
            ))),
        }
    }

    /// A failure reading or writing the stream, typed: a chunk that failed
    /// its check as the `corrupt` error it is (`AdaError::Xtcf`), everything
    /// else as `network`.
    fn proto(&self, e: ProtoError) -> AdaError {
        match AdaError::from(e) {
            AdaError::Network { detail } => self.net(detail),
            e => e,
        }
    }

    fn dial(&self) -> Result<TcpStream, AdaError> {
        self.metrics.connects.inc();
        let addr: std::net::SocketAddr = self
            .addr
            .parse()
            .map_err(|_| self.net("unparseable server address".to_string()))?;
        let stream = TcpStream::connect_timeout(&addr, self.config.connect_timeout)
            .map_err(|e| self.net(format!("connect: {}", e)))?;
        stream
            .set_read_timeout(Some(self.config.io_timeout))
            .map_err(|e| self.net(format!("set_read_timeout: {}", e)))?;
        stream
            .set_write_timeout(Some(self.config.io_timeout))
            .map_err(|e| self.net(format!("set_write_timeout: {}", e)))?;
        // The server sets it too: a small frame must not wait behind
        // Nagle for the ACK of a large one.
        stream
            .set_nodelay(true)
            .map_err(|e| self.net(format!("set_nodelay: {}", e)))?;
        Ok(stream)
    }

    fn net(&self, detail: String) -> AdaError {
        AdaError::Network {
            detail: format!("{} ({})", detail, self.addr),
        }
    }
}

fn unexpected_body(expected: &str, got: &ResponseBody) -> AdaError {
    AdaError::Network {
        detail: format!("expected {}, got {:?} response", expected, body_name(got)),
    }
}

fn body_name(body: &ResponseBody) -> &'static str {
    match body {
        ResponseBody::Pong => "pong",
        ResponseBody::Ingest(_) => "ingest",
        ResponseBody::Query(_) => "query",
        ResponseBody::CacheStats(_) => "cache_stats",
        ResponseBody::Error(_) => "error",
    }
}
