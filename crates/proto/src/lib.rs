//! The ADA wire protocol: request/response/error types shared by
//! `ada-server` and `ada-client`, with a length-prefixed binary framing.
//!
//! Extracted from `ada-core`/`ada-frontend` so both sides of the wire
//! speak the *same* vocabulary the in-process [`ada_frontend::Frontend`]
//! already arbitrates — the networked path adds transport, not new
//! semantics (DESIGN.md §16). Like `ada-json`, this crate is entirely
//! in-tree: no registry dependencies, no derived serialization.
//!
//! ## Frame layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "ADAP" (message frame) or "ADAC" (chunk frame)
//! 4       1     version (currently 8)
//! 5       4     payload length N, little-endian u32
//! 9       4     IEEE CRC-32 (same polynomial as XTCF v2): of the payload in a
//!               message frame; the chunk's own, as sealed at ingest, in a chunk frame
//! 13      N     payload (one encoded request or response; one chunk's frame records)
//! ```
//!
//! A real-mode query response is a head message, one chunk frame per
//! XTCF v2 chunk — the stored chunk's bytes and stored CRC, forwarded
//! undecoded when the query is a whole tag — and a trailer message
//! ([`stream`]). [`read_response`] checks each chunk as it lands — against
//! the CRC it was sealed with, and every record's atom count against the
//! head's — and decodes it before the next is read, so the caller receives
//! frames, not a container, with coordinates as the `f32` bits that were
//! stored.
//!
//! A receiver validates magic, version, and declared length (against its
//! configured maximum, *before* allocating) and, for a message frame, the
//! CRC; every violation is a typed [`ProtoError`] that surfaces to callers
//! as [`ada_core::AdaError::Network`]. Payloads are encoded with the
//! fixed-width little-endian primitives in [`wire`]. An error crosses the
//! wire as its kind and its text ([`errmap`]), so a remote failure reaches
//! the client with the same `error_kind()` and the same `Display` as the
//! in-process path — and, for the three kinds a caller acts on
//! (`Overloaded`, `DeadlineExceeded`, `Network`), the same fields.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod errmap;
pub mod frame;
pub mod message;
pub mod stream;
pub mod wire;

pub use ada_cache::CacheStats;
pub use errmap::{decode_error, encode_error};
pub use frame::{
    encode_frame, read_frame, write_chunk_frame, write_frame, CHUNK_MAGIC, DEFAULT_MAX_FRAME,
    HEADER_LEN, MAGIC, VERSION,
};
pub use message::{
    RequestBody, RequestEnvelope, ResponseBody, ResponseEnvelope, WireQueryReport,
    QUERY_CHUNK_FRAMES,
};
pub use stream::{read_response, write_query_stream, write_response, Sent, StreamHead};
pub use wire::{ProtoError, WireReader, WireWriter};
