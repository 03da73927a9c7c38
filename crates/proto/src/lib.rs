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
//! 0       4     magic  "ADAP"
//! 4       1     version (currently 2: query payloads are XTCF v2 containers)
//! 5       4     payload length N, little-endian u32
//! 9       4     IEEE CRC-32 of the payload (same polynomial as XTCF v2)
//! 13      N     payload (one encoded request or response)
//! ```
//!
//! A real-mode query response carries its frames as one uncompressed XTCF
//! v2 chunk container ([`message::QUERY_CHUNK_FRAMES`] frames per chunk):
//! the client decodes it with `parse_directory` + `decode_chunk`, so every
//! chunk's own CRC is verified end to end and coordinates arrive as the
//! same `f32` bits the server decoded.
//!
//! A receiver validates magic, version, and declared length (against its
//! configured maximum, *before* allocating) and then the CRC; every
//! violation is a typed [`ProtoError`] that surfaces to callers as
//! [`ada_core::AdaError::Network`]. Payloads are encoded with the
//! fixed-width little-endian primitives in [`wire`]; every `AdaError`
//! kind has an exact structural mapping across the wire ([`errmap`]), so
//! a remote failure reaches the client with the same `kind()` — and for
//! structured kinds the same fields — as the in-process path.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod errmap;
pub mod frame;
pub mod message;
pub mod wire;

pub use ada_cache::CacheStats;
pub use errmap::{decode_error, encode_error};
pub use frame::{
    encode_frame, read_frame, write_frame, DEFAULT_MAX_FRAME, HEADER_LEN, MAGIC, VERSION,
};
pub use message::{
    RequestBody, RequestEnvelope, ResponseBody, ResponseEnvelope, WireIngestReport, WirePayload,
    WireQueryReport, QUERY_CHUNK_FRAMES,
};
pub use wire::{ProtoError, WireReader, WireWriter};
