//! XTCF — the uncompressed "XTC-Flat" frame format.
//!
//! ADA stores *decompressed* data subsets on its backends so that reads skip
//! the decompression step entirely (that is the whole point of the paper:
//! "only decompressed active data will be transferred to compute nodes").
//! The paper does not specify the byte layout of those stored subsets, so we
//! define a minimal exact little-endian format:
//!
//! ```text
//! magic   u32      == 0x41444146 ("ADAF")
//! version u32      == 1 or 2
//! per frame:
//!   step  i32
//!   time  f32
//!   box   9 × f32
//!   n     u32      atom count
//!   xyz   n × 3 × f32
//! ```
//!
//! Unlike XTC this format is bit-exact (no quantization) and trivially
//! seekable: every frame of a file has the same length.
//!
//! **Version 2** keeps the v1 frame records byte-identical and appends a
//! self-describing chunk directory after the body, so range reads can
//! decode only the chunks they touch and verify each chunk's integrity:
//!
//! ```text
//! header      (v1 layout, version == 2)
//! body        v1 frame records, grouped into fixed frame-count chunks
//! directory   per chunk, 20 bytes:
//!   offset  u64   absolute byte offset of the chunk's first record
//!   nframes u32   frames in this chunk (never zero)
//!   natoms  u32   atom count (uniform across chunks)
//!   crc     u32   IEEE CRC-32 of the chunk's body bytes
//! trailer     12 bytes at the file end:
//!   nchunks      u32
//!   chunk_frames u32   the nominal chunk size the file was sealed with
//!   magic        u32   == XTCF_FOOTER_MAGIC
//! ```
//!
//! [`XtcfReader`] auto-detects the version: v1 files decode exactly as
//! before, and v2 files stream their body transparently (the directory is
//! parsed up front, so streaming stops at the directory; streaming reads
//! do *not* verify chunk CRCs — use [`decode_chunk`] for verified
//! random access).

use crate::traj::{Frame, Trajectory};
use crate::FormatError;
use ada_mdmodel::PbcBox;

/// XTCF magic bytes ("ADAF" as a little-endian u32).
pub const XTCF_MAGIC: u32 = 0x4144_4146;
/// Version 1: a bare stream of frame records.
pub const XTCF_VERSION: u32 = 1;
/// Version 2: v1 body plus a chunk directory and trailer.
pub const XTCF_VERSION_V2: u32 = 2;
/// File header length in bytes.
pub const XTCF_HEADER_LEN: usize = 8;
/// Trailer magic sealing a v2 chunk directory ("ADCF" little-endian).
pub const XTCF_FOOTER_MAGIC: u32 = 0x4144_4346;
/// Size of one v2 chunk-directory entry in bytes.
pub const XTCF_DIR_ENTRY_LEN: usize = 20;
/// Size of the v2 trailer in bytes.
pub const XTCF_TRAILER_LEN: usize = 12;

/// Byte offset of the atom count `n` inside a frame record: after `step`,
/// `time` and the nine box floats.
pub const XTCF_RECORD_NATOMS_OFFSET: usize = 4 + 4 + 36;
/// Bytes of a frame record before its coordinates: through `n`.
const RECORD_HEAD_LEN: usize = XTCF_RECORD_NATOMS_OFFSET + 4;

/// Per-frame record length for `natoms` (saturating: an impossible shape
/// yields `usize::MAX` instead of wrapping).
pub fn frame_record_len(natoms: usize) -> usize {
    RECORD_HEAD_LEN.saturating_add(natoms.saturating_mul(12))
}

/// Total encoded v1 size for a trajectory of `nframes` × `natoms`
/// (saturating: adversarial shapes yield `usize::MAX` instead of
/// wrapping to a small, wrong size).
pub fn encoded_len(nframes: usize, natoms: usize) -> usize {
    XTCF_HEADER_LEN.saturating_add(nframes.saturating_mul(frame_record_len(natoms)))
}

/// Lanes of the braided checksum: independent CRC states advanced side by
/// side over consecutive 8-byte words. Chosen by the `crc32` rung (DESIGN.md
/// §14 *The checksum kernel* has the sweep), not a setting.
const CRC32_LANES: usize = 5;
/// Bytes one main-loop step of [`crc32`] consumes: one word per lane.
const CRC32_BLOCK: usize = CRC32_LANES * 8;

/// The two table sets of the braided checksum, built at compile time from
/// one chain: `chain[z][b]` is the raw CRC state after byte `b` followed by
/// `z` zero bytes (`chain[0]` is the classic bytewise table).
///
/// * `word[k] = chain[k]` folds one 8-byte word into the state that
///   *follows* it: byte `k` of the word has `7 - k` bytes after it.
/// * `braid[k] = chain[CRC32_BLOCK - 8 + k]` carries a lane's word to the
///   same lane's word of the *next block*: byte `k` has `CRC32_BLOCK - 1 -
///   k` bytes after it, the rest of its word and the other lanes' words.
struct Crc32Tables {
    word: [[u32; 256]; 8],
    braid: [[u32; 256]; 8],
}

static CRC32_TABLES: Crc32Tables = {
    let mut t = Crc32Tables {
        word: [[0u32; 256]; 8],
        braid: [[0u32; 256]; 8],
    };
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t.word[0][i] = c;
        i += 1;
    }
    let mut link = t.word[0];
    let mut z = 1;
    while z < CRC32_BLOCK {
        let mut i = 0;
        while i < 256 {
            link[i] = (link[i] >> 8) ^ t.word[0][(link[i] & 0xFF) as usize];
            i += 1;
        }
        if z < 8 {
            t.word[z] = link;
        }
        if z >= CRC32_BLOCK - 8 {
            t.braid[z - (CRC32_BLOCK - 8)] = link;
        }
        z += 1;
    }
    t
};

/// Sum of `tables[7 - k][byte k of w]`: the state eight bytes contribute
/// once everything after them (per `tables`) has gone by.
#[inline(always)]
fn crc32_fold(tables: &[[u32; 256]; 8], w: u64) -> u32 {
    tables[7][(w & 0xFF) as usize]
        ^ tables[6][((w >> 8) & 0xFF) as usize]
        ^ tables[5][((w >> 16) & 0xFF) as usize]
        ^ tables[4][((w >> 24) & 0xFF) as usize]
        ^ tables[3][((w >> 32) & 0xFF) as usize]
        ^ tables[2][((w >> 40) & 0xFF) as usize]
        ^ tables[1][((w >> 48) & 0xFF) as usize]
        ^ tables[0][(w >> 56) as usize]
}

/// The little-endian word at the head of a slice `chunks_exact(8)` cut.
#[inline(always)]
fn le_word(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// IEEE CRC-32 (the zlib/PNG polynomial) — the workspace's one checksum:
/// XTCF chunks and the wire's message frames. A *braided* kernel (zlib's
/// `crc32_braid`, after Kadatch & Jenkins): [`CRC32_LANES`] states run over
/// interleaved words with no dependency between them, so a step waits on
/// the load ports, not on one chain of table lookups. Every block but the
/// last whole one advances each lane by a block; the last folds the lanes
/// into one state, in stream order, through the word tables; what is left
/// (and any input shorter than two blocks) goes a word, then a byte, at a
/// time. The value is the serial one whatever the split — the bytewise
/// loop in the tests is the reference.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut rest = data;
    let nblocks = data.len() / CRC32_BLOCK;
    if nblocks >= 2 {
        let (braided, after) = data.split_at((nblocks - 1) * CRC32_BLOCK);
        let mut lanes = [0u32; CRC32_LANES];
        lanes[0] = c;
        for block in braided.chunks_exact(CRC32_BLOCK) {
            for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane = crc32_fold(&t.braid, le_word(word) ^ u64::from(*lane));
            }
        }
        let (last, tail) = after.split_at(CRC32_BLOCK);
        c = 0;
        for (lane, word) in lanes.iter().zip(last.chunks_exact(8)) {
            c = crc32_fold(&t.word, le_word(word) ^ u64::from(*lane ^ c));
        }
        rest = tail;
    }
    let mut words = rest.chunks_exact(8);
    for word in &mut words {
        c = crc32_fold(&t.word, le_word(word) ^ u64::from(c));
    }
    for &b in words.remainder() {
        c = t.word[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Streaming XTCF writer.
#[derive(Debug)]
pub struct XtcfWriter {
    buf: Vec<u8>,
    natoms: Option<usize>,
}

impl Default for XtcfWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl XtcfWriter {
    /// New writer with the file header emitted.
    pub fn new() -> XtcfWriter {
        XtcfWriter::with_buf(Vec::new())
    }

    /// New writer whose buffer is sized for `nframes` × `natoms` up front
    /// (see [`encoded_len`]), so encoding a subset of known shape never
    /// re-allocates.
    pub fn with_capacity(nframes: usize, natoms: usize) -> XtcfWriter {
        let cap = encoded_len(nframes, natoms);
        // A saturated size means the shape cannot exist in memory anyway;
        // grow on demand instead of attempting a doomed huge reservation.
        let buf = if cap == usize::MAX {
            Vec::new()
        } else {
            Vec::with_capacity(cap)
        };
        XtcfWriter::with_buf(buf)
    }

    fn with_buf(mut buf: Vec<u8>) -> XtcfWriter {
        buf.extend_from_slice(&XTCF_MAGIC.to_le_bytes());
        buf.extend_from_slice(&XTCF_VERSION.to_le_bytes());
        XtcfWriter { buf, natoms: None }
    }

    /// Append one frame. Atom counts must be uniform.
    pub fn write_frame(&mut self, frame: &Frame) -> Result<(), FormatError> {
        self.write_frame_parts(frame.step, frame.time, &frame.pbc, &frame.coords)
    }

    /// Append one frame from its parts, without requiring a [`Frame`]:
    /// callers that gather coordinates into a reusable buffer encode
    /// straight from that buffer. Atom counts must be uniform.
    pub fn write_frame_parts(
        &mut self,
        step: i32,
        time: f32,
        pbc: &PbcBox,
        coords: &[[f32; 3]],
    ) -> Result<(), FormatError> {
        if let Some(n) = self.natoms {
            if n != coords.len() {
                return Err(FormatError::Corrupt(format!(
                    "frame atom count {} != file atom count {}",
                    coords.len(),
                    n
                )));
            }
        } else {
            self.natoms = Some(coords.len());
        }
        self.buf.reserve(frame_record_len(coords.len()));
        self.buf.extend_from_slice(&step.to_le_bytes());
        self.buf.extend_from_slice(&time.to_le_bytes());
        for row in &pbc.m {
            for &v in row {
                self.buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        self.buf
            .extend_from_slice(&(coords.len() as u32).to_le_bytes());
        let xyz = self.buf.len();
        self.buf.resize(xyz + 12 * coords.len(), 0);
        for (dst, c) in self.buf[xyz..].chunks_exact_mut(12).zip(coords) {
            dst[0..4].copy_from_slice(&c[0].to_le_bytes());
            dst[4..8].copy_from_slice(&c[1].to_le_bytes());
            dst[8..12].copy_from_slice(&c[2].to_le_bytes());
        }
        Ok(())
    }

    /// Finish, returning the file bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True right after construction (header only).
    pub fn is_empty(&self) -> bool {
        self.buf.len() == XTCF_HEADER_LEN
    }

    /// Current buffer capacity in bytes (for allocation regression tests).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// Copy the first four bytes of a slice the caller has already
/// length-checked (header bounds, a record of known length), so
/// little-endian reads need no fallible `try_into`.
fn le_bytes4(b: &[u8]) -> [u8; 4] {
    [b[0], b[1], b[2], b[3]]
}

/// The atom count a frame record declares (the record holds its header).
fn record_natoms(rec: &[u8]) -> u32 {
    u32::from_le_bytes(le_bytes4(&rec[XTCF_RECORD_NATOMS_OFFSET..]))
}

/// Decode one frame record. The caller fixed its length at
/// `frame_record_len(n)` for the `n` it declares — `verify_chunk` for a
/// chunk's records, the bound on the untrusted `n` for a v1 stream's — so
/// the header sits at fixed offsets and the coordinates are whole rows.
fn decode_record(rec: &[u8]) -> Frame {
    let (head, xyz) = rec.split_at(RECORD_HEAD_LEN);
    let f32_at = |at: usize| f32::from_le_bytes(le_bytes4(&head[at..]));
    let mut pbc = PbcBox::zero();
    for (i, v) in pbc.m.iter_mut().flatten().enumerate() {
        *v = f32_at(8 + 4 * i);
    }
    Frame {
        step: i32::from_le_bytes(le_bytes4(head)),
        time: f32_at(4),
        pbc,
        coords: xyz
            .chunks_exact(12)
            .map(|c| {
                [
                    f32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                    f32::from_le_bytes([c[4], c[5], c[6], c[7]]),
                    f32::from_le_bytes([c[8], c[9], c[10], c[11]]),
                ]
            })
            .collect(),
    }
}

/// Streaming XTCF reader. Auto-detects the file version: v2 files stream
/// their body exactly like v1 (the chunk directory is parsed up front and
/// never surfaces as frames).
#[derive(Debug)]
pub struct XtcfReader<'a> {
    data: &'a [u8],
    pos: usize,
    /// End of the frame-record body (`data.len()` for v1, the directory
    /// start for v2).
    body_end: usize,
    version: u32,
    directory: Option<ChunkDirectory>,
}

impl<'a> XtcfReader<'a> {
    /// Validate the header (and, for v2, the chunk directory) and position
    /// at the first frame.
    pub fn new(data: &'a [u8]) -> Result<XtcfReader<'a>, FormatError> {
        let directory = parse_directory(data)?;
        let (version, body_end) = match &directory {
            None => (XTCF_VERSION, data.len()),
            Some(dir) => (
                XTCF_VERSION_V2,
                data.len() - XTCF_TRAILER_LEN - dir.nchunks() * XTCF_DIR_ENTRY_LEN,
            ),
        };
        Ok(XtcfReader {
            data,
            pos: XTCF_HEADER_LEN,
            body_end,
            version,
            directory,
        })
    }

    /// The detected format version (1 or 2).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The chunk directory, for v2 files.
    pub fn directory(&self) -> Option<&ChunkDirectory> {
        self.directory.as_ref()
    }

    /// Read the next frame, `Ok(None)` at a clean end.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FormatError> {
        let body = &self.data[self.pos..self.body_end];
        if body.is_empty() {
            return Ok(None);
        }
        if body.len() < RECORD_HEAD_LEN {
            return Err(FormatError::UnexpectedEof);
        }
        let n = record_natoms(body) as usize;
        // The atom count is untrusted on-disk input: bound it against the
        // remaining bytes before sizing any allocation, and multiply
        // checked so 32-bit targets cannot wrap into a short slice.
        let remaining = body.len() - RECORD_HEAD_LEN;
        match n.checked_mul(12) {
            Some(need) if need <= remaining => {
                let len = RECORD_HEAD_LEN + need;
                self.pos += len;
                Ok(Some(decode_record(&body[..len])))
            }
            _ => Err(FormatError::Corrupt(format!(
                "frame atom count {} overruns the remaining {} bytes",
                n, remaining
            ))),
        }
    }
}

/// One v2 chunk-directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Absolute byte offset of the chunk's first frame record.
    pub offset: u64,
    /// Frames in this chunk (never zero in a valid file).
    pub nframes: u32,
    /// Atom count (uniform across a file's chunks).
    pub natoms: u32,
    /// IEEE CRC-32 of the chunk's body bytes.
    pub crc: u32,
}

impl ChunkEntry {
    /// Length of the chunk's body — its frame records — in bytes
    /// (saturating, like [`frame_record_len`]).
    pub fn body_len(&self) -> usize {
        (self.nframes as usize).saturating_mul(frame_record_len(self.natoms as usize))
    }
}

/// The parsed chunk directory of a v2 file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkDirectory {
    /// Directory entries, in body order.
    pub entries: Vec<ChunkEntry>,
    /// The nominal chunk size (frames) the file was sealed with.
    pub chunk_frames: u32,
}

impl ChunkDirectory {
    /// Number of chunks.
    pub fn nchunks(&self) -> usize {
        self.entries.len()
    }

    /// Total frames across all chunks.
    pub fn nframes(&self) -> usize {
        self.entries.iter().map(|e| e.nframes as usize).sum()
    }

    /// Per-chunk frame counts, in body order.
    pub fn chunk_nframes(&self) -> Vec<u32> {
        self.entries.iter().map(|e| e.nframes).collect()
    }

    /// Append this directory and its trailer to `file` — a v2 header
    /// followed by the chunk bodies the entries describe — which seals it.
    /// The one writer of the layout [`parse_directory`] reads.
    pub fn append_to(&self, file: &mut Vec<u8>) {
        file.reserve(self.entries.len() * XTCF_DIR_ENTRY_LEN + XTCF_TRAILER_LEN);
        for e in &self.entries {
            file.extend_from_slice(&e.offset.to_le_bytes());
            file.extend_from_slice(&e.nframes.to_le_bytes());
            file.extend_from_slice(&e.natoms.to_le_bytes());
            file.extend_from_slice(&e.crc.to_le_bytes());
        }
        file.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        file.extend_from_slice(&self.chunk_frames.to_le_bytes());
        file.extend_from_slice(&XTCF_FOOTER_MAGIC.to_le_bytes());
    }

    /// The chunk holding file-local frame index `local`, if in range.
    pub fn chunk_of_frame(&self, local: usize) -> Option<usize> {
        let mut at = 0usize;
        for (i, e) in self.entries.iter().enumerate() {
            at += e.nframes as usize;
            if local < at {
                return Some(i);
            }
        }
        None
    }

    /// The `[start, end)` file-local frame span of chunk `chunk`.
    pub fn frame_span(&self, chunk: usize) -> Option<(usize, usize)> {
        if chunk >= self.entries.len() {
            return None;
        }
        let start: usize = self.entries[..chunk]
            .iter()
            .map(|e| e.nframes as usize)
            .sum();
        Some((start, start + self.entries[chunk].nframes as usize))
    }
}

/// Parse a file's chunk directory. `Ok(None)` means a valid v1 header (no
/// directory); `Ok(Some(..))` a validated v2 directory; unknown versions
/// and structurally broken directories are `Err`.
pub fn parse_directory(data: &[u8]) -> Result<Option<ChunkDirectory>, FormatError> {
    if data.len() < XTCF_HEADER_LEN {
        return Err(FormatError::UnexpectedEof);
    }
    let magic = u32::from_le_bytes(le_bytes4(&data[0..4]));
    if magic != XTCF_MAGIC {
        return Err(FormatError::Corrupt(format!("bad magic {:#x}", magic)));
    }
    let version = u32::from_le_bytes(le_bytes4(&data[4..8]));
    if version == XTCF_VERSION {
        return Ok(None);
    }
    if version != XTCF_VERSION_V2 {
        return Err(FormatError::Corrupt(format!("bad version {}", version)));
    }
    if data.len() < XTCF_HEADER_LEN + XTCF_TRAILER_LEN {
        return Err(FormatError::Corrupt(format!(
            "v2 file of {} bytes cannot hold a trailer",
            data.len()
        )));
    }
    let t = data.len() - XTCF_TRAILER_LEN;
    let nchunks = u32::from_le_bytes(le_bytes4(&data[t..t + 4])) as usize;
    let chunk_frames = u32::from_le_bytes(le_bytes4(&data[t + 4..t + 8]));
    let footer = u32::from_le_bytes(le_bytes4(&data[t + 8..t + 12]));
    if footer != XTCF_FOOTER_MAGIC {
        return Err(FormatError::Corrupt(format!(
            "bad footer magic {:#x}",
            footer
        )));
    }
    let dir_start = nchunks
        .checked_mul(XTCF_DIR_ENTRY_LEN)
        .and_then(|len| t.checked_sub(len))
        .filter(|&s| s >= XTCF_HEADER_LEN)
        .ok_or_else(|| {
            FormatError::Corrupt(format!("truncated chunk directory ({} entries)", nchunks))
        })?;
    let mut entries: Vec<ChunkEntry> = Vec::with_capacity(nchunks);
    let mut expect = XTCF_HEADER_LEN as u64;
    for i in 0..nchunks {
        let at = dir_start + i * XTCF_DIR_ENTRY_LEN;
        let e = ChunkEntry {
            offset: u64::from_le_bytes([
                data[at],
                data[at + 1],
                data[at + 2],
                data[at + 3],
                data[at + 4],
                data[at + 5],
                data[at + 6],
                data[at + 7],
            ]),
            nframes: u32::from_le_bytes(le_bytes4(&data[at + 8..at + 12])),
            natoms: u32::from_le_bytes(le_bytes4(&data[at + 12..at + 16])),
            crc: u32::from_le_bytes(le_bytes4(&data[at + 16..at + 20])),
        };
        if e.nframes == 0 {
            return Err(FormatError::ChunkCorrupt {
                chunk: i,
                detail: "chunk declares zero frames".to_string(),
            });
        }
        if e.offset != expect {
            return Err(FormatError::ChunkCorrupt {
                chunk: i,
                detail: format!(
                    "chunk offset {} out of place (expected {})",
                    e.offset, expect
                ),
            });
        }
        if i > 0 && e.natoms != entries[0].natoms {
            return Err(FormatError::ChunkCorrupt {
                chunk: i,
                detail: format!(
                    "chunk atom count {} != file atom count {}",
                    e.natoms, entries[0].natoms
                ),
            });
        }
        // Both factors are untrusted u32s whose product can exceed u64:
        // bound the span against the body before it can wrap.
        expect = (e.nframes as u64)
            .checked_mul(frame_record_len(e.natoms as usize) as u64)
            .and_then(|len| expect.checked_add(len))
            .filter(|&end| end <= dir_start as u64)
            .ok_or_else(|| FormatError::ChunkCorrupt {
                chunk: i,
                detail: format!(
                    "chunk span of {} frames x {} atoms overruns the {}-byte body",
                    e.nframes,
                    e.natoms,
                    dir_start - XTCF_HEADER_LEN
                ),
            })?;
        entries.push(e);
    }
    if expect != dir_start as u64 {
        return Err(FormatError::Corrupt(format!(
            "chunk directory covers {} body bytes, file holds {}",
            expect - XTCF_HEADER_LEN as u64,
            dir_start - XTCF_HEADER_LEN
        )));
    }
    Ok(Some(ChunkDirectory {
        entries,
        chunk_frames,
    }))
}

/// Seal a v1 byte stream of `natoms`-atom frames into a v2 chunked
/// container with at most `chunk_frames` frames per chunk (`0` means one
/// single chunk). The frame records are left byte-identical; only the
/// version field flips and a directory + trailer are appended.
pub fn seal_v2(
    mut payload: Vec<u8>,
    natoms: usize,
    chunk_frames: usize,
) -> Result<Vec<u8>, FormatError> {
    if payload.len() < XTCF_HEADER_LEN {
        return Err(FormatError::UnexpectedEof);
    }
    let magic = u32::from_le_bytes(le_bytes4(&payload[0..4]));
    if magic != XTCF_MAGIC {
        return Err(FormatError::Corrupt(format!("bad magic {:#x}", magic)));
    }
    let version = u32::from_le_bytes(le_bytes4(&payload[4..8]));
    if version != XTCF_VERSION {
        return Err(FormatError::Corrupt(format!(
            "can only seal a v1 stream, got version {}",
            version
        )));
    }
    let record = frame_record_len(natoms);
    let body = payload.len() - XTCF_HEADER_LEN;
    if !body.is_multiple_of(record) {
        return Err(FormatError::Corrupt(format!(
            "body of {} bytes is not a multiple of the {}-byte record for {} atoms",
            body, record, natoms
        )));
    }
    let nframes = body / record;
    let per_chunk = if chunk_frames == 0 {
        nframes.max(1)
    } else {
        chunk_frames
    };
    payload[4..8].copy_from_slice(&XTCF_VERSION_V2.to_le_bytes());
    let mut off = XTCF_HEADER_LEN;
    let mut left = nframes;
    let mut dir = ChunkDirectory {
        entries: Vec::with_capacity(nframes.div_ceil(per_chunk)),
        chunk_frames: u32::try_from(per_chunk).unwrap_or(u32::MAX),
    };
    while left > 0 {
        let take = left.min(per_chunk);
        let len = take * record;
        dir.entries.push(ChunkEntry {
            offset: off as u64,
            nframes: u32::try_from(take)
                .map_err(|_| FormatError::OutOfRange(format!("chunk of {} frames", take)))?,
            natoms: natoms as u32,
            crc: crc32(&payload[off..off + len]),
        });
        off += len;
        left -= take;
    }
    dir.append_to(&mut payload);
    Ok(payload)
}

/// Assembles a v2 container from chunk bodies whose checksums are already
/// known — an ingest's workers computed them, a chunk stream's frames
/// carried them — so nothing is walked twice. The result is what
/// [`seal_v2`] makes of the same records cut at the same frames.
#[derive(Debug)]
pub struct V2Assembler {
    file: Vec<u8>,
    dir: ChunkDirectory,
    natoms: u32,
}

impl V2Assembler {
    /// A container of `natoms`-atom frames sealed at a nominal
    /// `chunk_frames`, its buffer reserved for `capacity` bytes.
    pub fn with_capacity(capacity: usize, natoms: u32, chunk_frames: u32) -> V2Assembler {
        let mut file = Vec::with_capacity(capacity);
        file.extend_from_slice(&XTCF_MAGIC.to_le_bytes());
        file.extend_from_slice(&XTCF_VERSION_V2.to_le_bytes());
        V2Assembler {
            file,
            dir: ChunkDirectory {
                entries: Vec::new(),
                chunk_frames,
            },
            natoms,
        }
    }

    /// Enter the next chunk — `nframes` records with checksum `crc` — and
    /// hand back the container for the caller to append that body to.
    pub fn chunk(&mut self, nframes: u32, crc: u32) -> &mut Vec<u8> {
        self.dir.entries.push(ChunkEntry {
            offset: self.file.len() as u64,
            nframes,
            natoms: self.natoms,
            crc,
        });
        &mut self.file
    }

    /// Seal the container: directory and trailer after the last body.
    pub fn finish(mut self) -> Vec<u8> {
        self.dir.append_to(&mut self.file);
        self.file
    }
}

/// The body bytes of one chunk of a v2 file — its frame records, verbatim
/// — once the chunk is known sound: its span lies inside the file, its
/// CRC matches the directory's, and every record declares the directory's
/// atom count, so the body *is* `nframes` records of
/// `frame_record_len(natoms)` bytes. The one check of a chunk, whether it
/// is then decoded ([`decode_chunk`]) or handed on as stored. Corruption
/// surfaces as [`FormatError::ChunkCorrupt`] carrying the chunk id.
pub fn verify_chunk<'a>(
    data: &'a [u8],
    dir: &ChunkDirectory,
    chunk: usize,
) -> Result<&'a [u8], FormatError> {
    let e = dir.entries.get(chunk).ok_or(FormatError::ChunkCorrupt {
        chunk,
        detail: format!("chunk index out of range ({} chunks)", dir.entries.len()),
    })?;
    let start = e.offset as usize;
    let len = e.body_len();
    let end = start
        .checked_add(len)
        .filter(|&end| end <= data.len())
        .ok_or(FormatError::ChunkCorrupt {
            chunk,
            detail: format!(
                "chunk span {}+{} exceeds the {}-byte file",
                start,
                len,
                data.len()
            ),
        })?;
    let body = &data[start..end];
    let computed = crc32(body);
    if computed != e.crc {
        return Err(FormatError::ChunkCorrupt {
            chunk,
            detail: format!(
                "checksum mismatch (stored {:#010x}, computed {:#010x})",
                e.crc, computed
            ),
        });
    }
    for (frame, rec) in body
        .chunks_exact(frame_record_len(e.natoms as usize))
        .enumerate()
    {
        let n = record_natoms(rec);
        if n != e.natoms {
            return Err(FormatError::ChunkCorrupt {
                chunk,
                detail: format!(
                    "frame {} declares {} atoms, the chunk directory {}",
                    frame, n, e.natoms
                ),
            });
        }
    }
    Ok(body)
}

/// Decode one chunk of a v2 file, verified first ([`verify_chunk`]) — after
/// which its body is fixed-size records and decoding it is copying them.
/// Corruption surfaces as [`FormatError::ChunkCorrupt`] carrying the chunk
/// id.
pub fn decode_chunk(
    data: &[u8],
    dir: &ChunkDirectory,
    chunk: usize,
) -> Result<Vec<Frame>, FormatError> {
    let body = verify_chunk(data, dir, chunk)?;
    let natoms = dir.entries.get(chunk).map_or(0, |e| e.natoms as usize);
    Ok(body
        .chunks_exact(frame_record_len(natoms))
        .map(decode_record)
        .collect())
}

/// Encode a whole trajectory.
pub fn write_xtcf(traj: &Trajectory) -> Result<Vec<u8>, FormatError> {
    let mut w = XtcfWriter::with_capacity(traj.len(), traj.natoms());
    for f in &traj.frames {
        w.write_frame(f)?;
    }
    Ok(w.into_bytes())
}

/// Decode a whole XTCF byte stream.
pub fn read_xtcf(data: &[u8]) -> Result<Trajectory, FormatError> {
    let mut r = XtcfReader::new(data)?;
    let mut frames = Vec::new();
    while let Some(f) = r.next_frame()? {
        frames.push(f);
    }
    Ok(Trajectory::from_frames(frames))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj() -> Trajectory {
        Trajectory::from_frames(
            (0..4)
                .map(|f| Frame {
                    step: f * 10,
                    time: f as f32 * 0.5,
                    pbc: PbcBox::rectangular(3.0, 4.0, 5.0),
                    coords: (0..25)
                        .map(|a| [a as f32 * 0.1, f as f32, -(a as f32)])
                        .collect(),
                })
                .collect(),
        )
    }

    #[test]
    fn lossless_roundtrip() {
        let t = traj();
        let bytes = write_xtcf(&t).unwrap();
        assert_eq!(bytes.len(), encoded_len(4, 25));
        let back = read_xtcf(&bytes).unwrap();
        assert_eq!(t, back); // bit exact
    }

    #[test]
    fn empty_trajectory() {
        let bytes = write_xtcf(&Trajectory::new()).unwrap();
        assert_eq!(bytes.len(), XTCF_HEADER_LEN);
        assert!(read_xtcf(&bytes).unwrap().is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = write_xtcf(&traj()).unwrap();
        bytes[0] ^= 0xFF;
        assert!(read_xtcf(&bytes).is_err());
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = write_xtcf(&traj()).unwrap();
        bytes[4] = 9;
        assert!(read_xtcf(&bytes).is_err());
    }

    #[test]
    fn truncation_detected() {
        let bytes = write_xtcf(&traj()).unwrap();
        assert!(read_xtcf(&bytes[..bytes.len() - 1]).is_err());
        assert!(read_xtcf(&bytes[..5]).is_err());
    }

    #[test]
    fn mixed_atom_counts_rejected() {
        let mut w = XtcfWriter::new();
        w.write_frame(&Frame::from_coords(vec![[0.0; 3]; 3]))
            .unwrap();
        assert!(w
            .write_frame(&Frame::from_coords(vec![[0.0; 3]; 4]))
            .is_err());
    }

    #[test]
    fn with_capacity_never_reallocates() {
        let t = traj();
        let mut w = XtcfWriter::with_capacity(t.len(), t.natoms());
        let cap0 = w.capacity();
        assert_eq!(cap0, encoded_len(t.len(), t.natoms()));
        for f in &t.frames {
            w.write_frame(f).unwrap();
        }
        assert_eq!(w.capacity(), cap0, "pre-sized writer grew its buffer");
        assert_eq!(w.len(), encoded_len(t.len(), t.natoms()));
        assert_eq!(w.into_bytes(), write_xtcf(&t).unwrap());
    }

    #[test]
    fn with_capacity_zero_frames_matches_header() {
        let w = XtcfWriter::with_capacity(0, 0);
        assert_eq!(w.capacity(), XTCF_HEADER_LEN);
        assert!(w.is_empty());
    }

    #[test]
    fn record_len_matches() {
        let t = traj();
        let bytes = write_xtcf(&t).unwrap();
        let body = bytes.len() - XTCF_HEADER_LEN;
        assert_eq!(body % frame_record_len(25), 0);
        assert_eq!(body / frame_record_len(25), 4);
    }

    #[test]
    fn encoded_len_saturates_instead_of_wrapping() {
        assert_eq!(frame_record_len(usize::MAX), usize::MAX);
        assert_eq!(encoded_len(usize::MAX, usize::MAX), usize::MAX);
        assert_eq!(encoded_len(usize::MAX, 3), usize::MAX);
        // Sane shapes are unchanged.
        assert_eq!(
            encoded_len(4, 25),
            XTCF_HEADER_LEN + 4 * frame_record_len(25)
        );
    }

    #[test]
    fn with_capacity_survives_adversarial_shapes() {
        let mut w = XtcfWriter::with_capacity(usize::MAX, usize::MAX);
        assert!(w.is_empty());
        w.write_frame(&Frame::from_coords(vec![[1.0; 3]; 2]))
            .unwrap();
        let bytes = w.into_bytes();
        assert_eq!(read_xtcf(&bytes).unwrap().len(), 1);
    }

    #[test]
    fn oversized_atom_count_is_corrupt_not_an_allocation() {
        // Header plus one frame record that claims u32::MAX atoms but
        // carries a single coordinate row.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&XTCF_MAGIC.to_le_bytes());
        bytes.extend_from_slice(&XTCF_VERSION.to_le_bytes());
        bytes.extend_from_slice(&1i32.to_le_bytes());
        bytes.extend_from_slice(&0.5f32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 36]);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 12]);
        match read_xtcf(&bytes) {
            Err(FormatError::Corrupt(m)) => assert!(m.contains("atom count"), "{}", m),
            other => panic!("expected Corrupt, got {:?}", other),
        }
    }

    #[test]
    fn seal_v2_roundtrips_bit_identically() {
        let t = traj();
        let v1 = write_xtcf(&t).unwrap();
        let sealed = seal_v2(v1.clone(), 25, 3).unwrap();
        // Body bytes untouched, directory appended.
        assert_eq!(&sealed[XTCF_HEADER_LEN..v1.len()], &v1[XTCF_HEADER_LEN..]);
        let r = XtcfReader::new(&sealed).unwrap();
        assert_eq!(r.version(), XTCF_VERSION_V2);
        let dir = r.directory().unwrap().clone();
        assert_eq!(dir.nchunks(), 2); // 3 + 1 frames
        assert_eq!(dir.nframes(), 4);
        assert_eq!(dir.chunk_frames, 3);
        assert_eq!(dir.frame_span(1), Some((3, 4)));
        assert_eq!(dir.chunk_of_frame(3), Some(1));
        assert_eq!(dir.chunk_of_frame(4), None);
        // Streaming shim: the v2 file decodes exactly like the v1 stream.
        assert_eq!(read_xtcf(&sealed).unwrap(), t);
        // Random access: chunk concatenation equals the frames.
        let mut frames = Vec::new();
        for c in 0..dir.nchunks() {
            frames.extend(decode_chunk(&sealed, &dir, c).unwrap());
        }
        assert_eq!(frames, t.frames);
    }

    #[test]
    fn seal_v2_zero_frames_has_no_chunks() {
        let sealed = seal_v2(write_xtcf(&Trajectory::new()).unwrap(), 0, 4).unwrap();
        let dir = parse_directory(&sealed).unwrap().unwrap();
        assert_eq!(dir.nchunks(), 0);
        assert!(read_xtcf(&sealed).unwrap().is_empty());
    }

    #[test]
    fn flipped_body_byte_fails_the_chunk_checksum() {
        let mut sealed = seal_v2(write_xtcf(&traj()).unwrap(), 25, 2).unwrap();
        let dir = parse_directory(&sealed).unwrap().unwrap();
        // Flip one coordinate byte inside chunk 1.
        let off = dir.entries[1].offset as usize + 50;
        sealed[off] ^= 0xFF;
        assert!(decode_chunk(&sealed, &dir, 0).is_ok());
        // The undecoded check hands out exactly the chunk's records.
        let start = dir.entries[0].offset as usize;
        let len = 2 * frame_record_len(25);
        assert_eq!(
            verify_chunk(&sealed, &dir, 0).unwrap(),
            &sealed[start..start + len]
        );
        match decode_chunk(&sealed, &dir, 1) {
            Err(FormatError::ChunkCorrupt { chunk, detail }) => {
                assert_eq!(chunk, 1);
                assert!(detail.contains("checksum"), "{}", detail);
            }
            other => panic!("expected ChunkCorrupt, got {:?}", other),
        }
        // ... and refuses a corrupt one with the decoder's own error.
        assert_eq!(
            verify_chunk(&sealed, &dir, 1).unwrap_err().to_string(),
            decode_chunk(&sealed, &dir, 1).unwrap_err().to_string()
        );
    }

    /// `sealed` with the atom count of record `frame` of chunk `chunk` set
    /// to `n` and the directory's CRC re-sealed over the changed body, so
    /// the checksum cannot be what catches it.
    fn redeclare_atoms(mut sealed: Vec<u8>, chunk: usize, frame: usize, n: u32) -> Vec<u8> {
        let dir = parse_directory(&sealed).unwrap().unwrap();
        let e = dir.entries[chunk];
        let start = e.offset as usize;
        let at = start + frame * frame_record_len(e.natoms as usize) + XTCF_RECORD_NATOMS_OFFSET;
        sealed[at..at + 4].copy_from_slice(&n.to_le_bytes());
        let crc = crc32(&sealed[start..start + e.body_len()]);
        let entry =
            sealed.len() - XTCF_TRAILER_LEN - (dir.nchunks() - chunk) * XTCF_DIR_ENTRY_LEN + 16;
        sealed[entry..entry + 4].copy_from_slice(&crc.to_le_bytes());
        sealed
    }

    #[test]
    fn record_declaring_another_atom_count_is_corrupt_though_the_crc_matches() {
        let sealed = seal_v2(write_xtcf(&traj()).unwrap(), 25, 2).unwrap();
        let broken = redeclare_atoms(sealed, 1, 1, 26);
        let dir = parse_directory(&broken).unwrap().unwrap();
        assert!(decode_chunk(&broken, &dir, 0).is_ok());
        match decode_chunk(&broken, &dir, 1) {
            Err(FormatError::ChunkCorrupt { chunk: 1, detail }) => {
                assert_eq!(detail, "frame 1 declares 26 atoms, the chunk directory 25")
            }
            other => panic!("expected ChunkCorrupt, got {:?}", other),
        }
        // Forwarding the chunk undecoded meets the same check.
        assert_eq!(
            verify_chunk(&broken, &dir, 1).unwrap_err().to_string(),
            decode_chunk(&broken, &dir, 1).unwrap_err().to_string()
        );
    }

    #[test]
    fn truncated_directory_is_corrupt() {
        let sealed = seal_v2(write_xtcf(&traj()).unwrap(), 25, 2).unwrap();
        // Cut into the trailer, and into the directory.
        assert!(parse_directory(&sealed[..sealed.len() - 1]).is_err());
        assert!(parse_directory(&sealed[..sealed.len() - XTCF_TRAILER_LEN]).is_err());
        // Drop one directory entry but keep a consistent-looking trailer.
        let mut cut = sealed[..sealed.len() - XTCF_TRAILER_LEN - XTCF_DIR_ENTRY_LEN].to_vec();
        cut.extend_from_slice(&sealed[sealed.len() - XTCF_TRAILER_LEN..]);
        assert!(parse_directory(&cut).is_err());
    }

    #[test]
    fn zero_frame_chunk_entry_is_rejected() {
        // Handcraft: v2 header, empty body, one directory entry declaring
        // zero frames, trailer saying one chunk.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&XTCF_MAGIC.to_le_bytes());
        bytes.extend_from_slice(&XTCF_VERSION_V2.to_le_bytes());
        bytes.extend_from_slice(&(XTCF_HEADER_LEN as u64).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes()); // nframes == 0
        bytes.extend_from_slice(&25u32.to_le_bytes());
        bytes.extend_from_slice(&crc32(&[]).to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&XTCF_FOOTER_MAGIC.to_le_bytes());
        match parse_directory(&bytes) {
            Err(FormatError::ChunkCorrupt { chunk: 0, detail }) => {
                assert!(detail.contains("zero frames"), "{}", detail)
            }
            other => panic!("expected ChunkCorrupt, got {:?}", other),
        }
    }

    #[test]
    fn chunk_span_wider_than_u64_is_rejected_not_wrapped() {
        // One entry declaring u32::MAX frames of u32::MAX atoms: the span
        // product exceeds u64 and must fail typed, not wrap or panic.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&XTCF_MAGIC.to_le_bytes());
        bytes.extend_from_slice(&XTCF_VERSION_V2.to_le_bytes());
        bytes.extend_from_slice(&(XTCF_HEADER_LEN as u64).to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&XTCF_FOOTER_MAGIC.to_le_bytes());
        match parse_directory(&bytes) {
            Err(FormatError::ChunkCorrupt { chunk: 0, detail }) => {
                assert!(detail.contains("overruns"), "{}", detail)
            }
            other => panic!("expected ChunkCorrupt, got {:?}", other),
        }
    }

    /// The byte-at-a-time table loop the braided kernel (and the slicing
    /// loop before it) replaced, kept as the reference it is checked against.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC32_TABLES.word[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        // Under two blocks: five whole words, then three bytes.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_braided_equals_bytewise_at_every_small_length_and_offset() {
        // Every length from nothing to five blocks and a word and a byte:
        // below two blocks (words and bytes only), exactly two (one main
        // iteration into the fold block), two and a word and bytes, and
        // the fold block fed by two, three and four main iterations.
        let max = 5 * CRC32_BLOCK + 9;
        let buf: Vec<u8> = (0..(16 + max) as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..16 {
            for len in 0..=max {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {} len {}", start, len);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]
        #[test]
        fn prop_crc32_braided_equals_bytewise(
            seed: u64,
            len in 0usize..(1 << 20) + 1,
            start in 0usize..16,
        ) {
            // One xorshift stream fills the buffer: cheap at 1 MiB and
            // dense in every byte value.
            let mut x = seed | 1;
            let buf: Vec<u8> = (0..start + len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 24) as u8
                })
                .collect();
            let s = &buf[start..];
            proptest::prop_assert_eq!(crc32(s), crc32_bytewise(s));
        }

        #[test]
        fn prop_decode_chunk_equals_read_xtcf_bit_for_bit(
            seed: u64,
            natoms in 0usize..41,
            nframes in 0usize..20,
            chunking in 0usize..4,
        ) {
            // Every field is raw random bits, NaN payloads included, so
            // frames compare as bits, not as floats.
            let mut x = seed | 1;
            let mut bits = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u32
            };
            let mut f = || f32::from_bits(bits());
            let mut w = XtcfWriter::new();
            for _ in 0..nframes {
                let mut pbc = PbcBox::zero();
                pbc.m.iter_mut().flatten().for_each(|v| *v = f());
                let coords: Vec<[f32; 3]> = (0..natoms).map(|_| [f(), f(), f()]).collect();
                w.write_frame_parts(f().to_bits() as i32, f(), &pbc, &coords).unwrap();
            }
            let v1 = w.into_bytes();
            let as_bits = |frames: &[Frame]| -> Vec<Vec<u32>> {
                frames
                    .iter()
                    .map(|fr| {
                        let head = [fr.step as u32, fr.time.to_bits()];
                        let floats = fr.pbc.m.iter().flatten().chain(fr.coords.iter().flatten());
                        head.into_iter().chain(floats.map(|v| v.to_bits())).collect()
                    })
                    .collect()
            };
            let streamed = read_xtcf(&v1).unwrap().frames;
            proptest::prop_assert_eq!(streamed.len(), nframes);
            let chunk_frames = [0, 1, 7, 64][chunking];
            let sealed = seal_v2(v1, natoms, chunk_frames).unwrap();
            let dir = parse_directory(&sealed).unwrap().unwrap();
            let mut chunked = Vec::new();
            for c in 0..dir.nchunks() {
                chunked.extend(decode_chunk(&sealed, &dir, c).unwrap());
            }
            proptest::prop_assert_eq!(as_bits(&chunked), as_bits(&streamed));
            // And the bits are the ones written: re-encoding reproduces them.
            let mut again = XtcfWriter::with_capacity(nframes, natoms);
            for fr in &chunked {
                again.write_frame(fr).unwrap();
            }
            proptest::prop_assert_eq!(
                seal_v2(again.into_bytes(), natoms, chunk_frames).unwrap(),
                sealed
            );
        }
    }
}
