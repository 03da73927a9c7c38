//! GROMACS `.xtc` trajectory files.
//!
//! Frame layout (all XDR big-endian):
//!
//! ```text
//! i32  magic          == 1995
//! i32  natoms
//! i32  step
//! f32  time (ps)
//! f32  box[3][3]      row-major
//! ...  xdr3dfcoord    (natoms again, then compressed coordinates)
//! ```
//!
//! There is one reader: a header-only [`index_frames`] scan finds the
//! frames (ADA checks and windows a trajectory from it without
//! decompressing anything), and [`decode_spans`] decodes any sub-slice of
//! them on the caller's thread — decompression dominates turnaround time
//! in the paper (Fig. 8), and a frame decodes independently of every
//! other, so a caller with cores to spend (ADA's ingest pool) cuts the
//! spans into units and decodes each where it likes. [`XtcWriter`] is the
//! write side.

mod bits;
mod coder;
#[cfg(test)]
mod reference;

pub use coder::XtcError;
use coder::{decode_3dfcoord, encode_3dfcoord, PLAIN_FLOAT_THRESHOLD};

use crate::traj::{Frame, Trajectory};
use crate::xdr::{XdrDecoder, XdrEncoder};
use crate::FormatError;
use ada_mdmodel::PbcBox;

/// The XTC frame magic number.
pub const XTC_MAGIC: i32 = 1995;

/// Default coordinate precision (lattice points per nm) used by GROMACS.
pub const DEFAULT_PRECISION: f32 = 1000.0;

/// Byte span of one frame within an XTC byte stream, plus its header fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameSpan {
    /// Byte offset of the frame start.
    pub offset: usize,
    /// Byte length of the whole frame record.
    pub len: usize,
    /// Atom count from the header.
    pub natoms: usize,
    /// Step number.
    pub step: i32,
    /// Time in ps.
    pub time: f32,
}

/// Appends XTC frames to a byte buffer.
#[derive(Debug)]
pub struct XtcWriter {
    enc: XdrEncoder,
    precision: f32,
    natoms: Option<usize>,
}

impl XtcWriter {
    /// Writer with the given coordinate precision.
    pub fn new(precision: f32) -> XtcWriter {
        XtcWriter {
            enc: XdrEncoder::new(),
            precision,
            natoms: None,
        }
    }

    /// Append one frame. All frames of a file must share one atom count.
    pub fn write_frame(&mut self, frame: &Frame) -> Result<(), XtcError> {
        if let Some(n) = self.natoms {
            if n != frame.len() {
                return Err(XtcError::BadAtomCount(frame.len() as i32));
            }
        } else {
            self.natoms = Some(frame.len());
        }
        self.enc.put_i32(XTC_MAGIC);
        self.enc.put_i32(frame.len() as i32);
        self.enc.put_i32(frame.step);
        self.enc.put_f32(frame.time);
        for row in &frame.pbc.m {
            self.enc.put_f32_vector(row);
        }
        encode_3dfcoord(&mut self.enc, &frame.coords, self.precision)
    }

    /// Finish, returning the encoded file bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.enc.into_bytes()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.enc.len()
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.enc.is_empty()
    }
}

fn read_frame(dec: &mut XdrDecoder) -> Result<Frame, XtcError> {
    let magic = dec.get_i32()?;
    if magic != XTC_MAGIC {
        return Err(XtcError::BadMagic(magic));
    }
    let natoms = dec.get_i32()?;
    if natoms < 0 {
        return Err(XtcError::BadAtomCount(natoms));
    }
    let step = dec.get_i32()?;
    let time = dec.get_f32()?;
    let mut pbc = PbcBox::zero();
    for r in 0..3 {
        for c in 0..3 {
            pbc.m[r][c] = dec.get_f32()?;
        }
    }
    let (coords, _prec) = decode_3dfcoord(dec)?;
    if coords.len() != natoms as usize {
        return Err(XtcError::Format(FormatError::Corrupt(format!(
            "header natoms {} != coordinate count {}",
            natoms,
            coords.len()
        ))));
    }
    Ok(Frame {
        step,
        time,
        pbc,
        coords,
    })
}

/// Encode a whole trajectory at `precision`.
///
/// ```
/// use ada_mdformats::{read_xtc, write_xtc, Frame, Trajectory};
///
/// let coords: Vec<[f32; 3]> = (0..100).map(|i| [i as f32 * 0.1, 0.0, 0.0]).collect();
/// let traj = Trajectory::from_frames(vec![Frame::from_coords(coords)]);
/// let bytes = write_xtc(&traj, 1000.0).unwrap();
/// assert!(bytes.len() < traj.nbytes()); // compressed
///
/// let back = read_xtc(&bytes).unwrap();
/// // Lossy to the 0.001 nm quantization lattice, no further.
/// for (a, b) in traj.frames[0].coords.iter().zip(&back.frames[0].coords) {
///     assert!((a[0] - b[0]).abs() <= 0.0005 + 1e-6);
/// }
/// ```
pub fn write_xtc(traj: &Trajectory, precision: f32) -> Result<Vec<u8>, XtcError> {
    let mut w = XtcWriter::new(precision);
    for f in &traj.frames {
        w.write_frame(f)?;
    }
    Ok(w.into_bytes())
}

/// Decode a whole XTC byte stream on the caller's thread.
pub fn read_xtc(data: &[u8]) -> Result<Trajectory, XtcError> {
    decode_spans(data, &index_frames(data)?)
}

/// Scan frame boundaries without decompressing coordinate payloads.
///
/// This walks headers only: for compressed frames it reads the payload byte
/// count and skips it, which is how a middleware can locate and size frames
/// cheaply before deciding what to decompress.
pub fn index_frames(data: &[u8]) -> Result<Vec<FrameSpan>, XtcError> {
    let mut spans = Vec::new();
    let mut dec = XdrDecoder::new(data);
    while !dec.is_at_end() {
        let offset = dec.position();
        let magic = dec.get_i32()?;
        if magic != XTC_MAGIC {
            return Err(XtcError::BadMagic(magic));
        }
        let natoms = dec.get_i32()?;
        if natoms < 0 {
            return Err(XtcError::BadAtomCount(natoms));
        }
        let step = dec.get_i32()?;
        let time = dec.get_f32()?;
        for _ in 0..9 {
            dec.get_f32()?;
        }
        // xdr3dfcoord body.
        let size = dec.get_i32()?;
        if size != natoms {
            return Err(XtcError::Format(FormatError::Corrupt(format!(
                "frame at {}: natoms {} != coord size {}",
                offset, natoms, size
            ))));
        }
        if size as usize <= PLAIN_FLOAT_THRESHOLD {
            for _ in 0..size * 3 {
                dec.get_f32()?;
            }
        } else {
            dec.get_f32()?; // precision
            for _ in 0..7 {
                dec.get_i32()?; // minint[3], maxint[3], smallidx
            }
            let nbytes = dec.get_i32()?;
            if nbytes < 0 {
                return Err(XtcError::Format(FormatError::Corrupt(
                    "negative payload length".into(),
                )));
            }
            dec.get_opaque(nbytes as usize)?;
        }
        spans.push(FrameSpan {
            offset,
            len: dec.position() - offset,
            natoms: natoms as usize,
            step,
            time,
        });
    }
    Ok(spans)
}

/// Decode the one frame `span` covers. A span that does not lie inside
/// `data` is an `UnexpectedEof`, not a panic.
fn decode_span(data: &[u8], span: &FrameSpan) -> Result<Frame, XtcError> {
    let bytes = data
        .get(span.offset..span.offset.saturating_add(span.len))
        .ok_or(XtcError::Format(FormatError::UnexpectedEof))?;
    read_frame(&mut XdrDecoder::new(bytes))
}

/// Decode the frames `spans` cover — all of [`index_frames`]`(data)` or
/// any sub-slice of it; a frame decodes the same alone as in a full read —
/// on the caller's thread, stopping at the first frame that fails.
pub fn decode_spans(data: &[u8], spans: &[FrameSpan]) -> Result<Trajectory, XtcError> {
    let mut frames = Vec::with_capacity(spans.len());
    for span in spans {
        frames.push(decode_span(data, span)?);
    }
    Ok(Trajectory::from_frames(frames))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_traj(nframes: usize, natoms: usize) -> Trajectory {
        let frames = (0..nframes)
            .map(|f| {
                let coords = (0..natoms)
                    .map(|a| {
                        [
                            (a % 17) as f32 * 0.3 + f as f32 * 0.001,
                            ((a / 17) % 13) as f32 * 0.3,
                            (a / 221) as f32 * 0.3 + (f as f32 * 0.27).sin() * 0.05,
                        ]
                    })
                    .collect();
                Frame {
                    step: (f * 100) as i32,
                    time: f as f32 * 2.0,
                    pbc: PbcBox::rectangular(8.0, 8.0, 8.0),
                    coords,
                }
            })
            .collect();
        Trajectory::from_frames(frames)
    }

    fn assert_traj_close(a: &Trajectory, b: &Trajectory, tol: f32) {
        assert_eq!(a.len(), b.len());
        for (fa, fb) in a.frames.iter().zip(&b.frames) {
            assert_eq!(fa.step, fb.step);
            assert_eq!(fa.time, fb.time);
            assert_eq!(fa.pbc, fb.pbc);
            assert_eq!(fa.coords.len(), fb.coords.len());
            for (ca, cb) in fa.coords.iter().zip(&fb.coords) {
                for d in 0..3 {
                    assert!((ca[d] - cb[d]).abs() <= tol);
                }
            }
        }
    }

    #[test]
    fn multi_frame_roundtrip() {
        let traj = test_traj(5, 300);
        let bytes = write_xtc(&traj, DEFAULT_PRECISION).unwrap();
        let back = read_xtc(&bytes).unwrap();
        assert_traj_close(&traj, &back, 0.5 / DEFAULT_PRECISION + 1e-6);
    }

    #[test]
    fn header_fields_preserved() {
        let traj = test_traj(3, 50);
        let bytes = write_xtc(&traj, DEFAULT_PRECISION).unwrap();
        let back = read_xtc(&bytes).unwrap();
        assert_eq!(back.frames[2].step, 200);
        assert_eq!(back.frames[2].time, 4.0);
        assert_eq!(back.frames[0].pbc, PbcBox::rectangular(8.0, 8.0, 8.0));
    }

    #[test]
    fn index_matches_frames() {
        let traj = test_traj(7, 120);
        let bytes = write_xtc(&traj, DEFAULT_PRECISION).unwrap();
        let spans = index_frames(&bytes).unwrap();
        assert_eq!(spans.len(), 7);
        assert_eq!(spans[0].offset, 0);
        for w in spans.windows(2) {
            assert_eq!(w[0].offset + w[0].len, w[1].offset);
        }
        assert_eq!(
            spans.last().unwrap().offset + spans.last().unwrap().len,
            bytes.len()
        );
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(s.natoms, 120);
            assert_eq!(s.step, (i * 100) as i32);
        }
    }

    #[test]
    fn a_sub_slice_of_the_spans_decodes_to_those_frames() {
        let traj = test_traj(9, 150);
        let bytes = write_xtc(&traj, DEFAULT_PRECISION).unwrap();
        let spans = index_frames(&bytes).unwrap();
        let seq = read_xtc(&bytes).unwrap();
        // Frame i decoded alone is frame i of a full read, in any order.
        for i in [7usize, 0, 4, 8, 4, 2] {
            let one = decode_spans(&bytes, &spans[i..=i]).unwrap();
            assert_eq!(one.frames, seq.frames[i..=i]);
        }
        // So is a window of them.
        let window = decode_spans(&bytes, &spans[2..7]).unwrap();
        assert_eq!(window.frames, seq.frames[2..7]);
        assert!(decode_spans(&bytes, &[]).unwrap().is_empty());
        // A span that is not of this stream is an error, not a panic.
        let mut stray = spans[8];
        stray.offset = bytes.len();
        assert!(decode_spans(&bytes, &[stray]).is_err());
    }

    #[test]
    fn atom_count_mismatch_across_frames_rejected() {
        let mut w = XtcWriter::new(DEFAULT_PRECISION);
        w.write_frame(&Frame::from_coords(vec![[0.0; 3]; 20]))
            .unwrap();
        let err = w.write_frame(&Frame::from_coords(vec![[0.0; 3]; 21]));
        assert!(err.is_err());
    }

    #[test]
    fn bad_magic_detected() {
        let traj = test_traj(1, 30);
        let mut bytes = write_xtc(&traj, DEFAULT_PRECISION).unwrap();
        bytes[3] = 0x07; // clobber magic
        assert!(matches!(read_xtc(&bytes), Err(XtcError::BadMagic(_))));
    }

    #[test]
    fn truncated_file_detected() {
        let traj = test_traj(2, 40);
        let bytes = write_xtc(&traj, DEFAULT_PRECISION).unwrap();
        let cut = &bytes[..bytes.len() - 5];
        assert!(read_xtc(cut).is_err());
        assert!(index_frames(cut).is_err());
    }

    #[test]
    fn empty_stream_is_empty_trajectory() {
        assert!(read_xtc(&[]).unwrap().is_empty());
        assert!(index_frames(&[]).unwrap().is_empty());
    }

    #[test]
    fn small_frames_plain_float_path_in_file() {
        let traj = Trajectory::from_frames(vec![Frame::from_coords(vec![
            [1.0, 2.0, 3.0],
            [-1.0, -2.0, -3.0],
        ])]);
        let bytes = write_xtc(&traj, DEFAULT_PRECISION).unwrap();
        let back = read_xtc(&bytes).unwrap();
        assert_eq!(back.frames[0].coords, traj.frames[0].coords); // lossless
        let spans = index_frames(&bytes).unwrap();
        assert_eq!(spans[0].len, bytes.len());
    }

    #[test]
    fn compression_ratio_on_lattice_data() {
        let traj = test_traj(4, 5000);
        let bytes = write_xtc(&traj, DEFAULT_PRECISION).unwrap();
        let raw = 4 * 5000 * 12;
        assert!(
            bytes.len() * 2 < raw,
            "compressed {} vs raw {}",
            bytes.len(),
            raw
        );
    }
}
