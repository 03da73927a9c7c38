//! The `xdr3dfcoord` coordinate compression algorithm.
//!
//! This is a faithful from-scratch port of the coder used by GROMACS'
//! `.xtc` trajectories (libxdrfile's `xdr3dfcoord`):
//!
//! 1. every coordinate is quantized to an integer lattice at a caller-chosen
//!    `precision` (lattice points per nanometre, default 1000);
//! 2. the per-frame integer bounding box (`minint..=maxint`) sets the bit
//!    width for "absolute" coordinates via the mixed-radix
//!    [`size_of_ints`](super::bits::size_of_ints) packing;
//! 3. consecutive atoms that sit close together (water molecules, bonded
//!    atoms) are encoded as *runs* of small displacement triples against a
//!    sliding "small number" scale picked from the `MAGICINTS` table, with
//!    one flag bit per group and a 5-bit run descriptor that also carries
//!    scale up/down adjustments;
//! 4. a first-with-second atom swap heuristic improves water compression.
//!
//! The decompressor is the exact inverse. Compression is lossy (quantized to
//! `1/precision` nm) but decompress∘compress is idempotent on the quantized
//! lattice — properties the test suite checks.

use super::bits::{size_of_int, size_of_ints, BitReader, BitWriter, Triple};
use crate::xdr::{XdrDecoder, XdrEncoder};
use crate::FormatError;

/// Errors from the XTC codec.
#[derive(Debug)]
pub enum XtcError {
    /// Underlying XDR / framing problem.
    Format(FormatError),
    /// A quantized coordinate overflowed the 32-bit lattice
    /// (|coord × precision| too large).
    CoordinateOverflow,
    /// Frame magic was not 1995.
    BadMagic(i32),
    /// Precision must be finite and positive.
    BadPrecision(f32),
    /// Negative or absurd atom count in the stream.
    BadAtomCount(i32),
    /// Compressed payload ended prematurely.
    TruncatedPayload,
}

impl From<FormatError> for XtcError {
    fn from(e: FormatError) -> XtcError {
        XtcError::Format(e)
    }
}

impl std::fmt::Display for XtcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XtcError::Format(e) => write!(f, "xtc: {}", e),
            XtcError::CoordinateOverflow => write!(f, "xtc: quantized coordinate overflow"),
            XtcError::BadMagic(m) => write!(f, "xtc: bad magic {} (expected 1995)", m),
            XtcError::BadPrecision(p) => write!(f, "xtc: bad precision {}", p),
            XtcError::BadAtomCount(n) => write!(f, "xtc: bad atom count {}", n),
            XtcError::TruncatedPayload => write!(f, "xtc: truncated compressed payload"),
        }
    }
}

impl std::error::Error for XtcError {}

/// The magic bit-scale table: `MAGICINTS[i]³ ≤ 2^i`, so a triple of values
/// each below `MAGICINTS[i]` packs into exactly `i` bits.
pub(super) const MAGICINTS: [i32; 73] = [
    0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 10, 12, 16, 20, 25, 32, 40, 50, 64, 80, 101, 128, 161, 203, 256,
    322, 406, 512, 645, 812, 1024, 1290, 1625, 2048, 2580, 3250, 4096, 5060, 6501, 8192, 10321,
    13003, 16384, 20642, 26007, 32768, 41285, 52015, 65536, 82570, 104031, 131072, 165140, 208063,
    262144, 330280, 416127, 524287, 660561, 832255, 1048576, 1321122, 1664510, 2097152, 2642245,
    3329021, 4194304, 5284491, 6658042, 8388607, 10568983, 13316085, 16777216,
];

pub(super) const FIRSTIDX: usize = 9;
pub(super) const LASTIDX: usize = MAGICINTS.len() - 1;
/// Largest representable |quantized coordinate| (INT_MAX - 2, as in C).
pub(super) const MAX_ABS: f32 = (i32::MAX - 2) as f32;
/// Frames with at most this many atoms are stored as plain floats.
pub(super) const PLAIN_FLOAT_THRESHOLD: usize = 9;

/// `SMALL[i]` is the shape of a small-run field at `smallidx == i`: `i`
/// bits, all three components below `MAGICINTS[i]`. (Below `FIRSTIDX`
/// there are no runs, only placeholders.)
const SMALL: [Triple; MAGICINTS.len()] = {
    let mut table = [Triple::new(0, &[1; 3]); MAGICINTS.len()];
    let mut i = FIRSTIDX;
    while i < table.len() {
        table[i] = Triple::new(i as u32, &[MAGICINTS[i] as u32; 3]);
        i += 1;
    }
    table
};

/// Encode coordinates at `precision` into `enc` (the body that follows the
/// XTC frame header). Layout: natoms, [precision, minint×3, maxint×3,
/// smallidx, nbytes, payload] or plain floats for ≤ 9 atoms.
pub(super) fn encode_3dfcoord(
    enc: &mut XdrEncoder,
    coords: &[[f32; 3]],
    precision: f32,
) -> Result<(), XtcError> {
    let size = coords.len();
    enc.put_i32(size as i32);
    if size <= PLAIN_FLOAT_THRESHOLD {
        for c in coords {
            enc.put_f32_vector(c);
        }
        return Ok(());
    }
    if !(precision.is_finite() && precision > 0.0) {
        return Err(XtcError::BadPrecision(precision));
    }
    enc.put_f32(precision);

    // Pass 1: quantize, track bounds and the minimum consecutive-atom
    // displacement that seeds the small-number scale.
    let mut ints: Vec<[i32; 3]> = Vec::with_capacity(size);
    let mut minint = [i32::MAX; 3];
    let mut maxint = [i32::MIN; 3];
    let mut mindiff: i64 = i64::MAX;
    let mut old = [0i64; 3];
    for (ai, c) in coords.iter().enumerate() {
        let mut q = [0i32; 3];
        for d in 0..3 {
            let lf = if c[d] >= 0.0 {
                c[d] * precision + 0.5
            } else {
                c[d] * precision - 0.5
            };
            // NaN fails this comparison too (hence not `>` on the negation).
            if lf.is_nan() || lf.abs() > MAX_ABS {
                return Err(XtcError::CoordinateOverflow);
            }
            let v = lf as i32; // trunc: round-half-away-from-zero overall
            q[d] = v;
            minint[d] = minint[d].min(v);
            maxint[d] = maxint[d].max(v);
        }
        if ai >= 1 {
            let diff = (old[0] - q[0] as i64).abs()
                + (old[1] - q[1] as i64).abs()
                + (old[2] - q[2] as i64).abs();
            mindiff = mindiff.min(diff);
        }
        old = [q[0] as i64, q[1] as i64, q[2] as i64];
        ints.push(q);
    }

    for d in 0..3 {
        if (maxint[d] as f32 - minint[d] as f32) >= MAX_ABS {
            return Err(XtcError::CoordinateOverflow);
        }
    }
    for &m in &minint {
        enc.put_i32(m);
    }
    for &m in &maxint {
        enc.put_i32(m);
    }

    let mut sizeint = [0u32; 3];
    for d in 0..3 {
        sizeint[d] = (maxint[d] as i64 - minint[d] as i64 + 1) as u32;
    }
    let (bitsize, bitsizeint) = if (sizeint[0] | sizeint[1] | sizeint[2]) > 0xff_ffff {
        (
            0u32,
            [
                size_of_int(sizeint[0]),
                size_of_int(sizeint[1]),
                size_of_int(sizeint[2]),
            ],
        )
    } else {
        (size_of_ints(&sizeint), [0u32; 3])
    };

    let mut smallidx = FIRSTIDX;
    while smallidx < LASTIDX && (MAGICINTS[smallidx] as i64) < mindiff {
        smallidx += 1;
    }
    enc.put_i32(smallidx as i32);

    let maxidx = LASTIDX.min(smallidx + 8);
    let minidx = maxidx - 8;
    let mut smaller = MAGICINTS[FIRSTIDX.max(smallidx - 1)] / 2;
    let mut smallnum = MAGICINTS[smallidx] / 2;
    let mut sizesmall = [MAGICINTS[smallidx] as u32; 3];
    let larger = (MAGICINTS[maxidx] / 2) as i64;

    let mut w = BitWriter::new();
    let mut prevcoord = [0i32; 3];
    let mut prevrun: i32 = -1;
    let mut tmpcoord = [0u32; 30];
    let mut i = 0usize;
    while i < size {
        let mut is_small = false;
        let mut is_smaller: i32 = if smallidx < maxidx
            && i >= 1
            && (ints[i][0] as i64 - prevcoord[0] as i64).abs() < larger
            && (ints[i][1] as i64 - prevcoord[1] as i64).abs() < larger
            && (ints[i][2] as i64 - prevcoord[2] as i64).abs() < larger
        {
            1
        } else if smallidx > minidx {
            -1
        } else {
            0
        };
        if i + 1 < size
            && (ints[i][0] as i64 - ints[i + 1][0] as i64).abs() < smallnum as i64
            && (ints[i][1] as i64 - ints[i + 1][1] as i64).abs() < smallnum as i64
            && (ints[i][2] as i64 - ints[i + 1][2] as i64).abs() < smallnum as i64
        {
            // Swap first with second atom: waters compress better with the
            // oxygen in the middle of the run.
            ints.swap(i, i + 1);
            is_small = true;
        }
        let abs0 = (ints[i][0].wrapping_sub(minint[0])) as u32;
        let abs1 = (ints[i][1].wrapping_sub(minint[1])) as u32;
        let abs2 = (ints[i][2].wrapping_sub(minint[2])) as u32;
        if bitsize == 0 {
            w.send_bits(bitsizeint[0], abs0);
            w.send_bits(bitsizeint[1], abs1);
            w.send_bits(bitsizeint[2], abs2);
        } else {
            w.send_ints(bitsize, &sizeint, &[abs0, abs1, abs2]);
        }
        prevcoord = ints[i];
        i += 1;

        let mut run: usize = 0;
        if !is_small && is_smaller == -1 {
            is_smaller = 0;
        }
        while is_small && run < 8 * 3 {
            if is_smaller == -1 {
                let dx = ints[i][0] as i64 - prevcoord[0] as i64;
                let dy = ints[i][1] as i64 - prevcoord[1] as i64;
                let dz = ints[i][2] as i64 - prevcoord[2] as i64;
                if dx * dx + dy * dy + dz * dz >= (smaller as i64) * (smaller as i64) {
                    is_smaller = 0;
                }
            }
            for d in 0..3 {
                tmpcoord[run] = (ints[i][d] as i64 - prevcoord[d] as i64 + smallnum as i64) as u32;
                run += 1;
            }
            prevcoord = ints[i];
            i += 1;
            is_small = i < size
                && (ints[i][0] as i64 - prevcoord[0] as i64).abs() < smallnum as i64
                && (ints[i][1] as i64 - prevcoord[1] as i64).abs() < smallnum as i64
                && (ints[i][2] as i64 - prevcoord[2] as i64).abs() < smallnum as i64;
        }
        if run as i32 != prevrun || is_smaller != 0 {
            prevrun = run as i32;
            w.send_bits(1, 1);
            w.send_bits(5, (run as i32 + is_smaller + 1) as u32);
        } else {
            w.send_bits(1, 0);
        }
        for k in (0..run).step_by(3) {
            w.send_ints(
                smallidx as u32,
                &sizesmall,
                &[tmpcoord[k], tmpcoord[k + 1], tmpcoord[k + 2]],
            );
        }
        if is_smaller != 0 {
            smallidx = (smallidx as i32 + is_smaller) as usize;
            if is_smaller < 0 {
                smallnum = smaller;
                smaller = MAGICINTS[smallidx - 1] / 2;
            } else {
                smaller = smallnum;
                smallnum = MAGICINTS[smallidx] / 2;
            }
            sizesmall = [MAGICINTS[smallidx] as u32; 3];
        }
    }

    let payload = w.finish();
    enc.put_i32(payload.len() as i32);
    enc.put_opaque(&payload);
    Ok(())
}

/// Decode a coordinate block produced by [`encode_3dfcoord`]. Returns the
/// coordinates and the precision recorded in the stream (`-1.0` for the
/// plain-float small-frame path, matching the C API).
pub(super) fn decode_3dfcoord(dec: &mut XdrDecoder) -> Result<(Vec<[f32; 3]>, f32), XtcError> {
    let lsize = dec.get_i32()?;
    if lsize < 0 {
        return Err(XtcError::BadAtomCount(lsize));
    }
    let size = lsize as usize;
    if size <= PLAIN_FLOAT_THRESHOLD {
        let mut out = Vec::with_capacity(size);
        for _ in 0..size {
            out.push([dec.get_f32()?, dec.get_f32()?, dec.get_f32()?]);
        }
        return Ok((out, -1.0));
    }
    let precision = dec.get_f32()?;
    if !(precision.is_finite() && precision > 0.0) {
        return Err(XtcError::BadPrecision(precision));
    }
    let inv_precision = 1.0 / precision;

    let mut minint = [0i32; 3];
    let mut maxint = [0i32; 3];
    for m in minint.iter_mut() {
        *m = dec.get_i32()?;
    }
    for m in maxint.iter_mut() {
        *m = dec.get_i32()?;
    }
    let mut sizeint = [0u32; 3];
    for d in 0..3 {
        let span = maxint[d] as i64 - minint[d] as i64 + 1;
        if span <= 0 || span > u32::MAX as i64 {
            return Err(XtcError::Format(FormatError::Corrupt(format!(
                "bad coordinate bounds on axis {}",
                d
            ))));
        }
        sizeint[d] = span as u32;
    }
    let (bitsize, bitsizeint) = if (sizeint[0] | sizeint[1] | sizeint[2]) > 0xff_ffff {
        (
            0u32,
            [
                size_of_int(sizeint[0]),
                size_of_int(sizeint[1]),
                size_of_int(sizeint[2]),
            ],
        )
    } else {
        (size_of_ints(&sizeint), [0u32; 3])
    };

    let smallidx_raw = dec.get_i32()?;
    if smallidx_raw < FIRSTIDX as i32 || smallidx_raw > LASTIDX as i32 {
        return Err(XtcError::Format(FormatError::Corrupt(format!(
            "smallidx {} out of range",
            smallidx_raw
        ))));
    }
    let mut smallidx = smallidx_raw as usize;
    let mut smaller = MAGICINTS[FIRSTIDX.max(smallidx - 1)] / 2;
    let mut smallnum = MAGICINTS[smallidx] / 2;

    let nbytes = dec.get_i32()?;
    if nbytes < 0 {
        return Err(XtcError::Format(FormatError::Corrupt(
            "negative payload length".into(),
        )));
    }
    let payload = dec.get_opaque(nbytes as usize)?;
    let mut r = BitReader::new(payload);
    let absolute = Triple::new(bitsize, &sizeint);

    // Bound the up-front reservation so a corrupt atom count cannot force a
    // multi-gigabyte allocation before the payload proves itself.
    let mut out: Vec<[f32; 3]> = Vec::with_capacity(size.min(1 << 22));
    let mut run: u32 = 0;
    let mut i = 0usize;
    while i < size {
        let mut this = [0i32; 3];
        if bitsize == 0 {
            for d in 0..3 {
                this[d] = r
                    .receive_bits(bitsizeint[d])
                    .map_err(|_| XtcError::TruncatedPayload)? as i32;
            }
        } else {
            let nums = r
                .receive_ints(&absolute)
                .map_err(|_| XtcError::TruncatedPayload)?;
            this = [nums[0] as i32, nums[1] as i32, nums[2] as i32];
        }
        i += 1;
        for d in 0..3 {
            this[d] = this[d].wrapping_add(minint[d]);
        }
        let mut prevcoord = [this[0], this[1], this[2]];

        let flag = r.receive_bits(1).map_err(|_| XtcError::TruncatedPayload)?;
        let mut is_smaller: i32 = 0;
        if flag == 1 {
            let v = r.receive_bits(5).map_err(|_| XtcError::TruncatedPayload)?;
            is_smaller = (v % 3) as i32;
            run = v - is_smaller as u32;
            is_smaller -= 1;
        }
        if i + run as usize / 3 > size {
            // A valid encoder never starts a run that passes the end of the
            // frame (`is_small` requires another atom to exist).
            return Err(XtcError::Format(FormatError::Corrupt(format!(
                "run of {} exceeds frame size {}",
                run, size
            ))));
        }
        if run > 0 {
            let small = &SMALL[smallidx];
            for k in (0..run).step_by(3) {
                let nums = r
                    .receive_ints(small)
                    .map_err(|_| XtcError::TruncatedPayload)?;
                i += 1;
                let mut this = [0i32; 3];
                for d in 0..3 {
                    this[d] = (nums[d] as i64 + prevcoord[d] as i64 - smallnum as i64) as i32;
                }
                if k == 0 {
                    // Undo the water-swap: emit the (stream-)second atom
                    // first.
                    std::mem::swap(&mut this[0], &mut prevcoord[0]);
                    std::mem::swap(&mut this[1], &mut prevcoord[1]);
                    std::mem::swap(&mut this[2], &mut prevcoord[2]);
                    out.push([
                        prevcoord[0] as f32 * inv_precision,
                        prevcoord[1] as f32 * inv_precision,
                        prevcoord[2] as f32 * inv_precision,
                    ]);
                } else {
                    prevcoord = this;
                }
                out.push([
                    this[0] as f32 * inv_precision,
                    this[1] as f32 * inv_precision,
                    this[2] as f32 * inv_precision,
                ]);
            }
        } else {
            out.push([
                this[0] as f32 * inv_precision,
                this[1] as f32 * inv_precision,
                this[2] as f32 * inv_precision,
            ]);
        }
        smallidx = (smallidx as i32 + is_smaller) as usize;
        if smallidx > LASTIDX {
            return Err(XtcError::Format(FormatError::Corrupt(
                "smallidx drifted out of range".into(),
            )));
        }
        if is_smaller < 0 {
            smallnum = smaller;
            smaller = if smallidx > FIRSTIDX {
                MAGICINTS[smallidx - 1] / 2
            } else {
                0
            };
        } else if is_smaller > 0 {
            smaller = smallnum;
            smallnum = MAGICINTS[smallidx] / 2;
        }
        if MAGICINTS[smallidx] == 0 {
            return Err(XtcError::Format(FormatError::Corrupt(
                "small size underflow".into(),
            )));
        }
    }
    out.truncate(size);
    Ok((out, precision))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(coords: &[[f32; 3]], precision: f32) -> Vec<[f32; 3]> {
        let mut enc = XdrEncoder::new();
        encode_3dfcoord(&mut enc, coords, precision).unwrap();
        let bytes = enc.into_bytes();
        let mut dec = XdrDecoder::new(&bytes);
        let (out, p) = decode_3dfcoord(&mut dec).unwrap();
        if coords.len() > PLAIN_FLOAT_THRESHOLD {
            assert_eq!(p, precision);
        }
        assert!(dec.is_at_end(), "trailing bytes after decode");
        out
    }

    fn assert_close(a: &[[f32; 3]], b: &[[f32; 3]], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            for d in 0..3 {
                assert!(
                    (x[d] - y[d]).abs() <= tol,
                    "coordinate mismatch: {} vs {} (tol {})",
                    x[d],
                    y[d],
                    tol
                );
            }
        }
    }

    #[test]
    fn small_frame_plain_floats() {
        let coords = vec![[1.5, -2.25, 3.75], [0.0, 0.5, -0.5]];
        let out = roundtrip(&coords, 1000.0);
        // Plain float path is lossless.
        assert_eq!(out, coords);
    }

    #[test]
    fn ten_atoms_compressed_path() {
        let coords: Vec<[f32; 3]> = (0..10)
            .map(|i| [i as f32 * 0.1, i as f32 * 0.2, 1.0 - i as f32 * 0.05])
            .collect();
        let out = roundtrip(&coords, 1000.0);
        assert_close(&coords, &out, 0.5 / 1000.0 + 1e-6);
    }

    #[test]
    fn water_like_cluster_uses_runs() {
        // Many clusters of three nearby atoms: exercises the swap heuristic
        // and run coding.
        let mut coords = Vec::new();
        for m in 0..50 {
            let base = [m as f32 * 0.3, (m % 7) as f32 * 0.25, (m % 5) as f32 * 0.4];
            coords.push(base);
            coords.push([base[0] + 0.0957, base[1], base[2]]);
            coords.push([base[0] - 0.024, base[1] + 0.0927, base[2]]);
        }
        let out = roundtrip(&coords, 1000.0);
        assert_close(&coords, &out, 0.5 / 1000.0 + 1e-6);
    }

    #[test]
    fn negative_coordinates() {
        let coords: Vec<[f32; 3]> = (0..40)
            .map(|i| {
                [
                    -5.0 + i as f32 * 0.13,
                    -20.0 + (i * i % 17) as f32 * 0.07,
                    -0.001 * i as f32,
                ]
            })
            .collect();
        let out = roundtrip(&coords, 1000.0);
        assert_close(&coords, &out, 0.5 / 1000.0 + 1e-6);
    }

    #[test]
    fn idempotent_on_quantized_lattice() {
        // decompress(compress(x)) == decompress(compress(decompress(compress(x))))
        let coords: Vec<[f32; 3]> = (0..100)
            .map(|i| {
                [
                    (i as f32 * 0.731).sin() * 3.0,
                    (i as f32 * 0.377).cos() * 3.0,
                    i as f32 * 0.011,
                ]
            })
            .collect();
        let once = roundtrip(&coords, 1000.0);
        let twice = roundtrip(&once, 1000.0);
        assert_eq!(once, twice);
    }

    #[test]
    fn wide_dynamic_range_per_component_path() {
        // Spread > 0xffffff lattice units on one axis forces bitsize == 0
        // (independent per-component widths).
        let mut coords: Vec<[f32; 3]> = (0..20)
            .map(|i| [i as f32 * 0.1, i as f32 * 0.01, i as f32 * 0.02])
            .collect();
        coords.push([20000.0, 0.0, 0.0]); // 2e7 lattice units at prec 1000
        let out = roundtrip(&coords, 1000.0);
        assert_close(&coords, &out, 0.5 / 1000.0 + 2e-3); // f32 rel. error at 2e7
    }

    #[test]
    fn precision_variants() {
        let coords: Vec<[f32; 3]> = (0..30)
            .map(|i| {
                [
                    i as f32 * 0.05,
                    1.0 / (1.0 + i as f32),
                    -2.5 + i as f32 * 0.2,
                ]
            })
            .collect();
        for &prec in &[10.0f32, 100.0, 1000.0, 100000.0] {
            let out = roundtrip(&coords, prec);
            assert_close(&coords, &out, 0.5 / prec + 1e-5);
        }
    }

    #[test]
    fn coordinate_overflow_rejected() {
        let mut coords = vec![[0.0f32; 3]; 12];
        coords[5] = [3.0e6, 0.0, 0.0]; // 3e9 lattice units > i32::MAX
        let mut enc = XdrEncoder::new();
        assert!(matches!(
            encode_3dfcoord(&mut enc, &coords, 1000.0),
            Err(XtcError::CoordinateOverflow)
        ));
    }

    #[test]
    fn bad_precision_rejected() {
        let coords = vec![[0.0f32; 3]; 12];
        let mut enc = XdrEncoder::new();
        assert!(matches!(
            encode_3dfcoord(&mut enc, &coords, 0.0),
            Err(XtcError::BadPrecision(_))
        ));
        let mut enc2 = XdrEncoder::new();
        assert!(matches!(
            encode_3dfcoord(&mut enc2, &coords, f32::NAN),
            Err(XtcError::BadPrecision(_))
        ));
    }

    #[test]
    fn truncated_payload_detected() {
        let coords: Vec<[f32; 3]> = (0..30).map(|i| [i as f32 * 0.1; 3]).collect();
        let mut enc = XdrEncoder::new();
        encode_3dfcoord(&mut enc, &coords, 1000.0).unwrap();
        let bytes = enc.into_bytes();
        // Chop the tail of the opaque payload.
        let cut = &bytes[..bytes.len() - 8];
        let mut dec = XdrDecoder::new(cut);
        assert!(decode_3dfcoord(&mut dec).is_err());
    }

    #[test]
    fn corrupt_bounds_detected() {
        let coords: Vec<[f32; 3]> = (0..12).map(|i| [i as f32 * 0.1; 3]).collect();
        let mut enc = XdrEncoder::new();
        encode_3dfcoord(&mut enc, &coords, 1000.0).unwrap();
        let mut bytes = enc.into_bytes();
        // Swap minint[0] (offset 8) and maxint[0] (offset 20) so the span
        // goes negative.
        for k in 0..4 {
            bytes.swap(8 + k, 20 + k);
        }
        let mut dec = XdrDecoder::new(&bytes);
        assert!(decode_3dfcoord(&mut dec).is_err());
    }

    #[test]
    fn smallidx_stepping_past_the_table_is_an_error() {
        // Header says smallidx 72 (the last entry); the first group's run
        // descriptor (flag 1, then 00010: run 0, scale up) steps it to 73.
        let mut enc = XdrEncoder::new();
        enc.put_i32(10);
        enc.put_f32(1000.0);
        for bound in [0, 0, 0, 1, 1, 1] {
            enc.put_i32(bound); // sizes 2×2×2: a 4-bit absolute field
        }
        enc.put_i32(LASTIDX as i32);
        enc.put_i32(2);
        enc.put_opaque(&[0b0000_1000, 0b1000_0000]);
        let bytes = enc.into_bytes();
        let err = decode_3dfcoord(&mut XdrDecoder::new(&bytes)).unwrap_err();
        assert!(err.to_string().contains("smallidx drifted"), "{}", err);
    }

    #[test]
    fn empty_frame() {
        let out = roundtrip(&[], 1000.0);
        assert!(out.is_empty());
    }

    #[test]
    fn compression_beats_plain_floats_on_md_like_data() {
        // An ordered, water-heavy layout should compress well below 12
        // bytes/atom.
        let mut coords = Vec::new();
        for i in 0..3000 {
            let x = (i % 30) as f32 * 0.31;
            let y = ((i / 30) % 10) as f32 * 0.31;
            let z = (i / 300) as f32 * 0.31;
            coords.push([x, y, z]);
        }
        let mut enc = XdrEncoder::new();
        encode_3dfcoord(&mut enc, &coords, 1000.0).unwrap();
        let compressed = enc.len();
        let plain = coords.len() * 12;
        assert!(
            compressed * 2 < plain,
            "expected at least 2x compression, got {} vs {}",
            compressed,
            plain
        );
    }

    // ---- the word-buffer coder against the seed's (`super::reference`) ----

    use crate::xtc::reference;
    use proptest::prelude::*;

    // The two generators of `tests/proptest_formats.rs` (the reference is
    // compiled for unit tests only, so the comparison has to live here).
    fn arb_coords(max_atoms: usize, span: f32) -> impl Strategy<Value = Vec<[f32; 3]>> {
        prop::collection::vec(prop::array::uniform3(-span..span), 0..max_atoms)
    }

    fn arb_clustered_coords() -> impl Strategy<Value = Vec<[f32; 3]>> {
        prop::collection::vec(
            (
                prop::array::uniform3(-20.0f32..20.0),
                prop::collection::vec(prop::array::uniform3(-0.15f32..0.15), 0..4),
            ),
            1..40,
        )
        .prop_map(|clusters| {
            let mut out = Vec::new();
            for (center, offsets) in clusters {
                out.push(center);
                for o in offsets {
                    out.push([center[0] + o[0], center[1] + o[1], center[2] + o[2]]);
                }
            }
            out
        })
    }

    fn arb_precision() -> impl Strategy<Value = f32> {
        prop::sample::select(vec![10.0f32, 100.0, 1000.0, 10_000.0, 100_000.0])
    }

    type Encode = fn(&mut XdrEncoder, &[[f32; 3]], f32) -> Result<(), XtcError>;
    type Decode = fn(&mut XdrDecoder) -> Result<(Vec<[f32; 3]>, f32), XtcError>;

    /// The encoded block, or the error's text.
    fn encoded(encode: Encode, coords: &[[f32; 3]], precision: f32) -> Result<Vec<u8>, String> {
        let mut enc = XdrEncoder::new();
        encode(&mut enc, coords, precision).map_err(|e| e.to_string())?;
        Ok(enc.into_bytes())
    }

    /// What a decode yields, down to the bit: coordinates and precision as
    /// `f32::to_bits`, and how many bytes it consumed — or the error's text.
    fn decoded(decode: Decode, bytes: &[u8]) -> Result<(Vec<[u32; 3]>, u32, usize), String> {
        let mut dec = XdrDecoder::new(bytes);
        let (coords, precision) = decode(&mut dec).map_err(|e| e.to_string())?;
        let bits = coords.iter().map(|c| c.map(f32::to_bits)).collect();
        Ok((bits, precision.to_bits(), dec.position()))
    }

    /// Encoder and decoder each agree with their reference on `coords`;
    /// returns the encoded block when there is one.
    fn assert_equivalent(coords: &[[f32; 3]], precision: f32) -> Option<Vec<u8>> {
        let bytes = encoded(encode_3dfcoord, coords, precision);
        assert_eq!(
            bytes,
            encoded(reference::encode_3dfcoord, coords, precision)
        );
        let bytes = bytes.ok()?;
        let out = decoded(decode_3dfcoord, &bytes);
        assert_eq!(out, decoded(reference::decode_3dfcoord, &bytes));
        assert_eq!(
            out.map(|(c, _, used)| (c.len(), used)),
            Ok((coords.len(), bytes.len()))
        );
        Some(bytes)
    }

    /// Both decoders give the same answer — same bits or same error — on
    /// `bytes` with one byte XORed, and on `bytes` cut short.
    fn assert_equivalent_when_damaged(bytes: &[u8], at: usize, mask: u8, cut: usize) {
        let mut flipped = bytes.to_vec();
        flipped[at % bytes.len()] ^= mask;
        let cut = &bytes[..cut % bytes.len()];
        for damaged in [&flipped[..], cut] {
            assert_eq!(
                decoded(decode_3dfcoord, damaged),
                decoded(reference::decode_3dfcoord, damaged)
            );
        }
    }

    /// A frame whose lattice spans `spread` nm: past 16,777 nm at precision
    /// 1000 one axis outgrows 0xffffff (`bitsize == 0`, per-component
    /// widths); a few thousand nm on all three make 65..=72-bit fields.
    fn spread_out(mut coords: Vec<[f32; 3]>, spread: f32) -> Vec<[f32; 3]> {
        for (i, c) in coords.iter_mut().enumerate() {
            if i % 5 == 0 {
                *c = c.map(|x| x * spread / 20.0);
            }
        }
        coords
    }

    #[test]
    fn wide_boxes_take_the_wide_paths() {
        // Pin that the generators above reach what they claim to reach.
        let coords: Vec<[f32; 3]> = (0..40)
            .map(|i| [i as f32 * 150.0, i as f32 * 140.0, i as f32 * 160.0])
            .collect();
        let bytes = assert_equivalent(&coords, 1000.0).unwrap();
        let sizes = |b: &[u8]| -> Vec<u32> {
            let int = |k: usize| i32::from_be_bytes(b[8 + 4 * k..12 + 4 * k].try_into().unwrap());
            (0..3).map(|d| (int(d + 3) - int(d) + 1) as u32).collect()
        };
        let s = sizes(&bytes);
        assert!(
            (65..=72).contains(&size_of_ints(&[s[0], s[1], s[2]])),
            "{:?}",
            s
        );

        let mut coords = coords;
        coords[7] = [20_000.0, 0.0, 0.0];
        let bytes = assert_equivalent(&coords, 1000.0).unwrap();
        assert!(sizes(&bytes)[0] > 0xff_ffff);
    }

    #[test]
    fn a_frame_cut_at_every_byte_is_a_typed_error() {
        let coords: Vec<[f32; 3]> = (0..150)
            .map(|i| {
                let base = (i / 3) as f32;
                [
                    base * 0.31 + (i % 3) as f32 * 0.09,
                    (base * 0.7).sin() * 4.0,
                    base * 0.05,
                ]
            })
            .collect();
        let bytes = assert_equivalent(&coords, 1000.0).unwrap();
        for cut in 0..bytes.len() {
            let got = decoded(decode_3dfcoord, &bytes[..cut]);
            assert!(got.is_err(), "cut at {} of {} decoded", cut, bytes.len());
            assert_eq!(got, decoded(reference::decode_3dfcoord, &bytes[..cut]));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn prop_matches_reference_uniform(
            coords in arb_coords(300, 50.0),
            precision in arb_precision(),
            damage in (any::<usize>(), 1u8..=255, any::<usize>()),
        ) {
            if let Some(bytes) = assert_equivalent(&coords, precision) {
                assert_equivalent_when_damaged(&bytes, damage.0, damage.1, damage.2);
            }
        }

        #[test]
        fn prop_matches_reference_clustered(
            coords in arb_clustered_coords(),
            precision in arb_precision(),
            damage in (any::<usize>(), 1u8..=255, any::<usize>()),
        ) {
            if let Some(bytes) = assert_equivalent(&coords, precision) {
                assert_equivalent_when_damaged(&bytes, damage.0, damage.1, damage.2);
            }
        }

        #[test]
        fn prop_matches_reference_wide_boxes(
            coords in arb_clustered_coords(),
            spread in prop::sample::select(vec![3_000.0f32, 9_000.0, 40_000.0]),
            damage in (any::<usize>(), 1u8..=255, any::<usize>()),
        ) {
            let coords = spread_out(coords, spread);
            if let Some(bytes) = assert_equivalent(&coords, 1000.0) {
                assert_equivalent_when_damaged(&bytes, damage.0, damage.1, damage.2);
            }
        }
    }
}
