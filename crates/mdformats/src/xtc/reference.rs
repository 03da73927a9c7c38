//! The seed's bytewise coder, kept as the reference the word-buffer kernel
//! is tested against (the policy `xtcf::crc32` follows too): `BitWriter` /
//! `BitReader` are line-for-line ports of libxdrfile's `sendbits` /
//! `sendints` / `receivebits` / `receiveints`, and `encode_3dfcoord` /
//! `decode_3dfcoord` are the loops that drove them — verbatim but for one
//! fix the comparison itself found: the decoder checks `smallidx` against
//! `LASTIDX` before, not after, it indexes `MAGICINTS` with it (a corrupt
//! stream starting at 72 and stepping up panicked). Nothing here is
//! compiled outside tests; do not optimise it.

use super::bits::{size_of_int, size_of_ints, BitsEof};
use super::coder::{XtcError, FIRSTIDX, LASTIDX, MAGICINTS, MAX_ABS, PLAIN_FLOAT_THRESHOLD};
use crate::xdr::{XdrDecoder, XdrEncoder};
use crate::FormatError;

/// MSB-first bit writer with the exact state machine of `sendbits`.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    lastbits: u32,
    lastbyte: u32,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Write the low `nbits` bits of `num`, MSB first. For `nbits > 32`
    /// the bits above the u32 are zero (this happens in `send_ints` when a
    /// wide mixed-radix field is padded; the C original performs the same
    /// write via out-of-range shifts that happen to produce zeros).
    pub fn send_bits(&mut self, mut nbits: u32, num: u32) {
        while nbits > 32 {
            let zeros = (nbits - 32).min(8);
            self.send_bits(zeros, 0);
            nbits -= zeros;
        }
        let mut lastbyte = self.lastbyte;
        let mut lastbits = self.lastbits;
        while nbits >= 8 {
            lastbyte = (lastbyte << 8) | ((num >> (nbits - 8)) & 0xff);
            self.bytes.push((lastbyte >> lastbits) as u8);
            nbits -= 8;
        }
        if nbits > 0 {
            lastbyte = (lastbyte << nbits) | (num & ((1u32 << nbits) - 1));
            lastbits += nbits;
            if lastbits >= 8 {
                lastbits -= 8;
                self.bytes.push((lastbyte >> lastbits) as u8);
            }
        }
        self.lastbyte = lastbyte;
        self.lastbits = lastbits;
    }

    /// Pack `nums[i] in 0..sizes[i]` in mixed radix using `nbits` total bits
    /// (as computed by [`size_of_ints`]); exact port of `sendints`.
    pub fn send_ints(&mut self, nbits: u32, sizes: &[u32; 3], nums: &[u32; 3]) {
        let mut bytes = [0u8; 32];
        let mut num_of_bytes = 0usize;
        let mut tmp = nums[0];
        loop {
            bytes[num_of_bytes] = (tmp & 0xff) as u8;
            num_of_bytes += 1;
            tmp >>= 8;
            if tmp == 0 {
                break;
            }
        }
        for i in 1..3 {
            debug_assert!(
                nums[i] < sizes[i],
                "major overflow compressing coordinates: {} >= {}",
                nums[i],
                sizes[i]
            );
            // One-step multiply-accumulate in base 256.
            let mut tmp: u64 = nums[i] as u64;
            let mut bytecnt = 0usize;
            while bytecnt < num_of_bytes {
                tmp += bytes[bytecnt] as u64 * sizes[i] as u64;
                bytes[bytecnt] = (tmp & 0xff) as u8;
                tmp >>= 8;
                bytecnt += 1;
            }
            while tmp != 0 {
                bytes[bytecnt] = (tmp & 0xff) as u8;
                bytecnt += 1;
                tmp >>= 8;
            }
            num_of_bytes = bytecnt;
        }
        if nbits >= num_of_bytes as u32 * 8 {
            for &b in bytes.iter().take(num_of_bytes) {
                self.send_bits(8, b as u32);
            }
            self.send_bits(nbits - num_of_bytes as u32 * 8, 0);
        } else {
            for &b in bytes.iter().take(num_of_bytes - 1) {
                self.send_bits(8, b as u32);
            }
            self.send_bits(
                nbits - (num_of_bytes as u32 - 1) * 8,
                bytes[num_of_bytes - 1] as u32,
            );
        }
    }

    /// Flush the partial byte (zero-padded low bits) and return the stream.
    pub fn finish(mut self) -> Vec<u8> {
        if self.lastbits > 0 {
            self.bytes
                .push((self.lastbyte << (8 - self.lastbits)) as u8);
        }
        self.bytes
    }
}

/// MSB-first bit reader matching [`BitWriter`]; exact port of
/// `receivebits`/`receiveints`.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    cnt: usize,
    lastbits: u32,
    lastbyte: u32,
}

impl<'a> BitReader<'a> {
    /// Reader over a compressed payload.
    pub fn new(data: &'a [u8]) -> BitReader<'a> {
        BitReader {
            data,
            cnt: 0,
            lastbits: 0,
            lastbyte: 0,
        }
    }

    fn next_byte(&mut self) -> Result<u32, BitsEof> {
        let b = *self.data.get(self.cnt).ok_or(BitsEof)?;
        self.cnt += 1;
        Ok(b as u32)
    }

    /// Read `nbits` bits MSB-first. `nbits <= 32`.
    pub fn receive_bits(&mut self, mut nbits: u32) -> Result<u32, BitsEof> {
        debug_assert!(nbits <= 32);
        let mask: u32 = if nbits >= 32 {
            u32::MAX
        } else {
            (1u32 << nbits) - 1
        };
        let mut num: u32 = 0;
        while nbits >= 8 {
            self.lastbyte = (self.lastbyte << 8) | self.next_byte()?;
            num |= ((self.lastbyte >> self.lastbits) & 0xff) << (nbits - 8);
            nbits -= 8;
        }
        if nbits > 0 {
            if self.lastbits < nbits {
                self.lastbits += 8;
                self.lastbyte = (self.lastbyte << 8) | self.next_byte()?;
            }
            self.lastbits -= nbits;
            num |= (self.lastbyte >> self.lastbits) & ((1u32 << nbits) - 1);
        }
        Ok(num & mask)
    }

    /// Inverse of [`BitWriter::send_ints`].
    pub fn receive_ints(&mut self, mut nbits: u32, sizes: &[u32; 3]) -> Result<[u32; 3], BitsEof> {
        let mut bytes = [0u32; 32];
        let mut num_of_bytes = 0usize;
        while nbits > 8 {
            bytes[num_of_bytes] = self.receive_bits(8)?;
            num_of_bytes += 1;
            nbits -= 8;
        }
        if nbits > 0 {
            bytes[num_of_bytes] = self.receive_bits(nbits)?;
            num_of_bytes += 1;
        }
        let mut nums = [0u32; 3];
        for i in (1..3).rev() {
            let mut num: u64 = 0;
            for j in (0..num_of_bytes).rev() {
                num = (num << 8) | bytes[j] as u64;
                let p = num / sizes[i] as u64;
                bytes[j] = p as u32;
                num -= p * sizes[i] as u64;
            }
            nums[i] = num as u32;
        }
        nums[0] = bytes[0] | (bytes[1] << 8) | (bytes[2] << 16) | (bytes[3] << 24);
        Ok(nums)
    }
}

/// Encode coordinates at `precision` into `enc` (the body that follows the
/// XTC frame header). Layout: natoms, [precision, minint×3, maxint×3,
/// smallidx, nbytes, payload] or plain floats for ≤ 9 atoms.
pub fn encode_3dfcoord(
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
pub fn decode_3dfcoord(dec: &mut XdrDecoder) -> Result<(Vec<[f32; 3]>, f32), XtcError> {
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
    let mut sizesmall = [MAGICINTS[smallidx] as u32; 3];

    let nbytes = dec.get_i32()?;
    if nbytes < 0 {
        return Err(XtcError::Format(FormatError::Corrupt(
            "negative payload length".into(),
        )));
    }
    let payload = dec.get_opaque(nbytes as usize)?;
    let mut r = BitReader::new(payload);

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
                .receive_ints(bitsize, &sizeint)
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
            for k in (0..run).step_by(3) {
                let nums = r
                    .receive_ints(smallidx as u32, &sizesmall)
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
        sizesmall = [MAGICINTS[smallidx] as u32; 3];
        if sizesmall[0] == 0 {
            return Err(XtcError::Format(FormatError::Corrupt(
                "small size underflow".into(),
            )));
        }
    }
    out.truncate(size);
    Ok((out, precision))
}
