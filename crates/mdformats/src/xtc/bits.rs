//! Bit-level coding primitives of the `xdr3dfcoord` algorithm.
//!
//! The stream is libxdrfile's: `sendbits`/`receivebits` pack bits MSB-first
//! into a byte stream, and `sendints`/`receiveints` pack a triple of small
//! integers whose ranges are known as one mixed-radix number, using the
//! widths the `sizeofint`/`sizeofints` calculators give. The C routines
//! (kept as the test reference in `super::reference`) move one byte at a
//! time; [`BitReader`] and [`BitWriter`] move the same bits through a 64-bit
//! word instead.
//!
//! **Group order.** `sendints` builds the mixed-radix number in base 256 and
//! emits it *least*-significant byte first — each byte MSB-first — and the
//! most significant group last, with only the bits that are left. A field of
//! `nbits` bits read as one big-endian integer is therefore not the number:
//! its leading `8·⌊(nbits−1)/8⌋` bits are the number's low bytes in reverse
//! order and its last 1..=8 bits are the number's top group.
//! `from_stream_order` / `to_stream_order` convert with one byte swap.

/// Bits needed to represent values in `0..size` (i.e. smallest `n` with
/// `2^n >= size`), capped at 32.
pub(crate) fn size_of_int(size: u32) -> u32 {
    let mut num: u64 = 1;
    let mut bits = 0u32;
    while (size as u64) >= num && bits < 32 {
        bits += 1;
        num <<= 1;
    }
    bits
}

/// Bits needed for the mixed-radix product of `sizes` (each value `v_i` in
/// `0..sizes[i]` packed as `((v_0) * s_1 + v_1) * s_2 + v_2 ...`).
pub(crate) fn size_of_ints(sizes: &[u32]) -> u32 {
    let mut bytes = [0u8; 32];
    let mut num_of_bytes = 1usize;
    bytes[0] = 1;
    let mut num_of_bits = 0u32;
    for &size in sizes {
        let mut tmp: u64 = 0;
        let mut bytecnt = 0usize;
        while bytecnt < num_of_bytes {
            tmp += bytes[bytecnt] as u64 * size as u64;
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
    let mut num = 1u32;
    let top = bytes[num_of_bytes - 1] as u32;
    while top >= num {
        num_of_bits += 1;
        num *= 2;
    }
    num_of_bits + (num_of_bytes as u32 - 1) * 8
}

/// Widest field one buffer read or write moves: whatever the bit offset, a
/// filled read buffer holds at least this many bits and a flushed write
/// accumulator has room for them.
pub(crate) const WORD_BITS: u32 = 56;

/// Widest mixed-radix field of the format: three ranges of at most
/// 0xffffff (wider ones are coded per component) multiply to under 2^72,
/// and `smallidx` stops at 72. Nine byte groups, so a field past 64 bits is
/// eight whole groups and then its last one.
const MAX_FIELD_BITS: u32 = 72;

/// An `nbits`-wide mixed-radix field is whole leading byte groups and one
/// last group of 1..=8 bits; returns the bit counts of the two parts.
#[inline]
fn groups(nbits: u32) -> (u32, u32) {
    let whole = nbits.saturating_sub(1) / 8 * 8;
    (whole, nbits - whole)
}

/// Reverse the bytes of the low `whole` bits of `x` (`whole` a multiple of
/// 8 up to 56, the bits above them zero).
#[inline]
fn reverse_groups(x: u64, whole: u32) -> u64 {
    (x.swap_bytes() >> 1) >> (63 - whole)
}

/// The mixed-radix number held by an `nbits <= 64` field read big-endian
/// (see *Group order* in the module docs).
#[inline]
fn from_stream_order(field: u64, nbits: u32) -> u64 {
    let (whole, last) = groups(nbits);
    reverse_groups(field >> last, whole) | (field & ((1 << last) - 1)) << whole
}

/// Inverse of [`from_stream_order`]: the big-endian field that carries
/// `value < 2^nbits`.
#[inline]
fn to_stream_order(value: u64, nbits: u32) -> u64 {
    let (whole, last) = groups(nbits);
    reverse_groups(value & ((1 << whole) - 1), whole) << last | value >> whole
}

/// A divisor with what dividing by it takes worked out once: the decoder
/// divides every atom's field by the same few ranges (a frame's three
/// absolute ones, and `MAGICINTS[smallidx]` within a run).
#[derive(Debug, Clone, Copy)]
struct Radix {
    size: u32,
    /// `⌈2^64 / size⌉`, or 0 when the multiply-shift below is not exact for
    /// every numerator this radix meets and `div_rem` divides instead.
    recip: u64,
}

impl Radix {
    /// Divisor `size` for numerators up to `max`.
    const fn new(size: u32, max: u64) -> Radix {
        // With c = ⌈2^64/d⌉ = (2^64 + e)/d, 0 ≤ e < d, the product v·c/2^64
        // is v/d + v·e/(d·2^64). While v·d ≤ 2^64 the excess is below 1/d,
        // the least distance from v/d up to the next integer, so
        // ⌊v·c/2^64⌋ = ⌊v/d⌋. (d = 1 would need c = 2^64.)
        let exact = size >= 2 && max as u128 * size as u128 <= 1 << 64;
        Radix {
            size,
            recip: if exact { u64::MAX / size as u64 + 1 } else { 0 },
        }
    }

    /// `(v / size, v % size)`; `size` must not be zero.
    #[inline]
    fn div_rem(&self, v: u64) -> (u64, u64) {
        let q = if self.recip != 0 {
            ((v as u128 * self.recip as u128) >> 64) as u64
        } else {
            v / self.size as u64
        };
        (q, v - q * self.size as u64)
    }
}

/// The shape of one mixed-radix field: how wide it is, and the two radices
/// that take the number apart (what is left is the first component).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Triple {
    nbits: u32,
    second: Radix,
    third: Radix,
}

impl Triple {
    /// A field of `nbits <= 72` bits whose components lie in `0..sizes[i]`;
    /// no size may be zero.
    pub(crate) const fn new(nbits: u32, sizes: &[u32; 3]) -> Triple {
        debug_assert!(nbits <= MAX_FIELD_BITS);
        // A corrupt field can hold any `nbits`-bit value (past 64 bits the
        // unpacking is in u128 and uses the sizes alone).
        let max = if nbits < 64 {
            (1 << nbits) - 1
        } else {
            u64::MAX
        };
        Triple {
            nbits,
            second: Radix::new(sizes[1], max / sizes[2] as u64),
            third: Radix::new(sizes[2], max),
        }
    }

    /// The components held by `field`, a field of this shape (`nbits <= 64`)
    /// as it stands in the stream. On corrupt input the first component is
    /// the quotient's low 32 bits, as in `receiveints`.
    #[inline(always)]
    pub(crate) fn unpack(&self, field: u64) -> [u32; 3] {
        let v = from_stream_order(field, self.nbits);
        let (q, n2) = self.third.div_rem(v);
        let (n0, n1) = self.second.div_rem(q);
        [n0 as u32, n1 as u32, n2 as u32]
    }
}

/// MSB-first bit writer producing the stream of `sendbits`/`sendints`:
/// bits collect in a 64-bit accumulator that is flushed by whole bytes.
#[derive(Debug, Default)]
pub(crate) struct BitWriter {
    bytes: Vec<u8>,
    /// Bits not flushed yet, in the low `pending` bits (above them: stale
    /// bits of bytes already flushed).
    acc: u64,
    /// Always below 8 between calls.
    pending: u32,
}

impl BitWriter {
    /// New empty writer.
    pub(crate) fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Append the `n <= WORD_BITS` bits of `v < 2^n`.
    #[inline]
    fn put(&mut self, n: u32, v: u64) {
        debug_assert!(n <= WORD_BITS && v >> n == 0);
        self.acc = self.acc << n | v;
        self.pending += n;
        let aligned = (self.acc << 1) << (63 - self.pending);
        // Append all eight bytes and drop the ones not due yet: a
        // fixed-size append is one store, a variable-length one a `memcpy`
        // call (write_xtc ≈ 10 % slower).
        let len = self.bytes.len() + (self.pending / 8) as usize;
        self.bytes.extend_from_slice(&aligned.to_be_bytes());
        self.bytes.truncate(len);
        self.pending %= 8;
    }

    /// Append a mixed-radix number of `nbits <= 64` bits in stream order.
    #[inline]
    fn put_field(&mut self, nbits: u32, value: u64) {
        let field = to_stream_order(value, nbits);
        if nbits <= WORD_BITS {
            self.put(nbits, field);
        } else {
            self.put(nbits - 32, field >> 32);
            self.put(32, field & 0xffff_ffff);
        }
    }

    /// Write the low `nbits <= 32` bits of `num`, MSB first.
    #[inline]
    pub(crate) fn send_bits(&mut self, nbits: u32, num: u32) {
        debug_assert!(nbits <= 32);
        self.put(nbits, num as u64 & ((1 << nbits) - 1));
    }

    /// Pack `nums[i] in 0..sizes[i]` in mixed radix using `nbits` total bits
    /// (as computed by [`size_of_ints`], so the number fits them).
    #[inline]
    pub(crate) fn send_ints(&mut self, nbits: u32, sizes: &[u32; 3], nums: &[u32; 3]) {
        debug_assert!(
            nums.iter().zip(sizes).all(|(n, s)| n < s),
            "major overflow compressing coordinates: {:?} >= {:?}",
            nums,
            sizes
        );
        debug_assert!(nbits <= MAX_FIELD_BITS);
        let [n0, n1, n2] = nums.map(u64::from);
        let [_, s1, s2] = sizes.map(u64::from);
        if nbits <= 64 {
            self.put_field(nbits, (n0 * s1 + n1) * s2 + n2);
        } else {
            // Boxes wider than ~2,600 nm at the default precision: the
            // three ranges multiply past 2^64 (never past 2^72).
            let v = (n0 as u128 * s1 as u128 + n1 as u128) * s2 as u128 + n2 as u128;
            self.put_field(64, v as u64);
            self.put(nbits - 64, (v >> 64) as u64);
        }
    }

    /// Flush the partial byte (zero-padded low bits) and return the stream.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        if self.pending > 0 {
            self.bytes.push((self.acc << (8 - self.pending)) as u8);
        }
        self.bytes
    }
}

/// Error produced when a reader runs off the end of its buffer.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct BitsEof;

/// MSB-first bit reader matching [`BitWriter`]: the unread bits sit
/// left-aligned in a 64-bit buffer topped up by one 8-byte load.
///
/// A read is a [`fill`](Self::fill), raw takes from the buffer
/// ([`take_raw`](Self::take_raw)) and one end-of-data check for all of them
/// ([`spend`](Self::spend)). The decoder does this once per atom for all of
/// the atom's reads that fit one fill; [`receive_bits`](Self::receive_bits)
/// and [`receive_ints`](Self::receive_ints) do it per read, for the rest.
#[derive(Debug)]
pub(crate) struct BitReader<'a> {
    data: &'a [u8],
    /// Index of the first byte of `data` not (wholly) in `buf` yet.
    pos: usize,
    /// Unread bits, left-aligned. Bits below the top `have` are either zero
    /// or already equal to the stream bits that belong there.
    buf: u64,
    /// Bits of `buf` counted as loaded; past the end of `data` they are
    /// zero padding, which `left` keeps from being handed out.
    have: u32,
    /// Bits of `data` not spent yet: spending more is [`BitsEof`], exactly
    /// where the bytewise reader ran out of bytes.
    left: usize,
}

impl<'a> BitReader<'a> {
    /// Reader over a compressed payload.
    pub(crate) fn new(data: &'a [u8]) -> BitReader<'a> {
        BitReader {
            data,
            pos: 0,
            buf: 0,
            have: 0,
            left: data.len() * 8,
        }
    }

    /// Top `buf` up to at least [`WORD_BITS`] bits with one big-endian
    /// 8-byte load, zero-padded past the end of `data`. Unconditional: at
    /// 56 bits or more it loads no whole byte and changes nothing.
    #[inline(always)]
    pub(crate) fn fill(&mut self) {
        let word = match self.data.get(self.pos..).and_then(<[u8]>::first_chunk) {
            Some(word) => u64::from_be_bytes(*word),
            None => self.tail_word(),
        };
        // Only whole bytes are counted as loaded; the bits of the next
        // byte that land below them are ORed in again, identically, by the
        // next fill.
        self.buf |= word >> self.have;
        self.pos += ((63 - self.have) / 8) as usize;
        self.have |= WORD_BITS;
    }

    /// The last bytes of `data` from `pos` on, zero-padded to a word.
    #[cold]
    fn tail_word(&self) -> u64 {
        let rest = self.data.get(self.pos..).unwrap_or(&[]);
        let mut word = [0u8; 8];
        let n = rest.len().min(8);
        word[..n].copy_from_slice(&rest[..n]);
        u64::from_be_bytes(word)
    }

    /// The next `n` bits of the buffer, with no end-of-data check: `n` must
    /// not pass what is loaded (at least [`WORD_BITS`] after a
    /// [`fill`](Self::fill), less what was taken since), and the bits must
    /// then be [`spend`](Self::spend)-accounted before the result is used.
    #[inline(always)]
    pub(crate) fn take_raw(&mut self, n: u32) -> u64 {
        debug_assert!(n <= self.have, "take_raw({}) with {} loaded", n, self.have);
        let bits = (self.buf >> 1) >> (63 - n);
        self.buf <<= n;
        self.have -= n;
        bits
    }

    /// Account for `n` bits taken raw: [`BitsEof`] when `data` held fewer,
    /// which is exactly when reading them a field at a time would have
    /// failed on one of the fields.
    #[inline(always)]
    pub(crate) fn spend(&mut self, n: u32) -> Result<(), BitsEof> {
        self.left = self.left.checked_sub(n as usize).ok_or(BitsEof)?;
        Ok(())
    }

    /// Read `n <= WORD_BITS` bits, checked on its own.
    #[inline]
    fn take(&mut self, n: u32) -> Result<u64, BitsEof> {
        debug_assert!(n <= WORD_BITS);
        self.spend(n)?;
        if self.have < n {
            self.fill();
        }
        Ok(self.take_raw(n))
    }

    /// Read an `nbits <= 64` field as it stands in the stream (at most two
    /// buffer reads).
    #[inline]
    fn raw_field(&mut self, nbits: u32) -> Result<u64, BitsEof> {
        if nbits <= WORD_BITS {
            self.take(nbits)
        } else {
            Ok(self.take(nbits - 32)? << 32 | self.take(32)?)
        }
    }

    /// Read `nbits <= 32` bits MSB-first.
    #[inline]
    pub(crate) fn receive_bits(&mut self, nbits: u32) -> Result<u32, BitsEof> {
        debug_assert!(nbits <= 32);
        Ok(self.take(nbits)? as u32)
    }

    /// Inverse of [`BitWriter::send_ints`] for a field of `shape`, whose
    /// sizes must all be non-zero (see [`Triple::unpack`] for corrupt input).
    #[inline]
    pub(crate) fn receive_ints(&mut self, shape: &Triple) -> Result<[u32; 3], BitsEof> {
        if shape.nbits <= 64 {
            Ok(shape.unpack(self.raw_field(shape.nbits)?))
        } else {
            let low = from_stream_order(self.raw_field(64)?, 64);
            let v = (self.take(shape.nbits - 64)? as u128) << 64 | low as u128;
            let (s1, s2) = (shape.second.size as u128, shape.third.size as u128);
            let q = v / s2;
            Ok([(q / s1) as u32, (q % s1) as u32, (v % s2) as u32])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn size_of_int_basics() {
        assert_eq!(size_of_int(0), 0);
        assert_eq!(size_of_int(1), 1);
        assert_eq!(size_of_int(2), 2);
        assert_eq!(size_of_int(3), 2);
        assert_eq!(size_of_int(4), 3);
        assert_eq!(size_of_int(255), 8);
        assert_eq!(size_of_int(256), 9);
        assert_eq!(size_of_int(u32::MAX), 32);
    }

    #[test]
    fn size_of_ints_matches_product_width() {
        // 3 components each in 0..10 → product 1000 → needs 10 bits.
        assert_eq!(size_of_ints(&[10, 10, 10]), 10);
        // 0..256 each → 2^24 → 25 bits (sizeofints counts 2^24 inclusive).
        assert_eq!(size_of_ints(&[256, 256, 256]), 25);
        assert_eq!(size_of_ints(&[1, 1, 1]), 1);
    }

    #[test]
    fn bits_roundtrip_simple() {
        let mut w = BitWriter::new();
        w.send_bits(5, 0b10110);
        w.send_bits(1, 1);
        w.send_bits(13, 4321);
        w.send_bits(32, 0xCAFEBABE);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(r.receive_bits(5).unwrap(), 0b10110);
        assert_eq!(r.receive_bits(1).unwrap(), 1);
        assert_eq!(r.receive_bits(13).unwrap(), 4321);
        assert_eq!(r.receive_bits(32).unwrap(), 0xCAFEBABE);
    }

    #[test]
    fn zero_bit_write_is_noop() {
        let mut w = BitWriter::new();
        w.send_bits(0, 0);
        w.send_bits(3, 0b101);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(r.receive_bits(0).unwrap(), 0);
        assert_eq!(r.receive_bits(3).unwrap(), 0b101);
    }

    #[test]
    fn reader_eof() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.receive_bits(8).unwrap(), 0xFF);
        assert_eq!(r.receive_bits(1), Err(BitsEof));
    }

    #[test]
    fn ints_roundtrip_simple() {
        let sizes = [100u32, 200, 50];
        let nbits = size_of_ints(&sizes);
        let mut w = BitWriter::new();
        w.send_ints(nbits, &sizes, &[99, 0, 49]);
        w.send_ints(nbits, &sizes, &[0, 199, 25]);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(
            r.receive_ints(&Triple::new(nbits, &sizes)).unwrap(),
            [99, 0, 49]
        );
        assert_eq!(
            r.receive_ints(&Triple::new(nbits, &sizes)).unwrap(),
            [0, 199, 25]
        );
    }

    proptest! {
        #[test]
        fn prop_bits_roundtrip(values in prop::collection::vec((1u32..=32, any::<u32>()), 1..40)) {
            let mut w = BitWriter::new();
            let masked: Vec<(u32, u32)> = values
                .iter()
                .map(|&(n, v)| (n, if n == 32 { v } else { v & ((1 << n) - 1) }))
                .collect();
            for &(n, v) in &masked {
                w.send_bits(n, v);
            }
            let buf = w.finish();
            let mut r = BitReader::new(&buf);
            for &(n, v) in &masked {
                prop_assert_eq!(r.receive_bits(n).unwrap(), v);
            }
        }

        #[test]
        fn prop_ints_roundtrip(
            s0 in 1u32..5000, s1 in 1u32..5000, s2 in 1u32..5000,
            picks in prop::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 1..30),
        ) {
            let sizes = [s0, s1, s2];
            let nbits = size_of_ints(&sizes);
            let triples: Vec<[u32; 3]> = picks
                .iter()
                .map(|&(a, b, c)| [a % s0, b % s1, c % s2])
                .collect();
            let mut w = BitWriter::new();
            for t in &triples {
                w.send_ints(nbits, &sizes, t);
            }
            let buf = w.finish();
            let mut r = BitReader::new(&buf);
            for t in &triples {
                prop_assert_eq!(&r.receive_ints(&Triple::new(nbits, &sizes)).unwrap(), t);
            }
        }

        #[test]
        fn prop_ints_large_sizes(
            picks in prop::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 1..10),
        ) {
            // Near the 0xffffff limit used by the coder before it switches
            // to per-component encoding.
            let sizes = [0xffffffu32, 0xfffffe, 0xabcdef];
            let nbits = size_of_ints(&sizes);
            let triples: Vec<[u32; 3]> = picks
                .iter()
                .map(|&(a, b, c)| [a % sizes[0], b % sizes[1], c % sizes[2]])
                .collect();
            let mut w = BitWriter::new();
            for t in &triples {
                w.send_ints(nbits, &sizes, t);
            }
            let buf = w.finish();
            let mut r = BitReader::new(&buf);
            for t in &triples {
                prop_assert_eq!(&r.receive_ints(&Triple::new(nbits, &sizes)).unwrap(), t);
            }
        }
    }

    // ---- the word-buffer kernel against the bytewise reference ----

    use super::super::coder::MAGICINTS;
    use super::super::reference;

    /// One write and the read that takes it back.
    #[derive(Debug, Clone)]
    enum Op {
        Bits(u32, u32),
        Ints {
            nbits: u32,
            sizes: [u32; 3],
            nums: [u32; 3],
        },
    }

    /// Sizes from every regime of the reader: fields of at most 56 bits (one
    /// buffer read), 57..=64 (two), 65..=72 (near the 0xffffff cap: the u128
    /// path), and the coder's own small-run pairs `(smallidx,
    /// MAGICINTS[smallidx])` plus arbitrary uniform radices, whose width is
    /// padded as `smallidx` pads it (never past the format's 72 bits).
    fn arb_op() -> impl Strategy<Value = Op> {
        (
            0u32..7,
            0u32..=32,
            prop::array::uniform3(any::<u32>()),
            prop::array::uniform3(any::<u32>()),
        )
            .prop_map(|(kind, nbits, s, v)| {
                let (sizes, pad) = match kind {
                    0 => {
                        let mask = ((1u64 << nbits) - 1) as u32;
                        return Op::Bits(nbits, v[0] & mask);
                    }
                    1 => (s.map(|x| 1 + x % 5000), 0),
                    2 => (s.map(|x| 1 + x % 0x3f_ffff), 0),
                    3 => (s.map(|x| 0xff_ffff - x % 1000), 0),
                    4 => ([1 + s[0] % 300, 1 + s[1] % 0xff_ffff, 1 + s[2] % 70_000], 0),
                    5 => ([MAGICINTS[9 + s[0] as usize % 64] as u32; 3], s[1] % 2),
                    _ => ([1 + s[0] % 0xff_ffff; 3], s[1] % 4),
                };
                Op::Ints {
                    nbits: (size_of_ints(&sizes) + pad).min(MAX_FIELD_BITS),
                    sizes,
                    nums: [v[0] % sizes[0], v[1] % sizes[1], v[2] % sizes[2]],
                }
            })
    }

    impl Op {
        fn nbits(&self) -> u32 {
            match *self {
                Op::Bits(nbits, _) | Op::Ints { nbits, .. } => nbits,
            }
        }
    }

    type Read = Result<[u32; 3], BitsEof>;

    /// `op`'s read on the kernel.
    fn read_new(r: &mut BitReader, op: &Op) -> Read {
        match *op {
            Op::Bits(nbits, _) => r.receive_bits(nbits).map(|v| [v, 0, 0]),
            Op::Ints { nbits, sizes, .. } => r.receive_ints(&Triple::new(nbits, &sizes)),
        }
    }

    /// `op`'s read on the bytewise reference.
    fn read_old(r: &mut reference::BitReader, op: &Op) -> Read {
        match *op {
            Op::Bits(nbits, _) => r.receive_bits(nbits).map(|v| [v, 0, 0]),
            Op::Ints { nbits, sizes, .. } => r.receive_ints(nbits, &sizes),
        }
    }

    /// Perform `op`'s read on both readers.
    fn read_both(new: &mut BitReader, old: &mut reference::BitReader, op: &Op) -> (Read, Read) {
        (read_new(new, op), read_old(old, op))
    }

    /// Both readers agree on every read of `ops` over `data`, up to and
    /// including the first `BitsEof`.
    fn assert_readers_agree(data: &[u8], ops: &[Op]) -> Result<(), TestCaseError> {
        let mut new = BitReader::new(data);
        let mut old = reference::BitReader::new(data);
        for op in ops {
            let (got, want) = read_both(&mut new, &mut old, op);
            prop_assert_eq!(&got, &want, "{:?} over {} bytes", op, data.len());
            if want.is_err() {
                break;
            }
        }
        Ok(())
    }

    /// One atom's reads: taken in one fill (at most [`WORD_BITS`] bits in
    /// all, as the decoder takes an absolute field, its run flag and code, or
    /// a small-run field), or read and checked one at a time (its fallback).
    #[derive(Debug, Clone)]
    struct Atom {
        one_fill: bool,
        ops: Vec<Op>,
    }

    fn arb_atom() -> impl Strategy<Value = Atom> {
        (any::<bool>(), prop::collection::vec(arb_op(), 1..5)).prop_map(|(one_fill, ops)| {
            let ops = if one_fill {
                ops.into_iter()
                    .scan(0, |total, op| {
                        *total += op.nbits();
                        (*total <= WORD_BITS).then_some(op)
                    })
                    .collect()
            } else {
                ops
            };
            Atom { one_fill, ops }
        })
    }

    /// `atom`'s reads on the kernel: one fill, raw takes, one spend — or
    /// the checked reads.
    fn read_atom(r: &mut BitReader, atom: &Atom) -> Result<Vec<[u32; 3]>, BitsEof> {
        if !atom.one_fill {
            return atom.ops.iter().map(|op| read_new(r, op)).collect();
        }
        r.fill();
        let got = atom
            .ops
            .iter()
            .map(|op| match *op {
                Op::Bits(nbits, _) => [r.take_raw(nbits) as u32, 0, 0],
                Op::Ints { nbits, sizes, .. } => {
                    Triple::new(nbits, &sizes).unpack(r.take_raw(nbits))
                }
            })
            .collect();
        r.spend(atom.ops.iter().map(Op::nbits).sum())?;
        Ok(got)
    }

    /// Kernel and reference read the same values atom by atom over `data`,
    /// and the first atom the reference cannot finish is the one the
    /// kernel's `spend` refuses.
    fn assert_atoms_agree(data: &[u8], atoms: &[Atom]) -> Result<(), TestCaseError> {
        let mut new = BitReader::new(data);
        let mut old = reference::BitReader::new(data);
        for (k, atom) in atoms.iter().enumerate() {
            let want: Result<Vec<_>, _> =
                atom.ops.iter().map(|op| read_old(&mut old, op)).collect();
            prop_assert_eq!(
                &read_atom(&mut new, atom),
                &want,
                "atom {} ({:?}) over {} bytes",
                k,
                atom,
                data.len()
            );
            if want.is_err() {
                break;
            }
        }
        Ok(())
    }

    #[test]
    fn reciprocal_divides_like_the_division() {
        // The numerators a rounded-up reciprocal gets wrong first are the
        // largest ones just below a multiple of the divisor.
        let sizes = (2u32..70).chain([
            255, 256, 257, 4096, 5060, 65_535, 65_536, 65_537, 1_000_003, 0xff_fffe, 0xff_ffff,
        ]);
        let mut by_reciprocal = 0;
        for size in sizes {
            for bits in [9u32, 20, 33, 40, 47, 48, 56, 63] {
                let max = (1u64 << bits) - 1;
                let radix = Radix::new(size, max);
                by_reciprocal += u32::from(radix.recip != 0);
                let d = size as u64;
                let top = max / d;
                for k in (0..200.min(top)).flat_map(|i| [i, top - i]) {
                    for v in [k * d, k * d + d - 1, (k * d).saturating_sub(1)] {
                        let v = v.min(max);
                        assert_eq!(radix.div_rem(v), (v / d, v % d), "{} / {}", v, d);
                    }
                }
            }
        }
        assert!(
            by_reciprocal > 300,
            "only {} radices took the fast path",
            by_reciprocal
        );
    }

    #[test]
    fn small_runs_divide_by_reciprocal_through_smallidx_48() {
        // 2^idx · MAGICINTS[idx] ≤ 2^64 holds through idx 48 (2^16).
        for (idx, &m) in MAGICINTS.iter().enumerate().skip(9) {
            let shape = Triple::new(idx as u32, &[m as u32; 3]);
            assert_eq!(shape.third.recip != 0, idx <= 48, "smallidx {}", idx);
            assert!(shape.second.recip != 0 || idx > 48, "smallidx {}", idx);
        }
    }

    #[test]
    fn eof_fires_on_the_first_bit_past_the_end() {
        // 9 bytes: reads that straddle the last 8-byte load.
        let data = [0xA5u8; 9];
        for first in 0..=32 {
            let mut new = BitReader::new(&data);
            let mut old = reference::BitReader::new(&data);
            assert_eq!(new.receive_bits(first), old.receive_bits(first));
            let mut left = 72 - first;
            while left > 0 {
                let n = left.min(7);
                assert_eq!(new.receive_bits(n), old.receive_bits(n));
                left -= n;
            }
            assert_eq!(new.receive_bits(0), Ok(0));
            assert_eq!(new.receive_bits(1), Err(BitsEof));
            assert_eq!(old.receive_bits(1), Err(BitsEof));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_matches_reference_on_written_streams(
            ops in prop::collection::vec(arb_op(), 1..40),
            cut in any::<u32>(),
        ) {
            let mut new = BitWriter::new();
            let mut old = reference::BitWriter::new();
            for op in &ops {
                match op {
                    Op::Bits(nbits, v) => {
                        new.send_bits(*nbits, *v);
                        old.send_bits(*nbits, *v);
                    }
                    Op::Ints { nbits, sizes, nums, .. } => {
                        new.send_ints(*nbits, sizes, nums);
                        old.send_ints(*nbits, sizes, nums);
                    }
                }
            }
            let bytes = new.finish();
            prop_assert_eq!(&bytes, &old.finish());

            // The whole stream reads back what was written...
            let mut r = BitReader::new(&bytes);
            let mut r_old = reference::BitReader::new(&bytes);
            for op in &ops {
                let want = match *op {
                    Op::Bits(_, v) => [v, 0, 0],
                    Op::Ints { nums, .. } => nums,
                };
                let (got, got_old) = read_both(&mut r, &mut r_old, op);
                prop_assert_eq!(got, Ok(want), "{:?}", op);
                prop_assert_eq!(got_old, Ok(want), "{:?}", op);
            }
            // ...and a cut one ends both readers on the same read.
            assert_readers_agree(&bytes[..cut as usize % (bytes.len() + 1)], &ops)?;
        }

        #[test]
        fn prop_matches_reference_on_arbitrary_bytes(
            data in prop::collection::vec(any::<u8>(), 0..80),
            ops in prop::collection::vec(arb_op(), 1..24),
        ) {
            // Values no encoder wrote: quotients past the first size, fields
            // of all ones, reads that cross the end.
            assert_readers_agree(&data, &ops)?;
            assert_readers_agree(&vec![0xff; data.len()], &ops)?;
        }

        #[test]
        fn prop_one_fill_reads_match_reference(
            atoms in prop::collection::vec(arb_atom(), 1..40),
            cut in any::<u32>(),
            data in prop::collection::vec(any::<u8>(), 0..80),
        ) {
            let mut w = reference::BitWriter::new();
            for op in atoms.iter().flat_map(|atom| &atom.ops) {
                match *op {
                    Op::Bits(nbits, v) => w.send_bits(nbits, v),
                    Op::Ints { nbits, sizes, nums } => w.send_ints(nbits, &sizes, &nums),
                }
            }
            let bytes = w.finish();
            // Written, every atom reads back what was written...
            let mut r = BitReader::new(&bytes);
            for atom in &atoms {
                let want = atom.ops.iter().map(|op| match *op {
                    Op::Bits(_, v) => [v, 0, 0],
                    Op::Ints { nums, .. } => nums,
                });
                prop_assert_eq!(read_atom(&mut r, atom), Ok(want.collect()), "{:?}", atom);
            }
            // ...and cut, arbitrary or all ones, both end on the same atom.
            assert_atoms_agree(&bytes, &atoms)?;
            assert_atoms_agree(&bytes[..cut as usize % (bytes.len() + 1)], &atoms)?;
            assert_atoms_agree(&data, &atoms)?;
            assert_atoms_agree(&vec![0xff; data.len()], &atoms)?;
        }
    }
}
