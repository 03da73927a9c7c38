//! Exact structural mapping of [`AdaError`] — including its nested
//! [`FsError`]/[`PlfsError`]/[`XtcError`]/[`FormatError`] sources —
//! across the wire.
//!
//! Every variant has its own discriminant and carries its full field
//! set, so an error decoded on the client has the same `kind()`, the
//! same `Display` rendering, and the same structured fields as the error
//! the server's middleware produced: the networked path is
//! *error-kind-identical* to the in-process path, which the equivalence
//! suite (`tests/network_equivalence.rs`) locks down.

use std::time::Duration;

use ada_core::AdaError;
use ada_mdformats::{FormatError, XtcError};
use ada_plfs::PlfsError;
use ada_simfs::FsError;

use crate::wire::{ProtoError, WireReader, WireWriter};

fn put_duration(w: &mut WireWriter, d: Duration) {
    w.put_u128(d.as_nanos());
}

fn get_duration(r: &mut WireReader) -> Result<Duration, ProtoError> {
    let ns = r.get_u128()?;
    // A duration beyond u64::MAX ns (~584 years) saturates; nothing the
    // scheduler produces gets near it.
    Ok(Duration::from_nanos(ns.min(u64::MAX as u128) as u64))
}

fn encode_fs(w: &mut WireWriter, e: &FsError) {
    match e {
        FsError::NotFound(p) => {
            w.put_u8(0);
            w.put_str(p);
        }
        FsError::AlreadyExists(p) => {
            w.put_u8(1);
            w.put_str(p);
        }
        FsError::NoSpace { requested, free } => {
            w.put_u8(2);
            w.put_u64(*requested);
            w.put_u64(*free);
        }
        FsError::OutOfRange {
            offset,
            len,
            file_len,
        } => {
            w.put_u8(3);
            w.put_u64(*offset);
            w.put_u64(*len);
            w.put_u64(*file_len);
        }
    }
}

fn decode_fs(r: &mut WireReader) -> Result<FsError, ProtoError> {
    Ok(match r.get_u8()? {
        0 => FsError::NotFound(r.get_str()?),
        1 => FsError::AlreadyExists(r.get_str()?),
        2 => FsError::NoSpace {
            requested: r.get_u64()?,
            free: r.get_u64()?,
        },
        3 => FsError::OutOfRange {
            offset: r.get_u64()?,
            len: r.get_u64()?,
            file_len: r.get_u64()?,
        },
        other => {
            return Err(ProtoError::Malformed(format!(
                "unknown FsError discriminant {}",
                other
            )))
        }
    })
}

fn encode_plfs(w: &mut WireWriter, e: &PlfsError) {
    match e {
        PlfsError::UnknownBackend(b) => {
            w.put_u8(0);
            w.put_str(b);
        }
        PlfsError::NoSuchLogical(l) => {
            w.put_u8(1);
            w.put_str(l);
        }
        PlfsError::LogicalExists(l) => {
            w.put_u8(2);
            w.put_str(l);
        }
        // Discriminants 3 (`NoSuchTag`) and 5 (`CorruptIndex`) are
        // retired: they decode as unknown.
        PlfsError::Fs(fs) => {
            w.put_u8(4);
            encode_fs(w, fs);
        }
    }
}

fn decode_plfs(r: &mut WireReader) -> Result<PlfsError, ProtoError> {
    Ok(match r.get_u8()? {
        0 => PlfsError::UnknownBackend(r.get_str()?),
        1 => PlfsError::NoSuchLogical(r.get_str()?),
        2 => PlfsError::LogicalExists(r.get_str()?),
        4 => PlfsError::Fs(decode_fs(r)?),
        // 3 and 5 are retired, so unknown.
        other => {
            return Err(ProtoError::Malformed(format!(
                "unknown PlfsError discriminant {}",
                other
            )))
        }
    })
}

fn encode_format(w: &mut WireWriter, e: &FormatError) {
    match e {
        FormatError::UnexpectedEof => w.put_u8(0),
        FormatError::Corrupt(m) => {
            w.put_u8(1);
            w.put_str(m);
        }
        FormatError::OutOfRange(m) => {
            w.put_u8(2);
            w.put_str(m);
        }
        FormatError::ChunkCorrupt { chunk, detail } => {
            w.put_u8(3);
            w.put_u64(*chunk as u64);
            w.put_str(detail);
        }
    }
}

fn decode_format(r: &mut WireReader) -> Result<FormatError, ProtoError> {
    Ok(match r.get_u8()? {
        0 => FormatError::UnexpectedEof,
        1 => FormatError::Corrupt(r.get_str()?),
        2 => FormatError::OutOfRange(r.get_str()?),
        3 => FormatError::ChunkCorrupt {
            chunk: r.get_u64()? as usize,
            detail: r.get_str()?,
        },
        other => {
            return Err(ProtoError::Malformed(format!(
                "unknown FormatError discriminant {}",
                other
            )))
        }
    })
}

fn encode_xtc(w: &mut WireWriter, e: &XtcError) {
    match e {
        XtcError::Format(fe) => {
            w.put_u8(0);
            encode_format(w, fe);
        }
        XtcError::CoordinateOverflow => w.put_u8(1),
        XtcError::BadMagic(m) => {
            w.put_u8(2);
            w.put_i32(*m);
        }
        XtcError::BadPrecision(p) => {
            w.put_u8(3);
            w.put_f32(*p);
        }
        XtcError::BadAtomCount(n) => {
            w.put_u8(4);
            w.put_i32(*n);
        }
        XtcError::TruncatedPayload => w.put_u8(5),
    }
}

fn decode_xtc(r: &mut WireReader) -> Result<XtcError, ProtoError> {
    Ok(match r.get_u8()? {
        0 => XtcError::Format(decode_format(r)?),
        1 => XtcError::CoordinateOverflow,
        2 => XtcError::BadMagic(r.get_i32()?),
        3 => XtcError::BadPrecision(r.get_f32()?),
        4 => XtcError::BadAtomCount(r.get_i32()?),
        5 => XtcError::TruncatedPayload,
        other => {
            return Err(ProtoError::Malformed(format!(
                "unknown XtcError discriminant {}",
                other
            )))
        }
    })
}

/// Append `e` to `w`, fully structurally.
pub fn encode_error(w: &mut WireWriter, e: &AdaError) {
    match e {
        AdaError::Fs(fs) => {
            w.put_u8(0);
            encode_fs(w, fs);
        }
        AdaError::Plfs(p) => {
            w.put_u8(1);
            encode_plfs(w, p);
        }
        AdaError::Xtc(x) => {
            w.put_u8(2);
            encode_xtc(w, x);
        }
        AdaError::Xtcf { dropping, source } => {
            w.put_u8(3);
            w.put_str(dropping);
            encode_format(w, source);
        }
        AdaError::FrameCountMismatch { tag, expected, got } => {
            w.put_u8(4);
            w.put_str(tag);
            w.put_u64(*expected as u64);
            w.put_u64(*got as u64);
        }
        AdaError::Pdb(m) => {
            w.put_u8(5);
            w.put_str(m);
        }
        AdaError::UnknownTag(t) => {
            w.put_u8(6);
            w.put_str(t);
        }
        AdaError::UnknownDataset(d) => {
            w.put_u8(7);
            w.put_str(d);
        }
        AdaError::InvalidRange {
            start,
            end,
            stride,
            nframes,
        } => {
            w.put_u8(8);
            w.put_u64(*start as u64);
            w.put_u64(*end as u64);
            w.put_u64(*stride as u64);
            w.put_u64(*nframes as u64);
        }
        AdaError::AtomMismatch { pdb, xtc } => {
            w.put_u8(9);
            w.put_u64(*pdb as u64);
            w.put_u64(*xtc as u64);
        }
        // Discriminant 10 is retired: it decodes as unknown.
        AdaError::Internal(m) => {
            w.put_u8(11);
            w.put_str(m);
        }
        AdaError::Overloaded {
            queue_depth,
            retry_after,
        } => {
            w.put_u8(12);
            w.put_u64(*queue_depth as u64);
            put_duration(w, *retry_after);
        }
        AdaError::DeadlineExceeded { waited, deadline } => {
            w.put_u8(13);
            put_duration(w, *waited);
            put_duration(w, *deadline);
        }
        AdaError::Network { detail } => {
            w.put_u8(14);
            w.put_str(detail);
        }
    }
}

/// Decode an error written by [`encode_error`].
pub fn decode_error(r: &mut WireReader) -> Result<AdaError, ProtoError> {
    Ok(match r.get_u8()? {
        0 => AdaError::Fs(decode_fs(r)?),
        1 => AdaError::Plfs(decode_plfs(r)?),
        2 => AdaError::Xtc(decode_xtc(r)?),
        3 => AdaError::Xtcf {
            dropping: r.get_str()?,
            source: decode_format(r)?,
        },
        4 => AdaError::FrameCountMismatch {
            tag: r.get_str()?,
            expected: r.get_u64()? as usize,
            got: r.get_u64()? as usize,
        },
        5 => AdaError::Pdb(r.get_str()?),
        6 => AdaError::UnknownTag(r.get_str()?),
        7 => AdaError::UnknownDataset(r.get_str()?),
        8 => AdaError::InvalidRange {
            start: r.get_u64()? as usize,
            end: r.get_u64()? as usize,
            stride: r.get_u64()? as usize,
            nframes: r.get_u64()? as usize,
        },
        9 => AdaError::AtomMismatch {
            pdb: r.get_u64()? as usize,
            xtc: r.get_u64()? as usize,
        },
        11 => AdaError::Internal(r.get_str()?),
        12 => AdaError::Overloaded {
            queue_depth: r.get_u64()? as usize,
            retry_after: get_duration(r)?,
        },
        13 => AdaError::DeadlineExceeded {
            waited: get_duration(r)?,
            deadline: get_duration(r)?,
        },
        14 => AdaError::Network {
            detail: r.get_str()?,
        },
        other => {
            return Err(ProtoError::Malformed(format!(
                "unknown AdaError discriminant {}",
                other
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(e: &AdaError) -> AdaError {
        let mut w = WireWriter::new();
        encode_error(&mut w, e);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        let back = decode_error(&mut r).unwrap();
        r.expect_end().unwrap();
        back
    }

    /// One representative of every `AdaError` kind (and every nested
    /// source variant) must survive the wire with an identical kind AND
    /// an identical `Display` rendering.
    #[test]
    fn every_error_kind_round_trips_identically() {
        let samples: Vec<AdaError> = vec![
            AdaError::Fs(FsError::NotFound("/a/b".into())),
            AdaError::Fs(FsError::AlreadyExists("/a".into())),
            AdaError::Fs(FsError::NoSpace {
                requested: 10,
                free: 3,
            }),
            AdaError::Fs(FsError::OutOfRange {
                offset: 5,
                len: 10,
                file_len: 7,
            }),
            AdaError::Plfs(PlfsError::UnknownBackend("tape".into())),
            AdaError::Plfs(PlfsError::NoSuchLogical("ds".into())),
            AdaError::Plfs(PlfsError::LogicalExists("ds".into())),
            AdaError::Plfs(PlfsError::Fs(FsError::NotFound("x".into()))),
            AdaError::Xtc(XtcError::Format(FormatError::UnexpectedEof)),
            AdaError::Xtc(XtcError::Format(FormatError::Corrupt("m".into()))),
            AdaError::Xtc(XtcError::Format(FormatError::OutOfRange("v".into()))),
            AdaError::Xtc(XtcError::CoordinateOverflow),
            AdaError::Xtc(XtcError::BadMagic(-7)),
            AdaError::Xtc(XtcError::BadPrecision(-1.0)),
            AdaError::Xtc(XtcError::BadAtomCount(-3)),
            AdaError::Xtc(XtcError::TruncatedPayload),
            AdaError::Xtcf {
                dropping: "d/p.0".into(),
                source: FormatError::ChunkCorrupt {
                    chunk: 3,
                    detail: "crc".into(),
                },
            },
            AdaError::FrameCountMismatch {
                tag: "p".into(),
                expected: 10,
                got: 9,
            },
            AdaError::Pdb("bad atom line".into()),
            AdaError::UnknownTag("q".into()),
            AdaError::UnknownDataset("nope".into()),
            AdaError::InvalidRange {
                start: 5,
                end: 2,
                stride: 0,
                nframes: 100,
            },
            AdaError::AtomMismatch { pdb: 10, xtc: 12 },
            AdaError::Internal("worker panicked".into()),
            AdaError::Overloaded {
                queue_depth: 17,
                retry_after: Duration::from_micros(1234),
            },
            AdaError::DeadlineExceeded {
                waited: Duration::from_millis(5),
                deadline: Duration::from_millis(2),
            },
            AdaError::Network {
                detail: "connection reset by peer".into(),
            },
        ];
        for e in &samples {
            let back = round_trip(e);
            assert_eq!(back.kind(), e.kind(), "kind drift for {:?}", e);
            assert_eq!(back.to_string(), e.to_string(), "display drift for {:?}", e);
        }
        // The sample list must cover every kind string the enum exposes —
        // a newly added variant that is not wired through here fails the
        // coverage count.
        let mut kinds: Vec<&str> = samples.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 14, "error kinds covered: {:?}", kinds);
    }

    /// `PlfsError`'s discriminants 3 (no such tag) and 5 (corrupt index)
    /// name errors nothing raises any more: both decode as unknown.
    #[test]
    fn retired_plfs_discriminants_decode_as_malformed() {
        for retired in [3u8, 5] {
            let mut w = WireWriter::new();
            w.put_u8(1); // AdaError::Plfs
            w.put_u8(retired);
            w.put_str("ds");
            w.put_str("p");
            let bytes = w.finish();
            match decode_error(&mut WireReader::new(&bytes)) {
                Err(ProtoError::Malformed(m)) => {
                    assert!(
                        m.contains(&format!("PlfsError discriminant {}", retired)),
                        "{m}"
                    )
                }
                other => panic!("discriminant {} gave {:?}", retired, other),
            }
        }
    }

    #[test]
    fn unknown_discriminant_is_typed() {
        for discriminant in [[10], [200]] {
            let mut r = WireReader::new(&discriminant);
            assert!(matches!(
                decode_error(&mut r),
                Err(ProtoError::Malformed(_))
            ));
        }
        // A query answer's payload kind is 0, frames; 1 is unknown like any
        // other.
        let mut w = WireWriter::new();
        w.put_u64(7);
        w.put_u8(2);
        w.put_u128(0);
        w.put_u128(0);
        w.put_u8(1);
        w.put_u64(9);
        match crate::ResponseEnvelope::decode(&w.finish()) {
            Err(ProtoError::Malformed(m)) => assert!(m.contains("payload discriminant 1"), "{m}"),
            other => panic!("expected Malformed, got {:?}", other),
        }
    }
}
