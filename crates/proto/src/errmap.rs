//! [`AdaError`] across the wire: its [`ErrorKind`] and its `Display` text.
//!
//! An error is one byte, its kind's index in [`ErrorKind::ALL`], then its
//! body. The three kinds whose fields a caller acts on keep them:
//! `Overloaded` (queue depth, back-off), `DeadlineExceeded` (waited,
//! deadline) and `Network` (detail). Every other kind's body is its
//! rendering, and it decodes as [`AdaError::Remote`]: the same
//! `error_kind()` and the same `to_string()` as the error the server's
//! middleware raised, which is what the equivalence suite
//! (`tests/network_equivalence.rs`) holds the networked path to.

use std::time::Duration;

use ada_core::{AdaError, ErrorKind};

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

/// Append `e` to `w`: its kind, then its fields or its text.
pub fn encode_error(w: &mut WireWriter, e: &AdaError) {
    w.put_u8(e.error_kind() as u8);
    match e {
        AdaError::Overloaded {
            queue_depth,
            retry_after,
        } => {
            w.put_u64(*queue_depth as u64);
            put_duration(w, *retry_after);
        }
        AdaError::DeadlineExceeded { waited, deadline } => {
            put_duration(w, *waited);
            put_duration(w, *deadline);
        }
        AdaError::Network { detail } => w.put_str(detail),
        _ => w.put_str(&e.to_string()),
    }
}

/// Decode an error written by [`encode_error`].
pub fn decode_error(r: &mut WireReader) -> Result<AdaError, ProtoError> {
    let byte = r.get_u8()?;
    let kind = ErrorKind::ALL
        .get(byte as usize)
        .copied()
        .ok_or_else(|| ProtoError::Malformed(format!("unknown error kind {}", byte)))?;
    Ok(match kind {
        ErrorKind::Overloaded => AdaError::Overloaded {
            queue_depth: r.get_u64()? as usize,
            retry_after: get_duration(r)?,
        },
        ErrorKind::DeadlineExceeded => AdaError::DeadlineExceeded {
            waited: get_duration(r)?,
            deadline: get_duration(r)?,
        },
        ErrorKind::Network => AdaError::Network {
            detail: r.get_str()?,
        },
        kind => AdaError::Remote {
            kind,
            message: r.get_str()?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_mdformats::{FormatError, XtcError};
    use ada_simfs::FsError;

    fn encode(e: &AdaError) -> Vec<u8> {
        let mut w = WireWriter::new();
        encode_error(&mut w, e);
        w.finish()
    }

    fn decode(bytes: &[u8]) -> Result<AdaError, ProtoError> {
        let mut r = WireReader::new(bytes);
        let back = decode_error(&mut r)?;
        r.expect_end()?;
        Ok(back)
    }

    /// One representative of every `AdaError` kind (and every nested
    /// source variant) must survive the wire with an identical kind AND
    /// an identical `Display` rendering; the three fielded kinds with
    /// their fields equal too.
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
            AdaError::Fs(FsError::Refused("/a".into())),
            AdaError::Fs(FsError::Unmounted("tape".into())),
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
            AdaError::Label("expected ':'".into()),
            AdaError::Encode("slot of 12 B".into()),
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
            AdaError::DatasetExists("ds".into()),
        ];
        for e in &samples {
            let back = decode(&encode(e)).unwrap();
            assert_eq!(back.error_kind(), e.error_kind(), "kind drift for {:?}", e);
            assert_eq!(back.to_string(), e.to_string(), "display drift for {:?}", e);
            match (e, &back) {
                (
                    AdaError::Overloaded {
                        queue_depth: q,
                        retry_after: r,
                    },
                    AdaError::Overloaded {
                        queue_depth: bq,
                        retry_after: br,
                    },
                ) => assert_eq!((q, r), (bq, br)),
                (
                    AdaError::DeadlineExceeded {
                        waited: w,
                        deadline: d,
                    },
                    AdaError::DeadlineExceeded {
                        waited: bw,
                        deadline: bd,
                    },
                ) => assert_eq!((w, d), (bw, bd)),
                (AdaError::Network { detail }, AdaError::Network { detail: back }) => {
                    assert_eq!(detail, back)
                }
                (_, AdaError::Remote { .. }) => {}
                _ => panic!("{:?} came back as {:?}", e, back),
            }
        }
        // The sample list must cover every kind the enum exposes — a newly
        // added kind that is not wired through here fails the count.
        let mut kinds: Vec<&str> = samples.iter().map(|e| e.error_kind().name()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(
            kinds.len(),
            ErrorKind::ALL.len(),
            "error kinds covered: {:?}",
            kinds
        );
    }

    /// A decoded `Remote` re-encodes to the bytes it came from, whatever
    /// its kind: a relay passes an error on losslessly.
    #[test]
    fn a_remote_error_relays_byte_for_byte() {
        let fielded = [
            ErrorKind::Overloaded,
            ErrorKind::DeadlineExceeded,
            ErrorKind::Network,
        ];
        for kind in ErrorKind::ALL {
            if fielded.contains(&kind) {
                continue;
            }
            let mut w = WireWriter::new();
            w.put_u8(kind as u8);
            w.put_str(&format!("far side failed: {}", kind.name()));
            let bytes = w.finish();
            let e = decode(&bytes).unwrap();
            assert!(matches!(e, AdaError::Remote { .. }), "{:?}", e);
            assert_eq!(e.error_kind(), kind);
            assert_eq!(e.to_string(), format!("far side failed: {}", kind.name()));
            assert_eq!(encode(&e), bytes, "{}", kind.name());
        }
    }

    /// Every byte past the last kind is a typed `Malformed`; a body cut
    /// short is the reader's typed `Truncated`, as for any other field.
    #[test]
    fn unknown_discriminant_is_typed() {
        for byte in ErrorKind::ALL.len()..=255 {
            let mut w = WireWriter::new();
            w.put_u8(byte as u8);
            w.put_str("text");
            assert!(
                matches!(decode(&w.finish()), Err(ProtoError::Malformed(_))),
                "byte {}",
                byte
            );
        }
        let whole = encode(&AdaError::UnknownDataset("nope".into()));
        for cut in 1..whole.len() {
            assert!(
                matches!(decode(&whole[..cut]), Err(ProtoError::Truncated { .. })),
                "cut at {}",
                cut
            );
        }
    }
}
