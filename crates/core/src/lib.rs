#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! # ada-core — the Application-Conscious Data Acquirer
//!
//! The paper's contribution (§3): a light-weight file-system middleware
//! that sits between VMD and the underlying file systems and performs
//! application-conscious data pre-processing *on storage nodes*, so compute
//! nodes receive only decompressed **active** data.
//!
//! Architecture (Fig. 4 / Fig. 5):
//!
//! ```text
//!            user API (mol new / mol addfile ... tag p)
//!   ┌────────────────────── ADA ──────────────────────┐
//!   │  Data pre-processor            I/O determinator │
//!   │  ├─ decompressor (XTC)         ├─ I/O dispatcher│
//!   │  ├─ data categorizer (Algo 1)  ├─ indexer       │
//!   │  └─ labeler                    └─ I/O retriever │
//!   └──────────────────────┬──────────────────────────┘
//!            PLFS-style containers over ext4 / PVFS
//! ```
//!
//! * [`categorizer`] — Algorithm 1: a linear scan over the `.pdb` atoms
//!   producing per-tag index ranges.
//! * [`labeler`] — the label file: tag → ranges and tag → stored
//!   dropping, the one metadata record of a dataset, stored out-of-band so
//!   "no additional information is injected to any of data subsets".
//! * [`preprocess`] — decompressor + splitter: decode the `.xtc`, apply the
//!   label ranges to every frame, re-encode each subset (uncompressed
//!   XTCF) for its backend.
//! * [`determinator`] — the dispatcher's tag → backend policy and the
//!   indexer's cost; the indexer resolves a tag to its dropping from the
//!   label file, and the retriever fetches it (both run in [`Ada`]).
//! * [`Ada`] — the facade gluing it together: [`Ada::ingest`] traps a
//!   (`.pdb`, `.xtc`) pair on its way to storage, [`Ada::query`] serves
//!   `mol addfile /mnt/bar.xtc tag p`.
//!
//! `Ada` has one data plane: real bytes, decoded, split and re-encoded by
//! the actual codecs, and timed by the spans of each request. The paper's
//! TB-scale figures need only volumes and placement; they store per-tag
//! byte counts through `ada-platforms`' volume model, over the same
//! containers and the same [`DispatchPolicy`].

pub mod ada;
pub mod categorizer;
pub mod determinator;
pub mod labeler;
pub mod preprocess;

pub use ada::{
    Ada, AdaConfig, IngestInput, IngestReport, QueryReport, RetrievedData, StoredAnswer,
};
pub use categorizer::{categorize_algo1, Labeler};
pub use determinator::DispatchPolicy;
pub use labeler::{LabelFile, TagEntry};
pub use preprocess::{split_trajectory, PreprocessOutput};

use ada_mdformats::FormatError;
use ada_mdformats::XtcError;
use ada_simfs::FsError;
use ada_telemetry::trace::TraceContext;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Errors across the ADA middleware. A variant says where an error was
/// met; [`AdaError::error_kind`] says what condition it is.
#[derive(Debug)]
pub enum AdaError {
    /// A backend's file system refused a call, whether `Ada` made it (a
    /// label file) or its container set did (a dropping).
    Fs(FsError),
    /// The input trajectory failed to decode.
    Xtc(XtcError),
    /// A stored dropping failed to decode as XTCF: corrupt, or not what
    /// ingest wrote.
    Xtcf {
        /// Dropping path that failed to decode.
        dropping: String,
        /// The underlying format error.
        source: FormatError,
    },
    /// Full-frame reassembly found tags whose droppings carry different
    /// frame counts — refusing to silently truncate to the shortest.
    FrameCountMismatch {
        /// Tag whose frame count disagrees with the label.
        tag: String,
        /// Frames the label file says the dataset has.
        expected: usize,
        /// Frames actually decoded for `tag`.
        got: usize,
    },
    /// Structure file failed to parse.
    Pdb(String),
    /// A dataset's label file failed to parse: its stored metadata is
    /// corrupt. Renders as `pdb: label parse: …`, the text it has always
    /// had.
    Label(String),
    /// A record did not fit the slot sized for it: a fault of the ingest
    /// itself. Renders as `pdb: xtcf encode: …`, the text it has always
    /// had.
    Encode(String),
    /// The query asked for a tag the labeler never produced.
    UnknownTag(String),
    /// The logical dataset is unknown.
    UnknownDataset(String),
    /// A frame-range read asked for frames the dataset does not have, an
    /// empty window, or a zero stride.
    InvalidRange {
        /// First frame requested (inclusive).
        start: usize,
        /// End of the requested window (exclusive).
        end: usize,
        /// Requested stride.
        stride: usize,
        /// Frames the dataset actually has.
        nframes: usize,
    },
    /// Atom-count mismatch between structure and trajectory.
    AtomMismatch {
        /// Atoms in the `.pdb`.
        pdb: usize,
        /// Atoms per frame in the `.xtc`.
        xtc: usize,
    },
    /// An internal invariant broke (e.g. a pipeline worker panicked or a
    /// join failed). Queries and ingests surface this as a structured
    /// error instead of poisoning channels and hanging the pipeline.
    Internal(String),
    /// The front-end admission queue for the request's class is full; the
    /// request was shed instead of queueing unboundedly (the Fig. 9
    /// contention regime). Clients should back off and retry.
    Overloaded {
        /// Requests already waiting in the class queue when this one
        /// arrived.
        queue_depth: usize,
        /// Suggested back-off before retrying, estimated from the mean
        /// observed service time and the current queue depth.
        retry_after: std::time::Duration,
    },
    /// The request was admitted but its deadline elapsed while it waited
    /// in the admission queue; it was dropped before touching storage.
    DeadlineExceeded {
        /// How long the request actually waited in the queue.
        waited: std::time::Duration,
        /// The deadline the client attached to the request.
        deadline: std::time::Duration,
    },
    /// The networked path failed below the request layer: connect/read/
    /// write timed out, the peer vanished mid-frame, or a frame failed
    /// protocol validation (bad magic, bad CRC, oversized length). The
    /// request outcome is unknown to the caller; retrying is safe for
    /// queries and create-once-guarded for ingests.
    Network {
        /// What broke, rendered for operators (includes the peer address
        /// where known).
        detail: String,
    },
    /// An ingest named a dataset that is already stored, or whose ingest
    /// or delete is in flight: the name has one owner at a time.
    DatasetExists(String),
    /// An error raised on the far side of the wire, as it crossed it: its
    /// class and its rendering. Every kind but the three whose fields a
    /// caller acts on (`Overloaded`, `DeadlineExceeded`, `Network`)
    /// arrives as this.
    Remote {
        /// The class the error was raised as.
        kind: ErrorKind,
        /// Its `Display` text, verbatim.
        message: String,
    },
}

/// Convert a worker-thread panic payload into a structured [`AdaError`]
/// so a bug in a pipeline stage fails the operation instead of aborting
/// (and deadlocking) the whole pipeline. `ada-frontend` answers a panic
/// on a request's own thread in the same shape.
pub fn worker_panic(what: &str, payload: Box<dyn std::any::Any + Send + 'static>) -> AdaError {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string());
    AdaError::Internal(format!("{} panicked: {}", what, msg))
}

/// The crate's one worker pool: `units` independent work items claimed
/// from an atomic counter. `worker` runs once per worker with the
/// request's trace context and a `claim` that yields the next unclaimed
/// unit index until none is left, and returns what it made of each unit it
/// claimed; the results come back in unit order. `threads == 0` runs
/// `worker` on the caller's thread; otherwise `min(threads, units)` scoped
/// threads run it — a pool never starts more workers than it has units.
/// This is the only place the crate spawns. A worker that panics, on
/// either kind of thread, fails the pool with [`worker_panic`]'s error.
pub(crate) fn run_pool<T: Send>(
    what: &str,
    threads: usize,
    units: usize,
    ctx: &TraceContext,
    worker: impl Fn(&TraceContext, &dyn Fn() -> Option<usize>) -> Vec<(usize, T)> + Sync,
) -> Result<Vec<T>, AdaError> {
    let next = AtomicUsize::new(0);
    let claim = || {
        let unit = next.fetch_add(1, Ordering::Relaxed);
        (unit < units).then_some(unit)
    };
    let mut done = if threads == 0 {
        // The caller's thread is the one worker: its panic is answered in
        // the shape a joined worker's is.
        catch_unwind(AssertUnwindSafe(|| worker(ctx, &claim))).map_err(|p| worker_panic(what, p))?
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads.min(units))
                .map(|_| scope.spawn(|| worker(ctx, &claim)))
                .collect();
            // Every handle is joined before the first panic is reported,
            // so the scope's own end-of-scope join never meets one.
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            let mut done = Vec::with_capacity(units);
            for outcome in joined {
                done.extend(outcome.map_err(|p| worker_panic(what, p))?);
            }
            Ok::<_, AdaError>(done)
        })?
    };
    // Each unit is claimed once, so in unit order the results are units
    // 0, 1, … — already so when the caller ran them all.
    done.sort_unstable_by_key(|(unit, _)| *unit);
    let whole = done.len() == units && done.iter().enumerate().all(|(i, (unit, _))| i == *unit);
    if !whole {
        return Err(AdaError::Internal(format!(
            "{} left a unit unclaimed",
            what
        )));
    }
    Ok(done.into_iter().map(|(_, result)| result).collect())
}

impl From<FsError> for AdaError {
    fn from(e: FsError) -> AdaError {
        AdaError::Fs(e)
    }
}

impl From<XtcError> for AdaError {
    fn from(e: XtcError) -> AdaError {
        AdaError::Xtc(e)
    }
}

impl std::fmt::Display for AdaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaError::Fs(e) => write!(f, "fs: {}", e),
            AdaError::Xtc(e) => write!(f, "xtc: {}", e),
            AdaError::Xtcf { dropping, source } => {
                write!(f, "corrupt dropping '{}': {}", dropping, source)
            }
            AdaError::FrameCountMismatch { tag, expected, got } => write!(
                f,
                "frame count mismatch: tag '{}' decoded {} frames, label expects {}",
                tag, got, expected
            ),
            AdaError::Pdb(m) => write!(f, "pdb: {}", m),
            AdaError::Label(m) => write!(f, "pdb: label parse: {}", m),
            AdaError::Encode(m) => write!(f, "pdb: xtcf encode: {}", m),
            AdaError::UnknownTag(t) => write!(f, "unknown tag '{}'", t),
            AdaError::UnknownDataset(d) => write!(f, "unknown dataset '{}'", d),
            AdaError::InvalidRange {
                start,
                end,
                stride,
                nframes,
            } => write!(
                f,
                "invalid frame range [{}, {}) stride {} over {} frames",
                start, end, stride, nframes
            ),
            AdaError::AtomMismatch { pdb, xtc } => {
                write!(f, "atom mismatch: pdb has {}, xtc frames have {}", pdb, xtc)
            }
            AdaError::Internal(m) => write!(f, "internal error: {}", m),
            AdaError::Overloaded {
                queue_depth,
                retry_after,
            } => write!(
                f,
                "overloaded: {} requests queued, retry after {:?}",
                queue_depth, retry_after
            ),
            AdaError::DeadlineExceeded { waited, deadline } => write!(
                f,
                "deadline exceeded: waited {:?} in the admission queue, deadline was {:?}",
                waited, deadline
            ),
            AdaError::Network { detail } => write!(f, "network: {}", detail),
            AdaError::DatasetExists(d) => write!(f, "dataset '{}' exists", d),
            AdaError::Remote { message, .. } => f.write_str(message),
        }
    }
}

impl AdaError {
    /// The refusal of a [`RetrievedData::Synthetic`] payload where frames
    /// are needed — an answer on the wire, a VMD session. `Ada` never
    /// constructs that variant, so nothing raises this today; it stays
    /// while the variant does.
    pub fn size_only() -> AdaError {
        AdaError::Pdb("a size-only dataset has no frames and no label ranges".to_string())
    }

    /// The condition the error is, whichever layer met it: what the
    /// `ada.{op}.err.{kind}` counters and a failed span are indexed and
    /// labelled by, and what crosses the wire.
    pub fn error_kind(&self) -> ErrorKind {
        match self {
            AdaError::Fs(FsError::NoSpace { .. }) => ErrorKind::NoSpace,
            // The store disagrees with the dataset map or a label.
            AdaError::Fs(
                FsError::NotFound(_) | FsError::AlreadyExists(_) | FsError::OutOfRange { .. },
            ) => ErrorKind::Corrupt,
            AdaError::Fs(FsError::Refused(_)) => ErrorKind::Io,
            // The stack's policy names a backend it did not mount.
            AdaError::Fs(FsError::Unmounted(_)) => ErrorKind::Internal,
            AdaError::Xtcf { .. } | AdaError::FrameCountMismatch { .. } | AdaError::Label(_) => {
                ErrorKind::Corrupt
            }
            AdaError::Xtc(_) | AdaError::Pdb(_) | AdaError::AtomMismatch { .. } => {
                ErrorKind::BadInput
            }
            AdaError::Encode(_) | AdaError::Internal(_) => ErrorKind::Internal,
            AdaError::UnknownTag(_) => ErrorKind::UnknownTag,
            AdaError::UnknownDataset(_) => ErrorKind::UnknownDataset,
            AdaError::InvalidRange { .. } => ErrorKind::InvalidRange,
            AdaError::Overloaded { .. } => ErrorKind::Overloaded,
            AdaError::DeadlineExceeded { .. } => ErrorKind::DeadlineExceeded,
            AdaError::Network { .. } => ErrorKind::Network,
            AdaError::DatasetExists(_) => ErrorKind::DatasetExists,
            AdaError::Remote { kind, .. } => *kind,
        }
    }
}

/// The condition an [`AdaError`] is, without its fields: what a caller
/// acts on, not which layer met it (DESIGN.md §7 maps each source to its
/// kind). [`AdaError::Remote`] carries the one it was sent as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// A backend is full.
    NoSpace,
    /// An ingest named a dataset that is stored or in flight.
    DatasetExists,
    /// No dataset has the name.
    UnknownDataset,
    /// The dataset has no such tag.
    UnknownTag,
    /// A frame window the dataset cannot answer.
    InvalidRange,
    /// The caller's input is malformed: a structure or trajectory that
    /// fails to parse, or the two disagree on atoms.
    BadInput,
    /// Stored data disagrees with itself, its label or the dataset map.
    Corrupt,
    /// The medium refused a call.
    Io,
    /// Shed by admission control.
    Overloaded,
    /// The request's deadline passed in the queue.
    DeadlineExceeded,
    /// The network path failed below the request layer.
    Network,
    /// An invariant of the stack broke.
    Internal,
}

impl ErrorKind {
    /// Every kind, in declaration order: `ALL[k as usize] == k`. A kind's
    /// index is its byte on the wire, so a new kind goes last.
    pub const ALL: [ErrorKind; 12] = [
        ErrorKind::NoSpace,
        ErrorKind::DatasetExists,
        ErrorKind::UnknownDataset,
        ErrorKind::UnknownTag,
        ErrorKind::InvalidRange,
        ErrorKind::BadInput,
        ErrorKind::Corrupt,
        ErrorKind::Io,
        ErrorKind::Overloaded,
        ErrorKind::DeadlineExceeded,
        ErrorKind::Network,
        ErrorKind::Internal,
    ];

    /// Stable short name: the suffix of `ada.{op}.err.{kind}` and what a
    /// failed span records.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::NoSpace => "no_space",
            ErrorKind::DatasetExists => "dataset_exists",
            ErrorKind::UnknownDataset => "unknown_dataset",
            ErrorKind::UnknownTag => "unknown_tag",
            ErrorKind::InvalidRange => "invalid_range",
            ErrorKind::BadInput => "bad_input",
            ErrorKind::Corrupt => "corrupt",
            ErrorKind::Io => "io",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Network => "network",
            ErrorKind::Internal => "internal",
        }
    }
}

impl std::error::Error for AdaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AdaError::Fs(e) => Some(e),
            AdaError::Xtc(e) => Some(e),
            AdaError::Xtcf { source, .. } => Some(source),
            AdaError::FrameCountMismatch { .. }
            | AdaError::Pdb(_)
            | AdaError::Label(_)
            | AdaError::Encode(_)
            | AdaError::UnknownTag(_)
            | AdaError::UnknownDataset(_)
            | AdaError::InvalidRange { .. }
            | AdaError::AtomMismatch { .. }
            | AdaError::Internal(_)
            | AdaError::Overloaded { .. }
            | AdaError::DeadlineExceeded { .. }
            | AdaError::Network { .. }
            | AdaError::DatasetExists(_)
            | AdaError::Remote { .. } => None,
        }
    }
}

#[cfg(test)]
mod error_tests {
    use super::*;
    use std::error::Error;

    /// One value of every local variant, in declaration order, with the
    /// kind it is: the source-to-kind table of DESIGN.md §7. `Fs` is
    /// listed once per file-system refusal, in `FsError`'s order.
    fn samples() -> Vec<(AdaError, ErrorKind)> {
        use ErrorKind::*;
        vec![
            (AdaError::Fs(FsError::NotFound("x".into())), Corrupt),
            (AdaError::Fs(FsError::AlreadyExists("x".into())), Corrupt),
            (
                AdaError::Fs(FsError::NoSpace {
                    requested: 9,
                    free: 3,
                }),
                NoSpace,
            ),
            (
                AdaError::Fs(FsError::OutOfRange {
                    offset: 5,
                    len: 10,
                    file_len: 7,
                }),
                Corrupt,
            ),
            (AdaError::Fs(FsError::Refused("x".into())), Io),
            (AdaError::Fs(FsError::Unmounted("tape".into())), Internal),
            (AdaError::Xtc(XtcError::TruncatedPayload), BadInput),
            (
                AdaError::Xtcf {
                    dropping: "ssd/bar/hostdir.0/dropping.data.p".into(),
                    source: FormatError::Corrupt("bad magic".into()),
                },
                Corrupt,
            ),
            (
                AdaError::FrameCountMismatch {
                    tag: "m".into(),
                    expected: 7,
                    got: 5,
                },
                Corrupt,
            ),
            (AdaError::Pdb("bad atom line".into()), BadInput),
            (AdaError::Label("expected ':'".into()), Corrupt),
            (AdaError::Encode("slot of 12 B".into()), Internal),
            (AdaError::UnknownTag("z".into()), UnknownTag),
            (AdaError::UnknownDataset("d".into()), UnknownDataset),
            (
                AdaError::InvalidRange {
                    start: 4,
                    end: 4,
                    stride: 1,
                    nframes: 9,
                },
                InvalidRange,
            ),
            (AdaError::AtomMismatch { pdb: 3, xtc: 4 }, BadInput),
            (AdaError::Internal("worker panicked: boom".into()), Internal),
            (
                AdaError::Overloaded {
                    queue_depth: 9,
                    retry_after: std::time::Duration::from_millis(3),
                },
                Overloaded,
            ),
            (
                AdaError::DeadlineExceeded {
                    waited: std::time::Duration::from_millis(12),
                    deadline: std::time::Duration::from_millis(10),
                },
                DeadlineExceeded,
            ),
            (
                AdaError::Network {
                    detail: "peer reset".into(),
                },
                Network,
            ),
            (AdaError::DatasetExists("d".into()), DatasetExists),
        ]
    }

    /// A sample's place in [`samples`]; `None` for [`AdaError::Remote`],
    /// which carries its kind instead of having one. No wildcard arm, in
    /// `AdaError` or in `FsError`: a new variant of either does not
    /// compile until it has a place, and then
    /// `every_local_variant_is_listed_once` fails until `samples` holds it.
    fn listed_at(e: &AdaError) -> Option<usize> {
        Some(match e {
            AdaError::Fs(FsError::NotFound(_)) => 0,
            AdaError::Fs(FsError::AlreadyExists(_)) => 1,
            AdaError::Fs(FsError::NoSpace { .. }) => 2,
            AdaError::Fs(FsError::OutOfRange { .. }) => 3,
            AdaError::Fs(FsError::Refused(_)) => 4,
            AdaError::Fs(FsError::Unmounted(_)) => 5,
            AdaError::Xtc(_) => 6,
            AdaError::Xtcf { .. } => 7,
            AdaError::FrameCountMismatch { .. } => 8,
            AdaError::Pdb(_) => 9,
            AdaError::Label(_) => 10,
            AdaError::Encode(_) => 11,
            AdaError::UnknownTag(_) => 12,
            AdaError::UnknownDataset(_) => 13,
            AdaError::InvalidRange { .. } => 14,
            AdaError::AtomMismatch { .. } => 15,
            AdaError::Internal(_) => 16,
            AdaError::Overloaded { .. } => 17,
            AdaError::DeadlineExceeded { .. } => 18,
            AdaError::Network { .. } => 19,
            AdaError::DatasetExists(_) => 20,
            AdaError::Remote { .. } => return None,
        })
    }

    #[test]
    fn every_local_variant_is_listed_once() {
        let places: Vec<Option<usize>> = samples().iter().map(|(e, _)| listed_at(e)).collect();
        assert_eq!(places, (0..21).map(Some).collect::<Vec<_>>());
    }

    /// A remote error is any kind it was sent as, rendered as it was sent,
    /// with no source on this side of the wire.
    #[test]
    fn a_remote_error_carries_its_kind_and_text() {
        for kind in ErrorKind::ALL {
            let e = AdaError::Remote {
                kind,
                message: format!("far side: {}", kind.name()),
            };
            assert_eq!(listed_at(&e), None);
            assert_eq!(e.error_kind(), kind);
            assert_eq!(e.to_string(), format!("far side: {}", kind.name()));
            assert!(e.source().is_none());
        }
    }

    #[test]
    fn display_is_nonempty_and_distinct_per_variant() {
        let msgs: Vec<String> = samples().iter().map(|(e, _)| e.to_string()).collect();
        for m in &msgs {
            assert!(!m.is_empty());
        }
        let unique: std::collections::BTreeSet<&String> = msgs.iter().collect();
        assert_eq!(unique.len(), msgs.len(), "two variants render identically");
    }

    /// Each sample is the kind its row names, every kind is raised by at
    /// least one local variant, and `ALL` lists each kind once, at its own
    /// index, under a name of its own.
    #[test]
    fn kinds_are_stable_and_distinct() {
        for (e, kind) in samples() {
            assert_eq!(e.error_kind(), kind, "{:?}", e);
        }
        let raised: std::collections::BTreeSet<usize> = samples()
            .iter()
            .map(|(e, _)| e.error_kind() as usize)
            .collect();
        assert_eq!(raised, (0..ErrorKind::ALL.len()).collect());
        for (i, k) in ErrorKind::ALL.into_iter().enumerate() {
            assert_eq!(k as usize, i);
        }
        let names: Vec<&str> = ErrorKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "no_space",
                "dataset_exists",
                "unknown_dataset",
                "unknown_tag",
                "invalid_range",
                "bad_input",
                "corrupt",
                "io",
                "overloaded",
                "deadline_exceeded",
                "network",
                "internal"
            ]
        );
    }

    #[test]
    fn worker_panic_extracts_str_and_string_payloads() {
        let e = worker_panic("splitter", Box::new("index out of bounds"));
        assert_eq!(e.error_kind(), ErrorKind::Internal);
        assert!(e
            .to_string()
            .contains("splitter panicked: index out of bounds"));
        let e = worker_panic("decoder", Box::new(String::from("boom")));
        assert!(e.to_string().contains("decoder panicked: boom"));
        let e = worker_panic("reader", Box::new(42u32));
        assert!(e.to_string().contains("opaque panic payload"));
    }

    #[test]
    fn source_chains_wrapped_errors() {
        for (e, _) in samples() {
            match &e {
                AdaError::Fs(_) | AdaError::Xtc(_) | AdaError::Xtcf { .. } => {
                    let src = e.source().expect("wrapped variant must expose source");
                    // The chain renders: Display stays consistent with it.
                    assert!(e.to_string().contains(&src.to_string()));
                }
                _ => assert!(e.source().is_none()),
            }
        }
    }
}

#[cfg(test)]
mod pool_tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    const THREADS: [usize; 4] = [0, 1, 4, 8];

    /// Square every claimed unit; `on_start` sees each worker once.
    fn squares(
        threads: usize,
        units: usize,
        on_start: impl Fn() + Sync,
        on_unit: impl Fn(usize) + Sync,
    ) -> Result<Vec<usize>, AdaError> {
        let ctx = TraceContext::inactive();
        run_pool("test pool", threads, units, &ctx, |_, claim| {
            on_start();
            let mut done = Vec::new();
            while let Some(u) = claim() {
                on_unit(u);
                done.push((u, u * u));
            }
            done
        })
    }

    #[test]
    fn results_come_back_in_unit_order_at_every_thread_count() {
        for threads in THREADS {
            for units in [0, 1, 37] {
                let got = squares(threads, units, || (), |_| ()).unwrap();
                let expected: Vec<usize> = (0..units).map(|u| u * u).collect();
                assert_eq!(got, expected, "threads {} units {}", threads, units);
            }
        }
    }

    #[test]
    fn zero_threads_is_the_callers_thread_and_workers_never_outnumber_units() {
        let started: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
        let note = || started.lock().unwrap().push(std::thread::current().id());

        squares(0, 3, note, |_| ()).unwrap();
        assert_eq!(*started.lock().unwrap(), [std::thread::current().id()]);

        started.lock().unwrap().clear();
        squares(8, 3, note, |_| ()).unwrap();
        let ids: HashSet<ThreadId> = started.lock().unwrap().iter().copied().collect();
        assert_eq!(ids.len(), 3, "8 threads over 3 units start 3 workers");
        assert!(!ids.contains(&std::thread::current().id()));
    }

    /// A panic on one unit is the typed error `Frontend::execute` answers
    /// a panicking request with — `"{what} panicked: {message}"` — whether
    /// the worker was a spawned thread or the caller's own.
    #[test]
    fn a_panicking_unit_is_a_typed_internal_error_at_every_thread_count() {
        for threads in THREADS {
            let boom = |u: usize| {
                if u == 5 {
                    panic!("unit {} went wrong", u);
                }
            };
            match squares(threads, 37, || (), boom) {
                Err(AdaError::Internal(msg)) => assert_eq!(
                    msg, "test pool panicked: unit 5 went wrong",
                    "threads {}",
                    threads
                ),
                other => panic!("threads {}: expected Internal, got {:?}", threads, other),
            }
        }
    }
}
