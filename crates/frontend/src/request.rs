//! The request/reply vocabulary clients speak to the front-end.

use ada_core::{Ada, AdaError, IngestInput, IngestReport, QueryReport};
use ada_mdmodel::Tag;
use ada_telemetry::trace::TraceContext;

/// Admission class a request competes in. Ingest and query contend for
/// different storage-node resources (write bandwidth + split CPU vs. read
/// bandwidth + decode CPU), so each class has its own slots and queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Write path: `ingest` / `ingest_streaming`.
    Ingest,
    /// Read path: `query`.
    Query,
}

impl Class {
    /// Both classes, in stable order (used to size per-class state).
    pub const ALL: [Class; 2] = [Class::Ingest, Class::Query];

    /// Stable lowercase name used in telemetry metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Ingest => "ingest",
            Class::Query => "query",
        }
    }

    pub(crate) fn idx(self) -> usize {
        match self {
            Class::Ingest => 0,
            Class::Query => 1,
        }
    }
}

/// One client request, self-contained: the op and everything it needs
/// besides the shared [`Ada`], so one `submit` serves all four ops.
#[derive(Debug)]
pub enum Request {
    /// Whole-buffer ingest of a `(pdb, xtc)` pair or a synthetic spec.
    Ingest {
        /// Logical dataset name to create.
        dataset: String,
        /// The data to ingest.
        input: IngestInput,
    },
    /// Streaming (batched, memory-bounded) ingest of real bytes.
    IngestStreaming {
        /// Logical dataset name to create.
        dataset: String,
        /// `.pdb` contents.
        pdb_text: String,
        /// `.xtc` contents.
        xtc_bytes: Vec<u8>,
        /// Frames per pipeline batch.
        batch_frames: usize,
    },
    /// Tag-aware (or full-frame, when `tag` is `None`) retrieval.
    Query {
        /// Logical dataset to read.
        dataset: String,
        /// Active-data tag, or `None` for the full-frame baseline path.
        tag: Option<Tag>,
    },
    /// Strided frame-range retrieval of one tag (the ML-sampling read
    /// path); served through the decoded-dropping cache when enabled.
    QueryRange {
        /// Logical dataset to read.
        dataset: String,
        /// Active-data tag the range is drawn from.
        tag: Tag,
        /// First frame (inclusive).
        start: usize,
        /// End of the window (exclusive).
        end: usize,
        /// Keep every `stride`-th frame of the window.
        stride: usize,
    },
}

impl Request {
    /// Which admission class this request competes in.
    pub fn class(&self) -> Class {
        match self {
            Request::Ingest { .. } | Request::IngestStreaming { .. } => Class::Ingest,
            Request::Query { .. } | Request::QueryRange { .. } => Class::Query,
        }
    }

    /// Stable lowercase operation name (trace/metric vocabulary).
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Ingest { .. } => "ingest",
            Request::IngestStreaming { .. } => "ingest_streaming",
            Request::Query { .. } => "query",
            Request::QueryRange { .. } => "query_range",
        }
    }

    /// Execute against the shared middleware. Runs on the submitting
    /// thread once the scheduler granted a slot; `ctx` is the request's
    /// trace context, so the middleware's spans join the admission root's
    /// tree.
    pub(crate) fn execute(self, ada: &Ada, ctx: &TraceContext) -> Result<Reply, AdaError> {
        match self {
            Request::Ingest { dataset, input } => {
                ada.ingest_traced(&dataset, input, ctx).map(Reply::Ingest)
            }
            Request::IngestStreaming {
                dataset,
                pdb_text,
                xtc_bytes,
                batch_frames,
            } => ada
                .ingest_streaming_traced(&dataset, &pdb_text, &xtc_bytes, batch_frames, ctx)
                .map(Reply::Ingest),
            Request::Query { dataset, tag } => ada
                .query_traced(&dataset, tag.as_ref(), ctx)
                .map(Reply::Query),
            Request::QueryRange {
                dataset,
                tag,
                start,
                end,
                stride,
            } => ada
                .query_range_traced(&dataset, &tag, start..end, stride, ctx)
                .map(Reply::Query),
        }
    }
}

/// Successful response to a [`Request`].
#[derive(Debug)]
pub enum Reply {
    /// Report from either ingest flavor.
    Ingest(IngestReport),
    /// Report (with retrieved data) from a query.
    Query(QueryReport),
}

impl Reply {
    /// The query report, if this reply came from a query.
    pub fn into_query(self) -> Option<QueryReport> {
        match self {
            Reply::Query(r) => Some(r),
            Reply::Ingest(_) => None,
        }
    }

    /// The ingest report, if this reply came from an ingest.
    pub fn into_ingest(self) -> Option<IngestReport> {
        match self {
            Reply::Ingest(r) => Some(r),
            Reply::Query(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_names_are_stable() {
        assert_eq!(Class::Ingest.name(), "ingest");
        assert_eq!(Class::Query.name(), "query");
        assert_eq!(Class::ALL.len(), 2);
    }

    #[test]
    fn requests_map_to_classes() {
        let q = Request::Query {
            dataset: "d".into(),
            tag: None,
        };
        assert_eq!(q.class(), Class::Query);
        let r = Request::QueryRange {
            dataset: "d".into(),
            tag: Tag::protein(),
            start: 0,
            end: 8,
            stride: 2,
        };
        assert_eq!(r.class(), Class::Query);
        let i = Request::IngestStreaming {
            dataset: "d".into(),
            pdb_text: String::new(),
            xtc_bytes: Vec::new(),
            batch_frames: 4,
        };
        assert_eq!(i.class(), Class::Ingest);
    }
}
