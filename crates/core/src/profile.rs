//! Stage-attribution profiles: where did the wall-clock go?
//!
//! The simulated [`IngestReport`](crate::IngestReport) durations model the
//! paper's storage node; a [`StageProfile`] is the *measured* counterpart —
//! real wall time this process spent in each pipeline stage, and per-tag
//! bytes.
//! Every report carries one, to answer the ROADMAP question ("is decode,
//! split, or dispatch the wall-clock ceiling?") per request;
//! `tests/trace_invariants.rs::profile_is_a_fold_of_the_tree` pins it to
//! the trace it is cut from.
//!
//! A stage's time is the sum of its spans' durations. An ingest's pool
//! workers each carry a chunk through decode and split, and a retrieval's
//! decode workers overlap the same way, so the stage times of either
//! legitimately sum to more than `wall_ns`. The bottleneck is the stage
//! with the largest time.
//!
//! A profile is not measured beside the request's trace; it **is** the
//! trace, cut one way: [`StageProfile::from_spans`] folds the finished
//! subtree of the call's op span (`ada.ingest`, `ada.query`, …) once the
//! op span has closed. A report therefore carries a profile exactly when
//! the request was traced.

use ada_telemetry::trace::{ArgValue, TraceSpan};
use std::collections::BTreeMap;

/// Span name → profile stage. Every other span of a request (facade and
/// front-end spans, per-worker fan-out, markers) is structure, not a stage.
const STAGES: [(&str, &str); 10] = [
    ("ingest.categorize", "categorize"),
    ("ingest.decode", "decode"),
    ("ingest.split", "split"),
    ("ingest.dispatch", "dispatch"),
    ("ingest.label_write", "label_write"),
    ("query.index", "index"),
    ("cache.lookup", "cache_lookup"),
    ("query.read", "read"),
    ("query.decode", "decode"),
    ("query.reassemble", "reassemble"),
];

/// `map[key] += n`, allocating the key only the first time it is seen (a
/// query folds one `query.decode` span per decoded chunk).
fn add(map: &mut BTreeMap<String, u64>, key: &str, n: u64) {
    match map.get_mut(key) {
        Some(total) => *total += n,
        None => {
            map.insert(key.to_string(), n);
        }
    }
}

/// Measured wall-clock attribution of one ingest or query call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageProfile {
    /// Which entry point and schedule produced this: `"serial"`,
    /// `"guided"` or `"synthetic"` for an ingest; `"query"`,
    /// `"query_parallel"` or `"query_range"` for a read.
    pub mode: String,
    /// Per-stage wall time (the sum of the stage's spans), nanoseconds.
    pub stages_ns: BTreeMap<String, u64>,
    /// Bytes stored (ingest) or freshly decoded (query) per tag.
    pub bytes_by_tag: BTreeMap<String, u64>,
    /// End-to-end wall time of the call — its op span's — nanoseconds.
    pub wall_ns: u64,
}

impl StageProfile {
    /// Cut a profile from a request's finished spans: fold the subtree of
    /// span `op`, which must itself be finished. `wall_ns` is the op
    /// span's duration; each stage span adds its duration to its stage;
    /// `query.decode` spans add their `bytes` under their `tag`.
    pub fn from_spans(mode: &str, spans: &[TraceSpan], op: u64) -> StageProfile {
        let mut p = StageProfile {
            mode: mode.to_string(),
            ..StageProfile::default()
        };
        // A span's id is allocated after its parent's, so one pass in id
        // order has seen every ancestor before it meets a descendant.
        let mut by_id: Vec<&TraceSpan> = spans.iter().filter(|s| s.id >= op).collect();
        by_id.sort_unstable_by_key(|s| s.id);
        let mut subtree: Vec<u64> = Vec::with_capacity(by_id.len());
        for s in by_id {
            let inside = s.id == op
                || s.parent
                    .is_some_and(|up| subtree.binary_search(&up).is_ok());
            if !inside {
                continue;
            }
            subtree.push(s.id);
            if s.id == op {
                p.wall_ns = s.duration_ns();
            }
            if let Some((_, stage)) = STAGES.iter().find(|(name, _)| *name == s.name) {
                add(&mut p.stages_ns, stage, s.duration_ns());
            }
            if let ("query.decode", Some(ArgValue::Str(tag)), Some(bytes)) =
                (s.name, s.arg("tag"), s.arg_u64("bytes"))
            {
                add(&mut p.bytes_by_tag, tag, bytes);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: u64,
        name: &'static str,
        (start_ns, end_ns): (u64, u64),
        args: Vec<(&'static str, ArgValue)>,
    ) -> TraceSpan {
        TraceSpan {
            id,
            parent: Some(parent),
            name,
            start_ns,
            end_ns,
            thread: "t".into(),
            args,
            error: None,
        }
    }

    #[test]
    fn fold_keeps_to_the_op_subtree() {
        let u = ArgValue::U64;
        let tag = |t: &str| ("tag", ArgValue::Str(t.to_string()));
        // Completion order, as a live trace holds them: children first.
        let spans = vec![
            // A sibling op under the same root: not this op's business.
            span(3, 2, "query.index", (0, 5), vec![]),
            span(2, 1, "ada.query", (0, 9), vec![]),
            span(5, 4, "query.index", (10, 13), vec![]),
            span(7, 6, "query.read", (13, 40), vec![]),
            span(8, 6, "query.read", (13, 30), vec![]),
            span(
                9,
                6,
                "query.decode",
                (20, 24),
                vec![tag("p"), ("bytes", u(100))],
            ),
            span(
                10,
                6,
                "query.decode",
                (24, 29),
                vec![tag("p"), ("bytes", u(28))],
            ),
            span(
                11,
                6,
                "query.decode",
                (24, 26),
                vec![tag("m"), ("bytes", u(7))],
            ),
            // Structure below the op that is no stage of its own.
            span(6, 4, "cache.readahead", (13, 41), vec![("droppings", u(1))]),
            span(4, 1, "ada.query", (10, 50), vec![]),
        ];
        let p = StageProfile::from_spans("query_parallel", &spans, 4);
        assert_eq!(p.mode, "query_parallel");
        assert_eq!(p.wall_ns, 40);
        let stages: Vec<(&str, u64)> = p.stages_ns.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        // read = 27 + 17; decode = 4 + 5 + 2.
        assert_eq!(stages, [("decode", 11), ("index", 3), ("read", 44)]);
        assert_eq!(p.bytes_by_tag["p"], 128);
        assert_eq!(p.bytes_by_tag["m"], 7);
    }
}
