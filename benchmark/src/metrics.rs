//! The metric catalogue: every name the benchmark prints, with its unit,
//! which direction is better, and — for the gated end-to-end metrics — the
//! bound by which it may worsen. `BENCHMARK.json` at the repo root lists
//! the same names; a unit test keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A gated end-to-end metric; every workload reports every one.
#[derive(Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics. Tail latency and memory did not repeat within a
/// tenth when the workloads were sized, so they are per-layer, ungated.
/// `failed_ratio` (bound 0, absolute) is reported beside these as the
/// `attempted` / `failed` counts: it is 0 on a healthy run, which a
/// relative bound cannot gate.
///
/// The bounds are what the 2-core sizing host can resolve (the issue asked
/// for 0.10 / 0.10 / 0.20). Within one speed regime of the host, ten seeds
/// spread by 1-5 % (quartile distance over median; `setup_s` up to 7 %).
/// But the host steps between regimes that last minutes and differ by
/// 15-25 % (`ingest_stream` read 17.7 ops/s in one batch of ten and 13.4 in
/// the next, with no steal time charged to the guest), which neither a
/// longer run nor a sturdier statistic removes, and a batch that straddles a
/// step spreads by 13-17 %. So every metric gets the widest bound the
/// driver allows.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric of the traced run (layer = crate name).
#[derive(Debug)]
pub struct PerLayer {
    /// `layer.metric_unit`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric (on which workload) it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Every per-layer metric the traced run prints.
pub const PER_LAYER: [PerLayer; 55] = [
    layer("mdformats.read_xtc_ms", "ms", Lower, "ingest_stream.op_p50_ms; flat on local_full_load, sampling_epochs"),
    layer("mdformats.read_xtc_mib_per_s", "MiB/s", Higher, "ingest_stream.op_p50_ms"),
    layer("mdformats.write_xtc_ms", "ms", Lower, "remote_tag_load.op_p50_ms (today inside proto.encode_response_ms)"),
    layer("mdformats.xtc_bytes_per_raw_byte", "ratio", Lower, "remote_tag_load: bytes on the wire per coordinate byte"),
    layer("mdformats.xtcf_decode_ms", "ms", Lower, "local_full_load.ops_per_s, about a tenth of remote_tag_load; flat on sampling_epochs, ingest_stream"),
    layer("mdformats.xtcf_decode_mib_per_s", "MiB/s", Higher, "local_full_load.ops_per_s"),
    layer("mdformats.xtcf_decode_all_ms", "ms", Lower, "local_full_load.op_p50_ms (both tags, the serial sum)"),
    layer("mdformats.xtcf_encode_ms", "ms", Lower, "ingest_stream.op_p50_ms"),
    layer("mdformats.xtcf_encode_all_ms", "ms", Lower, "ingest_stream.op_p50_ms (both tags)"),
    layer("plfs.read_ms", "ms", Lower, "local_full_load.op_p50_ms, remote_tag_load.op_p50_ms"),
    layer("plfs.read_all_ms", "ms", Lower, "local_full_load.op_p50_ms (both tags)"),
    layer("plfs.read_ops", "count", Lower, "exact count; local_full_load.op_p50_ms"),
    layer("plfs.read_bytes", "bytes", Lower, "exact count; local_full_load.op_p50_ms"),
    layer("plfs.stored_bytes_per_raw_byte", "ratio", Lower, "exact count; the space cost a format change must report beside its read/write gain"),
    layer("cache.get_us", "us", Lower, "sampling_epochs.ops_per_s; flat elsewhere"),
    layer("cache.insert_us", "us", Lower, "sampling_epochs.setup_s; flat elsewhere"),
    layer("cache.hit_ratio", "ratio", Higher, "exact count, expected 1; sampling_epochs.ops_per_s"),
    layer("cache.evictions", "count", Lower, "exact count, expected 0; sampling_epochs.ops_per_s"),
    layer("cache.bypasses", "count", Lower, "exact count, expected 0; sampling_epochs.ops_per_s"),
    layer("cache.bytes_decoded", "bytes", Lower, "exact count, expected 0; sampling_epochs.ops_per_s"),
    layer("cache.resident_mib", "MiB", Lower, "sampling_epochs memory"),
    layer("core.query_tag_ms", "ms", Lower, "remote_tag_load.op_p50_ms"),
    layer("core.query_all_ms", "ms", Lower, "local_full_load.op_p50_ms and .ops_per_s"),
    layer("core.query_all_serial_ms", "ms", Lower, "the serial reference beside core.query_all_ms"),
    layer("core.parallel_speedup", "ratio", Higher, "serial / default; below 1 the default loses to serial"),
    layer("core.query_range_miss_ms", "ms", Lower, "the cache-larger-than-memory case; sampling_epochs.setup_s"),
    layer("core.query_range_hit_us", "us", Lower, "sampling_epochs.ops_per_s"),
    layer("core.ingest_ms", "ms", Lower, "ingest_stream.op_p50_ms"),
    layer("core.query_tag_self_ms", "ms", Lower, "query_tag - plfs.read - xtcf_decode; remote_tag_load.op_p50_ms"),
    layer("core.query_all_self_ms", "ms", Lower, "query_all - plfs.read_all - xtcf_decode_all; negative = parallel overlap; local_full_load.op_p50_ms"),
    layer("core.ingest_self_ms", "ms", Lower, "ingest - read_xtc - xtcf_encode_all; ingest_stream.op_p50_ms"),
    layer("core.sim_read_ms", "ms", Lower, "exact virtual-clock count from QueryReport"),
    layer("core.sim_indexer_ms", "ms", Lower, "exact virtual-clock count from QueryReport"),
    layer("frontend.query_tag_ms", "ms", Lower, "remote_tag_load.op_p50_ms"),
    layer("frontend.query_range_hit_us", "us", Lower, "sampling_epochs.op_p50_ms"),
    layer("frontend.ingest_ms", "ms", Lower, "ingest_stream.op_p50_ms"),
    layer("frontend.handoff_us", "us", Lower, "sampling_epochs.ops_per_s; under 1 % of the other three"),
    layer("frontend.queue_hwm", "count", Lower, "this workload's admission queue; waiting shows here before ops_per_s stops rising"),
    layer("frontend.rejected", "count", Lower, "this workload's shed requests, expected 0"),
    layer("frontend.expired", "count", Lower, "this workload's expired requests, expected 0"),
    layer("proto.encode_response_ms", "ms", Lower, "remote_tag_load.op_p50_ms and .ops_per_s; flat on the in-process workloads"),
    layer("proto.decode_response_ms", "ms", Lower, "remote_tag_load.op_p50_ms; flat on the in-process workloads"),
    layer("proto.request_roundtrip_us", "us", Lower, "remote_tag_load.op_p50_ms (negligible)"),
    layer("proto.response_bytes", "bytes", Lower, "exact count; remote_tag_load.op_p50_ms"),
    layer("proto.wire_bytes_per_payload_byte", "ratio", Lower, "remote_tag_load: framed response bytes per coordinate byte"),
    layer("client.query_tag_ms", "ms", Lower, "remote_tag_load.op_p50_ms (one client, incl. trajectory())"),
    layer("client.ping_us", "us", Lower, "the transport floor under remote_tag_load.op_p50_ms"),
    layer("server.transport_ms", "ms", Lower, "client.query_tag - frontend.query_tag - proto.encode_response - proto.decode_response"),
    layer("workload.ops_per_s", "1/s", Higher, "this workload's untraced blocks inside the traced run"),
    layer("workload.op_p95_ms", "ms", Lower, "this workload's tail, pooled over untraced blocks; not gated"),
    layer("workload.errors", "count", Lower, "this workload's failed ops in the traced run, expected 0"),
    layer("process.peak_rss_mib", "MiB", Lower, "VmHWM after this workload's op stream, before the ladder"),
    layer("harness.setup_fixture_share", "ratio", Lower, "share of setup_s spent generating and XTC-encoding inputs"),
    layer("harness.overhead_ratio", "ratio", Lower, "1 - sum of op latencies / (clients x block wall); must stay under 0.05"),
    layer("harness.trace_overhead_ratio", "ratio", Higher, "traced / untraced ops_per_s - 1; negative = spans slow the stream"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(SPECS.iter().map(|s| s.name))
            .collect();
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(SPECS
            .iter()
            .all(|s| s.why.len() <= 200 && !s.why.contains('\n')));
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// binary prints. They must name the same things.
    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = ada_json::parse(&std::fs::read(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses");
        let rows = |key: &str| doc.field(key).unwrap().as_arr().unwrap().to_vec();
        let text = |v: &ada_json::Value, k: &str| v.field(k).unwrap().as_str().unwrap().to_string();

        let listed: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = SPECS
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String, String, ada_json::Value)> = rows("end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.field("bound").unwrap().clone(),
                )
            })
            .collect();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    ada_json::Value::Num(m.bound),
                )
            })
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String, String)> = rows("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(listed, ours);
    }
}
