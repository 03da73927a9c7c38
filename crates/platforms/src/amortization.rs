//! Ingest-cost amortization — an analysis the paper does not show.
//!
//! ADA's pre-processing is not free: at ingest it decompresses, splits and
//! rewrites the whole dataset on the storage node. The paper's §3.2 argues
//! this "repeated effort" moves off the critical path because biologists
//! "repeatedly study the behaviors of proteins"; this experiment makes the
//! break-even explicit: after how many protein queries has ADA's ingest
//! investment paid for itself against the traditional
//! decompress-on-every-read flow?

use crate::config::Platform;
use crate::runner::run_scenario;
use crate::scenario::Scenario;
use crate::volumes::{self, SyntheticDataset};
use ada_core::DispatchPolicy;
use ada_simfs::LocalFs;

/// Amortization analysis result.
#[derive(Debug, Clone)]
pub struct Amortization {
    /// Frames in the dataset.
    pub frames: u64,
    /// One-time ADA ingest cost (storage-node seconds).
    pub ingest_s: f64,
    /// Per-query turnaround via ADA(protein), seconds.
    pub ada_query_s: f64,
    /// Per-query turnaround via the traditional compressed flow, seconds.
    pub traditional_query_s: f64,
    /// Queries after which cumulative ADA cost (ingest + n×query) drops
    /// below n× the traditional per-query cost. `1` means ADA wins from
    /// the very first read.
    pub break_even_queries: u64,
}

/// Compute the break-even point on the SSD server for a dataset of
/// `frames` frames.
pub fn ingest_amortization(frames: u64) -> Amortization {
    // One-time ingest cost, priced by the volume model.
    let backends = [("ssd", LocalFs::ext4_on_nvme())];
    let policy = DispatchPolicy::all_to("ssd");
    let spec = SyntheticDataset::gpcr_paper(frames);
    #[expect(
        clippy::expect_used,
        reason = "paper-figure harness over fixed synthetic inputs; a failure is a harness bug and aborting one repro run is acceptable"
    )]
    let (_, ingest) =
        volumes::ingest(&backends, &backends[0].1, &policy, "bar", &spec).expect("ingest");
    let ingest_s = ingest.as_secs_f64();

    let platform = Platform::ssd_server();
    let ada_query_s = run_scenario(&platform, Scenario::AdaProtein, frames)
        .turnaround()
        .as_secs_f64();
    let traditional_query_s = run_scenario(&platform, Scenario::CTraditional, frames)
        .turnaround()
        .as_secs_f64();

    let per_query_saving = traditional_query_s - ada_query_s;
    let break_even_queries = if per_query_saving <= 0.0 {
        u64::MAX
    } else {
        (ingest_s / per_query_saving).ceil().max(1.0) as u64
    };
    Amortization {
        frames,
        ingest_s,
        ada_query_s,
        traditional_query_s,
        break_even_queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn break_even_is_small() {
        // Ingest ≈ one decompression pass + writes; each query saves ≈ one
        // decompression pass — so ADA pays off within a handful of reads.
        let a = ingest_amortization(5006);
        assert!(a.ingest_s > 0.0);
        assert!(a.traditional_query_s > a.ada_query_s);
        assert!(
            a.break_even_queries >= 1 && a.break_even_queries <= 3,
            "break-even {} (ingest {:.1}s, saving {:.1}s/query)",
            a.break_even_queries,
            a.ingest_s,
            a.traditional_query_s - a.ada_query_s
        );
    }

    #[test]
    fn break_even_stable_across_sizes() {
        let small = ingest_amortization(626);
        let large = ingest_amortization(5006);
        // Both costs scale ~linearly with volume, so the break-even query
        // count is size-independent (±1).
        assert!(small.break_even_queries.abs_diff(large.break_even_queries) <= 1);
    }
}
