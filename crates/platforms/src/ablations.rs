//! Ablation studies over the design choices DESIGN.md calls out.
//!
//! Four sweeps:
//!
//! 1. **Dispatch policy** — hybrid (protein→SSD) vs all-SSD vs all-HDD vs
//!    inverted, on the cluster: what does placement buy on top of
//!    pre-decompression?
//! 2. **Decompression rate** — the single calibrated constant behind the
//!    13.4× headline: how does the speedup decay as CPUs (or codecs) get
//!    faster?
//! 3. **Render working set** — the OOM-kill boundary's sensitivity to the
//!    memory-overhead fraction on the fat node.
//! 4. **Indexer cost** — the Fig. 7a "D-ADA(all) slightly slower than
//!    D-ext4" penalty as a function of tags per label.

use crate::config::Platform;
use crate::runner::run_scenario;
use crate::scenario::Scenario;
use crate::volumes::{self, SyntheticDataset};
use ada_core::determinator::indexer_cost;
use ada_core::DispatchPolicy;
use ada_mdmodel::Tag;
use ada_simfs::LocalFs;
use ada_storagesim::SimDuration;

/// One row of the dispatch-policy ablation.
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// Policy label.
    pub policy: String,
    /// Protein-query read time, seconds.
    pub protein_read_s: f64,
    /// Full-dataset read time, seconds.
    pub all_read_s: f64,
    /// Bytes placed on the SSD backend.
    pub ssd_bytes: u64,
}

/// Dispatch-policy ablation on the §4.2 cluster at `frames` frames.
pub fn dispatch_policy_ablation(frames: u64) -> Vec<PolicyRow> {
    let policies: Vec<(&str, DispatchPolicy)> = vec![
        (
            "hybrid (p->SSD, rest->HDD)",
            DispatchPolicy::hybrid_gpcr("pvfs-ssd", "pvfs-hdd"),
        ),
        ("all-SSD", DispatchPolicy::all_to("pvfs-ssd")),
        ("all-HDD", DispatchPolicy::all_to("pvfs-hdd")),
        (
            "inverted (p->HDD, rest->SSD)",
            DispatchPolicy::new(vec![(Tag::protein(), "pvfs-hdd".into())], "pvfs-ssd"),
        ),
    ];
    policies
        .into_iter()
        .map(|(label, policy)| {
            let backends = [
                ("pvfs-ssd", LocalFs::pvfs_ssd_3nodes()),
                ("pvfs-hdd", LocalFs::pvfs_hdd_3nodes()),
            ];
            let spec = SyntheticDataset::gpcr_paper(frames);
            #[expect(clippy::expect_used, reason = "paper-figure harness over fixed synthetic inputs; a failure is a harness bug and aborting one repro run is acceptable")]
            let (stored, _) = volumes::ingest(&backends, &backends[0].1, &policy, "bar", &spec).expect("ingest");
            #[expect(clippy::expect_used, reason = "paper-figure harness over fixed synthetic inputs; a failure is a harness bug and aborting one repro run is acceptable")]
            let qp = volumes::query(&backends, &stored, Some(&Tag::protein())).expect("query p");
            #[expect(clippy::expect_used, reason = "paper-figure harness over fixed synthetic inputs; a failure is a harness bug and aborting one repro run is acceptable")]
            let qa = volumes::query(&backends, &stored, None).expect("query all");
            let on_ssd = stored.entries().values().filter(|e| e.dropping.backend == "pvfs-ssd");
            let ssd_bytes = on_ssd.map(|e| e.dropping.len).sum();
            PolicyRow {
                policy: label.to_string(),
                protein_read_s: qp.read.as_secs_f64(),
                all_read_s: qa.read.as_secs_f64(),
                ssd_bytes,
            }
        })
        .collect()
}

/// One row of the decompression-rate sensitivity sweep.
#[derive(Debug, Clone)]
pub struct DecompressRow {
    /// Decompression rate, MB/s of output.
    pub rate_mbps: f64,
    /// C-ext4 turnaround at 5,006 frames, seconds.
    pub c_ext4_s: f64,
    /// D-ADA(protein) turnaround, seconds.
    pub ada_protein_s: f64,
    /// Headline speedup.
    pub speedup: f64,
}

/// Sweep the single-thread decompression rate on the SSD server.
pub fn decompress_rate_sweep(rates_mbps: &[f64]) -> Vec<DecompressRow> {
    rates_mbps
        .iter()
        .map(|&rate| {
            let mut platform = Platform::ssd_server();
            platform.cpu.decompress_output_bps = rate * 1e6;
            let c = run_scenario(&platform, Scenario::CTraditional, 5006);
            let p = run_scenario(&platform, Scenario::AdaProtein, 5006);
            let cs = c.turnaround().as_secs_f64();
            let ps = p.turnaround().as_secs_f64();
            DecompressRow {
                rate_mbps: rate,
                c_ext4_s: cs,
                ada_protein_s: ps,
                speedup: cs / ps,
            }
        })
        .collect()
}

/// One row of the render-overhead sensitivity sweep.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Render working-set fraction.
    pub fraction: f64,
    /// First Table 6 frame count at which XFS is killed (None = survives
    /// everything the paper tried).
    pub xfs_kill_frames: Option<u64>,
    /// First kill point for ADA(protein).
    pub ada_protein_kill_frames: Option<u64>,
}

/// Sweep the render working-set fraction on the fat node.
pub fn render_overhead_sweep(fractions: &[f64]) -> Vec<OverheadRow> {
    let frames = crate::figures::fig10_frames();
    fractions
        .iter()
        .map(|&fraction| {
            let mut platform = Platform::fatnode();
            platform.render_overhead_fraction = fraction;
            let first_kill = |scenario: Scenario| -> Option<u64> {
                frames
                    .iter()
                    .find(|&&f| run_scenario(&platform, scenario, f).killed.is_some())
                    .copied()
            };
            OverheadRow {
                fraction,
                xfs_kill_frames: first_kill(Scenario::CTraditional),
                ada_protein_kill_frames: first_kill(Scenario::AdaProtein),
            }
        })
        .collect()
}

/// One row of the indexer-cost ablation.
#[derive(Debug, Clone)]
pub struct IndexerRow {
    /// Tags in the dataset's label, one dropping each.
    pub tags: usize,
    /// Indexer search time, seconds.
    pub indexer_s: f64,
    /// Relative retrieval penalty of D-ADA(all) vs a dropping-free read.
    pub penalty_pct: f64,
}

/// Indexer overhead as the label's tag count grows: the paper's label
/// holds two tags; the sweep splits the 5,006-frame dataset evenly over
/// `2n` tags of one dropping each on the SSD server and charges the
/// indexer's search of `2n` entries against reading every dropping.
pub fn indexer_cost_ablation(tag_pairs: &[usize]) -> Vec<IndexerRow> {
    let ssd = LocalFs::ext4_on_nvme();
    tag_pairs
        .iter()
        .map(|&n| {
            let tags = 2 * n;
            let per = SyntheticDataset::gpcr_paper(5006).raw_bytes() / tags as u64;
            // One backend: its reads queue up, so the read time is their sum.
            let read: SimDuration = (0..tags).map(|_| ssd.cost(per, false)).sum();
            let indexer = indexer_cost(tags);
            IndexerRow {
                tags,
                indexer_s: indexer.as_secs_f64(),
                penalty_pct: indexer.as_secs_f64() / read.as_secs_f64() * 100.0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_ablation_shape() {
        let rows = dispatch_policy_ablation(5006);
        assert_eq!(rows.len(), 4);
        let get = |name: &str| rows.iter().find(|r| r.policy.starts_with(name)).unwrap();
        let hybrid = get("hybrid");
        let all_ssd = get("all-SSD");
        let all_hdd = get("all-HDD");
        let inverted = get("inverted");
        // Protein reads: hybrid matches all-SSD (protein is on SSD either
        // way) and beats all-HDD and inverted.
        assert!((hybrid.protein_read_s - all_ssd.protein_read_s).abs() < 0.05);
        assert!(hybrid.protein_read_s < all_hdd.protein_read_s);
        assert!(hybrid.protein_read_s < inverted.protein_read_s);
        // But hybrid stores ~2.4x less on the expensive tier than all-SSD.
        assert!(all_ssd.ssd_bytes as f64 / hybrid.ssd_bytes as f64 > 2.0);
        // Full reads: all-HDD worst.
        assert!(all_hdd.all_read_s >= hybrid.all_read_s);
    }

    #[test]
    fn decompress_sweep_monotone() {
        let rows = decompress_rate_sweep(&[14.3, 28.6, 57.2, 114.4]);
        // Speedup decays as decompression gets faster, and the paper's
        // calibrated point lands at ~13.4x.
        for w in rows.windows(2) {
            assert!(w[0].speedup > w[1].speedup);
        }
        assert!((rows[1].speedup - 13.4).abs() < 1.0, "{}", rows[1].speedup);
        // Even at 4x faster decompression ADA keeps winning.
        assert!(rows[3].speedup > 3.0);
    }

    #[test]
    fn overhead_sweep_moves_kill_boundary() {
        let rows = render_overhead_sweep(&[0.0, 0.032, 0.25]);
        // With no render overhead, XFS survives until the raw data alone
        // exceeds DRAM (2,502,400 frames: 1,306 GB).
        assert_eq!(rows[0].xfs_kill_frames, Some(2_502_400));
        // Paper calibration: kill at 1,876,800.
        assert_eq!(rows[1].xfs_kill_frames, Some(1_876_800));
        // Huge overhead kills earlier.
        assert!(rows[2].xfs_kill_frames.unwrap() < 1_876_800);
        // ADA(protein) always survives at least as long as XFS.
        for r in &rows {
            assert!(r.ada_protein_kill_frames.unwrap() >= r.xfs_kill_frames.unwrap());
        }
    }

    #[test]
    fn indexer_cost_grows_with_tags() {
        let rows = indexer_cost_ablation(&[1, 64, 4096]);
        assert!(rows[0].indexer_s < rows[2].indexer_s);
        // Even at 8192 tags the penalty stays in single-digit percent
        // of an NVMe full read (the "slightly longer" observation).
        assert!(rows[2].penalty_pct < 10.0, "{}", rows[2].penalty_pct);
    }
}
