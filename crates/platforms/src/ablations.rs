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
//!    D-ext4" penalty as a function of droppings per dataset.

use crate::config::Platform;
use crate::runner::run_scenario;
use crate::scenario::Scenario;
use ada_core::{Ada, AdaConfig, DispatchPolicy, IngestInput, SyntheticDataset};
use ada_mdmodel::Tag;
use ada_plfs::ContainerSet;
use ada_simfs::{SimFileSystem, StripedFs};
use std::sync::Arc;

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
            let ssd: Arc<dyn SimFileSystem> = Arc::new(StripedFs::pvfs_ssd_3nodes());
            let hdd: Arc<dyn SimFileSystem> = Arc::new(StripedFs::pvfs_hdd_3nodes());
            let cs = Arc::new(ContainerSet::new(vec![
                ("pvfs-ssd".into(), ssd.clone()),
                ("pvfs-hdd".into(), hdd),
            ]));
            let cfg = AdaConfig {
                policy,
                ..AdaConfig::paper_prototype("pvfs-ssd", "pvfs-hdd")
            };
            let ada = Ada::new(cfg, cs, ssd);
            #[expect(clippy::expect_used, reason = "paper-figure harness over fixed synthetic inputs; a failure is a harness bug and aborting one repro run is acceptable")]
            ada.ingest(
                "bar",
                IngestInput::Synthetic(SyntheticDataset::gpcr_paper(frames)),
            )
            .expect("ingest");
            #[expect(clippy::expect_used, reason = "paper-figure harness over fixed synthetic inputs; a failure is a harness bug and aborting one repro run is acceptable")]
            let qp = ada.query("bar", Some(&Tag::protein())).expect("query p");
            #[expect(clippy::expect_used, reason = "paper-figure harness over fixed synthetic inputs; a failure is a harness bug and aborting one repro run is acceptable")]
            let qa = ada.query("bar", None).expect("query all");
            #[expect(clippy::expect_used, reason = "paper-figure harness over fixed synthetic inputs; a failure is a harness bug and aborting one repro run is acceptable")]
            let ssd_bytes = ada
                .containers()
                .bytes_by_backend("bar")
                .expect("placement")
                .get("pvfs-ssd")
                .copied()
                .unwrap_or(0);
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
    /// Droppings in the dataset's container.
    pub droppings: usize,
    /// Indexer search time, seconds.
    pub indexer_s: f64,
    /// Relative retrieval penalty of D-ADA(all) vs a dropping-free read.
    pub penalty_pct: f64,
}

/// Indexer overhead as the container's dropping count grows (one dropping
/// per tag per chunk; the paper stores whole subsets, we sweep chunking).
pub fn indexer_cost_ablation(dropping_counts: &[usize]) -> Vec<IndexerRow> {
    use ada_simfs::Content;
    dropping_counts
        .iter()
        .map(|&n| {
            let ssd: Arc<dyn SimFileSystem> = Arc::new(ada_simfs::LocalFs::ext4_on_nvme());
            let cs = Arc::new(ContainerSet::new(vec![("ssd".into(), ssd.clone())]));
            let cfg = AdaConfig {
                policy: DispatchPolicy::all_to("ssd"),
                ..AdaConfig::paper_prototype("ssd", "ssd")
            };
            let ada = Ada::new(cfg, cs, ssd);
            // Hand-build a container with n droppings per tag.
            #[expect(clippy::unwrap_used, reason = "paper-figure harness over fixed synthetic inputs; a failure is a harness bug and aborting one repro run is acceptable")]
            ada.containers().create_logical("bar").unwrap();
            let spec = SyntheticDataset::gpcr_paper(5006);
            let per = spec.raw_bytes() / (2 * n as u64);
            for tag in ["p", "m"] {
                for _ in 0..n {
                    #[expect(clippy::unwrap_used, reason = "paper-figure harness over fixed synthetic inputs; a failure is a harness bug and aborting one repro run is acceptable")]
                    ada.containers()
                        .append_tagged("bar", tag, "ssd", Content::synthetic(per))
                        .unwrap();
                }
            }
            // Indexer + read through the determinator layer.
            let det = ada_core::Determinator::new(
                ada.containers().clone(),
                DispatchPolicy::all_to("ssd"),
            );
            #[expect(clippy::unwrap_used, reason = "paper-figure harness over fixed synthetic inputs; a failure is a harness bug and aborting one repro run is acceptable")]
            let (_, indexer) = det.index_lookup("bar", None).unwrap();
            #[expect(clippy::unwrap_used, reason = "paper-figure harness over fixed synthetic inputs; a failure is a harness bug and aborting one repro run is acceptable")]
            let (_, read) = det.retrieve("bar", None).unwrap();
            IndexerRow {
                droppings: 2 * n,
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
    fn indexer_cost_grows_with_droppings() {
        let rows = indexer_cost_ablation(&[1, 64, 4096]);
        assert!(rows[0].indexer_s < rows[2].indexer_s);
        // Even at 8192 droppings the penalty stays in single-digit percent
        // of an NVMe full read (the "slightly longer" observation).
        assert!(rows[2].penalty_pct < 10.0, "{}", rows[2].penalty_pct);
    }
}
