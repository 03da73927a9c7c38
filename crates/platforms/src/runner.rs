//! Execute one scenario at one frame count, end to end.
//!
//! The runner assembles the real middleware stack (simulated file systems →
//! PLFS containers → ADA) for the chosen platform, seeds it with a
//! paper-calibrated synthetic dataset, and then plays the VMD workflow of
//! Fig. 2: retrieve → (decompress) → (locate active data) → render. It
//! returns the paper's metrics: raw-data retrieval time, data-processing
//! turnaround time, peak memory, OOM kills, and energy.
//!
//! Phase semantics (documented deviations in EXPERIMENTS.md):
//!
//! * `C-*`: read compressed; decompress (single-thread); scan raw to locate
//!   the active subset; render the active (protein) data.
//! * `D-*`: read the pre-decompressed raw file; scan; render.
//! * `ADA (all)`: ADA delivers every decompressed subset (both backends in
//!   parallel) + indexer; the compute node still scans to locate the
//!   active subset; render.
//! * `ADA (protein)`: ADA delivers only the protein subset + indexer;
//!   render immediately — no pre-processing at all.

use crate::config::{Platform, PlatformKind, STREAM_BUFFER_BYTES};
use crate::scenario::Scenario;
use ada_core::{Ada, AdaConfig, DispatchPolicy, IngestInput, SyntheticDataset};
use ada_mdmodel::Tag;
use ada_plfs::ContainerSet;
use ada_simfs::{Content, LocalFs, SimFileSystem, StripedFs};
use ada_storagesim::{CpuWork, MemoryTracker, SimDuration};
use std::sync::Arc;

/// Where an OOM kill struck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// While loading frames into memory (the dataset alone exceeds DRAM).
    DuringLoad,
    /// While building render geometry ("killed ... when VMD is trying to
    /// render", §4.3).
    DuringRender,
}

/// Metrics of one run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Scenario executed.
    pub scenario: Scenario,
    /// Paper-style label (e.g. `D-ADA (protein)`).
    pub label: String,
    /// Frame count.
    pub frames: u64,
    /// Raw-data retrieval time (storage → memory).
    pub retrieval: SimDuration,
    /// ADA indexer tag-search time (zero for traditional scenarios).
    pub indexer: SimDuration,
    /// Compute-node decompression time.
    pub decompress: SimDuration,
    /// Active-data location (scan/filter) time.
    pub scan: SimDuration,
    /// Rendering time (possibly truncated by an OOM kill).
    pub render: SimDuration,
    /// OOM kill, if the run died.
    pub killed: Option<KillPoint>,
    /// Peak resident memory in bytes.
    pub mem_peak_bytes: u64,
    /// Energy over the run in kilojoules.
    pub energy_kj: f64,
    /// Bytes delivered from storage to the compute node.
    pub delivered_bytes: u64,
}

impl RunMetrics {
    /// Data-processing turnaround time (§2.1): retrieval through rendering.
    pub fn turnaround(&self) -> SimDuration {
        self.retrieval + self.indexer + self.decompress + self.scan + self.render
    }

    /// Pre-processing share of turnaround (Fig. 8's numerator is the
    /// decompression part of this).
    pub fn preprocess(&self) -> SimDuration {
        self.decompress + self.scan
    }
}

struct Stack {
    /// Plain file system holding `bar.xtc` (compressed) and `bar.raw`.
    plain: Arc<dyn SimFileSystem>,
    /// ADA over its backends.
    ada: Ada,
}

fn build_stack(platform: &Platform) -> Stack {
    match platform.kind {
        PlatformKind::SsdServer => {
            let plain: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
            // One ext4 namespace over the NVMe storage: Fig. 7a shows
            // D-ADA(all) ≈ D-ext4 (+ indexer), i.e. the two subsets are
            // read through the same device path, not two drives in
            // parallel.
            let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
            let cs = Arc::new(ContainerSet::new(vec![("ssd".into(), ssd.clone())]));
            let cfg = AdaConfig {
                policy: DispatchPolicy::all_to("ssd"),
                ..AdaConfig::paper_prototype("ssd", "ssd")
            };
            Stack {
                plain,
                ada: Ada::new(cfg, cs, ssd),
            }
        }
        PlatformKind::Cluster9 => {
            let plain: Arc<dyn SimFileSystem> = Arc::new(StripedFs::pvfs_hdd_3nodes());
            let ssd: Arc<dyn SimFileSystem> = Arc::new(StripedFs::pvfs_ssd_3nodes());
            let hdd: Arc<dyn SimFileSystem> = Arc::new(StripedFs::pvfs_hdd_3nodes());
            let cs = Arc::new(ContainerSet::new(vec![
                ("pvfs-ssd".into(), ssd.clone()),
                ("pvfs-hdd".into(), hdd),
            ]));
            let cfg = AdaConfig {
                policy: DispatchPolicy::hybrid_gpcr("pvfs-ssd", "pvfs-hdd"),
                ..AdaConfig::paper_prototype("pvfs-ssd", "pvfs-hdd")
            };
            Stack {
                plain,
                ada: Ada::new(cfg, cs, ssd),
            }
        }
        PlatformKind::FatNode => {
            let plain: Arc<dyn SimFileSystem> = Arc::new(LocalFs::xfs_on_raid50());
            // The fat node has a single array: ADA's split is logical only.
            let raid: Arc<dyn SimFileSystem> = Arc::new(LocalFs::xfs_on_raid50());
            let cs = Arc::new(ContainerSet::new(vec![("raid".into(), raid.clone())]));
            let cfg = AdaConfig {
                policy: DispatchPolicy::all_to("raid"),
                ..AdaConfig::paper_prototype("raid", "raid")
            };
            Stack {
                plain,
                ada: Ada::new(cfg, cs, raid),
            }
        }
    }
}

/// Run `scenario` on `platform` for a paper-calibrated dataset of `frames`
/// frames.
pub fn run_scenario(platform: &Platform, scenario: Scenario, frames: u64) -> RunMetrics {
    let spec = SyntheticDataset::gpcr_paper(frames);
    let raw_bytes = spec.raw_bytes();
    let protein_bytes = spec.tag_bytes(&Tag::protein());
    let stack = build_stack(platform);
    let cpu = &platform.cpu;

    // Seed storage. Ingest-time pre-processing is deliberately outside the
    // measured window: the paper measures read→render turnaround; ADA pays
    // its costs "when the .pdb and .xtc files are sent to ADA for permanent
    // storage" (§3.4).
    let mut indexer = SimDuration::ZERO;
    let (mut retrieval, delivered_bytes) = match scenario {
        Scenario::CTraditional => {
            #[expect(
                clippy::expect_used,
                reason = "paper-figure harness over fixed synthetic inputs; a failure is a harness bug and aborting one repro run is acceptable"
            )]
            stack
                .plain
                .create("bar.xtc", Content::synthetic(spec.compressed_bytes))
                .expect("seed compressed");
            #[expect(
                clippy::expect_used,
                reason = "paper-figure harness over fixed synthetic inputs; a failure is a harness bug and aborting one repro run is acceptable"
            )]
            let (_, d) = stack.plain.read("bar.xtc").expect("read compressed");
            (d, spec.compressed_bytes)
        }
        Scenario::DTraditional => {
            #[expect(
                clippy::expect_used,
                reason = "paper-figure harness over fixed synthetic inputs; a failure is a harness bug and aborting one repro run is acceptable"
            )]
            stack
                .plain
                .create("bar.raw", Content::synthetic(raw_bytes))
                .expect("seed raw");
            #[expect(
                clippy::expect_used,
                reason = "paper-figure harness over fixed synthetic inputs; a failure is a harness bug and aborting one repro run is acceptable"
            )]
            let (_, d) = stack.plain.read("bar.raw").expect("read raw");
            (d, raw_bytes)
        }
        Scenario::AdaAll | Scenario::AdaProtein => {
            #[expect(
                clippy::expect_used,
                reason = "paper-figure harness over fixed synthetic inputs; a failure is a harness bug and aborting one repro run is acceptable"
            )]
            stack
                .ada
                .ingest("bar", IngestInput::Synthetic(spec.clone()))
                .expect("ingest");
            let tag = if scenario == Scenario::AdaProtein {
                Some(Tag::protein())
            } else {
                None
            };
            #[expect(
                clippy::expect_used,
                reason = "paper-figure harness over fixed synthetic inputs; a failure is a harness bug and aborting one repro run is acceptable"
            )]
            let q = stack.ada.query("bar", tag.as_ref()).expect("query");
            indexer = q.indexer;
            (q.read, q.data.bytes())
        }
    };

    // Compute-node CPU phases.
    let mut decompress = SimDuration::ZERO;
    let mut scan = SimDuration::ZERO;
    if scenario.decompresses_on_compute() {
        decompress = CpuWork::Decompress {
            out_bytes: raw_bytes,
        }
        .duration(cpu);
    }
    if scenario != Scenario::AdaProtein {
        // Locate the active data within the raw frames.
        scan = CpuWork::Scan { bytes: raw_bytes }.duration(cpu);
    }
    let mut render = CpuWork::Render {
        bytes: protein_bytes,
    }
    .duration(cpu);

    // Memory accounting + OOM kills.
    let frames_bytes = if scenario == Scenario::AdaProtein {
        protein_bytes
    } else {
        raw_bytes
    };
    let overhead_bytes = (frames_bytes as f64 * platform.render_overhead_fraction) as u64;
    let mut mem = MemoryTracker::new(platform.memory_bytes);
    let mut killed = None;
    if scenario == Scenario::CTraditional {
        #[expect(
            clippy::expect_used,
            reason = "allocation is clamped to the memory budget by min() above"
        )]
        mem.alloc(
            "stream-buffer",
            STREAM_BUFFER_BYTES.min(spec.compressed_bytes),
        )
        .expect("stream buffer always fits");
    }
    match mem.alloc("frames", frames_bytes) {
        Ok(()) => {
            mem.free_all("stream-buffer");
            if mem.alloc("render-geometry", overhead_bytes).is_err() {
                killed = Some(KillPoint::DuringRender);
                // Render proceeds until the working set no longer fits.
                let available = platform.memory_bytes - mem.in_use();
                let fraction = if overhead_bytes == 0 {
                    0.0
                } else {
                    available as f64 / overhead_bytes as f64
                };
                mem.alloc("render-geometry", available).ok();
                render = SimDuration::from_secs_f64(render.as_secs_f64() * fraction);
            }
        }
        Err(_) => {
            killed = Some(KillPoint::DuringLoad);
            // Load dies part-way: scale the data-dependent phases.
            let available = platform.memory_bytes - mem.in_use();
            let fraction = available as f64 / frames_bytes as f64;
            mem.alloc("frames", available).ok();
            retrieval = SimDuration::from_secs_f64(retrieval.as_secs_f64() * fraction);
            decompress = SimDuration::from_secs_f64(decompress.as_secs_f64() * fraction);
            scan = SimDuration::from_secs_f64(scan.as_secs_f64() * fraction);
            render = SimDuration::ZERO;
        }
    }

    // Energy: base + CPU-state power + storage-state power per phase.
    let idle_cores = 0usize;
    let one_core = 1usize;
    let phases: [(SimDuration, usize, bool); 5] = [
        (retrieval, idle_cores, true),
        (indexer, one_core, true),
        (decompress, one_core, false),
        (scan, one_core, false),
        (render, cpu.cores, false),
    ];
    let mut joules = 0.0;
    for (d, cores, storage_active) in phases {
        let storage = if storage_active {
            platform.storage_active_w
        } else {
            platform.storage_idle_w
        };
        joules += d.as_secs_f64() * (platform.base_power_w + cpu.power_w(cores) + storage);
    }

    RunMetrics {
        scenario,
        label: scenario.label(&platform.base_fs),
        frames,
        retrieval,
        indexer,
        decompress,
        scan,
        render,
        killed,
        mem_peak_bytes: mem.peak(),
        energy_kj: joules / 1e3,
        delivered_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: f64 = 1e6;

    #[test]
    fn fig7b_headline_speedup() {
        // D-ADA(protein) vs C-ext4 at 5,006 frames: the paper's 13.4x.
        let p = Platform::ssd_server();
        let c = run_scenario(&p, Scenario::CTraditional, 5006);
        let a = run_scenario(&p, Scenario::AdaProtein, 5006);
        let ratio = c.turnaround().as_secs_f64() / a.turnaround().as_secs_f64();
        assert!(ratio > 11.0 && ratio < 16.0, "speedup {}", ratio);
        assert!(c.killed.is_none() && a.killed.is_none());
    }

    #[test]
    fn fig7a_retrieval_ordering() {
        // C-ext4 fastest (least bytes); D-ADA(all) ≈ D-ext4 but slightly
        // slower (indexer); D-ADA(protein) between C and D.
        let p = Platform::ssd_server();
        let c = run_scenario(&p, Scenario::CTraditional, 5006);
        let d = run_scenario(&p, Scenario::DTraditional, 5006);
        let all = run_scenario(&p, Scenario::AdaAll, 5006);
        let prot = run_scenario(&p, Scenario::AdaProtein, 5006);
        assert!(c.retrieval < prot.retrieval);
        assert!(prot.retrieval < d.retrieval);
        let d_t = d.retrieval.as_secs_f64();
        let all_t = (all.retrieval + all.indexer).as_secs_f64();
        assert!(
            all_t > d_t,
            "ADA(all) {} should exceed D-ext4 {}",
            all_t,
            d_t
        );
        assert!(all_t < d_t * 1.2, "but only slightly: {} vs {}", all_t, d_t);
    }

    #[test]
    fn fig7c_memory_ratio() {
        // ext4 uses ~2.3-2.5x the memory of ADA(protein) at 5,006 frames.
        let p = Platform::ssd_server();
        let c = run_scenario(&p, Scenario::CTraditional, 5006);
        let prot = run_scenario(&p, Scenario::AdaProtein, 5006);
        let ratio = c.mem_peak_bytes as f64 / prot.mem_peak_bytes as f64;
        assert!(ratio > 2.0 && ratio < 2.6, "memory ratio {}", ratio);
    }

    #[test]
    fn fig8_decompression_dominates() {
        let p = Platform::ssd_server();
        let c = run_scenario(&p, Scenario::CTraditional, 5006);
        let cpu_total = c.preprocess() + c.render;
        let share = c.decompress.as_secs_f64() / cpu_total.as_secs_f64();
        assert!(share > 0.5, "decompression share {}", share);
    }

    #[test]
    fn fig9a_cluster_retrieval_shape() {
        let p = Platform::cluster9();
        let frames = 6256;
        let c = run_scenario(&p, Scenario::CTraditional, frames);
        let d = run_scenario(&p, Scenario::DTraditional, frames);
        let all = run_scenario(&p, Scenario::AdaAll, frames);
        let prot = run_scenario(&p, Scenario::AdaProtein, frames);
        // ADA scenarios sit between the best (C) and worst (D) cases.
        assert!(c.retrieval < prot.retrieval && prot.retrieval < d.retrieval);
        assert!(all.retrieval < d.retrieval && all.retrieval > c.retrieval);
        // D-ADA(all) beats D-PVFS by ~1.7x (paper: "more than 2x").
        let r = d.retrieval.as_secs_f64() / all.retrieval.as_secs_f64();
        assert!(r > 1.5 && r < 2.5, "ratio {}", r);
    }

    #[test]
    fn fig9b_cluster_turnaround_shape() {
        let p = Platform::cluster9();
        let frames = 6256;
        let c = run_scenario(&p, Scenario::CTraditional, frames);
        let d = run_scenario(&p, Scenario::DTraditional, frames);
        let all = run_scenario(&p, Scenario::AdaAll, frames);
        let prot = run_scenario(&p, Scenario::AdaProtein, frames);
        // C-PVFS is the worst by far (decompression); ADA(protein) best.
        let ct = c.turnaround().as_secs_f64();
        let dt = d.turnaround().as_secs_f64();
        let at = all.turnaround().as_secs_f64();
        let pt = prot.turnaround().as_secs_f64();
        assert!(ct > 4.0 * dt, "C-PVFS {} vs D-PVFS {}", ct, dt);
        assert!(dt > at && at > pt, "ordering {} > {} > {}", dt, at, pt);
        // The paper reports a 9x D-PVFS vs D-ADA(protein) gap at 6,256
        // frames; our calibration reproduces the ordering with a ~2x gap
        // (documented deviation in EXPERIMENTS.md).
        assert!(dt / pt > 1.5, "gap {}", dt / pt);
    }

    #[test]
    fn fig10_kill_points_match_paper() {
        let p = Platform::fatnode();
        // XFS and ADA(all) die at 1,876,800 frames but not 1,564,000.
        for scenario in [Scenario::CTraditional, Scenario::AdaAll] {
            let ok = run_scenario(&p, scenario, 1_564_000);
            assert!(ok.killed.is_none(), "{:?} at 1.56M should live", scenario);
            let dead = run_scenario(&p, scenario, 1_876_800);
            assert_eq!(
                dead.killed,
                Some(KillPoint::DuringRender),
                "{:?} at 1.88M should die rendering",
                scenario
            );
        }
        // ADA(protein) survives 4,379,200 and dies at 5,004,800.
        let ok = run_scenario(&p, Scenario::AdaProtein, 4_379_200);
        assert!(ok.killed.is_none());
        let dead = run_scenario(&p, Scenario::AdaProtein, 5_004_800);
        assert!(dead.killed.is_some());
    }

    #[test]
    fn fig10d_energy_ordering() {
        let p = Platform::fatnode();
        let frames = 1_876_800;
        let xfs = run_scenario(&p, Scenario::CTraditional, frames);
        let all = run_scenario(&p, Scenario::AdaAll, frames);
        let prot = run_scenario(&p, Scenario::AdaProtein, frames);
        // Paper: XFS > 12,500 kJ; ADA(all) < 5,000; ADA(protein) ≈ 2,200.
        assert!(
            xfs.energy_kj > 3.0 * all.energy_kj,
            "xfs {} vs all {}",
            xfs.energy_kj,
            all.energy_kj
        );
        assert!(
            all.energy_kj > prot.energy_kj,
            "all {} vs protein {}",
            all.energy_kj,
            prot.energy_kj
        );
        assert!(
            xfs.energy_kj > 10_000.0 && xfs.energy_kj < 25_000.0,
            "xfs {}",
            xfs.energy_kj
        );
        assert!(
            prot.energy_kj > 800.0 && prot.energy_kj < 4_000.0,
            "protein {}",
            prot.energy_kj
        );
    }

    #[test]
    fn fig10b_400_minute_anchor() {
        // Paper: ~400 minutes to retrieve and render 1,564,000 frames on
        // XFS, with retrieval < 10% of the turnaround.
        let p = Platform::fatnode();
        let m = run_scenario(&p, Scenario::CTraditional, 1_564_000);
        let minutes = m.turnaround().as_secs_f64() / 60.0;
        assert!(minutes > 300.0 && minutes < 700.0, "{} minutes", minutes);
        let frac = m.retrieval.as_secs_f64() / m.turnaround().as_secs_f64();
        assert!(frac < 0.10, "retrieval fraction {}", frac);
    }

    #[test]
    fn delivered_bytes_match_table2() {
        let p = Platform::ssd_server();
        let c = run_scenario(&p, Scenario::CTraditional, 626);
        let prot = run_scenario(&p, Scenario::AdaProtein, 626);
        let d = run_scenario(&p, Scenario::DTraditional, 626);
        assert!((c.delivered_bytes as f64 / MB - 100.0).abs() < 2.0);
        assert!((prot.delivered_bytes as f64 / MB - 139.0).abs() < 3.0);
        assert!((d.delivered_bytes as f64 / MB - 327.0).abs() < 7.0);
    }
}
