//! The full VMD workflow on the GPCR study: load a structure, load
//! trajectory data (traditional vs ADA-tagged), render the animation, and
//! replay it through the §2.1 frame cache to see why smaller frames make
//! playback smoother.
//!
//! ```text
//! cargo run --release --example gpcr_protein_view
//! ```

use ada_core::IngestInput;
use ada_mdformats::write_pdb;
use ada_mdformats::xtc::{write_xtc, DEFAULT_PRECISION};
use ada_mdmodel::Tag;
use ada_repro::ada_over_hybrid_storage;
use ada_vmdsim::{AccessPattern, FrameCache, VmdSession};

fn main() {
    let workload = ada_workload::gpcr_workload(8_000, 12, 77);
    let pdb_text = write_pdb(&workload.system);
    let xtc_bytes = write_xtc(&workload.trajectory, DEFAULT_PRECISION).unwrap();

    let ada = ada_over_hybrid_storage();
    ada.ingest(
        "cb1",
        IngestInput::Real {
            pdb_text: pdb_text.clone(),
            xtc_bytes: xtc_bytes.clone(),
        },
    )
    .unwrap();

    // --- Traditional VMD: everything decompressed on the compute node.
    let mut vmd = VmdSession::new();
    let full = vmd.mol_new(&pdb_text).unwrap();
    vmd.mol_addfile_xtc(full, &xtc_bytes).unwrap();
    let full_stats = vmd.animate(full, 4);
    let full_bytes = vmd.molecule(full).frames_bytes();
    println!(
        "traditional load: {} atoms, {} frames, {} kB resident, {} px avg",
        vmd.molecule(full).system.len(),
        full_stats.len(),
        full_bytes / 1000,
        full_stats.iter().map(|s| s.pixels_filled).sum::<usize>() / full_stats.len()
    );

    // --- ADA path: `mol addfile /mnt/cb1.xtc tag p`.
    let prot = vmd.mol_new(&pdb_text).unwrap();
    vmd.mol_addfile_ada(prot, &ada, "cb1", Some(&Tag::protein()))
        .unwrap();
    let prot_stats = vmd.animate(prot, 4);
    let prot_bytes = vmd.molecule(prot).frames_bytes();
    println!(
        "ADA tag-p load:   {} atoms, {} frames, {} kB resident, {} px avg",
        vmd.molecule(prot).system.len(),
        prot_stats.len(),
        prot_bytes / 1000,
        prot_stats.iter().map(|s| s.pixels_filled).sum::<usize>() / prot_stats.len()
    );
    println!(
        "memory for rendering reduced {:.2}x\n",
        full_bytes as f64 / prot_bytes as f64
    );

    // --- Playback: scrub back and forth with a bounded frame cache.
    let budget = full_bytes / 2; // a cache holding half the raw animation
    let frame_raw = full_bytes / 12;
    let frame_prot = prot_bytes / 12;
    let pattern = AccessPattern::BackAndForth { cycles: 4 };
    let mut raw_cache = FrameCache::new(budget, frame_raw.max(1));
    let mut prot_cache = FrameCache::new(budget, frame_prot.max(1));
    let raw_replay = raw_cache.replay(pattern, 12);
    let prot_replay = prot_cache.replay(pattern, 12);
    println!("playback (back-and-forth x4, cache = half the raw animation):");
    println!(
        "  raw frames:     hit rate {:>5.1}%  ({} misses)",
        raw_replay.hit_rate() * 100.0,
        raw_replay.misses
    );
    println!(
        "  protein frames: hit rate {:>5.1}%  ({} misses)",
        prot_replay.hit_rate() * 100.0,
        prot_replay.misses
    );
    println!("  smaller frames -> more of the animation stays cached -> fluent replay");
}
