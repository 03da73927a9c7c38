//! Quickstart: ingest a GPCR-like trajectory through ADA and fetch only
//! the protein subset — the `mol addfile /mnt/bar.xtc tag p` workflow.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ada_core::{IngestInput, RetrievedData};
use ada_mdformats::write_pdb;
use ada_mdformats::xtc::{write_xtc, DEFAULT_PRECISION};
use ada_mdmodel::Tag;
use ada_repro::ada_over_hybrid_storage;

fn main() {
    // 1. A synthetic GPCR-like system standing in for the CB1 dataset:
    //    ~12k atoms, 10 frames, ~42% protein by atoms.
    let workload = ada_workload::gpcr_workload(12_000, 10, 2026);
    let pdb_text = write_pdb(&workload.system);
    let xtc_bytes = write_xtc(&workload.trajectory, DEFAULT_PRECISION).unwrap();
    println!(
        "workload: {} atoms ({:.1}% protein), {} frames",
        workload.system.len(),
        workload.system.protein_fraction() * 100.0,
        workload.trajectory.len()
    );
    println!(
        "  .pdb: {} kB   .xtc (compressed): {} kB   raw: {} kB",
        pdb_text.len() / 1000,
        xtc_bytes.len() / 1000,
        workload.trajectory.nbytes() / 1000
    );

    // 2. ADA over a hybrid SSD+HDD deployment. Sending the files to
    //    storage triggers the data pre-processor: decompress, categorize
    //    (Algorithm 1), label, split, dispatch.
    let ada = ada_over_hybrid_storage();
    assert!(ada.traps("bar.xtc"), "ADA traps target-application files");
    let report = ada
        .ingest(
            "bar",
            IngestInput::Real {
                pdb_text,
                xtc_bytes,
            },
        )
        .unwrap();
    println!("\ningest (on the storage node):");
    println!("  decompressed: {} kB raw", report.raw_bytes / 1000);
    // A request's timing is its trace, in the stack's flight recorder.
    if let Some(trace) = ada.flight_recorder().recent().last() {
        println!("  took {:.1} ms (measured)", trace.duration_ns as f64 / 1e6);
    }
    for (tag, bytes) in &report.bytes_by_tag {
        println!("  stored tag '{}': {} kB", tag, bytes / 1000);
    }
    let placement = ada.containers().bytes_by_backend("bar").unwrap();
    for (backend, bytes) in &placement {
        println!("  backend '{}': {} kB", backend, bytes / 1000);
    }

    // 3. The biologist asks for the protein only.
    let q = ada.query("bar", Some(&Tag::protein())).unwrap();
    let traj = match q.data {
        RetrievedData::Real(t) => t,
        _ => unreachable!(),
    };
    println!("\nquery tag 'p':");
    println!(
        "  indexer: {:.4} s, read: {:.4} s (virtual)",
        q.indexer.as_secs_f64(),
        q.read.as_secs_f64()
    );
    println!(
        "  delivered {} frames x {} protein atoms = {} kB (vs {} kB raw)",
        traj.len(),
        traj.natoms(),
        traj.nbytes() / 1000,
        workload.trajectory.nbytes() / 1000
    );
    println!(
        "  data reduction: {:.1}x less data shipped to the compute node",
        workload.trajectory.nbytes() as f64 / traj.nbytes() as f64
    );
}
