//! I/O-level verification of the paper's central claim: a tagged protein
//! query must never touch the HDD backend, and the byte volumes moved must
//! equal the label's subset sizes. The container set counts every
//! dropping read and write per backend
//! (`plfs.{backend}.{read,write}.{ops,bytes}`); the tests read those
//! counts around each operation.

mod common;

use ada_core::Ada;
use ada_mdmodel::Tag;
use ada_telemetry::Snapshot;
use common::Rig;
use std::collections::BTreeMap;
use std::sync::Arc;

/// `Ada` over the rig's SSD (which also holds the label files) and HDD,
/// with `w` ingested as `bar`.
fn ingested(w: &ada_workload::Workload) -> (Arc<Ada>, ada_core::IngestReport) {
    let rig = Rig::paper();
    let report = rig.ada().ingest("bar", common::input(w)).unwrap();
    (Arc::clone(rig.ada()), report)
}

/// The container set's dropping traffic so far, by metric name.
fn io(ada: &Ada) -> BTreeMap<String, u64> {
    let mut snap = Snapshot::default();
    ada.containers().write_metrics(&mut snap);
    snap.counters
}

/// How much `name` grew from `before` to `after` (an absent counter has
/// counted nothing).
fn grew(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, name: &str) -> u64 {
    let at = |m: &BTreeMap<String, u64>| m.get(name).copied().unwrap_or(0);
    at(after) - at(before)
}

#[test]
fn protein_query_never_reads_the_hdd() {
    let (ada, _) = ingested(&ada_workload::gpcr_workload(2500, 3, 777));
    let before = io(&ada);
    ada.query("bar", Some(&Tag::protein())).unwrap();
    let after = io(&ada);

    // Not a single read hit the HDD backend.
    assert_eq!(grew(&before, &after, "plfs.hdd.read.ops"), 0, "{after:?}");
    assert_eq!(grew(&before, &after, "plfs.hdd.read.bytes"), 0);
    // The SSD served exactly the protein dropping, once.
    let label = ada.label("bar").unwrap();
    let protein = &label.entry(&Tag::protein()).unwrap().dropping;
    assert_eq!(grew(&before, &after, "plfs.ssd.read.ops"), 1);
    let ssd_reads = grew(&before, &after, "plfs.ssd.read.bytes");
    assert_eq!(ssd_reads, protein.len);
    // XTCF framing adds headers; reads must be >= payload and < +5%.
    let expected = label.atoms_of(&Tag::protein()) as u64 * 12 * 3;
    assert!(
        ssd_reads >= expected && ssd_reads < expected * 105 / 100,
        "ssd read {} vs expected ~{}",
        ssd_reads,
        expected
    );
}

#[test]
fn misc_query_never_reads_the_ssd_droppings() {
    let (ada, _) = ingested(&ada_workload::gpcr_workload(2000, 2, 778));
    let before = io(&ada);
    ada.query("bar", Some(&Tag::misc())).unwrap();
    let after = io(&ada);
    assert_eq!(grew(&before, &after, "plfs.ssd.read.ops"), 0, "{after:?}");
    assert_eq!(grew(&before, &after, "plfs.hdd.read.ops"), 1);
}

#[test]
fn ingest_write_volume_matches_raw_plus_framing() {
    let (ada, report) = ingested(&ada_workload::gpcr_workload(1500, 4, 779));
    let io = io(&ada);
    let written = io["plfs.ssd.write.bytes"] + io["plfs.hdd.write.bytes"];
    // Everything decompressed got written once, plus the XTCF framing.
    assert!(written >= report.raw_bytes);
    assert!(written < report.raw_bytes * 102 / 100 + 100_000);
    assert_eq!((io["plfs.ssd.write.ops"], io["plfs.hdd.write.ops"]), (1, 1));
}
