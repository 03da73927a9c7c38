//! The oracle the correctness suites lean on: `Rig::strays`, every file on
//! the rig's backends that no listed dataset accounts for. It must list
//! nothing on a stack `Ada` alone has written to, and every file written
//! behind `Ada`'s back — at a dropping's path or at a label file's.

mod common;

use ada_core::LabelFile;
use ada_simfs::Content;
use common::Rig;

#[test]
fn strays_is_empty_on_a_fresh_stack_and_after_ingest_then_delete() {
    let rig = Rig::paper();
    assert_eq!(rig.strays(), Vec::<String>::new(), "fresh");
    let w = ada_workload::gpcr_workload(300, 3, 5);
    rig.ada().ingest("d", common::input(&w)).unwrap();
    // The label file and both droppings are the dataset's.
    assert_eq!(rig.ssd.list("").len() + rig.hdd.list("").len(), 3);
    assert_eq!(rig.strays(), Vec::<String>::new(), "after ingest");
    rig.ada().delete_dataset("d").unwrap();
    assert_eq!(rig.strays(), Vec::<String>::new(), "after delete");
}

#[test]
fn strays_lists_files_written_behind_adas_back() {
    let rig = Rig::paper();
    let w = ada_workload::gpcr_workload(300, 3, 5);
    rig.ada().ingest("d", common::input(&w)).unwrap();
    let junk = || Content::real(vec![7u8; 16]);
    // A dropping of a tag the listed dataset's label does not name, a
    // dropping of a dataset nobody ingested, and a label file of one.
    let dropping = "ssd/d/hostdir.0/dropping.data.x";
    let ghost = "hdd/ghost/hostdir.0/dropping.data.m";
    let label = LabelFile::path_for("ghost");
    rig.ssd.create(dropping, junk()).unwrap();
    rig.hdd.create(ghost, junk()).unwrap();
    rig.ssd.create(&label, junk()).unwrap();
    let mut strays = rig.strays();
    strays.sort();
    let mut written = vec![dropping.to_string(), ghost.to_string(), label];
    written.sort();
    assert_eq!(strays, written);
}
