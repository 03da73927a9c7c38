//! Access heat — an extension beyond the paper's prototype.
//!
//! The paper's placement is static: the GPCR study marks protein active at
//! ingest and that's that. But "active" is a property of the *study*, not
//! the data — a solvation analysis hammers the water subset. ADA counts
//! tag accesses, and the decoded-dropping cache admits by that heat.

use ada_mdmodel::Tag;
use std::collections::BTreeMap;

/// Per-tag access counters for one dataset, as
/// [`Ada::access_counts`](crate::ada::Ada::access_counts)
/// copies them out; a tag never queried is absent.
pub type AccessCounts = BTreeMap<Tag, u64>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ada::{Ada, AdaConfig, IngestInput};
    use ada_plfs::ContainerSet;
    use ada_simfs::{LocalFs, SimFileSystem};
    use std::sync::Arc;

    fn rig() -> Ada {
        let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
        let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
        let cs = Arc::new(ContainerSet::new(vec![
            ("ssd".into(), ssd.clone()),
            ("hdd".into(), hdd),
        ]));
        let ada = Ada::new(AdaConfig::paper_prototype("ssd", "hdd"), cs, ssd);
        let w = ada_workload::gpcr_workload(1500, 2, 21);
        ada.ingest(
            "bar",
            IngestInput::Real {
                pdb_text: ada_mdformats::write_pdb(&w.system),
                xtc_bytes: ada_mdformats::xtc::write_xtc(
                    &w.trajectory,
                    ada_mdformats::xtc::DEFAULT_PRECISION,
                )
                .unwrap(),
            },
        )
        .unwrap();
        ada
    }

    #[test]
    fn access_counts_track_queries() {
        let ada = rig();
        assert!(ada.access_counts("bar").is_empty());
        ada.query("bar", Some(&Tag::protein())).unwrap();
        ada.query("bar", Some(&Tag::protein())).unwrap();
        ada.query("bar", Some(&Tag::misc())).unwrap();
        let counts = ada.access_counts("bar");
        assert_eq!(counts[&Tag::protein()], 2);
        assert_eq!(counts[&Tag::misc()], 1);
        // Untagged queries count every tag.
        ada.query("bar", None).unwrap();
        let counts = ada.access_counts("bar");
        assert_eq!(counts[&Tag::protein()], 3);
        assert_eq!(counts[&Tag::misc()], 2);
    }

    #[test]
    fn access_counts_are_a_point_in_time_copy() {
        let ada = rig();
        assert!(!ada.access_counts("bar").contains_key(&Tag::misc()));
        for _ in 0..3 {
            ada.query("bar", Some(&Tag::misc())).unwrap();
        }
        ada.query("bar", Some(&Tag::protein())).unwrap();
        let heat = ada.access_counts("bar");
        assert_eq!(heat[&Tag::misc()], 3);
        assert_eq!(heat[&Tag::protein()], 1);
        // A copy: later queries don't mutate it.
        ada.query("bar", Some(&Tag::misc())).unwrap();
        assert_eq!(heat[&Tag::misc()], 3);
        // Unknown datasets read as cold, not as an error.
        assert!(ada.access_counts("nope").is_empty());
    }
}
