//! Access heat — an extension beyond the paper's prototype.
//!
//! The paper's placement is static: the GPCR study marks protein active at
//! ingest and that's that. But "active" is a property of the *study*, not
//! the data — a solvation analysis hammers the water subset. ADA counts
//! tag accesses, and the decoded-dropping cache admits by that heat.

use crate::ada::Ada;
use ada_mdmodel::Tag;
use std::collections::BTreeMap;

/// Per-tag access counters for one dataset.
pub type AccessCounts = BTreeMap<Tag, u64>;

/// A read-only view of one dataset's per-tag access heat, taken at a
/// point in time. Cache admission consumes this instead of reaching into
/// [`Ada`]'s counter internals, so "how hot is this tag" has one answer
/// everywhere.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeatSnapshot {
    counts: AccessCounts,
}

impl HeatSnapshot {
    /// Access count of `tag` (0 when never queried).
    pub fn heat(&self, tag: &Tag) -> u64 {
        self.counts.get(tag).copied().unwrap_or(0)
    }
}

/// Snapshot the per-tag access heat of `dataset`. Cheap (one clone of the
/// dataset's counter map under the access lock) and read-only — the
/// canonical input for cache admission.
pub fn heat_snapshot(ada: &Ada, dataset: &str) -> HeatSnapshot {
    HeatSnapshot {
        counts: ada.access_counts(dataset),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ada::{AdaConfig, IngestInput};
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
    fn heat_snapshot_reads_per_tag_heat_and_is_read_only() {
        let ada = rig();
        assert_eq!(heat_snapshot(&ada, "bar").heat(&Tag::misc()), 0);
        for _ in 0..3 {
            ada.query("bar", Some(&Tag::misc())).unwrap();
        }
        ada.query("bar", Some(&Tag::protein())).unwrap();
        let heat = heat_snapshot(&ada, "bar");
        assert_eq!(heat.heat(&Tag::misc()), 3);
        assert_eq!(heat.heat(&Tag::protein()), 1);
        // A snapshot is a point-in-time copy: later queries don't mutate it.
        ada.query("bar", Some(&Tag::misc())).unwrap();
        assert_eq!(heat.heat(&Tag::misc()), 3);
        // Unknown datasets read as cold, not as an error.
        assert_eq!(heat_snapshot(&ada, "nope").heat(&Tag::protein()), 0);
    }
}
