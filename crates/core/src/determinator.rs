//! The I/O determinator's policy and cost: dispatcher, indexer and
//! retriever.
//!
//! §3.3: "Coupled with the tags and target storage path passed from the
//! data pre-processor, the I/O dispatcher sends each data subset to an
//! underlying file system"; the indexer later "uses tags from the queries
//! to look for paths of datasets on the underlying file systems and passes
//! them to the I/O retriever". The three run inside [`crate::Ada`]: the
//! dispatcher is one `ContainerSet::append` per tag to the backend this
//! module's [`DispatchPolicy`] names, the indexer a filter over the label
//! file's stored droppings charged [`indexer_cost`], and the retriever
//! `ada::retrieve`.

use ada_mdmodel::Tag;
use ada_storagesim::SimDuration;

/// Tag → backend routing policy.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchPolicy {
    rules: Vec<(Tag, String)>,
    default_backend: String,
}

impl DispatchPolicy {
    /// The paper's GPCR policy: protein (`p`, active) to the SSD backend,
    /// everything else to the HDD backend.
    pub fn hybrid_gpcr(ssd_backend: &str, hdd_backend: &str) -> DispatchPolicy {
        DispatchPolicy {
            rules: vec![(Tag::protein(), ssd_backend.to_string())],
            default_backend: hdd_backend.to_string(),
        }
    }

    /// Send every tag to one backend (ablation baseline).
    pub fn all_to(backend: &str) -> DispatchPolicy {
        DispatchPolicy {
            rules: Vec::new(),
            default_backend: backend.to_string(),
        }
    }

    /// Explicit rule list with a default.
    pub fn new(rules: Vec<(Tag, String)>, default_backend: impl Into<String>) -> DispatchPolicy {
        DispatchPolicy {
            rules,
            default_backend: default_backend.into(),
        }
    }

    /// Backend for a tag.
    pub fn backend_for(&self, tag: &Tag) -> &str {
        self.rules
            .iter()
            .find(|(t, _)| t == tag)
            .map(|(_, b)| b.as_str())
            .unwrap_or(&self.default_backend)
    }

    /// The default backend.
    pub fn default_backend(&self) -> &str {
        &self.default_backend
    }
}

/// Indexer cost model: base lookup plus a per-record scan charge. This is
/// the "slightly longer data transfer time compared with D-ext4 because ADA
/// needs to launch Indexer to search tags" visible in Fig. 7a.
pub const INDEXER_BASE_S: f64 = 4.0e-3;
/// Per stored-dropping record scan cost, seconds.
pub const INDEXER_PER_RECORD_S: f64 = 2.0e-6;

/// The indexer's charge for a search over `records` stored droppings.
pub fn indexer_cost(records: usize) -> SimDuration {
    SimDuration::from_secs_f64(INDEXER_BASE_S + INDEXER_PER_RECORD_S * records as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_routing() {
        let p = DispatchPolicy::hybrid_gpcr("ssd", "hdd");
        assert_eq!(p.backend_for(&Tag::protein()), "ssd");
        assert_eq!(p.backend_for(&Tag::misc()), "hdd");
        assert_eq!(p.backend_for(&Tag::new("w")), "hdd");
        let all = DispatchPolicy::all_to("hdd");
        assert_eq!(all.backend_for(&Tag::protein()), "hdd");
    }

    #[test]
    fn indexer_cost_is_base_plus_per_record() {
        let secs = |n| indexer_cost(n).as_secs_f64();
        assert!((secs(0) - INDEXER_BASE_S).abs() < 1e-9);
        assert!((secs(10) - secs(0) - 10.0 * INDEXER_PER_RECORD_S).abs() < 1e-9);
    }
}
