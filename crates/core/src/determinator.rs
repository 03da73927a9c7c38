//! The I/O determinator: dispatcher, indexer and retriever.
//!
//! §3.3: "Coupled with the tags and target storage path passed from the
//! data pre-processor, the I/O dispatcher sends each data subset to an
//! underlying file system"; the indexer later "uses tags from the queries
//! to look for paths of datasets on the underlying file systems and passes
//! them to the I/O retriever".

use ada_mdmodel::Tag;
use ada_plfs::{ContainerSet, IndexRecord, PlfsError};
use ada_simfs::Content;
use ada_storagesim::SimDuration;
use std::sync::Arc;

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
/// Per index record scan cost, seconds.
pub const INDEXER_PER_RECORD_S: f64 = 2.0e-6;

/// The I/O determinator over a PLFS container set.
pub struct Determinator {
    containers: Arc<ContainerSet>,
    policy: DispatchPolicy,
}

impl std::fmt::Debug for Determinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Determinator")
            .field("containers", &self.containers)
            .field("policy", &self.policy)
            .finish()
    }
}

impl Determinator {
    /// New determinator.
    pub fn new(containers: Arc<ContainerSet>, policy: DispatchPolicy) -> Determinator {
        Determinator { containers, policy }
    }

    /// The routing policy in force.
    pub fn policy(&self) -> &DispatchPolicy {
        &self.policy
    }

    /// The container set.
    pub fn containers(&self) -> &Arc<ContainerSet> {
        &self.containers
    }

    /// Dispatch one tagged subset to its policy-chosen backend, with its
    /// decoded frame count recorded in its index record (`0` = unknown),
    /// so range reads check a window straight from the index.
    pub fn dispatch(
        &self,
        logical: &str,
        tag: &Tag,
        content: Content,
        frames: u64,
    ) -> Result<(String, SimDuration), PlfsError> {
        let backend = self.policy.backend_for(tag).to_string();
        let d = self.containers.append_tagged_frames(
            logical,
            tag.as_str(),
            &backend,
            content,
            frames,
        )?;
        Ok((backend, d))
    }

    /// Indexer: resolve the records for a query and charge the search time.
    pub fn index_lookup(
        &self,
        logical: &str,
        tag: Option<&Tag>,
    ) -> Result<(Vec<IndexRecord>, SimDuration), PlfsError> {
        let all = self.containers.index(logical)?;
        let scanned = all.len();
        let records: Vec<IndexRecord> = match tag {
            Some(t) => all.into_iter().filter(|r| r.tag == t.as_str()).collect(),
            None => all,
        };
        let d = SimDuration::from_secs_f64(INDEXER_BASE_S + INDEXER_PER_RECORD_S * scanned as f64);
        Ok((records, d))
    }

    /// Retriever: fetch the (possibly tag-filtered) content.
    pub fn retrieve(
        &self,
        logical: &str,
        tag: Option<&Tag>,
    ) -> Result<(Content, SimDuration), PlfsError> {
        match tag {
            Some(t) => self.containers.read_tagged(logical, t.as_str()),
            None => self.containers.read_all(logical),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_simfs::{LocalFs, SimFileSystem};

    fn determinator() -> Determinator {
        let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
        let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
        let cs = Arc::new(ContainerSet::new(vec![
            ("ssd".into(), ssd),
            ("hdd".into(), hdd),
        ]));
        cs.create_logical("bar").unwrap();
        Determinator::new(cs, DispatchPolicy::hybrid_gpcr("ssd", "hdd"))
    }

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
    fn dispatch_routes_by_tag() {
        let det = determinator();
        let (b1, _) = det
            .dispatch("bar", &Tag::protein(), Content::synthetic(100), 0)
            .unwrap();
        let (b2, _) = det
            .dispatch("bar", &Tag::misc(), Content::synthetic(200), 0)
            .unwrap();
        assert_eq!(b1, "ssd");
        assert_eq!(b2, "hdd");
        let by_backend = det.containers().bytes_by_backend("bar").unwrap();
        assert_eq!(by_backend["ssd"], 100);
        assert_eq!(by_backend["hdd"], 200);
    }

    #[test]
    fn index_lookup_filters_and_charges() {
        let det = determinator();
        det.dispatch("bar", &Tag::protein(), Content::synthetic(10), 0)
            .unwrap();
        det.dispatch("bar", &Tag::misc(), Content::synthetic(10), 0)
            .unwrap();
        det.dispatch("bar", &Tag::protein(), Content::synthetic(10), 0)
            .unwrap();
        let (p, d) = det.index_lookup("bar", Some(&Tag::protein())).unwrap();
        assert_eq!(p.len(), 2);
        assert!(d.as_secs_f64() >= INDEXER_BASE_S);
        let (all, _) = det.index_lookup("bar", None).unwrap();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn retrieve_tagged_and_all() {
        let det = determinator();
        det.dispatch("bar", &Tag::protein(), Content::real(vec![1u8; 5]), 0)
            .unwrap();
        det.dispatch("bar", &Tag::misc(), Content::real(vec![2u8; 7]), 0)
            .unwrap();
        let (p, _) = det.retrieve("bar", Some(&Tag::protein())).unwrap();
        assert_eq!(p.len(), 5);
        let (all, _) = det.retrieve("bar", None).unwrap();
        assert_eq!(all.len(), 12);
    }
}
