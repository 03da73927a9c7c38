//! The volume model: ADA's ingest and query over per-tag byte counts.
//!
//! Figs. 7–10 are functions of volumes and placement (DESIGN.md §2), so
//! the figures store no frames: a [`SyntheticDataset`] is a frame count,
//! an atom count and each tag's atom share. [`ingest`] stores it through
//! the calls `Ada` makes on real bytes, in the same order — the dispatch
//! policy picks each tag's backend, `ContainerSet::append` stores one
//! dropping of the tag's volume, `LabelFile::new` pairs the tags with
//! their droppings and `LabelFile::store` writes the label — and prices
//! the storage node's CPU work on the paper prototype's Xeon. [`query`]
//! reads the droppings back as `Ada::query` does and charges the indexer.
//! Within a backend costs add up; the backends run at once, so the
//! slowest one bounds a dispatch or a read.

use ada_core::determinator::indexer_cost;
use ada_core::{AdaError, DispatchPolicy, LabelFile};
use ada_mdmodel::{IndexRanges, Tag};
use ada_plfs::ContainerSet;
use ada_simfs::{Content, SimFileSystem};
use ada_storagesim::{CpuProfile, CpuWork, SimDuration};
use std::collections::BTreeMap;

/// Metadata of a trajectory dataset known by its volumes alone.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticDataset {
    /// Frame count.
    pub frames: u64,
    /// Atoms per frame.
    pub natoms: u64,
    /// Compressed (.xtc) byte volume.
    pub compressed_bytes: u64,
    /// Atom share per tag (must sum to `natoms`).
    pub atoms_by_tag: BTreeMap<Tag, u64>,
}

impl SyntheticDataset {
    /// A paper-calibrated GPCR dataset: 43.5k atoms/frame (0.522 MB/frame
    /// at 12 B/atom), 42.5 % protein, 3.27× compression.
    pub fn gpcr_paper(frames: u64) -> SyntheticDataset {
        let natoms = 43_500u64;
        let protein = (natoms as f64 * 0.4245) as u64;
        let mut atoms_by_tag = BTreeMap::new();
        atoms_by_tag.insert(Tag::protein(), protein);
        atoms_by_tag.insert(Tag::misc(), natoms - protein);
        SyntheticDataset {
            frames,
            natoms,
            compressed_bytes: (frames as f64 * 0.15981e6) as u64,
            atoms_by_tag,
        }
    }

    /// Raw (decompressed) byte volume: 12 bytes per atom per frame.
    pub fn raw_bytes(&self) -> u64 {
        self.frames * self.natoms * 12
    }

    /// Decompressed byte volume of one tag's subset.
    pub fn tag_bytes(&self, tag: &Tag) -> u64 {
        self.atoms_by_tag.get(tag).copied().unwrap_or(0) * self.frames * 12
    }

    /// Structure-file (pdb) size estimate: ~81 bytes per atom record.
    pub fn pdb_bytes(&self) -> u64 {
        self.natoms * 81
    }
}

/// What a [`query`] of the model delivers and what it costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryCost {
    /// Indexer tag-search time.
    pub indexer: SimDuration,
    /// Backend read time: the slowest backend's.
    pub read: SimDuration,
    /// Delivered bytes.
    pub bytes: u64,
}

/// Store `spec` as `dataset` on `containers` — one dropping per tag, on
/// the backend `policy` names — and its label file on `label_fs`. Returns
/// the label and the ingest's time on the storage node: categorize,
/// decompress, split, the dispatch's slowest backend, the label write.
pub fn ingest(
    containers: &ContainerSet,
    label_fs: &dyn SimFileSystem,
    policy: &DispatchPolicy,
    dataset: &str,
    spec: &SyntheticDataset,
) -> Result<(LabelFile, SimDuration), AdaError> {
    containers.create_logical(dataset)?;
    let mut write = BTreeMap::new();
    let mut droppings = Vec::new();
    let mut labeler = BTreeMap::new();
    let mut cursor = 0usize;
    for (tag, &atoms) in &spec.atoms_by_tag {
        let content = Content::synthetic(spec.tag_bytes(tag));
        let backend = policy.backend_for(tag);
        let (record, d) = containers.append(dataset, tag.as_str(), backend, content)?;
        *write.entry(record.backend.clone()).or_default() += d;
        droppings.push(record);
        let atoms = atoms as usize;
        labeler.insert(tag.clone(), IndexRanges::single(cursor..cursor + atoms));
        cursor += atoms;
    }
    let (natoms, nframes) = (spec.natoms as usize, spec.frames as usize);
    let label = LabelFile::new(dataset, natoms, nframes, labeler, droppings)?;
    let label_write = label.store(label_fs)?;

    let cpu = CpuProfile::xeon_e5_2603_v4();
    let (raw, pdb) = (spec.raw_bytes(), spec.pdb_bytes());
    let preprocess = [
        CpuWork::Categorize { bytes: pdb },
        CpuWork::Decompress { out_bytes: raw },
        CpuWork::Scan { bytes: raw },
    ];
    let preprocess: SimDuration = preprocess.iter().map(|w| w.duration(&cpu)).sum();
    Ok((label, preprocess + slowest(&write) + label_write))
}

/// Read back `tag`'s dropping of `stored` — every tag's, in label order,
/// when `tag` is `None` — charged as `Ada::query` charges it.
pub fn query(
    containers: &ContainerSet,
    stored: &LabelFile,
    tag: Option<&Tag>,
) -> Result<QueryCost, AdaError> {
    let entries = match tag {
        Some(t) => vec![stored.entry(t)?],
        None => stored.entries().values().collect(),
    };
    let mut read = BTreeMap::new();
    let mut bytes = 0;
    for entry in entries {
        let (content, d) = containers.read_dropping(&entry.dropping)?;
        *read.entry(entry.dropping.backend.clone()).or_default() += d;
        bytes += content.len();
    }
    Ok(QueryCost {
        indexer: indexer_cost(stored.entries().len()),
        read: slowest(&read),
        bytes,
    })
}

/// The time of work spread over backends that serve it at once.
fn slowest(per_backend: &BTreeMap<String, SimDuration>) -> SimDuration {
    per_backend.values().copied().max().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_volumes() {
        let d = SyntheticDataset::gpcr_paper(626);
        let mb = 1e6;
        let raw = d.raw_bytes() as f64 / mb;
        let comp = d.compressed_bytes as f64 / mb;
        let prot = d.tag_bytes(&Tag::protein()) as f64 / mb;
        // Table 2 row 1: 100 / 139 / 327 MB.
        assert!((comp - 100.0).abs() < 2.0, "compressed {}", comp);
        assert!((raw - 327.0).abs() < 7.0, "raw {}", raw);
        assert!((prot - 139.0).abs() < 3.0, "protein {}", prot);
        // 43.5k atoms of 12 B: 0.522 MB a frame.
        assert_eq!(d.raw_bytes() / d.frames, 522_000);
    }

    #[test]
    fn tags_partition_atoms() {
        let d = SyntheticDataset::gpcr_paper(100);
        let total: u64 = d.atoms_by_tag.values().sum();
        assert_eq!(total, d.natoms);
        assert_eq!(
            d.tag_bytes(&Tag::protein()) + d.tag_bytes(&Tag::misc()),
            d.raw_bytes()
        );
        assert_eq!(d.tag_bytes(&Tag::new("zz")), 0);
    }

    #[test]
    fn volumes_scale_linearly_in_frames() {
        let a = SyntheticDataset::gpcr_paper(1000);
        let b = SyntheticDataset::gpcr_paper(2000);
        assert_eq!(b.raw_bytes(), 2 * a.raw_bytes());
        assert_eq!(b.tag_bytes(&Tag::misc()), 2 * a.tag_bytes(&Tag::misc()));
    }
}
