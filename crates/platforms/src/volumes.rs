//! The volume model: ADA's ingest and query priced over per-tag byte
//! counts.
//!
//! Figs. 7–10 are functions of volumes and placement (DESIGN.md §2), so
//! the figures store nothing: a [`SyntheticDataset`] is a frame count, an
//! atom count and each tag's atom share. [`ingest`] places it as `Ada`
//! places real bytes — the dispatch policy picks each tag's backend, the
//! tag's record names the dropping plfs would store there
//! ([`IndexRecord::new`], its one path rule), `LabelFile::new` pairs the
//! tags with those records — and prices each dropping and the label file
//! on its medium with [`LocalFs::cost`], and the storage node's CPU work
//! on the paper prototype's Xeon. [`query`] prices the reads `Ada::query`
//! makes and charges the indexer. Within a backend costs add up; the
//! backends run at once, so the slowest one bounds a dispatch or a read.

use ada_core::determinator::indexer_cost;
use ada_core::{AdaError, DispatchPolicy, LabelFile};
use ada_mdmodel::{IndexRanges, Tag};
use ada_plfs::IndexRecord;
use ada_simfs::{FsError, LocalFs};
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

/// Place `spec` as `dataset` on `backends` — one dropping per tag, on
/// the backend `policy` names — and its label file on `label_fs`. Returns
/// the label and the ingest's time on the storage node: categorize,
/// decompress, split, the dispatch's slowest backend, the label write. A
/// backend whose medium cannot hold its droppings refuses them as
/// [`FsError::NoSpace`], the `no_space` error `Ada::ingest` meets there.
pub fn ingest(
    backends: &[(&str, LocalFs)],
    label_fs: &LocalFs,
    policy: &DispatchPolicy,
    dataset: &str,
    spec: &SyntheticDataset,
) -> Result<(LabelFile, SimDuration), AdaError> {
    let mut written: BTreeMap<&str, (u64, SimDuration)> = BTreeMap::new();
    let mut droppings = Vec::new();
    let mut labeler = BTreeMap::new();
    let mut cursor = 0usize;
    for (tag, &atoms) in &spec.atoms_by_tag {
        let backend = policy.backend_for(tag);
        let fs = medium(backends, backend)?;
        let len = spec.tag_bytes(tag);
        let (used, time) = written.entry(backend).or_default();
        let free = fs.capacity() - *used;
        if len > free {
            let full = FsError::NoSpace {
                requested: len,
                free,
            };
            return Err(full.into());
        }
        *used += len;
        *time += fs.cost(len, true);
        droppings.push(IndexRecord::new(dataset, tag.as_str(), backend, len));
        let atoms = atoms as usize;
        labeler.insert(tag.clone(), IndexRanges::single(cursor..cursor + atoms));
        cursor += atoms;
    }
    let (natoms, nframes) = (spec.natoms as usize, spec.frames as usize);
    let label = LabelFile::new(dataset, natoms, nframes, labeler, droppings)?;
    let label_write = label_fs.cost(label.to_json().to_vec().len() as u64, true);
    let dispatch = written.into_values().map(|(_, time)| time).max();

    let cpu = CpuProfile::xeon_e5_2603_v4();
    let (raw, pdb) = (spec.raw_bytes(), spec.pdb_bytes());
    let preprocess = [
        CpuWork::Categorize { bytes: pdb },
        CpuWork::Decompress { out_bytes: raw },
        CpuWork::Scan { bytes: raw },
    ];
    let preprocess: SimDuration = preprocess.iter().map(|w| w.duration(&cpu)).sum();
    let total = preprocess + dispatch.unwrap_or_default() + label_write;
    Ok((label, total))
}

/// Read back `tag`'s dropping of `stored` — every tag's, in label order,
/// when `tag` is `None` — priced as `Ada::query` charges it.
pub fn query(
    backends: &[(&str, LocalFs)],
    stored: &LabelFile,
    tag: Option<&Tag>,
) -> Result<QueryCost, AdaError> {
    let entries = match tag {
        Some(t) => vec![stored.entry(t)?],
        None => stored.entries().values().collect(),
    };
    let mut read: BTreeMap<&str, SimDuration> = BTreeMap::new();
    let mut bytes = 0;
    for entry in entries {
        let d = &entry.dropping;
        *read.entry(&d.backend).or_default() += medium(backends, &d.backend)?.cost(d.len, false);
        bytes += d.len;
    }
    Ok(QueryCost {
        indexer: indexer_cost(stored.entries().len()),
        read: read.into_values().max().unwrap_or_default(),
        bytes,
    })
}

/// The medium of the backend named `backend`.
fn medium<'a>(backends: &'a [(&str, LocalFs)], backend: &str) -> Result<&'a LocalFs, AdaError> {
    let found = backends.iter().find(|(name, _)| *name == backend);
    let unknown = || FsError::Unmounted(backend.to_string()).into();
    found.map(|(_, fs)| fs).ok_or_else(unknown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_core::ErrorKind;

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

    /// A backend refuses the droppings its medium cannot hold, as the
    /// store would: the first tag past the free space, in tag order.
    #[test]
    fn a_volume_past_its_medium_is_no_space() {
        // 600,000 frames: 180 GB of misc and 133 GB of protein, 313 GB in
        // all, past the NVMe drive's 256 GB.
        let spec = SyntheticDataset::gpcr_paper(600_000);
        let (p, m) = (
            spec.tag_bytes(&Tag::protein()),
            spec.tag_bytes(&Tag::misc()),
        );
        let backends = [
            ("ssd", LocalFs::ext4_on_nvme()),
            ("hdd", LocalFs::ext4_on_hdd()),
        ];
        let label_fs = &backends[0].1;
        let all_ssd = DispatchPolicy::all_to("ssd");
        let err = ingest(&backends, label_fs, &all_ssd, "bar", &spec).unwrap_err();
        let free = label_fs.capacity() - m;
        assert!(
            matches!(err, AdaError::Fs(FsError::NoSpace { requested, free: f }) if requested == p && f == free),
            "{err}"
        );
        assert_eq!(err.error_kind(), ErrorKind::NoSpace);
        // Split over the two media, each share fits.
        let hybrid = DispatchPolicy::hybrid_gpcr("ssd", "hdd");
        let (label, _) = ingest(&backends, label_fs, &hybrid, "bar", &spec).unwrap();
        assert_eq!(label.entry(&Tag::protein()).unwrap().dropping.len, p);
        // A backend with no medium is the container layer's error: the
        // policy and the mounts disagree.
        let nowhere = DispatchPolicy::all_to("tape");
        let err = ingest(&backends, label_fs, &nowhere, "bar", &spec).unwrap_err();
        assert!(matches!(err, AdaError::Fs(FsError::Unmounted(_))), "{err}");
        assert_eq!(err.error_kind(), ErrorKind::Internal);
    }

    #[test]
    fn volumes_scale_linearly_in_frames() {
        let a = SyntheticDataset::gpcr_paper(1000);
        let b = SyntheticDataset::gpcr_paper(2000);
        assert_eq!(b.raw_bytes(), 2 * a.raw_bytes());
        assert_eq!(b.tag_bytes(&Tag::misc()), 2 * a.tag_bytes(&Tag::misc()));
    }
}
