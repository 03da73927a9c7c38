//! The label file.
//!
//! Algorithm 1 ends with "Store the labeler to a file named `label_file`
//! for later I/O reference". The label file is the out-of-band metadata
//! that lets the indexer resolve tag queries without touching (or
//! modifying) the data subsets themselves: per tag, its atom ranges and
//! its one stored dropping. It is a dataset's one metadata record, and
//! its write is an ingest's commit point.

use crate::categorizer::Labeler;
use crate::AdaError;
use ada_json::Value;
use ada_mdmodel::{IndexRanges, Tag};
use ada_plfs::IndexRecord;
use ada_simfs::{Content, SimFileSystem};
use std::collections::BTreeMap;

/// One tag of a label: the atoms it selects and its one stored dropping.
#[derive(Debug, Clone, PartialEq)]
pub struct TagEntry {
    /// Atom index ranges.
    pub ranges: IndexRanges,
    /// The dropping ingest stored for the tag.
    pub dropping: IndexRecord,
}

/// Serializable label metadata for one ingested dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelFile {
    /// Logical dataset name (the `.xtc` stem).
    pub dataset: String,
    /// Atom count of the guiding structure.
    pub natoms: usize,
    /// Frame count of the ingested trajectory.
    pub nframes: usize,
    /// Tag → its atom ranges and its one stored dropping, as
    /// [`LabelFile::new`] paired them.
    tags: BTreeMap<Tag, TagEntry>,
}

/// Pair each labeler tag with its one stored dropping, or say why they
/// do not pair: a tag without a dropping, a dropping for a tag the
/// labeler lacks, or one tag's dropping twice.
fn pair(
    labeler: Labeler,
    mut droppings: Vec<IndexRecord>,
) -> Result<BTreeMap<Tag, TagEntry>, String> {
    droppings.sort_by(|a, b| a.tag.cmp(&b.tag));
    let dropping_tags = droppings.iter().map(|d| d.tag.as_str());
    if !dropping_tags.eq(labeler.keys().map(Tag::as_str)) {
        return Err("stored droppings are not one per tag".into());
    }
    let pairs = labeler.into_iter().zip(droppings);
    Ok(pairs
        .map(|((tag, ranges), dropping)| (tag, TagEntry { ranges, dropping }))
        .collect())
}

impl LabelFile {
    /// Build from a categorizer run and the droppings ingest stored, one
    /// per labeler tag; a set whose tags differ from the labeler's is
    /// [`AdaError::Internal`].
    pub fn new(
        dataset: impl Into<String>,
        natoms: usize,
        nframes: usize,
        labeler: Labeler,
        droppings: Vec<IndexRecord>,
    ) -> Result<LabelFile, AdaError> {
        let dataset = dataset.into();
        let tags = pair(labeler, droppings)
            .map_err(|why| AdaError::Internal(format!("label of '{}': {}", dataset, why)))?;
        Ok(LabelFile {
            dataset,
            natoms,
            nframes,
            tags,
        })
    }

    /// Every tag's entry, in tag order.
    pub fn entries(&self) -> &BTreeMap<Tag, TagEntry> {
        &self.tags
    }

    /// One tag's entry.
    pub fn entry(&self, tag: &Tag) -> Result<&TagEntry, AdaError> {
        self.tags
            .get(tag)
            .ok_or_else(|| AdaError::UnknownTag(tag.to_string()))
    }

    /// Ranges for one tag.
    pub fn ranges(&self, tag: &Tag) -> Result<&IndexRanges, AdaError> {
        Ok(&self.entry(tag)?.ranges)
    }

    /// Atom count under a tag.
    pub fn atoms_of(&self, tag: &Tag) -> usize {
        self.tags.get(tag).map_or(0, |e| e.ranges.count())
    }

    /// All tags in order.
    pub fn all_tags(&self) -> Vec<Tag> {
        self.tags.keys().cloned().collect()
    }

    /// Canonical storage path for a dataset's label file.
    pub fn path_for(dataset: &str) -> String {
        format!("ada/labels/{}.label.json", dataset)
    }

    /// JSON rendering — what [`LabelFile::store`] writes: ranges are
    /// `[start, end)` pairs under each tag, and each tag's stored
    /// dropping, in tag order, is an object of its record's fields.
    pub fn to_json(&self) -> Value {
        let tags = self
            .tags
            .iter()
            .map(|(tag, entry)| {
                let pairs = entry
                    .ranges
                    .iter_ranges()
                    .map(|r| {
                        Value::Arr(vec![
                            Value::num_u(r.start as u64),
                            Value::num_u(r.end as u64),
                        ])
                    })
                    .collect();
                (tag.as_str().to_string(), Value::Arr(pairs))
            })
            .collect();
        let droppings = self
            .tags
            .values()
            .map(|TagEntry { dropping: d, .. }| {
                Value::obj(vec![
                    ("tag", Value::str(d.tag.clone())),
                    ("backend", Value::str(d.backend.clone())),
                    ("dropping_path", Value::str(d.dropping_path.clone())),
                    ("len", Value::num_u(d.len)),
                ])
            })
            .collect();
        Value::obj(vec![
            ("dataset", Value::str(self.dataset.clone())),
            ("natoms", Value::num_u(self.natoms as u64)),
            ("nframes", Value::num_u(self.nframes as u64)),
            ("tags", Value::Obj(tags)),
            ("droppings", Value::Arr(droppings)),
        ])
    }

    fn from_json(v: &Value) -> Result<LabelFile, ada_json::JsonError> {
        let mut labeler = BTreeMap::new();
        for (tag, pairs) in v.field("tags")?.as_obj()? {
            let mut ranges = Vec::new();
            for pair in pairs.as_arr()? {
                let pair = pair.as_arr()?;
                if pair.len() != 2 {
                    return Err(ada_json::JsonError(
                        "range is not a [start, end) pair".into(),
                    ));
                }
                ranges.push(pair[0].as_usize()?..pair[1].as_usize()?);
            }
            labeler.insert(Tag::new(tag.as_str()), IndexRanges::from_ranges(ranges));
        }
        let mut droppings = Vec::new();
        for d in v.field("droppings")?.as_arr()? {
            droppings.push(IndexRecord {
                tag: d.field("tag")?.as_str()?.to_string(),
                backend: d.field("backend")?.as_str()?.to_string(),
                dropping_path: d.field("dropping_path")?.as_str()?.to_string(),
                len: d.field("len")?.as_u64()?,
            });
        }
        Ok(LabelFile {
            dataset: v.field("dataset")?.as_str()?.to_string(),
            natoms: v.field("natoms")?.as_usize()?,
            nframes: v.field("nframes")?.as_usize()?,
            tags: pair(labeler, droppings).map_err(ada_json::JsonError)?,
        })
    }

    /// Persist to a file system: a create, which the file system refuses
    /// as `AlreadyExists` over an existing label. A label file exists only
    /// for a committed dataset, so an ingest never meets one.
    pub fn store(&self, fs: &dyn SimFileSystem) -> Result<(), AdaError> {
        let json = self.to_json().to_vec();
        Ok(fs.create(&LabelFile::path_for(&self.dataset), Content::real(json))?)
    }

    /// Load a dataset's label file.
    pub fn load(fs: &dyn SimFileSystem, dataset: &str) -> Result<LabelFile, AdaError> {
        let (content, _) = fs.read(&LabelFile::path_for(dataset))?;
        ada_json::parse(content.bytes())
            .and_then(|v| LabelFile::from_json(&v))
            .map_err(|e| AdaError::Label(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_simfs::{FsError, LocalFs};

    fn droppings(pairs: &[(&str, &str, u64)]) -> Vec<IndexRecord> {
        pairs
            .iter()
            .map(|&(tag, backend, len)| IndexRecord::new("bar", tag, backend, len))
            .collect()
    }

    fn labeler() -> Labeler {
        let mut tags: Labeler = BTreeMap::new();
        tags.insert(Tag::protein(), IndexRanges::single(0..100));
        tags.insert(Tag::misc(), IndexRanges::from_ranges([100..220, 250..300]));
        tags
    }

    fn label() -> LabelFile {
        let stored = droppings(&[("p", "ssd", 1_000), ("m", "hdd", 2_000)]);
        LabelFile::new("bar", 300, 10, labeler(), stored).unwrap()
    }

    /// A tag is its ranges and its one stored dropping, whatever order
    /// the droppings were stored in; a dropping set whose tags differ from
    /// the labeler's — one short, one extra, one tag twice — is refused.
    #[test]
    fn new_pairs_each_tag_with_its_one_dropping() {
        let l = label();
        let entry = l.entry(&Tag::misc()).unwrap();
        assert_eq!(
            (entry.dropping.tag.as_str(), entry.dropping.len),
            ("m", 2_000)
        );
        assert_eq!(entry.ranges, *l.ranges(&Tag::misc()).unwrap());
        for pairs in [
            &[("p", "ssd", 1_000)][..],
            &[("p", "ssd", 1_000), ("m", "hdd", 2_000), ("w", "hdd", 9)],
            &[
                ("p", "ssd", 1_000),
                ("m", "hdd", 2_000),
                ("m", "hdd", 2_000),
            ],
            &[("p", "ssd", 1_000), ("w", "hdd", 2_000)],
        ] {
            let err = LabelFile::new("bar", 300, 10, labeler(), droppings(pairs)).unwrap_err();
            assert!(
                matches!(&err, AdaError::Internal(m) if m.contains("not one per tag")),
                "{:?}: {}",
                pairs,
                err
            );
        }
    }

    #[test]
    fn accessors() {
        let l = label();
        assert_eq!(l.atoms_of(&Tag::protein()), 100);
        assert_eq!(l.atoms_of(&Tag::misc()), 170);
        assert_eq!(l.atoms_of(&Tag::new("z")), 0);
        assert!(l.ranges(&Tag::protein()).is_ok());
        assert!(matches!(
            l.ranges(&Tag::new("z")),
            Err(AdaError::UnknownTag(_))
        ));
        assert_eq!(l.all_tags(), vec![Tag::misc(), Tag::protein()]);
    }

    #[test]
    fn store_load_roundtrip() {
        let fs = LocalFs::ext4_on_nvme();
        let l = label();
        l.store(&fs).unwrap();
        let stored = fs.stat(&LabelFile::path_for("bar")).unwrap().len;
        assert_eq!(stored, l.to_json().to_vec().len() as u64);
        assert_eq!(LabelFile::load(&fs, "bar").unwrap(), l);
    }

    #[test]
    fn store_over_an_existing_label_is_refused() {
        let fs = LocalFs::ext4_on_nvme();
        let mut l = label();
        l.store(&fs).unwrap();
        l.nframes = 99;
        let err = l.store(&fs).unwrap_err();
        assert!(
            matches!(&err, AdaError::Fs(FsError::AlreadyExists(p)) if *p == LabelFile::path_for("bar")),
            "{err}"
        );
        assert_eq!(LabelFile::load(&fs, "bar").unwrap().nframes, 10);
    }

    #[test]
    fn load_missing_dataset() {
        let fs = LocalFs::ext4_on_nvme();
        assert!(LabelFile::load(&fs, "nope").is_err());
    }
}
