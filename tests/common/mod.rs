//! What the suites that race or break ingests and deletes check the
//! backends against.

use ada_core::{Ada, LabelFile};
use ada_simfs::SimFileSystem;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Every file on `backends` that no listed dataset of `ada` accounts for:
/// neither a dropping its label names nor its label file.
pub fn strays(ada: &Ada, backends: &[&Arc<dyn SimFileSystem>]) -> Vec<String> {
    let mut owned = BTreeSet::new();
    for dataset in ada.list_datasets() {
        // A dataset deleted since the listing accounts for nothing.
        let Ok(label) = ada.label(&dataset) else {
            continue;
        };
        let droppings = label.entries().values();
        owned.extend(droppings.map(|e| e.dropping.dropping_path.clone()));
        owned.insert(LabelFile::path_for(&dataset));
    }
    let files = backends.iter().flat_map(|fs| fs.list(""));
    files.filter(|f| !owned.contains(f)).collect()
}
