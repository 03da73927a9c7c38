//! Model-based property testing of the PLFS container layer: a random
//! sequence of tagged appends across random backends must store exactly
//! what a naive in-memory model says — one dropping per tag, the first
//! append of each; every later append of a tag refused — and the backends
//! alone must say so: a fresh `ContainerSet` over them lists the same
//! records, and a delete leaves nothing of the container behind.

use ada_plfs::ContainerSet;
use ada_simfs::{Content, FsError, LocalFs, SimFileSystem};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

type Backends = Vec<(String, Arc<dyn SimFileSystem>)>;

fn make_backends(nbackends: usize) -> Backends {
    (0..nbackends)
        .map(|i| {
            let fs: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
            (format!("mnt{}", i), fs)
        })
        .collect()
}

#[derive(Debug, Clone)]
struct Op {
    tag: usize,
    backend: usize,
    payload: Vec<u8>,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (
            0usize..4,
            0usize..3,
            prop::collection::vec(any::<u8>(), 0..200),
        ),
        1..40,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(tag, backend, payload)| Op {
                tag,
                backend,
                payload,
            })
            .collect()
    })
}

/// Run `ops` against `cs`'s logical file `bar` and the model: tag →
/// (backend, payload) of its one dropping.
fn apply(
    cs: &ContainerSet,
    names: &[String],
    ops: &[Op],
) -> Result<BTreeMap<String, (String, Vec<u8>)>, TestCaseError> {
    let mut model: BTreeMap<String, (String, Vec<u8>)> = BTreeMap::new();
    for op in ops {
        let tag = format!("t{}", op.tag);
        let backend = &names[op.backend];
        let res = cs.append("bar", &tag, backend, Content::real(op.payload.clone()));
        match model.get(&tag) {
            // A second append of a tag is refused, whichever backend it
            // names.
            Some(_) => prop_assert!(
                matches!(res, Err(FsError::AlreadyExists(_))),
                "second append of {} gave {:?}",
                tag,
                res
            ),
            None => {
                let Ok(record) = res else {
                    return Err(TestCaseError(format!(
                        "first append of {} gave {:?}",
                        tag, res
                    )));
                };
                prop_assert_eq!(&record.tag, &tag);
                prop_assert_eq!(&record.backend, backend);
                prop_assert_eq!(record.len, op.payload.len() as u64);
                model.insert(tag, (backend.clone(), op.payload.clone()));
            }
        }
    }
    Ok(model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_index_lists_one_record_per_appended_tag(ops in arb_ops()) {
        let backends = make_backends(3);
        let names: Vec<String> = backends.iter().map(|(n, _)| n.clone()).collect();
        let cs = ContainerSet::new(backends);
        let model = apply(&cs, &names, &ops)?;

        // Exactly one record per appended tag, in tag order, each reading
        // back its first payload.
        let index = cs.index("bar").unwrap();
        let tags: Vec<&String> = index.iter().map(|r| &r.tag).collect();
        prop_assert_eq!(tags, model.keys().collect::<Vec<_>>());
        for r in &index {
            let (backend, payload) = &model[&r.tag];
            prop_assert_eq!(&r.backend, backend);
            prop_assert_eq!(r.len, payload.len() as u64);
            let (got, _) = cs.read_dropping(r).unwrap();
            prop_assert_eq!(got.bytes().as_ref(), &payload[..]);
        }

        // Placement accounting matches.
        let mut model_backend: BTreeMap<String, u64> = BTreeMap::new();
        for (backend, payload) in model.values() {
            *model_backend.entry(backend.clone()).or_insert(0) += payload.len() as u64;
        }
        prop_assert_eq!(cs.bytes_by_backend("bar").unwrap(), model_backend);
    }

    #[test]
    fn a_fresh_set_and_a_delete_see_only_the_backends(ops in arb_ops()) {
        let backends = make_backends(3);
        let names: Vec<String> = backends.iter().map(|(n, _)| n.clone()).collect();
        let cs = ContainerSet::new(backends.clone());
        cs.append("other", "t0", &names[0], Content::real(vec![7u8; 9])).unwrap();
        apply(&cs, &names, &ops)?;
        let other = cs.index("other").unwrap();

        // A restart: a fresh set over the same backends.
        let fresh = ContainerSet::new(backends.clone());
        prop_assert_eq!(fresh.index("bar").unwrap(), cs.index("bar").unwrap());
        prop_assert_eq!(fresh.bytes_by_backend("bar").unwrap(), cs.bytes_by_backend("bar").unwrap());

        // A delete through the fresh set leaves nothing of `bar` on any
        // backend, and `other` whole.
        prop_assert_eq!(fresh.delete_logical("bar"), vec![]);
        prop_assert_eq!(cs.index("bar").unwrap(), vec![]);
        prop_assert_eq!(cs.index("other").unwrap(), other);
        for (mnt, fs) in &backends {
            prop_assert!(fs.list(&format!("{}/bar/", mnt)).is_empty());
        }
    }
}
