//! Cross-crate middleware-stack tests: PLFS containers over heterogeneous
//! simulated file systems, recovery from the backends alone, and the
//! striped FS under the PLFS layer — the Fig. 4/5/6 plumbing exercised
//! together.

use ada_core::DispatchPolicy;
use ada_mdmodel::Tag;
use ada_platforms::volumes::{self, SyntheticDataset};
use ada_plfs::{ContainerSet, PlfsError};
use ada_simfs::{Content, FsError, LocalFs, SimFileSystem, StripedFs};
use std::sync::Arc;

type Backends = Vec<(String, Arc<dyn SimFileSystem>)>;

fn cluster_backends() -> Backends {
    let ssd: Arc<dyn SimFileSystem> = Arc::new(StripedFs::pvfs_ssd_3nodes());
    let hdd: Arc<dyn SimFileSystem> = Arc::new(StripedFs::pvfs_hdd_3nodes());
    vec![("pvfs-ssd".into(), ssd), ("pvfs-hdd".into(), hdd)]
}

fn cluster_set() -> ContainerSet {
    ContainerSet::new(cluster_backends())
}

/// The volume model's dataset over the striped PVFS pair: its protein
/// dropping reads from the SSD side alone, and a full query reads both
/// backends at once, so its read time is the slower backend's.
#[test]
fn containers_over_striped_fs() {
    let backends = cluster_backends();
    let cs = ContainerSet::new(backends.clone());
    let policy = DispatchPolicy::hybrid_gpcr("pvfs-ssd", "pvfs-hdd");
    // 1000 frames of 12-byte atoms: 425 MB of protein, 575 MB of the rest.
    let spec = SyntheticDataset {
        frames: 1000,
        natoms: 35_417 + 47_917,
        compressed_bytes: 300_000_000,
        atoms_by_tag: [(Tag::protein(), 35_417), (Tag::misc(), 47_917)].into(),
    };
    let label_fs = backends[0].1.as_ref();
    let (stored, _) = volumes::ingest(&cs, label_fs, &policy, "bar", &spec).unwrap();

    // Protein read hits only the SSD PVFS: ~425MB / 510MB/s ≈ 0.83 s.
    let index = cs.index("bar").unwrap();
    let p = index.iter().find(|r| r.tag == "p").unwrap();
    assert_eq!(p.backend, "pvfs-ssd");
    let (_, tp) = cs.read_dropping(p).unwrap();
    assert!(
        tp.as_secs_f64() > 0.7 && tp.as_secs_f64() < 1.0,
        "protein read {}",
        tp.as_secs_f64()
    );
    // Full read bounded by the HDD side: 575MB / 378MB/s ≈ 1.52 s.
    let ta = volumes::query(&cs, &stored, None).unwrap().read;
    assert!(
        ta.as_secs_f64() > 1.3 && ta.as_secs_f64() < 1.8,
        "full read {}",
        ta.as_secs_f64()
    );
}

/// A middleware restart: a fresh `ContainerSet` over the same striped
/// backends knows the logical file, its droppings and their placement
/// from the backends alone, and reads them.
#[test]
fn index_survives_restart_on_striped_backend() {
    let backends = cluster_backends();
    let cs = ContainerSet::new(backends.clone());
    cs.create_logical("bar").unwrap();
    cs.append("bar", "p", "pvfs-ssd", Content::real(vec![7u8; 1000]))
        .unwrap();
    cs.append("bar", "m", "pvfs-hdd", Content::real(vec![9u8; 2000]))
        .unwrap();

    let fresh = ContainerSet::new(backends);
    assert_eq!(fresh.list_logical(), cs.list_logical());
    assert_eq!(fresh.index("bar").unwrap(), cs.index("bar").unwrap());
    assert_eq!(
        fresh.bytes_by_backend("bar").unwrap(),
        cs.bytes_by_backend("bar").unwrap()
    );
    let index = fresh.index("bar").unwrap();
    let p = index.iter().find(|r| r.tag == "p").unwrap();
    let (content, _) = fresh.read_dropping(p).unwrap();
    assert_eq!(content.as_real().unwrap().as_ref(), &[7u8; 1000][..]);
}

#[test]
fn mixed_local_and_striped_backends() {
    // ADA's architecture allows any SimFileSystem as a backend; mix a
    // local NVMe ext4 with a striped HDD PVFS.
    let local: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
    let striped: Arc<dyn SimFileSystem> = Arc::new(StripedFs::pvfs_hdd_3nodes());
    let cs = ContainerSet::new(vec![("nvme".into(), local), ("pvfs".into(), striped)]);
    cs.create_logical("bar").unwrap();
    cs.append("bar", "p", "nvme", Content::real(vec![1u8, 2, 3]))
        .unwrap();
    cs.append("bar", "m", "pvfs", Content::real(vec![4u8, 5]))
        .unwrap();
    let read: Vec<(String, Vec<u8>)> = cs
        .index("bar")
        .unwrap()
        .iter()
        .map(|r| {
            let (c, _) = cs.read_dropping(r).unwrap();
            (r.backend.clone(), c.as_real().unwrap().to_vec())
        })
        .collect();
    assert_eq!(
        read,
        vec![("pvfs".into(), vec![4, 5]), ("nvme".into(), vec![1, 2, 3])]
    );
    let by_backend = cs.bytes_by_backend("bar").unwrap();
    assert_eq!(by_backend["nvme"], 3);
    assert_eq!(by_backend["pvfs"], 2);
}

#[test]
fn backend_capacity_errors_propagate() {
    let tiny: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme()); // 256 GB
    let cs = ContainerSet::new(vec![("ssd".into(), tiny)]);
    cs.create_logical("huge").unwrap();
    let err = cs
        .append("huge", "p", "ssd", Content::synthetic(300_000_000_000))
        .unwrap_err();
    assert!(matches!(err, PlfsError::Fs(FsError::NoSpace { .. })));
    assert!(cs.index("huge").unwrap().is_empty());
}

#[test]
fn many_logical_files_coexist() {
    let cs = cluster_set();
    for i in 0..50 {
        let name = format!("traj{}", i);
        cs.create_logical(&name).unwrap();
        cs.append(&name, "p", "pvfs-ssd", Content::synthetic(1000 + i))
            .unwrap();
    }
    assert_eq!(cs.list_logical().len(), 50);
    for i in 0..50 {
        let name = format!("traj{}", i);
        let index = cs.index(&name).unwrap();
        assert_eq!(index.len(), 1);
        assert_eq!(index[0].len, 1000 + i);
        let (c, _) = cs.read_dropping(&index[0]).unwrap();
        assert_eq!(c.len(), 1000 + i);
    }
}
