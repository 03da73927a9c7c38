//! Consistent-hash routing of datasets across a fleet of `ada-server`
//! instances.
//!
//! The [`Ring`] hashes ~64 virtual nodes per shard onto a 64-bit FNV-1a
//! circle; a dataset routes to the owner of the first point clockwise
//! from its own hash. Two properties matter and both are pinned by
//! property tests:
//!
//! - **spread**: with vnodes, no shard owns more than ~2× its uniform
//!   share of keys, and
//! - **minimal disruption**: adding or removing one shard only remaps
//!   keys that depart from (or arrive at) that shard — every other
//!   key keeps its assignment, so a resize does not stampede the
//!   remaining instances' caches.
//!
//! The [`Router`] pairs a ring with one lazy [`Client`] per shard.
//! Per-shard failures surface as typed errors (annotated with the shard
//! that failed) instead of being silently retried elsewhere: a dataset
//! lives on exactly one shard, so "failover" to another instance would
//! turn a network fault into a wrong `unknown_dataset` answer.

use std::collections::BTreeMap;

use ada_core::AdaError;
use ada_proto::{CacheStats, WireIngestReport, WireQueryReport};

use crate::{Client, ClientConfig};

/// Virtual nodes per shard: enough to keep the spread within 2× of
/// uniform for fleets up to dozens of shards, cheap enough to rebuild on
/// every resize.
const VNODES_PER_SHARD: usize = 64;

/// 64-bit FNV-1a with a splitmix64 finalizer. Raw FNV clumps badly on
/// short structured labels ("shard-3-vnode-17"), which skews the ring
/// far past 2× uniform; the avalanche pass fixes the low-entropy tail.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// A consistent-hash circle over `shards` instances.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(point, shard)` sorted by point.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl Ring {
    /// A ring over `shards` instances (at least 1).
    pub fn new(shards: usize) -> Ring {
        let shards = shards.max(1);
        let mut points = Vec::with_capacity(shards * VNODES_PER_SHARD);
        for shard in 0..shards {
            for vnode in 0..VNODES_PER_SHARD {
                let label = format!("shard-{}-vnode-{}", shard, vnode);
                points.push((fnv1a(label.as_bytes()), shard));
            }
        }
        points.sort_unstable();
        Ring { points, shards }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`: the first vnode clockwise from the key's
    /// hash (wrapping to the first point past zero).
    pub fn shard_for(&self, key: &str) -> usize {
        let h = fnv1a(key.as_bytes());
        match self.points.iter().find(|(p, _)| *p >= h) {
            Some((_, shard)) => *shard,
            None => self.points[0].1,
        }
    }
}

/// Routes dataset-scoped operations to the owning shard's [`Client`].
#[derive(Debug)]
pub struct Router {
    ring: Ring,
    clients: Vec<Client>,
}

impl Router {
    /// A router over one server address per shard. Connections are
    /// dialed lazily on first use, so constructing a router is free.
    pub fn new(addrs: Vec<String>, config: ClientConfig) -> Router {
        let ring = Ring::new(addrs.len());
        let clients = addrs
            .into_iter()
            .map(|addr| Client::new(addr, config.clone()))
            .collect();
        Router { ring, clients }
    }

    /// Number of shards behind this router.
    pub fn shards(&self) -> usize {
        self.clients.len()
    }

    /// The shard index `dataset` routes to.
    pub fn shard_for(&self, dataset: &str) -> usize {
        self.ring.shard_for(dataset)
    }

    /// The client for one shard index (for shard-scoped operations like
    /// per-instance cache stats).
    pub fn client(&self, shard: usize) -> Option<&Client> {
        self.clients.get(shard)
    }

    /// Route an ingest to the dataset's owning shard.
    pub fn ingest(
        &self,
        dataset: &str,
        pdb_text: &str,
        xtc_bytes: &[u8],
    ) -> Result<WireIngestReport, AdaError> {
        let shard = self.shard_for(dataset);
        self.route(shard, |c| c.ingest(dataset, pdb_text, xtc_bytes))
    }

    /// Route a query to the dataset's owning shard.
    pub fn query(&self, dataset: &str, tag: Option<&str>) -> Result<WireQueryReport, AdaError> {
        let shard = self.shard_for(dataset);
        self.route(shard, |c| c.query(dataset, tag))
    }

    /// Route a strided range query to the dataset's owning shard.
    pub fn query_range(
        &self,
        dataset: &str,
        tag: &str,
        start: u64,
        end: u64,
        stride: u64,
    ) -> Result<WireQueryReport, AdaError> {
        let shard = self.shard_for(dataset);
        self.route(shard, |c| c.query_range(dataset, tag, start, end, stride))
    }

    /// Cache counters of every shard, keyed by shard index. Dead shards
    /// are reported as typed errors alongside the live answers.
    pub fn cache_stats_all(&self) -> BTreeMap<usize, Result<CacheStats, AdaError>> {
        self.clients
            .iter()
            .enumerate()
            .map(|(i, c)| (i, c.cache_stats()))
            .collect()
    }

    /// Drive `op` against one shard, annotating failures with the shard
    /// index. Network faults are NOT failed over to another shard — the
    /// dataset only exists on its owner, so rerouting would masquerade a
    /// transport fault as `unknown_dataset`.
    fn route<T>(
        &self,
        shard: usize,
        op: impl FnOnce(&Client) -> Result<T, AdaError>,
    ) -> Result<T, AdaError> {
        let registry = ada_telemetry::global();
        registry.counter("router.requests").inc();
        let client = self.clients.get(shard).ok_or_else(|| {
            AdaError::Internal(format!(
                "ring routed to shard {} but only {} clients exist",
                shard,
                self.clients.len()
            ))
        })?;
        op(client).map_err(|e| {
            registry.counter("router.shard_errors").inc();
            match e {
                AdaError::Network { detail } => AdaError::Network {
                    detail: format!("shard {}: {}", shard, detail),
                },
                other => other,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ring_is_deterministic_and_total() {
        let ring = Ring::new(4);
        for i in 0..1000 {
            let key = format!("dataset-{}", i);
            let a = ring.shard_for(&key);
            let b = ring.shard_for(&key);
            assert_eq!(a, b);
            assert!(a < 4);
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let ring = Ring::new(1);
        for i in 0..100 {
            assert_eq!(ring.shard_for(&format!("k{}", i)), 0);
        }
    }

    fn spread(shards: usize, keys: usize) -> Vec<usize> {
        let ring = Ring::new(shards);
        let mut counts = vec![0usize; shards];
        for i in 0..keys {
            counts[ring.shard_for(&format!("dataset-{}", i))] += 1;
        }
        counts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// No shard owns more than 2× its uniform share of a large key
        /// population, for every fleet size the bench sweeps.
        #[test]
        fn spread_within_twice_uniform(shards in 2usize..=16) {
            let keys = 4096usize;
            let counts = spread(shards, keys);
            let uniform = keys as f64 / shards as f64;
            for (shard, &count) in counts.iter().enumerate() {
                prop_assert!(
                    (count as f64) <= 2.0 * uniform,
                    "shard {} owns {} of {} keys (uniform share {:.0})",
                    shard, count, keys, uniform
                );
            }
        }

        /// Growing the fleet by one shard only moves keys *to* the new
        /// shard; every key not claimed by it keeps its old owner.
        #[test]
        fn adding_a_shard_only_remaps_arrivals(shards in 2usize..=15) {
            let before = Ring::new(shards);
            let after = Ring::new(shards + 1);
            for i in 0..2048 {
                let key = format!("dataset-{}", i);
                let old = before.shard_for(&key);
                let new = after.shard_for(&key);
                prop_assert!(
                    new == old || new == shards,
                    "key {} moved {} -> {} when shard {} joined",
                    key, old, new, shards
                );
            }
        }

        /// Removing the last shard only remaps the keys it owned; every
        /// other key keeps its owner.
        #[test]
        fn removing_a_shard_only_remaps_departures(shards in 3usize..=16) {
            let before = Ring::new(shards);
            let after = Ring::new(shards - 1);
            for i in 0..2048 {
                let key = format!("dataset-{}", i);
                let old = before.shard_for(&key);
                let new = after.shard_for(&key);
                if old != shards - 1 {
                    prop_assert_eq!(
                        new, old,
                        "key {} moved {} -> {} though shard {} departed",
                        key, old, new, shards - 1
                    );
                }
            }
        }
    }
}
