#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

//! # ada-cache — hot-set cache of decoded droppings
//!
//! A shuffled-epoch sampling workload (the ML-training access pattern from
//! the ROADMAP) revisits the same tagged droppings every epoch, in a
//! different order each time. Without a cache, every revisit pays full
//! fetch + XTCF decode cost; the hot set is inflated from scratch on each
//! hit. This crate keeps **decoded frame payloads** resident:
//!
//! * keyed by `(dataset, tag, generation)` — [`CacheKey`] — where
//!   `generation` names one commit of the dataset (ADA takes a fresh one
//!   each time a name is ingested, so a payload decoded before the name
//!   was deleted and re-ingested is never found under the new commit);
//! * **sharded**: each of its eight shards is an independent
//!   `ada_sync::Mutex` over a map + CLOCK ring, so concurrent clients on
//!   different droppings do not serialize on one lock;
//! * bounded by a **byte budget** split evenly across shards, enforced
//!   with CLOCK (second-chance) eviction — a hit sets the referenced bit,
//!   the eviction hand clears it, and only unreferenced entries are
//!   dropped;
//! * **admitted by budget alone**: a payload is stored unless it is larger
//!   than a shard's budget, and that refusal is priced before anything is
//!   decoded ([`DecodedCache::admission`]).
//!
//! Entries are [`Arc`]-wrapped, so eviction never invalidates a payload an
//! in-flight reader already holds. The correctness contract — cached and
//! uncached reads byte-identical — is enforced by the integration suite in
//! `tests/sampling_cache.rs` and the property tests at the bottom of this
//! file.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ada_mdformats::Frame;
use ada_sync::Mutex;
use ada_telemetry::Snapshot;

/// Shards of every cache: the byte budget is split evenly across them.
const SHARDS: usize = 8;

/// The decoded-dropping cache's one knob, its byte budget.
///
/// The zero-capacity default disables caching entirely: lookups
/// short-circuit to a miss without taking any lock, so a cache-off `Ada`
/// pays nothing beyond a branch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total byte budget across all shards. `0` disables the cache.
    pub capacity_bytes: u64,
}

impl CacheConfig {
    /// A cache of the given budget: a tag's payload is admitted on its
    /// first query.
    pub fn with_capacity(capacity_bytes: u64) -> CacheConfig {
        CacheConfig { capacity_bytes }
    }
}

/// Identity of one decoded dropping. A key built to look an entry up
/// borrows its names; the cache keeps an owned copy only of a key it
/// stores.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey<'a> {
    /// Dataset label.
    pub dataset: Cow<'a, str>,
    /// Tag whose stream the dropping belongs to.
    pub tag: Cow<'a, str>,
    /// Which commit of the dataset the payload was decoded from.
    pub generation: u64,
}

impl<'a> CacheKey<'a> {
    /// Build a key that borrows its names.
    pub fn new(dataset: &'a str, tag: &'a str, generation: u64) -> CacheKey<'a> {
        CacheKey {
            dataset: Cow::Borrowed(dataset),
            tag: Cow::Borrowed(tag),
            generation,
        }
    }

    /// The key with names of its own, as a shard stores it.
    fn into_owned(self) -> CacheKey<'static> {
        CacheKey {
            dataset: Cow::Owned(self.dataset.into_owned()),
            tag: Cow::Owned(self.tag.into_owned()),
            generation: self.generation,
        }
    }

    /// FNV-1a over the key fields — deterministic across runs (unlike
    /// `std` `RandomState`), cheap, and well-mixed enough for shard
    /// selection.
    fn shard_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.dataset.as_bytes());
        eat(&[0xff]);
        eat(self.tag.as_bytes());
        eat(&[0xff]);
        eat(&self.generation.to_le_bytes());
        h
    }
}

/// A decoded dropping held at chunk granularity (XTCF v2's unit of random
/// access): the dropping's chunk layout (frame count per chunk) plus
/// whichever chunks are actually resident. Keys stay per-dropping, but a
/// partial window admits only the chunks it touched — cold chunks never
/// occupy budget, and a later read that needs more chunks re-inserts a
/// richer payload (see [`DecodedCache::insert`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedDropping {
    /// Atom count validated against the label file when decoded.
    pub natoms: usize,
    /// Frame count of each chunk, in dropping order (the full layout,
    /// resident or not).
    chunk_nframes: Vec<u32>,
    /// Resident chunks, parallel to `chunk_nframes`; `None` = not decoded.
    chunks: Vec<Option<Arc<Vec<Frame>>>>,
    /// Resident bytes, summed once at construction (see [`Self::cost`]).
    cost: u64,
}

impl DecodedDropping {
    /// A fully resident single-chunk payload.
    pub fn complete(frames: Vec<Frame>, natoms: usize) -> DecodedDropping {
        let n = frames.len() as u32;
        DecodedDropping::from_chunks(vec![n], vec![Some(Arc::new(frames))], natoms)
    }

    /// A payload with the given chunk layout and residency. `chunks` must
    /// be parallel to `chunk_nframes` and each resident chunk must hold
    /// exactly its declared frame count.
    pub fn from_chunks(
        chunk_nframes: Vec<u32>,
        chunks: Vec<Option<Arc<Vec<Frame>>>>,
        natoms: usize,
    ) -> DecodedDropping {
        debug_assert_eq!(chunk_nframes.len(), chunks.len());
        let cost = chunks
            .iter()
            .flatten()
            .flat_map(|c| c.iter())
            .map(|f| f.nbytes() as u64)
            .sum();
        DecodedDropping {
            natoms,
            chunk_nframes,
            chunks,
            cost,
        }
    }

    /// Number of chunks in the dropping's layout.
    pub fn nchunks(&self) -> usize {
        self.chunk_nframes.len()
    }

    /// Total frames across the layout (resident or not).
    pub fn nframes(&self) -> usize {
        self.chunk_nframes.iter().map(|&n| n as usize).sum()
    }

    /// The resident frames of chunk `i`, if decoded.
    pub fn chunk(&self, i: usize) -> Option<&Arc<Vec<Frame>>> {
        self.chunks.get(i).and_then(|c| c.as_ref())
    }

    /// The chunk layout (frame count per chunk).
    pub fn chunk_layout(&self) -> &[u32] {
        &self.chunk_nframes
    }

    /// True when every chunk is resident.
    pub fn is_complete(&self) -> bool {
        self.chunks.iter().all(|c| c.is_some())
    }

    /// Chunk index and offset-within-chunk of dropping-local frame
    /// `local`, if inside the layout.
    pub fn locate(&self, local: usize) -> Option<(usize, usize)> {
        let mut at = 0usize;
        for (i, &n) in self.chunk_nframes.iter().enumerate() {
            let n = n as usize;
            if local < at + n {
                return Some((i, local - at));
            }
            at += n;
        }
        None
    }

    /// Dropping-local frame `local`, if its chunk is resident.
    pub fn frame(&self, local: usize) -> Option<&Frame> {
        let (c, off) = self.locate(local)?;
        self.chunks[c].as_ref()?.get(off)
    }

    /// True when every listed dropping-local frame is resident.
    pub fn has_frames(&self, locals: &[usize]) -> bool {
        locals.iter().all(|&l| self.frame(l).is_some())
    }

    /// Resident cost of this payload in bytes (only decoded chunks count):
    /// the frames' `nbytes`, summed once when the payload was built, so an
    /// insert prices it without walking its frames.
    pub fn cost(&self) -> u64 {
        self.cost
    }
}

/// What admission makes of a payload: stored, or why not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Stored (or already present).
    Admitted,
    /// Payload larger than a whole shard's budget.
    TooLarge,
    /// Cache disabled (zero budget).
    Disabled,
}

/// One resident entry in a shard's CLOCK ring.
#[derive(Debug)]
struct Slot {
    key: CacheKey<'static>,
    payload: Arc<DecodedDropping>,
    cost: u64,
    referenced: bool,
}

/// One shard: key → slot map plus the CLOCK ring the hand walks.
#[derive(Debug, Default)]
struct Shard {
    map: BTreeMap<CacheKey<'static>, usize>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    hand: usize,
    resident: u64,
}

impl Shard {
    /// Evict unreferenced entries until `cost` more bytes fit in
    /// `budget`. Entries the hand passes get their referenced bit cleared
    /// (second chance), so the loop terminates within two sweeps.
    fn make_room(&mut self, cost: u64, budget: u64) -> u64 {
        let mut evicted = 0u64;
        while self.resident + cost > budget && !self.map.is_empty() {
            let n = self.slots.len();
            self.hand = (self.hand + 1) % n;
            let Some(slot) = self.slots[self.hand].as_mut() else {
                continue;
            };
            if slot.referenced {
                slot.referenced = false;
                continue;
            }
            evicted += u64::from(self.evict(self.hand));
        }
        evicted
    }

    /// Empty slot `idx`: its entry leaves the map and the budget. False
    /// when the slot was empty.
    fn evict(&mut self, idx: usize) -> bool {
        let Some(slot) = self.slots.get_mut(idx).and_then(Option::take) else {
            return false;
        };
        self.map.remove(&slot.key);
        self.resident -= slot.cost;
        self.free.push(idx);
        true
    }

    /// The slot holding `key`. The map is read as one keyed by borrowed
    /// names (a map is covariant in its key), so a lookup copies nothing.
    fn find(&self, key: &CacheKey<'_>) -> Option<usize> {
        let map: &BTreeMap<CacheKey<'_>, usize> = &self.map;
        map.get(key).copied()
    }

    fn insert(&mut self, key: CacheKey<'static>, payload: Arc<DecodedDropping>, cost: u64) {
        let slot = Slot {
            key: key.clone(),
            payload,
            cost,
            referenced: true,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.resident += cost;
    }
}

/// Monotonic counters for one cache instance — per-`Ada`, so a benchmark
/// can difference them across epochs without other instances polluting
/// the numbers, and what its `cache.*` metrics read.
#[derive(Debug, Default)]
struct StatsCells {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    bypasses: AtomicU64,
    resident_hwm: AtomicU64,
    bytes_decoded: AtomicU64,
    bytes_served_from_cache: AtomicU64,
}

/// Point-in-time view of a cache's counters (see [`DecodedCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a resident payload.
    pub hits: u64,
    /// Lookups that found nothing (including all lookups when disabled).
    pub misses: u64,
    /// Payloads stored.
    pub inserts: u64,
    /// Entries evicted by the CLOCK hand.
    pub evictions: u64,
    /// Payloads refused by admission (oversized, disabled), whether the
    /// refusal came before the payload was decoded or at its insert.
    pub bypasses: u64,
    /// Bytes currently resident across all shards.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes`.
    pub resident_hwm: u64,
    /// Bytes of frame payload decoded from droppings (counted by the
    /// owner on every fresh decode, cache on or off — the benchmark's
    /// denominator).
    pub bytes_decoded: u64,
    /// Bytes of frame payload served from resident entries.
    pub bytes_served_from_cache: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups, `0.0` when there were none.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The sharded decoded-dropping store.
#[derive(Debug)]
pub struct DecodedCache {
    shard_budget: u64,
    shards: Vec<Mutex<Shard>>,
    stats: StatsCells,
}

impl DecodedCache {
    /// Build a cache for `config`. A zero budget yields a disabled cache
    /// whose lookups and inserts are constant-time no-ops.
    pub fn new(config: CacheConfig) -> DecodedCache {
        DecodedCache::sharded(config, SHARDS)
    }

    /// A cache of `nshards` shards (the unit tests pin eviction order in
    /// one).
    fn sharded(config: CacheConfig, nshards: usize) -> DecodedCache {
        let shard_budget = config.capacity_bytes / nshards as u64;
        let shards = (0..nshards).map(|_| Mutex::new(Shard::default())).collect();
        DecodedCache {
            shard_budget,
            shards,
            stats: StatsCells::default(),
        }
    }

    /// True when the byte budget is non-zero.
    pub fn enabled(&self) -> bool {
        self.shard_budget > 0
    }

    fn shard_for(&self, key: &CacheKey<'_>) -> &Mutex<Shard> {
        let idx = (key.shard_hash() % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    /// Look up a decoded dropping. A hit sets the CLOCK referenced bit
    /// and returns a shared handle that survives later eviction.
    pub fn get(&self, key: &CacheKey<'_>) -> Option<Arc<DecodedDropping>> {
        if !self.enabled() {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let found = {
            let mut shard = self.shard_for(key).lock();
            match shard.find(key) {
                // The slot already holds its payload's cost: a hit counts
                // its bytes without walking the resident frames.
                Some(idx) => shard.slots[idx].as_mut().map(|slot| {
                    slot.referenced = true;
                    (Arc::clone(&slot.payload), slot.cost)
                }),
                None => None,
            }
        };
        match found {
            Some((payload, cost)) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .bytes_served_from_cache
                    .fetch_add(cost, Ordering::Relaxed);
                Some(payload)
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// True when `key` is resident (no referenced-bit side effect).
    pub fn contains(&self, key: &CacheKey<'_>) -> bool {
        self.enabled() && self.shard_for(key).lock().find(key).is_some()
    }

    /// Whether a payload of `cost` resident bytes would be stored: the one
    /// admission check, which [`DecodedCache::insert`] makes too. A caller
    /// that knows a payload's cost before decoding it asks here first, and
    /// decodes nothing the cache would refuse. A refusal — cache disabled,
    /// or the payload larger than a shard's budget — counts one bypass.
    pub fn admission(&self, cost: u64) -> Admission {
        let refused = if !self.enabled() {
            Admission::Disabled
        } else if cost > self.shard_budget {
            Admission::TooLarge
        } else {
            return Admission::Admitted;
        };
        self.stats.bypasses.fetch_add(1, Ordering::Relaxed);
        refused
    }

    /// Offer a freshly decoded dropping: stored unless
    /// [`DecodedCache::admission`] refuses its cost. Returns the admission
    /// outcome; the payload itself is handed back to the caller either way
    /// via the `Arc` it passed in.
    ///
    /// The third argument is ignored: the benchmark's ladder binds this
    /// three-argument form, so it stays until the ladder is re-bound.
    pub fn insert(&self, key: CacheKey<'_>, payload: &Arc<DecodedDropping>, _: u64) -> Admission {
        let cost = payload.cost();
        let admission = self.admission(cost);
        if admission != Admission::Admitted {
            return admission;
        }
        let evicted = {
            let mut shard = self.shard_for(&key).lock();
            if let Some(idx) = shard.find(&key) {
                let existing_cost = shard.slots[idx].as_ref().map_or(0, |s| s.cost);
                if cost <= existing_cost {
                    if let Some(slot) = shard.slots[idx].as_mut() {
                        // Same key ⇒ same bytes, and the resident entry is
                        // at least as chunk-rich; just refresh the clock
                        // bit.
                        slot.referenced = true;
                        return Admission::Admitted;
                    }
                }
                // The offered payload carries more resident chunks than
                // the stored one (a partial window grew): upgrade in
                // place, re-running eviction for the size difference.
                shard.evict(idx);
            }
            let evicted = shard.make_room(cost, self.shard_budget);
            shard.insert(key.into_owned(), Arc::clone(payload), cost);
            evicted
        };
        self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
        let resident = self.resident_bytes();
        self.stats
            .resident_hwm
            .fetch_max(resident, Ordering::Relaxed);
        Admission::Admitted
    }

    /// Record `n` bytes of frame payload decoded from droppings. Counted
    /// by the owner on every fresh decode — cache on *or off* — so
    /// cache-off and cache-on runs are measured identically.
    pub fn note_decoded(&self, n: u64) {
        self.stats.bytes_decoded.fetch_add(n, Ordering::Relaxed);
    }

    /// Drop every entry belonging to `dataset` (dataset deletion must not
    /// leave stale payloads resident).
    pub fn invalidate_dataset(&self, dataset: &str) {
        if !self.enabled() {
            return;
        }
        let mut evicted = 0u64;
        for shard in &self.shards {
            let mut shard = shard.lock();
            let stale: Vec<usize> = shard
                .map
                .iter()
                .filter(|(k, _)| k.dataset == dataset)
                .map(|(_, &idx)| idx)
                .collect();
            for idx in stale {
                evicted += u64::from(shard.evict(idx));
            }
        }
        self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Drop the entry under `key`, if one is resident (a payload settled
    /// for a commit that was deleted meanwhile must not hold budget).
    pub fn remove(&self, key: &CacheKey<'_>) {
        if !self.enabled() {
            return;
        }
        let evicted = {
            let mut shard = self.shard_for(key).lock();
            shard.find(key).is_some_and(|idx| shard.evict(idx))
        };
        self.stats
            .evictions
            .fetch_add(u64::from(evicted), Ordering::Relaxed);
    }

    /// Bytes currently resident across all shards.
    pub fn resident_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().resident).sum()
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        CacheStats {
            hits: load(&self.stats.hits),
            misses: load(&self.stats.misses),
            inserts: load(&self.stats.inserts),
            evictions: load(&self.stats.evictions),
            bypasses: load(&self.stats.bypasses),
            resident_bytes: self.resident_bytes(),
            resident_hwm: load(&self.stats.resident_hwm),
            bytes_decoded: load(&self.stats.bytes_decoded),
            bytes_served_from_cache: load(&self.stats.bytes_served_from_cache),
        }
    }

    /// Write the `cache.*` metrics, read off [`DecodedCache::stats`]: its
    /// hit / miss / eviction / bypass counts, and resident bytes and their
    /// high-water mark.
    pub fn write_metrics(&self, snap: &mut Snapshot) {
        let s = self.stats();
        snap.counter("cache.hit", s.hits);
        snap.counter("cache.miss", s.misses);
        snap.counter("cache.evict", s.evictions);
        snap.counter("cache.bypass", s.bypasses);
        let (resident, hwm) = (s.resident_bytes as i64, s.resident_hwm as i64);
        snap.gauge("cache.resident_bytes", resident, hwm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(natoms: usize, fill: f32) -> Frame {
        Frame::from_coords(vec![[fill, fill, fill]; natoms])
    }

    fn payload(natoms: usize, nframes: usize, fill: f32) -> Arc<DecodedDropping> {
        Arc::new(DecodedDropping::complete(
            (0..nframes).map(|_| frame(natoms, fill)).collect(),
            natoms,
        ))
    }

    /// Resident entries across all shards.
    fn entries(cache: &DecodedCache) -> usize {
        cache.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// A cache of `capacity` bytes in `shards` shards.
    pub(super) fn hot_cache(capacity: u64, shards: usize) -> DecodedCache {
        DecodedCache::sharded(CacheConfig::with_capacity(capacity), shards)
    }

    #[test]
    fn disabled_cache_is_a_noop() {
        let cache = DecodedCache::new(CacheConfig::default());
        assert!(!cache.enabled());
        let key = CacheKey::new("ds", "protein", 0);
        assert_eq!(
            cache.insert(key.clone(), &payload(4, 2, 1.0), 100),
            Admission::Disabled
        );
        assert!(cache.get(&key).is_none());
        assert_eq!(entries(&cache), 0);
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.bypasses, 1);
    }

    #[test]
    fn hit_returns_the_exact_payload() {
        let cache = hot_cache(1 << 20, 4);
        let key = CacheKey::new("ds", "protein", 512);
        let p = payload(8, 3, 0.25);
        assert_eq!(cache.insert(key.clone(), &p, 5), Admission::Admitted);
        let hit = cache.get(&key).expect("inserted entry should be resident");
        assert_eq!(*hit, *p);
        assert_eq!(hit.natoms, 8);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.bytes_served_from_cache, p.cost());
        // Every hit serves the inserted payload's bytes, the slot's count.
        for _ in 1..5 {
            cache.get(&key).expect("still resident");
        }
        assert_eq!(cache.stats().bytes_served_from_cache, 5 * p.cost());
    }

    #[test]
    fn oversized_payloads_are_refused() {
        let cache = hot_cache(64, 1);
        let key = CacheKey::new("ds", "protein", 0);
        assert_eq!(
            cache.insert(key.clone(), &payload(1024, 4, 0.0), 10),
            Admission::TooLarge
        );
        assert_eq!(entries(&cache), 0);
        assert_eq!(cache.stats().bypasses, 1);
        // Asked before decoding, the same check gives the same answer and
        // counts the same bypass; a payload that fits is not counted.
        assert_eq!(cache.admission(65), Admission::TooLarge);
        assert_eq!(cache.admission(64), Admission::Admitted);
        assert_eq!(cache.stats().bypasses, 2);
        let off = DecodedCache::new(CacheConfig::default());
        assert_eq!(off.admission(0), Admission::Disabled);
        assert_eq!(off.stats().bypasses, 1);
    }

    #[test]
    fn eviction_respects_budget_and_clock_second_chance() {
        // One shard, budget for two payloads.
        let p = payload(16, 1, 0.0);
        let cost = p.cost();
        let cache = hot_cache(cost * 2, 1);
        let k0 = CacheKey::new("ds", "t", 0);
        let k1 = CacheKey::new("ds", "t", 1);
        let k2 = CacheKey::new("ds", "t", 2);
        cache.insert(k0.clone(), &payload(16, 1, 0.0), 9);
        cache.insert(k1.clone(), &payload(16, 1, 1.0), 9);
        assert_eq!(entries(&cache), 2);
        // Touch k0 so its referenced bit is set; the hand should prefer
        // evicting k1 (referenced bit already cleared by the sweep).
        assert!(cache.get(&k0).is_some());
        cache.insert(k2.clone(), &payload(16, 1, 2.0), 9);
        assert_eq!(entries(&cache), 2);
        assert!(cache.resident_bytes() <= cost * 2);
        assert!(cache.contains(&k2));
        assert!(cache.stats().evictions >= 1);
    }

    #[test]
    fn evicted_arc_stays_valid_for_in_flight_readers() {
        let p = payload(16, 1, 0.5);
        let cost = p.cost();
        let cache = hot_cache(cost, 1);
        let k0 = CacheKey::new("ds", "t", 0);
        cache.insert(k0.clone(), &p, 9);
        let held = cache.get(&k0).expect("resident");
        // Force k0 out.
        cache.insert(CacheKey::new("ds", "t", 1), &payload(16, 1, 0.75), 9);
        cache.insert(CacheKey::new("ds", "t", 2), &payload(16, 1, 0.85), 9);
        assert!(!cache.contains(&k0));
        // The handle taken before eviction still reads the original bytes.
        assert_eq!(*held, *p);
    }

    #[test]
    fn invalidate_dataset_only_touches_that_dataset() {
        let cache = hot_cache(1 << 20, 4);
        for d in 0..4u64 {
            cache.insert(CacheKey::new("a", "t", d), &payload(4, 1, 0.0), 9);
            cache.insert(CacheKey::new("b", "t", d), &payload(4, 1, 0.0), 9);
        }
        assert_eq!(entries(&cache), 8);
        cache.invalidate_dataset("a");
        assert_eq!(entries(&cache), 4);
        for d in 0..4u64 {
            assert!(!cache.contains(&CacheKey::new("a", "t", d)));
            assert!(cache.contains(&CacheKey::new("b", "t", d)));
        }
    }

    #[test]
    fn resident_hwm_tracks_peak() {
        let p = payload(16, 1, 0.0);
        let cost = p.cost();
        let cache = hot_cache(cost * 2, 1);
        cache.insert(CacheKey::new("ds", "t", 0), &payload(16, 1, 0.0), 9);
        cache.insert(CacheKey::new("ds", "t", 1), &payload(16, 1, 0.0), 9);
        cache.invalidate_dataset("ds");
        let stats = cache.stats();
        assert_eq!(stats.resident_bytes, 0);
        assert_eq!(stats.resident_hwm, cost * 2);
    }

    /// A two-chunk payload with only the given chunks resident.
    fn partial(natoms: usize, resident: &[bool], fill: f32) -> Arc<DecodedDropping> {
        let chunks = resident
            .iter()
            .map(|&r| r.then(|| Arc::new(vec![frame(natoms, fill), frame(natoms, fill)])))
            .collect();
        Arc::new(DecodedDropping::from_chunks(
            vec![2; resident.len()],
            chunks,
            natoms,
        ))
    }

    #[test]
    fn partial_payloads_cost_only_resident_chunks() {
        let half = partial(8, &[true, false], 0.0);
        let full = partial(8, &[true, true], 0.0);
        assert_eq!(half.cost() * 2, full.cost());
        assert!(!half.is_complete());
        assert!(full.is_complete());
        assert_eq!(half.nframes(), 4);
        // Frame lookup respects residency.
        assert!(half.frame(1).is_some());
        assert!(half.frame(2).is_none());
        assert!(half.has_frames(&[0, 1]));
        assert!(!half.has_frames(&[0, 3]));
        assert!(full.has_frames(&[0, 1, 2, 3]));
        assert_eq!(full.nframes(), 4);
    }

    #[test]
    fn the_cost_field_equals_the_frame_walk() {
        let walk = |p: &DecodedDropping| -> u64 {
            (0..p.nchunks())
                .filter_map(|i| p.chunk(i))
                .flat_map(|c| c.iter())
                .map(|f| f.nbytes() as u64)
                .sum()
        };
        // Chunks of different frame counts and atom counts, so a cost taken
        // from the layout or from one chunk would differ from the walk.
        let chunk = |nframes: usize, natoms: usize| {
            Arc::new(
                (0..nframes)
                    .map(|_| frame(natoms, 0.25))
                    .collect::<Vec<_>>(),
            )
        };
        let layout = vec![3, 1, 2];
        let resident = [
            [true, true, true],
            [true, false, true],
            [false, true, false],
            [false, false, false],
        ];
        for mask in resident {
            let chunks = layout
                .iter()
                .zip(mask)
                .zip([4, 9, 16])
                .map(|((&n, r), natoms)| r.then(|| chunk(n as usize, natoms)))
                .collect();
            let p = DecodedDropping::from_chunks(layout.clone(), chunks, 4);
            assert_eq!(p.cost(), walk(&p), "resident {:?}", mask);
            assert_eq!(p.is_complete(), mask.iter().all(|&r| r));
        }
        let complete = payload(12, 5, 1.0);
        assert!(complete.is_complete());
        assert_eq!(complete.cost(), walk(&complete));
        assert_eq!(complete.cost(), 5 * frame(12, 1.0).nbytes() as u64);
        assert_eq!(payload(12, 0, 1.0).cost(), 0);
    }

    #[test]
    fn richer_payload_upgrades_the_resident_entry() {
        let cache = hot_cache(1 << 20, 1);
        let key = CacheKey::new("ds", "t", 0);
        let half = partial(8, &[true, false], 0.5);
        assert_eq!(cache.insert(key.clone(), &half, 9), Admission::Admitted);
        assert_eq!(cache.resident_bytes(), half.cost());
        // A full payload for the same key replaces the partial one.
        let full = partial(8, &[true, true], 0.5);
        assert_eq!(cache.insert(key.clone(), &full, 9), Admission::Admitted);
        assert_eq!(cache.resident_bytes(), full.cost());
        assert!(cache.get(&key).unwrap().is_complete());
        // Re-offering the poorer payload does not downgrade.
        assert_eq!(cache.insert(key.clone(), &half, 9), Admission::Admitted);
        assert!(cache.get(&key).unwrap().is_complete());
        assert_eq!(entries(&cache), 1);
    }

    #[test]
    fn shard_hash_is_deterministic() {
        let a = CacheKey::new("ds", "protein", 7).shard_hash();
        let b = CacheKey::new("ds", "protein", 7).shard_hash();
        let c = CacheKey::new("ds", "protein", 8).shard_hash();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}

#[cfg(test)]
mod props {
    use super::tests::hot_cache;
    use super::*;
    use proptest::prelude::*;

    fn payload_of(natoms: usize, nframes: usize, fill: f32) -> Arc<DecodedDropping> {
        Arc::new(DecodedDropping::complete(
            (0..nframes)
                .map(|i| {
                    let mut f = Frame::from_coords(vec![[fill, fill + i as f32, fill]; natoms]);
                    f.step = i as i32;
                    f
                })
                .collect(),
            natoms,
        ))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Resident bytes never exceed the budget at quiescence, no
        /// matter the op sequence.
        #[test]
        fn resident_bytes_within_budget(
            shards in 1usize..5,
            budget_units in 1u64..16,
            ops in prop::collection::vec((0u8..3, 0u64..24, 1usize..5), 1..120),
        ) {
            let unit = payload_of(8, 1, 0.0).cost();
            let cache = hot_cache(unit * budget_units, shards);
            for (op, dropping, nframes) in ops {
                let key = CacheKey::new("ds", "t", dropping);
                match op {
                    0 => {
                        let _ = cache.insert(key, &payload_of(8, nframes, dropping as f32), 9);
                    }
                    1 => {
                        let _ = cache.get(&key);
                    }
                    _ => cache.invalidate_dataset("ds"),
                }
                prop_assert!(cache.resident_bytes() <= unit * budget_units,
                    "resident {} > budget {}", cache.resident_bytes(), unit * budget_units);
            }
        }

        /// An evicted key misses until reinserted; a resident key hits
        /// with byte-identical frames.
        #[test]
        fn hits_are_byte_identical_and_evictions_final(
            keys in prop::collection::vec(0u64..12, 2..40),
        ) {
            // Budget for exactly 3 single-frame payloads in one shard.
            let unit = payload_of(8, 1, 0.0).cost();
            let cache = hot_cache(unit * 3, 1);
            for dropping in keys {
                let key = CacheKey::new("ds", "t", dropping);
                let fresh = payload_of(8, 1, dropping as f32);
                match cache.get(&key) {
                    Some(hit) => {
                        // Hit ⇒ byte-identical to what decode would yield.
                        prop_assert_eq!(&*hit, &*fresh);
                    }
                    None => {
                        let _ = cache.insert(key.clone(), &fresh, 9);
                    }
                }
                // A key reported absent stays absent until reinserted:
                // contains() and get() must agree.
                let c = cache.contains(&key);
                let g = cache.get(&key).is_some();
                prop_assert_eq!(c, g);
            }
            prop_assert!(cache.resident_bytes() <= unit * 3);
        }
    }
}
