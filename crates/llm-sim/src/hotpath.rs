//! The concurrent LLM hot path: prompt fingerprints, a lock-striped sharded
//! LRU response cache, and singleflight request coalescing.
//!
//! Every completion in the system — whether it enters through `lingua-serve`,
//! `lingua-gateway`, or a bare [`crate::SimLlm`] — funnels through this
//! machinery. The design goals, in order:
//!
//! 1. **No global serialization.** The old hot path took one `Mutex<State>`
//!    per call for the cache lookup, the FIFO eviction bookkeeping, *and* the
//!    usage metering, so eight workers degenerated to a convoy. Here the
//!    cache is striped across shards (each with its own lock) and metering
//!    lives in atomics ([`crate::cost::AtomicUsage`]), so two calls only
//!    contend when their prompts land on the same shard.
//! 2. **Hash once.** A prompt's 64-bit FNV-1a [`fingerprint`] is computed at
//!    most once per call chain ([`crate::CompletionRequest::fingerprint`]
//!    memoizes it), then reused by the gateway's stale cache, the simulator's
//!    response cache, and the fault injector — the layers stop re-hashing
//!    the same bytes.
//! 3. **Compute once.** Concurrent identical prompts coalesce through
//!    `Singleflight`: one leader computes, followers wait and share the
//!    leader's `Arc`'d response, booked as cache savings.
//! 4. **Determinism survives.** Sharding changes *where* a response is
//!    cached and *who* computes it, never *what* is computed: responses stay
//!    a pure function of `(seed, prompt)`, so the calibration and
//!    golden-trace suites see byte-identical outputs.

use lingua_ml::sync::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The canonical 64-bit prompt fingerprint and its incremental hasher:
/// FNV-1a, defined once in `lingua-ml` and re-exported here for the serving
/// layers. Bit-identical to the key `lingua-gateway` has always used for
/// backoff jitter and fault-plan decisions (`prompt_key`), so replayed chaos
/// schedules depend on these values never changing.
pub use lingua_ml::fnv::{fingerprint, Fnv1a};

/// Point-in-time counters of a [`ShardedLru`] (plus the coalescing counter
/// its owner folds in). Snapshots read atomics only — they never take a
/// shard lock, so observing a busy cache cannot stall its writers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Inserts of a key not currently cached.
    pub insertions: u64,
    /// Inserts that overwrote a live entry (a racing recompute).
    pub updates: u64,
    /// Entries that left the cache: displaced to respect the capacity
    /// bound, or taken out by [`ShardedLru::remove_if`].
    pub evictions: u64,
    /// Entries currently cached, pinned ones included.
    pub len: usize,
    /// Calls that coalesced onto an in-flight identical computation
    /// (filled by the cache's owner from its `Singleflight`).
    pub coalesced: u64,
}

const NIL: usize = usize::MAX;

struct Slot<V> {
    key: u64,
    value: V,
    prev: usize,
    next: usize,
    /// Reserved by [`ShardedLru::get_or_reserve`] and not stored since: off
    /// the recency list, so never evicted.
    pinned: bool,
}

/// One shard: an O(1) LRU over a slab-backed intrusive list. `head` is the
/// most recently used entry, `tail` the eviction candidate. Pinned entries
/// are in `map` but not on the list, and not counted against `capacity`.
struct LruShard<V> {
    capacity: usize,
    map: HashMap<u64, usize>,
    slots: Vec<Slot<V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    pinned: usize,
}

impl<V> LruShard<V> {
    fn new(capacity: usize) -> LruShard<V> {
        LruShard {
            capacity,
            map: HashMap::with_capacity(capacity.min(1024)),
            slots: Vec::with_capacity(capacity.min(1024)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            pinned: 0,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            h => self.slots[h].prev = idx,
        }
        self.head = idx;
    }

    /// Make `idx` the most recently used entry. A pinned entry has no
    /// place on the list, so it stays off it.
    fn touch(&mut self, idx: usize) {
        if self.head != idx && !self.slots[idx].pinned {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    /// Insert or refresh `key`; refreshing a pinned entry stores it, and
    /// a zero-capacity shard displaces it at once.
    fn insert(&mut self, key: u64, value: V) -> InsertOutcome {
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx].value = value;
            if !self.slots[idx].pinned {
                self.touch(idx);
                return InsertOutcome::Updated { evicted: false };
            }
            if self.capacity == 0 {
                self.remove(idx);
                return InsertOutcome::Updated { evicted: true };
            }
            let evicted = self.make_room();
            self.slots[idx].pinned = false;
            self.pinned -= 1;
            self.push_front(idx);
            return InsertOutcome::Updated { evicted };
        }
        if self.capacity == 0 {
            return InsertOutcome::Noop;
        }
        let evicted = self.make_room();
        let idx = self.alloc(Slot { key, value, prev: NIL, next: NIL, pinned: false });
        self.map.insert(key, idx);
        self.push_front(idx);
        InsertOutcome::Inserted { evicted }
    }

    /// Pin `value` under `key`, which is absent.
    fn pin(&mut self, key: u64, value: V) {
        let idx = self.alloc(Slot { key, value, prev: NIL, next: NIL, pinned: true });
        self.map.insert(key, idx);
        self.pinned += 1;
    }

    /// Displace the LRU entry if the stored entries fill the capacity, and
    /// say whether it did.
    fn make_room(&mut self) -> bool {
        if self.map.len() - self.pinned < self.capacity {
            return false;
        }
        let victim = self.tail;
        debug_assert_ne!(victim, NIL, "full shard has a tail");
        self.remove(victim);
        true
    }

    /// Drop the entry at `idx`. Its slot goes on the free list, and its
    /// value is dropped when the next entry reuses the slot.
    fn remove(&mut self, idx: usize) {
        if self.slots[idx].pinned {
            self.pinned -= 1;
        } else {
            self.unlink(idx);
        }
        let key = self.slots[idx].key;
        self.map.remove(&key);
        self.free.push(idx);
    }

    fn alloc(&mut self, slot: Slot<V>) -> usize {
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = slot;
                idx
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        }
    }
}

/// What an [`LruShard::insert`] actually did, so the owning [`ShardedLru`]
/// only counts events that happened (a zero-capacity shard stores nothing
/// and must report nothing, or `insertions == len + evictions` breaks).
enum InsertOutcome {
    /// Capacity is zero: nothing was stored.
    Noop,
    /// The key was live; its value was refreshed in place, and a pinned
    /// entry stored, displacing the shard's LRU entry if full.
    Updated { evicted: bool },
    /// A new entry was stored, displacing the shard's LRU entry if full.
    Inserted { evicted: bool },
}

/// What [`ShardedLru::get_or_reserve`] found under its key.
#[derive(Debug, Clone, PartialEq)]
pub enum Reserved<V> {
    /// Nothing: the new value, now pinned under the key.
    Fresh(V),
    /// A value an earlier reservation pinned and nothing has stored since.
    Pinned(V),
    /// A stored value, now the most recently used.
    Stored(V),
}

struct Shard<V> {
    lru: Mutex<LruShard<V>>,
    /// Mirrors `lru.map.len()` so `len()` snapshots never take the lock.
    len: AtomicUsize,
}

/// A lock-striped sharded LRU cache keyed by precomputed 64-bit
/// fingerprints.
///
/// The total `capacity` is partitioned across the shards exactly (the first
/// `capacity % shards` shards hold one extra slot), so the cache as a whole
/// **never** stores more than `capacity` entries — the bound sharding must
/// not relax. The shard count is clamped to the capacity so no shard
/// degenerates to zero slots while others starve.
///
/// [`ShardedLru::get_or_reserve`] can also *pin* an entry: a reservation
/// kept off the recency list and outside the bound, so nothing evicts it,
/// until [`ShardedLru::insert`] stores it or [`ShardedLru::remove_if`] takes
/// it out. `len` counts pinned entries too, and a zero-capacity cache pins
/// as any other does but stores nothing.
pub struct ShardedLru<V> {
    shards: Box<[Shard<V>]>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    updates: AtomicU64,
    evictions: AtomicU64,
}

/// Default shard count: enough stripes that 8 workers rarely collide, cheap
/// enough that a tiny cache is not fragmented.
pub const DEFAULT_SHARDS: usize = 16;

impl<V: Clone> ShardedLru<V> {
    pub fn new(capacity: usize, shards: usize) -> ShardedLru<V> {
        let shards = shards.max(1).min(capacity.max(1));
        let base = capacity / shards;
        let extra = capacity % shards;
        let shards: Vec<Shard<V>> = (0..shards)
            .map(|i| Shard {
                lru: Mutex::new(LruShard::new(base + usize::from(i < extra))),
                len: AtomicUsize::new(0),
            })
            .collect();
        ShardedLru {
            shards: shards.into_boxed_slice(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Which shard a fingerprint lands on. The fingerprint is
    /// Fibonacci-mixed first so shard choice uses different bits than the
    /// in-shard `HashMap` does.
    fn shard(&self, key: u64) -> &Shard<V> {
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(mixed as usize) % self.shards.len()]
    }

    /// Look `key` up, refreshing its recency on a hit.
    pub fn get(&self, key: u64) -> Option<V> {
        let shard = self.shard(key);
        let mut lru = shard.lru.lock();
        match lru.map.get(&key).copied() {
            Some(idx) => {
                lru.touch(idx);
                let value = lru.slots[idx].value.clone();
                drop(lru);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                drop(lru);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) `key`, evicting the shard's LRU entry at
    /// capacity.
    pub fn insert(&self, key: u64, value: V) {
        let shard = self.shard(key);
        let mut lru = shard.lru.lock();
        let outcome = lru.insert(key, value);
        // The len mirror must be stored while the shard lock is still held:
        // publishing it after unlock would let two racing inserts land their
        // stores out of lock order, leaving a stale (smaller) len visible
        // forever and breaking `insertions == len + evictions`.
        shard.len.store(lru.map.len(), Ordering::Relaxed);
        drop(lru);
        let evicted = match outcome {
            InsertOutcome::Noop => false,
            InsertOutcome::Updated { evicted } => {
                self.updates.fetch_add(1, Ordering::Relaxed);
                evicted
            }
            InsertOutcome::Inserted { evicted } => {
                self.insertions.fetch_add(1, Ordering::Relaxed);
                evicted
            }
        };
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Look `key` up, or pin `make()` under it, in one shard lock (which
    /// `make` runs under). A hit refreshes a stored entry's recency. A pin
    /// takes no room, so a zero-capacity cache pins too.
    pub fn get_or_reserve(&self, key: u64, make: impl FnOnce() -> V) -> Reserved<V> {
        let shard = self.shard(key);
        let mut lru = shard.lru.lock();
        if let Some(&idx) = lru.map.get(&key) {
            lru.touch(idx);
            let slot = &lru.slots[idx];
            let found = match slot.pinned {
                true => Reserved::Pinned(slot.value.clone()),
                false => Reserved::Stored(slot.value.clone()),
            };
            drop(lru);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return found;
        }
        let value = make();
        lru.pin(key, value.clone());
        shard.len.store(lru.map.len(), Ordering::Relaxed);
        drop(lru);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        Reserved::Fresh(value)
    }

    /// Remove `key`, pinned or stored, if its value satisfies `pred`, and
    /// say whether it did. A removal counts as an eviction, so
    /// `insertions == len + evictions` still holds.
    pub fn remove_if(&self, key: u64, pred: impl FnOnce(&V) -> bool) -> bool {
        let shard = self.shard(key);
        let mut lru = shard.lru.lock();
        match lru.map.get(&key) {
            Some(&idx) if pred(&lru.slots[idx].value) => lru.remove(idx),
            _ => return false,
        }
        shard.len.store(lru.map.len(), Ordering::Relaxed);
        drop(lru);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Entries currently cached. Reads per-shard atomics only — never blocks
    /// a writer.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len.load(Ordering::Relaxed)).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lock-free counter snapshot (`coalesced` is left to the owner).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.len(),
            coalesced: 0,
        }
    }
}

/// Outcome of a [`Singleflight::join`].
pub(crate) enum Flight<V> {
    /// This caller computed the value (and was billed for it).
    Led(V),
    /// This caller attached to a concurrent identical computation and shares
    /// its result — a cache saving, not a billed call.
    Coalesced(V),
}

enum FlightState<V> {
    /// The leader is still computing.
    Pending,
    /// The leader published; followers clone this.
    Published(V),
    /// The leader unwound before publishing; followers retry as leaders.
    Aborted,
}

struct FlightCell<V> {
    result: Mutex<FlightState<V>>,
    ready: Condvar,
}

/// Request coalescing: concurrent calls for the same key compute once.
///
/// The first caller for a key becomes the *leader* and runs `compute`;
/// callers arriving while the leader is in flight become *followers* and
/// block until the leader publishes. Followers of a deterministic service
/// receive exactly the bytes they would have computed, so coalescing is
/// invisible except in the bill. A leader publishes before it unregisters,
/// so a follower can never be stranded by a completed flight.
///
/// Panic safety: a leader whose `compute` unwinds (a panicking module
/// somewhere beneath the LLM call) marks the flight `Aborted` and wakes
/// every follower on its way out, via a drop guard that runs during
/// unwinding. Followers of an aborted flight loop back and re-contend —
/// one becomes the new leader and recomputes. The panic itself propagates
/// to the leader's caller (serve's `catch_unwind` isolation); no thread is
/// ever left blocked on a dead flight.
pub(crate) struct Singleflight<V> {
    inflight: Mutex<HashMap<u64, Arc<FlightCell<V>>>>,
    coalesced: AtomicU64,
}

/// Unregisters a leader's flight and wakes followers if the leader unwinds
/// before publishing. Disarmed on the successful path.
struct AbortGuard<'a, V> {
    flights: &'a Singleflight<V>,
    key: u64,
    armed: bool,
}

impl<V> Drop for AbortGuard<'_, V> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let cell = self.flights.inflight.lock().remove(&self.key);
        if let Some(cell) = cell {
            *cell.result.lock() = FlightState::Aborted;
            cell.ready.notify_all();
        }
    }
}

impl<V> Default for Singleflight<V> {
    fn default() -> Self {
        Singleflight { inflight: Mutex::new(HashMap::new()), coalesced: AtomicU64::new(0) }
    }
}

impl<V: Clone> Singleflight<V> {
    pub(crate) fn new() -> Singleflight<V> {
        Singleflight::default()
    }

    /// Calls coalesced onto another caller's flight so far.
    pub(crate) fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    pub(crate) fn join(&self, key: u64, compute: impl FnOnce() -> V) -> Flight<V> {
        let mut compute = Some(compute);
        loop {
            let existing = {
                let mut inflight = self.inflight.lock();
                match inflight.entry(key) {
                    std::collections::hash_map::Entry::Occupied(cell) => {
                        Some(Arc::clone(cell.get()))
                    }
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(Arc::new(FlightCell {
                            result: Mutex::new(FlightState::Pending),
                            ready: Condvar::new(),
                        }));
                        None
                    }
                }
            };
            if let Some(cell) = existing {
                let mut state = cell.result.lock();
                loop {
                    match &*state {
                        FlightState::Pending => state = cell.ready.wait(state),
                        FlightState::Published(value) => {
                            self.coalesced.fetch_add(1, Ordering::Relaxed);
                            return Flight::Coalesced(value.clone());
                        }
                        FlightState::Aborted => break,
                    }
                }
                // The leader unwound before publishing: re-contend. Whoever
                // wins the next registration recomputes.
                continue;
            }
            // Leader. If `compute` unwinds, the guard aborts the flight so
            // followers retry instead of waiting forever.
            let mut guard = AbortGuard { flights: self, key, armed: true };
            let value = (compute.take().expect("leader path runs at most once"))();
            // Publish to waiting followers *before* unregistering, so a
            // follower holding the cell always finds a result; unregistering
            // only affects later arrivals, which become fresh leaders (and
            // likely cache-hit).
            {
                let cell = {
                    let inflight = self.inflight.lock();
                    Arc::clone(inflight.get(&key).expect("leader's flight is registered"))
                };
                *cell.result.lock() = FlightState::Published(value.clone());
                cell.ready.notify_all();
            }
            self.inflight.lock().remove(&key);
            guard.armed = false;
            return Flight::Led(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingua_ml::check::check;
    use std::sync::Barrier;

    #[test]
    fn lru_evicts_least_recently_used_not_oldest() {
        let cache: ShardedLru<u32> = ShardedLru::new(2, 1);
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert_eq!(cache.get(1), Some(10)); // refresh 1: now 2 is LRU
        cache.insert(3, 30);
        assert_eq!(cache.get(2), None, "2 was least recently used");
        assert_eq!(cache.get(1), Some(10));
        assert_eq!(cache.get(3), Some(30));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.insertions, 3);
        assert_eq!(stats.len, 2);
    }

    #[test]
    fn reinserting_a_live_key_updates_in_place() {
        let cache: ShardedLru<u32> = ShardedLru::new(2, 1);
        cache.insert(1, 10);
        cache.insert(1, 11);
        assert_eq!(cache.get(1), Some(11));
        let stats = cache.stats();
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.updates, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.len, 1);
    }

    #[test]
    fn zero_capacity_stores_nothing_and_counts_nothing() {
        let cache: ShardedLru<u32> = ShardedLru::new(0, 8);
        cache.insert(1, 10);
        cache.insert(1, 11);
        assert_eq!(cache.get(1), None);
        assert_eq!(cache.len(), 0);
        let stats = cache.stats();
        assert_eq!(stats.insertions, 0, "a no-op insert must not be counted");
        assert_eq!(stats.updates, 0);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.insertions, stats.len as u64 + stats.evictions, "conservation holds");
    }

    #[test]
    fn shard_count_is_clamped_to_capacity() {
        let cache: ShardedLru<u32> = ShardedLru::new(3, 16);
        assert_eq!(cache.shards.len(), 3);
        for key in 0..100u64 {
            cache.insert(key, key as u32);
            assert!(cache.len() <= 3, "capacity bound holds at every step");
        }
    }

    #[test]
    fn capacity_partitions_exactly_across_shards() {
        // 10 slots over 4 shards: 3+3+2+2. Filling every shard to the brim
        // can never exceed the configured total.
        let cache: ShardedLru<u64> = ShardedLru::new(10, 4);
        for key in 0..10_000u64 {
            cache.insert(key, key);
        }
        assert!(cache.len() <= 10);
    }

    #[test]
    fn get_or_reserve_pins_a_fresh_key_and_finds_a_live_one() {
        let cache: ShardedLru<u32> = ShardedLru::new(1, 1);
        assert_eq!(cache.get_or_reserve(1, || 10), Reserved::Fresh(10));
        assert_eq!(cache.get_or_reserve(1, || unreachable!("1 is pinned")), Reserved::Pinned(10));
        // A pin takes no room: two pins and a stored entry share one slot.
        assert_eq!(cache.get_or_reserve(2, || 20), Reserved::Fresh(20));
        cache.insert(3, 30);
        cache.insert(4, 40);
        assert_eq!(cache.get(3), None, "the stored entries respect the bound");
        assert_eq!((cache.get(1), cache.get(2)), (Some(10), Some(20)), "no pin was evicted");
        // Storing a pin makes it the stored entry, displacing 4.
        cache.insert(1, 11);
        assert_eq!(cache.get_or_reserve(1, || unreachable!("1 is stored")), Reserved::Stored(11));
        assert_eq!(cache.get(4), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (4, 4), "two reserves and two gets missed");
        assert_eq!((stats.insertions, stats.updates), (4, 1));
        assert_eq!((stats.evictions, stats.len), (2, 2), "1 stored, 2 pinned");
    }

    #[test]
    fn remove_if_takes_out_only_the_value_the_predicate_names() {
        let cache: ShardedLru<u32> = ShardedLru::new(4, 1);
        cache.insert(1, 10);
        cache.get_or_reserve(2, || 20);
        assert!(!cache.remove_if(1, |v| *v == 11), "another value under the key stays");
        assert!(!cache.remove_if(9, |_| true), "an absent key removes nothing");
        assert!(cache.remove_if(1, |v| *v == 10));
        assert!(cache.remove_if(2, |v| *v == 20), "a pinned entry is removed too");
        assert_eq!((cache.get(1), cache.get(2)), (None, None));
        cache.insert(3, 30);
        assert_eq!(cache.get(3), Some(30), "a freed slot is reused");
        let stats = cache.stats();
        assert_eq!((stats.insertions, stats.evictions, stats.len), (3, 2, 1));
        assert_eq!(stats.insertions, stats.len as u64 + stats.evictions, "conservation holds");
    }

    #[test]
    fn zero_capacity_pins_but_stores_nothing() {
        let cache: ShardedLru<u32> = ShardedLru::new(0, 8);
        assert_eq!(cache.get_or_reserve(1, || 10), Reserved::Fresh(10));
        assert_eq!(cache.get_or_reserve(1, || 11), Reserved::Pinned(10));
        cache.insert(1, 12);
        assert_eq!(cache.get(1), None, "storing the pin displaced it");
        assert_eq!(cache.get_or_reserve(2, || 20), Reserved::Fresh(20));
        assert!(cache.remove_if(2, |_| true));
        cache.insert(3, 30);
        let stats = cache.stats();
        assert_eq!((stats.insertions, stats.updates, stats.evictions, stats.len), (2, 1, 2, 0));
    }

    #[test]
    fn singleflight_coalesces_concurrent_identical_keys() {
        let flights: Arc<Singleflight<u64>> = Arc::new(Singleflight::new());
        let computes = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let flights = Arc::clone(&flights);
                let computes = Arc::clone(&computes);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    match flights.join(42, || {
                        // Widen the in-flight window so followers really race
                        // into it.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        computes.fetch_add(1, Ordering::Relaxed);
                        7u64
                    }) {
                        Flight::Led(v) | Flight::Coalesced(v) => v,
                    }
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), 7);
        }
        let led = computes.load(Ordering::Relaxed);
        assert!(led >= 1, "someone computed");
        assert_eq!(flights.coalesced() + led, 8, "every call either led or coalesced");
    }

    #[test]
    fn singleflight_panicked_leader_does_not_strand_followers() {
        let flights: Arc<Singleflight<u64>> = Arc::new(Singleflight::new());
        let attached = Arc::new(Barrier::new(2));
        let leader = {
            let flights = Arc::clone(&flights);
            let attached = Arc::clone(&attached);
            std::thread::spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    flights.join(7, || {
                        attached.wait();
                        // Give the follower time to block on the flight.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        panic!("leader dies mid-flight");
                    })
                }));
                assert!(result.is_err(), "the panic propagates to the leader's caller");
            })
        };
        let follower = {
            let flights = Arc::clone(&flights);
            let attached = Arc::clone(&attached);
            std::thread::spawn(move || {
                attached.wait();
                // Either attaches to the doomed flight, observes the abort,
                // and retries as the new leader — or arrives after the abort
                // and leads directly. Both terminate with the recomputed
                // value; pre-fix, this wait never woke.
                match flights.join(7, || 42u64) {
                    Flight::Led(v) | Flight::Coalesced(v) => v,
                }
            })
        };
        leader.join().unwrap();
        assert_eq!(follower.join().unwrap(), 42);
        // The aborted flight left no residue: the next call leads cleanly.
        assert!(matches!(flights.join(7, || 9u64), Flight::Led(9)));
    }

    #[test]
    fn singleflight_sequential_calls_each_lead() {
        let flights: Singleflight<u64> = Singleflight::new();
        assert!(matches!(flights.join(1, || 5), Flight::Led(5)));
        assert!(matches!(flights.join(1, || 6), Flight::Led(6)));
        assert_eq!(flights.coalesced(), 0);
    }

    /// Reference model for single-shard LRU: keys in recency order, most
    /// recent first.
    fn model_get(model: &mut Vec<u64>, key: u64) -> bool {
        if let Some(pos) = model.iter().position(|&k| k == key) {
            let k = model.remove(pos);
            model.insert(0, k);
            true
        } else {
            false
        }
    }

    fn model_insert(model: &mut Vec<u64>, key: u64, capacity: usize) {
        if capacity == 0 {
            return;
        }
        if let Some(pos) = model.iter().position(|&k| k == key) {
            model.remove(pos);
        } else if model.len() >= capacity {
            model.pop();
        }
        model.insert(0, key);
    }

    /// The sharded cache never exceeds its total capacity, whatever the
    /// shard count and key stream.
    #[test]
    fn sharded_len_never_exceeds_capacity() {
        check(
            "sharded_len_never_exceeds_capacity",
            256,
            |g| (g.int(0usize..48), g.int(1usize..24), g.vec(0..400, |g| g.int(0u64..64))),
            |(capacity, shards, keys)| {
                let cache: ShardedLru<u64> = ShardedLru::new(capacity, shards);
                for key in keys {
                    cache.insert(key, key);
                    assert!(cache.len() <= capacity);
                }
                assert_eq!(cache.len(), cache.stats().len);
            },
        );
    }

    /// With a single shard the cache is an exact LRU: every get and every
    /// eviction matches a reference recency-list model.
    #[test]
    fn single_shard_is_exact_lru() {
        check(
            "single_shard_is_exact_lru",
            256,
            |g| (g.int(1usize..16), g.vec(0..300, |g| (g.bool(), g.int(0u64..32)))),
            |(capacity, ops)| {
                let cache: ShardedLru<u64> = ShardedLru::new(capacity, 1);
                let mut model: Vec<u64> = Vec::new();
                for (is_insert, key) in ops {
                    if is_insert {
                        cache.insert(key, key);
                        model_insert(&mut model, key, capacity);
                    } else {
                        let hit = cache.get(key).is_some();
                        assert_eq!(hit, model_get(&mut model, key));
                    }
                    assert_eq!(cache.len(), model.len());
                }
            },
        );
    }

    /// Reserving, storing and removing keep a one-shard cache an exact LRU
    /// over its stored entries with every pin kept, and keep
    /// `insertions == len + evictions` at any shard count.
    #[test]
    fn pins_are_never_evicted_and_conservation_holds() {
        check(
            "pins_are_never_evicted_and_conservation_holds",
            256,
            |g| {
                let ops = g.vec(0..300, |g| (g.int(0u8..4), g.int(0u64..32)));
                (g.int(0usize..16), g.int(1usize..6), ops)
            },
            |(capacity, shards, ops)| {
                let exact: ShardedLru<u64> = ShardedLru::new(capacity, 1);
                let sharded: ShardedLru<u64> = ShardedLru::new(capacity, shards);
                let (mut stored, mut pinned): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
                // The many-shard cache evicts other keys, so it pins others.
                let mut sharded_pins: Vec<u64> = Vec::new();
                for (op, key) in ops {
                    let is_pinned = pinned.contains(&key);
                    match op {
                        0 => {
                            let found = is_pinned || model_get(&mut stored, key);
                            assert_eq!(exact.get(key).is_some(), found);
                        }
                        1 => {
                            let want = if is_pinned {
                                Reserved::Pinned(key)
                            } else if model_get(&mut stored, key) {
                                Reserved::Stored(key)
                            } else {
                                pinned.push(key);
                                Reserved::Fresh(key)
                            };
                            assert_eq!(exact.get_or_reserve(key, || key), want);
                            if sharded.get_or_reserve(key, || key) == Reserved::Fresh(key) {
                                sharded_pins.push(key);
                            }
                        }
                        2 => {
                            let found = is_pinned || stored.contains(&key);
                            assert_eq!(exact.remove_if(key, |_| true), found);
                            stored.retain(|&k| k != key);
                            sharded.remove_if(key, |_| true);
                        }
                        _ => {
                            exact.insert(key, key);
                            model_insert(&mut stored, key, capacity);
                            sharded.insert(key, key);
                        }
                    }
                    if op >= 2 {
                        pinned.retain(|&k| k != key);
                        sharded_pins.retain(|&k| k != key);
                    }
                    assert_eq!(exact.len(), stored.len() + pinned.len());
                    for (cache, pins) in [(&exact, &pinned), (&sharded, &sharded_pins)] {
                        let stats = cache.stats();
                        assert!(stats.len <= capacity + pins.len());
                        assert_eq!(stats.insertions, stats.len as u64 + stats.evictions);
                    }
                }
                for key in sharded_pins {
                    let found = sharded.get_or_reserve(key, || unreachable!("{key} is pinned"));
                    assert_eq!(found, Reserved::Pinned(key), "no shard evicted a pin");
                }
            },
        );
    }
}
