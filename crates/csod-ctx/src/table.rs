//! The context table.
//!
//! CSOD keeps per-context sampling state in "a global hash table … For
//! all contexts that hash to the same value, a linked list is utilized to
//! track these contexts, which has its own lock" (paper Section III-B1).
//! The paper's runtime is shared by every thread of the program; here
//! the runtime owns its table and reaches it through `&mut`, so the
//! buckets need no locks.
//!
//! [`ContextTable`] keeps a fixed set of buckets, each an
//! **open-addressed** sub-table (linear probing, power-of-two capacity)
//! that grows by occupancy. Both counts are powers of two: the bucket is
//! picked from the key's hash masked to the bucket count and the probe
//! position from the same hash masked to the bucket's capacity, so a
//! lookup is one short cache-friendly probe — no chain nodes, no
//! per-entry allocation — and memory tracks the number of contexts
//! instead of a pre-sized array.
//!
//! Iteration visits the buckets in order and each bucket's slots in
//! order. That order depends only on the keys and the order they were
//! first inserted, and end-of-run reports follow it, so the layout is
//! part of the table's contract.
//!
//! The table is generic over the per-context payload `V`; the CSOD core
//! instantiates it with dense context ids, and tests instantiate it with
//! counters.

use crate::key::ContextKey;

/// Default bucket count.
pub const DEFAULT_BUCKETS: usize = 64;

/// Initial slot count of a bucket the first time a key lands in it.
const BUCKET_INITIAL_CAPACITY: usize = 8;

/// One bucket: an open-addressed array with linear probing.
///
/// Entries are never removed (contexts live for the whole run), so
/// probing needs no tombstones: a `None` slot terminates every probe
/// sequence.
#[derive(Debug)]
struct Bucket<V> {
    slots: Vec<Option<(ContextKey, V)>>,
    len: usize,
}

impl<V> Bucket<V> {
    /// Index of `key` if present, else the empty slot where it belongs.
    /// The bucket must have slots.
    fn probe(&self, key: ContextKey) -> Result<usize, usize> {
        debug_assert!(self.slots.len().is_power_of_two());
        let mask = self.slots.len() - 1;
        let mut i = (key.hash64() >> 7) as usize & mask;
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k == key => return Ok(i),
                Some(_) => i = (i + 1) & mask,
                None => return Err(i),
            }
        }
    }

    /// Index of `key`, if present.
    fn find(&self, key: ContextKey) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(key).ok()
    }

    /// Grows (or first allocates) the slot array and rehashes.
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(BUCKET_INITIAL_CAPACITY);
        let old = std::mem::take(&mut self.slots);
        self.slots.resize_with(new_cap, || None);
        for entry in old.into_iter().flatten() {
            let at = self
                .probe(entry.0)
                .expect_err("rehash of a distinct key must find a free slot");
            self.slots[at] = Some(entry);
        }
    }

    /// True when inserting one more entry would push the load factor
    /// past ~87.5 % (7/8), the point where linear probing degrades.
    fn needs_growth(&self) -> bool {
        self.slots.is_empty() || (self.len + 1) * 8 > self.slots.len() * 7
    }
}

/// An open-addressed hash table keyed by [`ContextKey`], split into
/// fixed buckets.
///
/// # Examples
///
/// ```
/// use csod_ctx::{ContextKey, ContextTable, FrameTable};
///
/// let frames = FrameTable::new();
/// let key = ContextKey::new(frames.intern("app.c:10"), 0x20);
/// let mut table: ContextTable<u64> = ContextTable::new();
///
/// // Count allocations from this context.
/// let (count, fresh) = table.entry(key, || 0);
/// assert!(fresh);
/// *count += 1;
/// *table.entry(key, || 0).0 += 1;
/// assert_eq!(table.get(key), Some(&2));
/// ```
#[derive(Debug)]
pub struct ContextTable<V> {
    buckets: Vec<Bucket<V>>,
}

impl<V> Default for ContextTable<V> {
    fn default() -> Self {
        ContextTable::new()
    }
}

impl<V> ContextTable<V> {
    /// Creates a table with [`DEFAULT_BUCKETS`] buckets.
    pub fn new() -> Self {
        ContextTable::with_buckets(DEFAULT_BUCKETS)
    }

    /// Creates a table with `buckets` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero or not a power of two.
    pub fn with_buckets(buckets: usize) -> Self {
        assert!(buckets > 0, "context table needs at least one bucket");
        assert!(
            buckets.is_power_of_two(),
            "context table bucket count must be a power of two"
        );
        ContextTable {
            buckets: (0..buckets)
                .map(|_| Bucket {
                    slots: Vec::new(),
                    len: 0,
                })
                .collect(),
        }
    }

    fn bucket(&self, key: ContextKey) -> &Bucket<V> {
        &self.buckets[key.bucket(self.buckets.len())]
    }

    /// The entry for `key`, inserting `init()` first if the key is new,
    /// together with whether it was just inserted (CSOD captures the
    /// full backtrace exactly when this is `true`).
    pub fn entry(&mut self, key: ContextKey, init: impl FnOnce() -> V) -> (&mut V, bool) {
        let at = key.bucket(self.buckets.len());
        let bucket = &mut self.buckets[at];
        let (slot, fresh) = match bucket.find(key) {
            Some(slot) => (slot, false),
            None => {
                if bucket.needs_growth() {
                    bucket.grow();
                }
                let slot = bucket
                    .probe(key)
                    .expect_err("key was absent before insertion");
                bucket.slots[slot] = Some((key, init()));
                bucket.len += 1;
                (slot, true)
            }
        };
        let (_, v) = bucket.slots[slot].as_mut().expect("occupied slot");
        (v, fresh)
    }

    /// The entry for `key`, if present.
    pub fn get(&self, key: ContextKey) -> Option<&V> {
        let bucket = self.bucket(key);
        let (_, v) = bucket.slots[bucket.find(key)?].as_ref()?;
        Some(v)
    }

    /// Every entry, bucket by bucket in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (ContextKey, &V)> {
        self.buckets
            .iter()
            .flat_map(|b| b.slots.iter().flatten())
            .map(|(k, v)| (*k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameTable;

    fn key(frames: &FrameTable, site: &str, off: u64) -> ContextKey {
        ContextKey::new(frames.intern(site), off)
    }

    #[test]
    fn insert_and_update() {
        let frames = FrameTable::new();
        let mut table: ContextTable<u32> = ContextTable::new();
        let k = key(&frames, "a.c:1", 0);
        let (_, fresh) = table.entry(k, || 0);
        assert!(fresh);
        let (v, fresh) = table.entry(k, || 0);
        *v += 5;
        assert!(!fresh);
        assert_eq!(table.get(k), Some(&5));
        assert_eq!(table.iter().count(), 1);
    }

    #[test]
    fn concurrent_counting_is_consistent() {
        // The table takes `&mut self`; writers on several threads share it
        // through a lock, and every count still lands.
        let frames = FrameTable::new();
        let table = std::sync::Mutex::new(ContextTable::<u64>::with_buckets(8));
        let keys: Vec<ContextKey> = (0..16).map(|i| key(&frames, &format!("k{i}"), 0)).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        for &k in &keys {
                            *table.lock().unwrap().entry(k, || 0).0 += 1;
                        }
                    }
                });
            }
        });
        let table = table.into_inner().unwrap();
        for &k in &keys {
            assert_eq!(table.get(k), Some(&4000));
        }
    }

    #[test]
    fn get_on_absent_key() {
        let frames = FrameTable::new();
        let table: ContextTable<u32> = ContextTable::new();
        assert_eq!(table.get(key(&frames, "a.c:1", 0)), None);
        assert_eq!(table.iter().count(), 0);
    }

    #[test]
    fn single_bucket_holds_all_keys() {
        let frames = FrameTable::new();
        // One bucket forces every key into the same open-addressed array.
        let mut table: ContextTable<u32> = ContextTable::with_buckets(1);
        for i in 0..10 {
            table.entry(key(&frames, &format!("f{i}"), i), || i as u32);
        }
        assert_eq!(table.buckets[0].len, 10);
        // Each key still finds its own value.
        for i in 0..10u64 {
            assert_eq!(
                table.get(key(&frames, &format!("f{i}"), i)),
                Some(&(i as u32))
            );
        }
    }

    /// Total slot count over every bucket.
    fn capacity<V>(table: &ContextTable<V>) -> usize {
        table.buckets.iter().map(|b| b.slots.len()).sum()
    }

    #[test]
    fn stripes_grow_by_occupancy() {
        let frames = FrameTable::new();
        let mut table: ContextTable<u64> = ContextTable::with_buckets(4);
        assert_eq!(capacity(&table), 0, "empty table allocates nothing");
        for i in 0..400 {
            table.entry(key(&frames, &format!("g{i}"), i), || i);
        }
        assert_eq!(table.iter().count(), 400);
        let cap = capacity(&table);
        // Load factor stays in (1/8, 7/8]: grown, but proportional to
        // the population rather than a pre-sized array.
        assert!(cap >= 400, "capacity {cap} below population");
        assert!(cap <= 400 * 8, "capacity {cap} wildly oversized");
        // Everything is still retrievable after all the rehashes.
        for i in 0..400u64 {
            assert_eq!(table.get(key(&frames, &format!("g{i}"), i)), Some(&i));
        }
    }

    #[test]
    fn concurrent_growth_keeps_every_entry() {
        // Four writers interleave their inserts through a lock into two
        // buckets, so both rehash many times under mixed keys.
        let frames = FrameTable::new();
        let table = std::sync::Mutex::new(ContextTable::<u64>::with_buckets(2));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let table = &table;
                let frames = &frames;
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let k = key(frames, &format!("t{t}-i{i}"), t * 1000 + i);
                        table.lock().unwrap().entry(k, || t * 1000 + i);
                    }
                });
            }
        });
        let table = table.into_inner().unwrap();
        assert_eq!(table.iter().count(), 800);
        let cap = capacity(&table);
        assert!(cap >= 800, "capacity {cap} below population");
        assert!(cap <= 800 * 8, "capacity {cap} wildly oversized");
        for t in 0..4u64 {
            for i in 0..200u64 {
                let k = key(&frames, &format!("t{t}-i{i}"), t * 1000 + i);
                assert_eq!(table.get(k), Some(&(t * 1000 + i)));
            }
        }
    }

    #[test]
    fn iter_visits_everything() {
        let frames = FrameTable::new();
        let mut table: ContextTable<u64> = ContextTable::new();
        for i in 0..50 {
            table.entry(key(&frames, &format!("s{i}"), 0), || i);
        }
        assert_eq!(table.iter().map(|(_, v)| *v).sum::<u64>(), (0..50).sum());
        for i in 0..50 {
            *table.entry(key(&frames, &format!("s{i}"), 0), || 0).0 = 0;
        }
        assert!(table.iter().all(|(_, v)| *v == 0));
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        let _: ContextTable<()> = ContextTable::with_buckets(0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_buckets_rejected() {
        let _: ContextTable<()> = ContextTable::with_buckets(48);
    }
}
