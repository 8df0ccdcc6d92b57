//! The concurrent context table.
//!
//! CSOD keeps per-context sampling state in "a global hash table … For
//! all contexts that hash to the same value, a linked list is utilized to
//! track these contexts, which has its own lock" (paper Section III-B1).
//! The original reproduction copied that design literally: a fixed array
//! of buckets, each a `Vec` chain guarded by its own lock, scanned
//! linearly. That pays a pointer chase per chain entry and sizes memory
//! by the bucket count, not the population.
//!
//! [`ContextTable`] now improves on the paper's structure the way a
//! production allocator shim would: a fixed set of lock *stripes*, each
//! guarding an **open-addressed** sub-table (linear probing, power-of-two
//! capacity) that grows by occupancy. The stripe is picked from the high
//! bits of the key's hash and the probe position from the same hash
//! modulo the stripe's capacity, so a lookup is one lock plus a short
//! cache-friendly probe — no chain nodes, no per-entry allocation — and
//! memory tracks the number of live contexts instead of a pre-sized
//! bucket array.
//!
//! An owner holding the table as `&mut` skips the lock altogether: the
//! `_mut` twins ([`ContextTable::with_entry_tracked_mut`],
//! [`ContextTable::with_existing_mut`]) reach the stripe through
//! `Mutex::get_mut` and run the same probe body as the locked methods.
//!
//! The table is generic over the per-context payload `V`; the CSOD core
//! instantiates it with its sampling state, and tests instantiate it
//! with counters.

use crate::key::ContextKey;
use parking_lot::Mutex;

/// Default stripe count. Contention on the allocation fast path is
/// spread across this many independent locks; each stripe's
/// open-addressed array then grows with the contexts that actually hash
/// to it ("sized by occupancy").
pub const DEFAULT_BUCKETS: usize = 64;

/// Initial slot count of a stripe the first time a key lands in it.
const STRIPE_INITIAL_CAPACITY: usize = 8;

/// One lock stripe: an open-addressed array with linear probing.
///
/// Entries are never removed (contexts live for the whole run), so
/// probing needs no tombstones: a `None` slot terminates every probe
/// sequence.
#[derive(Debug)]
struct Stripe<V> {
    slots: Vec<Option<(ContextKey, V)>>,
    len: usize,
}

impl<V> Stripe<V> {
    const fn new() -> Self {
        Stripe {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Index of `key` if present, else the empty slot where it belongs.
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

    /// Grows (or first allocates) the slot array and rehashes.
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(STRIPE_INITIAL_CAPACITY);
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

    /// The body of [`ContextTable::with_entry_tracked`] and its
    /// exclusive twin.
    fn entry_tracked<R>(
        &mut self,
        key: ContextKey,
        init: impl FnOnce() -> V,
        f: impl FnOnce(&mut V, bool) -> R,
    ) -> R {
        if !self.slots.is_empty() {
            if let Ok(at) = self.probe(key) {
                let (_, v) = self.slots[at].as_mut().expect("occupied slot");
                return f(v, false);
            }
        }
        if self.needs_growth() {
            self.grow();
        }
        let at = self
            .probe(key)
            .expect_err("key was absent before insertion");
        self.slots[at] = Some((key, init()));
        self.len += 1;
        let (_, v) = self.slots[at].as_mut().expect("just inserted");
        f(v, true)
    }

    /// The body of [`ContextTable::with_existing`] and its exclusive twin.
    fn existing<R>(&mut self, key: ContextKey, f: impl FnOnce(&mut V) -> R) -> Option<R> {
        if self.slots.is_empty() {
            return None;
        }
        let at = self.probe(key).ok()?;
        let (_, v) = self.slots[at].as_mut().expect("occupied slot");
        Some(f(v))
    }
}

/// A striped open-addressed hash table keyed by [`ContextKey`].
///
/// # Examples
///
/// ```
/// use csod_ctx::{ContextKey, ContextTable, FrameTable};
///
/// let frames = FrameTable::new();
/// let key = ContextKey::new(frames.intern("app.c:10"), 0x20);
/// let table: ContextTable<u64> = ContextTable::new();
///
/// // Count allocations from this context.
/// table.with_entry(key, || 0, |count| *count += 1);
/// table.with_entry(key, || 0, |count| *count += 1);
/// assert_eq!(table.get_cloned(key), Some(2));
/// ```
#[derive(Debug)]
pub struct ContextTable<V> {
    stripes: Vec<Mutex<Stripe<V>>>,
}

impl<V> Default for ContextTable<V> {
    fn default() -> Self {
        ContextTable::new()
    }
}

impl<V> ContextTable<V> {
    /// Creates a table with [`DEFAULT_BUCKETS`] stripes.
    pub fn new() -> Self {
        ContextTable::with_buckets(DEFAULT_BUCKETS)
    }

    /// Creates a table with `buckets` lock stripes.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn with_buckets(buckets: usize) -> Self {
        assert!(buckets > 0, "context table needs at least one bucket");
        ContextTable {
            stripes: (0..buckets).map(|_| Mutex::new(Stripe::new())).collect(),
        }
    }

    /// Number of lock stripes.
    pub fn bucket_count(&self) -> usize {
        self.stripes.len()
    }

    fn stripe(&self, key: ContextKey) -> &Mutex<Stripe<V>> {
        &self.stripes[key.bucket(self.stripes.len())]
    }

    fn stripe_mut(&mut self, key: ContextKey) -> &mut Stripe<V> {
        let at = key.bucket(self.stripes.len());
        self.stripes[at].get_mut()
    }

    /// Runs `f` on the entry for `key`, inserting `init()` first if the
    /// key is new. Returns `f`'s result together with whether the entry
    /// was newly created (CSOD captures the full backtrace exactly when
    /// this is `true`).
    pub fn with_entry<R>(
        &self,
        key: ContextKey,
        init: impl FnOnce() -> V,
        f: impl FnOnce(&mut V) -> R,
    ) -> R {
        self.with_entry_tracked(key, init, |v, _| f(v))
    }

    /// Like [`ContextTable::with_entry`], but `f` also receives `true`
    /// when the entry was just inserted.
    pub fn with_entry_tracked<R>(
        &self,
        key: ContextKey,
        init: impl FnOnce() -> V,
        f: impl FnOnce(&mut V, bool) -> R,
    ) -> R {
        self.stripe(key).lock().entry_tracked(key, init, f)
    }

    /// [`ContextTable::with_entry_tracked`] through exclusive access:
    /// the stripe is reached with `Mutex::get_mut`, so no lock is taken.
    pub fn with_entry_tracked_mut<R>(
        &mut self,
        key: ContextKey,
        init: impl FnOnce() -> V,
        f: impl FnOnce(&mut V, bool) -> R,
    ) -> R {
        self.stripe_mut(key).entry_tracked(key, init, f)
    }

    /// Runs `f` on the entry for `key` if present.
    pub fn with_existing<R>(&self, key: ContextKey, f: impl FnOnce(&mut V) -> R) -> Option<R> {
        self.stripe(key).lock().existing(key, f)
    }

    /// [`ContextTable::with_existing`] through exclusive access, taking
    /// no lock.
    pub fn with_existing_mut<R>(
        &mut self,
        key: ContextKey,
        f: impl FnOnce(&mut V) -> R,
    ) -> Option<R> {
        self.stripe_mut(key).existing(key, f)
    }

    /// Whether `key` has an entry.
    pub fn contains(&self, key: ContextKey) -> bool {
        let stripe = self.stripe(key).lock();
        !stripe.slots.is_empty() && stripe.probe(key).is_ok()
    }

    /// Total number of entries (locks each stripe in turn).
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().len).sum()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every entry; stripes are locked one at a time, so the view
    /// is per-stripe consistent (sufficient for end-of-run reporting).
    pub fn for_each(&self, mut f: impl FnMut(ContextKey, &V)) {
        for stripe in &self.stripes {
            for (k, v) in stripe.lock().slots.iter().flatten() {
                f(*k, v);
            }
        }
    }

    /// Visits every entry mutably.
    pub fn for_each_mut(&self, mut f: impl FnMut(ContextKey, &mut V)) {
        for stripe in &self.stripes {
            for (k, v) in stripe.lock().slots.iter_mut().flatten() {
                f(*k, v);
            }
        }
    }

    /// The population of the fullest stripe — the load-spread metric;
    /// near `len / bucket_count` when the hash spreads keys well.
    pub fn max_bucket_load(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().len).max().unwrap_or(0)
    }

    /// Total slots allocated across all stripes (capacity metric: this
    /// tracks occupancy, not a pre-sized bucket array).
    pub fn capacity(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().slots.len()).sum()
    }
}

impl<V: Clone> ContextTable<V> {
    /// Clones the entry for `key`, if any.
    pub fn get_cloned(&self, key: ContextKey) -> Option<V> {
        self.with_existing(key, |v| v.clone())
    }

    /// Snapshots all entries into a vector, locking each stripe once.
    pub fn snapshot(&self) -> Vec<(ContextKey, V)> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            let stripe = stripe.lock();
            out.reserve(stripe.len);
            out.extend(stripe.slots.iter().flatten().cloned());
        }
        out
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
        let table: ContextTable<u32> = ContextTable::new();
        let k = key(&frames, "a.c:1", 0);
        let fresh = table.with_entry_tracked(k, || 0, |_, fresh| fresh);
        assert!(fresh);
        let fresh = table.with_entry_tracked(
            k,
            || 0,
            |v, fresh| {
                *v += 5;
                fresh
            },
        );
        assert!(!fresh);
        assert_eq!(table.get_cloned(k), Some(5));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn with_existing_on_absent_key() {
        let frames = FrameTable::new();
        let table: ContextTable<u32> = ContextTable::new();
        assert_eq!(table.with_existing(key(&frames, "a.c:1", 0), |_| ()), None);
        assert!(!table.contains(key(&frames, "a.c:1", 0)));
        assert!(table.is_empty());
    }

    #[test]
    fn single_stripe_holds_all_keys() {
        let frames = FrameTable::new();
        // One stripe forces every key into the same open-addressed array.
        let table: ContextTable<u32> = ContextTable::with_buckets(1);
        for i in 0..10 {
            table.with_entry(key(&frames, &format!("f{i}"), i), || i as u32, |_| ());
        }
        assert_eq!(table.len(), 10);
        assert_eq!(table.max_bucket_load(), 10);
        // Each key still finds its own value.
        for i in 0..10u64 {
            assert_eq!(
                table.get_cloned(key(&frames, &format!("f{i}"), i)),
                Some(i as u32)
            );
        }
    }

    #[test]
    fn stripes_grow_by_occupancy() {
        let frames = FrameTable::new();
        let table: ContextTable<u64> = ContextTable::with_buckets(4);
        assert_eq!(table.capacity(), 0, "empty table allocates nothing");
        for i in 0..400 {
            table.with_entry(key(&frames, &format!("g{i}"), i), || i, |_| ());
        }
        assert_eq!(table.len(), 400);
        let cap = table.capacity();
        // Load factor stays in (1/8, 7/8]: grown, but proportional to
        // the population rather than a pre-sized array.
        assert!(cap >= 400, "capacity {cap} below population");
        assert!(cap <= 400 * 8, "capacity {cap} wildly oversized");
        // Everything is still retrievable after all the rehashes.
        for i in 0..400u64 {
            assert_eq!(table.get_cloned(key(&frames, &format!("g{i}"), i)), Some(i));
        }
    }

    #[test]
    fn for_each_visits_everything() {
        let frames = FrameTable::new();
        let table: ContextTable<u64> = ContextTable::new();
        for i in 0..50 {
            table.with_entry(key(&frames, &format!("s{i}"), 0), || i, |_| ());
        }
        let mut sum = 0;
        table.for_each(|_, v| sum += *v);
        assert_eq!(sum, (0..50).sum::<u64>());
        table.for_each_mut(|_, v| *v = 0);
        assert!(table.snapshot().iter().all(|(_, v)| *v == 0));
    }

    #[test]
    fn exclusive_twins_match_the_locked_methods() {
        let frames = FrameTable::new();
        let shared: ContextTable<u64> = ContextTable::with_buckets(4);
        let mut exclusive: ContextTable<u64> = ContextTable::with_buckets(4);
        for i in 0..300u64 {
            let k = key(&frames, &format!("x{}", i % 40), i % 3);
            let a = shared.with_entry_tracked(k, || i, |v, fresh| (*v, fresh));
            let b = exclusive.with_entry_tracked_mut(k, || i, |v, fresh| (*v, fresh));
            assert_eq!(a, b);
            let a = shared.with_existing(k, |v| std::mem::replace(v, i));
            let b = exclusive.with_existing_mut(k, |v| std::mem::replace(v, i));
            assert_eq!(a, b);
        }
        let absent = key(&frames, "never", 0);
        assert_eq!(exclusive.with_existing_mut(absent, |v| *v), None);
        assert_eq!(shared.snapshot(), exclusive.snapshot());
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        let _: ContextTable<()> = ContextTable::with_buckets(0);
    }

    #[test]
    fn concurrent_counting_is_consistent() {
        let frames = FrameTable::new();
        let table: ContextTable<u64> = ContextTable::with_buckets(8);
        let keys: Vec<ContextKey> = (0..16).map(|i| key(&frames, &format!("k{i}"), 0)).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        for &k in &keys {
                            table.with_entry(k, || 0, |v| *v += 1);
                        }
                    }
                });
            }
        });
        for &k in &keys {
            assert_eq!(table.get_cloned(k), Some(4000));
        }
    }

    #[test]
    fn concurrent_growth_keeps_every_entry() {
        let frames = FrameTable::new();
        let table: ContextTable<u64> = ContextTable::with_buckets(2);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let table = &table;
                let frames = &frames;
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let k = key(frames, &format!("t{t}-i{i}"), t * 1000 + i);
                        table.with_entry(k, || t * 1000 + i, |_| ());
                    }
                });
            }
        });
        assert_eq!(table.len(), 800);
        for t in 0..4u64 {
            for i in 0..200u64 {
                let k = key(&frames, &format!("t{t}-i{i}"), t * 1000 + i);
                assert_eq!(table.get_cloned(k), Some(t * 1000 + i));
            }
        }
    }
}
