//! Per-thread generators.
//!
//! The paper observes that both OpenBSD's `arc4random` and glibc's `rand`
//! share one global generator behind a lock, "unnecessarily degrading the
//! performance of multithreaded applications", and changes the port to
//! per-thread generation. This module provides exactly that: each OS
//! thread owns an independent [`Arc4Random`], derived from one
//! process-wide seed plus a per-thread stream id, so there is no shared
//! state and no lock on the allocation fast path.

use crate::generator::Arc4Random;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide seed; per-thread generators derive from it lazily.
static PROCESS_SEED: AtomicU64 = AtomicU64::new(0xC50D_0000_0000_0001);

/// Monotonic stream-id source so every thread gets a distinct stream.
static NEXT_STREAM: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_RNG: RefCell<Arc4Random> = RefCell::new(Arc4Random::from_seed(
        PROCESS_SEED.load(Ordering::Relaxed),
        NEXT_STREAM.fetch_add(1, Ordering::Relaxed),
    ));
}

/// Sets the process-wide seed.
///
/// Only threads whose generator has not been used yet are affected;
/// call this before spawning workers for fully deterministic runs.
pub fn seed_process(seed: u64) {
    PROCESS_SEED.store(seed, Ordering::Relaxed);
}

/// Runs `f` with the calling thread's generator.
///
/// # Examples
///
/// ```
/// let ppm = 500_000; // 50%
/// let decision = csod_rng::with_thread_rng(|rng| rng.chance_ppm(ppm));
/// let _ = decision;
/// ```
pub fn with_thread_rng<R>(f: impl FnOnce(&mut Arc4Random) -> R) -> R {
    THREAD_RNG.with(|cell| f(&mut cell.borrow_mut()))
}

/// Convenience wrapper: the next 32 random bits from the calling
/// thread's generator.
pub fn thread_next_u32() -> u32 {
    with_thread_rng(Arc4Random::next_u32)
}

/// Convenience wrapper: Bernoulli trial on the calling thread's
/// generator. See [`Arc4Random::chance_ppm`].
pub fn thread_chance_ppm(ppm: u32) -> bool {
    with_thread_rng(|rng| rng.chance_ppm(ppm))
}

/// A dense pool of per-thread generators indexed by a small thread id.
///
/// The CSOD runtime simulates threads with dense `u32` ids, so keying
/// the per-thread generators by a `HashMap<ThreadId, Arc4Random>` (as
/// the original fast path did) paid a SipHash hash plus probe on every
/// allocation. `RngSlots` is the pre-resolved handle instead: slot *t*
/// is plain vector index *t*, derived lazily from one process seed plus
/// the thread id as the stream — the same derivation the paper uses for
/// its per-thread `arc4random` port, with O(1) non-hashing access.
///
/// # Examples
///
/// ```
/// use csod_rng::RngSlots;
///
/// let mut slots = RngSlots::new(0xC50D);
/// let first = slots.get(0).next_u32();
/// // Same slot, same generator: the stream continues.
/// assert_ne!(slots.get(0).next_u32(), first);
/// // Different slots are independent streams.
/// let mut replay = RngSlots::new(0xC50D);
/// assert_eq!(replay.get(0).next_u32(), first);
/// ```
#[derive(Debug)]
pub struct RngSlots {
    seed: u64,
    slots: Vec<Option<Arc4Random>>,
}

impl RngSlots {
    /// Creates an empty pool deriving every slot from `seed`.
    pub fn new(seed: u64) -> Self {
        RngSlots {
            seed,
            slots: Vec::new(),
        }
    }

    /// The generator of slot `index`, created on first use with stream
    /// id `index`.
    pub fn get(&mut self, index: u32) -> &mut Arc4Random {
        let i = index as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        let seed = self.seed;
        self.slots[i].get_or_insert_with(|| Arc4Random::from_seed(seed, u64::from(index)))
    }

    /// Drops the generator of slot `index` (thread exit). A later
    /// [`RngSlots::get`] re-derives the same stream from scratch.
    pub fn release(&mut self, index: u32) {
        if let Some(slot) = self.slots.get_mut(index as usize) {
            *slot = None;
        }
    }

    /// Number of slots ever touched (live or released).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn thread_rng_is_usable_and_advances() {
        let a = thread_next_u32();
        let b = thread_next_u32();
        // Two consecutive draws are distinct with overwhelming probability.
        assert_ne!(a, b);
    }

    #[test]
    fn each_thread_gets_its_own_stream() {
        let seen = Mutex::new(HashSet::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let first: Vec<u32> = (0..4).map(|_| thread_next_u32()).collect();
                    seen.lock().unwrap().insert(first);
                });
            }
        });
        // Every thread produced a different prefix.
        assert_eq!(seen.lock().unwrap().len(), 8);
    }

    #[test]
    fn chance_helper_matches_extremes() {
        assert!(thread_chance_ppm(1_000_000));
        assert!(!thread_chance_ppm(0));
    }

    #[test]
    fn slots_are_dense_deterministic_streams() {
        let mut slots = RngSlots::new(7);
        let a0 = slots.get(0).next_u64();
        let a5 = slots.get(5).next_u64();
        assert_ne!(a0, a5, "streams differ per slot");
        assert_eq!(slots.capacity(), 6);
        // Matches a directly derived generator for the same (seed, stream).
        assert_eq!(Arc4Random::from_seed(7, 5).next_u64(), a5);
    }

    #[test]
    fn release_restarts_the_stream() {
        let mut slots = RngSlots::new(9);
        let first = slots.get(2).next_u32();
        let second = slots.get(2).next_u32();
        assert_ne!(first, second, "stream advances while live");
        slots.release(2);
        assert_eq!(slots.get(2).next_u32(), first, "released slot re-derives");
        // Releasing an untouched slot is a no-op.
        slots.release(99);
    }
}
