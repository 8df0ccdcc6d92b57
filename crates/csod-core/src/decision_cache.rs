//! Per-thread memoization of sampling verdicts.
//!
//! The sampling unit's context table is striped, but a probability
//! lookup still costs a lock acquisition plus open-addressed probe on
//! *every* allocation — the single hottest path in the tool. A context's
//! probability, however, barely moves between consecutive allocations
//! (plain degradation is −10 ppm per allocation out of an initial
//! 500,000); the only *step changes* are discrete events: a watch
//! install, evidence pinning, quarantine, burst-throttle entry or exit,
//! reviving, and a priors update.
//!
//! [`DecisionCache`] exploits that: each thread memoizes the last
//! verdict per context and re-draws against the *cached* probability
//! for up to `refresh − 1` subsequent allocations, touching the shared
//! table only every `refresh` allocations. Correctness is anchored by
//! the sampling unit's probability epoch ([`crate::SamplingUnit::epoch`]):
//! every step-change event bumps it, and the cache compares epochs
//! before every use, discarding all memoized verdicts wholesale on
//! mismatch. Time-driven transitions the epoch cannot see coming —
//! burst-throttle exit, revive eligibility — are covered by an entry
//! time-to-live of one burst window. Allocations that were decided from the cache are counted
//! as `pending` per entry and absorbed into the sampler (allocation
//! counts, burst windows, degradation) at the next refresh or flush, so
//! the probability schedule converges to the uncached one with an error
//! bounded by `refresh × degrade_per_alloc_ppm`.
//!
//! With `refresh == 1` every decision goes to the shared table — the
//! pre-cache behaviour, kept as a comparison mode for the fast-path
//! bench and the parity tests.

use crate::config::paper;
use crate::sampling::{AllocDecision, ContextJudgment, SamplingUnit};
use csod_ctx::{CallingContext, ContextKey};
use csod_rng::Arc4Random;
use sim_machine::{FxBuild, VirtInstant};
use std::collections::HashMap;

/// A memoized sampling verdict for one context.
#[derive(Debug, Clone, Copy)]
struct CachedVerdict {
    /// The last authoritative decision (carries ctx id, probability,
    /// prior watches, static prior).
    decision: AllocDecision,
    /// When the authoritative decision was taken. Entries expire after
    /// one burst window: burst-throttle exit and revive eligibility are
    /// *time*-driven, invisible to the allocation-count epoch, so a
    /// verdict must never be reused across a window boundary.
    filled_at: VirtInstant,
    /// Cache-hit allocations not yet absorbed into the sampler.
    pending: u32,
    /// Hits remaining before the next forced refresh.
    uses_left: u32,
}

/// Counters describing how a [`DecisionCache`] behaved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionCacheStats {
    /// Decisions served from the cache (no shared-table access).
    pub hits: u64,
    /// Decisions that went to the sampling unit (first sight, refresh
    /// due, or right after an invalidation).
    pub misses: u64,
    /// Whole-cache invalidations caused by a probability-epoch change.
    pub invalidations: u64,
}

/// A per-thread cache of sampling verdicts keyed by calling context.
///
/// Owned by exactly one thread; all methods take `&mut self` and the
/// only shared state touched is the sampling unit passed in, so the
/// fast path (a cache hit) acquires no lock at all.
#[derive(Debug)]
pub struct DecisionCache {
    map: HashMap<ContextKey, CachedVerdict, FxBuild>,
    /// The sampler epoch the memoized verdicts were filled at.
    epoch: u64,
    /// Decisions per context between authoritative refreshes; `1`
    /// disables memoization entirely.
    refresh: u32,
    stats: DecisionCacheStats,
}

impl DecisionCache {
    /// Creates a cache that consults the shared table every `refresh`
    /// allocations per context.
    ///
    /// # Panics
    ///
    /// Panics if `refresh` is zero (the config layer rejects it first).
    pub fn new(refresh: u32) -> Self {
        assert!(refresh > 0, "decision-cache refresh must be at least 1");
        DecisionCache {
            map: HashMap::default(),
            epoch: 0,
            refresh,
            stats: DecisionCacheStats::default(),
        }
    }

    /// Decides one allocation, from the cache when the memoized verdict
    /// is still inside its refresh budget and the sampler's probability
    /// epoch has not moved, from the sampling unit otherwise.
    ///
    /// Cache hits still draw the thread's generator once, so runs stay
    /// deterministic per seed regardless of hit pattern.
    pub fn on_allocation(
        &mut self,
        sampler: &SamplingUnit,
        key: ContextKey,
        now: VirtInstant,
        rng: &mut Arc4Random,
        ctx: &CallingContext,
        judge: impl FnOnce(&CallingContext) -> ContextJudgment,
    ) -> AllocDecision {
        let current = sampler.epoch();
        if current != self.epoch {
            self.invalidate(sampler, current);
        }
        if self.refresh > 1 {
            if let Some(entry) = self.map.get_mut(&key) {
                if entry.uses_left > 0
                    && now.saturating_duration_since(entry.filled_at) <= paper::BURST_WINDOW
                {
                    entry.uses_left -= 1;
                    entry.pending += 1;
                    self.stats.hits += 1;
                    let mut d = entry.decision;
                    d.first_seen = false;
                    // One-shot event flags must not replay on every hit.
                    d.revived = false;
                    d.entered_burst = false;
                    d.wants_watch = rng.chance_ppm(d.probability_ppm);
                    return d;
                }
            }
        }
        // Miss, refresh due, or memoization disabled: take the pending
        // batch to the sampling unit and memoize the fresh verdict. The
        // count is moved out of the entry, not copied — if the fresh
        // decision bumps the epoch (burst, revive) the invalidation
        // below must not absorb the same allocations twice.
        let pending = self
            .map
            .get_mut(&key)
            .map_or(0, |e| std::mem::take(&mut e.pending));
        let decision = sampler.on_allocation_batched(key, now, rng, ctx, judge, pending);
        self.stats.misses += 1;
        // The decision itself may have stepped a probability (burst
        // entry/exit, revive) and bumped the epoch; re-sync so the next
        // allocation does not immediately invalidate the fresh entry.
        let post = sampler.epoch();
        if post != self.epoch {
            self.invalidate(sampler, post);
        }
        self.map.insert(
            key,
            CachedVerdict {
                decision,
                filled_at: now,
                pending: 0,
                uses_left: self.refresh - 1,
            },
        );
        decision
    }

    /// Drops every memoized verdict, first absorbing all pending
    /// allocation counts into the sampler. Called on epoch changes and
    /// from [`DecisionCache::flush`].
    fn invalidate(&mut self, sampler: &SamplingUnit, new_epoch: u64) {
        self.stats.invalidations += 1;
        for (key, entry) in self.map.drain() {
            if entry.pending > 0 {
                sampler.absorb_allocations(key, entry.pending);
            }
        }
        self.epoch = new_epoch;
    }

    /// Absorbs all pending allocation counts into the sampler and
    /// empties the cache. Called at thread exit and run end so no
    /// allocation goes unaccounted.
    pub fn flush(&mut self, sampler: &SamplingUnit) {
        if self.map.is_empty() {
            return;
        }
        self.invalidate(sampler, sampler.epoch());
    }

    /// The refresh interval this cache was built with.
    pub fn refresh(&self) -> u32 {
        self.refresh
    }

    /// Number of memoized contexts.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no memoized verdicts.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Behaviour counters since construction.
    pub fn stats(&self) -> DecisionCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SamplingParams;
    use csod_ctx::FrameTable;

    fn sampler() -> SamplingUnit {
        SamplingUnit::new(SamplingParams::default())
    }

    fn fixtures(frames: &FrameTable, name: &str) -> (ContextKey, CallingContext) {
        (
            ContextKey::new(frames.intern(name), 0x40),
            CallingContext::from_locations(frames, [name, "main.c:1"]),
        )
    }

    #[test]
    fn hits_between_refreshes_misses_on_schedule() {
        let frames = FrameTable::new();
        let u = sampler();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut cache = DecisionCache::new(4);
        let (k, c) = fixtures(&frames, "a");
        for _ in 0..12 {
            cache.on_allocation(&u, k, VirtInstant::BOOT, &mut rng, &c, |_| {
                ContextJudgment::clear()
            });
        }
        let stats = cache.stats();
        // Misses at allocations 1, 5, 9; hits in between.
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 9);
        // Every allocation is accounted for in the sampler, cached or not.
        cache.flush(&u);
        assert_eq!(u.state(k).unwrap().alloc_count, 12);
    }

    #[test]
    fn refresh_one_disables_memoization() {
        let frames = FrameTable::new();
        let u = sampler();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut cache = DecisionCache::new(1);
        let (k, c) = fixtures(&frames, "a");
        for _ in 0..10 {
            cache.on_allocation(&u, k, VirtInstant::BOOT, &mut rng, &c, |_| {
                ContextJudgment::clear()
            });
        }
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 10);
        assert_eq!(u.state(k).unwrap().alloc_count, 10);
    }

    #[test]
    fn epoch_change_invalidates_everything() {
        let frames = FrameTable::new();
        let u = sampler();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut cache = DecisionCache::new(64);
        let (ka, ca) = fixtures(&frames, "a");
        let (kb, cb) = fixtures(&frames, "b");
        cache.on_allocation(&u, ka, VirtInstant::BOOT, &mut rng, &ca, |_| {
            ContextJudgment::clear()
        });
        cache.on_allocation(&u, kb, VirtInstant::BOOT, &mut rng, &cb, |_| {
            ContextJudgment::clear()
        });
        cache.on_allocation(&u, ka, VirtInstant::BOOT, &mut rng, &ca, |_| {
            ContextJudgment::clear()
        });
        assert_eq!(cache.len(), 2);
        let inv_before = cache.stats().invalidations;
        // A watch on `a` bumps the epoch: the next use of *either* key
        // flushes the whole cache and re-reads the table.
        u.on_watched(ka);
        let d = cache.on_allocation(&u, kb, VirtInstant::BOOT, &mut rng, &cb, |_| {
            ContextJudgment::clear()
        });
        assert!(!d.first_seen);
        assert_eq!(cache.stats().invalidations, inv_before + 1);
        // The pending hit on `a` was absorbed during the invalidation.
        assert_eq!(u.state(ka).unwrap().alloc_count, 2);
    }

    #[test]
    fn cached_decisions_see_pinned_probability() {
        let frames = FrameTable::new();
        let u = sampler();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut cache = DecisionCache::new(64);
        let (k, c) = fixtures(&frames, "a");
        cache.on_allocation(&u, k, VirtInstant::BOOT, &mut rng, &c, |_| {
            ContextJudgment::clear()
        });
        u.pin_certain(k); // bumps epoch → next decision refreshes
        for _ in 0..64 {
            let d = cache.on_allocation(&u, k, VirtInstant::BOOT, &mut rng, &c, |_| {
                ContextJudgment::clear()
            });
            assert!(
                d.wants_watch,
                "pinned context always watched, cached or not"
            );
            assert_eq!(d.probability_ppm, csod_rng::PPM_SCALE);
        }
    }

    #[test]
    fn cached_decisions_replay_the_mitigate_flag() {
        let frames = FrameTable::new();
        let u = sampler();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut cache = DecisionCache::new(64);
        let (k, c) = fixtures(&frames, "a");
        let d = cache.on_allocation(&u, k, VirtInstant::BOOT, &mut rng, &c, |_| {
            ContextJudgment::clear()
        });
        assert!(!d.mitigate);
        // Confirming the context bumps the epoch, so the stale
        // un-mitigated verdict is dropped; unlike the one-shot event
        // flags, `mitigate` then replays on every cache hit.
        u.mark_mitigated(k);
        for _ in 0..64 {
            let d = cache.on_allocation(&u, k, VirtInstant::BOOT, &mut rng, &c, |_| {
                ContextJudgment::clear()
            });
            assert!(d.mitigate, "hardening must hold on cache hits");
        }
        assert!(cache.stats().hits > 0, "the loop did hit the cache");
    }

    #[test]
    fn flush_absorbs_pending_and_empties() {
        let frames = FrameTable::new();
        let u = sampler();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut cache = DecisionCache::new(100);
        let (k, c) = fixtures(&frames, "a");
        for _ in 0..7 {
            cache.on_allocation(&u, k, VirtInstant::BOOT, &mut rng, &c, |_| {
                ContextJudgment::clear()
            });
        }
        // Only the miss reached the sampler so far.
        assert_eq!(u.state(k).unwrap().alloc_count, 1);
        cache.flush(&u);
        assert!(cache.is_empty());
        assert_eq!(u.state(k).unwrap().alloc_count, 7);
        // Flushing an empty cache is a no-op (no spurious invalidation).
        let inv = cache.stats().invalidations;
        cache.flush(&u);
        assert_eq!(cache.stats().invalidations, inv);
    }
}
