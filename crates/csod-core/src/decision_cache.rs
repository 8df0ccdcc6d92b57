//! Per-thread memoization of sampling verdicts.
//!
//! A context's probability barely moves between consecutive allocations
//! (plain degradation is −10 ppm per allocation out of an initial
//! 500,000); the only *step changes* are discrete events: a watch
//! install, evidence pinning, quarantine, burst-throttle entry or exit,
//! reviving, and a priors update.
//!
//! [`DecisionCache`] exploits that: each thread memoizes the last
//! verdict per context and re-draws against the *cached* probability
//! for up to `refresh − 1` subsequent allocations, running the sampling
//! unit's decision only every `refresh` allocations. Correctness is
//! anchored by the sampling unit's probability epoch
//! ([`crate::SamplingUnit::epoch`]): every step-change event bumps it,
//! and the cache compares epochs before every use, discarding all
//! memoized verdicts wholesale on mismatch. Time-driven transitions the
//! epoch cannot see coming — burst-throttle exit, revive eligibility —
//! are covered by an entry time-to-live of one burst window.
//! Allocations that were decided from the cache are counted as
//! `pending` per entry and absorbed into the sampler (allocation
//! counts, burst windows, degradation) at the next refresh or flush, so
//! the probability schedule converges to the uncached one with an error
//! bounded by `refresh × degrade_per_alloc_ppm`.
//!
//! The cache keeps no index of its own. A decision makes the sampler's
//! one `ContextKey → CtxId` probe and finds this thread's verdict in a
//! slot vector indexed by that id. Each slot is stamped with the cache
//! *generation* it was filled in; discarding every verdict is a
//! generation bump, not a drain. Slots holding pending allocations sit
//! on a dirty list of ids, and an epoch change absorbs exactly those
//! before bumping the generation. A miss rewrites its slot in place.
//!
//! With `refresh == 1` every decision goes to the sampling unit — the
//! pre-cache behaviour, kept as a comparison mode for the fast-path
//! bench and the parity tests.

use crate::config::paper;
use crate::sampling::{AllocDecision, ContextJudgment, CtxId, SamplingUnit};
use csod_ctx::{CallingContext, ContextKey};
use csod_rng::Arc4Random;
use sim_machine::VirtInstant;

/// A memoized sampling verdict for one context, one cache line each.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Slot {
    /// The last authoritative decision (carries ctx id, probability,
    /// prior watches, static prior).
    decision: AllocDecision,
    /// When the authoritative decision was taken. Entries expire after
    /// one burst window: burst-throttle exit and revive eligibility are
    /// *time*-driven, invisible to the allocation-count epoch, so a
    /// verdict must never be reused across a window boundary.
    filled_at: VirtInstant,
    /// The cache generation the slot was filled in.
    generation: u64,
    /// Cache-hit allocations not yet absorbed into the sampler.
    pending: u32,
    /// Hits remaining before the next forced refresh.
    uses_left: u32,
    /// Whether the slot is on the dirty list.
    listed: bool,
}

/// Counters describing how a [`DecisionCache`] behaved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionCacheStats {
    /// Decisions served from the cache (no sampling-unit decision).
    pub hits: u64,
    /// Decisions that went to the sampling unit (first sight, refresh
    /// due, or right after an invalidation).
    pub misses: u64,
    /// Whole-cache invalidations caused by a probability-epoch change.
    pub invalidations: u64,
}

impl std::ops::AddAssign for DecisionCacheStats {
    fn add_assign(&mut self, other: DecisionCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
    }
}

/// A per-thread cache of sampling verdicts keyed by calling context.
///
/// Owned by exactly one thread; all methods take `&mut self` and the
/// sampling unit they consult as `&mut`, so no call takes a lock.
#[derive(Debug)]
pub struct DecisionCache {
    /// Slot of every context this cache ever decided, at its
    /// [`CtxId`]; never shrinks.
    slots: Vec<Option<Slot>>,
    /// Contexts whose slots may hold pending allocations, each listed
    /// once.
    dirty: Vec<CtxId>,
    /// Bumped on every invalidation; only slots stamped with the
    /// current value hold a verdict.
    generation: u64,
    /// Slots stamped with the current generation.
    live: usize,
    /// The sampler epoch the memoized verdicts were filled at.
    epoch: u64,
    /// Decisions per context between authoritative refreshes; `1`
    /// disables memoization entirely.
    refresh: u32,
    stats: DecisionCacheStats,
}

impl DecisionCache {
    /// Creates a cache that consults the sampling unit every `refresh`
    /// allocations per context.
    ///
    /// # Panics
    ///
    /// Panics if `refresh` is zero (the config layer rejects it first).
    pub fn new(refresh: u32) -> Self {
        assert!(refresh > 0, "decision-cache refresh must be at least 1");
        DecisionCache {
            slots: Vec::new(),
            dirty: Vec::new(),
            generation: 0,
            live: 0,
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
        sampler: &mut SamplingUnit,
        key: ContextKey,
        now: VirtInstant,
        rng: &mut Arc4Random,
        ctx: &CallingContext,
        judge: impl FnOnce(&CallingContext) -> ContextJudgment,
    ) -> AllocDecision {
        let current = sampler.epoch();
        if current != self.epoch {
            self.stats.invalidations += 1;
            self.invalidate(sampler, current);
        }
        let (id, first_seen) = sampler.entry(key, now, ctx, judge);
        let at = id.as_u32() as usize;
        if at >= self.slots.len() {
            self.slots.resize(at + 1, None);
        }
        let generation = self.generation;
        let live = self.slots[at]
            .as_mut()
            .filter(|slot| slot.generation == generation);
        // A live slot with uses left inside its time-to-live serves a
        // hit. Otherwise — miss, refresh due, or memoization disabled
        // (`refresh == 1` leaves no uses) — take the pending batch to the
        // sampling unit and memoize the fresh verdict. The count is moved
        // out of the slot, not copied — if the fresh decision bumps the
        // epoch (burst, revive) the invalidation below must not absorb
        // the same allocations twice. A slot from an older generation
        // holds none (its batch was absorbed when the generation moved
        // on) and is not on the dirty list, so it is overwritten unread.
        let (was_live, pending, listed) = match live {
            Some(slot)
                if slot.uses_left > 0
                    && now.saturating_duration_since(slot.filled_at) <= paper::BURST_WINDOW =>
            {
                slot.uses_left -= 1;
                slot.pending += 1;
                if !slot.listed {
                    slot.listed = true;
                    self.dirty.push(id);
                }
                self.stats.hits += 1;
                let mut d = slot.decision;
                d.first_seen = false;
                // One-shot event flags must not replay on every hit.
                d.revived = false;
                d.entered_burst = false;
                d.wants_watch = rng.chance_ppm(d.probability_ppm);
                return d;
            }
            Some(slot) => (true, std::mem::take(&mut slot.pending), slot.listed),
            None => (false, 0, false),
        };
        let decision = sampler.decide(id, first_seen, now, rng, pending);
        self.stats.misses += 1;
        // The decision itself may have stepped a probability (burst
        // entry/exit, revive) and bumped the epoch. The fresh verdict is
        // stamped with the generation the invalidation below moves to,
        // so the next allocation does not immediately discard it.
        let post = sampler.epoch();
        let resync = post != self.epoch;
        self.slots[at] = Some(Slot {
            decision,
            filled_at: now,
            generation: generation + u64::from(resync),
            pending: 0,
            uses_left: self.refresh - 1,
            listed,
        });
        if resync {
            self.stats.invalidations += 1;
            self.invalidate(sampler, post);
            self.live = 1;
        } else if !was_live {
            self.live += 1;
        }
        decision
    }

    /// Drops every memoized verdict, first absorbing all pending
    /// allocation counts into the sampler. Called on epoch changes,
    /// which the callers count, and from [`DecisionCache::flush`],
    /// which is not an invalidation.
    fn invalidate(&mut self, sampler: &mut SamplingUnit, new_epoch: u64) {
        for id in self.dirty.drain(..) {
            let slot = self.slots[id.as_u32() as usize]
                .as_mut()
                .expect("a listed slot is filled");
            slot.listed = false;
            let pending = std::mem::take(&mut slot.pending);
            if pending > 0 {
                sampler.absorb(id, pending);
            }
        }
        self.generation += 1;
        self.live = 0;
        self.epoch = new_epoch;
    }

    /// Absorbs all pending allocation counts into the sampler and
    /// empties the cache. Called at thread exit and run end so no
    /// allocation goes unaccounted.
    pub fn flush(&mut self, sampler: &mut SamplingUnit) {
        if self.live == 0 {
            return;
        }
        let current = sampler.epoch();
        self.invalidate(sampler, current);
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
        let mut u = sampler();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut cache = DecisionCache::new(4);
        let (k, c) = fixtures(&frames, "a");
        for _ in 0..12 {
            cache.on_allocation(&mut u, k, VirtInstant::BOOT, &mut rng, &c, |_| {
                ContextJudgment::clear()
            });
        }
        let stats = cache.stats();
        // Misses at allocations 1, 5, 9; hits in between.
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 9);
        // Every allocation is accounted for in the sampler, cached or not.
        cache.flush(&mut u);
        assert_eq!(u.state(k).unwrap().alloc_count, 12);
    }

    #[test]
    fn refresh_one_disables_memoization() {
        let frames = FrameTable::new();
        let mut u = sampler();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut cache = DecisionCache::new(1);
        let (k, c) = fixtures(&frames, "a");
        for _ in 0..10 {
            cache.on_allocation(&mut u, k, VirtInstant::BOOT, &mut rng, &c, |_| {
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
        let mut u = sampler();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut cache = DecisionCache::new(64);
        let (ka, ca) = fixtures(&frames, "a");
        let (kb, cb) = fixtures(&frames, "b");
        cache.on_allocation(&mut u, ka, VirtInstant::BOOT, &mut rng, &ca, |_| {
            ContextJudgment::clear()
        });
        cache.on_allocation(&mut u, kb, VirtInstant::BOOT, &mut rng, &cb, |_| {
            ContextJudgment::clear()
        });
        cache.on_allocation(&mut u, ka, VirtInstant::BOOT, &mut rng, &ca, |_| {
            ContextJudgment::clear()
        });
        assert_eq!(cache.live, 2);
        let inv_before = cache.stats().invalidations;
        // A watch on `a` bumps the epoch: the next use of *either* key
        // flushes the whole cache and re-reads the table.
        u.on_watched(ka);
        let d = cache.on_allocation(&mut u, kb, VirtInstant::BOOT, &mut rng, &cb, |_| {
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
        let mut u = sampler();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut cache = DecisionCache::new(64);
        let (k, c) = fixtures(&frames, "a");
        cache.on_allocation(&mut u, k, VirtInstant::BOOT, &mut rng, &c, |_| {
            ContextJudgment::clear()
        });
        u.pin_certain(k); // bumps epoch → next decision refreshes
        for _ in 0..64 {
            let d = cache.on_allocation(&mut u, k, VirtInstant::BOOT, &mut rng, &c, |_| {
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
        let mut u = sampler();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut cache = DecisionCache::new(64);
        let (k, c) = fixtures(&frames, "a");
        let d = cache.on_allocation(&mut u, k, VirtInstant::BOOT, &mut rng, &c, |_| {
            ContextJudgment::clear()
        });
        assert!(!d.mitigate);
        // Confirming the context bumps the epoch, so the stale
        // un-mitigated verdict is dropped; unlike the one-shot event
        // flags, `mitigate` then replays on every cache hit.
        u.mark_mitigated(k);
        for _ in 0..64 {
            let d = cache.on_allocation(&mut u, k, VirtInstant::BOOT, &mut rng, &c, |_| {
                ContextJudgment::clear()
            });
            assert!(d.mitigate, "hardening must hold on cache hits");
        }
        assert!(cache.stats().hits > 0, "the loop did hit the cache");
    }

    #[test]
    fn flush_absorbs_pending_and_empties() {
        let frames = FrameTable::new();
        let mut u = sampler();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut cache = DecisionCache::new(100);
        let (k, c) = fixtures(&frames, "a");
        for _ in 0..7 {
            cache.on_allocation(&mut u, k, VirtInstant::BOOT, &mut rng, &c, |_| {
                ContextJudgment::clear()
            });
        }
        // Only the miss reached the sampler so far.
        assert_eq!(u.state(k).unwrap().alloc_count, 1);
        // Flushing a live cache absorbs and empties it, but it is not an
        // epoch change, so it counts no invalidation.
        let inv = cache.stats().invalidations;
        cache.flush(&mut u);
        assert_eq!(cache.live, 0);
        assert_eq!(u.state(k).unwrap().alloc_count, 7);
        assert_eq!(cache.stats().invalidations, inv);
        // Flushing an empty cache is a no-op.
        cache.flush(&mut u);
        assert_eq!(cache.stats().invalidations, inv);
    }
}
