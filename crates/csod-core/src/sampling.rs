//! The Sampling Management Unit (paper Sections III-B and IV-A).
//!
//! Every allocation calling context carries a probability of being
//! watched. The unit maintains those probabilities with the paper's
//! adaptive rules:
//!
//! * every new context starts at 50 % — "treated … as if it were equally
//!   likely to either contain a bug or be bug-free";
//! * **degradation on each allocation**: −0.001 % per allocation from the
//!   context, watched or not;
//! * **degradation after each watch**: halved whenever an object of the
//!   context is watched;
//! * a **floor** of 0.001 % so every context keeps some chance;
//! * **burst throttling**: more than 5,000 allocations inside a
//!   10-second window drop the context to 0.0001 % until the window
//!   elapses;
//! * **reviving** (Section IV-A): floor-level contexts are randomly
//!   boosted back to 0.01 % after a quiet period, so bugs gated on rare
//!   inputs keep a chance across long runs;
//! * **evidence pinning** (Section IV-B): once a corrupted canary proves
//!   a context overflows, its probability is pinned at 100 %.

use crate::config::{paper, AnalysisPriors, RiskClass, SamplingParams};
use csod_ctx::{CallingContext, ContextKey, ContextTable, ContextTree, CtxNodeId};
use csod_rng::{Arc4Random, PPM_SCALE};
use sim_machine::VirtInstant;
use std::fmt;

/// Dense identifier assigned to each distinct calling context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CtxId(u32);

impl CtxId {
    /// Builds an id from a raw index (workload registries and tests).
    pub const fn from_index(index: u32) -> Self {
        CtxId(index)
    }

    /// The raw index.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for CtxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctx#{}", self.0)
    }
}

/// What the runtime already knows about a context when it is first
/// seen (or re-judged): the verdicts recovered from previous
/// executions' durability WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContextJudgment {
    /// A previous execution proved this context overflows: pin the
    /// watch probability at 100 % from the first allocation.
    pub known_overflow: bool,
    /// The mitigation policy wants allocations from this context
    /// hardened (over-allocation, guarded placement, free-quarantine).
    pub mitigate: bool,
}

impl ContextJudgment {
    /// The judgment for a context nothing is known about.
    pub const fn clear() -> Self {
        ContextJudgment {
            known_overflow: false,
            mitigate: false,
        }
    }
}

/// Per-context sampling state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtxState {
    /// Dense id of this context.
    pub id: CtxId,
    /// The full backtrace, interned in the unit's calling-context tree
    /// (shared suffixes stored once; see [`ContextTree`]).
    pub node: CtxNodeId,
    /// Current probability in ppm.
    probability_ppm: u32,
    /// Total allocations from this context.
    pub alloc_count: u64,
    /// Times an object of this context was watched.
    pub watch_count: u64,
    /// Evidence pinning: probability stays at 100 %.
    pub pinned_certain: bool,
    /// Mitigation: allocations from this context get hardened layouts.
    pub mitigated: bool,
    /// Static verdict from the `csod-analyze` pre-pass, if one was
    /// loaded for this context.
    pub prior: Option<RiskClass>,
    window_start: VirtInstant,
    window_allocs: u32,
    burst_until: Option<VirtInstant>,
    floor_since: Option<VirtInstant>,
}

impl CtxState {
    /// Current probability in parts per million.
    pub fn probability_ppm(&self) -> u32 {
        self.probability_ppm
    }

    /// Per-allocation degradation for `n` allocations, floor-bounded.
    /// Pinned and burst-throttled contexts keep their probability.
    fn degrade(&mut self, n: u32, params: &SamplingParams) {
        if !self.pinned_certain
            && self.burst_until.is_none()
            && self.probability_ppm > params.floor_ppm
        {
            self.probability_ppm = self
                .probability_ppm
                .saturating_sub(params.degrade_per_alloc_ppm.saturating_mul(n))
                .max(params.floor_ppm);
        }
    }

    /// Absorbs `n` allocations that bypassed the table through a
    /// per-thread decision cache: their counts and degradation.
    fn absorb(&mut self, n: u32, params: &SamplingParams) {
        self.alloc_count += u64::from(n);
        self.window_allocs = self.window_allocs.saturating_add(n);
        self.degrade(n, params);
    }
}

/// Outcome of the sampling decision for one allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocDecision {
    /// The context's dense id.
    pub ctx_id: CtxId,
    /// `true` if this context was seen for the first time (the caller
    /// pays the `backtrace` cost exactly then).
    pub first_seen: bool,
    /// The probability used for the decision, in ppm.
    pub probability_ppm: u32,
    /// Whether the sampler wants this object watched. The watchpoint
    /// manager may still watch a rejected object when a register is free
    /// ("installation due to availability").
    pub wants_watch: bool,
    /// How many times this context had been watched before this
    /// allocation. The availability rule only bypasses the probability
    /// for never-watched contexts ("the first few objects"), which keeps
    /// the watched-times count near the context count as in Table IV.
    pub prior_watches: u64,
    /// Static verdict the unit applied to this context, if any. The
    /// runtime uses it to deny the availability bypass to proven-safe
    /// contexts and to account saved watch slots.
    pub prior: Option<RiskClass>,
    /// `true` when *this* decision revived the context from the floor
    /// (Section IV-A). One-shot: decision-cache hits replay the decision
    /// with the flag cleared, so the event is observed exactly once.
    pub revived: bool,
    /// `true` when *this* decision tripped the burst throttle. One-shot
    /// like [`AllocDecision::revived`].
    pub entered_burst: bool,
    /// The mitigation policy wants this allocation hardened: the
    /// context is confirmed overflowing. Replayed (not one-shot) so a
    /// decision-cache hit keeps hardening every allocation.
    pub mitigate: bool,
}

/// Probability in ppm of at least one success across `n` independent
/// Bernoulli trials of per-trial probability `p_ppm`:
/// `1 − (1 − p)^n`. Used so one batched decision gives time-gated
/// random events (reviving) the same expected frequency as `n`
/// individual decisions.
fn compound_chance_ppm(p_ppm: u32, n: u32) -> u32 {
    if n <= 1 || p_ppm >= PPM_SCALE {
        return p_ppm.min(PPM_SCALE);
    }
    let scale = u64::from(PPM_SCALE);
    let q = scale - u64::from(p_ppm);
    let mut miss_all = scale;
    for _ in 0..n {
        miss_all = miss_all * q / scale;
    }
    u32::try_from(scale - miss_all).expect("result is at most PPM_SCALE")
}

/// The Sampling Management Unit.
///
/// Owned by the runtime and reached through `&mut`: every method that
/// decides, absorbs or changes a context takes `&mut self`.
#[derive(Debug)]
pub struct SamplingUnit {
    /// The one `ContextKey → CtxId` index. Its iteration order is the
    /// order of [`SamplingUnit::snapshot`].
    index: ContextTable<CtxId>,
    /// Per-context state, indexed by [`CtxId`].
    states: Vec<CtxState>,
    params: SamplingParams,
    priors: AnalysisPriors,
    tree: ContextTree,
    /// Probability-epoch counter. Bumped by every event that can change
    /// a context's watch probability outside the plain per-allocation
    /// degradation: a watch install ([`SamplingUnit::on_watched`]),
    /// evidence pinning, quarantine, burst-throttle entry and exit,
    /// reviving, and a priors update. Per-thread decision caches
    /// compare this against the epoch they were filled at and drop
    /// every memoized verdict on mismatch.
    epoch: u64,
}

impl SamplingUnit {
    /// Creates a unit with the given constants and no static priors.
    pub fn new(params: SamplingParams) -> Self {
        SamplingUnit::with_priors(params, AnalysisPriors::none())
    }

    /// Creates a unit primed with static analysis verdicts: proven-safe
    /// contexts start at the floor, suspicious contexts start boosted
    /// and are exempt from burst throttling, unknown contexts follow
    /// the paper's default schedule.
    pub fn with_priors(params: SamplingParams, priors: AnalysisPriors) -> Self {
        SamplingUnit {
            index: ContextTable::new(),
            states: Vec::new(),
            params,
            priors,
            tree: ContextTree::new(),
            epoch: 0,
        }
    }

    /// The current probability epoch. Any change to this value means
    /// memoized sampling verdicts may be stale and must be refreshed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Replaces the static priors at run time (e.g. a `csod-analyze`
    /// report arriving after start-up) and re-bases every already-seen
    /// context that gained a verdict: proven-safe contexts drop to the
    /// floor, suspicious contexts are boosted to at least the
    /// suspicious level. Evidence pinning still outranks both. Bumps
    /// the probability epoch so decision caches refresh.
    pub fn update_priors(&mut self, priors: AnalysisPriors) {
        let params = self.params;
        for (key, id) in self.index.iter() {
            let state = &mut self.states[id.0 as usize];
            let class = priors.class_of(key);
            state.prior = class;
            if state.pinned_certain {
                continue;
            }
            match class {
                Some(RiskClass::ProvenSafe) => {
                    state.probability_ppm = params.floor_ppm;
                }
                Some(RiskClass::Suspicious) => {
                    let boost = priors
                        .initial_ppm_for(key, &params)
                        .unwrap_or(AnalysisPriors::DEFAULT_SUSPICIOUS_PPM);
                    state.probability_ppm = state.probability_ppm.max(boost);
                }
                Some(RiskClass::Unknown) | None => {}
            }
        }
        self.priors = priors;
        self.epoch += 1;
    }

    /// Handles one allocation from `key` at virtual time `now`.
    ///
    /// `ctx` is the full backtrace; it is interned (and `judge`
    /// consulted, to pre-pin and pre-mitigate contexts recorded by a
    /// previous execution's evidence and durability stores) only when
    /// the key is new, so the caller charges the expensive `backtrace`
    /// cost exactly when [`AllocDecision::first_seen`] comes back
    /// `true`.
    pub fn on_allocation(
        &mut self,
        key: ContextKey,
        now: VirtInstant,
        rng: &mut Arc4Random,
        ctx: &CallingContext,
        judge: impl FnOnce(&CallingContext) -> ContextJudgment,
    ) -> AllocDecision {
        let (id, first_seen) = self.entry(key, now, ctx, judge);
        self.decide(id, first_seen, now, rng, 0)
    }

    /// The id of `key` — the unit's one index probe — and whether this
    /// is its first sight, in which case its state is created: `ctx` is
    /// interned and `judge` consulted only then.
    pub(crate) fn entry(
        &mut self,
        key: ContextKey,
        now: VirtInstant,
        ctx: &CallingContext,
        judge: impl FnOnce(&CallingContext) -> ContextJudgment,
    ) -> (CtxId, bool) {
        let next = CtxId(u32::try_from(self.states.len()).expect("context id overflow"));
        let (&mut id, first_seen) = self.index.entry(key, || next);
        if first_seen {
            let state = self.first_sight(key, next, now, ctx, judge);
            self.states.push(state);
        }
        (id, first_seen)
    }

    /// The state of a context seen for the first time.
    fn first_sight(
        &mut self,
        key: ContextKey,
        id: CtxId,
        now: VirtInstant,
        ctx: &CallingContext,
        judge: impl FnOnce(&CallingContext) -> ContextJudgment,
    ) -> CtxState {
        let params = &self.params;
        let judgment = judge(ctx);
        let pinned = judgment.known_overflow;
        let prior = self.priors.class_of(key);
        // Evidence from a real execution outranks a static verdict: a
        // pinned context starts (and stays) at 100 % even if the
        // analyzer called it proven-safe. The start is graded by the
        // per-call-string detail of the prior when the analyzer
        // provided one (see `AnalysisPriors::initial_ppm_for`).
        let initial = if pinned {
            PPM_SCALE
        } else {
            self.priors
                .initial_ppm_for(key, params)
                .unwrap_or(params.initial_ppm)
        };
        CtxState {
            id,
            node: self.tree.intern(ctx),
            probability_ppm: initial,
            alloc_count: 0,
            watch_count: 0,
            pinned_certain: pinned,
            mitigated: judgment.mitigate,
            prior,
            window_start: now,
            window_allocs: 0,
            burst_until: None,
            floor_since: None,
        }
    }

    /// One allocation's decision on context `id`, after first absorbing
    /// `pending` allocations that bypassed the unit through a
    /// per-thread decision cache: their per-allocation degradation and
    /// burst-window counts are applied in one step before this
    /// allocation's decision is made.
    pub(crate) fn decide(
        &mut self,
        id: CtxId,
        first_seen: bool,
        now: VirtInstant,
        rng: &mut Arc4Random,
        pending: u32,
    ) -> AllocDecision {
        let params = &self.params;
        let state = &mut self.states[id.0 as usize];
        // 0. Absorb allocations that bypassed the table through a
        // per-thread decision cache: their counts and degradation are
        // applied in one step, so a cached context's schedule converges
        // to the uncached one at every refresh.
        if pending > 0 {
            state.absorb(pending, params);
        }

        // Pending allocations predate this decision: they only stand in
        // for individual revive draws if the context was already quietly
        // at the floor when they happened — not while burst-throttled,
        // and not before the quiet period elapsed. Judged before burst
        // exit below so allocations made *inside* a burst window never
        // earn revive draws.
        let pending_revive_eligible = !state.pinned_certain
            && state.burst_until.is_none()
            && state.probability_ppm <= params.floor_ppm
            && state
                .floor_since
                .is_some_and(|since| now.saturating_duration_since(since) >= paper::REVIVE_PERIOD);

        // 1. Burst-window bookkeeping.
        if now.saturating_duration_since(state.window_start) > paper::BURST_WINDOW {
            state.window_start = now;
            state.window_allocs = 0;
        }
        if let Some(until) = state.burst_until {
            if now >= until {
                // Window elapsed: "the probability … will again be
                // increased to the lower bound".
                state.burst_until = None;
                if !state.pinned_certain {
                    state.probability_ppm = state.probability_ppm.max(params.floor_ppm);
                }
                self.epoch += 1;
            }
        }
        state.window_allocs += 1;
        // Suspicious contexts are exempt from burst throttling: an
        // allocation burst from a statically risky site is exactly when
        // the watchpoints should stay on it.
        let mut entered_burst = false;
        if !state.pinned_certain
            && state.prior != Some(RiskClass::Suspicious)
            && state.burst_until.is_none()
            && state.window_allocs > params.burst_threshold
        {
            state.probability_ppm = paper::BURST_THROTTLE_PPM;
            state.burst_until = Some(state.window_start + paper::BURST_WINDOW);
            entered_burst = true;
            self.epoch += 1;
        }

        // 2. Reviving (Section IV-A): floor-level contexts are randomly
        // boosted after a quiet period. When the pending batch was
        // itself revive-eligible, this decision stands in for
        // `pending + 1` individual ones, so the revive draw uses the
        // compounded chance of at least one success across that many
        // trials — reviving fires at the same expected frequency cached
        // or not.
        let revive_trials = if pending_revive_eligible {
            pending + 1
        } else {
            1
        };
        let mut revived = false;
        if !state.pinned_certain && state.burst_until.is_none() {
            if state.probability_ppm <= params.floor_ppm {
                match state.floor_since {
                    None => state.floor_since = Some(now),
                    Some(since)
                        if now.saturating_duration_since(since) >= paper::REVIVE_PERIOD
                            && rng.chance_ppm(compound_chance_ppm(
                                params.revive_chance_ppm,
                                revive_trials,
                            )) =>
                    {
                        state.probability_ppm = paper::REVIVE_PPM;
                        state.floor_since = None;
                        revived = true;
                        self.epoch += 1;
                    }
                    Some(_) => {}
                }
            } else {
                state.floor_since = None;
            }
        }

        // 3. The decision itself, at the pre-degradation probability.
        let probability_ppm = state.probability_ppm;
        let wants_watch = state.pinned_certain || rng.chance_ppm(probability_ppm);

        // 4. Degradation on each allocation, floor-bounded.
        state.alloc_count += 1;
        state.degrade(1, params);

        AllocDecision {
            ctx_id: state.id,
            first_seen,
            probability_ppm,
            wants_watch,
            prior_watches: state.watch_count,
            prior: state.prior,
            revived,
            entered_burst,
            mitigate: state.mitigated,
        }
    }

    /// Absorbs `count` allocations from context `id` that bypassed the
    /// unit through a per-thread decision cache and will see no fresh
    /// decision yet (an epoch change, thread exit or run end): counts
    /// and per-allocation degradation are applied, burst detection is
    /// left to the next timed decision.
    pub(crate) fn absorb(&mut self, id: CtxId, count: u32) {
        self.states[id.0 as usize].absorb(count, &self.params);
    }

    fn get(&self, key: ContextKey) -> Option<&CtxState> {
        let id = self.index.get(key)?;
        Some(&self.states[id.0 as usize])
    }

    fn get_mut(&mut self, key: ContextKey) -> Option<&mut CtxState> {
        let id = self.index.get(key)?;
        Some(&mut self.states[id.0 as usize])
    }

    /// Records that an object of `key` was watched: halves the context's
    /// probability ("degradation after each watch"). Bumps the
    /// probability epoch.
    pub fn on_watched(&mut self, key: ContextKey) {
        let floor = self.params.floor_ppm;
        if let Some(state) = self.get_mut(key) {
            state.watch_count += 1;
            if !state.pinned_certain {
                state.probability_ppm = (state.probability_ppm / 2).max(floor);
            }
            self.epoch += 1;
        }
    }

    /// Drops `key` to the probability floor — called when the degradation
    /// manager benches a context whose installs keep failing, so the
    /// sampler stops proposing it while the quarantine lasts. Evidence-
    /// pinned contexts are exempt: a proven overflow outranks backend
    /// trouble. Bumps the probability epoch.
    pub fn quarantine(&mut self, key: ContextKey) {
        let floor = self.params.floor_ppm;
        if let Some(state) = self.get_mut(key) {
            if !state.pinned_certain {
                state.probability_ppm = floor;
            }
            self.epoch += 1;
        }
    }

    /// Pins `key` at 100 % — called when canary evidence proves the
    /// context overflows (Section IV-B). Bumps the probability epoch.
    pub fn pin_certain(&mut self, key: ContextKey) {
        if let Some(state) = self.get_mut(key) {
            state.pinned_certain = true;
            state.probability_ppm = PPM_SCALE;
            self.epoch += 1;
        }
    }

    /// Marks `key` as mitigated — the mitigation policy confirmed the
    /// context overflows, so every later allocation from it must carry
    /// [`AllocDecision::mitigate`]. Bumps the probability epoch so
    /// per-thread decision caches drop any un-mitigated memoized
    /// verdict for the context.
    pub fn mark_mitigated(&mut self, key: ContextKey) {
        if let Some(state) = self.get_mut(key) {
            state.mitigated = true;
            self.epoch += 1;
        }
    }

    /// Current probability of `key`, if seen.
    pub fn probability_ppm(&self, key: ContextKey) -> Option<u32> {
        self.get(key).map(|s| s.probability_ppm)
    }

    /// The full calling context of `key`, if seen (materialized from
    /// the context tree).
    pub fn full_context(&self, key: ContextKey) -> Option<CallingContext> {
        Some(self.tree.materialize(self.get(key)?.node))
    }

    /// State snapshot of `key`, if seen.
    pub fn state(&self, key: ContextKey) -> Option<CtxState> {
        self.get(key).cloned()
    }

    /// Number of distinct contexts observed (Table III/IV "CC" column).
    pub fn distinct_contexts(&self) -> usize {
        self.states.len()
    }

    /// Snapshot of all context states for end-of-run reporting, in the
    /// index's iteration order (see [`ContextTable`]).
    pub fn snapshot(&self) -> Vec<(ContextKey, CtxState)> {
        self.index
            .iter()
            .map(|(key, id)| (key, self.states[id.0 as usize].clone()))
            .collect()
    }

    /// Total allocations across all contexts.
    pub fn total_allocations(&self) -> u64 {
        self.states.iter().map(|s| s.alloc_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csod_ctx::FrameTable;
    use sim_machine::VirtDuration;

    /// A context a previous execution proved overflowing.
    const CONFIRMED: ContextJudgment = ContextJudgment {
        known_overflow: true,
        mitigate: true,
    };

    fn unit() -> SamplingUnit {
        SamplingUnit::new(SamplingParams::default())
    }

    fn key(frames: &FrameTable, name: &str) -> ContextKey {
        ContextKey::new(frames.intern(name), 0x40)
    }

    fn ctx(frames: &FrameTable, name: &str) -> CallingContext {
        CallingContext::from_locations(frames, [name, "main.c:1"])
    }

    fn alloc(
        unit: &mut SamplingUnit,
        k: ContextKey,
        now: VirtInstant,
        rng: &mut Arc4Random,
        frames: &FrameTable,
    ) -> AllocDecision {
        unit.on_allocation(k, now, rng, &ctx(frames, "site"), |_| {
            ContextJudgment::clear()
        })
    }

    #[test]
    fn new_context_starts_at_fifty_percent() {
        let frames = FrameTable::new();
        let mut u = unit();
        let mut rng = Arc4Random::from_seed(1, 0);
        let d = alloc(
            &mut u,
            key(&frames, "a"),
            VirtInstant::BOOT,
            &mut rng,
            &frames,
        );
        assert!(d.first_seen);
        assert_eq!(d.probability_ppm, 500_000);
        assert_eq!(d.ctx_id, CtxId(0));
        // Second allocation: no longer first seen, degraded by 10 ppm.
        let d2 = alloc(
            &mut u,
            key(&frames, "a"),
            VirtInstant::BOOT,
            &mut rng,
            &frames,
        );
        assert!(!d2.first_seen);
        assert_eq!(d2.probability_ppm, 499_990);
    }

    #[test]
    fn ids_are_dense_per_context() {
        let frames = FrameTable::new();
        let mut u = unit();
        let mut rng = Arc4Random::from_seed(1, 0);
        let a = alloc(
            &mut u,
            key(&frames, "a"),
            VirtInstant::BOOT,
            &mut rng,
            &frames,
        );
        let b = alloc(
            &mut u,
            key(&frames, "b"),
            VirtInstant::BOOT,
            &mut rng,
            &frames,
        );
        assert_eq!(a.ctx_id, CtxId(0));
        assert_eq!(b.ctx_id, CtxId(1));
        assert_eq!(u.distinct_contexts(), 2);
    }

    #[test]
    fn context_is_interned_only_on_first_sight() {
        let frames = FrameTable::new();
        let mut u = unit();
        let mut rng = Arc4Random::from_seed(1, 0);
        let k = key(&frames, "a");
        let c = ctx(&frames, "a");
        let mut known_checks = 0;
        let mut firsts = 0;
        for _ in 0..5 {
            let d = u.on_allocation(k, VirtInstant::BOOT, &mut rng, &c, |_| {
                known_checks += 1;
                ContextJudgment::clear()
            });
            if d.first_seen {
                firsts += 1;
            }
        }
        assert_eq!(firsts, 1, "first_seen reported exactly once");
        assert_eq!(known_checks, 1, "evidence consulted exactly once");
        let nodes_after_five = u.tree.node_count();
        u.on_allocation(k, VirtInstant::BOOT, &mut rng, &c, |_| {
            ContextJudgment::clear()
        });
        assert_eq!(u.tree.node_count(), nodes_after_five, "no re-interning");
    }

    #[test]
    fn epoch_bumps_on_probability_changing_events() {
        let frames = FrameTable::new();
        let mut u = unit();
        let mut rng = Arc4Random::from_seed(1, 0);
        let k = key(&frames, "a");
        let e0 = u.epoch();
        // Plain allocations do not bump the epoch (degradation drift is
        // tolerated by the caches)...
        alloc(&mut u, k, VirtInstant::BOOT, &mut rng, &frames);
        alloc(&mut u, k, VirtInstant::BOOT, &mut rng, &frames);
        assert_eq!(u.epoch(), e0);
        // ...but every probability-changing event does.
        u.on_watched(k);
        let e1 = u.epoch();
        assert!(e1 > e0, "watch install bumps the epoch");
        u.quarantine(k);
        let e2 = u.epoch();
        assert!(e2 > e1, "quarantine bumps the epoch");
        u.pin_certain(k);
        let e3 = u.epoch();
        assert!(e3 > e2, "evidence pinning bumps the epoch");
        // Events on unseen keys are no-ops and leave the epoch alone.
        u.on_watched(key(&frames, "never-seen"));
        assert_eq!(u.epoch(), e3);
    }

    #[test]
    fn epoch_bumps_on_burst_entry_and_exit() {
        let frames = FrameTable::new();
        let mut u = unit();
        let mut rng = Arc4Random::from_seed(1, 0);
        let k = key(&frames, "bursty");
        let t0 = VirtInstant::BOOT;
        let e0 = u.epoch();
        for _ in 0..5_001 {
            alloc(&mut u, k, t0, &mut rng, &frames);
        }
        let e_burst = u.epoch();
        assert!(e_burst > e0, "burst entry bumps the epoch");
        let later = t0 + VirtDuration::from_secs(11);
        alloc(&mut u, k, later, &mut rng, &frames);
        assert!(u.epoch() > e_burst, "burst exit bumps the epoch");
    }

    #[test]
    fn priors_update_bumps_epoch_and_rebases() {
        use crate::config::AnalysisPriors;
        use crate::config::RiskClass;
        let frames = FrameTable::new();
        let mut u = unit();
        let mut rng = Arc4Random::from_seed(1, 0);
        let k = key(&frames, "reclassified");
        alloc(&mut u, k, VirtInstant::BOOT, &mut rng, &frames);
        let e0 = u.epoch();
        u.update_priors(AnalysisPriors::from_classes([(k, RiskClass::ProvenSafe)]));
        assert!(u.epoch() > e0, "priors update bumps the epoch");
        assert_eq!(
            u.probability_ppm(k).unwrap(),
            SamplingParams::default().floor_ppm,
            "already-seen context re-based to the floor"
        );
        assert_eq!(u.state(k).unwrap().prior, Some(RiskClass::ProvenSafe));
    }

    #[test]
    fn batched_pending_matches_individual_degradation() {
        let frames = FrameTable::new();
        let mut a = unit();
        let mut b = unit();
        let mut rng_a = Arc4Random::from_seed(1, 0);
        let mut rng_b = Arc4Random::from_seed(1, 0);
        let k = key(&frames, "a");
        let c = ctx(&frames, "site");
        // Unit A: 10 individual allocations. Unit B: one allocation, then
        // one with 8 pending absorbed first — same totals.
        for _ in 0..10 {
            a.on_allocation(k, VirtInstant::BOOT, &mut rng_a, &c, |_| {
                ContextJudgment::clear()
            });
        }
        b.on_allocation(k, VirtInstant::BOOT, &mut rng_b, &c, |_| {
            ContextJudgment::clear()
        });
        let (id, first_seen) = b.entry(k, VirtInstant::BOOT, &c, |_| ContextJudgment::clear());
        b.decide(id, first_seen, VirtInstant::BOOT, &mut rng_b, 8);
        assert_eq!(
            a.state(k).unwrap().alloc_count,
            b.state(k).unwrap().alloc_count,
            "absorbed allocations are counted"
        );
        assert_eq!(
            a.probability_ppm(k).unwrap(),
            b.probability_ppm(k).unwrap(),
            "absorbed degradation matches the per-allocation schedule"
        );
    }

    #[test]
    fn absorb_allocations_counts_and_degrades() {
        let frames = FrameTable::new();
        let mut u = unit();
        let mut rng = Arc4Random::from_seed(1, 0);
        let k = key(&frames, "a");
        alloc(&mut u, k, VirtInstant::BOOT, &mut rng, &frames);
        let before = u.probability_ppm(k).unwrap();
        let id = u.state(k).unwrap().id;
        u.absorb(id, 5);
        assert_eq!(u.state(k).unwrap().alloc_count, 6);
        assert_eq!(u.probability_ppm(k).unwrap(), before - 5 * 10);
        // A zero count is a no-op.
        u.absorb(id, 0);
        assert_eq!(u.state(k).unwrap().alloc_count, 6);
        assert_eq!(u.probability_ppm(k).unwrap(), before - 5 * 10);
    }

    #[test]
    fn degradation_reaches_floor_and_stops() {
        let frames = FrameTable::new();
        let mut u = unit();
        let mut rng = Arc4Random::from_seed(1, 0);
        let k = key(&frames, "a");
        // 50_000 allocations * 10 ppm = 500_000 ppm of degradation, far
        // past the floor. Keep every allocation in a fresh window to
        // avoid burst throttling.
        let mut now = VirtInstant::BOOT;
        for i in 0..60_000u64 {
            if i % 4_000 == 0 {
                now = now + VirtDuration::from_secs(11);
            }
            alloc(&mut u, k, now, &mut rng, &frames);
        }
        let p = u.probability_ppm(k).unwrap();
        // Reviving may have bumped it to 0.01%, but never above that.
        assert!(p <= 100, "probability {p} should be at/near the floor");
        assert!(p >= 10, "probability {p} must respect the floor");
    }

    #[test]
    fn watch_halves_probability() {
        let frames = FrameTable::new();
        let mut u = unit();
        let mut rng = Arc4Random::from_seed(1, 0);
        let k = key(&frames, "a");
        alloc(&mut u, k, VirtInstant::BOOT, &mut rng, &frames);
        let before = u.probability_ppm(k).unwrap();
        u.on_watched(k);
        assert_eq!(u.probability_ppm(k).unwrap(), before / 2);
        assert_eq!(u.state(k).unwrap().watch_count, 1);
        // Halving also floors.
        for _ in 0..30 {
            u.on_watched(k);
        }
        assert_eq!(u.probability_ppm(k).unwrap(), 10);
    }

    #[test]
    fn burst_throttles_then_recovers_to_floor() {
        let frames = FrameTable::new();
        let mut u = unit();
        let mut rng = Arc4Random::from_seed(1, 0);
        let k = key(&frames, "swaptions");
        let t0 = VirtInstant::BOOT;
        // 5,001 allocations within one window trip the throttle.
        for _ in 0..5_001 {
            alloc(&mut u, k, t0, &mut rng, &frames);
        }
        assert_eq!(u.probability_ppm(k).unwrap(), 1, "0.0001% while bursting");
        // Decisions during the burst use the throttled probability.
        let d = alloc(
            &mut u,
            k,
            t0 + VirtDuration::from_secs(1),
            &mut rng,
            &frames,
        );
        assert_eq!(d.probability_ppm, 1);
        // After the window elapses the probability returns to the floor.
        let later = t0 + VirtDuration::from_secs(11);
        let d = alloc(&mut u, k, later, &mut rng, &frames);
        assert_eq!(d.probability_ppm, 10, "recovered to the lower bound");
    }

    #[test]
    fn reviving_boosts_floor_contexts() {
        let frames = FrameTable::new();
        let params = SamplingParams {
            revive_chance_ppm: PPM_SCALE, // make reviving deterministic
            ..SamplingParams::default()
        };
        let mut u = SamplingUnit::new(params);
        let mut rng = Arc4Random::from_seed(1, 0);
        let k = key(&frames, "a");
        // Drive to the floor: initial 50% degrades by 10ppm per alloc;
        // use watches instead for speed.
        alloc(&mut u, k, VirtInstant::BOOT, &mut rng, &frames);
        for _ in 0..30 {
            u.on_watched(k);
        }
        assert_eq!(u.probability_ppm(k).unwrap(), 10);
        // First allocation at the floor records the floor time...
        let t1 = VirtInstant::BOOT + VirtDuration::from_secs(1);
        alloc(&mut u, k, t1, &mut rng, &frames);
        // ...and after the revive period the next allocation boosts.
        let t2 = t1 + VirtDuration::from_secs(11);
        let d = alloc(&mut u, k, t2, &mut rng, &frames);
        assert_eq!(d.probability_ppm, 100, "revived to 0.01%");
    }

    #[test]
    fn pinned_contexts_always_watch() {
        let frames = FrameTable::new();
        let mut u = unit();
        let mut rng = Arc4Random::from_seed(1, 0);
        let k = key(&frames, "a");
        alloc(&mut u, k, VirtInstant::BOOT, &mut rng, &frames);
        u.pin_certain(k);
        for _ in 0..50 {
            let d = alloc(&mut u, k, VirtInstant::BOOT, &mut rng, &frames);
            assert!(d.wants_watch);
            assert_eq!(d.probability_ppm, PPM_SCALE);
        }
        // Watching a pinned context must not halve it.
        u.on_watched(k);
        assert_eq!(u.probability_ppm(k).unwrap(), PPM_SCALE);
    }

    #[test]
    fn known_overflow_prepins_on_first_sight() {
        let frames = FrameTable::new();
        let mut u = unit();
        let mut rng = Arc4Random::from_seed(1, 0);
        let k = key(&frames, "a");
        let d = u.on_allocation(
            k,
            VirtInstant::BOOT,
            &mut rng,
            &ctx(&frames, "a"),
            // The recovered WAL knows this context.
            |_| ContextJudgment {
                known_overflow: true,
                mitigate: false,
            },
        );
        assert!(d.wants_watch);
        assert_eq!(d.probability_ppm, PPM_SCALE);
        assert!(u.state(k).unwrap().pinned_certain);
    }

    #[test]
    fn decision_statistics_follow_probability() {
        let frames = FrameTable::new();
        let mut u = unit();
        let mut rng = Arc4Random::from_seed(77, 0);
        let k = key(&frames, "a");
        // At ~50% the first decisions should be a near-even split.
        let mut watched = 0;
        for _ in 0..1_000 {
            // Reset degradation drift by using many contexts would be
            // complex; tolerate the slight downward drift (~1%).
            if alloc(&mut u, k, VirtInstant::BOOT, &mut rng, &frames).wants_watch {
                watched += 1;
            }
        }
        assert!((400..600).contains(&watched), "watched {watched}/1000");
    }

    #[test]
    fn proven_safe_prior_starts_at_the_floor() {
        use crate::config::AnalysisPriors;
        use crate::config::RiskClass;
        let frames = FrameTable::new();
        let k = key(&frames, "safe_site");
        let priors = AnalysisPriors::from_classes([(k, RiskClass::ProvenSafe)]);
        let mut u = SamplingUnit::with_priors(SamplingParams::default(), priors);
        let mut rng = Arc4Random::from_seed(1, 0);
        let d = alloc(&mut u, k, VirtInstant::BOOT, &mut rng, &frames);
        assert!(d.first_seen);
        assert_eq!(d.probability_ppm, SamplingParams::default().floor_ppm);
        assert_eq!(d.prior, Some(RiskClass::ProvenSafe));
        // Contexts without a verdict keep the 50% default.
        let other = key(&frames, "other_site");
        let d2 = alloc(&mut u, other, VirtInstant::BOOT, &mut rng, &frames);
        assert_eq!(d2.probability_ppm, 500_000);
        assert_eq!(d2.prior, None);
    }

    #[test]
    fn graded_priors_scale_the_first_sight_probability() {
        use crate::config::AnalysisPriors;
        use crate::config::RiskClass;
        let frames = FrameTable::new();
        let params = SamplingParams::default();
        // Unknown overall, but 3 of 4 call strings proven safe: the
        // start descends three quarters of the way toward the floor.
        let k = key(&frames, "mostly_safe");
        let mut priors = AnalysisPriors::from_classes([]);
        priors.observe_context(k, RiskClass::Unknown);
        for _ in 0..3 {
            priors.observe_context(k, RiskClass::ProvenSafe);
        }
        let expected = priors.initial_ppm_for(k, &params).unwrap();
        assert!(expected < params.initial_ppm && expected > params.floor_ppm);
        let mut u = SamplingUnit::with_priors(params, priors);
        let mut rng = Arc4Random::from_seed(1, 0);
        let d = alloc(&mut u, k, VirtInstant::BOOT, &mut rng, &frames);
        assert_eq!(d.probability_ppm, expected);
        assert_eq!(d.prior, Some(RiskClass::Unknown));
    }

    #[test]
    fn graded_priors_flow_through_update_and_bump_the_epoch() {
        use crate::config::AnalysisPriors;
        use crate::config::RiskClass;
        let frames = FrameTable::new();
        let params = SamplingParams::default();
        let mut u = unit();
        let mut rng = Arc4Random::from_seed(1, 0);
        let k = key(&frames, "late_verdict");
        alloc(&mut u, k, VirtInstant::BOOT, &mut rng, &frames);
        let e0 = u.epoch();
        // A late report: every call string of the context suspicious.
        let mut priors = AnalysisPriors::from_classes([]);
        priors.observe_context(k, RiskClass::Suspicious);
        priors.observe_context(k, RiskClass::Suspicious);
        let boost = priors.initial_ppm_for(k, &params).unwrap();
        assert_eq!(boost, PPM_SCALE, "uniformly suspicious watches always");
        u.update_priors(priors);
        assert!(u.epoch() > e0, "decision caches must refresh");
        assert_eq!(u.probability_ppm(k).unwrap(), boost);
    }

    #[test]
    fn suspicious_prior_boosts_and_skips_burst_throttle() {
        use crate::config::AnalysisPriors;
        use crate::config::RiskClass;
        let frames = FrameTable::new();
        let k = key(&frames, "risky_site");
        let priors = AnalysisPriors::from_classes([(k, RiskClass::Suspicious)]);
        let mut u = SamplingUnit::with_priors(SamplingParams::default(), priors);
        let mut rng = Arc4Random::from_seed(1, 0);
        let d = alloc(&mut u, k, VirtInstant::BOOT, &mut rng, &frames);
        assert_eq!(d.probability_ppm, AnalysisPriors::DEFAULT_SUSPICIOUS_PPM);
        assert_eq!(d.prior, Some(RiskClass::Suspicious));
        // 5,001 allocations in one window would throttle a default
        // context to 0.0001%; a suspicious context keeps degrading
        // normally instead.
        for _ in 0..5_001 {
            alloc(&mut u, k, VirtInstant::BOOT, &mut rng, &frames);
        }
        let p = u.probability_ppm(k).unwrap();
        assert!(p > paper::BURST_THROTTLE_PPM, "not throttled: {p}");
        assert!(
            p >= AnalysisPriors::DEFAULT_SUSPICIOUS_PPM - 5_002 * 10,
            "only ordinary degradation applied: {p}"
        );
    }

    #[test]
    fn unknown_prior_follows_default_schedule() {
        use crate::config::AnalysisPriors;
        use crate::config::RiskClass;
        let frames = FrameTable::new();
        let k = key(&frames, "murky_site");
        let priors = AnalysisPriors::from_classes([(k, RiskClass::Unknown)]);
        let mut u = SamplingUnit::with_priors(SamplingParams::default(), priors);
        let mut rng = Arc4Random::from_seed(1, 0);
        let d = alloc(&mut u, k, VirtInstant::BOOT, &mut rng, &frames);
        assert_eq!(d.probability_ppm, 500_000);
        assert_eq!(d.prior, Some(RiskClass::Unknown));
    }

    #[test]
    fn evidence_outranks_a_proven_safe_prior() {
        use crate::config::AnalysisPriors;
        use crate::config::RiskClass;
        let frames = FrameTable::new();
        let k = key(&frames, "misjudged_site");
        let priors = AnalysisPriors::from_classes([(k, RiskClass::ProvenSafe)]);
        let mut u = SamplingUnit::with_priors(SamplingParams::default(), priors);
        let mut rng = Arc4Random::from_seed(1, 0);
        // The WAL from a previous run knows this context
        // overflows: pinning wins over the static verdict.
        let d = u.on_allocation(
            k,
            VirtInstant::BOOT,
            &mut rng,
            &ctx(&frames, "misjudged_site"),
            |_| CONFIRMED,
        );
        assert!(d.wants_watch);
        assert_eq!(d.probability_ppm, PPM_SCALE);
        // Runtime canary evidence also overrides an already-applied
        // floor start.
        let k2 = key(&frames, "misjudged_site_2");
        let mut u2 = SamplingUnit::with_priors(
            SamplingParams::default(),
            AnalysisPriors::from_classes([(k2, RiskClass::ProvenSafe)]),
        );
        alloc(&mut u2, k2, VirtInstant::BOOT, &mut rng, &frames);
        u2.pin_certain(k2);
        assert_eq!(u2.probability_ppm(k2).unwrap(), PPM_SCALE);
    }

    #[test]
    fn mark_mitigated_flags_decisions_and_bumps_epoch() {
        let frames = FrameTable::new();
        let mut u = unit();
        let mut rng = Arc4Random::from_seed(1, 0);
        let k = key(&frames, "a");
        let d = alloc(&mut u, k, VirtInstant::BOOT, &mut rng, &frames);
        assert!(!d.mitigate);
        let e0 = u.epoch();
        u.mark_mitigated(k);
        assert!(u.epoch() > e0, "mitigation bumps the epoch");
        let d = alloc(&mut u, k, VirtInstant::BOOT, &mut rng, &frames);
        assert!(d.mitigate, "later decisions carry the mitigate flag");
        assert!(u.state(k).unwrap().mitigated);
        // Unseen keys are no-ops.
        let e1 = u.epoch();
        u.mark_mitigated(key(&frames, "never-seen"));
        assert_eq!(u.epoch(), e1);
    }

    #[test]
    fn recovered_judgment_mitigates_from_first_sight() {
        let frames = FrameTable::new();
        let mut u = unit();
        let mut rng = Arc4Random::from_seed(1, 0);
        let k = key(&frames, "a");
        // A confirmed context recovered from the durability WAL is both
        // pinned and mitigated from its very first allocation.
        let d = u.on_allocation(k, VirtInstant::BOOT, &mut rng, &ctx(&frames, "a"), |_| {
            CONFIRMED
        });
        assert!(d.wants_watch);
        assert!(d.mitigate);
        assert_eq!(d.probability_ppm, PPM_SCALE);
    }

    #[test]
    fn snapshot_follows_the_index_order() {
        // `RunOutcome.context_watch_counts` and the parity goldens hash
        // the contexts in this order, so a reordered snapshot changes
        // them. The order is the index's bucket-then-slot layout, fixed
        // by the keys and their first-sight order alone.
        let frames = FrameTable::new();
        let mut u = unit();
        let mut rng = Arc4Random::from_seed(1, 0);
        let keys: Vec<ContextKey> = (0..20)
            .map(|i| {
                ContextKey::new(
                    frames.intern(&format!("site{i}.c:1")),
                    0x40 + 0x10 * (i % 3),
                )
            })
            .collect();
        for (i, &k) in (0..).zip(&keys) {
            let d = alloc(&mut u, k, VirtInstant::BOOT, &mut rng, &frames);
            assert_eq!(d.ctx_id, CtxId(i), "ids are dense in first-sight order");
        }
        let snapshot = u.snapshot();
        assert_eq!(u.distinct_contexts(), snapshot.len());
        let order: Vec<u32> = snapshot.iter().map(|(_, s)| s.id.as_u32()).collect();
        assert_eq!(
            order,
            [8, 1, 15, 0, 16, 10, 4, 3, 7, 5, 9, 17, 14, 12, 19, 6, 2, 13, 18, 11]
        );
        for (k, s) in &snapshot {
            assert_eq!(*k, keys[s.id.as_u32() as usize]);
        }
    }

    #[test]
    fn total_allocations_sums_contexts() {
        let frames = FrameTable::new();
        let mut u = unit();
        let mut rng = Arc4Random::from_seed(1, 0);
        for _ in 0..3 {
            alloc(
                &mut u,
                key(&frames, "a"),
                VirtInstant::BOOT,
                &mut rng,
                &frames,
            );
        }
        for _ in 0..2 {
            alloc(
                &mut u,
                key(&frames, "b"),
                VirtInstant::BOOT,
                &mut rng,
                &frames,
            );
        }
        assert_eq!(u.total_allocations(), 5);
        assert_eq!(u.snapshot().len(), 2);
    }
}
