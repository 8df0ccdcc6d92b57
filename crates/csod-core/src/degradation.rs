//! Graceful degradation of the watchpoint path.
//!
//! A production always-on detector must never take the process down when
//! its watchpoint backend misbehaves — `perf_event_open` returning
//! `EBUSY`/`ENOSPC`, debug registers stolen by a co-resident debugger,
//! interrupted syscalls. The [`DegradationManager`] implements the
//! resilience ladder:
//!
//! 1. **Retry with bounded backoff** — a failed install is retried on
//!    virtual time, with the backoff doubling per consecutive failure up
//!    to a cap, and at most [`DegradationParams::MAX_RETRIES`] attempts
//!    per candidate.
//! 2. **Context quarantine** — a context whose installs keep failing is
//!    benched for [`DegradationParams::quarantine_period`] so the tool
//!    stops burning syscalls on it.
//! 3. **Canary-only mode** — after
//!    [`DegradationParams::degrade_threshold`] consecutive backend
//!    failures the manager stops requesting watchpoints entirely;
//!    detection continues through canary evidence (the paper's
//!    Section IV-B fallback), which needs no kernel support.
//! 4. **Self-healing** — while degraded, one install per
//!    [`DegradationParams::probe_interval`] is let through as a probe;
//!    the first success re-arms the watchpoint path.

use crate::watchpoints::WatchCandidate;
use csod_ctx::ContextKey;
use sim_machine::{FxBuild, VirtDuration, VirtInstant};
use std::collections::HashMap;
use std::fmt;

/// Tuning knobs of the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationParams {
    /// Backoff after the first failed install; doubles per consecutive
    /// failure.
    pub retry_backoff: VirtDuration,
    /// Upper bound on the doubled backoff.
    pub max_backoff: VirtDuration,
    /// Consecutive per-context failures before the context is benched.
    pub quarantine_threshold: u32,
    /// How long a benched context stays out of the watch path.
    pub quarantine_period: VirtDuration,
    /// Consecutive backend failures before falling back to canary-only
    /// detection.
    pub degrade_threshold: u32,
    /// While degraded, how often one install is let through as a probe.
    pub probe_interval: VirtDuration,
}

impl DegradationParams {
    /// Install attempts per candidate before it is abandoned.
    pub const MAX_RETRIES: u32 = 4;
}

impl Default for DegradationParams {
    fn default() -> Self {
        DegradationParams {
            retry_backoff: VirtDuration::from_millis(10),
            max_backoff: VirtDuration::from_secs(1),
            quarantine_threshold: 3,
            quarantine_period: VirtDuration::from_secs(60),
            degrade_threshold: 8,
            probe_interval: VirtDuration::from_secs(1),
        }
    }
}

/// Which detection tier the runtime currently operates in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DetectionMode {
    /// Watchpoints armed normally (canaries still active in evidence
    /// mode).
    #[default]
    Watchpoints,
    /// The watchpoint backend is considered down; only canary evidence
    /// detects overflows until a probe succeeds.
    CanaryOnly,
}

impl fmt::Display for DetectionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectionMode::Watchpoints => f.write_str("watchpoints"),
            DetectionMode::CanaryOnly => f.write_str("canary-only"),
        }
    }
}

/// Health and transition counters of the degradation ladder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationStats {
    /// Failed installs of a sampled candidate, first tries and retries
    /// alike, as reported through
    /// [`DegradationManager::on_install_failure`]. A failed extension of
    /// a live watch onto a new thread is not one of them: it is counted
    /// only in `WatchpointStats::install_failures`.
    pub install_failures: u64,
    /// Retry attempts performed.
    pub retries: u64,
    /// Retries that ended in a successful install.
    pub retry_successes: u64,
    /// Contexts benched for repeated failures.
    pub quarantines: u64,
    /// Transitions into canary-only mode.
    pub degradations: u64,
    /// Transitions back to watchpoints (a probe succeeded).
    pub recoveries: u64,
    /// Probe installs attempted while degraded.
    pub probes: u64,
}

/// What [`DegradationManager::on_install_failure`] decided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureVerdict {
    /// The context crossed the quarantine threshold on this failure.
    pub quarantined: bool,
    /// The backend crossed the degrade threshold on this failure.
    pub degraded: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct CtxHealth {
    consecutive_failures: u32,
    quarantined_until: Option<VirtInstant>,
}

#[derive(Debug, Clone, Copy)]
struct PendingRetry {
    candidate: WatchCandidate,
    attempts: u32,
    due: VirtInstant,
}

/// The degradation state machine. One per [`crate::Csod`] runtime.
#[derive(Debug)]
pub struct DegradationManager {
    params: DegradationParams,
    mode: DetectionMode,
    /// Consecutive backend failures (any context); reset on success.
    consecutive_failures: u32,
    /// No install attempts before this instant (bounded backoff).
    backoff_until: Option<VirtInstant>,
    /// While degraded: the next time a probe install is allowed.
    next_probe: VirtInstant,
    ctx_health: HashMap<ContextKey, CtxHealth, FxBuild>,
    /// Candidates waiting for their retry slot. Bounded: one per
    /// watchpoint slot is plenty — anything more is churn.
    retry_queue: Vec<PendingRetry>,
    retry_capacity: usize,
    stats: DegradationStats,
}

impl DegradationManager {
    /// Creates a manager; `retry_capacity` bounds the retry queue (the
    /// runtime passes its watchpoint slot count).
    pub fn new(params: DegradationParams, retry_capacity: usize) -> Self {
        DegradationManager {
            params,
            mode: DetectionMode::Watchpoints,
            consecutive_failures: 0,
            backoff_until: None,
            next_probe: VirtInstant::BOOT,
            ctx_health: HashMap::default(),
            retry_queue: Vec::new(),
            retry_capacity: retry_capacity.max(1),
            stats: DegradationStats::default(),
        }
    }

    /// The current detection tier.
    pub fn mode(&self) -> DetectionMode {
        self.mode
    }

    /// Health counters.
    pub fn stats(&self) -> DegradationStats {
        self.stats
    }

    /// Gate in front of every install attempt. Returns `false` while the
    /// context is benched, while backoff is pending, or — in canary-only
    /// mode — between probes. A `true` in canary-only mode *is* the
    /// probe: the caller must report the outcome back.
    pub fn allows_install(&mut self, now: VirtInstant, key: ContextKey) -> bool {
        if let Some(h) = self.ctx_health.get_mut(&key) {
            match h.quarantined_until {
                Some(until) if now < until => return false,
                Some(_) => {
                    // Quarantine served; start fresh.
                    h.quarantined_until = None;
                    h.consecutive_failures = 0;
                }
                None => {}
            }
        }
        match self.mode {
            DetectionMode::Watchpoints => !matches!(self.backoff_until, Some(until) if now < until),
            DetectionMode::CanaryOnly => {
                if now >= self.next_probe {
                    self.stats.probes += 1;
                    self.next_probe = now + self.params.probe_interval;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Reports a successful install. Clears backoff and the context's
    /// failure streak; in canary-only mode this is the probe success
    /// that re-arms the watchpoint path. Returns `true` when the call
    /// caused a recovery transition.
    pub fn on_install_success(&mut self, key: ContextKey) -> bool {
        self.consecutive_failures = 0;
        self.backoff_until = None;
        if let Some(h) = self.ctx_health.get_mut(&key) {
            h.consecutive_failures = 0;
        }
        if self.mode == DetectionMode::CanaryOnly {
            self.mode = DetectionMode::Watchpoints;
            self.stats.recoveries += 1;
            return true;
        }
        false
    }

    /// Reports a failed install of `candidate`. Applies backoff,
    /// schedules a bounded retry, and advances the ladder (quarantine /
    /// canary-only) when thresholds are crossed.
    ///
    /// `prior_attempts` is 0 for a first-time install and the retry
    /// count when the failure came from a retry.
    pub fn on_install_failure(
        &mut self,
        now: VirtInstant,
        candidate: WatchCandidate,
        prior_attempts: u32,
    ) -> FailureVerdict {
        self.stats.install_failures += 1;
        let mut verdict = FailureVerdict::default();

        // Per-context streak -> quarantine.
        let health = self.ctx_health.entry(candidate.key).or_default();
        health.consecutive_failures += 1;
        if health.consecutive_failures >= self.params.quarantine_threshold
            && health.quarantined_until.is_none()
        {
            health.quarantined_until = Some(now + self.params.quarantine_period);
            health.consecutive_failures = 0;
            self.stats.quarantines += 1;
            verdict.quarantined = true;
        }

        // Backend streak -> backoff, then canary-only.
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let exp = self.consecutive_failures.saturating_sub(1).min(20);
        let backoff_ns = self
            .params
            .retry_backoff
            .as_nanos()
            .saturating_mul(1u64 << exp)
            .min(self.params.max_backoff.as_nanos());
        self.backoff_until = Some(now + VirtDuration::from_nanos(backoff_ns));
        if self.mode == DetectionMode::Watchpoints
            && self.consecutive_failures >= self.params.degrade_threshold
        {
            self.mode = DetectionMode::CanaryOnly;
            self.next_probe = now + self.params.probe_interval;
            self.stats.degradations += 1;
            verdict.degraded = true;
        }

        // Bounded retry of this candidate (not in quarantine, attempts
        // left, queue not full).
        let attempts = prior_attempts + 1;
        if !verdict.quarantined
            && attempts < DegradationParams::MAX_RETRIES
            && self.retry_queue.len() < self.retry_capacity
        {
            self.retry_queue.push(PendingRetry {
                candidate,
                attempts,
                due: now + VirtDuration::from_nanos(backoff_ns),
            });
        }
        verdict
    }

    /// Drains the retry candidates whose backoff has elapsed. The caller
    /// re-attempts each and reports the outcome through
    /// [`DegradationManager::on_install_success`] /
    /// [`DegradationManager::on_install_failure`] (passing the returned
    /// attempt count).
    pub fn due_retries(&mut self, now: VirtInstant) -> Vec<(WatchCandidate, u32)> {
        let mut due = Vec::new();
        self.retry_queue.retain(|r| {
            if r.due <= now {
                due.push((r.candidate, r.attempts));
                false
            } else {
                true
            }
        });
        self.stats.retries += due.len() as u64;
        due
    }

    /// Records that a drained retry succeeded (separate from
    /// [`DegradationManager::on_install_success`] bookkeeping so the
    /// retry-success counter stays meaningful).
    pub fn on_retry_success(&mut self) {
        self.stats.retry_successes += 1;
    }

    /// Forgets a freed object's pending retry, if any.
    pub fn cancel_retry(&mut self, object_start: sim_machine::VirtAddr) {
        self.retry_queue
            .retain(|r| r.candidate.object_start != object_start);
    }

    /// Number of install retries currently waiting out their backoff.
    /// The free fast path reads this (a plain `Vec::len`) to decide
    /// whether the retry-cancel scan can be skipped entirely.
    pub fn pending_retries(&self) -> usize {
        self.retry_queue.len()
    }

    /// Number of contexts currently benched.
    pub fn quarantined_contexts(&self, now: VirtInstant) -> usize {
        self.ctx_health
            .values()
            .filter(|h| h.quarantined_until.is_some_and(|until| now < until))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::CtxId;
    use csod_ctx::FrameTable;
    use sim_machine::VirtAddr;

    fn candidate(frames: &FrameTable, name: &str) -> WatchCandidate {
        WatchCandidate {
            object_start: VirtAddr::new(0x10_0000),
            canary_addr: VirtAddr::new(0x10_0040),
            key: ContextKey::new(frames.intern(name), 0),
            ctx_id: CtxId::from_index(0),
            probability_ppm: 1000,
        }
    }

    fn manager() -> DegradationManager {
        DegradationManager::new(DegradationParams::default(), 4)
    }

    #[test]
    fn healthy_manager_allows_everything() {
        let frames = FrameTable::new();
        let c = candidate(&frames, "a");
        let mut m = manager();
        assert_eq!(m.mode(), DetectionMode::Watchpoints);
        assert!(m.allows_install(VirtInstant::BOOT, c.key));
        assert!(!m.on_install_success(c.key));
        assert_eq!(m.stats(), DegradationStats::default());
    }

    #[test]
    fn failure_applies_backoff_then_retries() {
        let frames = FrameTable::new();
        let c = candidate(&frames, "a");
        let mut m = manager();
        let t0 = VirtInstant::BOOT;
        let v = m.on_install_failure(t0, c, 0);
        assert!(!v.quarantined && !v.degraded);
        // Inside the 10ms backoff: installs gated, retry not yet due.
        let t1 = t0 + VirtDuration::from_millis(5);
        assert!(!m.allows_install(t1, c.key));
        assert!(m.due_retries(t1).is_empty());
        // After the backoff both open up.
        let t2 = t0 + VirtDuration::from_millis(11);
        assert!(m.allows_install(t2, c.key));
        let due = m.due_retries(t2);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].1, 1, "first retry");
        assert_eq!(m.stats().retries, 1);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let frames = FrameTable::new();
        let c = candidate(&frames, "a");
        let p = DegradationParams::default();
        let mut m = manager();
        let mut now = VirtInstant::BOOT;
        for i in 0..20u32 {
            m.on_install_failure(now, c, u32::MAX - 1); // no retry queueing
            let expected = p
                .retry_backoff
                .as_nanos()
                .saturating_mul(1 << i.min(20))
                .min(p.max_backoff.as_nanos());
            assert!(!m.allows_install(now + VirtDuration::from_nanos(expected - 1), c.key));
            now = now + VirtDuration::from_secs(100); // outlive any quarantine
                                                      // Quarantine interferes with this test's purpose; clear it.
            m.ctx_health.clear();
            m.mode = DetectionMode::Watchpoints;
        }
    }

    #[test]
    fn repeated_context_failures_quarantine() {
        let frames = FrameTable::new();
        let c = candidate(&frames, "a");
        let mut m = manager();
        let now = VirtInstant::BOOT;
        let mut quarantined = false;
        for _ in 0..DegradationParams::default().quarantine_threshold {
            quarantined = m.on_install_failure(now, c, u32::MAX - 1).quarantined;
        }
        assert!(quarantined);
        let is_quarantined = |m: &DegradationManager, key, at| {
            m.ctx_health
                .get(&key)
                .and_then(|h| h.quarantined_until)
                .is_some_and(|until| at < until)
        };
        assert!(is_quarantined(&m, c.key, now));
        assert!(!m.allows_install(now, c.key));
        assert_eq!(m.quarantined_contexts(now), 1);
        // Another context is unaffected (modulo global backoff).
        let other = candidate(&frames, "b");
        assert!(!is_quarantined(&m, other.key, now));
        // After the period the context is paroled.
        let later = now + DegradationParams::default().quarantine_period;
        assert!(!is_quarantined(&m, c.key, later));
        assert!(m.allows_install(later, c.key));
    }

    #[test]
    fn persistent_failures_degrade_then_probe_then_recover() {
        let frames = FrameTable::new();
        let p = DegradationParams::default();
        let mut m = manager();
        let mut now = VirtInstant::BOOT;
        let mut degraded = false;
        for i in 0..p.degrade_threshold {
            // Distinct contexts so quarantine does not kick in first.
            let c = candidate(&frames, &format!("ctx{i}"));
            degraded = m.on_install_failure(now, c, u32::MAX - 1).degraded;
            if !degraded {
                now = now + VirtDuration::from_secs(2);
            }
        }
        assert!(degraded);
        assert_eq!(m.mode(), DetectionMode::CanaryOnly);
        assert_eq!(m.stats().degradations, 1);
        // Between probes nothing is allowed...
        let c = candidate(&frames, "probe");
        now = now + VirtDuration::from_millis(1);
        assert!(!m.allows_install(now, c.key));
        // ...at the probe point exactly one attempt goes through.
        now = now + p.probe_interval;
        assert!(m.allows_install(now, c.key));
        assert!(!m.allows_install(now, c.key), "one probe per interval");
        assert_eq!(m.stats().probes, 1);
        // The probe succeeding re-arms the watchpoint path.
        assert!(m.on_install_success(c.key));
        assert_eq!(m.mode(), DetectionMode::Watchpoints);
        assert_eq!(m.stats().recoveries, 1);
        assert!(m.allows_install(now, c.key));
    }

    #[test]
    fn retry_queue_is_bounded_and_cancellable() {
        let frames = FrameTable::new();
        let mut m = DegradationManager::new(DegradationParams::default(), 2);
        let now = VirtInstant::BOOT;
        for i in 0..5 {
            let mut c = candidate(&frames, &format!("c{i}"));
            c.object_start = VirtAddr::new(0x2000 + i * 0x100);
            m.on_install_failure(now, c, 0);
        }
        let far = now + VirtDuration::from_secs(10);
        // Only 2 queued despite 5 failures; cancel removes by object.
        m.cancel_retry(VirtAddr::new(0x2000));
        let due = m.due_retries(far);
        assert_eq!(due.len(), 1);
        // Exhausted candidates (attempts >= MAX_RETRIES) never queue.
        let c = candidate(&frames, "spent");
        m.on_install_failure(far, c, DegradationParams::MAX_RETRIES);
        assert!(m.due_retries(far + VirtDuration::from_secs(10)).is_empty());
    }
}
