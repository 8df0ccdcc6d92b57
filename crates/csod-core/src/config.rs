//! Runtime configuration.

use crate::degradation::DegradationParams;
use crate::policy::ReplacementPolicy;
use csod_ctx::ContextKey;
use csod_rng::PPM_SCALE;
use sim_machine::VirtDuration;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;

/// The paper's pre-defined sampling macros (Sections III-B2 and IV-A) as
/// shared named constants.
///
/// "These percentages are pre-defined macros used at compilation time" —
/// every crate that needs one of them (the Sampling Management Unit's
/// defaults, the `ablation_sampling` sweep labels, the Sampler baseline's
/// comparable-budget tuning) must reference these constants instead of
/// re-deriving the numbers, so the crates cannot drift apart.
pub mod paper {
    use csod_rng::PPM_SCALE;
    use sim_machine::VirtDuration;

    /// Initial watch probability of every new calling context: 50 %.
    pub const INITIAL_WATCH_PPM: u32 = PPM_SCALE / 2;
    /// Degradation applied on every allocation from a context: 0.001 %.
    pub const DEGRADE_PER_ALLOC_PPM: u32 = 10;
    /// Lower bound no degradation can cross: 0.001 %.
    pub const FLOOR_PPM: u32 = 10;
    /// Allocations within [`BURST_WINDOW`] beyond which a context is
    /// throttled: 5,000.
    pub const BURST_ALLOC_THRESHOLD: u32 = 5_000;
    /// The burst-detection window: 10 seconds.
    pub const BURST_WINDOW: VirtDuration = VirtDuration::from_secs(10);
    /// Probability while throttled: 0.0001 %.
    pub const BURST_THROTTLE_PPM: u32 = 1;
    /// Reviving boost applied to floor-level contexts (Section IV-A):
    /// 0.01 %.
    pub const REVIVE_PPM: u32 = 100;
    /// Quiet period before a floor-level context may be revived.
    pub const REVIVE_PERIOD: VirtDuration = VirtDuration::from_secs(10);
}

/// How watchpoints reach the hardware debug registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WatchBackend {
    /// `perf_event_open` within the same process — the paper's choice
    /// (Section II-A), five syscalls per thread per install.
    #[default]
    PerfEvent,
    /// Traditional `ptrace` from a helper process — works, but each
    /// install pays attach/poke/detach round trips (the overhead that
    /// motivated the perf-event route).
    Ptrace,
    /// The combined custom syscall the paper proposes as future work
    /// (Section V-B): one kernel entry installs the watchpoint on every
    /// alive thread.
    CombinedSyscall,
}

impl fmt::Display for WatchBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WatchBackend::PerfEvent => f.write_str("perf_event_open"),
            WatchBackend::Ptrace => f.write_str("ptrace"),
            WatchBackend::CombinedSyscall => f.write_str("combined-syscall"),
        }
    }
}

/// The adaptive-sampling constants of paper Section III-B2 and IV-A.
///
/// "These percentages are pre-defined macros used at compilation time,
/// which could be further adjusted based on the behavior of programs" —
/// the ones a caller adjusts (the fleet budget, the `ablation_sampling`
/// sweep) are plain fields; the burst window and throttle and the
/// reviving boost and period are the [`paper`] constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingParams {
    /// Initial probability of every new calling context (paper: 50 %).
    pub initial_ppm: u32,
    /// Degradation applied on *every* allocation from a context,
    /// watched or not (paper: 0.001 %).
    pub degrade_per_alloc_ppm: u32,
    /// Lower bound no degradation can cross (paper: 0.001 %).
    pub floor_ppm: u32,
    /// Allocation count within [`paper::BURST_WINDOW`] beyond which the
    /// context is throttled (paper: 5,000).
    pub burst_threshold: u32,
    /// Chance per allocation that an eligible context is actually
    /// revived ("augmented randomly").
    pub revive_chance_ppm: u32,
}

impl Default for SamplingParams {
    fn default() -> Self {
        SamplingParams {
            initial_ppm: paper::INITIAL_WATCH_PPM,
            degrade_per_alloc_ppm: paper::DEGRADE_PER_ALLOC_PPM,
            floor_ppm: paper::FLOOR_PPM,
            burst_threshold: paper::BURST_ALLOC_THRESHOLD,
            revive_chance_ppm: PPM_SCALE / 100, // 1% per allocation once eligible
        }
    }
}

/// Tuning knobs for the per-allocation fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastPathParams {
    /// Sampling decisions per context a thread may serve from its
    /// decision cache before the sampling unit decides again.
    /// `1` disables memoization (every decision goes to the sampling
    /// unit — the pre-cache behaviour, kept as a bench comparison mode).
    /// Probability-changing events invalidate caches immediately
    /// regardless of this interval; it only bounds how long plain
    /// degradation drift can accumulate (`refresh × 10 ppm` with the
    /// paper constants).
    pub decision_cache_refresh: u32,
    /// Defer the Figure-4 `ioctl`/`close` teardown of freed watchpoints
    /// into batches drained at `poll()`/install/quiesce points, instead
    /// of paying two syscalls per descriptor on the free path itself.
    /// Disable for the paper-faithful synchronous teardown.
    pub deferred_teardown: bool,
    /// Resolve firing watchpoints through a hashed fd→slot index instead
    /// of the paper's one-by-one descriptor comparison (Section III-D1).
    /// Disable for the paper-faithful linear scan.
    pub fd_index: bool,
}

impl FastPathParams {
    /// The default refresh interval: 64 decisions per context between
    /// authoritative table reads, a worst-case drift of 640 ppm against
    /// an initial probability of 500,000 ppm.
    pub const DEFAULT_REFRESH: u32 = 64;

    /// Parameters with the paper-faithful free path: synchronous per-fd
    /// Figure-4 teardown and linear trap dispatch (Section III-D1). Used
    /// by the parity suites and as the bench comparison mode.
    pub fn synchronous_teardown() -> Self {
        FastPathParams {
            deferred_teardown: false,
            fd_index: false,
            ..FastPathParams::default()
        }
    }
}

impl Default for FastPathParams {
    fn default() -> Self {
        FastPathParams {
            decision_cache_refresh: Self::DEFAULT_REFRESH,
            deferred_teardown: true,
            fd_index: true,
        }
    }
}

/// Static risk verdict for one allocation calling context, produced by
/// the `csod-analyze` pre-pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RiskClass {
    /// Every reachable access is provably within the object's bounds —
    /// the sampler may start the context at the probability floor.
    ProvenSafe,
    /// Some reachable access can reach or exceed the object size — the
    /// sampler boosts the context and exempts it from burst throttling.
    Suspicious,
    /// The analysis lost precision (widened interval, ambiguous pointer
    /// binding); the paper's default schedule applies unchanged.
    Unknown,
}

/// Error parsing a [`RiskClass`] from its `Display` form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRiskClassError(String);

impl fmt::Display for ParseRiskClassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown risk class {:?}", self.0)
    }
}

impl std::error::Error for ParseRiskClassError {}

impl std::str::FromStr for RiskClass {
    type Err = ParseRiskClassError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "proven-safe" => Ok(RiskClass::ProvenSafe),
            "suspicious" => Ok(RiskClass::Suspicious),
            "unknown" => Ok(RiskClass::Unknown),
            other => Err(ParseRiskClassError(other.to_owned())),
        }
    }
}

impl fmt::Display for RiskClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RiskClass::ProvenSafe => f.write_str("proven-safe"),
            RiskClass::Suspicious => f.write_str("suspicious"),
            RiskClass::Unknown => f.write_str("unknown"),
        }
    }
}

impl RiskClass {
    /// Severity order of the verdict lattice:
    /// `ProvenSafe < Unknown < Suspicious`. A context is only as safe
    /// as its riskiest call string, so merging verdicts takes the
    /// maximum severity.
    pub fn severity(self) -> u8 {
        match self {
            RiskClass::ProvenSafe => 0,
            RiskClass::Unknown => 1,
            RiskClass::Suspicious => 2,
        }
    }
}

/// Per-call-string detail behind one allocation context's merged
/// verdict: how many k-limited call strings the analyzer saw the
/// context allocate under, and how they classified. The sampler grades
/// a context's *initial* probability with these counts
/// ([`AnalysisPriors::initial_ppm_for`]): a site suspicious under every
/// call string starts hotter than one suspicious under one of many, and
/// an unknown site with mostly proven-safe call strings starts closer
/// to the floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CallStringPrior {
    /// Number of (site, call string) verdict rows observed.
    pub contexts: u32,
    /// Rows classified proven-safe.
    pub proven_safe: u32,
    /// Rows classified suspicious.
    pub suspicious: u32,
}

/// Per-context risk priors fed into the Sampling Management Unit from a
/// static pre-analysis (`csod-analyze`'s `RiskReport::to_priors`).
///
/// An empty table (the default) leaves the runtime behaviour exactly as
/// the paper describes: every context starts at
/// [`paper::INITIAL_WATCH_PPM`] and follows the adaptive schedule.
/// With priors, [`RiskClass::ProvenSafe`] contexts start at the floor
/// and skip the availability bypass, [`RiskClass::Suspicious`] contexts
/// start at [`AnalysisPriors::DEFAULT_SUSPICIOUS_PPM`] and are exempt
/// from burst throttling, and [`RiskClass::Unknown`] contexts are untouched.
/// Evidence pinning (Section IV-B) always outranks a prior.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AnalysisPriors {
    /// Static verdict per allocation calling context (the worst class
    /// across the context's call strings).
    pub classes: HashMap<ContextKey, RiskClass>,
    /// Per-call-string detail behind each verdict, where the analyzer
    /// provided it.
    pub detail: HashMap<ContextKey, CallStringPrior>,
}

impl AnalysisPriors {
    /// Initial probability for [`RiskClass::Suspicious`] contexts, in
    /// ppm: 90 %, a boost over the paper's 50 % start.
    pub const DEFAULT_SUSPICIOUS_PPM: u32 = PPM_SCALE / 10 * 9;

    /// An empty prior table (no static analysis ran).
    pub fn none() -> Self {
        AnalysisPriors::default()
    }

    /// Builds a prior table from per-context verdicts.
    pub fn from_classes(classes: impl IntoIterator<Item = (ContextKey, RiskClass)>) -> Self {
        AnalysisPriors {
            classes: classes.into_iter().collect(),
            detail: HashMap::new(),
        }
    }

    /// Folds one (site, call string) verdict row into the table: the
    /// context's merged class keeps the worst severity seen, and the
    /// per-call-string counters record the split.
    pub fn observe_context(&mut self, key: ContextKey, class: RiskClass) {
        let merged = self.classes.entry(key).or_insert(class);
        if class.severity() > merged.severity() {
            *merged = class;
        }
        let d = self.detail.entry(key).or_default();
        d.contexts += 1;
        match class {
            RiskClass::ProvenSafe => d.proven_safe += 1,
            RiskClass::Suspicious => d.suspicious += 1,
            RiskClass::Unknown => {}
        }
    }

    /// The initial watch probability this prior table assigns `key`
    /// under `params`, or `None` for contexts without a verdict (the
    /// paper's default schedule applies).
    ///
    /// Without detail this is the classic three-way split: floor for
    /// proven-safe,
    /// [`DEFAULT_SUSPICIOUS_PPM`](AnalysisPriors::DEFAULT_SUSPICIOUS_PPM)
    /// for suspicious, `initial_ppm` for unknown. With per-call-string
    /// detail the start is graded: a suspicious context climbs from
    /// `DEFAULT_SUSPICIOUS_PPM` toward 100 % with the fraction of its call
    /// strings that are suspicious, and an unknown context descends
    /// from `initial_ppm` toward the floor with the fraction proven
    /// safe.
    pub fn initial_ppm_for(&self, key: ContextKey, params: &SamplingParams) -> Option<u32> {
        // part + (span * num / den), saturating at part + span.
        let graded = |part: u32, span: u32, num: u32, den: u32| {
            if den == 0 {
                return part;
            }
            let add = u64::from(span) * u64::from(num.min(den)) / u64::from(den);
            part + u32::try_from(add).unwrap_or(span)
        };
        let d = self.detail.get(&key).copied().unwrap_or_default();
        Some(match self.class_of(key)? {
            RiskClass::ProvenSafe => params.floor_ppm,
            RiskClass::Suspicious => graded(
                Self::DEFAULT_SUSPICIOUS_PPM,
                PPM_SCALE - Self::DEFAULT_SUSPICIOUS_PPM,
                d.suspicious,
                d.contexts,
            ),
            RiskClass::Unknown => {
                let span = params.initial_ppm.saturating_sub(params.floor_ppm);
                params.initial_ppm - graded(0, span, d.proven_safe, d.contexts)
            }
        })
    }

    /// `true` if no context has a verdict.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The verdict recorded for `key`, if any.
    pub fn class_of(&self, key: ContextKey) -> Option<RiskClass> {
        self.classes.get(&key).copied()
    }

    /// Number of contexts carrying each verdict:
    /// `(proven_safe, suspicious, unknown)`.
    pub fn census(&self) -> (usize, usize, usize) {
        let mut safe = 0;
        let mut sus = 0;
        let mut unknown = 0;
        for class in self.classes.values() {
            match class {
                RiskClass::ProvenSafe => safe += 1,
                RiskClass::Suspicious => sus += 1,
                RiskClass::Unknown => unknown += 1,
            }
        }
        (safe, sus, unknown)
    }
}

/// Knobs for the closed-loop mitigation of confirmed-overflowing
/// contexts.
///
/// Once a context is *confirmed* overflowing — a watchpoint trap or a
/// corrupted canary, both zero-false-positive signals — its future
/// allocations are transparently hardened: the requested size is
/// over-allocated and rounded so the canary (and the neighbouring
/// object) sit past a slack region that absorbs the overflow, and freed
/// hardened objects pass through a bounded quarantine before their
/// memory is reused. Every *other* context keeps the zero-overhead fast
/// paths untouched; mitigation verdicts ride the per-thread decision
/// cache and are invalidated through the existing probability-epoch
/// mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MitigationParams {
    /// Master switch. Off: confirmed contexts are only pinned (the
    /// paper's behaviour), never hardened.
    pub enabled: bool,
    /// Freed hardened objects held back from reuse; the oldest is
    /// released once the quarantine exceeds this many objects. `0`
    /// disables the quarantine.
    pub quarantine_capacity: usize,
}

impl Default for MitigationParams {
    fn default() -> Self {
        MitigationParams {
            enabled: true,
            quarantine_capacity: 64,
        }
    }
}

impl MitigationParams {
    /// Minimum over-allocation past the object's original boundary, in
    /// bytes. The overflow the context was convicted of lands in this
    /// slack instead of the canary or a neighbour.
    pub const SLACK_BYTES: u64 = 32;
    /// Hardened sizes are rounded up to a multiple of this (size-class
    /// rounding keeps the hardened allocations allocator-friendly).
    pub const SIZE_ALIGN: u64 = 16;

    /// Mitigation switched off entirely (paper-faithful pin-only
    /// behaviour).
    pub fn disabled() -> Self {
        MitigationParams {
            enabled: false,
            ..MitigationParams::default()
        }
    }

    /// The hardened request for `requested` bytes: the original size
    /// plus slack, rounded up to the size alignment.
    pub fn harden(&self, requested: u64) -> u64 {
        let grown = requested.saturating_add(Self::SLACK_BYTES);
        grown
            .div_ceil(Self::SIZE_ALIGN)
            .saturating_mul(Self::SIZE_ALIGN)
    }
}

/// Full CSOD configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsodConfig {
    /// Watchpoint replacement policy.
    pub policy: ReplacementPolicy,
    /// How watchpoints are installed on the hardware.
    pub backend: WatchBackend,
    /// Watchpoint slots to manage — 4 on real x86-64. Values above 4
    /// require a machine built with
    /// [`sim_machine::Machine::with_debug_registers`] (the register-count
    /// ablation).
    pub watchpoint_slots: usize,
    /// Enable the evidence-based over-write detection of Section IV-B
    /// (32-byte header + 8-byte canary, checked on free and at exit).
    pub evidence: bool,
    /// Adaptive-sampling constants.
    pub sampling: SamplingParams,
    /// Allocation fast-path tuning (per-thread decision caches).
    pub fast_path: FastPathParams,
    /// Per-context risk priors from the `csod-analyze` static pre-pass.
    /// Empty by default — the purely dynamic schedule of the paper.
    pub priors: AnalysisPriors,
    /// Graceful-degradation knobs for a misbehaving watchpoint backend
    /// (retry backoff, context quarantine, canary-only fallback).
    pub degradation: DegradationParams,
    /// Age after which an installed watchpoint's probability is halved
    /// when competing against a replacement candidate (paper: 10 s).
    pub watch_age_decay: VirtDuration,
    /// Seed for the per-thread sampling generators.
    pub seed: u64,
    /// Crash-safe write-ahead log of context records (canary evidence,
    /// trap signatures, mitigation confirmations): the persisted
    /// evidence of Section IV-B, so the next execution watches every
    /// known-overflowing context from the start. Each record is
    /// appended *before* its report is sinked, so a process killed by
    /// its own overflow still leaves the boost behind for the second
    /// execution. Recovered records seed the sampler and the mitigation
    /// policy at startup; with [`MitigationParams::disabled`] they only
    /// pin. A missing file recovers as empty. The file is created by
    /// the first confirmation, so a run that confirms nothing leaves no
    /// file; a clean exit compacts the log to one `Mitigated` record per
    /// confirmed context, and skips that rewrite when the log already
    /// holds exactly those records and nothing was appended. `None`
    /// keeps the evidence in memory only.
    pub persist_path: Option<PathBuf>,
    /// Closed-loop hardening of confirmed-overflowing contexts.
    pub mitigation: MitigationParams,
    /// Observability: event tracer and trap-report sink wiring.
    pub trace: TraceParams,
}

/// Observability knobs: the per-thread event rings and the JSONL file
/// overflow reports are appended to. [`TraceParams::events`] is the one
/// tracing switch; the tracer itself is always compiled in, with
/// [`csod_trace::DEFAULT_RING_CAPACITY`] events per thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParams {
    /// Emit runtime events into the per-thread rings. Off: `emit` sites
    /// cost one branch and no ring is allocated.
    pub events: bool,
    /// Append each overflow report as a JSON line to this file, in
    /// addition to the always-on in-memory report list.
    pub trap_report_path: Option<PathBuf>,
}

impl Default for TraceParams {
    fn default() -> Self {
        TraceParams {
            events: true,
            trap_report_path: None,
        }
    }
}

impl Default for CsodConfig {
    fn default() -> Self {
        CsodConfig {
            policy: ReplacementPolicy::NearFifo,
            backend: WatchBackend::PerfEvent,
            watchpoint_slots: 4,
            evidence: true,
            sampling: SamplingParams::default(),
            fast_path: FastPathParams::default(),
            priors: AnalysisPriors::none(),
            degradation: DegradationParams::default(),
            watch_age_decay: VirtDuration::from_secs(10),
            seed: 0xC50D,
            persist_path: None,
            mitigation: MitigationParams::default(),
            trace: TraceParams::default(),
        }
    }
}

impl CsodConfig {
    /// The paper's "CSOD w/o Evidence" configuration (Figure 7).
    pub fn without_evidence() -> Self {
        CsodConfig {
            evidence: false,
            ..CsodConfig::default()
        }
    }

    /// Convenience: default configuration with the given policy.
    pub fn with_policy(policy: ReplacementPolicy) -> Self {
        CsodConfig {
            policy,
            ..CsodConfig::default()
        }
    }

    /// Convenience: default configuration with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        CsodConfig {
            seed,
            ..CsodConfig::default()
        }
    }

    /// Convenience: default configuration primed with the given static
    /// analysis verdicts.
    pub fn with_priors(priors: AnalysisPriors) -> Self {
        CsodConfig {
            priors,
            ..CsodConfig::default()
        }
    }

    /// Checks the configuration for internally inconsistent values.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.watchpoint_slots == 0 {
            return Err("watchpoint_slots must be at least 1".into());
        }
        let s = &self.sampling;
        if s.initial_ppm > PPM_SCALE {
            return Err(format!(
                "initial probability {} ppm exceeds 100%",
                s.initial_ppm
            ));
        }
        if s.floor_ppm == 0 {
            return Err("floor probability must be positive or contexts die forever".into());
        }
        if s.floor_ppm > s.initial_ppm {
            return Err(format!(
                "floor ({} ppm) above the initial probability ({} ppm)",
                s.floor_ppm, s.initial_ppm
            ));
        }
        if paper::REVIVE_PPM < s.floor_ppm {
            return Err(format!(
                "reviving to {} ppm below the floor ({} ppm) is a no-op",
                paper::REVIVE_PPM,
                s.floor_ppm
            ));
        }
        if self.fast_path.decision_cache_refresh == 0 {
            return Err(
                "a decision-cache refresh of 0 would never consult the sampler; use 1 to disable caching"
                    .into(),
            );
        }
        if !self.priors.is_empty() && AnalysisPriors::DEFAULT_SUSPICIOUS_PPM <= s.initial_ppm {
            return Err(format!(
                "suspicious prior ({} ppm) must exceed the initial probability ({} ppm) to be a boost",
                AnalysisPriors::DEFAULT_SUSPICIOUS_PPM,
                s.initial_ppm
            ));
        }
        let d = &self.degradation;
        if d.degrade_threshold == 0 {
            return Err("a degrade threshold of 0 would start in canary-only mode".into());
        }
        if d.quarantine_threshold == 0 {
            return Err("a quarantine threshold of 0 would bench contexts pre-emptively".into());
        }
        if d.max_backoff < d.retry_backoff {
            return Err(format!(
                "max backoff ({} ns) below the initial backoff ({} ns)",
                d.max_backoff.as_nanos(),
                d.retry_backoff.as_nanos()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let p = SamplingParams::default();
        assert_eq!(p.initial_ppm, 500_000); // 50%
        assert_eq!(p.degrade_per_alloc_ppm, 10); // 0.001%
        assert_eq!(p.floor_ppm, 10); // 0.001%
        assert_eq!(p.burst_threshold, 5_000);
        assert_eq!(paper::BURST_WINDOW, VirtDuration::from_secs(10));
        assert_eq!(paper::BURST_THROTTLE_PPM, 1); // 0.0001%
        assert_eq!(paper::REVIVE_PPM, 100); // 0.01%
        let c = CsodConfig::default();
        assert!(c.evidence);
        assert_eq!(c.policy, ReplacementPolicy::NearFifo);
        assert_eq!(c.watch_age_decay, VirtDuration::from_secs(10));
    }

    #[test]
    fn backend_default_and_display() {
        assert_eq!(CsodConfig::default().backend, WatchBackend::PerfEvent);
        assert_eq!(WatchBackend::Ptrace.to_string(), "ptrace");
        assert_eq!(
            WatchBackend::CombinedSyscall.to_string(),
            "combined-syscall"
        );
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_nonsense() {
        assert_eq!(CsodConfig::default().validate(), Ok(()));
        let broken = CsodConfig {
            watchpoint_slots: 0,
            ..CsodConfig::default()
        };
        assert!(broken.validate().is_err());
        let with_sampling = |sampling: SamplingParams| CsodConfig {
            sampling,
            ..CsodConfig::default()
        };
        let zero_floor = with_sampling(SamplingParams {
            floor_ppm: 0,
            ..SamplingParams::default()
        });
        assert!(zero_floor.validate().is_err());
        let over_unity = with_sampling(SamplingParams {
            initial_ppm: 2_000_000,
            ..SamplingParams::default()
        });
        assert!(over_unity.validate().unwrap_err().contains("100%"));
        let dead_revive = with_sampling(SamplingParams {
            floor_ppm: 1_000,
            ..SamplingParams::default()
        });
        assert!(dead_revive.validate().unwrap_err().contains("no-op"));
        let with_degradation = |degradation: DegradationParams| CsodConfig {
            degradation,
            ..CsodConfig::default()
        };
        let zero_degrade = with_degradation(DegradationParams {
            degrade_threshold: 0,
            ..DegradationParams::default()
        });
        assert!(zero_degrade.validate().unwrap_err().contains("canary-only"));
        let zero_quarantine = with_degradation(DegradationParams {
            quarantine_threshold: 0,
            ..DegradationParams::default()
        });
        assert!(zero_quarantine.validate().is_err());
        let inverted_backoff = with_degradation(DegradationParams {
            max_backoff: VirtDuration::from_nanos(1),
            ..DegradationParams::default()
        });
        assert!(inverted_backoff.validate().unwrap_err().contains("backoff"));
        let zero_refresh = CsodConfig {
            fast_path: FastPathParams {
                decision_cache_refresh: 0,
                ..FastPathParams::default()
            },
            ..CsodConfig::default()
        };
        assert!(zero_refresh.validate().unwrap_err().contains("refresh"));
    }

    #[test]
    fn fast_path_defaults_and_uncached_mode() {
        assert_eq!(FastPathParams::default().decision_cache_refresh, 64);
        let uncached = CsodConfig {
            fast_path: FastPathParams {
                decision_cache_refresh: 1,
                ..FastPathParams::default()
            },
            ..CsodConfig::default()
        };
        assert_eq!(uncached.validate(), Ok(()));
    }

    #[test]
    fn convenience_constructors() {
        assert!(!CsodConfig::without_evidence().evidence);
        assert_eq!(
            CsodConfig::with_policy(ReplacementPolicy::Naive).policy,
            ReplacementPolicy::Naive
        );
        assert_eq!(CsodConfig::with_seed(7).seed, 7);
    }

    #[test]
    fn sampling_defaults_come_from_the_shared_paper_constants() {
        let p = SamplingParams::default();
        assert_eq!(p.initial_ppm, paper::INITIAL_WATCH_PPM);
        assert_eq!(p.degrade_per_alloc_ppm, paper::DEGRADE_PER_ALLOC_PPM);
        assert_eq!(p.floor_ppm, paper::FLOOR_PPM);
        assert_eq!(p.burst_threshold, paper::BURST_ALLOC_THRESHOLD);
    }

    #[test]
    fn priors_default_empty_and_census_counts() {
        use csod_ctx::FrameTable;
        let c = CsodConfig::default();
        assert!(c.priors.is_empty());
        assert_eq!(c.validate(), Ok(()));

        let frames = FrameTable::new();
        let k = |name: &str| ContextKey::new(frames.intern(name), 0x40);
        let priors = AnalysisPriors::from_classes([
            (k("a"), RiskClass::ProvenSafe),
            (k("b"), RiskClass::ProvenSafe),
            (k("c"), RiskClass::Suspicious),
            (k("d"), RiskClass::Unknown),
        ]);
        assert_eq!(priors.census(), (2, 1, 1));
        assert_eq!(priors.class_of(k("c")), Some(RiskClass::Suspicious));
        assert_eq!(priors.class_of(k("zzz")), None);
        let primed = CsodConfig::with_priors(priors);
        assert_eq!(primed.validate(), Ok(()));
    }

    #[test]
    fn observed_contexts_merge_to_the_worst_class() {
        use csod_ctx::FrameTable;
        let frames = FrameTable::new();
        let k = ContextKey::new(frames.intern("site"), 0x40);
        let mut priors = AnalysisPriors::from_classes([]);
        priors.observe_context(k, RiskClass::ProvenSafe);
        assert_eq!(priors.class_of(k), Some(RiskClass::ProvenSafe));
        priors.observe_context(k, RiskClass::Suspicious);
        priors.observe_context(k, RiskClass::Unknown);
        // Suspicious outranks both later and earlier verdicts.
        assert_eq!(priors.class_of(k), Some(RiskClass::Suspicious));
        let d = &priors.detail[&k];
        assert_eq!((d.contexts, d.proven_safe, d.suspicious), (3, 1, 1));
    }

    #[test]
    fn initial_ppm_is_graded_by_the_call_string_split() {
        use csod_ctx::FrameTable;
        let frames = FrameTable::new();
        let params = SamplingParams::default();
        let k = |name: &str| ContextKey::new(frames.intern(name), 0x40);
        let mut priors = AnalysisPriors::from_classes([]);
        assert_eq!(priors.initial_ppm_for(k("none"), &params), None);

        // Proven-safe always starts at the floor.
        priors.observe_context(k("safe"), RiskClass::ProvenSafe);
        assert_eq!(
            priors.initial_ppm_for(k("safe"), &params),
            Some(params.floor_ppm)
        );

        // 1 of 4 call strings suspicious: a quarter of the way from the
        // suspicious boost to 100 %.
        for _ in 0..3 {
            priors.observe_context(k("mixed"), RiskClass::ProvenSafe);
        }
        priors.observe_context(k("mixed"), RiskClass::Suspicious);
        let boost = AnalysisPriors::DEFAULT_SUSPICIOUS_PPM;
        assert_eq!(
            priors.initial_ppm_for(k("mixed"), &params),
            Some(boost + (PPM_SCALE - boost) / 4)
        );
        // All call strings suspicious: a certain watch.
        priors.observe_context(k("hot"), RiskClass::Suspicious);
        assert_eq!(priors.initial_ppm_for(k("hot"), &params), Some(PPM_SCALE));

        // Unknown with 1 of 2 call strings proven safe: halfway down
        // from the default start toward the floor.
        priors.observe_context(k("half"), RiskClass::Unknown);
        priors.observe_context(k("half"), RiskClass::ProvenSafe);
        assert_eq!(
            priors.initial_ppm_for(k("half"), &params),
            Some(params.initial_ppm - (params.initial_ppm - params.floor_ppm) / 2)
        );
        // A bare from_classes verdict (no detail) keeps the classic
        // three-way split.
        let bare = AnalysisPriors::from_classes([(k("bare"), RiskClass::Unknown)]);
        assert_eq!(
            bare.initial_ppm_for(k("bare"), &params),
            Some(params.initial_ppm)
        );
    }

    #[test]
    fn validate_rejects_useless_suspicious_prior() {
        use csod_ctx::FrameTable;
        let frames = FrameTable::new();
        let k = ContextKey::new(frames.intern("a"), 0x40);
        let mut config =
            CsodConfig::with_priors(AnalysisPriors::from_classes([(k, RiskClass::Suspicious)]));
        assert_eq!(config.validate(), Ok(()));
        config.sampling.initial_ppm = AnalysisPriors::DEFAULT_SUSPICIOUS_PPM; // no longer a boost
        assert!(config.validate().unwrap_err().contains("boost"));
    }

    #[test]
    fn mitigation_hardening_rounds_and_grows() {
        let m = MitigationParams::default();
        assert!(m.enabled);
        // 64 requested + 32 slack, rounded to 16: 96.
        assert_eq!(m.harden(64), 96);
        // The hardened size always clears the original boundary by at
        // least the slack.
        for req in [1u64, 7, 8, 63, 64, 100, 4096] {
            assert!(m.harden(req) >= req + MitigationParams::SLACK_BYTES);
            assert_eq!(m.harden(req) % MitigationParams::SIZE_ALIGN, 0);
        }
        assert!(!MitigationParams::disabled().enabled);
    }

    #[test]
    fn risk_class_display() {
        assert_eq!(RiskClass::ProvenSafe.to_string(), "proven-safe");
        assert_eq!(RiskClass::Suspicious.to_string(), "suspicious");
        assert_eq!(RiskClass::Unknown.to_string(), "unknown");
    }
}
