//! The CSOD runtime — the "drop-in library" of paper Figure 1.
//!
//! [`Csod`] ties the units together: the Alloc/Dealloc Monitoring Unit
//! ([`Csod::malloc`] / [`Csod::free`] interposition), the Sampling
//! Management Unit, the Watchpoint Management Unit, the Signal Handling
//! Unit ([`Csod::poll`]), and — in evidence mode — the Canary and
//! Termination Handling Units ([`Csod::finish`]).

use crate::backend::{Backend, HeapBackend};
use crate::canary::{CanaryStatus, CanaryUnit, ObjectLayout, HEADER_SIZE};
use crate::config::{CsodConfig, RiskClass};
use crate::decision_cache::{DecisionCache, DecisionCacheStats};
use crate::degradation::{DegradationManager, DegradationStats, DetectionMode};
use crate::mitigation::MitigationPolicy;
use crate::report::{DetectionMethod, OverflowReport};
use crate::sampling::{ContextJudgment, CtxId, SamplingUnit};
use crate::watchpoints::{InstallOutcome, WatchCandidate, WatchpointManager, WatchpointStats};
use csod_ctx::{CallingContext, ContextKey, FrameTable};
use csod_persist::{RecordKind, Wal, WalRecord};
use csod_rng::{Arc4Random, RngSlots, PPM_SCALE};
use csod_trace::{
    Histogram, JsonlFileSink, MetricsRegistry, ThreadTracer, TraceEventKind, TraceStream, Tracer,
};
use sim_heap::HeapError;
use sim_machine::{
    AccessKind, FxBuild, MemoryError, Signal, SignalInfo, SiteToken, ThreadId, VirtAddr,
    VirtInstant,
};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Errors surfaced by the CSOD allocation interposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsodError {
    /// The underlying allocator failed.
    Heap(HeapError),
    /// `free` was called on a pointer CSOD never handed out.
    UnknownPointer(VirtAddr),
    /// Simulator memory bookkeeping failed (heap invariant violation).
    Memory(MemoryError),
}

impl fmt::Display for CsodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsodError::Heap(e) => write!(f, "allocator error: {e}"),
            CsodError::UnknownPointer(p) => write!(f, "free of unknown pointer {p}"),
            CsodError::Memory(e) => write!(f, "memory error: {e}"),
        }
    }
}

impl std::error::Error for CsodError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CsodError::Heap(e) => Some(e),
            CsodError::Memory(e) => Some(e),
            CsodError::UnknownPointer(_) => None,
        }
    }
}

impl From<HeapError> for CsodError {
    fn from(e: HeapError) -> Self {
        CsodError::Heap(e)
    }
}

impl From<MemoryError> for CsodError {
    fn from(e: MemoryError) -> Self {
        CsodError::Memory(e)
    }
}

/// One live allocation's bookkeeping.
#[derive(Debug, Clone, Copy)]
struct AllocationRecord {
    real: VirtAddr,
    user: VirtAddr,
    requested: u64,
    canary_addr: VirtAddr,
    key: ContextKey,
    ctx_id: CtxId,
    /// Virtual time of allocation — the trap report derives the
    /// object's age from it.
    allocated_at: VirtInstant,
    /// The object was laid out hardened (over-allocated slack before
    /// the canary) because its context is confirmed overflowing; its
    /// memory goes through the free-quarantine instead of straight back
    /// to the allocator.
    mitigated: bool,
}

/// Live objects by user pointer — probed on every free. The index maps
/// a pointer to a slot of the record slab, so an index bucket is 16
/// bytes, not a whole record; slots of freed objects are reused.
#[derive(Debug, Default)]
struct LiveObjects {
    index: HashMap<u64, u32, FxBuild>,
    slab: Vec<AllocationRecord>,
    free_slots: Vec<u32>,
}

impl LiveObjects {
    #[inline]
    fn insert(&mut self, record: AllocationRecord) {
        let at = match self.free_slots.pop() {
            Some(at) => {
                self.slab[at as usize] = record;
                at
            }
            None => {
                let at = u32::try_from(self.slab.len()).expect("live-object slab overflow");
                self.slab.push(record);
                at
            }
        };
        if let Some(replaced) = self.index.insert(record.user.as_u64(), at) {
            self.free_slots.push(replaced);
        }
    }

    #[inline]
    fn get(&self, user: VirtAddr) -> Option<&AllocationRecord> {
        let &at = self.index.get(&user.as_u64())?;
        Some(&self.slab[at as usize])
    }

    #[inline]
    fn contains(&self, user: VirtAddr) -> bool {
        self.index.contains_key(&user.as_u64())
    }

    #[inline]
    fn remove(&mut self, user: VirtAddr) -> Option<AllocationRecord> {
        let at = self.index.remove(&user.as_u64())?;
        self.free_slots.push(at);
        Some(self.slab[at as usize])
    }

    /// The slab slot of every live object, by ascending user address.
    /// Sorts the 16-byte index pairs, not the records.
    #[inline]
    fn slots_by_address(&self) -> impl Iterator<Item = u32> {
        let mut live: Vec<(u64, u32)> = self.index.iter().map(|(&u, &at)| (u, at)).collect();
        live.sort_unstable();
        live.into_iter().map(|(_, at)| at)
    }

    #[inline]
    fn at(&self, slot: u32) -> AllocationRecord {
        self.slab[slot as usize]
    }
}

/// Every counter of a run, declared once.
///
/// The runtime's own counters are plain fields. The Watchpoint
/// Management Unit, the degradation ladder and the decision caches keep
/// theirs, and [`Csod::stats`] nests a snapshot of each. Each counter is
/// exported under the metric name, and printed under the summary group
/// and label, that its [`CsodStats::COUNTERS`] row gives;
/// [`RunSummary`](crate::RunSummary) and [`Csod::metrics_registry`] are
/// views of this struct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CsodStats {
    /// Allocations intercepted.
    pub allocations: u64,
    /// Deallocations intercepted.
    pub frees: u64,
    /// Watchpoint traps delivered to the signal handler.
    pub traps: u64,
    /// Corrupted canaries found at deallocation.
    pub canary_free_hits: u64,
    /// Corrupted canaries found by the termination sweep.
    pub canary_exit_hits: u64,
    /// Install retries attempted after a backend failure.
    pub install_retries: u64,
    /// Allocations from contexts the static pre-analysis proved safe.
    pub proven_safe_allocs: u64,
    /// Watchpoint installs spent on proven-safe contexts (the priors'
    /// savings target: this should be a small fraction of what the
    /// default schedule would spend).
    pub proven_safe_installs: u64,
    /// Watchpoint installs spent on statically suspicious contexts.
    pub suspicious_installs: u64,
    /// Availability-rule bypasses denied because the context was proven
    /// safe — watch slots the priors saved outright.
    pub prior_availability_skips: u64,
    /// Soundness counter: overflows detected in contexts the analyzer
    /// had classified proven-safe. Must stay zero; anything else is an
    /// analyzer soundness bug.
    pub proven_safe_overflows: u64,
    /// Frees that skipped the watchpoint scan and retry-cancel entirely
    /// because the watched-address filter proved the object unwatched.
    pub frees_fast_filtered: u64,
    /// Traps drained after their watchpoint was logically removed —
    /// counted here, never reported (the stale-trap rule).
    pub stale_traps_suppressed: u64,
    /// Contexts confirmed overflowing and enrolled in the mitigation
    /// policy (hardened allocations, free-quarantine) — whether
    /// confirmed live in this run or recovered from the durability WAL.
    pub contexts_mitigated: u64,
    /// Context records recovered intact from the durability WAL at
    /// start-up.
    pub wal_records_recovered: u64,
    /// Corrupt regions skipped by the WAL recovery scan (torn writes,
    /// truncated tails, bit flips).
    pub wal_records_skipped_corrupt: u64,
    /// Trap-report lines whose durable flush happened only because a
    /// JSONL sink was dropped (crash-path flush-on-drop).
    pub reports_flushed_on_drop: u64,
    /// Watchpoint Management Unit counters (Table IV "WT" is
    /// `watch.installs`).
    pub watch: WatchpointStats,
    /// Degradation-ladder counters: install failures, retries,
    /// quarantines, probes and mode transitions.
    pub degradation: DegradationStats,
    /// Decision-cache counters, summed across threads.
    pub cache: DecisionCacheStats,
}

/// Reads one counter out of a [`CsodStats`] snapshot.
type CounterRead = fn(&CsodStats) -> u64;

impl CsodStats {
    /// Every counter, in declaration order: the `csod_*_total` metric
    /// name it is exported under, its read, and the run-summary group
    /// and label it prints under. A new counter needs its field, its
    /// increment and one row here.
    #[rustfmt::skip]
    pub const COUNTERS: &'static [(&'static str, CounterRead, &'static str, &'static str)] = &[
        ("csod_allocations_total", |s| s.allocations, "allocations", "intercepted"),
        ("csod_frees_total", |s| s.frees, "allocations", "freed"),
        ("csod_traps_total", |s| s.traps, "detections", "watchpoint trap(s)"),
        ("csod_canary_free_hits_total", |s| s.canary_free_hits, "detections", "canary hit(s) at free"),
        ("csod_canary_exit_hits_total", |s| s.canary_exit_hits, "detections", "canary hit(s) at exit"),
        ("csod_install_retries_total", |s| s.install_retries, "health", "retr(ies) attempted"),
        ("csod_proven_safe_allocs_total", |s| s.proven_safe_allocs, "priors", "proven-safe alloc(s)"),
        ("csod_proven_safe_installs_total", |s| s.proven_safe_installs, "priors", "install(s) on proven-safe"),
        ("csod_suspicious_installs_total", |s| s.suspicious_installs, "priors", "install(s) on suspicious"),
        ("csod_prior_availability_skips_total", |s| s.prior_availability_skips, "priors", "slot(s) saved"),
        ("csod_proven_safe_overflows_total", |s| s.proven_safe_overflows, "priors", "soundness violation(s)"),
        ("csod_frees_fast_filtered_total", |s| s.frees_fast_filtered, "free path", "filtered free(s)"),
        ("csod_stale_traps_suppressed_total", |s| s.stale_traps_suppressed, "free path", "stale trap(s) suppressed"),
        ("csod_contexts_mitigated_total", |s| s.contexts_mitigated, "durability", "context(s) mitigated"),
        ("csod_wal_records_recovered_total", |s| s.wal_records_recovered, "durability", "WAL record(s) recovered"),
        ("csod_wal_records_skipped_corrupt_total", |s| s.wal_records_skipped_corrupt, "durability", "corrupt region(s) skipped"),
        ("csod_reports_flushed_on_drop_total", |s| s.reports_flushed_on_drop, "durability", "report line(s) salvaged on drop"),
        ("csod_watch_installs_total", |s| s.watch.installs, "watched", "object(s)"),
        ("csod_watch_replacements_total", |s| s.watch.replacements, "watched", "replacement(s)"),
        ("csod_watch_removals_on_free_total", |s| s.watch.removals_on_free, "watched", "removed on free"),
        ("csod_watch_rejected_total", |s| s.watch.rejected, "watched", "rejected candidate(s)"),
        ("csod_watch_install_failures_total", |s| s.watch.install_failures, "watched", "refused by the backend"),
        ("csod_teardowns_batched_total", |s| s.watch.teardowns_batched, "free path", "batched teardown(s)"),
        ("csod_teardown_batches_total", |s| s.watch.teardown_batches, "free path", "teardown batch(es)"),
        ("csod_install_failures_total", |s| s.degradation.install_failures, "health", "failed install(s)"),
        ("csod_degradation_retries_total", |s| s.degradation.retries, "health", "retr(ies) due"),
        ("csod_degradation_retry_successes_total", |s| s.degradation.retry_successes, "health", "retr(ies) succeeded"),
        ("csod_quarantines_total", |s| s.degradation.quarantines, "health", "quarantine(s)"),
        ("csod_degradations_total", |s| s.degradation.degradations, "health", "degradation(s)"),
        ("csod_recoveries_total", |s| s.degradation.recoveries, "health", "recover(ies)"),
        ("csod_degradation_probes_total", |s| s.degradation.probes, "health", "probe(s)"),
        ("csod_decision_cache_hits_total", |s| s.cache.hits, "cache", "lookup hit(s)"),
        ("csod_decision_cache_misses_total", |s| s.cache.misses, "cache", "lookup miss(es)"),
        ("csod_decision_cache_invalidations_total", |s| s.cache.invalidations, "cache", "invalidation(s)"),
    ];
}

/// The CSOD runtime.
///
/// # Examples
///
/// Detecting a one-word heap over-write with a watchpoint:
///
/// ```
/// use csod_core::{Csod, CsodConfig};
/// use csod_ctx::{CallingContext, ContextKey, FrameTable};
/// use sim_heap::{HeapConfig, SimHeap};
/// use sim_machine::{Machine, SiteToken, ThreadId};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let frames = Arc::new(FrameTable::new());
/// let mut machine = Machine::new();
/// let mut heap = SimHeap::new(&mut machine, HeapConfig::default())?;
/// let mut csod = Csod::new(CsodConfig::default(), Arc::clone(&frames));
///
/// // The workload declares its allocation site and overflow statement.
/// let alloc_ctx = CallingContext::from_locations(&frames, ["app.c:10", "main.c:3"]);
/// let key = ContextKey::new(alloc_ctx.first_level().ok_or("empty backtrace")?, 0x40);
/// let site = SiteToken(1);
/// csod.register_site(site, CallingContext::from_locations(&frames, ["memcpy.S:81", "app.c:22"]));
///
/// let p = csod.malloc(&mut machine, &mut heap, ThreadId::MAIN, 64, key, &alloc_ctx)?;
/// // With all four registers free the very first object is watched.
/// machine.set_current_site(ThreadId::MAIN, site);
/// machine.app_write(ThreadId::MAIN, p + 64, 8)?; // one word past the object
/// csod.poll(&mut machine);
/// assert_eq!(csod.reports().len(), 1);
/// println!("{}", csod.reports()[0].render(&frames));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Csod {
    config: CsodConfig,
    frames: Arc<FrameTable>,
    sampling: SamplingUnit,
    watchpoints: WatchpointManager,
    degradation: DegradationManager,
    canary: CanaryUnit,
    /// The one overflow ledger: confirmed-overflowing contexts (seeded
    /// from WAL recovery, grown by each detection) and the
    /// free-quarantine of their hardened objects. A confirmed context
    /// starts pinned at 100 %; it is hardened only if mitigation is on.
    mitigation: MitigationPolicy,
    /// The durability write-ahead log, opened at the first
    /// confirmation. Confirmed-context boosts are appended here *before*
    /// their report reaches any sink, so a crash between detection and
    /// reporting still leaves the next execution pinned and mitigated.
    wal: Option<Wal>,
    /// The records start-up recovery read from `persist_path`, or `None`
    /// if the scan skipped damage. [`Csod::finish`] leaves the log alone
    /// when its compaction would write exactly these records back.
    recovered_log: Option<Vec<WalRecord>>,
    /// Shared with the JSONL trap-report sink: lines whose durable
    /// flush happened only on sink drop (the crash path).
    flushed_on_drop: Arc<AtomicU64>,
    /// Per-thread sampling generators, slot = dense thread id. No
    /// hashing on the draw path.
    rngs: RngSlots,
    /// Per-thread decision caches, slot = dense thread id. Memoize
    /// sampling verdicts so the shared context table is consulted only
    /// every `fast_path.decision_cache_refresh` allocations per context
    /// (or immediately after a probability-changing event).
    caches: Vec<DecisionCache>,
    /// The counters of the caches [`Csod::exit_thread`] reset.
    exited_caches: DecisionCacheStats,
    /// Live objects keyed by user pointer — probed on every free.
    records: LiveObjects,
    /// Full calling contexts behind workload site tokens.
    sites: HashMap<u64, CallingContext, FxBuild>,
    reports: Vec<OverflowReport>,
    /// Dedup set: (ctx id, site token, thread, method). Canary reports
    /// use `u64::MAX` for the site they cannot know.
    reported: HashSet<(CtxId, u64, ThreadId, DetectionMethod)>,
    /// Signatures of the contexts behind
    /// [`CsodStats::proven_safe_overflows`] — the exact analyzer claims
    /// the execution falsified, for the soundness gate to print.
    proven_safe_overflow_signatures: Vec<String>,
    /// The counters incremented in place; [`Csod::stats`] fills in the
    /// ones other units own.
    stats: CsodStats,
    finished: bool,
    /// Observability: the per-thread event rings.
    tracer: Tracer,
    /// Per-thread writer handles, slot = dense thread id (the rings are
    /// strictly single-writer; the slot layout mirrors `caches`).
    thread_tracers: Vec<ThreadTracer>,
    /// Observability: the JSONL copy of every report
    /// ([`crate::TraceParams::trap_report_path`]).
    trap_log: Option<JsonlFileSink>,
    /// Last detection mode the tracer was told about, to turn the
    /// degradation ladder's state into enter/exit transition events.
    traced_mode: DetectionMode,
}

impl Csod {
    /// Creates a runtime. If [`CsodConfig::persist_path`] is set, the
    /// WAL of previous executions is recovered so known-overflowing
    /// contexts start pinned at 100 %. A missing log recovers as empty;
    /// the log is not created until the first confirmation appends.
    ///
    /// # Panics
    ///
    /// Panics on configurations that cannot work at all: zero watchpoint
    /// slots, a zero probability floor, or an initial probability above
    /// 100 %. Softer inconsistencies (e.g. a reviving level below the
    /// floor) are reported by [`CsodConfig::validate`] but tolerated, so
    /// parameter sweeps can explore them.
    pub fn new(config: CsodConfig, frames: Arc<FrameTable>) -> Self {
        assert!(
            config.watchpoint_slots > 0,
            "watchpoint_slots must be at least 1"
        );
        assert!(
            config.sampling.floor_ppm > 0,
            "probability floor must be positive"
        );
        assert!(
            config.sampling.initial_ppm <= csod_rng::PPM_SCALE,
            "initial probability exceeds 100%"
        );
        // Crash-safe durability: recover the WAL before any allocation
        // is judged. Every record that survives the scan — canary
        // evidence, trap signature, or already-mitigated context — is
        // confirmed in the mitigation ledger: the context starts pinned
        // at 100 % and, with mitigation on, its allocations start
        // hardened. Corrupt regions are counted and skipped; a hostile
        // or torn log can lose records but never crash start-up.
        let mut mitigation = MitigationPolicy::new(config.mitigation);
        let recovered = config
            .persist_path
            .as_deref()
            .map(Wal::recover)
            .unwrap_or_default();
        for rec in &recovered.records {
            mitigation.confirm(&rec.signature);
        }
        let stats = CsodStats {
            wal_records_recovered: recovered.recovered,
            wal_records_skipped_corrupt: recovered.skipped_corrupt,
            ..CsodStats::default()
        };
        let recovered_log = (recovered.skipped_corrupt == 0).then_some(recovered.records);
        let flushed_on_drop = Arc::new(AtomicU64::new(0));
        // Stream u64::MAX is reserved for run-level secrets (the canary
        // value); per-thread sampling streams use the thread id.
        let mut secret_rng = Arc4Random::from_seed(config.seed, u64::MAX);
        let canary = CanaryUnit::new(secret_rng.next_u64());
        let mut watchpoints = WatchpointManager::with_slots(
            config.policy,
            config.backend,
            config.watch_age_decay,
            config.watchpoint_slots,
        );
        watchpoints.configure_fast_path(
            config.fast_path.deferred_teardown,
            config.fast_path.fd_index,
        );
        let trap_log = config
            .trace
            .trap_report_path
            .as_deref()
            .map(|path| JsonlFileSink::with_drop_counter(path, Arc::clone(&flushed_on_drop)));
        Csod {
            sampling: SamplingUnit::with_priors(config.sampling, config.priors.clone()),
            watchpoints,
            degradation: DegradationManager::new(config.degradation, config.watchpoint_slots),
            canary,
            mitigation,
            wal: None,
            recovered_log,
            flushed_on_drop,
            rngs: RngSlots::new(config.seed),
            caches: Vec::new(),
            exited_caches: DecisionCacheStats::default(),
            records: LiveObjects::default(),
            sites: HashMap::default(),
            reports: Vec::new(),
            reported: HashSet::new(),
            proven_safe_overflow_signatures: Vec::new(),
            stats,
            finished: false,
            tracer: Tracer::with_default_capacity(),
            thread_tracers: Vec::new(),
            trap_log,
            traced_mode: DetectionMode::Watchpoints,
            config,
            frames,
        }
    }

    /// Appends one event to the calling thread's trace ring. A no-op
    /// when `config.trace.events` is off.
    #[inline]
    fn trace_event(
        &mut self,
        at: VirtInstant,
        tid: ThreadId,
        kind: TraceEventKind,
        a: u64,
        b: u64,
    ) {
        if !self.config.trace.events {
            return;
        }
        let i = tid.as_u32() as usize;
        while self.thread_tracers.len() <= i {
            let next = u32::try_from(self.thread_tracers.len()).unwrap_or(u32::MAX);
            let handle = self.tracer.register(next);
            self.thread_tracers.push(handle);
        }
        self.thread_tracers[i].emit(at.as_nanos(), kind, a, b);
    }

    /// Emits a degradation transition event if the ladder's mode moved
    /// since the last check.
    fn trace_mode_transition(&mut self, at: VirtInstant, tid: ThreadId) {
        let mode = self.degradation.mode();
        if mode == self.traced_mode {
            return;
        }
        self.traced_mode = mode;
        let failures = self.degradation.stats().install_failures;
        match mode {
            DetectionMode::CanaryOnly => {
                self.trace_event(at, tid, TraceEventKind::DegradationEnter, 1, failures);
            }
            DetectionMode::Watchpoints => {
                self.trace_event(at, tid, TraceEventKind::DegradationExit, 0, 0);
            }
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &CsodConfig {
        &self.config
    }

    /// The shared frame table.
    pub fn frames(&self) -> &Arc<FrameTable> {
        &self.frames
    }

    /// Registers the full calling context behind a workload
    /// [`SiteToken`], so traps can be resolved to the overflowing
    /// statement the way the real signal handler's `backtrace` would.
    pub fn register_site(&mut self, token: SiteToken, ctx: CallingContext) {
        self.sites.insert(token.0, ctx);
    }

    // ----- Alloc/Dealloc Monitoring Unit --------------------------------------

    /// Interposed `malloc`.
    ///
    /// `ctx` is the full allocation calling context, borrowed — it is
    /// interned (and the `backtrace` cost charged) only the first time
    /// `key` is seen; steady-state allocations never copy it.
    ///
    /// # Errors
    ///
    /// Returns [`CsodError::Heap`] when the underlying allocator fails.
    pub fn malloc<B: Backend>(
        &mut self,
        machine: &mut B,
        heap: &mut impl HeapBackend<B>,
        tid: ThreadId,
        size: u64,
        key: ContextKey,
        ctx: &CallingContext,
    ) -> Result<VirtAddr, CsodError> {
        let decision = self.intercept_allocation(machine, tid, key, ctx);

        // Confirmed-overflowing contexts get a hardened layout: the
        // request is grown by the mitigation slack and size-rounded, so
        // the overflow that proved the bug now lands in dead padding
        // short of the canary and the neighbouring object.
        let mitigated = decision.mitigate && self.config.mitigation.enabled;
        let laid_out = if mitigated {
            self.config.mitigation.harden(size)
        } else {
            size
        };
        // Lay the object out (header + canary in evidence mode, a bare
        // boundary word otherwise) and allocate.
        let layout = ObjectLayout::new(self.config.evidence, laid_out);
        let real = heap.malloc(machine, layout.total_size())?;
        let user = layout.user_ptr(real);
        let canary_addr = layout.canary_addr(user);
        if self.config.evidence {
            machine.charge_tool(machine.tool_costs().canary_write);
            self.canary
                .imprint(machine, layout, real, decision.ctx_id)?;
        }

        let allocated_at = machine.now();
        self.track_new_object(
            machine,
            tid,
            &decision,
            key,
            AllocationRecord {
                real,
                user,
                requested: size,
                canary_addr,
                key,
                ctx_id: decision.ctx_id,
                allocated_at,
                mitigated,
            },
        );
        Ok(user)
    }

    /// Interposed `memalign`: the user pointer is aligned to `align`, and
    /// the evidence header (when enabled) sits immediately before it —
    /// the header's real-object pointer is what makes this recoverable
    /// (Figure 5).
    ///
    /// # Errors
    ///
    /// Returns [`CsodError::Heap`] for allocator failures, including bad
    /// alignments.
    #[allow(clippy::too_many_arguments)] // mirrors memalign's C signature plus context
    pub fn memalign<B: Backend>(
        &mut self,
        machine: &mut B,
        heap: &mut impl HeapBackend<B>,
        tid: ThreadId,
        align: u64,
        size: u64,
        key: ContextKey,
        ctx: &CallingContext,
    ) -> Result<VirtAddr, CsodError> {
        if !align.is_power_of_two() {
            return Err(CsodError::Heap(HeapError::BadAlignment(align)));
        }
        let decision = self.intercept_allocation(machine, tid, key, ctx);

        // Hardened layout for confirmed contexts, as in `malloc`.
        let mitigated = decision.mitigate && self.config.mitigation.enabled;
        let laid_out = if mitigated {
            self.config.mitigation.harden(size)
        } else {
            size
        };
        let layout = ObjectLayout::new(self.config.evidence, laid_out);
        // Push the user pointer to an aligned offset that still leaves
        // room for the header.
        let lead = if self.config.evidence {
            HEADER_SIZE.div_ceil(align) * align
        } else {
            0
        };
        let total = lead + layout.canary_offset() + crate::canary::CANARY_SIZE;
        let real = heap.memalign(machine, align, total)?;
        let user = real + lead;
        let canary_addr = layout.canary_addr(user);
        if self.config.evidence {
            machine.charge_tool(machine.tool_costs().canary_write);
            self.canary
                .write_header(machine, layout, real, user, decision.ctx_id)?;
        }

        let allocated_at = machine.now();
        self.track_new_object(
            machine,
            tid,
            &decision,
            key,
            AllocationRecord {
                real,
                user,
                requested: size,
                canary_addr,
                key,
                ctx_id: decision.ctx_id,
                allocated_at,
                mitigated,
            },
        );
        Ok(user)
    }

    /// Interposed `calloc(1, size)`: a managed allocation with the user
    /// bytes zeroed.
    ///
    /// # Errors
    ///
    /// Returns [`CsodError::Heap`] when the underlying allocator fails.
    pub fn calloc<B: Backend>(
        &mut self,
        machine: &mut B,
        heap: &mut impl HeapBackend<B>,
        tid: ThreadId,
        size: u64,
        key: ContextKey,
        ctx: &CallingContext,
    ) -> Result<VirtAddr, CsodError> {
        let user = self.malloc(machine, heap, tid, size, key, ctx)?;
        machine.fill(user, size.max(1), 0)?;
        Ok(user)
    }

    /// Interposed `realloc`: allocates a new managed object (with its own
    /// sampling decision, header and canary), copies the common prefix,
    /// and frees the old object — running its canary check like any free.
    ///
    /// # Errors
    ///
    /// Returns [`CsodError::UnknownPointer`] if `user` was not allocated
    /// through CSOD, or [`CsodError::Heap`] when the allocator fails.
    #[allow(clippy::too_many_arguments)] // mirrors realloc's C signature plus context
    pub fn realloc<B: Backend>(
        &mut self,
        machine: &mut B,
        heap: &mut impl HeapBackend<B>,
        tid: ThreadId,
        user: VirtAddr,
        new_size: u64,
        key: ContextKey,
        ctx: &CallingContext,
    ) -> Result<VirtAddr, CsodError> {
        let old = *self
            .records
            .get(user)
            .ok_or(CsodError::UnknownPointer(user))?;
        let new_user = self.malloc(machine, heap, tid, new_size, key, ctx)?;
        // Object sizes fit the host address space; a saturated copy
        // would fail at the allocation below long before wrapping.
        let copy = usize::try_from(old.requested.min(new_size)).unwrap_or(usize::MAX);
        if copy > 0 {
            let mut buf = vec![0u8; copy];
            machine.read_bytes(user, &mut buf)?;
            machine.write_bytes(new_user, &buf)?;
        }
        self.free(machine, heap, tid, user)?;
        Ok(new_user)
    }

    /// Shared allocation prologue: fast-path costs (return-address
    /// fetch, hash lookup, one random draw — Section V-B) and the
    /// sampling decision — served from the calling thread's decision
    /// cache when the memoized verdict is still valid, from the shared
    /// sampling unit otherwise. The full-backtrace cost is charged
    /// exactly when the context is first seen.
    fn intercept_allocation<B: Backend>(
        &mut self,
        machine: &mut B,
        tid: ThreadId,
        key: ContextKey,
        ctx: &CallingContext,
    ) -> crate::sampling::AllocDecision {
        let costs = machine.tool_costs();
        let fast_path = costs.return_address + costs.ctx_lookup + costs.rng_draw;
        machine.charge_tool(fast_path);

        let rng = self.rngs.get(tid.as_u32());
        let cache = Self::cache_for(
            &mut self.caches,
            self.config.fast_path.decision_cache_refresh,
            tid,
        );
        let mitigation = &self.mitigation;
        let frames = &self.frames;
        let sampling = &mut self.sampling;
        let decision = cache.on_allocation_mut(sampling, key, machine.now(), rng, ctx, |full| {
            // First sight of the context: one signature render answers
            // both ledger questions — unless the ledger is empty, when no
            // signature can match and none is rendered.
            if mitigation.confirmed_contexts() == 0 {
                return ContextJudgment::clear();
            }
            let signature = full.signature(frames);
            ContextJudgment {
                known_overflow: mitigation.is_confirmed(&signature),
                mitigate: mitigation.should_mitigate(&signature),
            }
        });
        if decision.first_seen {
            machine.charge_tool(machine.tool_costs().full_backtrace);
        }
        self.stats.allocations += 1;
        if decision.prior == Some(RiskClass::ProvenSafe) {
            self.stats.proven_safe_allocs += 1;
        }
        let now = machine.now();
        let ctx = u64::from(decision.ctx_id.as_u32());
        let ppm = u64::from(decision.probability_ppm);
        if decision.entered_burst {
            self.trace_event(now, tid, TraceEventKind::BurstEnter, ctx, ppm);
        }
        if decision.revived {
            self.trace_event(now, tid, TraceEventKind::Revive, ctx, ppm);
        }
        decision
    }

    /// The decision cache of thread `tid`, created on first use.
    fn cache_for(
        caches: &mut Vec<DecisionCache>,
        refresh: u32,
        tid: ThreadId,
    ) -> &mut DecisionCache {
        let i = tid.as_u32() as usize;
        while caches.len() <= i {
            caches.push(DecisionCache::new(refresh));
        }
        &mut caches[i]
    }

    /// Shared allocation epilogue: the watch attempt — the sampler's
    /// verdict, plus the availability rule ("we never waste precious
    /// hardware watchpoints") for contexts never watched before — and
    /// the live-object record.
    fn track_new_object<B: Backend>(
        &mut self,
        machine: &mut B,
        tid: ThreadId,
        decision: &crate::sampling::AllocDecision,
        key: ContextKey,
        record: AllocationRecord,
    ) {
        // The availability rule never spends a free register on a
        // context the static analysis proved safe: its floor probability
        // already encodes "almost certainly clean", and the canary plus
        // the probability floor remain as the soundness net.
        let proven_safe = decision.prior == Some(RiskClass::ProvenSafe);
        let bypass_eligible = self.watchpoints.has_free_slot() && decision.prior_watches == 0;
        let availability = bypass_eligible && !proven_safe;
        if proven_safe && bypass_eligible && !decision.wants_watch {
            self.stats.prior_availability_skips += 1;
        }
        // Sampled means "selected for a watch attempt" — by the
        // sampler's draw or by the availability rule — not merely that
        // the draw succeeded.
        let selected = decision.wants_watch || availability;
        let kind = if selected {
            TraceEventKind::AllocSampled
        } else {
            TraceEventKind::AllocSkipped
        };
        self.trace_event(
            machine.now(),
            tid,
            kind,
            u64::from(decision.ctx_id.as_u32()),
            u64::from(decision.probability_ppm),
        );
        if selected {
            let outcome = self.try_install(
                machine,
                tid,
                WatchCandidate {
                    object_start: record.user,
                    canary_addr: record.canary_addr,
                    key,
                    ctx_id: decision.ctx_id,
                    probability_ppm: decision.probability_ppm,
                },
                0,
            );
            if matches!(
                outcome,
                InstallOutcome::InstalledFree | InstallOutcome::Replaced
            ) {
                match decision.prior {
                    Some(RiskClass::ProvenSafe) => self.stats.proven_safe_installs += 1,
                    Some(RiskClass::Suspicious) => self.stats.suspicious_installs += 1,
                    Some(RiskClass::Unknown) | None => {}
                }
            }
        }
        self.records.insert(record);
    }

    /// One gated install attempt, reporting the outcome back to the
    /// degradation manager. `prior_attempts` is 0 for a first try and the
    /// retry count when re-attempting a previously failed candidate.
    fn try_install<B: Backend>(
        &mut self,
        machine: &mut B,
        tid: ThreadId,
        candidate: WatchCandidate,
        prior_attempts: u32,
    ) -> InstallOutcome {
        let now = machine.now();
        if !self.degradation.allows_install(now, candidate.key) {
            // Gated by quarantine, backoff, or canary-only mode — not a
            // policy decision, so no stats.rejected bump.
            return InstallOutcome::Rejected;
        }
        let sampling = &self.sampling;
        let rng = self.rngs.get(tid.as_u32());
        let outcome = self
            .watchpoints
            .consider(machine, candidate, rng, |k| sampling.probability_ppm(k));
        match outcome {
            InstallOutcome::Failed => {
                let verdict = self
                    .degradation
                    .on_install_failure(now, candidate, prior_attempts);
                if verdict.quarantined {
                    self.sampling.quarantine(candidate.key);
                }
                self.trace_event(
                    now,
                    tid,
                    TraceEventKind::InstallFailed,
                    candidate.object_start.as_u64(),
                    u64::from(prior_attempts),
                );
            }
            InstallOutcome::Rejected => {}
            InstallOutcome::InstalledFree | InstallOutcome::Replaced => {
                self.degradation.on_install_success(candidate.key);
                if prior_attempts > 0 {
                    self.degradation.on_retry_success();
                }
                self.sampling.on_watched(candidate.key);
                let kind = if outcome == InstallOutcome::InstalledFree {
                    TraceEventKind::WatchInstalled
                } else {
                    TraceEventKind::WatchPreempted
                };
                self.trace_event(
                    now,
                    tid,
                    kind,
                    candidate.object_start.as_u64(),
                    u64::from(candidate.ctx_id.as_u32()),
                );
            }
        }
        self.trace_mode_transition(now, tid);
        outcome
    }

    /// Re-attempts installs whose retry backoff has elapsed. Candidates
    /// whose object was freed in the meantime (or got watched through
    /// another allocation) are silently dropped.
    fn retry_installs<B: Backend>(&mut self, machine: &mut B) {
        let due = self.degradation.due_retries(machine.now());
        for (candidate, attempts) in due {
            if !self.records.contains(candidate.object_start)
                || self.watchpoints.is_watched(candidate.object_start)
            {
                continue;
            }
            self.stats.install_retries += 1;
            self.try_install(machine, ThreadId::MAIN, candidate, attempts);
        }
    }

    /// Interposed `free`.
    ///
    /// Removes the object's watchpoint if present and — in evidence
    /// mode — verifies the canary, turning a corruption into a
    /// [`DetectionMethod::CanaryOnFree`] report and pinning the context
    /// at 100 % "such that all following overflows sharing the same
    /// allocation calling context can be detected from then on".
    ///
    /// # Errors
    ///
    /// Returns [`CsodError::UnknownPointer`] for pointers CSOD never
    /// allocated.
    pub fn free<B: Backend>(
        &mut self,
        machine: &mut B,
        heap: &mut impl HeapBackend<B>,
        tid: ThreadId,
        user: VirtAddr,
    ) -> Result<(), CsodError> {
        let record = self
            .records
            .remove(user)
            .ok_or(CsodError::UnknownPointer(user))?;
        self.stats.frees += 1;

        // "Upon every deallocation, CSOD checks whether the current
        // object is being watched. If yes, the corresponding watchpoint
        // will be removed." A pending install retry for the object is
        // cancelled with it — the address may be recycled. The check
        // itself is the watched-address filter (≤ slot-count addresses)
        // plus the pending-retry count: a miss on both proves there is
        // nothing to remove or cancel, so the common unwatched free
        // touches neither the WMU nor the retry queue.
        if self.watchpoints.filter().contains(user) || self.degradation.pending_retries() > 0 {
            let removed = self.watchpoints.remove_by_object(machine, user);
            self.degradation.cancel_retry(user);
            if removed {
                let now = machine.now();
                self.trace_event(now, tid, TraceEventKind::WatchRemoved, user.as_u64(), 0);
            }
        } else {
            self.stats.frees_fast_filtered += 1;
            let now = machine.now();
            self.trace_event(now, tid, TraceEventKind::FreeFiltered, user.as_u64(), 0);
        }

        if self.config.evidence {
            machine.charge_tool(machine.tool_costs().canary_check);
            if let CanaryStatus::Corrupted { .. } =
                self.canary.check(machine, record.canary_addr)?
            {
                self.stats.canary_free_hits += 1;
                self.on_evidence(machine, tid, &record, DetectionMethod::CanaryOnFree);
            }
        }
        if record.mitigated && self.config.mitigation.enabled {
            // Hardened objects go through the free-quarantine: their
            // address is held back from reuse so a late overflow through
            // a dangling pointer cannot corrupt an unrelated object.
            // Only the quarantine's evicted oldest entry is released.
            if let Some(evicted) = self.mitigation.quarantine_push(record.real) {
                heap.free(machine, evicted)?;
            }
        } else {
            heap.free(machine, record.real)?;
        }
        Ok(())
    }

    /// Releases every address held in the mitigation free-quarantine
    /// back to the allocator. Drivers call this at natural quiesce
    /// points (run end, before tearing the heap down); the runtime
    /// never drains implicitly because [`Csod::finish`] has no heap
    /// access.
    ///
    /// Returns the number of objects released.
    ///
    /// # Errors
    ///
    /// Returns [`CsodError::Heap`] if a quarantined address fails to
    /// free — an allocator invariant violation.
    pub fn drain_quarantine<B: Backend>(
        &mut self,
        machine: &mut B,
        heap: &mut impl HeapBackend<B>,
    ) -> Result<usize, CsodError> {
        let held = self.mitigation.drain_quarantine();
        let released = held.len();
        for real in held {
            heap.free(machine, real)?;
        }
        Ok(released)
    }

    // ----- thread interception --------------------------------------------------

    /// `pthread_create` interception: spawns a machine thread and
    /// extends every installed watchpoint onto it.
    pub fn spawn_thread<B: Backend>(&mut self, machine: &mut B) -> ThreadId {
        let tid = machine.spawn_thread();
        self.watchpoints.install_on_thread(machine, tid);
        tid
    }

    /// Thread-exit interception: flushes the thread's decision cache
    /// into the sampler and drops per-thread state; the kernel closes
    /// the thread's perf events.
    ///
    /// # Errors
    ///
    /// Propagates [`sim_machine::ThreadError`] for unknown threads.
    pub fn exit_thread<B: Backend>(
        &mut self,
        machine: &mut B,
        tid: ThreadId,
    ) -> Result<(), sim_machine::ThreadError> {
        // Drain queued teardowns while their descriptors are still open:
        // the machine auto-closes the dead thread's fds, and batching
        // them out first keeps the syscall accounting honest.
        self.watchpoints.drain_teardowns(machine);
        self.watchpoints.forget_thread(tid);
        if let Some(cache) = self.caches.get_mut(tid.as_u32() as usize) {
            // The run keeps the thread's counters (the exit flush adds
            // none: it is no epoch invalidation).
            self.exited_caches += cache.stats();
            cache.flush_mut(&mut self.sampling);
            // Reset the slot so a thread id ever reused by the registry
            // would start with a fresh cache, not the dead thread's
            // memoized verdicts.
            *cache = DecisionCache::new(self.config.fast_path.decision_cache_refresh);
        }
        self.rngs.release(tid.as_u32());
        machine.exit_thread(tid)
    }

    // ----- Signal Handling Unit ---------------------------------------------------

    /// Drains pending machine signals and handles them: watchpoint traps
    /// become [`OverflowReport`]s; SIGSEGV/SIGABRT trigger the erroneous-
    /// exit canary sweep the Termination Handling Unit registers.
    ///
    /// Install retries whose backoff elapsed are re-attempted first, so a
    /// transiently failing backend self-heals on the polling cadence.
    pub fn poll<B: Backend>(&mut self, machine: &mut B) {
        self.retry_installs(machine);
        for sig in machine.take_signals() {
            match sig.signal {
                Signal::Trap => self.on_trap(machine, sig),
                Signal::Segv | Signal::Abort => {
                    // Erroneous exit: salvage whatever canary evidence
                    // exists before the process dies.
                    self.sweep_canaries(machine);
                }
            }
        }
        // Quiesce point: pay for any teardowns deferred off the free
        // path, in one batched kernel entry.
        let before = self.watchpoints.stats().teardowns_batched;
        self.watchpoints.drain_teardowns(machine);
        let drained = self.watchpoints.stats().teardowns_batched - before;
        if drained > 0 {
            let now = machine.now();
            self.trace_event(
                now,
                ThreadId::MAIN,
                TraceEventKind::TeardownBatch,
                drained,
                0,
            );
        }
        self.trace_mode_transition(machine.now(), ThreadId::MAIN);
    }

    fn on_trap<B: Backend>(&mut self, machine: &B, sig: SignalInfo) {
        let Some(fd) = sig.fd else { return };
        // Resolve the firing watchpoint — through the fd index, or the
        // one-by-one descriptor comparison of Section III-D1 when the
        // paper-faithful mode is configured.
        let Some(watched) = self.watchpoints.find_by_fd(fd) else {
            // A stale trap: its watchpoint was replaced or logically
            // removed after the access. Counted, never reported — the
            // address may already belong to a different object.
            self.stats.stale_traps_suppressed += 1;
            self.trace_event(
                machine.now(),
                sig.thread,
                TraceEventKind::TrapSuppressed,
                fd.as_raw(),
                0,
            );
            return;
        };
        self.stats.traps += 1;
        let ctx_id = watched.ctx_id;
        let key = watched.key;
        let object_start = watched.object_start;
        self.trace_event(
            machine.now(),
            sig.thread,
            TraceEventKind::TrapFired,
            sig.fault_addr.as_u64(),
            u64::from(ctx_id.as_u32()),
        );
        let alloc_context = self.sampling.full_context(key).unwrap_or_default();
        // A fired watchpoint is zero-false-positive proof, exactly like
        // canary evidence: record it, confirm the context for
        // mitigation, and land the boost in the WAL *before* the report
        // is written — a crash mid-report still leaves the next
        // execution pinned and hardened.
        self.confirm_overflowing(key, &alloc_context, RecordKind::TrapSignature);
        let now = machine.now();
        let record = self.records.get(object_start).copied();
        self.report(
            key,
            sig.site.0,
            OverflowReport {
                kind: sig.access,
                method: DetectionMethod::Watchpoint,
                thread: sig.thread,
                object_start,
                access_addr: sig.fault_addr,
                requested_size: record.map_or(0, |r| r.requested),
                object_age_ns: record.map_or(0, |r| {
                    now.saturating_duration_since(r.allocated_at).as_nanos()
                }),
                overflow_site: self.sites.get(&sig.site.0).cloned(),
                alloc_context,
                ctx_id,
                at: now,
            },
        );
    }

    /// Signal Handling Unit, report generation (Section III-D2): keeps
    /// one report per (context, site, thread, method), counts a report
    /// on a context the analyzer proved safe as a soundness violation,
    /// and writes the report's JSON line before storing it. `site` is
    /// the overflowing statement's token, `u64::MAX` on the canary
    /// paths.
    fn report(&mut self, key: ContextKey, site: u64, report: OverflowReport) {
        if !self
            .reported
            .insert((report.ctx_id, site, report.thread, report.method))
        {
            return; // already reported
        }
        if self.config.priors.class_of(key) == Some(RiskClass::ProvenSafe) {
            // An overflow in a context the analyzer proved safe is an
            // analyzer soundness bug — count it loudly, and keep the
            // falsified signature for the soundness gate to print.
            self.stats.proven_safe_overflows += 1;
            self.proven_safe_overflow_signatures
                .push(report.alloc_context.signature(&self.frames));
        }
        if let Some(log) = &mut self.trap_log {
            log.write_line(&report.to_json_line(&self.frames));
        }
        self.reports.push(report);
    }

    /// The closed loop on a confirmed detection: confirms the context's
    /// signature with the mitigation policy (marking the sampler so later
    /// allocations harden, and bumping the decision-cache epoch), and
    /// appends the boost to the durability WAL, which the first append
    /// opens (creating the file if needed). Idempotent per context; the
    /// WAL is written only on the first confirmation.
    fn confirm_overflowing(&mut self, key: ContextKey, full: &CallingContext, kind: RecordKind) {
        let signature = full.signature(&self.frames);
        if signature.is_empty() {
            return;
        }
        if self.mitigation.confirm(&signature) {
            self.sampling.mark_mitigated(key);
            if let Some(path) = &self.config.persist_path {
                let wal = self.wal.get_or_insert_with(|| Wal::open(path));
                wal.append(&WalRecord::new(kind, PPM_SCALE, signature));
                wal.sync();
            }
        }
    }

    fn on_evidence<B: Backend>(
        &mut self,
        machine: &B,
        tid: ThreadId,
        record: &AllocationRecord,
        method: DetectionMethod,
    ) {
        // Boost the context to 100%, persist it for future runs, and —
        // before the report is written — confirm it for
        // mitigation with a WAL append.
        self.sampling.pin_certain(record.key);
        let alloc_context = self.sampling.full_context(record.key);
        if let Some(full) = &alloc_context {
            self.confirm_overflowing(record.key, full, RecordKind::CanaryEvidence);
        }
        let now = machine.now();
        // Canary evidence yields the same record, minus the overflow
        // site (which only a trap can know); the corrupted canary word
        // is the best available access address.
        self.report(
            record.key,
            u64::MAX,
            OverflowReport {
                kind: AccessKind::Write,
                method,
                thread: tid,
                object_start: record.user,
                access_addr: record.canary_addr,
                requested_size: record.requested,
                object_age_ns: now
                    .saturating_duration_since(record.allocated_at)
                    .as_nanos(),
                overflow_site: None,
                alloc_context: alloc_context.unwrap_or_default(),
                ctx_id: record.ctx_id,
                at: now,
            },
        );
    }

    fn sweep_canaries<B: Backend>(&mut self, machine: &mut B) {
        if !self.config.evidence {
            return;
        }
        // Ascending object address, so the order of `CanaryAtExit`
        // reports never depends on the table's internal layout.
        for slot in self.records.slots_by_address() {
            let record = self.records.at(slot);
            machine.charge_tool(machine.tool_costs().canary_check);
            if let Ok(CanaryStatus::Corrupted { .. }) =
                self.canary.check(machine, record.canary_addr)
            {
                self.stats.canary_exit_hits += 1;
                self.on_evidence(
                    machine,
                    ThreadId::MAIN,
                    &record,
                    DetectionMethod::CanaryAtExit,
                );
            }
        }
    }

    // ----- Termination Handling Unit --------------------------------------------------

    /// End of execution: flushes every thread's decision cache into the
    /// sampler, drains signals, sweeps all live canaries, removes every
    /// watchpoint, and compacts the WAL unless that would leave it as it
    /// is. Idempotent.
    pub fn finish<B: Backend>(&mut self, machine: &mut B) {
        if self.finished {
            return;
        }
        self.finished = true;
        for cache in &mut self.caches {
            cache.flush_mut(&mut self.sampling);
        }
        self.poll(machine);
        self.sweep_canaries(machine);
        self.watchpoints.remove_all(machine);
        if let Some(log) = &mut self.trap_log {
            log.flush();
        }
        // Clean exit: compact the WAL down to one strongest record per
        // confirmed context, via tmp-file + atomic rename. The append
        // handle is dropped first; a crash anywhere in here leaves
        // either the old log or the compacted one, both recoverable.
        // The collapse goes through the shared `Strongest` accumulator —
        // the same definition fleet merge uses — so the two can't drift.
        //
        // The compaction is skipped when it would not change the log:
        // nothing was appended, recovery read it clean, and it already
        // holds exactly the collapsed records, in order. The framing is
        // canonical, so equal records are equal bytes, and such a log
        // holds only `Mitigated` records, which only a synced
        // compaction writes. A log that holds no records is left alone
        // only if it does not exist, so a process that confirms nothing
        // never creates one.
        if let Some(path) = &self.config.persist_path {
            let mut strongest = csod_persist::Strongest::new();
            for sig in self.mitigation.confirmed() {
                strongest.absorb_parts(RecordKind::Mitigated, PPM_SCALE, sig);
            }
            let records = strongest.into_records();
            let unchanged = self.wal.take().is_none()
                && self.recovered_log.as_deref() == Some(&records[..])
                && (!records.is_empty() || !path.exists());
            if !unchanged {
                let _ = Wal::compact(path, &records);
            }
        }
    }

    // ----- introspection ---------------------------------------------------------------

    /// All overflow reports so far.
    pub fn reports(&self) -> &[OverflowReport] {
        &self.reports
    }

    /// Distinct allocation-context signatures among the reports: the
    /// deduplicated bug count, where the same bug rediscovered through
    /// another overflow site or thread counts once.
    pub fn unique_report_contexts(&self) -> usize {
        self.reports
            .iter()
            .map(|r| r.alloc_context.signature(&self.frames))
            .collect::<HashSet<_>>()
            .len()
    }

    /// Whether any overflow was detected.
    pub fn detected(&self) -> bool {
        !self.reports.is_empty()
    }

    /// Whether a watchpoint trap (precise detection) occurred.
    pub fn detected_by_watchpoint(&self) -> bool {
        self.reports
            .iter()
            .any(|r| r.method == DetectionMethod::Watchpoint)
    }

    /// Signatures of the contexts behind
    /// [`CsodStats::proven_safe_overflows`], in detection order: each is
    /// a `proven-safe` analyzer claim this execution falsified.
    pub fn proven_safe_overflow_signatures(&self) -> &[String] {
        &self.proven_safe_overflow_signatures
    }

    /// Every counter of the run (see [`CsodStats`]). The nested unit
    /// snapshots and the counters kept outside `CsodStats` are read at
    /// call time, so each has a single source of truth.
    pub fn stats(&self) -> CsodStats {
        CsodStats {
            contexts_mitigated: self.mitigation.confirmed_contexts() as u64,
            reports_flushed_on_drop: self.flushed_on_drop.load(Ordering::Relaxed),
            watch: self.watchpoints.stats(),
            degradation: self.degradation.stats(),
            cache: self.decision_cache_stats(),
            ..self.stats
        }
    }

    /// The detection tier currently in effect (watchpoints, or canary-
    /// only while the backend is considered down).
    pub fn detection_mode(&self) -> DetectionMode {
        self.degradation.mode()
    }

    /// Number of contexts currently quarantined by the degradation
    /// manager.
    pub fn quarantined_contexts<B: Backend>(&self, machine: &B) -> usize {
        self.degradation.quarantined_contexts(machine.now())
    }

    /// Number of distinct allocation contexts observed.
    pub fn distinct_contexts(&self) -> usize {
        self.sampling.distinct_contexts()
    }

    /// The sampling unit (read access for experiments).
    pub fn sampling(&self) -> &SamplingUnit {
        &self.sampling
    }

    /// The mitigation policy: confirmed-overflowing contexts and the
    /// free-quarantine.
    pub fn mitigation(&self) -> &MitigationPolicy {
        &self.mitigation
    }

    /// A handle to the flush-on-drop counter shared with the JSONL
    /// trap-report sink. Harnesses that deliberately drop the runtime
    /// without finishing (crash simulation) read it afterwards.
    pub fn flushed_on_drop_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.flushed_on_drop)
    }

    /// Whether the object at `user` is currently watched.
    pub fn is_watched(&self, user: VirtAddr) -> bool {
        self.watchpoints.is_watched(user)
    }

    /// The requested size of the live CSOD-managed object at `user`.
    pub fn object_size(&self, user: VirtAddr) -> Option<u64> {
        self.records.get(user).map(|r| r.requested)
    }

    /// Aggregate decision-cache counters across all threads, exited
    /// ones included.
    pub fn decision_cache_stats(&self) -> DecisionCacheStats {
        let mut total = self.exited_caches;
        for cache in &self.caches {
            total += cache.stats();
        }
        total
    }

    /// The per-object memory overhead in bytes for an object of
    /// `requested` bytes under the current configuration (Table V):
    /// 32-byte header + 8-byte canary in evidence mode, 8 boundary bytes
    /// otherwise.
    pub fn per_object_overhead(&self, requested: u64) -> u64 {
        ObjectLayout::new(self.config.evidence, requested).total_size() - requested
    }

    // ----- observability ---------------------------------------------------------------

    /// Drains the per-thread event rings into one time-ordered stream.
    /// Consuming: events are returned once. Empty when tracing is off
    /// (run-time or compile-time).
    pub fn drain_trace(&self) -> TraceStream {
        self.tracer.drain()
    }

    /// A point-in-time metrics snapshot: every [`CsodStats`] counter
    /// under its [`CsodStats::COUNTERS`] name, the report count, and
    /// gauges plus the watch-lifetime, slot-occupancy and per-context
    /// sample-rate histograms.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let s = self.stats();
        for (name, read, ..) in CsodStats::COUNTERS {
            reg.set_counter(name, read(&s));
        }
        reg.set_counter("csod_reports_total", self.reports.len() as u64);
        reg.set_gauge(
            "csod_watched_objects",
            self.watchpoints.watched_count() as f64,
        );
        reg.set_gauge(
            "csod_distinct_contexts",
            self.sampling.distinct_contexts() as f64,
        );
        reg.set_gauge(
            "csod_canary_only_mode",
            f64::from(u8::from(
                self.degradation.mode() == DetectionMode::CanaryOnly,
            )),
        );
        reg.set_gauge(
            "csod_pending_teardowns",
            self.watchpoints.pending_teardowns() as f64,
        );
        reg.set_gauge(
            "csod_quarantined_objects",
            self.mitigation.quarantined_objects() as f64,
        );
        reg.set_histogram(
            "csod_watch_lifetime_ns",
            self.watchpoints.watch_lifetime_histogram(),
        );
        reg.set_histogram(
            "csod_slot_occupancy",
            self.watchpoints.slot_occupancy_histogram(),
        );
        // Per-context sample-rate distribution, built from the sampling
        // table at snapshot time (ppm values, so one bucket ≈ one 2×
        // band of watch probability).
        let mut rates = Histogram::new();
        for (_key, state) in self.sampling.snapshot() {
            rates.record(u64::from(state.probability_ppm()));
        }
        reg.set_histogram("csod_ctx_probability_ppm", rates.snapshot());
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ReplacementPolicy;
    use sim_heap::{HeapConfig, SimHeap};
    use sim_machine::Machine;

    struct Fixture {
        machine: Machine,
        heap: SimHeap,
        csod: Csod,
        frames: Arc<FrameTable>,
    }

    fn fixture(config: CsodConfig) -> Fixture {
        let frames = Arc::new(FrameTable::new());
        let mut machine = Machine::new();
        let heap = SimHeap::new(&mut machine, HeapConfig::default()).unwrap();
        let csod = Csod::new(config, Arc::clone(&frames));
        Fixture {
            machine,
            heap,
            csod,
            frames,
        }
    }

    fn ctx(frames: &FrameTable, site: &str) -> CallingContext {
        CallingContext::from_locations(frames, [site, "main.c:1"])
    }

    fn key(frames: &FrameTable, site: &str) -> ContextKey {
        ContextKey::new(frames.intern(site), 0x40)
    }

    fn malloc(f: &mut Fixture, site: &str, size: u64) -> VirtAddr {
        let k = key(&f.frames, site);
        let c = ctx(&f.frames, site);
        f.csod
            .malloc(&mut f.machine, &mut f.heap, ThreadId::MAIN, size, k, &c)
            .unwrap()
    }

    #[test]
    fn first_object_is_watched_due_to_availability() {
        let mut f = fixture(CsodConfig::default());
        let p = malloc(&mut f, "a.c:1", 64);
        assert!(f.csod.is_watched(p));
        assert_eq!(f.csod.stats().watch.installs, 1);
    }

    #[test]
    fn overflow_write_fires_watchpoint_and_reports_both_contexts() {
        let mut f = fixture(CsodConfig::default());
        let site = SiteToken(9);
        f.csod.register_site(site, ctx(&f.frames, "memcpy.S:81"));
        let p = malloc(&mut f, "alloc.c:10", 64);
        f.machine.set_current_site(ThreadId::MAIN, site);
        f.machine.app_write(ThreadId::MAIN, p + 64, 8).unwrap();
        f.csod.poll(&mut f.machine);
        assert!(f.csod.detected_by_watchpoint());
        let r = &f.csod.reports()[0];
        assert_eq!(r.kind, AccessKind::Write);
        assert_eq!(r.method, DetectionMethod::Watchpoint);
        let text = r.render(&f.frames);
        assert!(text.contains("memcpy.S:81"));
        assert!(text.contains("alloc.c:10"));
        assert_eq!(f.csod.stats().traps, 1);
    }

    #[test]
    fn over_read_is_detected_too() {
        let mut f = fixture(CsodConfig::default());
        let p = malloc(&mut f, "ssl.c:2588", 33);
        // Canary word starts at the 40-byte boundary (33 rounded up).
        f.machine.app_read(ThreadId::MAIN, p + 40, 4).unwrap();
        f.csod.poll(&mut f.machine);
        assert!(f.csod.detected());
        assert_eq!(f.csod.reports()[0].kind, AccessKind::Read);
    }

    #[test]
    fn in_bounds_accesses_never_report() {
        let mut f = fixture(CsodConfig::default());
        let p = malloc(&mut f, "a.c:1", 64);
        for off in (0..64).step_by(8) {
            f.machine.app_write(ThreadId::MAIN, p + off, 8).unwrap();
            f.machine.app_read(ThreadId::MAIN, p + off, 8).unwrap();
        }
        f.csod.poll(&mut f.machine);
        assert!(!f.csod.detected(), "no false positives");
    }

    #[test]
    fn duplicate_traps_report_once() {
        let mut f = fixture(CsodConfig::default());
        let site = SiteToken(3);
        f.csod.register_site(site, ctx(&f.frames, "loop.c:5"));
        let p = malloc(&mut f, "a.c:1", 16);
        f.machine.set_current_site(ThreadId::MAIN, site);
        for _ in 0..5 {
            f.machine.app_write(ThreadId::MAIN, p + 16, 8).unwrap();
        }
        f.csod.poll(&mut f.machine);
        assert_eq!(f.csod.reports().len(), 1);
        assert_eq!(f.csod.stats().traps, 5);
    }

    #[test]
    fn canary_detects_missed_overwrite_on_free() {
        let mut f = fixture(CsodConfig::default());
        // Saturate the four watchpoints with objects from other contexts.
        for i in 0..4 {
            let _ = malloc(&mut f, &format!("filler.c:{i}"), 16);
        }
        let p = malloc(&mut f, "victim.c:1", 16);
        // With the naive default? (near-FIFO) the object may or may not
        // be watched; force the unwatched case by removing if present.
        if f.csod.is_watched(p) {
            // Overflow silently via the raw backdoor: corrupt the canary
            // without touching the watchpoint logic.
        }
        f.machine.raw_store_u64(p + 16, 0x4242).unwrap();
        f.csod
            .free(&mut f.machine, &mut f.heap, ThreadId::MAIN, p)
            .unwrap();
        assert!(f.csod.detected());
        let r = f.csod.reports().last().unwrap();
        assert_eq!(r.method, DetectionMethod::CanaryOnFree);
        assert_eq!(f.csod.stats().canary_free_hits, 1);
        // The context is now pinned: the next allocation is watched.
        let p2 = malloc(&mut f, "victim.c:1", 16);
        let state = f
            .csod
            .sampling()
            .state(key(&f.frames, "victim.c:1"))
            .unwrap();
        assert!(state.pinned_certain);
        let _ = p2;
    }

    #[test]
    fn canary_sweep_at_exit_detects_leaked_overflow() {
        let mut f = fixture(CsodConfig::default());
        let p = malloc(&mut f, "leak.c:1", 24);
        f.machine.raw_store_u64(p + 24, 0x1337).unwrap();
        f.csod.finish(&mut f.machine);
        assert_eq!(f.csod.stats().canary_exit_hits, 1);
        assert_eq!(
            f.csod.reports().last().unwrap().method,
            DetectionMethod::CanaryAtExit
        );
        // finish() is idempotent.
        f.csod.finish(&mut f.machine);
        assert_eq!(f.csod.reports().len(), 1);
    }

    #[test]
    fn exit_sweep_reports_in_ascending_object_address() {
        let mut f = fixture(CsodConfig::default());
        let objects: Vec<VirtAddr> = (0..32)
            .map(|i| malloc(&mut f, &format!("live.c:{i}"), 24))
            .collect();
        for p in [objects[29], objects[3]] {
            f.machine.raw_store_u64(p + 24, 0x1337).unwrap();
        }
        f.csod.finish(&mut f.machine);
        let swept: Vec<VirtAddr> = f
            .csod
            .reports()
            .iter()
            .filter(|r| r.method == DetectionMethod::CanaryAtExit)
            .map(|r| r.object_start)
            .collect();
        let mut expected = vec![objects[29], objects[3]];
        expected.sort();
        assert_eq!(swept, expected);
    }

    #[test]
    fn segv_triggers_emergency_sweep() {
        let mut f = fixture(CsodConfig::default());
        let p = malloc(&mut f, "crash.c:1", 16);
        f.machine.raw_store_u64(p + 16, 0xBAD).unwrap();
        // A wild access far outside the heap raises SIGSEGV.
        let _ = f.machine.app_write(ThreadId::MAIN, VirtAddr::new(0x10), 8);
        f.csod.poll(&mut f.machine);
        assert_eq!(f.csod.stats().canary_exit_hits, 1);
    }

    #[test]
    fn without_evidence_canaries_are_disabled() {
        let mut f = fixture(CsodConfig::without_evidence());
        let p = malloc(&mut f, "a.c:1", 16);
        f.machine.raw_store_u64(p + 16, 0x4242).unwrap();
        f.csod
            .free(&mut f.machine, &mut f.heap, ThreadId::MAIN, p)
            .unwrap();
        f.csod.finish(&mut f.machine);
        assert!(!f.csod.detected());
        // Overhead is just the boundary word.
        assert_eq!(f.csod.per_object_overhead(16), 8);
        assert_eq!(
            fixture(CsodConfig::default()).csod.per_object_overhead(16),
            40
        );
    }

    #[test]
    fn evidence_pins_context_across_executions() {
        use crate::config::MitigationParams;
        let dir = std::env::temp_dir().join("csod-runtime-evidence");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("evidence-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let config = CsodConfig {
            persist_path: Some(path.clone()),
            ..CsodConfig::default()
        };

        // Execution 1: the overflow is missed by watchpoints (object not
        // watched) but caught by the canary at free.
        let mut f1 = fixture(config.clone());
        for i in 0..4 {
            let _ = malloc(&mut f1, &format!("filler.c:{i}"), 16);
        }
        let p = malloc(&mut f1, "bug.c:7", 16);
        f1.machine.raw_store_u64(p + 16, 7).unwrap();
        f1.csod
            .free(&mut f1.machine, &mut f1.heap, ThreadId::MAIN, p)
            .unwrap();
        f1.csod.finish(&mut f1.machine);
        assert!(path.exists());

        // Execution 2, pin-only (mitigation off): the very first
        // allocation from bug.c:7 starts at 100% and is watched
        // immediately, with the plain layout.
        let mut f2 = fixture(CsodConfig {
            mitigation: MitigationParams::disabled(),
            ..config
        });
        for i in 0..4 {
            let _ = malloc(&mut f2, &format!("filler.c:{i}"), 16);
        }
        let p2 = malloc(&mut f2, "bug.c:7", 16);
        let state = f2
            .csod
            .sampling()
            .state(key(&f2.frames, "bug.c:7"))
            .unwrap();
        assert!(state.pinned_certain, "evidence pre-pinned the context");
        assert!(!state.mitigated, "pin-only: the context is not hardened");
        let header = CanaryUnit::new(0).read_header(&f2.machine, p2).unwrap();
        assert_eq!(header.object_size, 16, "plain layout");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wal_persists_confirmation_across_executions_and_mitigates() {
        let dir = std::env::temp_dir().join("csod-runtime-wal");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("ctx-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let config = CsodConfig {
            persist_path: Some(path.clone()),
            ..CsodConfig::default()
        };

        // Execution 1: overflow missed by watchpoints, caught by the
        // canary at free — the confirmation is WAL-appended immediately,
        // and the run is then *killed* (drop without finish).
        let mut f1 = fixture(config.clone());
        for i in 0..4 {
            let _ = malloc(&mut f1, &format!("filler.c:{i}"), 16);
        }
        let p = malloc(&mut f1, "bug.c:7", 16);
        f1.machine.raw_store_u64(p + 16, 7).unwrap();
        f1.csod
            .free(&mut f1.machine, &mut f1.heap, ThreadId::MAIN, p)
            .unwrap();
        assert_eq!(f1.csod.stats().contexts_mitigated, 1);
        drop(f1); // simulated kill: no finish(), no compaction

        // Execution 2: the WAL alone re-pins and re-mitigates the
        // context from its very first allocation.
        let mut f2 = fixture(config.clone());
        assert_eq!(f2.csod.stats().wal_records_recovered, 1);
        assert_eq!(f2.csod.stats().wal_records_skipped_corrupt, 0);
        assert_eq!(f2.csod.stats().contexts_mitigated, 1);
        let p2 = malloc(&mut f2, "bug.c:7", 16);
        let state = f2
            .csod
            .sampling()
            .state(key(&f2.frames, "bug.c:7"))
            .unwrap();
        assert!(state.pinned_certain, "WAL recovery pre-pinned the context");
        assert!(state.mitigated, "WAL recovery pre-mitigated the context");
        // The hardened layout absorbs the same 8-byte over-write: the
        // canary now sits past the slack, so the free is clean.
        f2.machine.raw_store_u64(p2 + 16, 7).unwrap();
        f2.csod
            .free(&mut f2.machine, &mut f2.heap, ThreadId::MAIN, p2)
            .unwrap();
        assert_eq!(
            f2.csod.stats().canary_free_hits,
            0,
            "overflow absorbed by slack"
        );
        // The mitigated object's memory went to the quarantine, not the
        // allocator; draining releases it.
        assert_eq!(f2.csod.mitigation().quarantined_objects(), 1);
        let released = f2
            .csod
            .drain_quarantine(&mut f2.machine, &mut f2.heap)
            .unwrap();
        assert_eq!(released, 1);
        f2.csod.finish(&mut f2.machine);

        // Execution 3: the clean exit compacted the WAL; recovery sees
        // exactly one strongest record and no damage.
        let state = Wal::recover(&path);
        assert_eq!(state.records.len(), 1);
        assert_eq!(state.records[0].kind, RecordKind::Mitigated);
        assert_eq!(state.skipped_corrupt, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trap_confirmation_hardens_later_allocations() {
        let mut f = fixture(CsodConfig::default());
        let site = SiteToken(21);
        f.csod.register_site(site, ctx(&f.frames, "smash.c:4"));
        let p = malloc(&mut f, "hot.c:2", 64);
        assert!(f.csod.is_watched(p));
        f.machine.set_current_site(ThreadId::MAIN, site);
        f.machine.app_write(ThreadId::MAIN, p + 64, 8).unwrap();
        f.csod.poll(&mut f.machine);
        assert!(f.csod.detected_by_watchpoint());
        // The trap confirmed the context: counted, and the next
        // allocation from it is hardened.
        assert_eq!(f.csod.stats().contexts_mitigated, 1);
        let q = malloc(&mut f, "hot.c:2", 64);
        // The same over-write now lands in slack: no canary corruption
        // on free, and the memory is quarantined.
        f.machine.raw_store_u64(q + 64, 0xBAD).unwrap();
        f.csod
            .free(&mut f.machine, &mut f.heap, ThreadId::MAIN, q)
            .unwrap();
        assert_eq!(f.csod.stats().canary_free_hits, 0);
        assert_eq!(f.csod.mitigation().quarantined_objects(), 1);
        // Unconfirmed contexts keep the plain layout and free path.
        let r = malloc(&mut f, "cold.c:9", 64);
        f.csod
            .free(&mut f.machine, &mut f.heap, ThreadId::MAIN, r)
            .unwrap();
        assert_eq!(f.csod.mitigation().quarantined_objects(), 1);
        f.csod
            .drain_quarantine(&mut f.machine, &mut f.heap)
            .unwrap();
    }

    #[test]
    fn disabled_mitigation_keeps_the_plain_layout() {
        use crate::config::MitigationParams;
        let mut f = fixture(CsodConfig {
            mitigation: MitigationParams::disabled(),
            ..CsodConfig::default()
        });
        let p = malloc(&mut f, "bug.c:1", 16);
        f.machine.raw_store_u64(p + 16, 7).unwrap();
        f.csod
            .free(&mut f.machine, &mut f.heap, ThreadId::MAIN, p)
            .unwrap();
        assert_eq!(f.csod.stats().canary_free_hits, 1);
        // The context is still *confirmed* (the ledger keeps the
        // knowledge) but allocations stay unhardened and unquarantined.
        assert_eq!(f.csod.stats().contexts_mitigated, 1);
        let q = malloc(&mut f, "bug.c:1", 16);
        f.machine.raw_store_u64(q + 16, 7).unwrap();
        f.csod
            .free(&mut f.machine, &mut f.heap, ThreadId::MAIN, q)
            .unwrap();
        assert_eq!(f.csod.mitigation().quarantined_objects(), 0);
    }

    #[test]
    fn free_removes_watchpoint_and_recycles_registers() {
        let mut f = fixture(CsodConfig::default());
        let p = malloc(&mut f, "a.c:1", 64);
        assert!(f.csod.is_watched(p));
        f.csod
            .free(&mut f.machine, &mut f.heap, ThreadId::MAIN, p)
            .unwrap();
        // The removal is logical immediately; the register comes back at
        // the next drain point (here: poll).
        assert!(!f.csod.is_watched(p));
        f.csod.poll(&mut f.machine);
        assert_eq!(f.machine.free_registers(ThreadId::MAIN), 4);
        assert_eq!(f.csod.stats().watch.teardowns_batched, 1);
    }

    #[test]
    fn unwatched_frees_take_the_filtered_fast_path() {
        // Fill all four slots so later contexts go unwatched (naive
        // policy never preempts).
        let mut f = fixture(CsodConfig::with_policy(ReplacementPolicy::Naive));
        for i in 0..4 {
            let _ = malloc(&mut f, &format!("pin{i}.c:1"), 16);
        }
        let p = malloc(&mut f, "cold.c:1", 16);
        assert!(!f.csod.is_watched(p));
        let before = f.machine.counter().syscalls();
        f.csod
            .free(&mut f.machine, &mut f.heap, ThreadId::MAIN, p)
            .unwrap();
        // No teardown syscalls, and the filter skip is counted.
        assert_eq!(f.machine.counter().syscalls(), before);
        assert_eq!(f.csod.stats().frees_fast_filtered, 1);
    }

    #[test]
    fn stale_trap_after_free_is_counted_never_reported() {
        let mut f = fixture(CsodConfig::default());
        let site = SiteToken(7);
        f.csod.register_site(site, ctx(&f.frames, "late.c:1"));
        let p = malloc(&mut f, "a.c:1", 64);
        assert!(f.csod.is_watched(p));
        // The overflow happens while watched, but the object is freed
        // (logically unlinking the watchpoint) before the signal is
        // drained: the trap is stale and must not produce a report — the
        // address may already belong to a new object.
        f.machine.set_current_site(ThreadId::MAIN, site);
        f.machine.app_write(ThreadId::MAIN, p + 64, 8).unwrap();
        f.csod
            .free(&mut f.machine, &mut f.heap, ThreadId::MAIN, p)
            .unwrap();
        // Recycle the address for an unrelated object before polling.
        let q = malloc(&mut f, "fresh.c:1", 64);
        f.csod.poll(&mut f.machine);
        assert_eq!(f.csod.stats().stale_traps_suppressed, 1);
        // The overflow is still caught — by the free-time canary check on
        // the old object — but never through the stale trap: no
        // watchpoint report, so nothing can be attributed to the new
        // object now living at the recycled address.
        assert!(
            !f.csod.detected_by_watchpoint(),
            "a recycled address must not inherit the old object's trap"
        );
        assert_eq!(f.csod.stats().canary_free_hits, 1);
        let _ = q;
    }

    #[test]
    fn respawned_thread_gets_fresh_cache_and_rng_slot() {
        let mut f = fixture(CsodConfig::default());
        let worker = f.csod.spawn_thread(&mut f.machine);
        let k = key(&f.frames, "w.c:1");
        let c = ctx(&f.frames, "w.c:1");
        let p = f
            .csod
            .malloc(&mut f.machine, &mut f.heap, worker, 16, k, &c)
            .unwrap();
        f.csod.free(&mut f.machine, &mut f.heap, worker, p).unwrap();
        let slot = worker.as_u32() as usize;
        assert!(f.csod.caches[slot].stats().misses > 0);
        f.csod.exit_thread(&mut f.machine, worker).unwrap();
        // The dead thread's slot was reset, not left with stale state.
        let s = f.csod.caches[slot].stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (0, 0, 0));
        // A respawned worker starts from a fresh cache and RNG slot even
        // if the registry ever handed the same dense index back.
        let worker2 = f.csod.spawn_thread(&mut f.machine);
        let p2 = f
            .csod
            .malloc(&mut f.machine, &mut f.heap, worker2, 16, k, &c)
            .unwrap();
        let slot2 = worker2.as_u32() as usize;
        assert!(f.csod.caches[slot2].stats().misses > 0);
        f.csod
            .free(&mut f.machine, &mut f.heap, worker2, p2)
            .unwrap();
        f.csod.exit_thread(&mut f.machine, worker2).unwrap();
    }

    #[test]
    fn exit_thread_keeps_the_cache_counters() {
        let mut f = fixture(CsodConfig::default());
        let worker = f.csod.spawn_thread(&mut f.machine);
        let k = key(&f.frames, "w.c:1");
        let c = ctx(&f.frames, "w.c:1");
        for _ in 0..10 {
            let p = f
                .csod
                .malloc(&mut f.machine, &mut f.heap, worker, 16, k, &c)
                .unwrap();
            f.csod.free(&mut f.machine, &mut f.heap, worker, p).unwrap();
        }
        let counts = |f: &Fixture| {
            let s = f.csod.decision_cache_stats();
            (s.hits, s.misses, s.invalidations)
        };
        assert_eq!(counts(&f), (6, 4, 3));
        f.csod.exit_thread(&mut f.machine, worker).unwrap();
        assert_eq!(counts(&f), (6, 4, 3), "the exited thread still counts");
    }

    #[test]
    fn deferred_and_synchronous_teardown_report_identically() {
        use crate::config::FastPathParams;
        let run = |fast_path: FastPathParams| {
            let mut f = fixture(CsodConfig {
                fast_path,
                ..CsodConfig::default()
            });
            let site = SiteToken(11);
            f.csod.register_site(site, ctx(&f.frames, "smash.c:2"));
            let mut live = Vec::new();
            for i in 0..32 {
                let p = malloc(&mut f, &format!("s{}.c:1", i % 6), 48);
                live.push(p);
                if i % 3 == 2 {
                    let victim = live.remove(0);
                    f.csod
                        .free(&mut f.machine, &mut f.heap, ThreadId::MAIN, victim)
                        .unwrap();
                }
                if i == 10 {
                    // One real overflow mid-run on a live object.
                    f.machine.set_current_site(ThreadId::MAIN, site);
                    let target = *live.last().unwrap();
                    let size = f.csod.object_size(target).unwrap();
                    f.machine
                        .app_write(ThreadId::MAIN, target + size, 8)
                        .unwrap();
                }
                if i % 5 == 4 {
                    f.csod.poll(&mut f.machine);
                }
            }
            f.csod.finish(&mut f.machine);
            let reports: Vec<_> = f
                .csod
                .reports()
                .iter()
                .map(|r| (r.method, r.ctx_id.as_u32(), r.thread.as_u32()))
                .collect();
            (reports, f.machine.open_events())
        };
        let (sync_reports, sync_open) = run(FastPathParams::synchronous_teardown());
        let (fast_reports, fast_open) = run(FastPathParams::default());
        assert_eq!(sync_reports, fast_reports, "detection parity");
        assert_eq!(sync_open, 0);
        assert_eq!(fast_open, 0, "deferred teardown must not leak events");
    }

    #[test]
    fn unknown_free_is_an_error() {
        let mut f = fixture(CsodConfig::default());
        let bogus = VirtAddr::new(0x9999);
        assert_eq!(
            f.csod
                .free(&mut f.machine, &mut f.heap, ThreadId::MAIN, bogus),
            Err(CsodError::UnknownPointer(bogus))
        );
    }

    #[test]
    fn memalign_aligns_and_is_watchable() {
        for evidence in [true, false] {
            let mut f = fixture(CsodConfig {
                evidence,
                ..CsodConfig::default()
            });
            let k = key(&f.frames, "aligned.c:1");
            let c = ctx(&f.frames, "aligned.c:1");
            let p = f
                .csod
                .memalign(
                    &mut f.machine,
                    &mut f.heap,
                    ThreadId::MAIN,
                    4096,
                    100,
                    k,
                    &c,
                )
                .unwrap();
            assert!(p.is_aligned(4096));
            // Header readable via the canary unit (RealObjectPtr supports
            // it) in evidence mode; no header without it.
            let header = CanaryUnit::new(0).read_header(&f.machine, p);
            if evidence {
                assert_eq!(header.map(|h| h.object_size), Some(100));
            } else {
                assert_eq!(header, None);
            }
            // Overflow past the aligned object hits the watched boundary
            // word either way.
            f.machine.app_write(ThreadId::MAIN, p + 104, 8).unwrap();
            f.csod.poll(&mut f.machine);
            assert!(f.csod.detected_by_watchpoint(), "evidence = {evidence}");
            // And free works (through the header in evidence mode).
            f.csod
                .free(&mut f.machine, &mut f.heap, ThreadId::MAIN, p)
                .unwrap();
        }
    }

    #[test]
    fn hardened_memalign_header_matches_the_malloc_layout() {
        let mut f = fixture(CsodConfig::default());
        let site = SiteToken(22);
        f.csod.register_site(site, ctx(&f.frames, "smash.c:5"));
        let p = malloc(&mut f, "hot.c:3", 64);
        assert!(f.csod.is_watched(p));
        f.machine.set_current_site(ThreadId::MAIN, site);
        f.machine.app_write(ThreadId::MAIN, p + 64, 8).unwrap();
        f.csod.poll(&mut f.machine);
        assert_eq!(f.csod.stats().contexts_mitigated, 1);
        // The confirmed context's malloc header records the laid-out size.
        let unit = CanaryUnit::new(0);
        let q = malloc(&mut f, "hot.c:3", 100);
        let laid_out = unit.read_header(&f.machine, q).unwrap().object_size;
        assert_eq!(laid_out, f.csod.config().mitigation.harden(100));
        assert!(laid_out > 100);
        // memalign from the same context writes the same header, and the
        // canary sits where that size says.
        let k = key(&f.frames, "hot.c:3");
        let c = ctx(&f.frames, "hot.c:3");
        let a = f
            .csod
            .memalign(&mut f.machine, &mut f.heap, ThreadId::MAIN, 64, 100, k, &c)
            .unwrap();
        let header = unit.read_header(&f.machine, a).unwrap();
        assert_eq!(header.object_size, laid_out);
        assert_eq!(
            f.machine
                .raw_load_u64(a + header.object_size.div_ceil(8) * 8)
                .unwrap(),
            f.csod.canary.canary_value()
        );
    }

    #[test]
    fn new_threads_inherit_watchpoints() {
        let mut f = fixture(CsodConfig::default());
        let p = malloc(&mut f, "a.c:1", 32);
        let worker = f.csod.spawn_thread(&mut f.machine);
        f.machine.app_write(worker, p + 32, 8).unwrap();
        f.csod.poll(&mut f.machine);
        assert!(f.csod.detected());
        assert_eq!(f.csod.reports()[0].thread, worker);
        f.csod.exit_thread(&mut f.machine, worker).unwrap();
    }

    #[test]
    fn refused_thread_extension_counts_for_the_watch_unit_only() {
        // Extending a live watch onto a new thread is the one install
        // the degradation ladder never hears of: the watch unit counts
        // the refusal and tears the slot down (partial coverage would
        // let the new thread overflow silently), no retry is queued and
        // no context is charged a failure.
        let mut f = fixture(CsodConfig::default());
        let p = malloc(&mut f, "a.c:1", 32);
        assert!(f.csod.is_watched(p));
        f.machine
            .install_fault_plan(sim_machine::FaultPlan::new(1).perf_failures_ppm(PPM_SCALE));
        let worker = f.csod.spawn_thread(&mut f.machine);
        let stats = f.csod.stats();
        assert_eq!(stats.watch.install_failures, 1);
        assert_eq!(stats.degradation.install_failures, 0);
        assert!(!f.csod.is_watched(p), "the half-extended watch is gone");
        f.csod.exit_thread(&mut f.machine, worker).unwrap();
    }

    #[test]
    fn naive_policy_never_watches_fifth_context() {
        let mut f = fixture(CsodConfig::with_policy(ReplacementPolicy::Naive));
        for i in 0..4 {
            let _ = malloc(&mut f, &format!("ctx{i}.c:1"), 16);
        }
        let p = malloc(&mut f, "fifth.c:1", 16);
        assert!(!f.csod.is_watched(p));
        assert_eq!(f.csod.stats().watch.rejected, 1);
    }

    #[test]
    fn stats_and_counters_accumulate() {
        let mut f = fixture(CsodConfig::default());
        let a = malloc(&mut f, "a.c:1", 16);
        let _b = malloc(&mut f, "b.c:2", 16);
        f.csod
            .free(&mut f.machine, &mut f.heap, ThreadId::MAIN, a)
            .unwrap();
        let s = f.csod.stats();
        assert_eq!(s.allocations, 2);
        assert_eq!(s.frees, 1);
        assert_eq!(f.csod.distinct_contexts(), 2);
    }

    #[test]
    fn calloc_zeroes_and_is_managed() {
        let mut f = fixture(CsodConfig::default());
        let k = key(&f.frames, "z.c:1");
        let c = ctx(&f.frames, "z.c:1");
        let p = f
            .csod
            .calloc(&mut f.machine, &mut f.heap, ThreadId::MAIN, 64, k, &c)
            .unwrap();
        assert_eq!(f.machine.raw_load_u64(p).unwrap(), 0);
        assert_eq!(f.machine.raw_load_u64(p + 56).unwrap(), 0);
        assert!(f.csod.is_watched(p));
        // The canary after the zeroed object is intact.
        f.csod
            .free(&mut f.machine, &mut f.heap, ThreadId::MAIN, p)
            .unwrap();
        assert!(!f.csod.detected());
    }

    #[test]
    fn realloc_copies_and_keeps_detection_working() {
        let mut f = fixture(CsodConfig::default());
        let k = key(&f.frames, "r.c:1");
        let c = ctx(&f.frames, "r.c:1");
        let p = f
            .csod
            .malloc(&mut f.machine, &mut f.heap, ThreadId::MAIN, 16, k, &c)
            .unwrap();
        f.machine.raw_store_u64(p, 0xFEED).unwrap();
        let q = f
            .csod
            .realloc(&mut f.machine, &mut f.heap, ThreadId::MAIN, p, 256, k, &c)
            .unwrap();
        assert_eq!(f.machine.raw_load_u64(q).unwrap(), 0xFEED);
        assert_ne!(p, q);
        assert_eq!(f.csod.object_size(q), Some(256));
        assert_eq!(f.csod.object_size(p), None, "old object gone");
        // The grown object's boundary is still guarded: either its
        // watchpoint fires (if the 25%-probability roll watched it) or
        // the canary evidence catches the over-write at exit.
        f.machine.app_write(ThreadId::MAIN, q + 256, 8).unwrap();
        f.csod.poll(&mut f.machine);
        f.csod.finish(&mut f.machine);
        assert!(f.csod.detected());
    }

    #[test]
    fn realloc_detects_prior_overflow_through_old_canary() {
        let mut f = fixture(CsodConfig::default());
        let k = key(&f.frames, "r2.c:1");
        let c = ctx(&f.frames, "r2.c:1");
        let p = f
            .csod
            .malloc(&mut f.machine, &mut f.heap, ThreadId::MAIN, 24, k, &c)
            .unwrap();
        // Corrupt the canary silently, then realloc: the embedded free
        // must catch the evidence.
        f.machine.raw_store_u64(p + 24, 0xBAD).unwrap();
        let _q = f
            .csod
            .realloc(&mut f.machine, &mut f.heap, ThreadId::MAIN, p, 64, k, &c)
            .unwrap();
        assert_eq!(f.csod.stats().canary_free_hits, 1);
    }

    #[test]
    fn realloc_of_unknown_pointer_fails() {
        let mut f = fixture(CsodConfig::default());
        let k = key(&f.frames, "r3.c:1");
        let c = ctx(&f.frames, "r3.c:1");
        let bogus = VirtAddr::new(0x42);
        assert_eq!(
            f.csod
                .realloc(
                    &mut f.machine,
                    &mut f.heap,
                    ThreadId::MAIN,
                    bogus,
                    10,
                    k,
                    &c
                )
                .unwrap_err(),
            CsodError::UnknownPointer(bogus)
        );
    }

    /// A fixture whose config carries a static verdict for `site`,
    /// interned in the same frame table the workload uses.
    fn priored_fixture(site: &str, class: RiskClass) -> Fixture {
        use crate::config::AnalysisPriors;
        let frames = Arc::new(FrameTable::new());
        let k = key(&frames, site);
        let config = CsodConfig::with_priors(AnalysisPriors::from_classes([(k, class)]));
        let mut machine = Machine::new();
        let heap = SimHeap::new(&mut machine, HeapConfig::default()).unwrap();
        let csod = Csod::new(config, Arc::clone(&frames));
        Fixture {
            machine,
            heap,
            csod,
            frames,
        }
    }

    #[test]
    fn proven_safe_prior_denies_the_availability_bypass() {
        let mut f = priored_fixture("safe.c:1", RiskClass::ProvenSafe);
        // Without the prior the first object of a fresh context is always
        // watched ("installation due to availability"); with it, the
        // context starts at the 0.001% floor and the bypass is denied.
        let p = malloc(&mut f, "safe.c:1", 64);
        assert!(
            !f.csod.is_watched(p),
            "proven-safe object must not burn a register"
        );
        let s = f.csod.stats();
        assert_eq!(s.proven_safe_allocs, 1);
        assert_eq!(s.proven_safe_installs, 0);
        assert_eq!(s.prior_availability_skips, 1);
        assert_eq!(s.proven_safe_overflows, 0);
    }

    #[test]
    fn suspicious_prior_objects_are_watched_and_counted() {
        let mut f = priored_fixture("risky.c:1", RiskClass::Suspicious);
        // At the 90% boost nearly every object is watched; the first one
        // is guaranteed through availability regardless of the roll.
        let p = malloc(&mut f, "risky.c:1", 64);
        assert!(f.csod.is_watched(p));
        assert!(f.csod.stats().suspicious_installs >= 1);
        // An actual overflow from the suspicious context is caught and
        // does not touch the proven-safe soundness counter.
        f.machine.app_write(ThreadId::MAIN, p + 64, 8).unwrap();
        f.csod.poll(&mut f.machine);
        assert!(f.csod.detected_by_watchpoint());
        assert_eq!(f.csod.stats().proven_safe_overflows, 0);
    }

    #[test]
    fn misclassified_overflow_trips_the_soundness_counter() {
        let mut f = priored_fixture("wrong.c:1", RiskClass::ProvenSafe);
        let p = malloc(&mut f, "wrong.c:1", 16);
        assert!(!f.csod.is_watched(p));
        // The canary still catches the overflow the watchpoints skipped —
        // and books it against the analyzer.
        f.machine.raw_store_u64(p + 16, 0xBAD).unwrap();
        f.csod
            .free(&mut f.machine, &mut f.heap, ThreadId::MAIN, p)
            .unwrap();
        assert!(f.csod.detected());
        assert_eq!(f.csod.stats().proven_safe_overflows, 1);
    }

    #[test]
    fn tool_costs_are_charged_to_tool_bucket() {
        let mut f = fixture(CsodConfig::default());
        let _ = malloc(&mut f, "a.c:1", 16);
        let c = f.machine.counter();
        assert!(c.tool_ns() > 0, "interposition must cost tool time");
        assert!(c.app_ns() > 0, "the allocator itself is app time");
        // Installing on one thread = 6 syscalls (open + 4 fcntl + ioctl).
        assert_eq!(c.syscalls(), 6);
    }
}
