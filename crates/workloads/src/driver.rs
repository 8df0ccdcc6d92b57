//! The trace runner: executes an event stream under a detection tool.

use crate::sites::SiteRegistry;
use crate::trace::Event;
use asan_sim::{Asan, AsanConfig};
use csod_core::{Csod, CsodConfig};
use csod_ctx::ContextKey;
use csod_trace::TraceEventKind;
use sampler_sim::{Sampler, SamplerConfig};
use sim_heap::{HeapConfig, SimHeap};
use sim_machine::{AccessKind, Machine, SiteToken, ThreadId, VirtAddr};
use std::fmt;
use std::sync::Arc;

/// Which tool (if any) a run executes under.
// A handful of `ToolSpec`s exist per comparison run, so the size gap
// between `Csod(CsodConfig)` and `Baseline` costs nothing; boxing the
// config would only add a hop to every accessor.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum ToolSpec {
    /// The unprotected program — the normalization baseline of Figure 7
    /// and the "Original" column of Table V.
    Baseline,
    /// CSOD with the given configuration.
    Csod(CsodConfig),
    /// The ASan model; `instrumented` lists the modules compiled with
    /// instrumentation (the application itself, but typically not
    /// external libraries).
    Asan {
        /// Tool configuration.
        config: AsanConfig,
        /// Instrumented module names.
        instrumented: Vec<String>,
    },
    /// The Sampler model (MICRO'18): PMU access sampling over a
    /// guard-zone allocator.
    Sampler(SamplerConfig),
}

impl ToolSpec {
    /// Short label used in table output.
    pub fn label(&self) -> &'static str {
        match self {
            ToolSpec::Baseline => "baseline",
            ToolSpec::Csod(c) if c.evidence => "csod",
            ToolSpec::Csod(_) => "csod-no-evidence",
            ToolSpec::Asan { .. } => "asan",
            ToolSpec::Sampler(_) => "sampler",
        }
    }
}

enum ToolState {
    Baseline,
    Csod(Box<Csod>),
    Asan(Box<Asan>),
    Sampler(Box<Sampler>),
}

impl fmt::Debug for ToolState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ToolState::Baseline => "Baseline",
            ToolState::Csod(_) => "Csod",
            ToolState::Asan(_) => "Asan",
            ToolState::Sampler(_) => "Sampler",
        };
        f.debug_struct(name).finish_non_exhaustive()
    }
}

/// Everything a finished run reports back to the experiment harnesses.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOutcome {
    /// Tool label (see [`ToolSpec::label`]).
    pub tool: String,
    /// Any overflow detected (by any mechanism the tool has).
    pub detected: bool,
    /// CSOD: a hardware watchpoint fired (precise detection).
    pub watchpoint_detected: bool,
    /// CSOD: canary evidence found at free or exit.
    pub evidence_detected: bool,
    /// Normalized overhead versus the tool-free execution of the same
    /// work (Figure 7).
    pub overhead: f64,
    /// Total virtual run time in nanoseconds.
    pub total_ns: u64,
    /// Application CPU nanoseconds.
    pub app_ns: u64,
    /// Tool CPU nanoseconds.
    pub tool_ns: u64,
    /// I/O wait nanoseconds.
    pub io_ns: u64,
    /// Peak heap residency in KiB (Table V).
    pub peak_heap_kb: u64,
    /// Tool memory outside the heap blocks (ASan shadow), KiB.
    pub tool_extra_kb: u64,
    /// Allocations performed.
    pub allocations: u64,
    /// Distinct allocation contexts CSOD observed (Table IV "CC").
    pub distinct_contexts: usize,
    /// Objects CSOD ever watched (Table IV "WT").
    pub watched_times: u64,
    /// Watchpoint traps delivered.
    pub traps: u64,
    /// CSOD with priors: allocations from proven-safe contexts.
    pub proven_safe_allocs: u64,
    /// CSOD with priors: watchpoint installs spent on proven-safe
    /// contexts (the waste the static analysis is meant to cut).
    pub proven_safe_installs: u64,
    /// CSOD with priors: installs on statically suspicious contexts.
    pub suspicious_installs: u64,
    /// CSOD with priors: availability bypasses denied on proven-safe
    /// contexts — watch slots the priors saved outright.
    pub prior_availability_skips: u64,
    /// CSOD with priors: overflows from proven-safe contexts. Any
    /// nonzero value is an analyzer soundness bug.
    pub proven_safe_overflows: u64,
    /// The falsified `proven-safe` context signatures behind
    /// [`proven_safe_overflows`](RunOutcome::proven_safe_overflows),
    /// for the soundness gate to print.
    pub proven_safe_overflow_signatures: Vec<String>,
    /// CSOD: frees the watched-address filter proved unwatched.
    pub frees_fast_filtered: u64,
    /// CSOD: Figure-4 teardowns paid through batched drains.
    pub teardowns_batched: u64,
    /// CSOD: stale traps drained after logical removal (counted, never
    /// reported).
    pub stale_traps_suppressed: u64,
    /// System calls issued.
    pub syscalls: u64,
    /// Rendered bug reports.
    pub reports: Vec<String>,
    /// CSOD: distinct allocation-context signatures among the reports —
    /// the deduplicated bug count a fleet aggregates on.
    pub unique_report_contexts: usize,
    /// CSOD: reports beyond the first for their allocation-context
    /// signature (same bug rediscovered via another site or thread).
    pub duplicate_reports: u64,
    /// CSOD: per-context watch counts at exit, for attributing install
    /// spending to risk classes regardless of whether priors were on.
    pub context_watch_counts: Vec<(ContextKey, u64)>,
    /// CSOD: trace events drained from the per-thread rings at exit
    /// (zero when tracing is off at run time or compiled out).
    pub trace_events: u64,
    /// CSOD: trace events lost to ring wrap-around.
    pub trace_dropped: u64,
    /// CSOD: per-kind trace event counts, kinds never seen omitted.
    pub trace_counts: Vec<(TraceEventKind, u64)>,
    /// Always 0 (no trace cache); kept so the parity goldens' `Debug` digest holds.
    pub replay_cache_hits: u64,
    /// Always 0 (no trace cache); kept so the parity goldens' `Debug` digest holds.
    pub replay_cache_misses: u64,
    /// Always 0 (no trace cache); kept so the parity goldens' `Debug` digest holds.
    pub replay_cache_invalidations: u64,
    /// Always 0 (no trace cache); kept so the parity goldens' `Debug` digest holds.
    pub replay_segments_compiled: u64,
    /// Always 0 (no trace cache); kept for the parity goldens and `perfbench`'s replay share.
    pub replay_accesses: u64,
}

/// Executes [`Event`]s against a machine, heap and tool.
///
/// # Examples
///
/// ```
/// use csod_core::CsodConfig;
/// use csod_ctx::FrameTable;
/// use sim_machine::AccessKind;
/// use std::sync::Arc;
/// use workloads::{Event, SiteRegistry, ToolSpec, TraceRunner};
///
/// let mut reg = SiteRegistry::new("demo", Arc::new(FrameTable::new()));
/// reg.add_alloc_sites(1);
/// let bug_site = reg.add_access_site("demo", "copy.c:12");
///
/// let trace = vec![
///     Event::malloc(0, 64, 0),
///     Event::access(0, 0, 8, AccessKind::Write, bug_site),
///     Event::overflow(0, AccessKind::Write, bug_site),
/// ];
/// let outcome = TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::default())).run(trace);
/// assert!(outcome.detected);
/// ```
#[derive(Debug)]
pub struct TraceRunner<'r> {
    registry: &'r SiteRegistry,
    machine: Machine,
    heap: SimHeap,
    tool: ToolState,
    tool_label: String,
    threads: Vec<ThreadId>,
    slots: Vec<Option<(VirtAddr, u64)>>,
    /// Last freed occupant of each slot (address, size) for
    /// use-after-free events.
    ghosts: std::collections::HashMap<usize, (VirtAddr, u64)>,
}

impl<'r> TraceRunner<'r> {
    /// Creates a runner for one execution under `tool`.
    pub fn new(registry: &'r SiteRegistry, tool: ToolSpec) -> Self {
        // Hypothetical-hardware runs (the register-count ablation) need
        // a machine with matching debug registers.
        let mut machine = match &tool {
            ToolSpec::Csod(config) if config.watchpoint_slots > 4 => {
                Machine::with_debug_registers(config.watchpoint_slots)
            }
            _ => Machine::new(),
        };
        let heap = SimHeap::new(&mut machine, HeapConfig::default())
            .expect("fresh machine has a free heap region");
        let tool_label = tool.label().to_owned();
        let tool = match tool {
            ToolSpec::Baseline => ToolState::Baseline,
            ToolSpec::Csod(config) => {
                let mut csod = Csod::new(config, Arc::clone(registry.frames()));
                for site in registry.access_sites() {
                    csod.register_site(site.token, site.context.clone());
                }
                ToolState::Csod(Box::new(csod))
            }
            ToolSpec::Asan {
                config,
                instrumented,
            } => {
                let mut asan = Asan::new(config);
                for module in &instrumented {
                    asan.instrument_module(module);
                }
                ToolState::Asan(Box::new(asan))
            }
            ToolSpec::Sampler(config) => {
                ToolState::Sampler(Box::new(Sampler::new(&mut machine, config)))
            }
        };
        // One-time runtime start-up cost (Section V-B: visible in short
        // runs such as Ferret).
        match &tool {
            ToolState::Baseline => {}
            ToolState::Csod(_) => {
                let init = machine.costs().csod_init;
                machine.charge(sim_machine::CostDomain::Tool, init);
            }
            ToolState::Asan(_) => {
                let init = machine.costs().asan_init;
                machine.charge(sim_machine::CostDomain::Tool, init);
            }
            ToolState::Sampler(_) => {
                // Sampler's kernel driver + allocator swap: model like
                // the CSOD runtime's init.
                let init = machine.costs().csod_init;
                machine.charge(sim_machine::CostDomain::Tool, init);
            }
        }
        TraceRunner {
            registry,
            machine,
            heap,
            tool,
            tool_label,
            threads: vec![ThreadId::MAIN],
            slots: Vec::new(),
            ghosts: std::collections::HashMap::new(),
        }
    }

    /// Executes one event.
    pub fn step(&mut self, event: &Event) {
        match *event {
            Event::SpawnThread => {
                let tid = match &mut self.tool {
                    ToolState::Csod(csod) => csod.spawn_thread(&mut self.machine),
                    _ => self.machine.spawn_thread(),
                };
                self.threads.push(tid);
            }
            Event::Malloc {
                thread,
                site,
                size,
                slot,
            } => {
                let tid = self.thread(thread);
                let addr = match &mut self.tool {
                    ToolState::Baseline => self
                        .heap
                        .malloc(&mut self.machine, size)
                        .expect("trace fits in the heap"),
                    ToolState::Csod(csod) => {
                        let alloc_site = self.registry.alloc_site(site);
                        csod.malloc(
                            &mut self.machine,
                            &mut self.heap,
                            tid,
                            size,
                            alloc_site.key,
                            &alloc_site.context,
                        )
                        .expect("trace fits in the heap")
                    }
                    ToolState::Asan(asan) => asan
                        .malloc(&mut self.machine, &mut self.heap, size)
                        .expect("trace fits in the heap"),
                    ToolState::Sampler(sampler) => sampler
                        .malloc(&mut self.machine, &mut self.heap, size)
                        .expect("trace fits in the heap"),
                };
                if self.slots.len() <= slot {
                    self.slots.resize(slot + 1, None);
                }
                self.slots[slot] = Some((addr, size));
            }
            Event::Free { thread, slot } => {
                let tid = self.thread(thread);
                let Some((addr, size)) = self.slot(slot) else {
                    return;
                };
                self.slots[slot] = None;
                self.ghosts.insert(slot, (addr, size));
                match &mut self.tool {
                    ToolState::Baseline => {
                        self.heap
                            .free(&mut self.machine, addr)
                            .expect("slot holds a live object");
                    }
                    ToolState::Csod(csod) => {
                        csod.free(&mut self.machine, &mut self.heap, tid, addr)
                            .expect("slot holds a live object");
                    }
                    ToolState::Asan(asan) => {
                        asan.free(&mut self.machine, &mut self.heap, addr)
                            .expect("slot holds a live object");
                    }
                    ToolState::Sampler(sampler) => {
                        sampler
                            .free(&mut self.machine, &mut self.heap, addr)
                            .expect("slot holds a live object");
                    }
                }
            }
            Event::Access {
                thread,
                slot,
                offset,
                len,
                kind,
                site,
            } => {
                let Some((addr, size)) = self.slot(slot) else {
                    return;
                };
                // Clamp to stay in bounds: traces express intent, the
                // runner enforces it (only OverflowAccess goes out).
                let offset = offset.min(size.saturating_sub(1));
                let len = len.max(1).min(size - offset);
                self.do_access(thread, addr + offset, len, kind, site);
            }
            Event::OverflowAccess {
                thread,
                slot,
                kind,
                site,
            } => {
                let Some((addr, size)) = self.slot(slot) else {
                    return;
                };
                // The next word beyond the object's boundary: continuous
                // overflows always touch it (paper Section VI).
                let boundary = addr + size.max(1).div_ceil(8) * 8;
                self.do_access(thread, boundary, 8, kind, site);
            }
            Event::OverflowBurst {
                thread,
                slot,
                count,
                kind,
                site,
            } => {
                let Some((addr, size)) = self.slot(slot) else {
                    return;
                };
                let boundary = addr + size.max(1).div_ceil(8) * 8;
                self.do_access_burst(thread, boundary, 8, kind, site, count);
            }
            Event::AccessBurst {
                thread,
                slot,
                count,
                kind,
                site,
            } => {
                let Some((addr, size)) = self.slot(slot) else {
                    return;
                };
                // Representative word: the first aligned word (always
                // in-bounds for the >=8-byte objects traces allocate).
                let len = size.min(8);
                self.do_access_burst(thread, addr, len, kind, site, count);
            }
            Event::DanglingAccess {
                thread,
                slot,
                offset,
                kind,
                site,
            } => {
                let Some(&(addr, size)) = self.ghosts.get(&slot) else {
                    return;
                };
                let offset = offset.min(size.saturating_sub(1));
                let len = (size - offset).clamp(1, 8);
                self.do_access(thread, addr + offset, len, kind, site);
            }
            Event::Call { .. } | Event::Return { .. } => {
                // Control markers for the static analyzer's call-string
                // domain; a real call costs nothing the trace's Compute
                // events don't already model.
            }
            Event::Compute { thread, ops } => {
                let _ = thread;
                self.machine.app_compute(ops);
            }
            Event::IoWait { ns } => {
                self.machine
                    .wait_io(sim_machine::VirtDuration::from_nanos(ns));
            }
        }
    }

    fn do_access(
        &mut self,
        thread: u8,
        addr: VirtAddr,
        len: u64,
        kind: AccessKind,
        site: SiteToken,
    ) {
        let tid = self.thread(thread);
        self.machine.set_current_site(tid, site);
        match &mut self.tool {
            ToolState::Baseline => {
                let _ = self.machine.app_access(tid, addr, len, kind);
            }
            ToolState::Csod(csod) => {
                let _ = self.machine.app_access(tid, addr, len, kind);
                if self.machine.has_pending_signals() {
                    csod.poll(&mut self.machine);
                }
            }
            ToolState::Asan(asan) => {
                let module = &self.registry.access_site(site).module;
                let _ = asan.access(&mut self.machine, tid, addr, len, kind, module, site);
            }
            ToolState::Sampler(sampler) => {
                let _ = self.machine.app_access(tid, addr, len, kind);
                sampler.poll(&mut self.machine);
            }
        }
    }

    fn do_access_burst(
        &mut self,
        thread: u8,
        addr: VirtAddr,
        len: u64,
        kind: AccessKind,
        site: SiteToken,
        count: u64,
    ) {
        let tid = self.thread(thread);
        self.machine.set_current_site(tid, site);
        match &mut self.tool {
            ToolState::Baseline => {
                let _ = self.machine.app_access_bulk(tid, addr, len, kind, count);
            }
            ToolState::Csod(csod) => {
                let _ = self.machine.app_access_bulk(tid, addr, len, kind, count);
                if self.machine.has_pending_signals() {
                    csod.poll(&mut self.machine);
                }
            }
            ToolState::Asan(asan) => {
                let module = &self.registry.access_site(site).module;
                let _ =
                    asan.access_burst(&mut self.machine, tid, addr, len, kind, module, site, count);
            }
            ToolState::Sampler(sampler) => {
                let _ = self.machine.app_access_bulk(tid, addr, len, kind, count);
                sampler.poll(&mut self.machine);
            }
        }
    }

    fn thread(&self, index: u8) -> ThreadId {
        self.threads
            .get(index as usize)
            .copied()
            .unwrap_or(ThreadId::MAIN)
    }

    fn slot(&self, slot: usize) -> Option<(VirtAddr, u64)> {
        self.slots.get(slot).copied().flatten()
    }

    /// Executes every event of `trace` and finishes the run.
    pub fn run(mut self, trace: impl IntoIterator<Item = Event>) -> RunOutcome {
        for event in trace {
            self.step(&event);
        }
        self.finish()
    }

    /// Ends the execution: runs the tool's termination path and collects
    /// the outcome.
    pub fn finish(mut self) -> RunOutcome {
        let mut outcome = RunOutcome {
            tool: self.tool_label.clone(),
            ..RunOutcome::default()
        };
        match &mut self.tool {
            ToolState::Baseline => {}
            ToolState::Csod(csod) => {
                csod.finish(&mut self.machine);
                let stats = csod.stats();
                outcome.detected = csod.detected();
                outcome.watchpoint_detected = csod.detected_by_watchpoint();
                outcome.evidence_detected = stats.canary_free_hits + stats.canary_exit_hits > 0;
                outcome.allocations = stats.allocations;
                outcome.distinct_contexts = csod.distinct_contexts();
                outcome.watched_times = stats.watch.installs;
                outcome.traps = stats.traps;
                outcome.proven_safe_allocs = stats.proven_safe_allocs;
                outcome.proven_safe_installs = stats.proven_safe_installs;
                outcome.suspicious_installs = stats.suspicious_installs;
                outcome.prior_availability_skips = stats.prior_availability_skips;
                outcome.proven_safe_overflows = stats.proven_safe_overflows;
                outcome.proven_safe_overflow_signatures =
                    csod.proven_safe_overflow_signatures().to_vec();
                outcome.frees_fast_filtered = stats.frees_fast_filtered;
                outcome.teardowns_batched = stats.watch.teardowns_batched;
                outcome.stale_traps_suppressed = stats.stale_traps_suppressed;
                outcome.context_watch_counts = csod
                    .sampling()
                    .snapshot()
                    .into_iter()
                    .map(|(key, state)| (key, state.watch_count))
                    .collect();
                outcome.reports = csod
                    .reports()
                    .iter()
                    .map(|r| r.render(csod.frames()))
                    .collect();
                outcome.unique_report_contexts = csod.unique_report_contexts();
                outcome.duplicate_reports =
                    (csod.reports().len() - outcome.unique_report_contexts) as u64;
                let trace = csod.drain_trace();
                outcome.trace_events = trace.events.len() as u64;
                outcome.trace_dropped = trace.dropped;
                outcome.trace_counts = trace.counts();
            }
            ToolState::Asan(asan) => {
                asan.finish(&mut self.machine, &mut self.heap);
                outcome.detected = asan.detected();
                outcome.allocations = asan.stats().allocations;
                outcome.tool_extra_kb = asan.peak_shadow_bytes() / 1024;
                outcome.reports = asan.reports().iter().map(ToString::to_string).collect();
            }
            ToolState::Sampler(sampler) => {
                sampler.finish(&mut self.machine);
                outcome.detected = sampler.detected();
                outcome.allocations = sampler.stats().allocations;
                outcome.reports = sampler.reports().iter().map(ToString::to_string).collect();
            }
        }
        if outcome.allocations == 0 {
            outcome.allocations = self.heap.stats().allocs;
        }
        let counter = self.machine.counter();
        outcome.overhead = counter.normalized_overhead();
        outcome.total_ns = counter.total_ns();
        outcome.app_ns = counter.app_ns();
        outcome.tool_ns = counter.tool_ns();
        outcome.io_ns = counter.io_ns();
        outcome.syscalls = counter.syscalls();
        outcome.peak_heap_kb = self.heap.stats().peak_in_use_bytes / 1024;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csod_ctx::FrameTable;

    fn registry() -> SiteRegistry {
        let mut reg = SiteRegistry::new("demo", Arc::new(FrameTable::new()));
        reg.add_alloc_sites(4);
        reg.add_access_site("demo", "use.c:10");
        reg.add_access_site("libfoo.so", "foo.c:99");
        reg
    }

    fn bug_trace(site: SiteToken, kind: AccessKind) -> Vec<Event> {
        vec![
            Event::malloc(0, 64, 0),
            Event::access(0, 0, 8, AccessKind::Write, site),
            Event::overflow(0, kind, site),
            Event::free(0),
        ]
    }

    #[test]
    fn baseline_detects_nothing_and_has_unit_overhead() {
        let reg = registry();
        let outcome = TraceRunner::new(&reg, ToolSpec::Baseline)
            .run(bug_trace(SiteToken(0), AccessKind::Write));
        assert!(!outcome.detected);
        assert_eq!(outcome.overhead, 1.0);
        assert_eq!(outcome.tool_ns, 0);
        assert_eq!(outcome.allocations, 1);
    }

    #[test]
    fn csod_detects_the_watched_overflow() {
        let reg = registry();
        let outcome = TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::default()))
            .run(bug_trace(SiteToken(0), AccessKind::Read));
        assert!(outcome.detected);
        assert!(outcome.watchpoint_detected);
        assert_eq!(outcome.watched_times, 1);
        assert!(outcome.overhead > 1.0);
        assert!(outcome.reports[0].contains("over-read"));
        assert!(outcome.reports[0].contains("use.c:10"));
    }

    #[test]
    fn asan_detects_only_in_instrumented_modules() {
        let reg = registry();
        let spec = || ToolSpec::Asan {
            config: AsanConfig::default(),
            instrumented: vec!["demo".into()],
        };
        // Overflow from instrumented module: detected.
        let outcome =
            TraceRunner::new(&reg, spec()).run(bug_trace(SiteToken(0), AccessKind::Write));
        assert!(outcome.detected);
        // Same overflow performed inside libfoo.so: missed.
        let outcome =
            TraceRunner::new(&reg, spec()).run(bug_trace(SiteToken(1), AccessKind::Write));
        assert!(!outcome.detected);
    }

    #[test]
    fn evidence_detects_unwatched_overwrite() {
        let reg = registry();
        // Fill all four watchpoints with other contexts first, then
        // overflow an unwatched object; the canary catches it at free.
        let mut trace = Vec::new();
        for i in 0..4 {
            trace.push(Event::malloc(i, 32, i));
        }
        // Use a distinct context? Only 4 sites; reuse site 3 so its
        // probability halves and the new object is likely unwatched.
        trace.push(Event::malloc(3, 32, 5));
        trace.push(Event::overflow(5, AccessKind::Write, SiteToken(0)));
        trace.push(Event::free(5));
        let outcome = TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::default())).run(trace);
        assert!(outcome.detected);
    }

    #[test]
    fn accesses_are_clamped_in_bounds() {
        let reg = registry();
        let trace = vec![
            Event::malloc(0, 16, 0),
            // Deliberately out-of-range intent: clamped, so no report.
            Event::access(0, 120, 64, AccessKind::Read, SiteToken(0)),
        ];
        let outcome = TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::default())).run(trace);
        assert!(!outcome.detected);
    }

    #[test]
    fn empty_slots_are_ignored() {
        let reg = registry();
        let trace = vec![
            Event::free(3),
            Event::access(9, 0, 8, AccessKind::Read, SiteToken(0)),
            Event::overflow(2, AccessKind::Write, SiteToken(0)),
        ];
        let outcome = TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::default())).run(trace);
        assert!(!outcome.detected);
        assert_eq!(outcome.allocations, 0);
    }

    /// Two threads hammering their own long-lived buffer with runs of
    /// in-bounds reads, then thread 1 overflowing its buffer.
    fn server_trace() -> Vec<Event> {
        let mut trace = vec![
            Event::SpawnThread,
            Event::malloc(0, 512, 0),
            Event::malloc(1, 512, 1),
        ];
        for i in 0..64 {
            let thread = (i % 2) as u8;
            for w in 0..6 {
                trace.push(Event::Access {
                    thread,
                    slot: usize::from(thread),
                    offset: w * 64,
                    len: 8,
                    kind: AccessKind::Read,
                    site: SiteToken(0),
                });
            }
        }
        trace.push(Event::OverflowAccess {
            thread: 1,
            slot: 1,
            kind: AccessKind::Write,
            site: SiteToken(0),
        });
        trace.push(Event::free(0));
        trace.push(Event::free(1));
        trace
    }

    #[test]
    fn threads_round_trip() {
        let reg = registry();
        let trace = vec![
            Event::SpawnThread,
            Event::Malloc {
                thread: 1,
                site: 0,
                size: 64,
                slot: 0,
            },
            Event::OverflowAccess {
                thread: 1,
                slot: 0,
                kind: AccessKind::Write,
                site: SiteToken(0),
            },
        ];
        let outcome = TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::default())).run(trace);
        assert!(outcome.detected);
        // Every tool catches the overflow a worker thread plants after a
        // long run of in-bounds traffic.
        let tools = [
            ToolSpec::Csod(CsodConfig::default()),
            ToolSpec::Asan {
                config: AsanConfig::default(),
                instrumented: vec!["demo".into()],
            },
            ToolSpec::Sampler(SamplerConfig {
                sample_period: 1,
                ..SamplerConfig::default()
            }),
        ];
        for tool in tools {
            let label = tool.label();
            assert!(
                TraceRunner::new(&reg, tool).run(server_trace()).detected,
                "{label}"
            );
        }
    }

    #[test]
    fn io_wait_dilutes_overhead() {
        let reg = registry();
        let cpu_trace = vec![Event::malloc(0, 64, 0), Event::free(0)];
        let io_trace = vec![
            Event::malloc(0, 64, 0),
            Event::free(0),
            Event::IoWait { ns: 100_000_000 },
        ];
        let cpu = TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::default())).run(cpu_trace);
        let io = TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::default())).run(io_trace);
        assert!(io.overhead < cpu.overhead);
    }

    #[test]
    fn use_after_free_visibility_per_tool() {
        use sampler_sim::SamplerConfig;
        let reg = registry();
        let uaf_trace = || {
            vec![
                Event::malloc(0, 64, 0),
                Event::free(0),
                Event::DanglingAccess {
                    thread: 0,
                    slot: 0,
                    offset: 8,
                    kind: AccessKind::Read,
                    site: SiteToken(0),
                },
            ]
        };
        // ASan: quarantined memory stays poisoned -> detected.
        let asan = TraceRunner::new(
            &reg,
            ToolSpec::Asan {
                config: AsanConfig::default(),
                instrumented: vec!["demo".into()],
            },
        )
        .run(uaf_trace());
        assert!(asan.detected, "ASan sees the UAF");
        assert!(asan.reports[0].contains("use-after-free"));
        // Sampler (period 1): freed-object tracking -> detected.
        let sampler = TraceRunner::new(
            &reg,
            ToolSpec::Sampler(SamplerConfig {
                sample_period: 1,
                ..SamplerConfig::default()
            }),
        )
        .run(uaf_trace());
        assert!(sampler.detected, "Sampler sees the UAF");
        // CSOD: watchpoint removed at free; UAF is out of scope.
        let csod = TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::default())).run(uaf_trace());
        assert!(
            !csod.detected,
            "UAF is outside CSOD's scope (paper Section I)"
        );
    }

    #[test]
    fn run_outcome_carries_trace_summary() {
        let reg = registry();
        let outcome = TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::default()))
            .run(bug_trace(SiteToken(0), AccessKind::Write));
        assert!(outcome.trace_events > 0);
        let kinds: Vec<_> = outcome.trace_counts.iter().map(|(k, _)| *k).collect();
        assert!(kinds.contains(&TraceEventKind::AllocSampled));
        assert!(kinds.contains(&TraceEventKind::WatchInstalled));
        assert!(kinds.contains(&TraceEventKind::TrapFired));
    }

    #[test]
    fn labels_distinguish_configurations() {
        assert_eq!(ToolSpec::Baseline.label(), "baseline");
        assert_eq!(ToolSpec::Csod(CsodConfig::default()).label(), "csod");
        assert_eq!(
            ToolSpec::Csod(CsodConfig::without_evidence()).label(),
            "csod-no-evidence"
        );
    }
}
