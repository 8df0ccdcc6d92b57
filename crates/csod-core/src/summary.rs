//! End-of-run summaries.
//!
//! Production detectors print a closing statistics block so operators
//! can see what the always-on tool did (and what it cost). CSOD's
//! summary collects the counters the paper's evaluation reports —
//! allocations, distinct contexts, watched times, traps, canary
//! evidence — plus the machine's overhead accounting.

use crate::runtime::Csod;
use sim_machine::Machine;
use std::fmt;

/// A snapshot of everything an operator wants to know at exit.
///
/// # Examples
///
/// ```
/// use csod_core::{Csod, CsodConfig, RunSummary};
/// use csod_ctx::FrameTable;
/// use sim_heap::{HeapConfig, SimHeap};
/// use sim_machine::Machine;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut machine = Machine::new();
/// let _heap = SimHeap::new(&mut machine, HeapConfig::default())?;
/// let mut csod = Csod::new(CsodConfig::default(), Arc::new(FrameTable::new()));
/// csod.finish(&mut machine);
/// let summary = RunSummary::collect(&csod, &machine);
/// assert_eq!(summary.allocations, 0);
/// println!("{summary}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Allocations interposed.
    pub allocations: u64,
    /// Deallocations interposed.
    pub frees: u64,
    /// Distinct allocation calling contexts observed.
    pub contexts: usize,
    /// Objects ever watched (Table IV "WT").
    pub watched_times: u64,
    /// Watchpoint replacements performed.
    pub replacements: u64,
    /// Watch candidates rejected by the policy.
    pub rejected: u64,
    /// Watchpoint traps delivered.
    pub traps: u64,
    /// Corrupted canaries found at deallocation.
    pub canary_free_hits: u64,
    /// Corrupted canaries found by the termination sweep.
    pub canary_exit_hits: u64,
    /// Overflow reports produced.
    pub reports: usize,
    /// Reports beyond the first for their allocation-context signature —
    /// the same bug rediscovered via another overflow site or thread.
    pub duplicate_reports: u64,
    /// Contexts with persisted overflow evidence.
    pub evidence_contexts: usize,
    /// Watchpoint installs the backend refused.
    pub install_failures: u64,
    /// Install retries attempted after backend failures.
    pub install_retries: u64,
    /// Transitions into canary-only detection.
    pub degradations: u64,
    /// Transitions back to watchpoint detection.
    pub recoveries: u64,
    /// Contexts quarantined at collection time.
    pub quarantined_contexts: usize,
    /// Whether the run ended in canary-only mode (backend still down).
    pub canary_only: bool,
    /// Allocations from contexts the static pre-analysis proved safe.
    pub proven_safe_allocs: u64,
    /// Watchpoint installs spent on proven-safe contexts.
    pub proven_safe_installs: u64,
    /// Watchpoint installs spent on statically suspicious contexts.
    pub suspicious_installs: u64,
    /// Availability bypasses denied on proven-safe contexts — watch
    /// slots the static priors saved outright.
    pub prior_availability_skips: u64,
    /// Soundness counter: overflows from proven-safe contexts. Anything
    /// but zero is an analyzer bug.
    pub proven_safe_overflows: u64,
    /// Frees the watched-address filter proved unwatched, skipping the
    /// slot scan and retry-cancel entirely.
    pub frees_fast_filtered: u64,
    /// Figure-4 teardowns paid through batched drains off the free path.
    pub teardowns_batched: u64,
    /// Stale traps drained after logical removal — counted, never
    /// reported.
    pub stale_traps_suppressed: u64,
    /// Contexts confirmed overflowing and enrolled in the mitigation
    /// policy (hardened allocations + free quarantine).
    pub contexts_mitigated: u64,
    /// Context records recovered from the persistence WAL at startup.
    pub wal_records_recovered: u64,
    /// WAL records skipped during recovery because their checksum or
    /// framing was corrupt.
    pub wal_records_skipped_corrupt: u64,
    /// Startup WAL reads satisfied by batched fleet recovery instead of
    /// a per-process re-open + re-scan — read syscalls saved.
    pub wal_reads_batched: u64,
    /// Report lines whose durable sync happened only on sink drop —
    /// the crash-salvage path, zero on clean runs.
    pub reports_flushed_on_drop: u64,
    /// System calls the tool issued.
    pub syscalls: u64,
    /// Normalized overhead of the run so far (Figure 7 metric).
    pub overhead: f64,
}

impl RunSummary {
    /// Collects the summary from a runtime and its machine.
    pub fn collect(csod: &Csod, machine: &Machine) -> RunSummary {
        let stats = csod.stats();
        let wp = csod.watchpoint_stats();
        RunSummary {
            allocations: stats.allocations,
            frees: stats.frees,
            contexts: csod.distinct_contexts(),
            watched_times: wp.installs,
            replacements: wp.replacements,
            rejected: wp.rejected,
            traps: stats.traps,
            canary_free_hits: stats.canary_free_hits,
            canary_exit_hits: stats.canary_exit_hits,
            reports: csod.reports().len(),
            duplicate_reports: {
                let mut signatures = std::collections::BTreeSet::new();
                for report in csod.reports() {
                    signatures.insert(report.alloc_context.signature(csod.frames()));
                }
                (csod.reports().len() - signatures.len()) as u64
            },
            evidence_contexts: csod.evidence().len(),
            install_failures: stats.install_failures,
            install_retries: stats.install_retries,
            degradations: stats.degradations,
            recoveries: stats.recoveries,
            quarantined_contexts: csod.quarantined_contexts(machine),
            canary_only: csod.detection_mode() == crate::DetectionMode::CanaryOnly,
            proven_safe_allocs: stats.proven_safe_allocs,
            proven_safe_installs: stats.proven_safe_installs,
            suspicious_installs: stats.suspicious_installs,
            prior_availability_skips: stats.prior_availability_skips,
            proven_safe_overflows: stats.proven_safe_overflows,
            frees_fast_filtered: stats.frees_fast_filtered,
            teardowns_batched: stats.teardowns_batched,
            stale_traps_suppressed: stats.stale_traps_suppressed,
            contexts_mitigated: stats.contexts_mitigated,
            wal_records_recovered: stats.wal_records_recovered,
            wal_records_skipped_corrupt: stats.wal_records_skipped_corrupt,
            wal_reads_batched: stats.wal_reads_batched,
            reports_flushed_on_drop: stats.reports_flushed_on_drop,
            syscalls: machine.counter().syscalls(),
            overhead: machine.counter().normalized_overhead(),
        }
    }

    /// Whether the run found any overflow by any mechanism.
    pub fn found_overflows(&self) -> bool {
        self.reports > 0
    }

    /// Whether persistence or mitigation left any trace in this run.
    pub fn durability_used(&self) -> bool {
        self.contexts_mitigated > 0
            || self.wal_records_recovered > 0
            || self.wal_records_skipped_corrupt > 0
            || self.wal_reads_batched > 0
            || self.reports_flushed_on_drop > 0
    }

    /// Whether static priors left any trace in this run.
    pub fn prior_used(&self) -> bool {
        self.proven_safe_allocs > 0
            || self.proven_safe_installs > 0
            || self.suspicious_installs > 0
            || self.prior_availability_skips > 0
            || self.proven_safe_overflows > 0
    }
}

impl fmt::Display for RunSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "==== CSOD run summary ====")?;
        writeln!(
            f,
            "allocations: {} ({} freed), contexts: {}",
            self.allocations, self.frees, self.contexts
        )?;
        writeln!(
            f,
            "watched: {} object(s) ({} replacements, {} rejected candidates)",
            self.watched_times, self.replacements, self.rejected
        )?;
        writeln!(
            f,
            "detections: {} trap(s), {} canary hit(s) at free, {} at exit -> {} report(s) ({} duplicate(s))",
            self.traps,
            self.canary_free_hits,
            self.canary_exit_hits,
            self.reports,
            self.duplicate_reports
        )?;
        writeln!(
            f,
            "evidence store: {} context(s) with observed overflows",
            self.evidence_contexts
        )?;
        writeln!(
            f,
            "health: {} failed install(s), {} retried, {} degradation(s), {} recover(ies), {} quarantined, mode: {}",
            self.install_failures,
            self.install_retries,
            self.degradations,
            self.recoveries,
            self.quarantined_contexts,
            if self.canary_only { "canary-only" } else { "watchpoints" }
        )?;
        writeln!(
            f,
            "free path: {} filtered free(s), {} batched teardown(s), {} stale trap(s) suppressed",
            self.frees_fast_filtered, self.teardowns_batched, self.stale_traps_suppressed
        )?;
        if self.durability_used() {
            writeln!(
                f,
                "durability: {} context(s) mitigated, {} WAL record(s) recovered ({} corrupt skipped, {} read(s) batched), {} report line(s) salvaged on drop",
                self.contexts_mitigated,
                self.wal_records_recovered,
                self.wal_records_skipped_corrupt,
                self.wal_reads_batched,
                self.reports_flushed_on_drop
            )?;
        }
        if self.prior_used() {
            writeln!(
                f,
                "priors: {} proven-safe alloc(s), {} install(s) on proven-safe, {} on suspicious, {} slot(s) saved, {} soundness violation(s)",
                self.proven_safe_allocs,
                self.proven_safe_installs,
                self.suspicious_installs,
                self.prior_availability_skips,
                self.proven_safe_overflows
            )?;
        }
        write!(
            f,
            "cost: {} syscall(s), normalized overhead {:.3}",
            self.syscalls, self.overhead
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CsodConfig;
    use csod_ctx::{CallingContext, ContextKey, FrameTable};
    use sim_heap::{HeapConfig, SimHeap};
    use sim_machine::ThreadId;
    use std::sync::Arc;

    #[test]
    fn summary_reflects_a_detecting_run() {
        let frames = Arc::new(FrameTable::new());
        let mut machine = Machine::new();
        let mut heap = SimHeap::new(&mut machine, HeapConfig::default()).unwrap();
        let mut csod = Csod::new(CsodConfig::default(), Arc::clone(&frames));
        let ctx = CallingContext::from_locations(&frames, ["s.c:1", "main.c:1"]);
        let key = ContextKey::new(frames.intern("s.c:1"), 0x40);
        let p = csod
            .malloc(&mut machine, &mut heap, ThreadId::MAIN, 32, key, &ctx)
            .unwrap();
        machine.app_write(ThreadId::MAIN, p + 32, 8).unwrap();
        csod.poll(&mut machine);
        csod.finish(&mut machine);

        let summary = RunSummary::collect(&csod, &machine);
        assert_eq!(summary.allocations, 1);
        assert_eq!(summary.contexts, 1);
        assert_eq!(summary.watched_times, 1);
        assert_eq!(summary.traps, 1);
        assert!(summary.found_overflows());
        // The over-write also corrupted the canary; the exit sweep saw it.
        assert_eq!(summary.canary_exit_hits, 1);
        assert_eq!(summary.evidence_contexts, 1);
        assert!(summary.overhead > 1.0);

        let text = summary.to_string();
        assert!(text.contains("CSOD run summary"));
        assert!(text.contains("watched: 1 object(s)"));
        assert!(text.contains("1 trap(s)"));
    }

    #[test]
    fn summary_of_empty_run_is_quiet() {
        let frames = Arc::new(FrameTable::new());
        let mut machine = Machine::new();
        let mut csod = Csod::new(CsodConfig::default(), frames);
        csod.finish(&mut machine);
        let summary = RunSummary::collect(&csod, &machine);
        assert!(!summary.found_overflows());
        assert_eq!(summary.allocations, 0);
        assert_eq!(summary.syscalls, 0);
    }
}
