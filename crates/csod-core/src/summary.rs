//! End-of-run summaries.
//!
//! Production detectors print a closing statistics block so operators
//! can see what the always-on tool did (and what it cost). CSOD's
//! summary carries the run's [`CsodStats`] — allocations, watched
//! times, traps, canary evidence — plus the few values derived from the
//! reports, the sampling table and the machine's overhead accounting.
//! Its text prints each counter from its [`CsodStats::COUNTERS`] row.

use crate::runtime::{Csod, CsodStats};
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
/// assert_eq!(summary.stats.allocations, 0);
/// println!("{summary}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Every counter of the run.
    pub stats: CsodStats,
    /// Distinct allocation calling contexts observed.
    pub contexts: usize,
    /// Overflow reports produced.
    pub reports: usize,
    /// Reports beyond the first for their allocation-context signature —
    /// the same bug rediscovered via another overflow site or thread.
    pub duplicate_reports: u64,
    /// Contexts quarantined at collection time.
    pub quarantined_contexts: usize,
    /// Whether the run ended in canary-only mode (backend still down).
    pub canary_only: bool,
    /// System calls the tool issued.
    pub syscalls: u64,
    /// Normalized overhead of the run so far (Figure 7 metric).
    pub overhead: f64,
}

impl RunSummary {
    /// Collects the summary from a runtime and its machine.
    pub fn collect(csod: &Csod, machine: &Machine) -> RunSummary {
        let reports = csod.reports().len();
        RunSummary {
            stats: csod.stats(),
            contexts: csod.distinct_contexts(),
            reports,
            duplicate_reports: (reports - csod.unique_report_contexts()) as u64,
            quarantined_contexts: csod.quarantined_contexts(machine),
            canary_only: csod.detection_mode() == crate::DetectionMode::CanaryOnly,
            syscalls: machine.counter().syscalls(),
            overhead: machine.counter().normalized_overhead(),
        }
    }
}

/// The summary's counter groups, in print order. Each counter prints
/// under the group and label of its [`CsodStats::COUNTERS`] row.
const GROUPS: [&str; 8] = [
    "allocations",
    "watched",
    "detections",
    "health",
    "free path",
    "durability",
    "priors",
    "cache",
];

impl fmt::Display for RunSummary {
    /// A header line of the derived values, one line per group with any
    /// nonzero counter, and a cost line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "==== CSOD run summary ====")?;
        writeln!(
            f,
            "run: {} context(s) ({} quarantined), {} report(s) ({} duplicate(s)), mode: {}",
            self.contexts,
            self.quarantined_contexts,
            self.reports,
            self.duplicate_reports,
            if self.canary_only {
                "canary-only"
            } else {
                "watchpoints"
            }
        )?;
        for group in GROUPS {
            let cells: Vec<(u64, &str)> = CsodStats::COUNTERS
                .iter()
                .filter(|(_, _, g, _)| *g == group)
                .map(|&(_, read, _, label)| (read(&self.stats), label))
                .collect();
            if cells.iter().all(|&(value, _)| value == 0) {
                continue;
            }
            write!(f, "{group}:")?;
            for (i, (value, label)) in cells.iter().enumerate() {
                write!(f, "{} {value} {label}", if i == 0 { "" } else { "," })?;
            }
            writeln!(f)?;
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
        assert_eq!(summary.stats.allocations, 1);
        assert_eq!(summary.contexts, 1);
        assert_eq!(summary.stats.watch.installs, 1);
        assert_eq!(summary.stats.traps, 1);
        assert!(summary.reports > 0);
        // The over-write also corrupted the canary; the exit sweep saw it.
        assert_eq!(summary.stats.canary_exit_hits, 1);
        assert_eq!(summary.stats.contexts_mitigated, 1);
        assert!(summary.overhead > 1.0);

        let text = summary.to_string();
        assert!(text.contains("CSOD run summary"));
        assert!(text.contains("watched: 1 object(s), 0 replacement(s)"));
        assert!(text.contains("detections: 1 watchpoint trap(s)"));
    }

    #[test]
    fn summary_of_empty_run_is_quiet() {
        let frames = Arc::new(FrameTable::new());
        let mut machine = Machine::new();
        let mut csod = Csod::new(CsodConfig::default(), frames);
        csod.finish(&mut machine);
        let summary = RunSummary::collect(&csod, &machine);
        assert_eq!(summary.reports, 0);
        assert_eq!(summary.stats.allocations, 0);
        assert_eq!(summary.syscalls, 0);

        let text = summary.to_string();
        for group in ["durability:", "priors:", "health:", "cache:"] {
            assert!(!text.contains(group), "{group} printed for an empty run");
        }
    }
}
