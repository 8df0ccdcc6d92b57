//! Deterministic fault injection for the machine's tool-facing surfaces.
//!
//! A production `LD_PRELOAD` detector must survive hostile environments:
//! `perf_event_open` returning `EBUSY`/`ENOSPC`, debug registers stolen
//! by a co-resident debugger, lost or delayed SIGTRAPs, and allocator
//! pressure. A [`FaultPlan`] injects exactly those failures into a
//! [`Machine`](crate::Machine) — probability-driven (seeded, so every
//! run reproduces) and schedule-driven (busy windows on virtual time) —
//! so tests and workloads can turn the screws on the tool under test.
//!
//! ```
//! use sim_machine::{FaultPlan, Machine, PerfEventAttr, ThreadId, VirtAddr};
//!
//! let mut m = Machine::new();
//! m.map_region(VirtAddr::new(0x10_0000), 4096, "heap").unwrap();
//! // Fail 30% of perf syscalls and drop 10% of SIGTRAPs.
//! m.install_fault_plan(
//!     FaultPlan::new(42)
//!         .perf_failures_ppm(300_000)
//!         .signal_drops_ppm(100_000),
//! );
//! // Some of these opens now fail with EBUSY/ENOSPC.
//! let mut failures = 0;
//! for _ in 0..100 {
//!     let attr = PerfEventAttr::rw_word(VirtAddr::new(0x10_0000));
//!     match m.sys_perf_event_open(attr, ThreadId::MAIN) {
//!         Ok(fd) => m.sys_close(fd).unwrap_or(()),
//!         Err(_) => failures += 1,
//!     }
//! }
//! assert!(failures > 0);
//! ```

use crate::clock::{VirtDuration, VirtInstant};
use crate::perf::PerfError;
use crate::thread::ThreadId;

/// Parts per million — the probability scale used throughout the plan.
const PPM: u64 = 1_000_000;

/// Counters of every fault the plan actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// `perf_event_open` calls failed with `EBUSY`/`ENOSPC`.
    pub open_failures: u64,
    /// `fcntl` calls failed with `EINTR`.
    pub fcntl_failures: u64,
    /// `ioctl` calls failed with `EINTR`.
    pub ioctl_failures: u64,
    /// `close` calls that reported `EINTR` (the descriptor still closed,
    /// as on Linux).
    pub close_failures: u64,
    /// Opens rejected because a busy window marked the registers stolen.
    pub busy_rejections: u64,
    /// SIGTRAPs silently dropped.
    pub dropped_signals: u64,
    /// SIGTRAPs whose delivery was postponed.
    pub delayed_signals: u64,
    /// Heap allocations forced to fail.
    pub alloc_failures: u64,
    /// Process kills fired (the workload was told to die mid-run).
    pub process_kills: u64,
}

impl FaultStats {
    /// Total injected perf-syscall failures across all four calls.
    pub fn perf_failures(&self) -> u64 {
        self.open_failures + self.fcntl_failures + self.ioctl_failures + self.close_failures
    }
}

/// A seeded, deterministic fault-injection plan.
///
/// All probabilities are in parts per million and default to zero, so a
/// fresh plan injects nothing until the builder methods turn knobs.
/// Decisions are drawn from a SplitMix64 stream seeded at construction:
/// the same plan against the same workload injects the same faults.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    state: u64,
    /// Failure probability of each perf syscall (`open`/`fcntl`/`ioctl`/
    /// `close`), drawn independently per call.
    perf_fail_ppm: u32,
    drop_signal_ppm: u32,
    delay_signal_ppm: u32,
    signal_delay: VirtDuration,
    alloc_fail_ppm: u32,
    kill_ppm: u32,
    /// Half-open windows of virtual time during which every open fails
    /// with `EBUSY` — a co-resident debugger holding the registers.
    busy_windows: Vec<(VirtInstant, VirtInstant)>,
    stats: FaultStats,
}

impl FaultPlan {
    /// A plan that injects nothing, with the given decision-stream seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            // Mix the seed so seeds 0 and 1 do not produce nearby streams.
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
            perf_fail_ppm: 0,
            drop_signal_ppm: 0,
            delay_signal_ppm: 0,
            signal_delay: VirtDuration::from_micros(100),
            alloc_fail_ppm: 0,
            kill_ppm: 0,
            busy_windows: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    // ----- builder knobs -----------------------------------------------------

    /// Fails every perf syscall with the given probability:
    /// `perf_event_open` with `EBUSY` or `ENOSPC`, `fcntl` and `ioctl`
    /// with `EINTR`, and `close` reports `EINTR`. As on Linux, a failed
    /// close still releases the descriptor — retrying it would be the
    /// bug.
    pub fn perf_failures_ppm(mut self, ppm: u32) -> Self {
        self.perf_fail_ppm = ppm;
        self
    }

    /// Silently drops watchpoint signals at the given probability.
    pub fn signal_drops_ppm(mut self, ppm: u32) -> Self {
        self.drop_signal_ppm = ppm;
        self
    }

    /// Postpones watchpoint-signal delivery by `delay` at the given
    /// probability (the signal arrives once virtual time passes the due
    /// point).
    pub fn signal_delays_ppm(mut self, ppm: u32, delay: VirtDuration) -> Self {
        self.delay_signal_ppm = ppm;
        self.signal_delay = delay;
        self
    }

    /// Fails heap allocations at the given probability (allocator
    /// pressure).
    pub fn alloc_failures_ppm(mut self, ppm: u32) -> Self {
        self.alloc_fail_ppm = ppm;
        self
    }

    /// Kills the process at the given probability per kill checkpoint.
    /// Unlike the other knobs this one does not fail a syscall — it tells
    /// the *workload driver* to abandon the run on the spot, simulating
    /// `SIGKILL` / power loss: no `finish()`, no flush, no compaction.
    pub fn process_kills_ppm(mut self, ppm: u32) -> Self {
        self.kill_ppm = ppm;
        self
    }

    /// Marks the debug registers as stolen during `[from, until)`: every
    /// open in the window fails with `EBUSY` regardless of probability.
    pub fn registers_busy_between(mut self, from: VirtInstant, until: VirtInstant) -> Self {
        self.busy_windows.push((from, until));
        self
    }

    // ----- introspection -----------------------------------------------------

    /// Counters of faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Whether `now` falls inside a registers-stolen window.
    fn registers_busy_at(&self, now: VirtInstant) -> bool {
        self.busy_windows
            .iter()
            .any(|&(from, until)| now >= from && now < until)
    }

    // ----- decision points (called by the machine) ---------------------------

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn chance(&mut self, ppm: u32) -> bool {
        ppm > 0 && self.next_u64() % PPM < u64::from(ppm)
    }

    pub(crate) fn fail_open(&mut self, now: VirtInstant, tid: ThreadId) -> Option<PerfError> {
        if self.registers_busy_at(now) {
            self.stats.busy_rejections += 1;
            self.stats.open_failures += 1;
            return Some(PerfError::DeviceBusy(tid));
        }
        if self.chance(self.perf_fail_ppm) {
            self.stats.open_failures += 1;
            // Real deployments see both errnos; alternate deterministically.
            return Some(if self.next_u64() & 1 == 0 {
                PerfError::DeviceBusy(tid)
            } else {
                PerfError::NoSpace
            });
        }
        None
    }

    pub(crate) fn fail_fcntl(&mut self) -> Option<PerfError> {
        if self.chance(self.perf_fail_ppm) {
            self.stats.fcntl_failures += 1;
            return Some(PerfError::Interrupted);
        }
        None
    }

    pub(crate) fn fail_ioctl(&mut self) -> Option<PerfError> {
        if self.chance(self.perf_fail_ppm) {
            self.stats.ioctl_failures += 1;
            return Some(PerfError::Interrupted);
        }
        None
    }

    pub(crate) fn fail_close(&mut self) -> bool {
        if self.chance(self.perf_fail_ppm) {
            self.stats.close_failures += 1;
            return true;
        }
        false
    }

    pub(crate) fn drop_signal(&mut self) -> bool {
        if self.chance(self.drop_signal_ppm) {
            self.stats.dropped_signals += 1;
            return true;
        }
        false
    }

    pub(crate) fn delay_signal(&mut self) -> Option<VirtDuration> {
        if self.chance(self.delay_signal_ppm) {
            self.stats.delayed_signals += 1;
            return Some(self.signal_delay);
        }
        None
    }

    pub(crate) fn fail_alloc(&mut self) -> bool {
        if self.chance(self.alloc_fail_ppm) {
            self.stats.alloc_failures += 1;
            return true;
        }
        false
    }

    pub(crate) fn should_kill(&mut self) -> bool {
        if self.chance(self.kill_ppm) {
            self.stats.process_kills += 1;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_plan_injects_nothing() {
        let mut p = FaultPlan::new(1);
        for _ in 0..1_000 {
            assert!(p.fail_open(VirtInstant::BOOT, ThreadId::MAIN).is_none());
            assert!(p.fail_fcntl().is_none());
            assert!(!p.fail_close());
            assert!(!p.drop_signal());
            assert!(!p.fail_alloc());
            assert!(!p.should_kill());
        }
        assert_eq!(p.stats(), FaultStats::default());
    }

    #[test]
    fn kill_checkpoints_fire_near_their_rate_and_count() {
        let mut p = FaultPlan::new(11).process_kills_ppm(100_000);
        let mut kills = 0;
        for _ in 0..10_000 {
            if p.should_kill() {
                kills += 1;
            }
        }
        assert!((700..1_300).contains(&kills), "got {kills}/10000");
        assert_eq!(p.stats().process_kills, kills);
    }

    #[test]
    fn probabilities_hit_near_their_rate() {
        let mut p = FaultPlan::new(7).perf_failures_ppm(300_000);
        let mut failures = 0;
        for _ in 0..10_000 {
            if p.fail_open(VirtInstant::BOOT, ThreadId::MAIN).is_some() {
                failures += 1;
            }
        }
        assert!((2_500..3_500).contains(&failures), "got {failures}/10000");
        assert_eq!(p.stats().open_failures, failures);
    }

    #[test]
    fn same_seed_same_decisions() {
        let mut a = FaultPlan::new(9).perf_failures_ppm(500_000);
        let mut b = FaultPlan::new(9).perf_failures_ppm(500_000);
        for _ in 0..100 {
            assert_eq!(
                a.fail_open(VirtInstant::BOOT, ThreadId::MAIN),
                b.fail_open(VirtInstant::BOOT, ThreadId::MAIN)
            );
        }
    }

    #[test]
    fn busy_window_rejects_every_open() {
        let from = VirtInstant::BOOT + VirtDuration::from_secs(1);
        let until = VirtInstant::BOOT + VirtDuration::from_secs(2);
        let mut p = FaultPlan::new(3).registers_busy_between(from, until);
        assert!(p.fail_open(VirtInstant::BOOT, ThreadId::MAIN).is_none());
        assert_eq!(
            p.fail_open(from, ThreadId::MAIN),
            Some(PerfError::DeviceBusy(ThreadId::MAIN))
        );
        assert!(
            p.fail_open(until, ThreadId::MAIN).is_none(),
            "window is half-open"
        );
        assert_eq!(p.stats().busy_rejections, 1);
        assert!(p.registers_busy_at(from));
        assert!(!p.registers_busy_at(until));
    }

    #[test]
    fn signal_delay_reports_the_configured_duration() {
        let d = VirtDuration::from_millis(5);
        let mut p = FaultPlan::new(4).signal_delays_ppm(1_000_000, d);
        assert_eq!(p.delay_signal(), Some(d));
        assert_eq!(p.stats().delayed_signals, 1);
    }
}
