//! # sampler-sim — the Sampler (MICRO'18) baseline
//!
//! The CSOD paper discusses one piece of concurrent work in depth
//! (Section VII): *Sampler* (Silvestro et al., MICRO'18), which
//! "utilizes PMU-based memory access sampling to detect buffer overflows
//! and use-after-frees, with similar overhead to that of CSOD. However,
//! Sampler requires a custom memory allocator, and change of the
//! underlying OS."
//!
//! This crate models that design so the two sampling philosophies can be
//! compared head-to-head:
//!
//! * the **OS change**: the machine's PMU samples every Nth application
//!   memory access ([`Machine::pmu_enable`]);
//! * the **custom allocator**: every object is padded with a guard zone
//!   and its bounds are tracked in an interval map, so a sampled address
//!   can be classified as in-bounds, guard-zone (overflow!), or freed
//!   (use-after-free);
//! * detection is probabilistic per *access*: an overflow is caught only
//!   if one of its accesses happens to be sampled — whereas CSOD is
//!   probabilistic per *object* and certain once the object is watched.
//!
//! [`Machine::pmu_enable`]: sim_machine::Machine::pmu_enable

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use sim_heap::{HeapError, SimHeap};
use sim_machine::{AccessKind, CostDomain, Machine, SiteToken, ThreadId, VirtAddr};
use std::collections::BTreeMap;
use std::fmt;

/// Guard-zone bytes the custom allocator appends to every object.
pub const GUARD_BYTES: u64 = 16;

/// Sampler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Sample every Nth memory access. MICRO'18 tunes this so the
    /// overhead lands near CSOD's; the default does the same under this
    /// repository's cost model.
    pub sample_period: u64,
    /// Initial sampling phase (PMUs randomize the first sample point to
    /// avoid aliasing); vary per run for statistical experiments.
    pub phase: u64,
    /// How many freed objects stay classified as "freed" before their
    /// metadata is recycled (a small quarantine, needed for
    /// use-after-free classification).
    pub freed_tracking: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            // Tied to the shared paper constants rather than restated:
            // one sample per fifth of CSOD's burst-window allocation
            // budget lands Sampler's overhead near CSOD's under this
            // repository's cost model (the MICRO'18 tuning intent).
            sample_period: u64::from(csod_core::paper::BURST_ALLOC_THRESHOLD) / 5,
            phase: 0,
            freed_tracking: 1_024,
        }
    }
}

/// Bug classes Sampler distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SamplerBug {
    /// A sampled access fell into an object's guard zone.
    Overflow,
    /// A sampled access fell into freed memory.
    UseAfterFree,
}

impl fmt::Display for SamplerBug {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplerBug::Overflow => f.write_str("buffer overflow"),
            SamplerBug::UseAfterFree => f.write_str("use-after-free"),
        }
    }
}

/// One Sampler detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerReport {
    /// Bug class.
    pub bug: SamplerBug,
    /// Read or write.
    pub access: AccessKind,
    /// The sampled address.
    pub addr: VirtAddr,
    /// The accessing thread.
    pub thread: ThreadId,
    /// The statement whose access was sampled.
    pub site: SiteToken,
}

impl fmt::Display for SamplerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Sampler: {} at {} ({} of {} by {})",
            self.bug, self.addr, self.access, self.site, self.thread
        )
    }
}

#[derive(Debug, Clone, Copy)]
struct TrackedObject {
    user: VirtAddr,
    requested: u64,
    /// End of the guard zone (= end of the raw block we asked for).
    guard_end: VirtAddr,
    freed: bool,
}

/// Counters for the comparison harnesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SamplerStats {
    /// Allocations tracked.
    pub allocations: u64,
    /// Frees tracked.
    pub frees: u64,
    /// PMU samples classified.
    pub samples: u64,
}

/// The Sampler runtime.
///
/// # Examples
///
/// ```
/// use sampler_sim::{Sampler, SamplerConfig};
/// use sim_heap::{HeapConfig, SimHeap};
/// use sim_machine::{Machine, ThreadId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut machine = Machine::new();
/// let mut heap = SimHeap::new(&mut machine, HeapConfig::default())?;
/// // Sample every access so the demo detects deterministically.
/// let mut sampler = Sampler::new(&mut machine, SamplerConfig {
///     sample_period: 1,
///     ..SamplerConfig::default()
/// });
///
/// let p = sampler.malloc(&mut machine, &mut heap, 40)?;
/// machine.app_write(ThreadId::MAIN, p + 40, 8)?; // into the guard zone
/// sampler.poll(&mut machine);
/// assert!(sampler.detected());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Sampler {
    config: SamplerConfig,
    /// Live and recently freed objects, keyed by user start address.
    objects: BTreeMap<u64, TrackedObject>,
    /// FIFO of freed object keys still tracked.
    freed_order: std::collections::VecDeque<u64>,
    reports: Vec<SamplerReport>,
    reported_sites: std::collections::HashSet<u64>,
    stats: SamplerStats,
}

impl Sampler {
    /// Creates the runtime and programs the PMU (the "change of the
    /// underlying OS" the paper notes CSOD avoids).
    pub fn new(machine: &mut Machine, config: SamplerConfig) -> Self {
        machine.pmu_enable_with_phase(config.sample_period, config.phase);
        Sampler {
            config,
            objects: BTreeMap::new(),
            freed_order: std::collections::VecDeque::new(),
            reports: Vec::new(),
            reported_sites: std::collections::HashSet::new(),
            stats: SamplerStats::default(),
        }
    }

    /// Interposed `malloc` of the custom allocator: pads the request
    /// with a guard zone and records the bounds.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn malloc(
        &mut self,
        machine: &mut Machine,
        heap: &mut SimHeap,
        size: u64,
    ) -> Result<VirtAddr, HeapError> {
        // The custom allocator's bounds bookkeeping costs about a
        // hash/tree operation per allocation.
        machine.charge(CostDomain::Tool, machine.costs().ctx_lookup);
        let user = heap.malloc(machine, size + GUARD_BYTES)?;
        // Recycled blocks shadow any stale freed-object record.
        if self.objects.remove(&user.as_u64()).is_some() {
            self.freed_order.retain(|&k| k != user.as_u64());
        }
        self.objects.insert(
            user.as_u64(),
            TrackedObject {
                user,
                requested: size,
                guard_end: user + size + GUARD_BYTES,
                freed: false,
            },
        );
        self.stats.allocations += 1;
        Ok(user)
    }

    /// Interposed `free`: keeps the bounds around (marked freed) so
    /// sampled dangling accesses classify as use-after-free.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::InvalidPointer`] for unknown pointers.
    pub fn free(
        &mut self,
        machine: &mut Machine,
        heap: &mut SimHeap,
        user: VirtAddr,
    ) -> Result<(), HeapError> {
        machine.charge(CostDomain::Tool, machine.costs().ctx_lookup);
        let Some(object) = self.objects.get_mut(&user.as_u64()) else {
            return Err(HeapError::InvalidPointer(user));
        };
        if object.freed {
            return Err(HeapError::InvalidPointer(user));
        }
        object.freed = true;
        self.stats.frees += 1;
        heap.free(machine, user)?;
        self.freed_order.push_back(user.as_u64());
        while self.freed_order.len() > self.config.freed_tracking {
            let stale = self.freed_order.pop_front().expect("non-empty");
            self.objects.remove(&stale);
        }
        Ok(())
    }

    /// Drains the machine's PMU samples and classifies each against the
    /// allocator metadata.
    pub fn poll(&mut self, machine: &mut Machine) {
        for sample in machine.take_pmu_samples() {
            self.stats.samples += 1;
            let Some(object) = self.object_covering(sample.addr) else {
                continue;
            };
            let offset = sample.addr - object.user;
            let bug = if object.freed {
                Some(SamplerBug::UseAfterFree)
            } else if offset >= object.requested {
                Some(SamplerBug::Overflow)
            } else {
                None
            };
            if let Some(bug) = bug {
                if self.reported_sites.insert(sample.site.0) {
                    self.reports.push(SamplerReport {
                        bug,
                        access: sample.kind,
                        addr: sample.addr,
                        thread: sample.thread,
                        site: sample.site,
                    });
                }
            }
        }
    }

    fn object_covering(&self, addr: VirtAddr) -> Option<TrackedObject> {
        let (_, object) = self.objects.range(..=addr.as_u64()).next_back()?;
        (addr < object.guard_end).then_some(*object)
    }

    /// End of execution: stop sampling.
    pub fn finish(&mut self, machine: &mut Machine) {
        self.poll(machine);
        machine.pmu_disable();
    }

    /// All reports so far.
    pub fn reports(&self) -> &[SamplerReport] {
        &self.reports
    }

    /// Whether any bug was reported.
    pub fn detected(&self) -> bool {
        !self.reports.is_empty()
    }

    /// Counters.
    pub fn stats(&self) -> SamplerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_heap::HeapConfig;

    fn setup(period: u64) -> (Machine, SimHeap, Sampler) {
        let mut machine = Machine::new();
        let heap = SimHeap::new(&mut machine, HeapConfig::default()).unwrap();
        let sampler = Sampler::new(
            &mut machine,
            SamplerConfig {
                sample_period: period,
                ..SamplerConfig::default()
            },
        );
        (machine, heap, sampler)
    }

    #[test]
    fn sampled_guard_access_is_an_overflow() {
        let (mut m, mut h, mut s) = setup(1);
        let p = s.malloc(&mut m, &mut h, 40).unwrap();
        m.app_write(ThreadId::MAIN, p + 40, 8).unwrap();
        s.poll(&mut m);
        assert!(s.detected());
        assert_eq!(s.reports()[0].bug, SamplerBug::Overflow);
    }

    #[test]
    fn unsampled_overflow_is_missed() {
        let (mut m, mut h, mut s) = setup(1_000);
        let p = s.malloc(&mut m, &mut h, 40).unwrap();
        // One overflowing access among few: virtually never sampled.
        m.app_write(ThreadId::MAIN, p + 40, 8).unwrap();
        s.poll(&mut m);
        assert!(
            !s.detected(),
            "the probabilistic miss CSOD avoids per-object"
        );
    }

    #[test]
    fn repeated_overflow_is_caught_once_sampled() {
        let (mut m, mut h, mut s) = setup(16);
        let p = s.malloc(&mut m, &mut h, 24).unwrap();
        for _ in 0..64 {
            m.app_read(ThreadId::MAIN, p + 24, 8).unwrap();
        }
        s.poll(&mut m);
        assert!(s.detected(), "4 of 64 overflowing accesses are sampled");
        assert_eq!(s.reports().len(), 1, "one report per site");
    }

    #[test]
    fn in_bounds_accesses_never_report() {
        let (mut m, mut h, mut s) = setup(1);
        let p = s.malloc(&mut m, &mut h, 64).unwrap();
        for off in (0..64).step_by(8) {
            m.app_write(ThreadId::MAIN, p + off, 8).unwrap();
        }
        s.poll(&mut m);
        assert!(!s.detected());
        assert_eq!(s.stats().samples, 8);
    }

    #[test]
    fn use_after_free_detected_while_tracked() {
        let (mut m, mut h, mut s) = setup(1);
        let p = s.malloc(&mut m, &mut h, 32).unwrap();
        s.free(&mut m, &mut h, p).unwrap();
        m.app_read(ThreadId::MAIN, p + 8, 8).unwrap();
        s.poll(&mut m);
        assert_eq!(s.reports()[0].bug, SamplerBug::UseAfterFree);
    }

    #[test]
    fn recycled_blocks_do_not_false_positive() {
        let (mut m, mut h, mut s) = setup(1);
        let p = s.malloc(&mut m, &mut h, 32).unwrap();
        s.free(&mut m, &mut h, p).unwrap();
        let q = s.malloc(&mut m, &mut h, 32).unwrap();
        assert_eq!(p, q, "allocator recycles");
        m.app_write(ThreadId::MAIN, q, 8).unwrap();
        s.poll(&mut m);
        assert!(!s.detected(), "fresh object over old address is clean");
    }

    #[test]
    fn double_free_is_rejected() {
        let (mut m, mut h, mut s) = setup(1);
        let p = s.malloc(&mut m, &mut h, 16).unwrap();
        s.free(&mut m, &mut h, p).unwrap();
        assert_eq!(s.free(&mut m, &mut h, p), Err(HeapError::InvalidPointer(p)));
    }

    #[test]
    fn freed_tracking_is_bounded() {
        let mut machine = Machine::new();
        let mut heap = SimHeap::new(&mut machine, HeapConfig::default()).unwrap();
        let mut s = Sampler::new(
            &mut machine,
            SamplerConfig {
                sample_period: 1,
                phase: 0,
                freed_tracking: 4,
            },
        );
        let mut ptrs = Vec::new();
        for _ in 0..10 {
            // Distinct sizes avoid freelist recycling within the loop.
            ptrs.push(s.malloc(&mut machine, &mut heap, 600).unwrap());
            let p = *ptrs.last().unwrap();
            s.free(&mut machine, &mut heap, p).unwrap();
        }
        assert!(
            s.objects.len() <= 5,
            "metadata bounded: {}",
            s.objects.len()
        );
    }

    #[test]
    fn sampling_cost_is_charged_to_tool() {
        let (mut m, mut h, mut s) = setup(10);
        let p = s.malloc(&mut m, &mut h, 64).unwrap();
        let before = m.counter().tool_ns();
        for _ in 0..100 {
            m.app_read(ThreadId::MAIN, p, 8).unwrap();
        }
        assert_eq!(m.counter().tool_ns() - before, 10 * m.costs().pmu_sample);
        s.finish(&mut m);
    }

    #[test]
    fn default_period_tracks_the_shared_paper_constants() {
        // The tuned value the experiments were calibrated against; if
        // the shared constant moves, this drift check makes the change
        // a conscious one instead of a silent re-tuning.
        assert_eq!(SamplerConfig::default().sample_period, 1_000);
        assert_eq!(
            SamplerConfig::default().sample_period,
            u64::from(csod_core::paper::BURST_ALLOC_THRESHOLD) / 5
        );
    }
}
