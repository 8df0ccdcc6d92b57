//! Virtual-time cost accounting.
//!
//! The paper evaluates CSOD by its *normalized overhead*: wall-clock time
//! with the tool divided by wall-clock time of the unmodified program
//! (Figure 7). On the simulated machine, wall-clock time is virtual and is
//! accumulated in three buckets:
//!
//! * **application** time — the program's own CPU work,
//! * **tool** time — extra CPU work added by a detection tool (CSOD or the
//!   ASan model): context lookups, shadow checks, syscalls for watchpoint
//!   installation, canary bookkeeping, …
//! * **I/O** time — waits that no CPU-side tool can change (network and
//!   disk time in Aget, Pfscan, Apache, …).
//!
//! Normalized overhead is then `(app + tool + io) / (app + io)` — which is
//! exactly why the paper observes that ASan "imposes little overhead for
//! IO-bound applications": a large `io` term dilutes the tool term.
//!
//! The [`CostModel`] holds the per-operation prices; every price is a knob
//! so that the ablation harnesses can explore the sensitivity of Figure 7
//! to the cost assumptions.

use crate::clock::VirtDuration;
use std::fmt;

/// The bucket a charge is accounted against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostDomain {
    /// The program's own work.
    App,
    /// Work added by a detection tool.
    Tool,
    /// I/O waits; unaffected by any tool.
    Io,
}

/// Per-operation virtual-time prices, in nanoseconds.
///
/// Defaults are calibrated to a ~3 GHz x86-64 server (the paper's Xeon
/// E5-2640 testbed): a cache-hitting memory access costs about a
/// nanosecond, a syscall several hundred.
///
/// # Examples
///
/// ```
/// use sim_machine::CostModel;
///
/// let costs = CostModel::default();
/// // Installing a watchpoint on one thread takes five syscalls
/// // (perf_event_open + three fcntl + ioctl), each far more expensive
/// // than the allocation fast path itself.
/// assert!(costs.syscall > 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// One user-space memory access performed by the application.
    pub mem_access: u64,
    /// Additional application work per workload "operation" that is not a
    /// memory access (arithmetic, control flow).
    pub app_compute: u64,
    /// A generic system call (ioctl, fcntl, close).
    pub syscall: u64,
    /// `perf_event_open` — more expensive than a plain syscall because the
    /// kernel allocates the event and claims a debug register.
    pub perf_event_open: u64,
    /// Baseline cost of `malloc` in the unmodified allocator.
    pub malloc_base: u64,
    /// Baseline cost of `free` in the unmodified allocator.
    pub free_base: u64,
    /// CSOD: hash-table lookup of the (call-site, stack-offset) key.
    pub ctx_lookup: u64,
    /// CSOD: one per-thread random number.
    pub rng_draw: u64,
    /// CSOD: fetching the first-level return address and stack offset.
    pub return_address: u64,
    /// CSOD: a full `backtrace` walk, paid only the first time a context
    /// key is seen.
    pub full_backtrace: u64,
    /// CSOD evidence mode: writing the header + canary at allocation.
    pub canary_write: u64,
    /// CSOD evidence mode: verifying the canary at deallocation.
    pub canary_check: u64,
    /// ASan model: one shadow-memory check (amortized; includes the
    /// inserted instrumentation instructions).
    pub shadow_check: u64,
    /// ASan model: poisoning the redzones of a new allocation.
    pub redzone_poison: u64,
    /// ASan model: quarantining and poisoning a freed object.
    pub quarantine: u64,
    /// `ptrace` attach: creating/stopping the tracee and the scheduler
    /// round-trips of the helper process (Section II-A: "a separate
    /// process should be created for ptrace to install watchpoints,
    /// which incurs significant performance overhead due to
    /// communication between processes").
    pub ptrace_attach: u64,
    /// One `PTRACE_POKEUSER` poke of a debug register, including the
    /// helper-process round trip.
    pub ptrace_poke: u64,
    /// `ptrace` detach and tracee resume.
    pub ptrace_detach: u64,
    /// The hypothetical combined watch-all-threads syscall of Section
    /// V-B ("we could further reduce the performance overhead by
    /// combining these system calls into one custom system call"):
    /// fixed entry cost...
    pub combined_watch: u64,
    /// ...plus this much per additional thread inside the kernel.
    pub combined_watch_per_thread: u64,
    /// Fixed entry cost of a batched watchpoint teardown
    /// ([`crate::Machine::sys_teardown_batch`]): one kernel entry that
    /// runs the Figure-4 `ioctl(DISABLE)` + `close` sequence for a whole
    /// batch of descriptors, amortizing the entry over the batch...
    pub teardown_batch: u64,
    /// ...plus this much per descriptor inside the kernel — much cheaper
    /// than the two full syscalls the synchronous route pays per fd.
    pub teardown_batch_per_fd: u64,
    /// Processing one PMU (PEBS-style) memory-access sample — the cost
    /// driver of the Sampler baseline (Silvestro et al., MICRO'18),
    /// which the paper discusses as concurrent work.
    pub pmu_sample: u64,
    /// One-time start-up cost of the CSOD runtime (hash table, signal
    /// handler and generator setup) — visible only in short runs like
    /// Ferret (Section V-B).
    pub csod_init: u64,
    /// One-time start-up cost of the ASan runtime (shadow reservation).
    pub asan_init: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            mem_access: 1,
            app_compute: 2,
            syscall: 250,
            perf_event_open: 900,
            malloc_base: 45,
            free_base: 35,
            ctx_lookup: 18,
            rng_draw: 4,
            return_address: 2,
            full_backtrace: 2_500,
            canary_write: 6,
            canary_check: 6,
            shadow_check: 1,
            redzone_poison: 25,
            quarantine: 35,
            ptrace_attach: 15_000,
            ptrace_poke: 3_000,
            ptrace_detach: 5_000,
            combined_watch: 1_000,
            combined_watch_per_thread: 150,
            teardown_batch: 400,
            teardown_batch_per_fd: 120,
            pmu_sample: 350,
            csod_init: 500_000,
            asan_init: 1_000_000,
        }
    }
}

impl CostModel {
    /// A zero-cost model: the accounting of backends that model no cost
    /// (the null and linux-hw backends), and of unit tests that assert
    /// on behaviour rather than timing.
    pub const FREE_OF_CHARGE: CostModel = CostModel {
        mem_access: 0,
        app_compute: 0,
        syscall: 0,
        perf_event_open: 0,
        malloc_base: 0,
        free_base: 0,
        ctx_lookup: 0,
        rng_draw: 0,
        return_address: 0,
        full_backtrace: 0,
        canary_write: 0,
        canary_check: 0,
        shadow_check: 0,
        redzone_poison: 0,
        quarantine: 0,
        ptrace_attach: 0,
        ptrace_poke: 0,
        ptrace_detach: 0,
        combined_watch: 0,
        combined_watch_per_thread: 0,
        teardown_batch: 0,
        teardown_batch_per_fd: 0,
        pmu_sample: 0,
        csod_init: 0,
        asan_init: 0,
    };
}

/// Accumulated virtual time, split by [`CostDomain`], plus event counts
/// that the evaluation tables report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleCounter {
    app_ns: u64,
    tool_ns: u64,
    io_ns: u64,
    syscalls: u64,
    accesses: u64,
}

impl CycleCounter {
    /// A counter with nothing charged yet.
    pub fn new() -> Self {
        CycleCounter::default()
    }

    /// Charges `ns` nanoseconds to `domain` and returns the amount as a
    /// duration so the machine clock can advance by the same span.
    #[inline]
    pub fn charge(&mut self, domain: CostDomain, ns: u64) -> VirtDuration {
        match domain {
            CostDomain::App => self.app_ns += ns,
            CostDomain::Tool => self.tool_ns += ns,
            CostDomain::Io => self.io_ns += ns,
        }
        VirtDuration::from_nanos(ns)
    }

    /// Records one system call (the cost itself is charged separately).
    #[inline]
    pub fn count_syscall(&mut self) {
        self.syscalls += 1;
    }

    /// Records one application memory access.
    #[inline]
    pub fn count_access(&mut self) {
        self.accesses += 1;
    }

    /// Records `n` application memory accesses at once (bulk modelling).
    pub fn add_accesses(&mut self, n: u64) {
        self.accesses += n;
    }

    /// Application CPU time charged so far.
    pub fn app_ns(&self) -> u64 {
        self.app_ns
    }

    /// Tool CPU time charged so far.
    pub fn tool_ns(&self) -> u64 {
        self.tool_ns
    }

    /// I/O wait time charged so far.
    pub fn io_ns(&self) -> u64 {
        self.io_ns
    }

    /// Number of system calls issued.
    pub fn syscalls(&self) -> u64 {
        self.syscalls
    }

    /// Number of application memory accesses performed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total virtual run time: application + tool + I/O.
    pub fn total_ns(&self) -> u64 {
        self.app_ns + self.tool_ns + self.io_ns
    }

    /// Virtual run time of the same execution without the tool.
    pub fn baseline_ns(&self) -> u64 {
        self.app_ns + self.io_ns
    }

    /// Normalized overhead as in Figure 7: run time with the tool divided
    /// by run time without it. `1.0` means no overhead.
    ///
    /// Returns `1.0` when nothing has been charged, so that an empty run
    /// reads as "no overhead" rather than dividing by zero.
    pub fn normalized_overhead(&self) -> f64 {
        let baseline = self.baseline_ns();
        if baseline == 0 {
            return 1.0;
        }
        self.total_ns() as f64 / baseline as f64
    }
}

impl fmt::Display for CycleCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "app {} + tool {} + io {} = {} ({:.3}x)",
            VirtDuration::from_nanos(self.app_ns),
            VirtDuration::from_nanos(self.tool_ns),
            VirtDuration::from_nanos(self.io_ns),
            VirtDuration::from_nanos(self.total_ns()),
            self.normalized_overhead()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_by_domain() {
        let mut c = CycleCounter::new();
        c.charge(CostDomain::App, 100);
        c.charge(CostDomain::Tool, 10);
        c.charge(CostDomain::Io, 900);
        c.charge(CostDomain::App, 50);
        assert_eq!(c.app_ns(), 150);
        assert_eq!(c.tool_ns(), 10);
        assert_eq!(c.io_ns(), 900);
        assert_eq!(c.total_ns(), 1060);
        assert_eq!(c.baseline_ns(), 1050);
    }

    #[test]
    fn overhead_of_empty_run_is_one() {
        assert_eq!(CycleCounter::new().normalized_overhead(), 1.0);
    }

    #[test]
    fn overhead_ratio() {
        let mut c = CycleCounter::new();
        c.charge(CostDomain::App, 1_000);
        c.charge(CostDomain::Tool, 67);
        let got = c.normalized_overhead();
        assert!((got - 1.067).abs() < 1e-9, "got {got}");
    }

    #[test]
    fn io_dilutes_tool_overhead() {
        // The same absolute tool cost yields lower normalized overhead
        // when the run is dominated by I/O — the Aget/Pfscan effect.
        let mut cpu_bound = CycleCounter::new();
        cpu_bound.charge(CostDomain::App, 1_000);
        cpu_bound.charge(CostDomain::Tool, 500);

        let mut io_bound = CycleCounter::new();
        io_bound.charge(CostDomain::App, 1_000);
        io_bound.charge(CostDomain::Tool, 500);
        io_bound.charge(CostDomain::Io, 100_000);

        assert!(io_bound.normalized_overhead() < cpu_bound.normalized_overhead());
        assert!(io_bound.normalized_overhead() < 1.01);
    }

    #[test]
    fn event_counts() {
        let mut c = CycleCounter::new();
        c.count_syscall();
        c.count_syscall();
        c.count_access();
        assert_eq!(c.syscalls(), 2);
        assert_eq!(c.accesses(), 1);
    }

    #[test]
    fn charge_returns_matching_duration() {
        let mut c = CycleCounter::new();
        let d = c.charge(CostDomain::App, 42);
        assert_eq!(d, VirtDuration::from_nanos(42));
    }

    #[test]
    fn default_model_is_plausible() {
        let m = CostModel::default();
        assert!(m.perf_event_open > m.syscall);
        assert!(m.syscall > m.malloc_base);
        assert!(m.full_backtrace > m.ctx_lookup);
        let zero = CostModel::FREE_OF_CHARGE;
        assert_eq!(zero.syscall, 0);
    }
}
