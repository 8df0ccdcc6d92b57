//! The machine facade tying memory, threads, debug hardware, the perf
//! subsystem, signals, and cost accounting together.

use crate::addr::{AccessKind, AddrRange, VirtAddr};
use crate::clock::{Clock, VirtDuration, VirtInstant};
use crate::cost::{CostDomain, CostModel, CycleCounter};
use crate::faults::{FaultPlan, FaultStats};
use crate::memory::{AddressSpace, MemoryError};
use crate::perf::{FcntlCmd, Fd, IoctlCmd, PerfError, PerfEventAttr, PerfSubsystem};
use crate::signal::{Signal, SignalInfo, SiteToken};
use crate::thread::{ThreadError, ThreadId, ThreadRegistry};
use std::collections::{HashMap, VecDeque};

/// A deterministic simulated machine.
///
/// The machine is the single mutable root of the simulation: workloads
/// perform *application* accesses through [`Machine::app_read`] /
/// [`Machine::app_write`] (which are charged to the application time
/// bucket and checked against hardware watchpoints), while tools use the
/// `sys_*` syscalls (charged to the tool bucket) and the `raw_*` memory
/// backdoor (free, invisible to watchpoints — used for simulator
/// bookkeeping such as reading heap metadata).
///
/// # Examples
///
/// Install a watchpoint the way CSOD does and observe the trap:
///
/// ```
/// use sim_machine::{
///     FcntlCmd, IoctlCmd, Machine, PerfEventAttr, Signal, ThreadId, VirtAddr,
/// };
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = Machine::new();
/// let heap = VirtAddr::new(0x10_0000);
/// m.map_region(heap, 4096, "heap")?;
///
/// // Watch the 8-byte word at heap+64 (an object boundary).
/// let fd = m.sys_perf_event_open(PerfEventAttr::rw_word(heap + 64), ThreadId::MAIN)?;
/// m.sys_fcntl(fd, FcntlCmd::SetFlAsync)?;
/// m.sys_fcntl(fd, FcntlCmd::SetSig(Signal::Trap))?;
/// m.sys_fcntl(fd, FcntlCmd::SetOwn(ThreadId::MAIN))?;
/// m.sys_ioctl(fd, IoctlCmd::Enable)?;
///
/// // The application overflows: writes one word past its 64-byte object.
/// m.app_write(ThreadId::MAIN, heap + 64, 8)?;
/// let signals = m.take_signals();
/// assert_eq!(signals.len(), 1);
/// assert_eq!(signals[0].signal, Signal::Trap);
/// assert_eq!(signals[0].fd, Some(fd));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Machine {
    mem: AddressSpace,
    clock: Clock,
    cost: CostModel,
    counter: CycleCounter,
    threads: ThreadRegistry,
    perf: PerfSubsystem,
    pending: VecDeque<SignalInfo>,
    current_site: HashMap<ThreadId, SiteToken>,
    /// PMU access-sampling: sample every Nth application access.
    pmu_period: Option<u64>,
    pmu_countdown: u64,
    pmu_samples: VecDeque<PmuSample>,
    faults: Option<FaultPlan>,
    /// Signals whose delivery a fault plan postponed, with their due time.
    /// The delay is constant per plan, so pushes arrive in due order.
    delayed: VecDeque<(VirtInstant, SignalInfo)>,
}

/// One PMU (PEBS-style) memory-access sample, as consumed by the
/// Sampler baseline: the sampled address plus the execution context the
/// hardware captures with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmuSample {
    /// Thread whose access was sampled.
    pub thread: ThreadId,
    /// Sampled effective address.
    pub addr: VirtAddr,
    /// Access length in bytes.
    pub len: u64,
    /// Load or store.
    pub kind: AccessKind,
    /// The statement performing the access.
    pub site: SiteToken,
}

impl Default for Machine {
    fn default() -> Self {
        Machine::new()
    }
}

impl Machine {
    /// Creates a machine with the default [`CostModel`].
    pub fn new() -> Self {
        Machine::with_costs(CostModel::default())
    }

    /// Creates a machine with `n` hardware debug registers per thread —
    /// hypothetical hardware for the register-count ablation; real
    /// x86-64 has four.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_debug_registers(n: usize) -> Self {
        let mut machine = Machine::new();
        machine.perf = PerfSubsystem::with_registers(n);
        machine
    }

    /// Creates a machine with an explicit cost model.
    pub fn with_costs(cost: CostModel) -> Self {
        Machine {
            mem: AddressSpace::new(),
            clock: Clock::new(),
            cost,
            counter: CycleCounter::new(),
            threads: ThreadRegistry::new(),
            perf: PerfSubsystem::new(),
            pending: VecDeque::new(),
            current_site: HashMap::new(),
            pmu_period: None,
            pmu_countdown: 0,
            pmu_samples: VecDeque::new(),
            faults: None,
            delayed: VecDeque::new(),
        }
    }

    // ----- fault injection ---------------------------------------------------

    /// Installs a fault-injection plan; subsequent perf syscalls, signal
    /// deliveries and heap allocations consult it. Replaces any previous
    /// plan.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Counters of the faults injected so far, if a plan is installed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(FaultPlan::stats)
    }

    /// Fault hook for allocators: whether the next heap allocation must
    /// fail. Draws from (and counts against) the installed plan.
    pub fn fault_alloc_fails(&mut self) -> bool {
        self.faults.as_mut().is_some_and(FaultPlan::fail_alloc)
    }

    /// Fault hook for chaos drivers: whether the process dies right now.
    /// The machine cannot unwind the workload itself — the driver is
    /// expected to abandon the run (no `finish()`, no flushes) when this
    /// returns `true`, simulating `SIGKILL` / power loss. Draws from (and
    /// counts against) the installed plan.
    pub fn fault_kill_now(&mut self) -> bool {
        self.faults.as_mut().is_some_and(FaultPlan::should_kill)
    }

    // ----- time & accounting -------------------------------------------------

    /// The current virtual time.
    pub fn now(&self) -> VirtInstant {
        self.clock.now()
    }

    /// The cost model in effect.
    #[inline]
    pub fn costs(&self) -> &CostModel {
        &self.cost
    }

    /// The accumulated cycle counter.
    pub fn counter(&self) -> &CycleCounter {
        &self.counter
    }

    /// Charges `ns` nanoseconds of CPU time to `domain` and advances the
    /// clock by the same amount.
    #[inline]
    pub fn charge(&mut self, domain: CostDomain, ns: u64) {
        let d = self.counter.charge(domain, ns);
        self.clock.advance(d);
    }

    /// Models an I/O wait of duration `d` (network, disk): time passes
    /// but no CPU-side tool cost can change it.
    pub fn wait_io(&mut self, d: VirtDuration) {
        self.counter.charge(CostDomain::Io, d.as_nanos());
        self.clock.advance(d);
    }

    /// Advances the clock without charging any bucket. Used by tests that
    /// need to move time (e.g. past CSOD's 10-second windows).
    pub fn skip_time(&mut self, d: VirtDuration) {
        self.clock.advance(d);
    }

    // ----- memory mapping ----------------------------------------------------

    /// Maps `len` zeroed bytes at `base`. See [`AddressSpace::map_region`].
    ///
    /// # Errors
    ///
    /// Propagates [`MemoryError`] for invalid or overlapping mappings.
    pub fn map_region(&mut self, base: VirtAddr, len: u64, name: &str) -> Result<(), MemoryError> {
        self.mem.map_region(base, len, name)
    }

    // ----- raw memory backdoor (no cost, no watchpoints) ----------------------

    /// Reads bytes without charging time or consulting watchpoints.
    ///
    /// This is the simulator's bookkeeping path (allocator metadata,
    /// canary verification after the watchpoint has been removed, …).
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] when the range is not mapped.
    #[inline]
    pub fn raw_read_bytes(&self, addr: VirtAddr, buf: &mut [u8]) -> Result<(), MemoryError> {
        self.mem.read_bytes(addr, buf)
    }

    /// Writes bytes without charging time or consulting watchpoints.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] when the range is not mapped.
    #[inline]
    pub fn raw_write_bytes(&mut self, addr: VirtAddr, data: &[u8]) -> Result<(), MemoryError> {
        self.mem.write_bytes(addr, data)
    }

    /// Loads a little-endian `u64` via the backdoor.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] when the word is not mapped.
    #[inline]
    pub fn raw_load_u64(&self, addr: VirtAddr) -> Result<u64, MemoryError> {
        self.mem.load_u64(addr)
    }

    /// Stores a little-endian `u64` via the backdoor.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] when the word is not mapped.
    #[inline]
    pub fn raw_store_u64(&mut self, addr: VirtAddr, value: u64) -> Result<(), MemoryError> {
        self.mem.store_u64(addr, value)
    }

    /// Fills a range via the backdoor.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] when the range is not mapped.
    pub fn raw_fill(&mut self, addr: VirtAddr, len: u64, byte: u8) -> Result<(), MemoryError> {
        self.mem.fill(addr, len, byte)
    }

    // ----- application accesses ----------------------------------------------

    /// Performs an application load of `len` bytes at `addr` by `tid`.
    ///
    /// Charges application time, checks hardware watchpoints, and — on a
    /// fault — enqueues a SIGSEGV-style signal.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] when the access faults (the
    /// corresponding signal is queued as well).
    pub fn app_read(&mut self, tid: ThreadId, addr: VirtAddr, len: u64) -> Result<(), MemoryError> {
        self.app_access(tid, addr, len, AccessKind::Read)
    }

    /// Performs an application store of `len` bytes at `addr` by `tid`.
    ///
    /// The stored *value* is not modelled, but the bytes are overwritten
    /// with a recognizable garbage pattern so canary evidence can observe
    /// over-writes; tools that need exact contents use the `raw_*` path.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] when the access faults.
    pub fn app_write(
        &mut self,
        tid: ThreadId,
        addr: VirtAddr,
        len: u64,
    ) -> Result<(), MemoryError> {
        self.app_access(tid, addr, len, AccessKind::Write)
    }

    /// Performs an application access of the given kind.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] when the access faults.
    pub fn app_access(
        &mut self,
        tid: ThreadId,
        addr: VirtAddr,
        len: u64,
        kind: AccessKind,
    ) -> Result<(), MemoryError> {
        self.charge(CostDomain::App, self.cost.mem_access);
        self.counter.count_access();
        self.pmu_observe_n(tid, addr, len, kind, 1);
        if !self.mem.is_mapped(addr, len) {
            let site = self.site_of(tid);
            self.pending.push_back(SignalInfo {
                signal: Signal::Segv,
                thread: tid,
                fd: None,
                fault_addr: addr,
                access: kind,
                site,
            });
            return Err(MemoryError::Unmapped { addr, len });
        }
        if kind == AccessKind::Write {
            // Stores really mutate memory (with a recognizable garbage
            // pattern) so canary-based evidence detection can observe
            // over-writes after the fact.
            self.mem
                .fill(addr, len, 0xA5)
                .expect("mapped range checked above");
        }
        let range = AddrRange::new(addr, len);
        for hit in self.perf.check_access(tid, range, kind) {
            // The site lookup only matters once a trap actually fires —
            // keep it off the unwatched-access path.
            let site = self.site_of(tid);
            // The hardware trap happened either way; a fault plan can
            // still lose or postpone the *delivery* of the signal.
            if self.faults.as_mut().is_some_and(FaultPlan::drop_signal) {
                continue;
            }
            let info = SignalInfo {
                signal: hit.sig,
                // F_SETOWN directed the signal at `hit.owner`; CSOD sets the
                // owner to the thread the event is pinned to, which is the
                // accessing thread here.
                thread: hit.owner,
                fd: Some(hit.fd),
                fault_addr: hit.watched.start(),
                access: kind,
                site,
            };
            match self.faults.as_mut().and_then(FaultPlan::delay_signal) {
                Some(delay) => self.delayed.push_back((self.clock.now() + delay, info)),
                None => self.pending.push_back(info),
            }
        }
        Ok(())
    }

    /// Performs `count` in-bounds application accesses of `len` bytes at
    /// `addr` as one bulk operation: the full application cost is
    /// charged, one representative access actually executes (so
    /// watchpoint and fault semantics still hold for the touched word).
    ///
    /// Workload models use this for access-dense phases where emitting
    /// one event per access would dominate simulation time.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] when the representative access
    /// faults.
    pub fn app_access_bulk(
        &mut self,
        tid: ThreadId,
        addr: VirtAddr,
        len: u64,
        kind: AccessKind,
        count: u64,
    ) -> Result<(), MemoryError> {
        if count == 0 {
            return Ok(());
        }
        self.charge(CostDomain::App, self.cost.mem_access * (count - 1));
        self.counter.add_accesses(count - 1);
        self.pmu_observe_n(tid, addr, len, kind, count - 1);
        self.app_access(tid, addr, len, kind)
    }

    /// Enables PMU access sampling: every `period`-th application access
    /// produces a [`PmuSample`] (and costs
    /// [`CostModel::pmu_sample`] of tool time).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn pmu_enable(&mut self, period: u64) {
        self.pmu_enable_with_phase(period, 0);
    }

    /// Like [`Machine::pmu_enable`], but with an initial phase offset —
    /// real PMUs randomize the first sampling point to avoid aliasing
    /// with periodic program behaviour.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn pmu_enable_with_phase(&mut self, period: u64, phase: u64) {
        assert!(period > 0, "PMU sampling period must be positive");
        self.pmu_period = Some(period);
        // Phase 0 = the full period before the first sample; larger
        // phases pull the first sampling point earlier.
        self.pmu_countdown = period - (phase % period);
    }

    /// Disables PMU access sampling.
    pub fn pmu_disable(&mut self) {
        self.pmu_period = None;
        self.pmu_samples.clear();
    }

    /// Drains the collected PMU samples.
    pub fn take_pmu_samples(&mut self) -> Vec<PmuSample> {
        self.pmu_samples.drain(..).collect()
    }

    /// Counts `n` accesses to the same effective address against the
    /// sampling period; when one or more sampling points fall inside the
    /// batch, the per-sample cost is charged for each and one
    /// representative sample is queued.
    fn pmu_observe_n(&mut self, tid: ThreadId, addr: VirtAddr, len: u64, kind: AccessKind, n: u64) {
        let Some(period) = self.pmu_period else {
            return;
        };
        if n == 0 {
            return;
        }
        if n < self.pmu_countdown {
            self.pmu_countdown -= n;
            return;
        }
        let after_first = n - self.pmu_countdown;
        let k = 1 + after_first / period;
        self.pmu_countdown = period - (after_first % period);
        self.charge(CostDomain::Tool, self.cost.pmu_sample * k);
        let site = self.site_of(tid);
        self.pmu_samples.push_back(PmuSample {
            thread: tid,
            addr,
            len,
            kind,
            site,
        });
    }

    /// Charges `ops` units of non-memory application work.
    pub fn app_compute(&mut self, ops: u64) {
        self.charge(CostDomain::App, self.cost.app_compute * ops);
    }

    /// Declares the statement `tid` is currently executing; carried into
    /// any signal raised by that thread's accesses.
    pub fn set_current_site(&mut self, tid: ThreadId, site: SiteToken) {
        self.current_site.insert(tid, site);
    }

    fn site_of(&self, tid: ThreadId) -> SiteToken {
        self.current_site
            .get(&tid)
            .copied()
            .unwrap_or(SiteToken::UNKNOWN)
    }

    // ----- threads -------------------------------------------------------------

    /// Spawns a new thread and returns its id.
    pub fn spawn_thread(&mut self) -> ThreadId {
        self.threads.spawn()
    }

    /// Exits `tid`, closing any perf events pinned to it.
    ///
    /// # Errors
    ///
    /// Returns [`ThreadError`] for the main thread or unknown threads.
    pub fn exit_thread(&mut self, tid: ThreadId) -> Result<(), ThreadError> {
        self.threads.exit(tid)?;
        self.perf.on_thread_exit(tid);
        self.current_site.remove(&tid);
        Ok(())
    }

    /// The thread registry (alive list, peak count).
    pub fn threads(&self) -> &ThreadRegistry {
        &self.threads
    }

    // ----- syscalls (tool domain) ----------------------------------------------

    /// `perf_event_open`: opens a breakpoint event on `tid`.
    ///
    /// # Errors
    ///
    /// [`PerfError::NoSuchThread`] if `tid` is not alive, plus any error
    /// from [`PerfSubsystem::open`] (notably `EBUSY` when the thread's
    /// four debug registers are taken).
    pub fn sys_perf_event_open(
        &mut self,
        attr: PerfEventAttr,
        tid: ThreadId,
    ) -> Result<Fd, PerfError> {
        self.syscall_cost(self.cost.perf_event_open);
        if !self.threads.is_alive(tid) {
            return Err(PerfError::NoSuchThread(tid));
        }
        let now = self.clock.now();
        if let Some(e) = self.faults.as_mut().and_then(|f| f.fail_open(now, tid)) {
            return Err(e);
        }
        self.perf.open(attr, tid)
    }

    /// `fcntl` on a perf descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::BadFd`] for closed descriptors.
    pub fn sys_fcntl(&mut self, fd: Fd, cmd: FcntlCmd) -> Result<i64, PerfError> {
        self.syscall_cost(self.cost.syscall);
        if let Some(e) = self.faults.as_mut().and_then(FaultPlan::fail_fcntl) {
            return Err(e);
        }
        self.perf.fcntl(fd, cmd)
    }

    /// `ioctl` on a perf descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::BadFd`] for closed descriptors.
    pub fn sys_ioctl(&mut self, fd: Fd, cmd: IoctlCmd) -> Result<(), PerfError> {
        self.syscall_cost(self.cost.syscall);
        if let Some(e) = self.faults.as_mut().and_then(FaultPlan::fail_ioctl) {
            return Err(e);
        }
        self.perf.ioctl(fd, cmd)
    }

    /// `close` on a perf descriptor, freeing its debug register.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::BadFd`] for closed descriptors.
    pub fn sys_close(&mut self, fd: Fd) -> Result<(), PerfError> {
        self.syscall_cost(self.cost.syscall);
        if self.faults.as_mut().is_some_and(FaultPlan::fail_close) {
            // As on Linux, an EINTR from close still releases the
            // descriptor; the error only means the caller cannot know.
            let _ = self.perf.close(fd);
            return Err(PerfError::Interrupted);
        }
        self.perf.close(fd)
    }

    /// Installs a watchpoint via the traditional `ptrace` route: a
    /// helper process attaches to `tid`, pokes a debug register with
    /// `PTRACE_POKEUSER`, and detaches. The trap semantics are the same
    /// as the perf-event route; what differs is the cost — the
    /// inter-process round trips the paper cites as the reason to prefer
    /// `perf_event_open` (Section II-A).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::sys_perf_event_open`].
    pub fn sys_ptrace_watch(
        &mut self,
        attr: PerfEventAttr,
        tid: ThreadId,
    ) -> Result<Fd, PerfError> {
        self.syscall_cost(self.cost.ptrace_attach);
        if !self.threads.is_alive(tid) {
            // The attach already cost us; the errno comes back anyway.
            return Err(PerfError::NoSuchThread(tid));
        }
        self.syscall_cost(self.cost.ptrace_poke);
        let fd = self.perf.open(attr, tid)?;
        // Arm it exactly like the perf route so traps behave identically.
        self.perf
            .fcntl(fd, FcntlCmd::SetFlAsync)
            .expect("fd just opened");
        self.perf
            .fcntl(fd, FcntlCmd::SetSig(Signal::Trap))
            .expect("fd just opened");
        self.perf
            .fcntl(fd, FcntlCmd::SetOwn(tid))
            .expect("fd just opened");
        self.perf
            .ioctl(fd, IoctlCmd::Enable)
            .expect("fd just opened");
        self.syscall_cost(self.cost.ptrace_detach);
        Ok(fd)
    }

    /// Removes a `ptrace`-installed watchpoint: attach, clear the debug
    /// register, detach.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::BadFd`] for descriptors that are not open.
    pub fn sys_ptrace_unwatch(&mut self, fd: Fd) -> Result<(), PerfError> {
        self.syscall_cost(self.cost.ptrace_attach);
        self.syscall_cost(self.cost.ptrace_poke);
        let result = self.perf.close(fd);
        self.syscall_cost(self.cost.ptrace_detach);
        result
    }

    /// The hypothetical combined syscall of Section V-B: installs one
    /// fully-configured watchpoint on *every* alive thread in a single
    /// kernel entry, returning the per-thread descriptors.
    ///
    /// # Errors
    ///
    /// Fails atomically with `EBUSY` if any thread lacks a free debug
    /// register (already-claimed registers are released again).
    pub fn sys_watch_all_threads(
        &mut self,
        attr: PerfEventAttr,
    ) -> Result<Vec<(ThreadId, Fd)>, PerfError> {
        let threads: Vec<ThreadId> = self.threads.alive().collect();
        self.syscall_cost(
            self.cost.combined_watch + self.cost.combined_watch_per_thread * threads.len() as u64,
        );
        let mut fds = Vec::with_capacity(threads.len());
        for tid in &threads {
            match self.perf.open(attr, *tid) {
                Ok(fd) => {
                    self.perf
                        .fcntl(fd, FcntlCmd::SetFlAsync)
                        .expect("fd just opened");
                    self.perf
                        .fcntl(fd, FcntlCmd::SetSig(Signal::Trap))
                        .expect("fd just opened");
                    self.perf
                        .fcntl(fd, FcntlCmd::SetOwn(*tid))
                        .expect("fd just opened");
                    self.perf
                        .ioctl(fd, IoctlCmd::Enable)
                        .expect("fd just opened");
                    fds.push((*tid, fd));
                }
                Err(e) => {
                    for (_, fd) in fds {
                        let _ = self.perf.close(fd);
                    }
                    return Err(e);
                }
            }
        }
        Ok(fds)
    }

    /// The removal half of the combined syscall: one kernel entry closes
    /// all given descriptors.
    pub fn sys_unwatch_all(&mut self, fds: &[Fd]) {
        self.syscall_cost(
            self.cost.combined_watch + self.cost.combined_watch_per_thread * fds.len() as u64,
        );
        for fd in fds {
            let _ = self.perf.close(*fd);
        }
    }

    /// Batched watchpoint teardown: a single kernel entry runs the
    /// Figure-4 `ioctl(PERF_EVENT_IOC_DISABLE)` + `close` sequence for
    /// every given descriptor, amortizing the kernel-entry cost over the
    /// batch. Descriptors already closed (e.g. auto-closed when their
    /// thread exited) are skipped silently, as `close` on a stale fd
    /// would be.
    pub fn sys_teardown_batch(&mut self, fds: &[Fd]) {
        if fds.is_empty() {
            return;
        }
        self.syscall_cost(
            self.cost.teardown_batch + self.cost.teardown_batch_per_fd * fds.len() as u64,
        );
        for fd in fds {
            let _ = self.perf.ioctl(*fd, IoctlCmd::Disable);
            let _ = self.perf.close(*fd);
        }
    }

    fn syscall_cost(&mut self, ns: u64) {
        self.counter.count_syscall();
        self.charge(CostDomain::Tool, ns);
    }

    // ----- perf introspection ----------------------------------------------------

    /// Free debug registers on `tid`.
    pub fn free_registers(&self, tid: ThreadId) -> usize {
        self.perf.free_registers(tid)
    }

    /// Currently open perf events.
    pub fn open_events(&self) -> usize {
        self.perf.open_events()
    }

    // ----- signals ------------------------------------------------------------------

    /// Drains and returns all pending signals in delivery order.
    /// Fault-delayed signals join the queue once virtual time reaches
    /// their due point.
    pub fn take_signals(&mut self) -> Vec<SignalInfo> {
        let now = self.clock.now();
        while let Some(&(due, _)) = self.delayed.front() {
            if due > now {
                break;
            }
            let (_, info) = self.delayed.pop_front().expect("front checked");
            self.pending.push_back(info);
        }
        self.pending.drain(..).collect()
    }

    /// Whether any signal is waiting for delivery (including fault-
    /// delayed signals that are already due).
    pub fn has_pending_signals(&self) -> bool {
        let now = self.clock.now();
        !self.pending.is_empty() || self.delayed.iter().any(|&(due, _)| due <= now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn configured_watch(m: &mut Machine, addr: VirtAddr, tid: ThreadId) -> Fd {
        let fd = m
            .sys_perf_event_open(PerfEventAttr::rw_word(addr), tid)
            .unwrap();
        m.sys_fcntl(fd, FcntlCmd::SetFlAsync).unwrap();
        m.sys_fcntl(fd, FcntlCmd::SetSig(Signal::Trap)).unwrap();
        m.sys_fcntl(fd, FcntlCmd::SetOwn(tid)).unwrap();
        m.sys_ioctl(fd, IoctlCmd::Enable).unwrap();
        fd
    }

    fn machine_with_heap() -> (Machine, VirtAddr) {
        let mut m = Machine::new();
        let base = VirtAddr::new(0x10_0000);
        m.map_region(base, 1 << 16, "heap").unwrap();
        (m, base)
    }

    #[test]
    fn app_access_inside_object_is_silent() {
        let (mut m, base) = machine_with_heap();
        configured_watch(&mut m, base + 64, ThreadId::MAIN);
        m.app_write(ThreadId::MAIN, base, 64).unwrap();
        m.app_read(ThreadId::MAIN, base + 56, 8).unwrap();
        assert!(!m.has_pending_signals());
    }

    #[test]
    fn overflow_fires_trap_with_site() {
        let (mut m, base) = machine_with_heap();
        let fd = configured_watch(&mut m, base + 64, ThreadId::MAIN);
        m.set_current_site(ThreadId::MAIN, SiteToken(42));
        m.app_read(ThreadId::MAIN, base + 64, 4).unwrap();
        let sigs = m.take_signals();
        assert_eq!(sigs.len(), 1);
        let s = sigs[0];
        assert_eq!(s.signal, Signal::Trap);
        assert_eq!(s.fd, Some(fd));
        assert_eq!(s.thread, ThreadId::MAIN);
        assert_eq!(s.site, SiteToken(42));
        assert_eq!(s.fault_addr, base + 64);
        assert_eq!(s.access, AccessKind::Read);
        assert!(!m.has_pending_signals(), "take_signals drains the queue");
    }

    #[test]
    fn unmapped_access_raises_segv() {
        let (mut m, base) = machine_with_heap();
        let far = base + (1 << 20);
        assert!(m.app_write(ThreadId::MAIN, far, 8).is_err());
        let sigs = m.take_signals();
        assert_eq!(sigs.len(), 1);
        assert_eq!(sigs[0].signal, Signal::Segv);
        assert_eq!(sigs[0].fault_addr, far);
    }

    #[test]
    fn watch_on_other_thread_does_not_fire() {
        let (mut m, base) = machine_with_heap();
        let worker = m.spawn_thread();
        configured_watch(&mut m, base + 64, ThreadId::MAIN);
        // Worker touches the watched word, but only MAIN has the event.
        m.app_write(worker, base + 64, 8).unwrap();
        assert!(!m.has_pending_signals());
        // Installing on the worker too (as CSOD does for all threads) fires.
        configured_watch(&mut m, base + 64, worker);
        m.app_write(worker, base + 64, 8).unwrap();
        let sigs = m.take_signals();
        assert_eq!(sigs.len(), 1);
        assert_eq!(sigs[0].thread, worker);
    }

    #[test]
    fn raw_backdoor_is_invisible() {
        let (mut m, base) = machine_with_heap();
        configured_watch(&mut m, base + 64, ThreadId::MAIN);
        let before = m.counter().clone();
        m.raw_store_u64(base + 64, 0xCAFE).unwrap();
        assert_eq!(m.raw_load_u64(base + 64).unwrap(), 0xCAFE);
        assert!(!m.has_pending_signals());
        assert_eq!(m.counter(), &before, "backdoor charges nothing");
    }

    #[test]
    fn accounting_buckets() {
        let (mut m, base) = machine_with_heap();
        let t0 = m.now();
        m.app_write(ThreadId::MAIN, base, 8).unwrap();
        m.app_compute(10);
        m.wait_io(VirtDuration::from_millis(1));
        let c = m.counter();
        assert_eq!(c.accesses(), 1);
        assert_eq!(
            c.app_ns(),
            m.costs().mem_access + 10 * m.costs().app_compute
        );
        assert_eq!(c.io_ns(), 1_000_000);
        assert_eq!((m.now() - t0).as_nanos(), c.total_ns());
    }

    #[test]
    fn syscalls_charge_tool_time() {
        let (mut m, base) = machine_with_heap();
        configured_watch(&mut m, base + 64, ThreadId::MAIN);
        let c = m.counter();
        assert_eq!(c.syscalls(), 5, "open + 3 fcntl + ioctl");
        let expected = m.costs().perf_event_open + 4 * m.costs().syscall;
        assert_eq!(c.tool_ns(), expected);
        assert!(c.normalized_overhead() > 1.0 || c.baseline_ns() == 0);
    }

    #[test]
    fn open_on_dead_thread_is_esrch() {
        let (mut m, base) = machine_with_heap();
        let worker = m.spawn_thread();
        m.exit_thread(worker).unwrap();
        assert_eq!(
            m.sys_perf_event_open(PerfEventAttr::rw_word(base), worker),
            Err(PerfError::NoSuchThread(worker))
        );
    }

    #[test]
    fn thread_exit_releases_registers() {
        let (mut m, base) = machine_with_heap();
        let worker = m.spawn_thread();
        for i in 0..4 {
            configured_watch(&mut m, base + 64 + i * 8, worker);
        }
        assert_eq!(m.free_registers(worker), 0);
        m.exit_thread(worker).unwrap();
        let again = m.spawn_thread();
        assert_eq!(m.free_registers(again), 4);
    }

    #[test]
    fn multiple_watchpoints_can_fire_in_one_access() {
        let (mut m, base) = machine_with_heap();
        // Two adjacent watched words; a 16-byte access covers both.
        configured_watch(&mut m, base + 64, ThreadId::MAIN);
        configured_watch(&mut m, base + 72, ThreadId::MAIN);
        m.app_read(ThreadId::MAIN, base + 60, 20).unwrap();
        assert_eq!(m.take_signals().len(), 2);
    }

    #[test]
    fn ptrace_watch_behaves_like_perf_but_costs_more() {
        let (mut m, base) = machine_with_heap();
        let fd = m
            .sys_ptrace_watch(PerfEventAttr::rw_word(base + 64), ThreadId::MAIN)
            .unwrap();
        let ptrace_cost = m.counter().tool_ns();
        m.app_write(ThreadId::MAIN, base + 64, 8).unwrap();
        let sigs = m.take_signals();
        assert_eq!(sigs.len(), 1, "ptrace-installed watchpoints trap too");
        assert_eq!(sigs[0].fd, Some(fd));
        m.sys_ptrace_unwatch(fd).unwrap();
        assert_eq!(m.open_events(), 0);

        // The perf route is much cheaper for the same effect.
        let mut m2 = Machine::new();
        m2.map_region(base, 1 << 16, "heap").unwrap();
        configured_watch(&mut m2, base + 64, ThreadId::MAIN);
        assert!(
            ptrace_cost > 3 * m2.counter().tool_ns(),
            "ptrace {} vs perf {}",
            ptrace_cost,
            m2.counter().tool_ns()
        );
    }

    #[test]
    fn ptrace_watch_on_dead_thread_fails_after_attach() {
        let (mut m, base) = machine_with_heap();
        let worker = m.spawn_thread();
        m.exit_thread(worker).unwrap();
        assert_eq!(
            m.sys_ptrace_watch(PerfEventAttr::rw_word(base), worker),
            Err(PerfError::NoSuchThread(worker))
        );
    }

    #[test]
    fn combined_syscall_covers_all_threads_in_one_entry() {
        let (mut m, base) = machine_with_heap();
        let worker = m.spawn_thread();
        let fds = m
            .sys_watch_all_threads(PerfEventAttr::rw_word(base + 64))
            .unwrap();
        assert_eq!(fds.len(), 2);
        assert_eq!(m.counter().syscalls(), 1, "one kernel entry");
        m.app_write(worker, base + 64, 8).unwrap();
        assert_eq!(m.take_signals().len(), 1);
        let raw: Vec<Fd> = fds.iter().map(|&(_, fd)| fd).collect();
        m.sys_unwatch_all(&raw);
        assert_eq!(m.open_events(), 0);
        assert_eq!(m.counter().syscalls(), 2);
    }

    #[test]
    fn combined_syscall_is_atomic_on_register_exhaustion() {
        let (mut m, base) = machine_with_heap();
        let worker = m.spawn_thread();
        // Exhaust the worker's registers only.
        for i in 0..4 {
            configured_watch(&mut m, base + 128 + i * 8, worker);
        }
        let err = m.sys_watch_all_threads(PerfEventAttr::rw_word(base + 64));
        assert_eq!(err, Err(PerfError::NoFreeRegister(worker)));
        // MAIN's register claimed during the attempt was rolled back.
        assert_eq!(m.free_registers(ThreadId::MAIN), 4);
    }

    #[test]
    fn teardown_batch_closes_all_in_one_entry() {
        let (mut m, base) = machine_with_heap();
        let a = configured_watch(&mut m, base + 64, ThreadId::MAIN);
        let b = configured_watch(&mut m, base + 128, ThreadId::MAIN);
        let syscalls = m.counter().syscalls();
        m.sys_teardown_batch(&[a, b]);
        assert_eq!(m.counter().syscalls(), syscalls + 1, "one kernel entry");
        assert_eq!(m.open_events(), 0);
        assert_eq!(m.free_registers(ThreadId::MAIN), 4);
        // An empty batch never enters the kernel; stale fds are skipped
        // silently (close on an already-closed descriptor).
        m.sys_teardown_batch(&[]);
        assert_eq!(m.counter().syscalls(), syscalls + 1);
        m.sys_teardown_batch(&[a]);
        assert_eq!(m.counter().syscalls(), syscalls + 2);
        assert_eq!(m.open_events(), 0);
    }

    #[test]
    fn pmu_samples_every_nth_access() {
        let (mut m, base) = machine_with_heap();
        m.pmu_enable(4);
        for i in 0..12 {
            m.app_read(ThreadId::MAIN, base + i * 8, 8).unwrap();
        }
        let samples = m.take_pmu_samples();
        assert_eq!(samples.len(), 3, "every 4th of 12 accesses");
        // The 4th access touched base + 3*8.
        assert_eq!(samples[0].addr, base + 24);
        assert!(m.take_pmu_samples().is_empty(), "drained");
        m.pmu_disable();
        m.app_read(ThreadId::MAIN, base, 8).unwrap();
        assert!(m.take_pmu_samples().is_empty());
    }

    #[test]
    fn pmu_bulk_accesses_charge_per_sample() {
        let (mut m, base) = machine_with_heap();
        m.pmu_enable(100);
        let tool_before = m.counter().tool_ns();
        m.app_access_bulk(ThreadId::MAIN, base, 8, AccessKind::Read, 1_000)
            .unwrap();
        let samples = m.take_pmu_samples();
        // 1000 accesses at period 100 -> 10 sampling points, one queued
        // representative (same address), full cost for all ten.
        assert!(!samples.is_empty());
        assert_eq!(
            m.counter().tool_ns() - tool_before,
            10 * m.costs().pmu_sample
        );
        // The countdown continues correctly across calls.
        for _ in 0..99 {
            m.app_read(ThreadId::MAIN, base, 8).unwrap();
        }
        assert!(m.take_pmu_samples().is_empty(), "99 more: not yet");
        m.app_read(ThreadId::MAIN, base, 8).unwrap();
        assert_eq!(m.take_pmu_samples().len(), 1, "the 100th fires");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn pmu_zero_period_rejected() {
        Machine::new().pmu_enable(0);
    }

    #[test]
    fn resident_bytes_track_touched_pages() {
        let mut m = Machine::new();
        m.map_region(VirtAddr::new(0x10_0000), 256 << 20, "heap")
            .unwrap();
        assert_eq!(m.mem.mapped_bytes(), 256 << 20);
        assert_eq!(m.mem.resident_bytes(), 0, "mapping alone touches nothing");
        m.raw_store_u64(VirtAddr::new(0x10_0000), 1).unwrap();
        assert!(m.mem.resident_bytes() > 0);
        assert!(
            m.mem.resident_bytes() < 1 << 20,
            "one chunk, not the region"
        );
    }

    #[test]
    fn skip_time_moves_clock_without_charges() {
        let mut m = Machine::new();
        m.skip_time(VirtDuration::from_secs(11));
        assert_eq!(m.now().as_nanos(), 11_000_000_000);
        assert_eq!(m.counter().total_ns(), 0);
    }
}
