//! The watchpoint substrate abstraction (ROADMAP item 2).
//!
//! [`Backend`] is the narrow waist between the CSOD runtime and whatever
//! provides watchpoints, trap delivery, threads, memory, and time. The
//! runtime ([`crate::Csod`]), the Watchpoint Management Unit
//! ([`crate::WatchpointManager`]) and the Canary Management Unit
//! ([`crate::CanaryUnit`]) are generic over `B: Backend`, so the same
//! decision logic runs unchanged against:
//!
//! - [`sim_machine::Machine`] — the deterministic simulator (the default
//!   and the parity reference; every syscall sequence and cost charge is
//!   bit-for-bit what the pre-trait code did),
//! - [`NullBackend`] — accepts every arm/disarm instantly and never
//!   traps, isolating the pure sampling/decision/mitigation path for
//!   ceiling benchmarks (`BENCH_backend.json`),
//! - `LinuxHwBackend` (feature `linux-hw`, Linux only) — real
//!   `perf_event_open` breakpoint descriptors in the current process.
//!
//! The vocabulary types ([`VirtAddr`], [`ThreadId`], [`Fd`],
//! [`VirtInstant`], [`SignalInfo`], [`PerfError`], [`MemoryError`]) stay
//! the shared protocol: they are plain data, not simulator handles, and
//! re-implementing them per backend would only fracture the report and
//! trace formats. See DESIGN.md §16 for the full trait contract.

use crate::config::WatchBackend;
use sim_heap::{HeapConfig, HeapError, SimHeap};
use sim_machine::{
    CostDomain, CostModel, FcntlCmd, Fd, FxBuild, IoctlCmd, Machine, MemoryError, PerfError,
    PerfEventAttr, Signal, SignalInfo, ThreadError, ThreadId, VirtAddr, VirtInstant,
};
use std::collections::HashMap;

/// A watchpoint/thread/memory/time substrate the CSOD runtime can drive.
///
/// # Contract
///
/// - **Arm/disarm:** [`Backend::arm_watch`] installs one armed watch
///   event over the 8-byte word at `canary_addr` on one thread and
///   returns a descriptor that is unique among the currently open ones.
///   [`Backend::disarm_watch`] releases it; disarming an already
///   disarmed (or never armed) descriptor must be a tolerated no-op —
///   the deferred-teardown drain may race a thread exit that already
///   closed the fd. Arming the same address twice yields two independent
///   descriptors (the manager arms one per alive thread).
/// - **Trap delivery:** [`Backend::take_signals`] drains every trap
///   accumulated since the previous call, in delivery order. A trap
///   whose descriptor was disarmed before the drain MUST still carry
///   the original `fd` so the fd-index generation check can classify it
///   as stale; a backend that cannot observe late traps (null) simply
///   never delivers any.
/// - **Threads:** ids are dense and never reused while alive;
///   [`Backend::exit_thread`] closes the thread's descriptors backend-
///   side (the manager forgets them via its own bookkeeping first).
/// - **Time and cost:** [`Backend::now`] is monotone;
///   [`Backend::charge_tool`] attributes nanoseconds to the tool's cost
///   domain. The null backend freezes the clock and charges nothing.
pub trait Backend {
    /// Current (virtual or wall) time.
    fn now(&self) -> VirtInstant;

    /// The per-operation costs this backend charges for the tool's work.
    /// The runtime reads the fast-path fields (`return_address`,
    /// `ctx_lookup`, `rng_draw`, `full_backtrace`, `canary_write`,
    /// `canary_check`); a backend that models no cost returns
    /// [`CostModel::FREE_OF_CHARGE`].
    fn tool_costs(&self) -> &CostModel;

    /// Attributes `ns` nanoseconds of tool work.
    fn charge_tool(&mut self, ns: u64);

    /// Drains pending signals (watchpoint traps, faults) in delivery
    /// order.
    fn take_signals(&mut self) -> Vec<SignalInfo>;

    /// Registers a newly created thread and returns its id.
    fn spawn_thread(&mut self) -> ThreadId;

    /// Unregisters an exited thread, closing its descriptors.
    ///
    /// # Errors
    ///
    /// [`ThreadError::NoSuchThread`] for unknown/dead threads and
    /// [`ThreadError::MainThreadExit`] for the main thread.
    fn exit_thread(&mut self, tid: ThreadId) -> Result<(), ThreadError>;

    /// Ids of all currently alive threads, in spawn order.
    fn alive_threads(&self) -> Vec<ThreadId>;

    /// Installs one armed watch event over the word at `canary_addr` on
    /// thread `tid`, via the given syscall route (Figure 3 for the
    /// `perf_event_open` route).
    ///
    /// # Errors
    ///
    /// [`PerfError`] when the substrate refuses (no free debug register,
    /// injected fault, dead thread). A mid-sequence failure must not
    /// leak a half-configured descriptor.
    fn arm_watch(
        &mut self,
        route: WatchBackend,
        canary_addr: VirtAddr,
        tid: ThreadId,
    ) -> Result<Fd, PerfError>;

    /// Tears down one watch event (Figure 4 for the perf route),
    /// tolerating injected failures — the descriptor is released
    /// regardless, so this never retries.
    fn disarm_watch(&mut self, route: WatchBackend, fd: Fd);

    /// Installs the watch on every alive thread through one combined
    /// kernel entry (the [`WatchBackend::CombinedSyscall`] route).
    ///
    /// # Errors
    ///
    /// [`PerfError`] when any thread cannot be armed; no thread stays
    /// armed after a failure.
    fn arm_watch_all_threads(
        &mut self,
        canary_addr: VirtAddr,
    ) -> Result<Vec<(ThreadId, Fd)>, PerfError>;

    /// Tears down a whole batch of descriptors in as few kernel entries
    /// as the route allows: one for the perf and combined routes,
    /// per-descriptor round trips for `ptrace`.
    fn disarm_batch(&mut self, route: WatchBackend, fds: &[Fd]);

    /// Stores a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemoryError`] when the word is not mapped.
    fn store_u64(&mut self, addr: VirtAddr, value: u64) -> Result<(), MemoryError>;

    /// Loads a little-endian `u64` from `addr`.
    ///
    /// # Errors
    ///
    /// [`MemoryError`] when the word is not mapped.
    fn load_u64(&self, addr: VirtAddr) -> Result<u64, MemoryError>;

    /// Writes `data` starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemoryError`] when the range is not mapped.
    fn write_bytes(&mut self, addr: VirtAddr, data: &[u8]) -> Result<(), MemoryError>;

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemoryError`] when the range is not mapped.
    fn read_bytes(&self, addr: VirtAddr, buf: &mut [u8]) -> Result<(), MemoryError>;

    /// Fills `len` bytes from `addr` with `byte`.
    ///
    /// # Errors
    ///
    /// [`MemoryError`] when the range is not mapped.
    fn fill(&mut self, addr: VirtAddr, len: u64, byte: u8) -> Result<(), MemoryError>;
}

/// An allocator the CSOD runtime can interpose on, tied to a backend's
/// address space.
pub trait HeapBackend<B: ?Sized> {
    /// Allocates `size` bytes.
    ///
    /// # Errors
    ///
    /// [`HeapError`] when the allocation cannot be satisfied.
    fn malloc(&mut self, backend: &mut B, size: u64) -> Result<VirtAddr, HeapError>;

    /// Allocates `size` bytes aligned to `align` (a power of two).
    ///
    /// # Errors
    ///
    /// [`HeapError`] for exhaustion or a bad alignment.
    fn memalign(&mut self, backend: &mut B, align: u64, size: u64) -> Result<VirtAddr, HeapError>;

    /// Frees the block starting at `addr`, returning its size.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidPointer`] for wild pointers and double frees.
    fn free(&mut self, backend: &mut B, addr: VirtAddr) -> Result<u64, HeapError>;
}

// ----- sim-machine: the reference implementation ---------------------------------

impl Backend for Machine {
    fn now(&self) -> VirtInstant {
        Machine::now(self)
    }

    fn tool_costs(&self) -> &CostModel {
        self.costs()
    }

    fn charge_tool(&mut self, ns: u64) {
        self.charge(CostDomain::Tool, ns);
    }

    fn take_signals(&mut self) -> Vec<SignalInfo> {
        Machine::take_signals(self)
    }

    fn spawn_thread(&mut self) -> ThreadId {
        Machine::spawn_thread(self)
    }

    fn exit_thread(&mut self, tid: ThreadId) -> Result<(), ThreadError> {
        Machine::exit_thread(self, tid)
    }

    fn alive_threads(&self) -> Vec<ThreadId> {
        self.threads().alive().collect()
    }

    /// The Figure-3 installation sequence, verbatim from the pre-trait
    /// code: `perf_event_open`, the four `fcntl` steps, `ioctl(ENABLE)`
    /// — with a best-effort close on a mid-sequence failure so callers
    /// never see a leaked fd (EINTR on close still releases it).
    fn arm_watch(
        &mut self,
        route: WatchBackend,
        canary_addr: VirtAddr,
        tid: ThreadId,
    ) -> Result<Fd, PerfError> {
        match route {
            WatchBackend::Ptrace => self.sys_ptrace_watch(PerfEventAttr::rw_word(canary_addr), tid),
            _ => {
                let fd = self.sys_perf_event_open(PerfEventAttr::rw_word(canary_addr), tid)?;
                let sequence = |machine: &mut Machine| -> Result<(), PerfError> {
                    let _flags = machine.sys_fcntl(fd, FcntlCmd::GetFl)?;
                    machine.sys_fcntl(fd, FcntlCmd::SetFlAsync)?;
                    machine.sys_fcntl(fd, FcntlCmd::SetSig(Signal::Trap))?;
                    machine.sys_fcntl(fd, FcntlCmd::SetOwn(tid))?;
                    machine.sys_ioctl(fd, IoctlCmd::Enable)?;
                    Ok(())
                };
                match sequence(self) {
                    Ok(()) => Ok(fd),
                    Err(e) => {
                        let _ = self.sys_close(fd);
                        Err(e)
                    }
                }
            }
        }
    }

    /// The Figure-4 teardown: `ioctl(DISABLE)` + `close`, or the ptrace
    /// detach. Injected `EINTR`s are tolerated without retrying — the
    /// kernel releases the descriptor regardless, and retrying a close
    /// is the classic double-close bug.
    fn disarm_watch(&mut self, route: WatchBackend, fd: Fd) {
        match route {
            WatchBackend::Ptrace => {
                let _ = self.sys_ptrace_unwatch(fd);
            }
            _ => {
                let _ = self.sys_ioctl(fd, IoctlCmd::Disable);
                let _ = self.sys_close(fd);
            }
        }
    }

    fn arm_watch_all_threads(
        &mut self,
        canary_addr: VirtAddr,
    ) -> Result<Vec<(ThreadId, Fd)>, PerfError> {
        self.sys_watch_all_threads(PerfEventAttr::rw_word(canary_addr))
    }

    fn disarm_batch(&mut self, route: WatchBackend, fds: &[Fd]) {
        match route {
            WatchBackend::Ptrace => {
                for fd in fds {
                    let _ = self.sys_ptrace_unwatch(*fd);
                }
            }
            WatchBackend::CombinedSyscall => self.sys_unwatch_all(fds),
            WatchBackend::PerfEvent => self.sys_teardown_batch(fds),
        }
    }

    fn store_u64(&mut self, addr: VirtAddr, value: u64) -> Result<(), MemoryError> {
        self.raw_store_u64(addr, value)
    }

    fn load_u64(&self, addr: VirtAddr) -> Result<u64, MemoryError> {
        self.raw_load_u64(addr)
    }

    fn write_bytes(&mut self, addr: VirtAddr, data: &[u8]) -> Result<(), MemoryError> {
        self.raw_write_bytes(addr, data)
    }

    fn read_bytes(&self, addr: VirtAddr, buf: &mut [u8]) -> Result<(), MemoryError> {
        self.raw_read_bytes(addr, buf)
    }

    fn fill(&mut self, addr: VirtAddr, len: u64, byte: u8) -> Result<(), MemoryError> {
        self.raw_fill(addr, len, byte)
    }
}

impl HeapBackend<Machine> for SimHeap {
    fn malloc(&mut self, backend: &mut Machine, size: u64) -> Result<VirtAddr, HeapError> {
        SimHeap::malloc(self, backend, size)
    }

    fn memalign(
        &mut self,
        backend: &mut Machine,
        align: u64,
        size: u64,
    ) -> Result<VirtAddr, HeapError> {
        SimHeap::memalign(self, backend, align, size)
    }

    fn free(&mut self, backend: &mut Machine, addr: VirtAddr) -> Result<u64, HeapError> {
        SimHeap::free(self, backend, addr)
    }
}

// ----- the null backend ----------------------------------------------------------

/// A substrate that accepts every arm/disarm instantly and never traps.
///
/// Everything the decision path needs still works — memory round-trips
/// (so canary imprint/verify behaves), thread and descriptor bookkeeping
/// (so conformance holds) — but arming is a counter increment, the clock
/// is frozen at boot, and every tool cost is zero. What remains when the
/// runtime runs on this backend is the pure sampling/decision/mitigation
/// path, which is exactly what `BENCH_backend.json` measures: the
/// detector's own ceiling, with the substrate cost at zero.
///
/// What it does **not** measure: trap handling (nothing ever fires),
/// syscall latency, contention on real debug registers, or allocator
/// cost beyond a bump pointer.
#[derive(Debug, Default)]
pub struct NullBackend {
    next_fd: u64,
    next_tid: u32,
    alive: Vec<ThreadId>,
    /// Armed descriptors → watched word, for conformance introspection.
    armed: HashMap<u64, u64, FxBuild>,
    /// Dense byte storage for the [`NullHeap`] range, indexed by
    /// `addr - NULL_HEAP_BASE` and grown on demand. Backing canary
    /// round-trips needs actual storage (a backend that read zeroes
    /// would report every canary corrupted), and the heap bump-
    /// allocates contiguously, so a flat vector keeps the ceiling
    /// benchmark's memory cost at memcpy level instead of hashing.
    dense: Vec<u8>,
    /// Word-granular sparse fallback (key = addr & !7) for addresses
    /// below the heap base — conformance tests poke arbitrary words.
    mem: HashMap<u64, u64, FxBuild>,
    charged_ns: u64,
}

impl NullBackend {
    /// Creates a null backend with only the main thread alive.
    pub fn new() -> Self {
        NullBackend {
            next_fd: 1,
            next_tid: 1,
            alive: vec![ThreadId::MAIN],
            armed: HashMap::default(),
            dense: Vec::new(),
            mem: HashMap::default(),
            charged_ns: 0,
        }
    }

    /// Number of descriptors currently armed.
    pub fn armed_count(&self) -> usize {
        self.armed.len()
    }

    /// Total nanoseconds charged to the tool domain (zero unless a
    /// caller charges explicit amounts).
    pub fn charged_ns(&self) -> u64 {
        self.charged_ns
    }

    /// Grows the dense heap storage to cover `addr..addr+len` and
    /// returns the starting index, or `None` for addresses below the
    /// heap base (those take the sparse path).
    fn dense_range(&mut self, addr: u64, len: u64) -> Option<usize> {
        let offset = addr.checked_sub(NULL_HEAP_BASE)?;
        // Bump-allocated offsets are far below usize::MAX on any
        // supported target.
        #[allow(clippy::cast_possible_truncation)]
        let (start, len) = (offset as usize, len as usize);
        let end = start.checked_add(len)?;
        if self.dense.len() < end {
            self.dense.resize(end, 0);
        }
        Some(start)
    }

    /// Read-side companion to [`NullBackend::dense_range`]: never grows,
    /// reads past the grown region see zeros (fresh memory).
    fn dense_at(&self, addr: u64) -> Option<&[u8]> {
        let offset = addr.checked_sub(NULL_HEAP_BASE)?;
        #[allow(clippy::cast_possible_truncation)]
        Some(self.dense.get(offset as usize..).unwrap_or(&[]))
    }

    fn store_byte(&mut self, addr: u64, byte: u8) {
        if let Some(start) = self.dense_range(addr, 1) {
            self.dense[start] = byte;
            return;
        }
        let key = addr & !7;
        let shift = (addr & 7) * 8;
        let word = self.mem.get(&key).copied().unwrap_or(0);
        self.mem.insert(
            key,
            (word & !(0xFFu64 << shift)) | (u64::from(byte) << shift),
        );
    }

    fn load_byte(&self, addr: u64) -> u8 {
        if let Some(tail) = self.dense_at(addr) {
            return tail.first().copied().unwrap_or(0);
        }
        let word = self.mem.get(&(addr & !7)).copied().unwrap_or(0);
        // Shifting a u64 right by (addr & 7) * 8 ≤ 56 then masking to
        // one byte is lossless.
        #[allow(clippy::cast_possible_truncation)]
        {
            (word >> ((addr & 7) * 8)) as u8
        }
    }
}

impl Backend for NullBackend {
    /// Frozen at boot: the null backend measures work, not time.
    fn now(&self) -> VirtInstant {
        VirtInstant::BOOT
    }

    fn tool_costs(&self) -> &CostModel {
        &CostModel::FREE_OF_CHARGE
    }

    fn charge_tool(&mut self, ns: u64) {
        self.charged_ns += ns;
    }

    /// Never traps.
    fn take_signals(&mut self) -> Vec<SignalInfo> {
        Vec::new()
    }

    fn spawn_thread(&mut self) -> ThreadId {
        let tid = ThreadId::from_u32(self.next_tid);
        self.next_tid += 1;
        self.alive.push(tid);
        tid
    }

    fn exit_thread(&mut self, tid: ThreadId) -> Result<(), ThreadError> {
        if tid == ThreadId::MAIN {
            return Err(ThreadError::MainThreadExit);
        }
        let Some(i) = self.alive.iter().position(|&t| t == tid) else {
            return Err(ThreadError::NoSuchThread(tid));
        };
        self.alive.remove(i);
        Ok(())
    }

    fn alive_threads(&self) -> Vec<ThreadId> {
        self.alive.clone()
    }

    fn arm_watch(
        &mut self,
        _route: WatchBackend,
        canary_addr: VirtAddr,
        _tid: ThreadId,
    ) -> Result<Fd, PerfError> {
        let fd = Fd::from_raw(self.next_fd);
        self.next_fd += 1;
        self.armed.insert(fd.as_raw(), canary_addr.as_u64());
        Ok(fd)
    }

    fn disarm_watch(&mut self, _route: WatchBackend, fd: Fd) {
        self.armed.remove(&fd.as_raw());
    }

    fn arm_watch_all_threads(
        &mut self,
        canary_addr: VirtAddr,
    ) -> Result<Vec<(ThreadId, Fd)>, PerfError> {
        let tids = self.alive.clone();
        Ok(tids
            .into_iter()
            .map(|tid| {
                let fd = Fd::from_raw(self.next_fd);
                self.next_fd += 1;
                self.armed.insert(fd.as_raw(), canary_addr.as_u64());
                (tid, fd)
            })
            .collect())
    }

    fn disarm_batch(&mut self, _route: WatchBackend, fds: &[Fd]) {
        for fd in fds {
            self.armed.remove(&fd.as_raw());
        }
    }

    fn store_u64(&mut self, addr: VirtAddr, value: u64) -> Result<(), MemoryError> {
        let a = addr.as_u64();
        if let Some(start) = self.dense_range(a, 8) {
            self.dense[start..start + 8].copy_from_slice(&value.to_le_bytes());
        } else if a & 7 == 0 {
            self.mem.insert(a, value);
        } else {
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                self.store_byte(a + i as u64, *b);
            }
        }
        Ok(())
    }

    fn load_u64(&self, addr: VirtAddr) -> Result<u64, MemoryError> {
        let a = addr.as_u64();
        if let Some(tail) = self.dense_at(a) {
            let mut bytes = [0u8; 8];
            let have = tail.len().min(8);
            bytes[..have].copy_from_slice(&tail[..have]);
            return Ok(u64::from_le_bytes(bytes));
        }
        if a & 7 == 0 {
            return Ok(self.mem.get(&a).copied().unwrap_or(0));
        }
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.load_byte(a + i as u64);
        }
        Ok(u64::from_le_bytes(bytes))
    }

    fn write_bytes(&mut self, addr: VirtAddr, data: &[u8]) -> Result<(), MemoryError> {
        let a = addr.as_u64();
        if let Some(start) = self.dense_range(a, data.len() as u64) {
            self.dense[start..start + data.len()].copy_from_slice(data);
            return Ok(());
        }
        for (i, b) in data.iter().enumerate() {
            self.store_byte(a + i as u64, *b);
        }
        Ok(())
    }

    fn read_bytes(&self, addr: VirtAddr, buf: &mut [u8]) -> Result<(), MemoryError> {
        let a = addr.as_u64();
        if let Some(tail) = self.dense_at(a) {
            let have = tail.len().min(buf.len());
            buf[..have].copy_from_slice(&tail[..have]);
            buf[have..].fill(0);
            return Ok(());
        }
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.load_byte(a + i as u64);
        }
        Ok(())
    }

    fn fill(&mut self, addr: VirtAddr, len: u64, byte: u8) -> Result<(), MemoryError> {
        let a = addr.as_u64();
        if let Some(start) = self.dense_range(a, len) {
            #[allow(clippy::cast_possible_truncation)]
            self.dense[start..start + len as usize].fill(byte);
            return Ok(());
        }
        for i in 0..len {
            self.store_byte(a + i, byte);
        }
        Ok(())
    }
}

/// A bump allocator over the null backend's sparse address space: `free`
/// releases nothing (addresses are never reused), which is exactly the
/// ceiling-benchmark posture — allocator cost at (almost) zero, every
/// pointer unique so the runtime's record keeping still behaves.
#[derive(Debug)]
pub struct NullHeap {
    next: u64,
    live: HashMap<u64, u64, FxBuild>,
}

/// First address handed out; leaves address 0 (and a guard gap) unused.
const NULL_HEAP_BASE: u64 = 0x1000_0000;

impl Default for NullHeap {
    fn default() -> Self {
        NullHeap::new()
    }
}

impl NullHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        NullHeap {
            next: NULL_HEAP_BASE,
            live: HashMap::default(),
        }
    }

    /// Number of live (allocated, not yet freed) blocks.
    pub fn live_blocks(&self) -> usize {
        self.live.len()
    }
}

impl HeapBackend<NullBackend> for NullHeap {
    fn malloc(&mut self, backend: &mut NullBackend, size: u64) -> Result<VirtAddr, HeapError> {
        self.memalign(backend, 16, size)
    }

    fn memalign(
        &mut self,
        _backend: &mut NullBackend,
        align: u64,
        size: u64,
    ) -> Result<VirtAddr, HeapError> {
        if !align.is_power_of_two() {
            return Err(HeapError::BadAlignment(align));
        }
        let addr = self.next.next_multiple_of(align.max(16));
        let grown = size.max(1);
        self.next = addr + grown;
        self.live.insert(addr, grown);
        Ok(VirtAddr::new(addr))
    }

    fn free(&mut self, _backend: &mut NullBackend, addr: VirtAddr) -> Result<u64, HeapError> {
        self.live
            .remove(&addr.as_u64())
            .ok_or(HeapError::InvalidPointer(addr))
    }
}

/// Builds a [`SimHeap`] on `machine` with the default configuration —
/// convenience for harnesses that pair the sim backend with its heap.
///
/// # Panics
///
/// Panics if the machine cannot map the heap region (only possible when
/// the caller already mapped an overlapping region).
pub fn sim_heap(machine: &mut Machine) -> SimHeap {
    SimHeap::new(machine, HeapConfig::default()).expect("heap region maps on a fresh machine")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_memory_round_trips_words_and_bytes() {
        let mut b = NullBackend::new();
        b.store_u64(VirtAddr::new(0x1000), 0xDEAD_BEEF_F00D_CAFE)
            .unwrap();
        assert_eq!(
            b.load_u64(VirtAddr::new(0x1000)).unwrap(),
            0xDEAD_BEEF_F00D_CAFE
        );
        // Unaligned store straddling two words.
        b.store_u64(VirtAddr::new(0x2003), 0x0102_0304_0506_0708)
            .unwrap();
        assert_eq!(
            b.load_u64(VirtAddr::new(0x2003)).unwrap(),
            0x0102_0304_0506_0708
        );
        b.write_bytes(VirtAddr::new(0x3001), b"hello").unwrap();
        let mut buf = [0u8; 5];
        b.read_bytes(VirtAddr::new(0x3001), &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        b.fill(VirtAddr::new(0x4000), 9, 0xAB).unwrap();
        assert_eq!(
            b.load_u64(VirtAddr::new(0x4000)).unwrap(),
            0xABAB_ABAB_ABAB_ABAB
        );
        assert_eq!(b.load_byte(0x4008), 0xAB);
        assert_eq!(b.load_byte(0x4009), 0);
    }

    #[test]
    fn null_arm_disarm_bookkeeping() {
        let mut b = NullBackend::new();
        let fd = b
            .arm_watch(
                WatchBackend::PerfEvent,
                VirtAddr::new(0x100),
                ThreadId::MAIN,
            )
            .unwrap();
        assert!(b.armed.contains_key(&fd.as_raw()));
        assert_eq!(b.armed_count(), 1);
        b.disarm_watch(WatchBackend::PerfEvent, fd);
        assert!(!b.armed.contains_key(&fd.as_raw()));
        // Double disarm tolerated.
        b.disarm_watch(WatchBackend::PerfEvent, fd);
        assert_eq!(b.armed_count(), 0);
        assert!(b.take_signals().is_empty());
    }

    #[test]
    fn null_threads_spawn_and_exit() {
        let mut b = NullBackend::new();
        let t1 = b.spawn_thread();
        let t2 = b.spawn_thread();
        assert_eq!(b.alive_threads(), vec![ThreadId::MAIN, t1, t2]);
        let fds = b.arm_watch_all_threads(VirtAddr::new(0x200)).unwrap();
        assert_eq!(fds.len(), 3);
        b.exit_thread(t1).unwrap();
        assert_eq!(b.exit_thread(t1), Err(ThreadError::NoSuchThread(t1)));
        assert_eq!(
            b.exit_thread(ThreadId::MAIN),
            Err(ThreadError::MainThreadExit)
        );
    }

    #[test]
    fn null_heap_is_bump_with_live_tracking() {
        let mut b = NullBackend::new();
        let mut h = NullHeap::new();
        let p = h.malloc(&mut b, 40).unwrap();
        let q = h.malloc(&mut b, 8).unwrap();
        assert!(q > p);
        assert_eq!(p.as_u64() % 16, 0);
        let a = h.memalign(&mut b, 4096, 10).unwrap();
        assert_eq!(a.as_u64() % 4096, 0);
        assert_eq!(h.live_blocks(), 3);
        assert_eq!(h.free(&mut b, p).unwrap(), 40);
        assert_eq!(h.free(&mut b, p), Err(HeapError::InvalidPointer(p)));
        assert_eq!(h.memalign(&mut b, 3, 8), Err(HeapError::BadAlignment(3)));
    }

    #[test]
    fn machine_impl_matches_direct_calls() {
        let mut m = Machine::new();
        let base = VirtAddr::new(0x10_0000);
        m.map_region(base, 4096, "heap").unwrap();
        Backend::store_u64(&mut m, base, 42).unwrap();
        assert_eq!(Backend::load_u64(&m, base).unwrap(), 42);
        let before = m.counter().syscalls();
        let fd = m
            .arm_watch(WatchBackend::PerfEvent, base + 56, ThreadId::MAIN)
            .unwrap();
        // Figure 3 is six kernel entries: open, four fcntls, ioctl.
        assert_eq!(m.counter().syscalls(), before + 6);
        m.disarm_watch(WatchBackend::PerfEvent, fd);
        assert_eq!(m.open_events(), 0);
    }
}
