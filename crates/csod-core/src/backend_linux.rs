//! The real-hardware backend (feature `linux-hw`, Linux x86_64/aarch64).
//!
//! [`LinuxHwBackend`] implements [`Backend`](crate::Backend) over actual
//! `perf_event_open` hardware-breakpoint descriptors in the *current*
//! process: arming places a length-8 read/write breakpoint on the canary
//! word exactly as the paper's Figure 3 does, and trap polling reads the
//! event counts back from the descriptors. [`LinuxHeap`] is the matching
//! [`HeapBackend`](crate::HeapBackend) over `std::alloc`, and
//! [`CsodShimAlloc`] is a `#[global_allocator]`-compatible shim that
//! gives every allocation in a real Rust process an 8-byte trailing
//! canary, so the `linux_hw_smoke` example can demonstrate an injected
//! overflow being caught end to end.
//!
//! The container has no `libc` crate, so the three syscalls this module
//! needs (`perf_event_open`, `ioctl`, `close`, plus `read` for count
//! polling) are issued directly via inline assembly. Deviations from the
//! simulator, by design:
//!
//! - Trap delivery is by **count polling**, not `F_SETSIG` signal
//!   delivery: an async signal handler cannot safely call back into the
//!   runtime, so [`Backend::take_signals`] reads each armed descriptor's
//!   event count and synthesizes one trap per increment. The overflow
//!   *site* is therefore unknown ([`SiteToken`] 0) — precise site
//!   attribution needs the signal path the simulator models.
//! - Threads are registered logically; all descriptors target the
//!   calling thread (`pid = 0`), which is what the smoke test needs.
//!
//! Everything here degrades loudly, not silently: if the kernel refuses
//! breakpoints (seccomp, `perf_event_paranoid`, missing CAP_PERFMON —
//! normal inside containers), `arm_watch` returns the mapped
//! [`PerfError`] and callers fall back to canary evidence.

use crate::backend::{Backend, HeapBackend};
use crate::config::WatchBackend;
use sim_heap::HeapError;
use sim_machine::{
    AccessKind, CostModel, Fd, FxBuild, MemoryError, PerfError, Signal, SignalInfo, SiteToken,
    ThreadError, ThreadId, VirtAddr, VirtDuration, VirtInstant,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

// ----- raw syscalls ---------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const READ: u64 = 0;
    pub const CLOSE: u64 = 3;
    pub const IOCTL: u64 = 16;
    pub const PERF_EVENT_OPEN: u64 = 298;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const READ: u64 = 63;
    pub const CLOSE: u64 = 57;
    pub const IOCTL: u64 = 29;
    pub const PERF_EVENT_OPEN: u64 = 241;
}

/// Issues a raw syscall, returning the kernel's value (negative errno on
/// failure, as the raw ABI does — no errno relocation).
#[cfg(target_arch = "x86_64")]
unsafe fn syscall5(n: u64, a1: u64, a2: u64, a3: u64, a4: u64, a5: u64) -> i64 {
    let ret: i64;
    std::arch::asm!(
        "syscall",
        inlateout("rax") n as i64 => ret,
        in("rdi") a1,
        in("rsi") a2,
        in("rdx") a3,
        in("r10") a4,
        in("r8") a5,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
    ret
}

#[cfg(target_arch = "aarch64")]
unsafe fn syscall5(n: u64, a1: u64, a2: u64, a3: u64, a4: u64, a5: u64) -> i64 {
    let ret: i64;
    std::arch::asm!(
        "svc 0",
        in("x8") n,
        inlateout("x0") a1 => ret,
        in("x1") a2,
        in("x2") a3,
        in("x3") a4,
        in("x4") a5,
        options(nostack),
    );
    ret
}

const EINTR: i64 = -4;
const EBUSY: i64 = -16;
const EINVAL: i64 = -22;
const ENOSPC: i64 = -28;
const ESRCH: i64 = -3;

/// `perf_event_attr` through `PERF_ATTR_SIZE_VER1` (72 bytes): enough
/// for a hardware breakpoint, which only needs the `bp_*` fields.
#[repr(C)]
struct PerfEventAttrRaw {
    type_: u32,
    size: u32,
    config: u64,
    sample_period: u64,
    sample_type: u64,
    read_format: u64,
    flags: u64,
    wakeup_events: u32,
    bp_type: u32,
    bp_addr: u64,
    bp_len: u64,
}

const PERF_TYPE_BREAKPOINT: u32 = 5;
const PERF_ATTR_SIZE_VER1: u32 = 72;
/// `HW_BREAKPOINT_R | HW_BREAKPOINT_W`.
const HW_BREAKPOINT_RW: u32 = 3;
/// `disabled | exclude_kernel | exclude_hv` — the event starts disabled
/// (Figure 3 enables it explicitly) and counts only user-space accesses.
const ATTR_FLAGS: u64 = (1 << 0) | (1 << 5) | (1 << 6);
const PERF_EVENT_IOC_ENABLE: u64 = 0x2400;
const PERF_EVENT_IOC_DISABLE: u64 = 0x2401;
const PERF_FLAG_FD_CLOEXEC: u64 = 8;

fn perf_error_from_errno(err: i64, tid: ThreadId) -> PerfError {
    match err {
        EBUSY => PerfError::DeviceBusy(tid),
        ESRCH => PerfError::NoSuchThread(tid),
        EINVAL => PerfError::InvalidLength(8),
        ENOSPC => PerfError::NoSpace,
        EINTR => PerfError::Interrupted,
        // EPERM/EACCES (perf_event_paranoid, seccomp) and everything
        // else: the debug hardware is unavailable to us — transient
        // from the runtime's point of view, so the degradation ladder
        // handles it like a busy device.
        _ => PerfError::DeviceBusy(tid),
    }
}

/// Opens one enabled RW length-8 breakpoint on `addr` for the calling
/// thread, returning the raw fd.
fn open_breakpoint(addr: u64, tid: ThreadId) -> Result<i64, PerfError> {
    let attr = PerfEventAttrRaw {
        type_: PERF_TYPE_BREAKPOINT,
        size: PERF_ATTR_SIZE_VER1,
        config: 0,
        sample_period: 0,
        sample_type: 0,
        read_format: 0,
        flags: ATTR_FLAGS,
        wakeup_events: 0,
        bp_type: HW_BREAKPOINT_RW,
        bp_addr: addr,
        bp_len: 8,
    };
    // pid = 0 (calling thread), cpu = -1 (any), group_fd = -1.
    let fd = unsafe {
        syscall5(
            nr::PERF_EVENT_OPEN,
            std::ptr::addr_of!(attr) as u64,
            0,
            u64::MAX, // cpu = -1
            u64::MAX, // group_fd = -1
            PERF_FLAG_FD_CLOEXEC,
        )
    };
    if fd < 0 {
        return Err(perf_error_from_errno(fd, tid));
    }
    let rc = unsafe { syscall5(nr::IOCTL, fd as u64, PERF_EVENT_IOC_ENABLE, 0, 0, 0) };
    if rc < 0 {
        unsafe { syscall5(nr::CLOSE, fd as u64, 0, 0, 0, 0) };
        return Err(perf_error_from_errno(rc, tid));
    }
    Ok(fd)
}

/// Reads the event count off a perf descriptor (0 if the read fails).
fn read_count(fd: u64) -> u64 {
    let mut count: u64 = 0;
    let rc = unsafe { syscall5(nr::READ, fd, std::ptr::addr_of_mut!(count) as u64, 8, 0, 0) };
    if rc == 8 {
        count
    } else {
        0
    }
}

fn close_breakpoint(fd: u64) {
    unsafe {
        syscall5(nr::IOCTL, fd, PERF_EVENT_IOC_DISABLE, 0, 0, 0);
        syscall5(nr::CLOSE, fd, 0, 0, 0, 0);
    }
}

// ----- the backend ----------------------------------------------------------------

/// One armed hardware breakpoint and the event count last drained.
#[derive(Debug, Clone, Copy)]
struct ArmedWatch {
    fd: u64,
    addr: u64,
    drained: u64,
}

/// [`Backend`] over real `perf_event_open` hardware breakpoints in the
/// current process. See the module docs for the deviations from the
/// simulator (count polling, logical threads).
#[derive(Debug)]
pub struct LinuxHwBackend {
    started: Instant,
    /// Armed descriptors — at most the handful of debug registers the
    /// CPU offers, so a flat vector beats any map.
    armed: Vec<ArmedWatch>,
    alive: Vec<ThreadId>,
    next_tid: u32,
}

impl Default for LinuxHwBackend {
    fn default() -> Self {
        LinuxHwBackend::new()
    }
}

impl LinuxHwBackend {
    /// Creates a backend with only the main thread registered.
    pub fn new() -> Self {
        LinuxHwBackend {
            started: Instant::now(),
            armed: Vec::new(),
            alive: vec![ThreadId::MAIN],
            next_tid: 1,
        }
    }

    /// Whether this kernel/container lets us place a hardware
    /// breakpoint at all: opens and immediately closes a probe event on
    /// a stack word. `perf_event_paranoid`, seccomp, and missing debug
    /// registers all surface here.
    pub fn probe() -> Result<(), PerfError> {
        let word: u64 = 0;
        let fd = open_breakpoint(std::ptr::addr_of!(word) as u64, ThreadId::MAIN)?;
        close_breakpoint(fd as u64);
        Ok(())
    }
}

impl Backend for LinuxHwBackend {
    /// Wall time since backend creation, as a virtual instant.
    fn now(&self) -> VirtInstant {
        let ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        VirtInstant::BOOT + VirtDuration::from_nanos(ns)
    }

    /// Zero: on real hardware the work *is* the cost; there is nothing
    /// to model on top.
    fn tool_costs(&self) -> &CostModel {
        &CostModel::FREE_OF_CHARGE
    }

    /// Nothing to record: the costs are [`CostModel::FREE_OF_CHARGE`].
    fn charge_tool(&mut self, _ns: u64) {}

    /// Polls every armed descriptor's event count and synthesizes one
    /// trap per increment. Site and access direction are unknown to the
    /// counting interface (reported as site 0, write).
    fn take_signals(&mut self) -> Vec<SignalInfo> {
        let mut out = Vec::new();
        for watch in &mut self.armed {
            let count = read_count(watch.fd);
            while watch.drained < count {
                watch.drained += 1;
                out.push(SignalInfo {
                    signal: Signal::Trap,
                    thread: ThreadId::MAIN,
                    fd: Some(Fd::from_raw(watch.fd)),
                    fault_addr: VirtAddr::new(watch.addr),
                    access: AccessKind::Write,
                    site: SiteToken(0),
                });
            }
        }
        out
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

    /// Opens and enables a real RW length-8 breakpoint on the canary
    /// word. Every route collapses to `perf_event_open` here — `ptrace`
    /// cannot target the caller's own process.
    fn arm_watch(
        &mut self,
        _route: WatchBackend,
        canary_addr: VirtAddr,
        tid: ThreadId,
    ) -> Result<Fd, PerfError> {
        let fd = open_breakpoint(canary_addr.as_u64(), tid)?;
        self.armed.push(ArmedWatch {
            fd: fd as u64,
            addr: canary_addr.as_u64(),
            drained: 0,
        });
        Ok(Fd::from_raw(fd as u64))
    }

    fn disarm_watch(&mut self, _route: WatchBackend, fd: Fd) {
        if let Some(i) = self.armed.iter().position(|w| w.fd == fd.as_raw()) {
            close_breakpoint(self.armed[i].fd);
            self.armed.remove(i);
        }
    }

    fn arm_watch_all_threads(
        &mut self,
        canary_addr: VirtAddr,
    ) -> Result<Vec<(ThreadId, Fd)>, PerfError> {
        // Logical threads all map onto the calling thread; arm once per
        // registered thread so descriptor bookkeeping matches the
        // manager's expectations.
        let tids = self.alive.clone();
        let mut armed = Vec::with_capacity(tids.len());
        for tid in tids {
            match self.arm_watch(WatchBackend::PerfEvent, canary_addr, tid) {
                Ok(fd) => armed.push((tid, fd)),
                Err(e) => {
                    for (_, fd) in armed {
                        self.disarm_watch(WatchBackend::PerfEvent, fd);
                    }
                    return Err(e);
                }
            }
        }
        Ok(armed)
    }

    fn disarm_batch(&mut self, route: WatchBackend, fds: &[Fd]) {
        for fd in fds {
            self.disarm_watch(route, *fd);
        }
    }

    /// Raw store into the current process's address space. The runtime
    /// only writes headers/canaries inside blocks [`LinuxHeap`] handed
    /// out, which keeps this in-bounds.
    fn store_u64(&mut self, addr: VirtAddr, value: u64) -> Result<(), MemoryError> {
        unsafe { std::ptr::write_unaligned(addr.as_u64() as *mut u64, value) };
        Ok(())
    }

    fn load_u64(&self, addr: VirtAddr) -> Result<u64, MemoryError> {
        Ok(unsafe { std::ptr::read_unaligned(addr.as_u64() as *const u64) })
    }

    fn write_bytes(&mut self, addr: VirtAddr, data: &[u8]) -> Result<(), MemoryError> {
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), addr.as_u64() as *mut u8, data.len());
        }
        Ok(())
    }

    fn read_bytes(&self, addr: VirtAddr, buf: &mut [u8]) -> Result<(), MemoryError> {
        unsafe {
            std::ptr::copy_nonoverlapping(addr.as_u64() as *const u8, buf.as_mut_ptr(), buf.len());
        }
        Ok(())
    }

    fn fill(&mut self, addr: VirtAddr, len: u64, byte: u8) -> Result<(), MemoryError> {
        let len = usize::try_from(len).map_err(|_| MemoryError::Unmapped { addr, len })?;
        unsafe { std::ptr::write_bytes(addr.as_u64() as *mut u8, byte, len) };
        Ok(())
    }
}

// ----- the heap -------------------------------------------------------------------

/// [`HeapBackend`] for [`LinuxHwBackend`]: real `std::alloc` blocks in
/// the current process, with per-pointer layout bookkeeping so `free`
/// can rebuild the `Layout` deallocation requires.
#[derive(Debug, Default)]
pub struct LinuxHeap {
    /// address → (size, align) of every live block.
    live: HashMap<u64, (u64, u64), FxBuild>,
}

impl LinuxHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        LinuxHeap::default()
    }
}

impl HeapBackend<LinuxHwBackend> for LinuxHeap {
    fn malloc(&mut self, backend: &mut LinuxHwBackend, size: u64) -> Result<VirtAddr, HeapError> {
        self.memalign(backend, 16, size)
    }

    fn memalign(
        &mut self,
        _backend: &mut LinuxHwBackend,
        align: u64,
        size: u64,
    ) -> Result<VirtAddr, HeapError> {
        if !align.is_power_of_two() {
            return Err(HeapError::BadAlignment(align));
        }
        let size = size.max(1);
        let layout = Layout::from_size_align(
            usize::try_from(size).map_err(|_| HeapError::OutOfMemory { requested: size })?,
            usize::try_from(align.max(16)).map_err(|_| HeapError::BadAlignment(align))?,
        )
        .map_err(|_| HeapError::OutOfMemory { requested: size })?;
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if ptr.is_null() {
            return Err(HeapError::OutOfMemory { requested: size });
        }
        let addr = ptr as u64;
        self.live.insert(addr, (size, align.max(16)));
        Ok(VirtAddr::new(addr))
    }

    fn free(&mut self, _backend: &mut LinuxHwBackend, addr: VirtAddr) -> Result<u64, HeapError> {
        let (size, align) = self
            .live
            .remove(&addr.as_u64())
            .ok_or(HeapError::InvalidPointer(addr))?;
        // The layout round-trips through the same (size, align) pair the
        // allocation used, as `dealloc` demands; both fit usize because
        // the allocation succeeded.
        #[allow(clippy::cast_possible_truncation)]
        let layout = Layout::from_size_align(size as usize, align as usize)
            .expect("layout validated at allocation");
        unsafe { System.dealloc(addr.as_u64() as *mut u8, layout) };
        Ok(size)
    }
}

// ----- the global-allocator shim --------------------------------------------------

/// Allocations made through the shim.
static SHIM_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Deallocations checked by the shim.
static SHIM_FREES: AtomicU64 = AtomicU64::new(0);
/// Canaries found corrupted at deallocation.
static SHIM_OVERFLOWS: AtomicU64 = AtomicU64::new(0);

/// The address-keyed canary: a fixed secret XOR the canary's own
/// address, so adjacent blocks never share a value and a memcpy of one
/// block's tail over another still mismatches.
const SHIM_SECRET: u64 = 0xC50D_5EC2_E7A1_1CE5;

fn shim_canary(addr: u64) -> u64 {
    SHIM_SECRET ^ addr
}

/// A `#[global_allocator]`-compatible shim that appends an 8-byte canary
/// to every allocation and verifies it at deallocation — the evidence
/// half of CSOD in a real Rust process, with zero configuration.
///
/// This is the LD_PRELOAD posture of the paper translated to Rust: no
/// recompilation of the workload, just a different allocator. Watchpoint
/// arming stays with [`LinuxHwBackend`]; the shim provides the canary
/// safety net and the [`CsodShimAlloc::overflows_caught`] counter the
/// smoke test asserts on.
///
/// ```ignore
/// #[global_allocator]
/// static CSOD_SHIM: CsodShimAlloc = CsodShimAlloc::new();
/// ```
#[derive(Debug)]
pub struct CsodShimAlloc;

impl Default for CsodShimAlloc {
    fn default() -> Self {
        CsodShimAlloc::new()
    }
}

impl CsodShimAlloc {
    /// Creates the shim (const, as `#[global_allocator]` requires).
    pub const fn new() -> Self {
        CsodShimAlloc
    }

    /// Allocations served so far.
    pub fn allocations() -> u64 {
        SHIM_ALLOCS.load(Ordering::Relaxed)
    }

    /// Deallocations (and therefore canary checks) so far.
    pub fn frees() -> u64 {
        SHIM_FREES.load(Ordering::Relaxed)
    }

    /// Canaries found corrupted at deallocation: each one is evidence of
    /// a buffer overflow past the end of a heap block.
    pub fn overflows_caught() -> u64 {
        SHIM_OVERFLOWS.load(Ordering::Relaxed)
    }

    /// The canary layout for a user layout: the user block plus one
    /// trailing 8-byte word (respecting the user alignment).
    fn padded(layout: Layout) -> Option<Layout> {
        Layout::from_size_align(layout.size().checked_add(8)?, layout.align()).ok()
    }

    /// The canary address for a block at `ptr` with user layout
    /// `layout`.
    fn canary_addr(ptr: *mut u8, layout: Layout) -> *mut u8 {
        // SAFETY-by-construction: `padded` reserved exactly these 8
        // bytes past the user size.
        unsafe { ptr.add(layout.size()) }
    }

    fn imprint(ptr: *mut u8, layout: Layout) {
        if ptr.is_null() {
            return;
        }
        let c = Self::canary_addr(ptr, layout);
        unsafe { std::ptr::write_unaligned(c.cast::<u64>(), shim_canary(c as u64)) };
        SHIM_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }

    fn verify(ptr: *mut u8, layout: Layout) {
        let c = Self::canary_addr(ptr, layout);
        let found = unsafe { std::ptr::read_unaligned(c.cast::<u64>()) };
        SHIM_FREES.fetch_add(1, Ordering::Relaxed);
        if found != shim_canary(c as u64) {
            SHIM_OVERFLOWS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: delegates to `System` with a layout extended by 8 trailing
// bytes; the same padded layout is rebuilt for dealloc/realloc from the
// user layout Rust hands back, so size/align always match the
// allocation. The canary word lives entirely inside the padded block.
unsafe impl GlobalAlloc for CsodShimAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let Some(padded) = Self::padded(layout) else {
            return std::ptr::null_mut();
        };
        let ptr = System.alloc(padded);
        Self::imprint(ptr, layout);
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let Some(padded) = Self::padded(layout) else {
            return std::ptr::null_mut();
        };
        let ptr = System.alloc_zeroed(padded);
        Self::imprint(ptr, layout);
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::verify(ptr, layout);
        let padded = Self::padded(layout).expect("padded layout existed at allocation");
        System.dealloc(ptr, padded);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::verify(ptr, layout);
        let padded = Self::padded(layout).expect("padded layout existed at allocation");
        let Some(new_padded) = new_size.checked_add(8) else {
            return std::ptr::null_mut();
        };
        let new_ptr = System.realloc(ptr, padded, new_padded);
        if !new_ptr.is_null() {
            let new_layout = Layout::from_size_align(new_size, layout.align())
                .expect("caller-validated realloc layout");
            Self::imprint(new_ptr, new_layout);
            // `imprint` counts an allocation; a realloc is not a new
            // block, so keep allocations = blocks.
            SHIM_ALLOCS.fetch_sub(1, Ordering::Relaxed);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shim_canary_round_trips() {
        let shim = CsodShimAlloc::new();
        let layout = Layout::from_size_align(24, 8).unwrap();
        let before = CsodShimAlloc::overflows_caught();
        unsafe {
            let p = shim.alloc(layout);
            assert!(!p.is_null());
            // In-bounds writes leave the canary alone.
            std::ptr::write_bytes(p, 0xAA, 24);
            shim.dealloc(p, layout);
        }
        assert_eq!(CsodShimAlloc::overflows_caught(), before);
    }

    #[test]
    fn shim_catches_an_injected_overflow() {
        let shim = CsodShimAlloc::new();
        let layout = Layout::from_size_align(16, 8).unwrap();
        let before = CsodShimAlloc::overflows_caught();
        unsafe {
            let p = shim.alloc(layout);
            assert!(!p.is_null());
            // One byte past the end — into the canary word.
            *p.add(16) = 0x42;
            shim.dealloc(p, layout);
        }
        assert_eq!(CsodShimAlloc::overflows_caught(), before + 1);
    }

    #[test]
    fn linux_heap_allocates_and_frees_real_memory() {
        let mut b = LinuxHwBackend::new();
        let mut h = LinuxHeap::new();
        let p = HeapBackend::malloc(&mut h, &mut b, 64).unwrap();
        b.store_u64(p, 0xFEED).unwrap();
        assert_eq!(b.load_u64(p).unwrap(), 0xFEED);
        assert_eq!(h.live.len(), 1);
        assert_eq!(HeapBackend::free(&mut h, &mut b, p).unwrap(), 64);
        assert_eq!(
            HeapBackend::free(&mut h, &mut b, p),
            Err(HeapError::InvalidPointer(p))
        );
    }

    #[test]
    fn thread_registry_is_logical() {
        let mut b = LinuxHwBackend::new();
        let t = b.spawn_thread();
        assert_eq!(b.alive_threads(), vec![ThreadId::MAIN, t]);
        b.exit_thread(t).unwrap();
        assert!(b.exit_thread(t).is_err());
        assert!(b.exit_thread(ThreadId::MAIN).is_err());
    }

    #[test]
    fn hw_breakpoint_fires_or_is_refused_cleanly() {
        // Containers frequently forbid perf_event_open; both outcomes
        // are valid here, but a refusal must be a clean error.
        match LinuxHwBackend::probe() {
            Err(_) => {} // refused: nothing to assert beyond "no panic"
            Ok(()) => {
                let mut b = LinuxHwBackend::new();
                let word: u64 = 0;
                let addr = VirtAddr::new(std::ptr::addr_of!(word) as u64);
                let fd = b
                    .arm_watch(WatchBackend::PerfEvent, addr, ThreadId::MAIN)
                    .unwrap();
                unsafe {
                    std::ptr::write_volatile(std::ptr::addr_of!(word).cast_mut(), 7);
                }
                let sigs = b.take_signals();
                assert!(
                    sigs.iter().any(|s| s.fd == Some(fd)),
                    "hardware breakpoint should observe the write"
                );
                b.disarm_watch(WatchBackend::PerfEvent, fd);
                assert_eq!(b.armed.len(), 0);
            }
        }
    }
}
