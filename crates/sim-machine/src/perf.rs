//! The `perf_event_open` breakpoint subsystem.
//!
//! This module models the exact kernel interface the paper uses to drive
//! hardware watchpoints without `ptrace` (Section II-A and Figure 3):
//!
//! ```text
//! fd = perf_event_open(&pe, tid, -1, -1, 0);      // claim a debug register
//! fcntl(fd, F_SETFL, flags | O_ASYNC);            // asynchronous notification
//! fcntl(fd, F_SETSIG, SIGTRAP);                   // raise SIGTRAP
//! fcntl(fd, F_SETOWN, tid);                       // ...on the accessing thread
//! ioctl(fd, PERF_EVENT_IOC_ENABLE, 0);            // arm it
//! ...
//! ioctl(fd, PERF_EVENT_IOC_DISABLE, 0);           // disarm (Figure 4)
//! close(fd);                                      // release the register
//! ```
//!
//! Each event is pinned to one thread; watching an address on every alive
//! thread therefore takes one event (and one debug register) per thread,
//! which is why installing and removing a watchpoint costs about eight
//! system calls *per thread* (Section V-B).

use crate::addr::AddrRange;
use crate::debug::DebugRegisterFile;
use crate::fxhash::FxBuild;
use crate::signal::Signal;
use crate::thread::ThreadId;
use std::collections::HashMap;
use std::fmt;

/// A perf-event file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fd(u64);

impl Fd {
    /// Builds a descriptor from its raw number (tests and displays).
    pub const fn from_raw(raw: u64) -> Self {
        Fd(raw)
    }

    /// The raw descriptor number.
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fd{}", self.0)
    }
}

/// Breakpoint trigger condition (`attr.bp_type`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BpType {
    /// Fire on loads only (`HW_BREAKPOINT_R`).
    Read,
    /// Fire on stores only (`HW_BREAKPOINT_W`).
    Write,
    /// Fire on loads and stores (`HW_BREAKPOINT_RW`) — what CSOD uses, so
    /// both over-reads and over-writes are caught.
    ReadWrite,
}

impl BpType {
    /// Whether the breakpoint fires for the given access kind.
    pub fn matches(self, kind: crate::AccessKind) -> bool {
        matches!(
            (self, kind),
            (BpType::ReadWrite, _)
                | (BpType::Read, crate::AccessKind::Read)
                | (BpType::Write, crate::AccessKind::Write)
        )
    }
}

/// The subset of `struct perf_event_attr` the breakpoint path consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfEventAttr {
    /// Trigger condition.
    pub bp_type: BpType,
    /// Watched linear address.
    pub bp_addr: crate::VirtAddr,
    /// Watched length in bytes; hardware supports 1, 2, 4 or 8.
    pub bp_len: u64,
}

impl PerfEventAttr {
    /// A read-write breakpoint over the 8-byte word at `addr` — the
    /// configuration CSOD installs on object boundaries.
    pub fn rw_word(addr: crate::VirtAddr) -> Self {
        PerfEventAttr {
            bp_type: BpType::ReadWrite,
            bp_addr: addr,
            bp_len: 8,
        }
    }

    /// The watched byte range.
    pub fn range(&self) -> AddrRange {
        AddrRange::new(self.bp_addr, self.bp_len)
    }
}

/// `fcntl` commands understood by perf-event descriptors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FcntlCmd {
    /// `F_GETFL`: read the status flags.
    GetFl,
    /// `F_SETFL` with `O_ASYNC`: enable asynchronous signal notification.
    SetFlAsync,
    /// `F_SETSIG`: choose the signal delivered on overflow of the event.
    SetSig(Signal),
    /// `F_SETOWN`: choose the thread that receives the signal.
    SetOwn(ThreadId),
}

/// `ioctl` commands understood by perf-event descriptors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoctlCmd {
    /// `PERF_EVENT_IOC_ENABLE`.
    Enable,
    /// `PERF_EVENT_IOC_DISABLE`.
    Disable,
}

/// Errors returned by the perf subsystem (errno equivalents noted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfError {
    /// All four debug registers of the target thread are busy (`EBUSY`).
    NoFreeRegister(ThreadId),
    /// The descriptor is not open (`EBADF`).
    BadFd(Fd),
    /// The target thread does not exist (`ESRCH`).
    NoSuchThread(ThreadId),
    /// Unsupported watch length (`EINVAL`); hardware allows 1, 2, 4, 8.
    InvalidLength(u64),
    /// The debug hardware is held by another agent — a co-resident
    /// debugger or profiler (`EBUSY`). Unlike [`PerfError::NoFreeRegister`]
    /// this is transient and not caused by the tool's own events.
    DeviceBusy(ThreadId),
    /// The kernel refused to allocate event state (`ENOSPC`).
    NoSpace,
    /// The call was interrupted (`EINTR`). For `close`, the descriptor is
    /// still released — as on Linux, retrying the close would be the bug.
    Interrupted,
}

impl fmt::Display for PerfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerfError::NoFreeRegister(t) => {
                write!(f, "no free debug register on {t} (EBUSY)")
            }
            PerfError::BadFd(fd) => write!(f, "bad file descriptor {fd} (EBADF)"),
            PerfError::NoSuchThread(t) => write!(f, "no such thread {t} (ESRCH)"),
            PerfError::InvalidLength(l) => {
                write!(f, "invalid breakpoint length {l} (EINVAL)")
            }
            PerfError::DeviceBusy(t) => {
                write!(f, "debug hardware on {t} held by another agent (EBUSY)")
            }
            PerfError::NoSpace => write!(f, "no kernel space for perf event (ENOSPC)"),
            PerfError::Interrupted => write!(f, "interrupted system call (EINTR)"),
        }
    }
}

impl std::error::Error for PerfError {}

/// One open breakpoint event.
#[derive(Debug, Clone)]
struct PerfEvent {
    attr: PerfEventAttr,
    /// Thread whose debug register this event occupies.
    tid: ThreadId,
    enabled: bool,
    async_notify: bool,
    sig: Signal,
    owner: ThreadId,
}

/// A watchpoint hit produced by [`PerfSubsystem::check_access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiredWatchpoint {
    /// The descriptor whose watch range was touched.
    pub fd: Fd,
    /// The watched range.
    pub watched: AddrRange,
    /// Signal configured with `F_SETSIG`.
    pub sig: Signal,
    /// Thread configured with `F_SETOWN`.
    pub owner: ThreadId,
}

/// The kernel-side state: open events plus each thread's debug registers.
#[derive(Debug)]
pub struct PerfSubsystem {
    events: HashMap<u64, PerfEvent, FxBuild>,
    /// Register files indexed by dense thread id (ids are sequential and
    /// never reused); `None` for threads that never armed a watch or
    /// have exited. The access-check hot path indexes straight in.
    registers: Vec<Option<DebugRegisterFile>>,
    registers_per_thread: usize,
    next_fd: u64,
}

impl Default for PerfSubsystem {
    fn default() -> Self {
        PerfSubsystem::new()
    }
}

impl PerfSubsystem {
    /// Creates an empty subsystem with the four x86-64 registers.
    pub fn new() -> Self {
        PerfSubsystem::with_registers(crate::NUM_WATCHPOINT_REGISTERS)
    }

    /// Creates an empty subsystem with `n` debug registers per thread
    /// (hypothetical hardware for the register-count ablation).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_registers(n: usize) -> Self {
        assert!(n > 0, "at least one debug register");
        PerfSubsystem {
            events: HashMap::default(),
            registers: Vec::new(),
            registers_per_thread: n,
            // fd 0..2 are stdio on a real process; start above them.
            next_fd: 3,
        }
    }

    /// `perf_event_open(&attr, tid, -1, -1, 0)`: opens a breakpoint event
    /// on `tid`, claiming one of its four debug registers.
    ///
    /// The register is claimed at open time, so the fifth concurrent open
    /// on one thread fails with [`PerfError::NoFreeRegister`].
    ///
    /// # Errors
    ///
    /// See [`PerfError`]. The caller (the machine) validates thread
    /// liveness before calling.
    pub fn open(&mut self, attr: PerfEventAttr, tid: ThreadId) -> Result<Fd, PerfError> {
        if !matches!(attr.bp_len, 1 | 2 | 4 | 8) {
            return Err(PerfError::InvalidLength(attr.bp_len));
        }
        let fd = Fd(self.next_fd);
        let n = self.registers_per_thread;
        let idx = tid.as_u32() as usize;
        if self.registers.len() <= idx {
            self.registers.resize_with(idx + 1, || None);
        }
        let regs = self.registers[idx].get_or_insert_with(|| DebugRegisterFile::with_registers(n));
        if regs.claim(fd, attr.range()).is_none() {
            return Err(PerfError::NoFreeRegister(tid));
        }
        self.next_fd += 1;
        self.events.insert(
            fd.0,
            PerfEvent {
                attr,
                tid,
                enabled: false,
                async_notify: false,
                sig: Signal::Trap,
                owner: tid,
            },
        );
        Ok(fd)
    }

    /// `fcntl(fd, cmd)`.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::BadFd`] for descriptors that are not open.
    pub fn fcntl(&mut self, fd: Fd, cmd: FcntlCmd) -> Result<i64, PerfError> {
        let event = self.events.get_mut(&fd.0).ok_or(PerfError::BadFd(fd))?;
        match cmd {
            FcntlCmd::GetFl => Ok(if event.async_notify { 0x2000 } else { 0 }),
            FcntlCmd::SetFlAsync => {
                event.async_notify = true;
                Ok(0)
            }
            FcntlCmd::SetSig(sig) => {
                event.sig = sig;
                Ok(0)
            }
            FcntlCmd::SetOwn(tid) => {
                event.owner = tid;
                Ok(0)
            }
        }
    }

    /// `ioctl(fd, PERF_EVENT_IOC_{ENABLE,DISABLE}, 0)`.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::BadFd`] for descriptors that are not open.
    pub fn ioctl(&mut self, fd: Fd, cmd: IoctlCmd) -> Result<(), PerfError> {
        let event = self.events.get_mut(&fd.0).ok_or(PerfError::BadFd(fd))?;
        event.enabled = matches!(cmd, IoctlCmd::Enable);
        Ok(())
    }

    /// `close(fd)`: destroys the event and frees its debug register.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::BadFd`] for descriptors that are not open.
    pub fn close(&mut self, fd: Fd) -> Result<(), PerfError> {
        let event = self.events.remove(&fd.0).ok_or(PerfError::BadFd(fd))?;
        if let Some(Some(regs)) = self.registers.get_mut(event.tid.as_u32() as usize) {
            regs.release(fd);
        }
        Ok(())
    }

    /// The register file of `tid`, if the thread ever armed a watch.
    fn reg_file(&self, tid: ThreadId) -> Option<&DebugRegisterFile> {
        self.registers.get(tid.as_u32() as usize)?.as_ref()
    }

    /// Checks an access by `tid` against the thread's enabled breakpoints
    /// and returns every watchpoint that fires.
    ///
    /// Only asynchronous-notification events with a matching trigger kind
    /// fire; this is the hardware + kernel half of trap delivery. The
    /// machine turns each [`FiredWatchpoint`] into a
    /// [`SignalInfo`](crate::SignalInfo).
    pub fn check_access(
        &self,
        tid: ThreadId,
        range: AddrRange,
        kind: crate::AccessKind,
    ) -> Vec<FiredWatchpoint> {
        let Some(regs) = self.reg_file(tid) else {
            return Vec::new();
        };
        // The register file mirrors the armed ranges (as DR0-DR3 do on
        // real hardware): one bounding-range comparison rejects almost
        // every access without touching the event table.
        let Some(bounds) = regs.bounds() else {
            return Vec::new();
        };
        if !bounds.overlaps(&range) {
            return Vec::new();
        }
        regs.armed()
            .filter_map(|(fd, watched)| {
                if !watched.overlaps(&range) {
                    return None;
                }
                let event = self.events.get(&fd.0)?;
                let fires = event.enabled && event.async_notify && event.attr.bp_type.matches(kind);
                fires.then_some(FiredWatchpoint {
                    fd,
                    watched,
                    sig: event.sig,
                    owner: event.owner,
                })
            })
            .collect()
    }

    /// Free debug registers on `tid` (all of them if the thread never
    /// had a watch).
    pub fn free_registers(&self, tid: ThreadId) -> usize {
        self.reg_file(tid)
            .map_or(self.registers_per_thread, DebugRegisterFile::free_count)
    }

    /// Closes all events pinned to `tid`; called when a thread exits.
    /// Returns the descriptors that were closed.
    pub fn on_thread_exit(&mut self, tid: ThreadId) -> Vec<Fd> {
        let doomed: Vec<Fd> = self
            .events
            .iter()
            .filter(|(_, e)| e.tid == tid)
            .map(|(raw, _)| Fd(*raw))
            .collect();
        for fd in &doomed {
            let _ = self.close(*fd);
        }
        if let Some(slot) = self.registers.get_mut(tid.as_u32() as usize) {
            *slot = None;
        }
        doomed
    }

    /// Number of currently open events.
    pub fn open_events(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, VirtAddr};

    fn attr(addr: u64) -> PerfEventAttr {
        PerfEventAttr::rw_word(VirtAddr::new(addr))
    }

    /// Opens an event and applies the full Figure-3 configuration.
    fn open_configured(perf: &mut PerfSubsystem, addr: u64, tid: ThreadId) -> Fd {
        let fd = perf.open(attr(addr), tid).unwrap();
        perf.fcntl(fd, FcntlCmd::SetFlAsync).unwrap();
        perf.fcntl(fd, FcntlCmd::SetSig(Signal::Trap)).unwrap();
        perf.fcntl(fd, FcntlCmd::SetOwn(tid)).unwrap();
        perf.ioctl(fd, IoctlCmd::Enable).unwrap();
        fd
    }

    #[test]
    fn fifth_open_on_same_thread_is_ebusy() {
        let mut perf = PerfSubsystem::new();
        for i in 0..4 {
            perf.open(attr(0x1000 + i * 8), ThreadId::MAIN).unwrap();
        }
        assert_eq!(
            perf.open(attr(0x2000), ThreadId::MAIN),
            Err(PerfError::NoFreeRegister(ThreadId::MAIN))
        );
    }

    #[test]
    fn registers_are_per_thread() {
        let mut perf = PerfSubsystem::new();
        let mut threads = crate::ThreadRegistry::new();
        let worker = threads.spawn();
        for i in 0..4 {
            perf.open(attr(0x1000 + i * 8), ThreadId::MAIN).unwrap();
        }
        // The worker thread still has all four registers free.
        assert_eq!(perf.free_registers(worker), 4);
        assert!(perf.open(attr(0x1000), worker).is_ok());
    }

    #[test]
    fn invalid_length_rejected() {
        let mut perf = PerfSubsystem::new();
        let bad = PerfEventAttr {
            bp_type: BpType::ReadWrite,
            bp_addr: VirtAddr::new(0x1000),
            bp_len: 3,
        };
        assert_eq!(
            perf.open(bad, ThreadId::MAIN),
            Err(PerfError::InvalidLength(3))
        );
    }

    #[test]
    fn close_frees_register() {
        let mut perf = PerfSubsystem::new();
        let fds: Vec<Fd> = (0..4)
            .map(|i| perf.open(attr(0x1000 + i * 8), ThreadId::MAIN).unwrap())
            .collect();
        perf.close(fds[1]).unwrap();
        assert_eq!(perf.free_registers(ThreadId::MAIN), 1);
        assert!(perf.open(attr(0x3000), ThreadId::MAIN).is_ok());
        assert_eq!(perf.close(fds[1]), Err(PerfError::BadFd(fds[1])));
    }

    #[test]
    fn disabled_event_does_not_fire() {
        let mut perf = PerfSubsystem::new();
        let fd = perf.open(attr(0x1000), ThreadId::MAIN).unwrap();
        perf.fcntl(fd, FcntlCmd::SetFlAsync).unwrap();
        // Not enabled yet.
        let hits = perf.check_access(
            ThreadId::MAIN,
            AddrRange::new(VirtAddr::new(0x1000), 8),
            AccessKind::Write,
        );
        assert!(hits.is_empty());
        perf.ioctl(fd, IoctlCmd::Enable).unwrap();
        let hits = perf.check_access(
            ThreadId::MAIN,
            AddrRange::new(VirtAddr::new(0x1000), 8),
            AccessKind::Write,
        );
        assert_eq!(hits.len(), 1);
        perf.ioctl(fd, IoctlCmd::Disable).unwrap();
        let hits = perf.check_access(
            ThreadId::MAIN,
            AddrRange::new(VirtAddr::new(0x1000), 8),
            AccessKind::Write,
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn event_without_async_does_not_fire() {
        let mut perf = PerfSubsystem::new();
        let fd = perf.open(attr(0x1000), ThreadId::MAIN).unwrap();
        perf.ioctl(fd, IoctlCmd::Enable).unwrap();
        let hits = perf.check_access(
            ThreadId::MAIN,
            AddrRange::new(VirtAddr::new(0x1004), 1),
            AccessKind::Read,
        );
        assert!(hits.is_empty(), "no O_ASYNC -> no signal");
    }

    #[test]
    fn fires_only_for_accessing_thread() {
        let mut perf = PerfSubsystem::new();
        let mut threads = crate::ThreadRegistry::new();
        let worker = threads.spawn();
        open_configured(&mut perf, 0x1000, ThreadId::MAIN);
        // Same address, but the access comes from a thread without an event.
        let hits = perf.check_access(
            worker,
            AddrRange::new(VirtAddr::new(0x1000), 8),
            AccessKind::Read,
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn fired_watchpoint_carries_configuration() {
        let mut perf = PerfSubsystem::new();
        let fd = open_configured(&mut perf, 0x1000, ThreadId::MAIN);
        let hits = perf.check_access(
            ThreadId::MAIN,
            AddrRange::new(VirtAddr::new(0x1006), 4),
            AccessKind::Write,
        );
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].fd, fd);
        assert_eq!(hits[0].sig, Signal::Trap);
        assert_eq!(hits[0].owner, ThreadId::MAIN);
        assert_eq!(hits[0].watched, AddrRange::new(VirtAddr::new(0x1000), 8));
    }

    #[test]
    fn bp_type_filters_access_kind() {
        let mut perf = PerfSubsystem::new();
        let mut a = attr(0x1000);
        a.bp_type = BpType::Write;
        let fd = perf.open(a, ThreadId::MAIN).unwrap();
        perf.fcntl(fd, FcntlCmd::SetFlAsync).unwrap();
        perf.ioctl(fd, IoctlCmd::Enable).unwrap();
        let range = AddrRange::new(VirtAddr::new(0x1000), 1);
        assert!(perf
            .check_access(ThreadId::MAIN, range, AccessKind::Read)
            .is_empty());
        assert_eq!(
            perf.check_access(ThreadId::MAIN, range, AccessKind::Write)
                .len(),
            1
        );
    }

    #[test]
    fn thread_exit_closes_its_events() {
        let mut perf = PerfSubsystem::new();
        let mut threads = crate::ThreadRegistry::new();
        let worker = threads.spawn();
        open_configured(&mut perf, 0x1000, ThreadId::MAIN);
        let wfd = open_configured(&mut perf, 0x1000, worker);
        let closed = perf.on_thread_exit(worker);
        assert_eq!(closed, vec![wfd]);
        assert_eq!(perf.open_events(), 1);
        assert_eq!(perf.free_registers(worker), 4);
    }

    #[test]
    fn watched_range_lookup() {
        let mut perf = PerfSubsystem::new();
        let fd = perf.open(attr(0xaaa8), ThreadId::MAIN).unwrap();
        let watched_range = |fd: Fd| perf.events.get(&fd.0).map(|e| e.attr.range());
        assert_eq!(
            watched_range(fd),
            Some(AddrRange::new(VirtAddr::new(0xaaa8), 8))
        );
        assert_eq!(watched_range(Fd::from_raw(999)), None);
    }
}
