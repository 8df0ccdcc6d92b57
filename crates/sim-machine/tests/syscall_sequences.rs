//! Fidelity tests: the exact syscall sequences of the paper's Figures 3
//! and 4, observed through the machine's kernel-entry counter.

use sim_machine::{FcntlCmd, IoctlCmd, Machine, PerfEventAttr, Signal, ThreadId, VirtAddr};

#[test]
fn figure3_install_sequence() {
    let mut m = Machine::new();
    let addr = VirtAddr::new(0x10_0000);
    m.map_region(addr, 4096, "heap").unwrap();

    // Figure 3: perf_event_open, fcntl(F_GETFL), fcntl(F_SETFL|O_ASYNC),
    // fcntl(F_SETSIG, SIGTRAP), fcntl(F_SETOWN, tid), ioctl(ENABLE).
    let fd = m
        .sys_perf_event_open(PerfEventAttr::rw_word(addr), ThreadId::MAIN)
        .unwrap();
    let flags = m.sys_fcntl(fd, FcntlCmd::GetFl).unwrap();
    assert_eq!(flags & 0x2000, 0, "O_ASYNC not yet set");
    m.sys_fcntl(fd, FcntlCmd::SetFlAsync).unwrap();
    assert_eq!(m.sys_fcntl(fd, FcntlCmd::GetFl).unwrap() & 0x2000, 0x2000);
    m.sys_fcntl(fd, FcntlCmd::SetSig(Signal::Trap)).unwrap();
    m.sys_fcntl(fd, FcntlCmd::SetOwn(ThreadId::MAIN)).unwrap();
    m.sys_ioctl(fd, IoctlCmd::Enable).unwrap();

    // open + five fcntl (F_GETFL is issued twice) + ioctl.
    assert_eq!(m.counter().syscalls(), 7);
}

#[test]
fn figure4_remove_sequence() {
    let mut m = Machine::new();
    let addr = VirtAddr::new(0x10_0000);
    m.map_region(addr, 4096, "heap").unwrap();
    let fd = m
        .sys_perf_event_open(PerfEventAttr::rw_word(addr), ThreadId::MAIN)
        .unwrap();
    m.sys_ioctl(fd, IoctlCmd::Enable).unwrap();

    let before = m.counter().syscalls();
    // Figure 4: ioctl(PERF_EVENT_IOC_DISABLE) then close(fd).
    m.sys_ioctl(fd, IoctlCmd::Disable).unwrap();
    m.sys_close(fd).unwrap();
    assert_eq!(m.counter().syscalls() - before, 2);
    assert_eq!(m.open_events(), 0);
}

#[test]
fn backend_sequences_differ_as_documented() {
    // ptrace route: attach, poke and detach are three kernel entries in
    // each direction.
    let mut m = Machine::new();
    let addr = VirtAddr::new(0x10_0000);
    m.map_region(addr, 4096, "heap").unwrap();
    let fd = m
        .sys_ptrace_watch(PerfEventAttr::rw_word(addr), ThreadId::MAIN)
        .unwrap();
    assert_eq!(m.counter().syscalls(), 3);
    m.sys_ptrace_unwatch(fd).unwrap();
    assert_eq!(m.counter().syscalls(), 6);

    // Combined syscall: exactly one kernel entry per direction, however
    // many threads it covers.
    let mut m = Machine::new();
    m.map_region(addr, 4096, "heap").unwrap();
    m.spawn_thread();
    let fds = m
        .sys_watch_all_threads(PerfEventAttr::rw_word(addr))
        .unwrap();
    assert_eq!(fds.len(), 2);
    assert_eq!(m.counter().syscalls(), 1);
    let raw: Vec<_> = fds.iter().map(|&(_, fd)| fd).collect();
    m.sys_unwatch_all(&raw);
    assert_eq!(m.counter().syscalls(), 2);
}

#[test]
fn per_thread_install_cost_scales_with_threads() {
    // "eight system calls are used to install and remove a watchpoint
    // for each thread" (Section V-B) — our sequence is 6 + 2 = 8 per
    // thread via the perf route.
    let mut m = Machine::new();
    let addr = VirtAddr::new(0x10_0000);
    m.map_region(addr, 4096, "heap").unwrap();
    let worker = m.spawn_thread();
    for tid in [ThreadId::MAIN, worker] {
        let fd = m
            .sys_perf_event_open(PerfEventAttr::rw_word(addr), tid)
            .unwrap();
        m.sys_fcntl(fd, FcntlCmd::GetFl).unwrap();
        m.sys_fcntl(fd, FcntlCmd::SetFlAsync).unwrap();
        m.sys_fcntl(fd, FcntlCmd::SetSig(Signal::Trap)).unwrap();
        m.sys_fcntl(fd, FcntlCmd::SetOwn(tid)).unwrap();
        m.sys_ioctl(fd, IoctlCmd::Enable).unwrap();
        m.sys_ioctl(fd, IoctlCmd::Disable).unwrap();
        m.sys_close(fd).unwrap();
    }
    assert_eq!(m.counter().syscalls(), 16, "8 per thread x 2 threads");
}
