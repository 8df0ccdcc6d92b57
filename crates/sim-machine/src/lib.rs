//! # sim-machine — deterministic machine substrate for CSOD
//!
//! This crate is the hardware/OS substrate for the CSOD reproduction: a
//! deterministic, user-space model of the parts of an x86-64 Linux machine
//! the paper's tool actually touches:
//!
//! * a sparse 64-bit [virtual address space](AddressSpace) with
//!   SIGSEGV-style faulting,
//! * [simulated threads](ThreadRegistry) with a global alive list (the
//!   paper's `aliveThreads`),
//! * four per-thread hardware [debug registers](DebugRegisterFile)
//!   (DR0–DR3) — requesting a fifth fails with `EBUSY`,
//! * the [`perf_event_open` breakpoint API](PerfSubsystem) with the full
//!   `open → fcntl(O_ASYNC/F_SETSIG/F_SETOWN) → ioctl(ENABLE)` life cycle
//!   of the paper's Figures 3 and 4,
//! * SIGTRAP-style [signal delivery](SignalInfo) to the accessing thread,
//! * a [virtual clock](Clock) and a [cost model](CostModel) +
//!   [cycle counter](CycleCounter) that make time-dependent behaviour and
//!   normalized-overhead measurements (Figure 7) fully deterministic,
//! * the alternative watchpoint routes the paper discusses — `ptrace`
//!   ([`Machine::sys_ptrace_watch`]) and the combined custom syscall of
//!   Section V-B ([`Machine::sys_watch_all_threads`]),
//! * [PMU access sampling](Machine::pmu_enable), the Sampler baseline's
//!   substrate.
//!
//! ## Quick start
//!
//! ```
//! use sim_machine::{Machine, PerfEventAttr, FcntlCmd, IoctlCmd, Signal, ThreadId, VirtAddr};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = Machine::new();
//! let heap = VirtAddr::new(0x10_0000);
//! m.map_region(heap, 4096, "heap")?;
//!
//! // Arm a read/write watchpoint on an object boundary, CSOD-style.
//! let fd = m.sys_perf_event_open(PerfEventAttr::rw_word(heap + 32), ThreadId::MAIN)?;
//! m.sys_fcntl(fd, FcntlCmd::SetFlAsync)?;
//! m.sys_fcntl(fd, FcntlCmd::SetSig(Signal::Trap))?;
//! m.sys_fcntl(fd, FcntlCmd::SetOwn(ThreadId::MAIN))?;
//! m.sys_ioctl(fd, IoctlCmd::Enable)?;
//!
//! m.app_write(ThreadId::MAIN, heap + 32, 8)?; // one word past the object
//! assert_eq!(m.take_signals()[0].signal, Signal::Trap);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::perf)]

mod addr;
mod clock;
mod cost;
mod debug;
mod faults;
mod fxhash;
mod machine;
mod memory;
mod perf;
mod signal;
mod thread;

pub use addr::{AccessKind, AddrRange, VirtAddr};
pub use clock::{Clock, VirtDuration, VirtInstant};
pub use cost::{CostDomain, CostModel, CycleCounter};
pub use debug::{DebugRegisterFile, NUM_WATCHPOINT_REGISTERS};
pub use faults::{FaultPlan, FaultStats};
pub use fxhash::{AddrHasher, FxBuild};
pub use machine::{Machine, PmuSample};
pub use memory::{AddressSpace, MemoryError};
pub use perf::{
    BpType, FcntlCmd, Fd, FiredWatchpoint, IoctlCmd, PerfError, PerfEventAttr, PerfSubsystem,
};
pub use signal::{Signal, SignalInfo, SiteToken};
pub use thread::{ThreadError, ThreadId, ThreadRegistry};
