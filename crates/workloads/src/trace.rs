//! The event language application models are written in.
//!
//! A modelled program is a stream of [`Event`]s executed by the
//! [`TraceRunner`](crate::TraceRunner) against a machine, a heap and a
//! detection tool. Events reference objects through *slots* (virtual
//! registers holding object pointers), so the same trace can run under
//! any tool even though each tool returns different concrete addresses.

use sim_machine::{AccessKind, SiteToken};

/// Identifier of a simulated thread within a trace (index into the
/// threads the trace has spawned; 0 is the main thread).
pub type TraceThread = u8;

/// One step of a modelled program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Spawn one more thread; it becomes the highest thread index.
    SpawnThread,
    /// Allocate `size` bytes from allocation site `site`, storing the
    /// pointer in `slot` (any object already in the slot is leaked).
    Malloc {
        /// Executing thread.
        thread: TraceThread,
        /// Allocation-site index in the app's registry.
        site: usize,
        /// Requested size in bytes.
        size: u64,
        /// Destination slot.
        slot: usize,
    },
    /// Free the object held in `slot` (no-op if the slot is empty).
    Free {
        /// Executing thread.
        thread: TraceThread,
        /// Slot holding the object.
        slot: usize,
    },
    /// An in-bounds access of `len` bytes at `offset` into the object in
    /// `slot` (no-op if the slot is empty).
    Access {
        /// Executing thread.
        thread: TraceThread,
        /// Slot holding the object.
        slot: usize,
        /// Byte offset into the object.
        offset: u64,
        /// Access length in bytes.
        len: u64,
        /// Load or store.
        kind: AccessKind,
        /// The performing statement.
        site: SiteToken,
    },
    /// THE BUG: a continuous overflow touching the word immediately past
    /// the object in `slot` — "the next word beyond the object's
    /// boundary" (paper Section VI).
    OverflowAccess {
        /// Executing thread.
        thread: TraceThread,
        /// Slot holding the overflowed object.
        slot: usize,
        /// Over-read or over-write.
        kind: AccessKind,
        /// The overflowing statement.
        site: SiteToken,
    },
    /// The continuation of a continuous overflow: `count` further
    /// accesses beyond the boundary of the object in `slot`, modelled in
    /// bulk. Heartbleed-style over-reads copy kilobytes — which is what
    /// gives access-sampling detectors (the Sampler baseline) their
    /// chance; watchpoint and redzone detectors already fired on the
    /// first out-of-bounds word.
    OverflowBurst {
        /// Executing thread.
        thread: TraceThread,
        /// Slot holding the overflowed object.
        slot: usize,
        /// Number of out-of-bounds accesses.
        count: u64,
        /// Over-read or over-write.
        kind: AccessKind,
        /// The overflowing statement.
        site: SiteToken,
    },
    /// `count` in-bounds 8-byte accesses at random-ish positions of the
    /// object in `slot`, modelled in bulk (full cost, one representative
    /// real access). This keeps access-dense performance workloads
    /// tractable without changing any overhead ratio.
    AccessBurst {
        /// Executing thread.
        thread: TraceThread,
        /// Slot holding the object.
        slot: usize,
        /// Number of accesses.
        count: u64,
        /// Load or store.
        kind: AccessKind,
        /// The performing statement.
        site: SiteToken,
    },
    /// A use-after-free: an access to the (freed) object that *used* to
    /// live in `slot`. Out of scope for CSOD (the watchpoint is removed
    /// at free); ASan's quarantine and Sampler's freed-object tracking
    /// can both see it.
    DanglingAccess {
        /// Executing thread.
        thread: TraceThread,
        /// Slot whose previous occupant is accessed after free.
        slot: usize,
        /// Byte offset into the dead object.
        offset: u64,
        /// Load or store.
        kind: AccessKind,
        /// The performing statement.
        site: SiteToken,
    },
    /// Enter function `func` (an index into the registry's function
    /// table): a dynamic call edge. Calls cost nothing at run time —
    /// they exist so the static analyzer can recover the calling
    /// context of every allocation and access (the call-string domain).
    Call {
        /// Executing thread.
        thread: TraceThread,
        /// Callee index in the registry's function table.
        func: usize,
    },
    /// Return from the innermost open [`Event::Call`] on `thread`
    /// (no-op if the thread's call stack is empty).
    Return {
        /// Executing thread.
        thread: TraceThread,
    },
    /// CPU work that touches no heap object.
    Compute {
        /// Executing thread.
        thread: TraceThread,
        /// Abstract operation count.
        ops: u64,
    },
    /// An I/O wait (network/disk); tools cannot shorten it.
    IoWait {
        /// Wait length in nanoseconds of virtual time.
        ns: u64,
    },
}

impl Event {
    /// Convenience constructor for a single-threaded malloc.
    pub fn malloc(site: usize, size: u64, slot: usize) -> Event {
        Event::Malloc {
            thread: 0,
            site,
            size,
            slot,
        }
    }

    /// Convenience constructor for a single-threaded free.
    pub fn free(slot: usize) -> Event {
        Event::Free { thread: 0, slot }
    }

    /// Convenience constructor for a single-threaded in-bounds access.
    pub fn access(slot: usize, offset: u64, len: u64, kind: AccessKind, site: SiteToken) -> Event {
        Event::Access {
            thread: 0,
            slot,
            offset,
            len,
            kind,
            site,
        }
    }

    /// Convenience constructor for a single-threaded access burst.
    pub fn burst(slot: usize, count: u64, kind: AccessKind, site: SiteToken) -> Event {
        Event::AccessBurst {
            thread: 0,
            slot,
            count,
            kind,
            site,
        }
    }

    /// Convenience constructor for a single-threaded overflow burst.
    pub fn overflow_burst(slot: usize, count: u64, kind: AccessKind, site: SiteToken) -> Event {
        Event::OverflowBurst {
            thread: 0,
            slot,
            count,
            kind,
            site,
        }
    }

    /// Convenience constructor for the single-threaded overflow event.
    pub fn overflow(slot: usize, kind: AccessKind, site: SiteToken) -> Event {
        Event::OverflowAccess {
            thread: 0,
            slot,
            kind,
            site,
        }
    }

    /// Convenience constructor for single-threaded CPU work.
    pub fn compute(ops: u64) -> Event {
        Event::Compute { thread: 0, ops }
    }

    /// Convenience constructor for a single-threaded call edge.
    pub fn call(func: usize) -> Event {
        Event::Call { thread: 0, func }
    }

    /// Convenience constructor for a single-threaded return.
    pub fn ret() -> Event {
        Event::Return { thread: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convenience_constructors_use_main_thread() {
        assert_eq!(
            Event::malloc(3, 64, 1),
            Event::Malloc {
                thread: 0,
                site: 3,
                size: 64,
                slot: 1
            }
        );
        assert_eq!(Event::free(2), Event::Free { thread: 0, slot: 2 });
        let a = Event::access(1, 8, 4, AccessKind::Read, SiteToken(5));
        assert!(matches!(
            a,
            Event::Access {
                offset: 8,
                len: 4,
                ..
            }
        ));
        let o = Event::overflow(1, AccessKind::Write, SiteToken(6));
        assert!(matches!(o, Event::OverflowAccess { slot: 1, .. }));
    }
}
