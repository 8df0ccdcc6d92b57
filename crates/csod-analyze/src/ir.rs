//! Lowering of workload event traces into an analyzable program IR.
//!
//! The analyzer does not interpret [`Event`] streams directly: it first
//! lowers them into a per-thread statement IR in which every `Malloc`
//! becomes a distinct *generation* (an SSA-like name for one dynamic
//! allocation), every heap access carries a symbolic [`AccessRange`],
//! and thread spawns become explicit control edges. Events that touch
//! no heap object (`Compute`, `IoWait`) are dropped — they cannot
//! change any bounds fact.

use sim_machine::{AccessKind, SiteToken};
use workloads::{Event, SiteRegistry};

/// Identifier of one allocation generation (one `Malloc` event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GenId(pub u32);

/// One dynamic allocation: the object a `Malloc` event creates.
#[derive(Debug, Clone)]
pub struct Generation {
    /// Dense identifier.
    pub id: GenId,
    /// Slot the pointer is stored into.
    pub slot: usize,
    /// Allocation-site index in the registry.
    pub site: usize,
    /// Requested size in bytes.
    pub size: u64,
    /// Allocating thread.
    pub thread: usize,
    /// Position in the original event stream.
    pub seq: usize,
}

/// Symbolic byte range of one heap access, relative to the object base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessRange {
    /// An access of `len` bytes starting at `offset`, as written.
    Exact {
        /// Byte offset into the object.
        offset: u64,
        /// Access length in bytes.
        len: u64,
    },
    /// A bulk access known to stay within the first in-bounds word —
    /// the runner's `AccessBurst` semantics.
    FirstWord,
    /// An access that starts at the word past the object boundary — the
    /// runner's `OverflowAccess`/`OverflowBurst` semantics. Always out
    /// of bounds for every possible size.
    PastEnd,
}

/// The operation a statement performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmtKind {
    /// Store a fresh object into the generation's slot.
    Alloc {
        /// The generation being allocated.
        gen: GenId,
    },
    /// Empty `slot` (no-op if already empty).
    Free {
        /// The slot being freed.
        slot: usize,
    },
    /// Access the object currently in `slot` (no-op if empty).
    Use {
        /// The slot being read through.
        slot: usize,
        /// The symbolic byte range accessed.
        range: AccessRange,
        /// The performing access site.
        token: SiteToken,
        /// Load or store.
        kind: AccessKind,
        /// Whether this is a use-after-free (out of overflow scope).
        dangling: bool,
    },
    /// Spawn thread `child`; its statements may run from here on.
    Spawn {
        /// Index of the spawned thread.
        child: usize,
    },
    /// Enter function `func`: a dynamic call edge. Pairs with the next
    /// unmatched [`StmtKind::Ret`] on the same thread.
    Call {
        /// Callee index in the registry's function table.
        func: usize,
    },
    /// Return from the innermost open call on the thread (no-op if the
    /// thread's call stack is empty).
    Ret,
}

/// One IR statement with its position in the original trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stmt {
    /// The operation.
    pub kind: StmtKind,
    /// Index of the originating event in the trace.
    pub seq: usize,
}

/// A lowered program: per-thread statement streams plus the allocation
/// generations they create.
#[derive(Debug)]
pub struct Program {
    /// Application name (from the registry).
    pub app: String,
    /// Statement stream of each thread; index 0 is the main thread.
    pub threads: Vec<Vec<Stmt>>,
    /// All allocation generations, indexed by [`GenId`].
    pub generations: Vec<Generation>,
    /// Number of pointer slots the trace uses.
    pub slot_count: usize,
    /// Number of allocation sites in the registry.
    pub alloc_site_count: usize,
    /// Number of functions in the registry's function table.
    pub function_count: usize,
}

impl Program {
    /// The generation behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this program.
    pub fn generation(&self, id: GenId) -> &Generation {
        &self.generations[id.0 as usize]
    }
}

/// Lowers a trace against its registry into a [`Program`].
///
/// Spawns always execute on the main thread (matching the runner);
/// events naming a thread that was never spawned are attributed to the
/// highest spawned thread, mirroring the runner's tolerance.
///
/// # Panics
///
/// Panics if the trace contains more than `u32::MAX` allocations
/// (generation ids are 32-bit).
pub fn lower(registry: &SiteRegistry, trace: &[Event]) -> Program {
    let mut threads: Vec<Vec<Stmt>> = vec![Vec::new()];
    let mut generations: Vec<Generation> = Vec::new();
    let mut slot_count = 0usize;

    let push = |threads: &mut Vec<Vec<Stmt>>, thread: usize, kind: StmtKind, seq: usize| {
        let t = thread.min(threads.len() - 1);
        threads[t].push(Stmt { kind, seq });
    };

    for (seq, event) in trace.iter().enumerate() {
        match *event {
            Event::SpawnThread => {
                let child = threads.len();
                threads.push(Vec::new());
                threads[0].push(Stmt {
                    kind: StmtKind::Spawn { child },
                    seq,
                });
            }
            Event::Malloc {
                thread,
                site,
                size,
                slot,
            } => {
                slot_count = slot_count.max(slot + 1);
                let id = GenId(u32::try_from(generations.len()).expect("< 2^32 allocations"));
                let thread = (thread as usize).min(threads.len() - 1);
                generations.push(Generation {
                    id,
                    slot,
                    site,
                    size,
                    thread,
                    seq,
                });
                push(&mut threads, thread, StmtKind::Alloc { gen: id }, seq);
            }
            Event::Free { thread, slot } => {
                slot_count = slot_count.max(slot + 1);
                push(&mut threads, thread as usize, StmtKind::Free { slot }, seq);
            }
            Event::Access {
                thread,
                slot,
                offset,
                len,
                kind,
                site,
            } => {
                slot_count = slot_count.max(slot + 1);
                push(
                    &mut threads,
                    thread as usize,
                    StmtKind::Use {
                        slot,
                        range: AccessRange::Exact { offset, len },
                        token: site,
                        kind,
                        dangling: false,
                    },
                    seq,
                );
            }
            Event::AccessBurst {
                thread,
                slot,
                kind,
                site,
                ..
            } => {
                slot_count = slot_count.max(slot + 1);
                push(
                    &mut threads,
                    thread as usize,
                    StmtKind::Use {
                        slot,
                        range: AccessRange::FirstWord,
                        token: site,
                        kind,
                        dangling: false,
                    },
                    seq,
                );
            }
            Event::OverflowAccess {
                thread,
                slot,
                kind,
                site,
            }
            | Event::OverflowBurst {
                thread,
                slot,
                kind,
                site,
                ..
            } => {
                slot_count = slot_count.max(slot + 1);
                push(
                    &mut threads,
                    thread as usize,
                    StmtKind::Use {
                        slot,
                        range: AccessRange::PastEnd,
                        token: site,
                        kind,
                        dangling: false,
                    },
                    seq,
                );
            }
            Event::DanglingAccess {
                thread,
                slot,
                offset,
                kind,
                site,
            } => {
                slot_count = slot_count.max(slot + 1);
                push(
                    &mut threads,
                    thread as usize,
                    StmtKind::Use {
                        slot,
                        range: AccessRange::Exact { offset, len: 8 },
                        token: site,
                        kind,
                        dangling: true,
                    },
                    seq,
                );
            }
            Event::Call { thread, func } => {
                push(&mut threads, thread as usize, StmtKind::Call { func }, seq);
            }
            Event::Return { thread } => {
                push(&mut threads, thread as usize, StmtKind::Ret, seq);
            }
            Event::Compute { .. } | Event::IoWait { .. } => {}
        }
    }

    Program {
        app: registry.app().to_owned(),
        threads,
        generations,
        slot_count,
        alloc_site_count: registry.alloc_site_count(),
        function_count: registry.function_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csod_ctx::FrameTable;
    use std::sync::Arc;

    fn tiny_registry(sites: usize) -> SiteRegistry {
        let mut reg = SiteRegistry::new("irtest", Arc::new(FrameTable::new()));
        reg.add_alloc_sites(sites);
        reg.add_access_site("irtest", "use.c:1");
        reg
    }

    #[test]
    fn lowering_assigns_generations_and_threads() {
        let reg = tiny_registry(2);
        let t = SiteToken(0);
        let trace = vec![
            Event::SpawnThread,
            Event::malloc(0, 64, 0),
            Event::Malloc {
                thread: 1,
                site: 1,
                size: 32,
                slot: 1,
            },
            Event::access(0, 8, 8, AccessKind::Read, t),
            Event::Compute { thread: 0, ops: 99 },
            Event::free(0),
        ];
        let p = lower(&reg, &trace);
        assert_eq!(p.threads.len(), 2);
        assert_eq!(p.generations.len(), 2);
        assert_eq!(p.slot_count, 2);
        assert_eq!(p.generation(GenId(1)).size, 32);
        assert_eq!(p.generation(GenId(1)).thread, 1);
        // Main thread: spawn, alloc, use, free (compute dropped).
        assert_eq!(p.threads[0].len(), 4);
        assert!(matches!(p.threads[0][0].kind, StmtKind::Spawn { child: 1 }));
        assert!(matches!(
            p.threads[0][2].kind,
            StmtKind::Use {
                dangling: false,
                ..
            }
        ));
    }

    #[test]
    fn overflow_events_lower_to_past_end_uses() {
        let reg = tiny_registry(1);
        let t = SiteToken(0);
        let trace = vec![
            Event::malloc(0, 16, 0),
            Event::overflow(0, AccessKind::Write, t),
            Event::overflow_burst(0, 10, AccessKind::Write, t),
        ];
        let p = lower(&reg, &trace);
        let past_end = p.threads[0]
            .iter()
            .filter(|s| {
                matches!(
                    s.kind,
                    StmtKind::Use {
                        range: AccessRange::PastEnd,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(past_end, 2);
    }
}
