//! Escape and aliasing analysis over pointer slots.
//!
//! Slots are the IR's pointer variables. Before bounds inference can
//! relate an access to the size of the object it touches, it must know
//! *which* allocations can flow into the slot the access reads through
//! — and whether that set can be resolved flow-sensitively at all. A
//! slot written or read by more than one thread *escapes*: its content
//! at any use depends on the thread interleaving, so only the
//! flow-insensitive superset of its generations is sound. A slot
//! confined to one thread is resolved precisely by the dataflow pass in
//! [`cfg`](crate::cfg).

use crate::ir::{GenId, Program, StmtKind};
use std::collections::BTreeSet;

/// Everything the analysis knows about one pointer slot.
#[derive(Debug, Clone)]
pub struct SlotInfo {
    /// All generations ever stored in the slot, in allocation order.
    pub gens: Vec<GenId>,
    /// Threads that store into the slot (alloc).
    pub def_threads: BTreeSet<usize>,
    /// Threads that read through or free the slot.
    pub use_threads: BTreeSet<usize>,
    /// Whether the slot escapes its defining thread: touched by more
    /// than one thread, making its content interleaving-dependent.
    pub shared: bool,
    /// Number of uses-after-free through this slot (out of overflow
    /// scope, but reported for completeness).
    pub dangling_uses: usize,
}

impl SlotInfo {
    fn new() -> SlotInfo {
        SlotInfo {
            gens: Vec::new(),
            def_threads: BTreeSet::new(),
            use_threads: BTreeSet::new(),
            shared: false,
            dangling_uses: 0,
        }
    }
}

/// Per-slot escape facts for a whole program.
#[derive(Debug)]
pub struct SlotTable {
    /// Facts for each slot, indexed by slot number.
    pub slots: Vec<SlotInfo>,
}

impl SlotTable {
    /// The info for `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range for the analyzed program.
    pub fn slot(&self, slot: usize) -> &SlotInfo {
        &self.slots[slot]
    }
}

/// Computes the [`SlotTable`] of a lowered program.
pub fn analyze_slots(program: &Program) -> SlotTable {
    let mut slots = vec![SlotInfo::new(); program.slot_count];
    for gen in &program.generations {
        let info = &mut slots[gen.slot];
        info.gens.push(gen.id);
        info.def_threads.insert(gen.thread);
    }
    for (thread, stmts) in program.threads.iter().enumerate() {
        for stmt in stmts {
            match stmt.kind {
                StmtKind::Use { slot, dangling, .. } => {
                    let info = &mut slots[slot];
                    info.use_threads.insert(thread);
                    if dangling {
                        info.dangling_uses += 1;
                    }
                }
                StmtKind::Free { slot } => {
                    slots[slot].use_threads.insert(thread);
                }
                StmtKind::Alloc { .. }
                | StmtKind::Spawn { .. }
                | StmtKind::Call { .. }
                | StmtKind::Ret => {}
            }
        }
    }
    for info in &mut slots {
        let mut touching = info.def_threads.clone();
        touching.extend(info.use_threads.iter().copied());
        info.shared = touching.len() > 1;
    }
    SlotTable { slots }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::lower;
    use csod_ctx::FrameTable;
    use sim_machine::{AccessKind, SiteToken};
    use std::sync::Arc;
    use workloads::{Event, SiteRegistry};

    fn registry() -> SiteRegistry {
        let mut reg = SiteRegistry::new("esc", Arc::new(FrameTable::new()));
        reg.add_alloc_sites(2);
        reg.add_access_site("esc", "u.c:1");
        reg
    }

    #[test]
    fn single_thread_slots_do_not_escape() {
        let reg = registry();
        let t = SiteToken(0);
        let trace = vec![
            Event::malloc(0, 16, 0),
            Event::access(0, 0, 8, AccessKind::Read, t),
            Event::free(0),
            Event::malloc(1, 32, 0),
        ];
        let table = analyze_slots(&lower(&reg, &trace));
        assert!(table.slots.iter().all(|s| !s.shared));
        assert_eq!(table.slot(0).gens.len(), 2);
    }

    #[test]
    fn cross_thread_use_marks_the_slot_shared() {
        let reg = registry();
        let t = SiteToken(0);
        let trace = vec![
            Event::SpawnThread,
            Event::malloc(0, 16, 0), // allocated on thread 0
            Event::Access {
                thread: 1,
                slot: 0,
                offset: 0,
                len: 8,
                kind: AccessKind::Read,
                site: t,
            },
        ];
        let table = analyze_slots(&lower(&reg, &trace));
        assert!(table.slot(0).shared);
        assert_eq!(table.slots.iter().filter(|s| s.shared).count(), 1);
    }

    #[test]
    fn dangling_uses_are_counted() {
        let reg = registry();
        let t = SiteToken(0);
        let trace = vec![
            Event::malloc(0, 16, 0),
            Event::free(0),
            Event::DanglingAccess {
                thread: 0,
                slot: 0,
                offset: 0,
                kind: AccessKind::Read,
                site: t,
            },
        ];
        let table = analyze_slots(&lower(&reg, &trace));
        assert_eq!(table.slot(0).dangling_uses, 1);
        assert!(!table.slot(0).shared);
    }
}
