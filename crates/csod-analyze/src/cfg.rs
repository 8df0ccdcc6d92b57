//! Control-flow graph construction and flow-sensitive binding
//! resolution.
//!
//! Each thread's statement stream is split into basic blocks at thread
//! spawns (the only control transfer the IR has); a spawn block gets
//! two successors — its same-thread fall-through and the spawned
//! thread's entry. A worklist pass then propagates per-slot *reaching
//! allocation* states through the graph, joining at merge points, to
//! resolve every `Use` to the [`Binding`] it can touch:
//!
//! * slots confined to one thread resolve flow-sensitively — the state
//!   at the use names exactly the generations that can be live there;
//! * slots that [escape](crate::escape) resolve flow-insensitively to
//!   the superset of every generation ever stored in them, because the
//!   thread interleaving decides which one is current.

use crate::escape::SlotTable;
use crate::ir::{GenId, Program, StmtKind};
use std::collections::HashMap;

/// A basic block: a half-open statement range within one thread.
#[derive(Debug, Clone)]
pub struct Block {
    /// First statement index (inclusive).
    pub start: usize,
    /// Last statement index (exclusive).
    pub end: usize,
    /// Successor blocks as `(thread, block)` pairs.
    pub succs: Vec<(usize, usize)>,
}

/// The control-flow graph of a lowered program.
#[derive(Debug)]
pub struct Cfg {
    /// Blocks of each thread; every thread has at least one (possibly
    /// empty) block so spawn edges always have a target.
    pub blocks: Vec<Vec<Block>>,
}

impl Cfg {
    /// Builds the CFG of `program`.
    pub fn build(program: &Program) -> Cfg {
        let mut blocks: Vec<Vec<Block>> = Vec::with_capacity(program.threads.len());
        for stmts in &program.threads {
            let mut thread_blocks = Vec::new();
            let mut start = 0usize;
            for (i, stmt) in stmts.iter().enumerate() {
                if matches!(stmt.kind, StmtKind::Spawn { .. }) {
                    thread_blocks.push(Block {
                        start,
                        end: i + 1,
                        succs: Vec::new(),
                    });
                    start = i + 1;
                }
            }
            if start < stmts.len() || thread_blocks.is_empty() {
                thread_blocks.push(Block {
                    start,
                    end: stmts.len(),
                    succs: Vec::new(),
                });
            }
            blocks.push(thread_blocks);
        }
        // Wire successors now that every thread has its entry block.
        for t in 0..blocks.len() {
            for b in 0..blocks[t].len() {
                let mut succs = Vec::new();
                let (start, end) = (blocks[t][b].start, blocks[t][b].end);
                if end > start {
                    if let StmtKind::Spawn { child } = program.threads[t][end - 1].kind {
                        if child < blocks.len() {
                            succs.push((child, 0));
                        }
                    }
                }
                if b + 1 < blocks[t].len() {
                    succs.push((t, b + 1));
                }
                blocks[t][b].succs = succs;
            }
        }
        Cfg { blocks }
    }
}

/// The set of allocations a `Use` statement can touch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Binding {
    /// The slot is provably empty here: the access is a no-op.
    None,
    /// Exactly one generation can be in the slot.
    Definite(GenId),
    /// Any of these generations can be in the slot.
    Ambiguous(Vec<GenId>),
}

/// Resolved bindings for every `Use` statement, keyed by
/// `(thread, statement index)`.
#[derive(Debug, Default)]
pub struct Bindings {
    map: HashMap<(usize, usize), Binding>,
}

impl Bindings {
    /// The binding of the `Use` at `stmt` in `thread`, if that
    /// statement is a reachable `Use`.
    pub fn of(&self, thread: usize, stmt: usize) -> Option<&Binding> {
        self.map.get(&(thread, stmt))
    }
}

/// Per-slot reaching-allocation state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SlotState {
    /// Generations that can currently be in the slot (sorted).
    gens: Vec<GenId>,
    /// Whether the slot can be empty here.
    maybe_empty: bool,
}

impl SlotState {
    fn empty() -> SlotState {
        SlotState {
            gens: Vec::new(),
            maybe_empty: true,
        }
    }

    fn join_into(&mut self, other: &SlotState) -> bool {
        let mut changed = false;
        for g in &other.gens {
            if let Err(pos) = self.gens.binary_search(g) {
                self.gens.insert(pos, *g);
                changed = true;
            }
        }
        if other.maybe_empty && !self.maybe_empty {
            self.maybe_empty = true;
            changed = true;
        }
        changed
    }
}

/// Resolves every `Use` statement of `program` to its [`Binding`] by a
/// worklist dataflow over `cfg`, consulting `slots` for escape facts.
pub fn resolve_bindings(program: &Program, cfg: &Cfg, slots: &SlotTable) -> Bindings {
    let entry_state = vec![SlotState::empty(); program.slot_count];
    let mut in_states: Vec<Vec<Option<Vec<SlotState>>>> =
        cfg.blocks.iter().map(|tb| vec![None; tb.len()]).collect();
    in_states[0][0] = Some(entry_state);

    let mut bindings = Bindings::default();
    let mut worklist = vec![(0usize, 0usize)];
    while let Some((t, b)) = worklist.pop() {
        let Some(state_in) = in_states[t][b].clone() else {
            continue;
        };
        let mut state = state_in;
        let block = &cfg.blocks[t][b];
        for i in block.start..block.end {
            let stmt = &program.threads[t][i];
            match stmt.kind {
                StmtKind::Alloc { gen } => {
                    let slot = program.generation(gen).slot;
                    // Strong update: the slot now holds exactly `gen`.
                    state[slot] = SlotState {
                        gens: vec![gen],
                        maybe_empty: false,
                    };
                }
                StmtKind::Free { slot } => {
                    state[slot] = SlotState::empty();
                }
                StmtKind::Use { slot, .. } => {
                    let info = slots.slot(slot);
                    let binding = if info.shared {
                        // Interleaving-dependent: only the superset of
                        // everything ever stored here is sound.
                        match info.gens.len() {
                            0 => Binding::None,
                            1 => Binding::Definite(info.gens[0]),
                            _ => Binding::Ambiguous(info.gens.clone()),
                        }
                    } else {
                        match state[slot].gens.len() {
                            0 => Binding::None,
                            1 => Binding::Definite(state[slot].gens[0]),
                            _ => Binding::Ambiguous(state[slot].gens.clone()),
                        }
                    };
                    bindings.map.insert((t, i), binding);
                }
                StmtKind::Spawn { .. } | StmtKind::Call { .. } | StmtKind::Ret => {}
            }
        }
        for &(st, sb) in &block.succs {
            match &mut in_states[st][sb] {
                Some(existing) => {
                    let mut changed = false;
                    for (slot, s) in existing.iter_mut().enumerate() {
                        changed |= s.join_into(&state[slot]);
                    }
                    if changed {
                        worklist.push((st, sb));
                    }
                }
                none => {
                    *none = Some(state.clone());
                    worklist.push((st, sb));
                }
            }
        }
    }
    bindings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::escape::analyze_slots;
    use crate::ir::lower;
    use csod_ctx::FrameTable;
    use sim_machine::{AccessKind, SiteToken};
    use std::sync::Arc;
    use workloads::{Event, SiteRegistry};

    fn registry(sites: usize) -> SiteRegistry {
        let mut reg = SiteRegistry::new("cfgtest", Arc::new(FrameTable::new()));
        reg.add_alloc_sites(sites);
        reg.add_access_site("cfgtest", "u.c:1");
        reg
    }

    fn analyze(reg: &SiteRegistry, trace: &[Event]) -> (Program, Bindings) {
        let program = lower(reg, trace);
        let cfg = Cfg::build(&program);
        let slots = analyze_slots(&program);
        let bindings = resolve_bindings(&program, &cfg, &slots);
        (program, bindings)
    }

    #[test]
    fn spawns_split_blocks_and_wire_children() {
        let reg = registry(1);
        let trace = vec![
            Event::malloc(0, 8, 0),
            Event::SpawnThread,
            Event::SpawnThread,
            Event::free(0),
        ];
        let p = lower(&reg, &trace);
        let cfg = Cfg::build(&p);
        // Thread 0: [alloc, spawn] [spawn] [free]; threads 1/2: entry.
        assert_eq!(cfg.blocks[0].len(), 3);
        assert_eq!(cfg.blocks.iter().map(Vec::len).sum::<usize>(), 5);
        assert_eq!(cfg.blocks[0][0].succs, vec![(1, 0), (0, 1)]);
        assert_eq!(cfg.blocks[0][1].succs, vec![(2, 0), (0, 2)]);
        assert!(cfg.blocks[0][2].succs.is_empty());
    }

    #[test]
    fn reallocation_rebinds_definitely_in_one_thread() {
        let reg = registry(2);
        let t = SiteToken(0);
        let trace = vec![
            Event::malloc(0, 16, 0),
            Event::access(0, 0, 8, AccessKind::Read, t), // gen 0
            Event::free(0),
            Event::malloc(1, 32, 0),
            Event::access(0, 0, 8, AccessKind::Read, t), // gen 1
        ];
        let (p, b) = analyze(&reg, &trace);
        assert_eq!(b.of(0, 1), Some(&Binding::Definite(crate::ir::GenId(0))));
        assert_eq!(b.of(0, 4), Some(&Binding::Definite(crate::ir::GenId(1))));
        assert_eq!(p.generations.len(), 2);
    }

    #[test]
    fn use_of_an_empty_slot_is_binding_none() {
        let reg = registry(1);
        let t = SiteToken(0);
        let trace = vec![
            Event::malloc(0, 16, 0),
            Event::free(0),
            Event::access(0, 0, 8, AccessKind::Read, t),
        ];
        let (_, b) = analyze(&reg, &trace);
        assert_eq!(b.of(0, 2), Some(&Binding::None));
    }

    #[test]
    fn shared_multi_generation_slot_is_ambiguous_everywhere() {
        let reg = registry(2);
        let t = SiteToken(0);
        // Thread 0 allocates into slot 0 twice; thread 1 reads it. The
        // read makes the slot escape, so even thread 0's own access
        // right after the second malloc is interleaving-ambiguous.
        let trace = vec![
            Event::SpawnThread,
            Event::malloc(0, 16, 0),
            Event::malloc(1, 32, 0),
            Event::Access {
                thread: 1,
                slot: 0,
                offset: 0,
                len: 8,
                kind: AccessKind::Read,
                site: t,
            },
            Event::access(0, 0, 8, AccessKind::Read, t),
        ];
        let (_, b) = analyze(&reg, &trace);
        let amb = Binding::Ambiguous(vec![crate::ir::GenId(0), crate::ir::GenId(1)]);
        assert_eq!(b.of(1, 0), Some(&amb));
        assert_eq!(b.of(0, 3), Some(&amb));
    }

    #[test]
    fn shared_single_generation_slot_stays_definite() {
        let reg = registry(1);
        let t = SiteToken(0);
        let trace = vec![
            Event::SpawnThread,
            Event::malloc(0, 16, 0),
            Event::Access {
                thread: 1,
                slot: 0,
                offset: 0,
                len: 8,
                kind: AccessKind::Read,
                site: t,
            },
        ];
        let (_, b) = analyze(&reg, &trace);
        // Only one generation ever enters the slot: the cross-thread
        // read can touch it or nothing — still definite for bounds.
        assert_eq!(b.of(1, 0), Some(&Binding::Definite(crate::ir::GenId(0))));
    }
}
