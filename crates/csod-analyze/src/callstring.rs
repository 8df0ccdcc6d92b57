//! The k-limited call-string context domain.
//!
//! Context sensitivity is what separates CSOD's priors from a plain
//! per-site classifier: the same access statement can be harmless under
//! one caller and an overflow under another. This module assigns every
//! IR statement and every allocation generation a *context* — the
//! k-suffix of the dynamic call stack at that point, interned into a
//! dense [`CtxId`] — by replaying each thread's [`Call`]/[`Ret`]
//! statements. The k-limit makes the domain finite: recursion deeper
//! than `k` collapses onto its suffix, so two activations of the same
//! frame chain share one context (and one summary).
//!
//! Spawned threads inherit the call stack of their spawn point, so a
//! worker's accesses are attributed to the server frame that launched
//! it — the spawn edge crosses call strings instead of resetting them.
//!
//! With `k = 0` the domain is the single empty context and the whole
//! analysis degenerates, bit for bit, to the context-insensitive
//! pipeline of earlier revisions.
//!
//! [`Call`]: crate::ir::StmtKind::Call
//! [`Ret`]: crate::ir::StmtKind::Ret

use crate::ir::{Program, StmtKind};
use std::collections::HashMap;
use workloads::SiteRegistry;

/// Interned identifier of one k-limited call string. Id 0 is always the
/// empty string (top level / `k = 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CtxId(pub u32);

impl CtxId {
    /// The empty call string.
    pub const ROOT: CtxId = CtxId(0);
}

/// Interner for k-limited call strings (outermost frame first).
#[derive(Debug, Default)]
pub struct CtxTable {
    strings: Vec<Vec<usize>>,
    ids: HashMap<Vec<usize>, CtxId>,
}

impl CtxTable {
    /// An interner holding only the empty string.
    pub fn new() -> CtxTable {
        let mut table = CtxTable {
            strings: Vec::new(),
            ids: HashMap::new(),
        };
        table.intern(&[]);
        table
    }

    /// Interns `suffix` (outermost first), returning its dense id.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct strings are interned.
    pub fn intern(&mut self, suffix: &[usize]) -> CtxId {
        if let Some(&id) = self.ids.get(suffix) {
            return id;
        }
        let id = CtxId(u32::try_from(self.strings.len()).expect("< 2^32 call strings"));
        self.strings.push(suffix.to_vec());
        self.ids.insert(suffix.to_vec(), id);
        id
    }

    /// The function indices of `id`, outermost first.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this table.
    pub fn string(&self, id: CtxId) -> &[usize] {
        &self.strings[id.0 as usize]
    }

    /// Number of distinct call strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether only the empty string is interned.
    pub fn is_empty(&self) -> bool {
        self.strings.len() <= 1
    }

    /// Renders `id` as `outer>inner` function names (`-` for the empty
    /// string), resolving names against `registry`.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this table.
    pub fn render(&self, id: CtxId, registry: &SiteRegistry) -> String {
        let s = self.string(id);
        if s.is_empty() {
            "-".to_owned()
        } else {
            s.iter()
                .map(|&f| registry.function_name(f))
                .collect::<Vec<_>>()
                .join(">")
        }
    }
}

/// Context assignment for a whole program: one [`CtxId`] per statement
/// and per allocation generation.
#[derive(Debug)]
pub struct CtxAssignment {
    /// The interner behind every id below.
    pub table: CtxTable,
    /// Context of each statement, parallel to `Program::threads`.
    pub stmt_ctx: Vec<Vec<CtxId>>,
    /// Context of each allocation generation, indexed by `GenId`.
    pub gen_ctx: Vec<CtxId>,
    /// The k-limit the assignment was computed with.
    pub k: usize,
}

impl CtxAssignment {
    /// Context of statement `stmt` in `thread`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range for the assigned program.
    pub fn ctx_of(&self, thread: usize, stmt: usize) -> CtxId {
        self.stmt_ctx[thread][stmt]
    }
}

/// Assigns every statement and generation of `program` its k-limited
/// call string.
///
/// Threads are replayed in spawn order: the main thread starts at the
/// empty stack, every other thread starts at the stack its `Spawn`
/// statement executed under. Unmatched `Ret`s pop nothing.
pub fn assign(program: &Program, k: usize) -> CtxAssignment {
    let mut table = CtxTable::new();
    let mut stmt_ctx: Vec<Vec<CtxId>> = program
        .threads
        .iter()
        .map(|stmts| vec![CtxId::ROOT; stmts.len()])
        .collect();
    let mut gen_ctx = vec![CtxId::ROOT; program.generations.len()];
    // Entry stack of each thread; filled in as spawns are replayed.
    let mut entry: Vec<Option<Vec<usize>>> = vec![None; program.threads.len()];
    entry[0] = Some(Vec::new());

    // Spawn statements only ever appear on already-replayed threads (the
    // lowering puts them on the main thread), so one pass in thread
    // order sees every entry stack before it is needed.
    for t in 0..program.threads.len() {
        let mut stack = entry[t].take().unwrap_or_default();
        for (i, stmt) in program.threads[t].iter().enumerate() {
            match stmt.kind {
                StmtKind::Call { func } => {
                    stack.push(func);
                }
                StmtKind::Ret => {
                    stack.pop();
                }
                StmtKind::Spawn { child } => {
                    if child < entry.len() && child > t {
                        entry[child] = Some(stack.clone());
                    }
                }
                StmtKind::Alloc { .. } | StmtKind::Free { .. } | StmtKind::Use { .. } => {}
            }
            let suffix_start = stack.len().saturating_sub(k);
            let ctx = if k == 0 {
                CtxId::ROOT
            } else {
                table.intern(&stack[suffix_start..])
            };
            stmt_ctx[t][i] = ctx;
            if let StmtKind::Alloc { gen } = stmt.kind {
                gen_ctx[gen.0 as usize] = ctx;
            }
        }
    }

    CtxAssignment {
        table,
        stmt_ctx,
        gen_ctx,
        k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::lower;
    use csod_ctx::FrameTable;
    use sim_machine::{AccessKind, SiteToken};
    use std::sync::Arc;
    use workloads::{Event, SiteRegistry};

    fn registry(functions: &[&str]) -> SiteRegistry {
        let mut reg = SiteRegistry::new("ctxtest", Arc::new(FrameTable::new()));
        reg.add_alloc_sites(2);
        reg.add_access_site("ctxtest", "u.c:1");
        for f in functions {
            reg.add_function(f);
        }
        reg
    }

    #[test]
    fn contexts_follow_calls_and_returns() {
        let reg = registry(&["f", "g"]);
        let t = SiteToken(0);
        let trace = vec![
            Event::malloc(0, 16, 0), // top level
            Event::call(0),          // f
            Event::call(1),          // f > g
            Event::access(0, 0, 8, AccessKind::Read, t),
            Event::ret(), // back to f
            Event::access(0, 0, 8, AccessKind::Read, t),
            Event::ret(),
        ];
        let p = lower(&reg, &trace);
        let a = assign(&p, 2);
        assert_eq!(a.ctx_of(0, 0), CtxId::ROOT);
        assert_eq!(a.table.string(a.ctx_of(0, 3)), &[0, 1]);
        assert_eq!(a.table.string(a.ctx_of(0, 5)), &[0]);
        assert_eq!(a.gen_ctx[0], CtxId::ROOT);
        assert_eq!(a.table.render(a.ctx_of(0, 3), &reg), "f>g");
        assert_eq!(a.table.render(CtxId::ROOT, &reg), "-");
    }

    #[test]
    fn recursion_collapses_to_the_k_suffix() {
        let reg = registry(&["f", "g"]);
        let t = SiteToken(0);
        // f > f > f > f > g must equal f > g at k = 2.
        let mut deep = vec![Event::malloc(0, 16, 0)];
        for _ in 0..4 {
            deep.push(Event::call(0));
        }
        deep.push(Event::call(1));
        deep.push(Event::access(0, 0, 8, AccessKind::Read, t));
        let shallow = vec![
            Event::malloc(0, 16, 0),
            Event::call(0),
            Event::call(1),
            Event::access(0, 0, 8, AccessKind::Read, t),
        ];
        let (pd, ps) = (lower(&reg, &deep), lower(&reg, &shallow));
        let (ad, aspn) = (assign(&pd, 2), assign(&ps, 2));
        let deep_use = pd.threads[0].len() - 1;
        let shallow_use = ps.threads[0].len() - 1;
        assert_eq!(
            ad.table.string(ad.ctx_of(0, deep_use)),
            aspn.table.string(aspn.ctx_of(0, shallow_use))
        );
        // At k = 3 the deep chain keeps one extra recursive frame.
        let ad3 = assign(&pd, 3);
        assert_eq!(ad3.table.string(ad3.ctx_of(0, deep_use)), &[0, 0, 1]);
    }

    #[test]
    fn k_zero_is_the_single_root_context() {
        let reg = registry(&["f"]);
        let trace = vec![Event::call(0), Event::malloc(0, 8, 0), Event::ret()];
        let p = lower(&reg, &trace);
        let a = assign(&p, 0);
        assert!(a.table.is_empty());
        assert_eq!(a.gen_ctx[0], CtxId::ROOT);
    }

    #[test]
    fn spawned_threads_inherit_the_spawn_point_stack() {
        let reg = registry(&["srv"]);
        let t = SiteToken(0);
        let trace = vec![
            Event::call(0), // enter srv on main
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
            Event::ret(),
        ];
        let p = lower(&reg, &trace);
        let a = assign(&p, 2);
        // The worker's access carries the srv frame it was spawned under.
        assert_eq!(a.table.string(a.ctx_of(1, 0)), &[0]);
    }

    #[test]
    fn unmatched_returns_are_tolerated() {
        let reg = registry(&["f"]);
        let trace = vec![Event::ret(), Event::call(0), Event::malloc(0, 8, 0)];
        let p = lower(&reg, &trace);
        let a = assign(&p, 2);
        assert_eq!(a.table.string(a.gen_ctx[0]), &[0]);
    }
}
