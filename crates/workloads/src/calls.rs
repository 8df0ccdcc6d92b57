//! Context-sensitivity corpus: server-shaped workloads whose overflow
//! risk is a property of the *calling context* — the paper's premise,
//! distilled into traces the static analyzer can be measured on.
//!
//! Every [`CallSensitiveApp`] models the same architecture: a server
//! loop dispatches rounds of work to a handful of *handler* functions,
//! each of which calls one shared `mem_helper` routine that owns the
//! only statement touching a connection buffer. The buffer slot is also
//! peeked by a worker thread, so it escapes and every helper access
//! resolves ambiguously. Each handler drives the helper with its own
//! offset range:
//!
//! * merged across handlers (a context-*insensitive* view), the
//!   helper's access summary keeps growing past the widening threshold
//!   and proves nothing — the site classifies **unknown**;
//! * split per call string (`handler_h → mem_helper`), each summary is
//!   a small stable hull that fits the buffer (**proven-safe**).
//!
//! The evil handler keeps its connection in a private local (a
//! thread-confined slot of the *same* allocation site), so its
//! out-of-bounds drive binds definitely to its own generations: the
//! **suspicious** verdict pins to the evil call string while every
//! other context of the site stays provable.
//!
//! The corpus also exercises the k-limit edge cases: handlers that
//! recurse (the call string must collapse to its k-suffix) and workers
//! spawned *inside* the server loop (the spawn edge must carry the
//! spawn point's call string into the child thread).

use crate::sites::SiteRegistry;
use crate::trace::Event;
use csod_ctx::FrameTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_machine::AccessKind;
use std::sync::Arc;

/// One context-sensitivity scenario. See the module docs for the shape.
#[derive(Debug, Clone, Copy)]
pub struct CallSensitiveApp {
    /// Scenario name.
    pub name: &'static str,
    /// Handler functions the server loop fans out to.
    pub handlers: usize,
    /// Rounds: each round runs every handler once.
    pub rounds: usize,
    /// Connection-buffer size in bytes.
    pub buf_size: u64,
    /// Handler whose call string drives the helper out of bounds
    /// (`None` = every context is clean).
    pub evil_handler: Option<usize>,
    /// Extra self-recursive calls each handler makes before reaching
    /// the helper (0 = none). Verdicts must not depend on this at any
    /// `k`: the call string collapses to its k-suffix.
    pub recursion_depth: usize,
    /// Spawn the worker thread *inside* the server-loop call, so the
    /// worker's accesses inherit the spawn point's call string.
    pub spawn_in_loop: bool,
}

/// Byte stride separating the offset ranges of adjacent handlers.
const HANDLER_STRIDE: u64 = 64;
/// Bytes the helper touches per access.
const ACCESS_LEN: u64 = 8;

impl CallSensitiveApp {
    /// The corpus, in fixed order.
    pub fn all() -> Vec<CallSensitiveApp> {
        vec![
            CallSensitiveApp {
                name: "SrvClean-3h",
                handlers: 3,
                rounds: 40,
                buf_size: 512,
                evil_handler: None,
                recursion_depth: 0,
                spawn_in_loop: false,
            },
            CallSensitiveApp {
                name: "SrvEvil-4h",
                handlers: 4,
                rounds: 40,
                buf_size: 640,
                evil_handler: Some(3),
                recursion_depth: 0,
                spawn_in_loop: false,
            },
            CallSensitiveApp {
                name: "SrvRecurse-3h",
                handlers: 3,
                rounds: 40,
                buf_size: 512,
                evil_handler: None,
                recursion_depth: 3,
                spawn_in_loop: false,
            },
            CallSensitiveApp {
                name: "SrvSpawnCtx-2h",
                handlers: 2,
                rounds: 48,
                buf_size: 512,
                evil_handler: None,
                recursion_depth: 0,
                spawn_in_loop: true,
            },
        ]
    }

    /// Allocation-site index of the shared connection buffer — the site
    /// whose verdict the corpus is designed to move.
    pub fn buffer_site(&self) -> usize {
        0
    }

    /// Allocation-site index of the private (thread-confined) arena.
    pub fn arena_site(&self) -> usize {
        1
    }

    /// Builds the scenario's site registry.
    pub fn registry(&self) -> SiteRegistry {
        let mut reg = SiteRegistry::new("srvsim", Arc::new(FrameTable::new()));
        reg.add_alloc_site(4); // site 0: connection buffer (escapes)
        reg.add_alloc_site(4); // site 1: private arena
        reg.add_access_site("srvsim", "mem_helper.c:13"); // token 0: the shared helper
        reg.add_access_site("srvsim", "worker_peek.c:7"); // token 1: worker reads
        reg.add_access_site("srvsim", "arena_use.c:21"); // token 2: arena traffic
        reg.add_function("srv_loop");
        for h in 0..self.handlers {
            reg.add_function(&format!("handler_{h}"));
        }
        reg.add_function("mem_helper");
        reg
    }

    /// Function index of handler `h` (`srv_loop` is function 0).
    fn handler_fn(&self, h: usize) -> usize {
        1 + h
    }

    /// Function index of the shared memory helper.
    fn helper_fn(&self) -> usize {
        1 + self.handlers
    }

    /// Exclusive end offset of handler `h`'s access in round `r`.
    fn end_of(&self, h: usize, r: usize) -> u64 {
        if self.evil_handler == Some(h) {
            // The evil context reaches past the buffer in every round.
            self.buf_size + ACCESS_LEN
        } else {
            h as u64 * HANDLER_STRIDE + (r as u64 + 1) * ACCESS_LEN
        }
    }

    /// Generates the execution trace (deterministic per `gen_seed`; the
    /// seed only shuffles the handler order within each round).
    pub fn trace(&self, gen_seed: u64) -> Vec<Event> {
        let mut rng = StdRng::seed_from_u64(gen_seed ^ 0xCA11_57A6);
        let helper = sim_machine::SiteToken(0);
        let peek = sim_machine::SiteToken(1);
        let arena_use = sim_machine::SiteToken(2);
        let mut events = Vec::new();

        // The worker thread: spawned either at top level or from inside
        // the server loop (the spawn edge then crosses a call string).
        if self.spawn_in_loop {
            events.push(Event::call(0));
            events.push(Event::SpawnThread);
        } else {
            events.push(Event::SpawnThread);
            events.push(Event::call(0));
        }

        // The private arena, confined to the main thread.
        events.push(Event::Malloc {
            thread: 0,
            site: self.arena_site(),
            size: 256,
            slot: 1,
        });

        let mut order: Vec<usize> = (0..self.handlers).collect();
        for r in 0..self.rounds {
            // Shuffle which handler serves this round first.
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for &h in &order {
                events.push(Event::call(self.handler_fn(h)));
                for _ in 0..self.recursion_depth {
                    events.push(Event::call(self.handler_fn(h)));
                }
                events.push(Event::call(self.helper_fn()));
                // A fresh connection buffer every block. Clean handlers
                // share slot 0, which the worker's peeks make escape —
                // their bindings stay ambiguous and the verdict rides
                // on summaries. The evil handler keeps its buffer in a
                // private local (slot 2, thread-confined), so its
                // overflow binds definitely to its own generations.
                let buf_slot = if self.evil_handler == Some(h) { 2 } else { 0 };
                events.push(Event::Malloc {
                    thread: 0,
                    site: self.buffer_site(),
                    size: self.buf_size,
                    slot: buf_slot,
                });
                let end = self.end_of(h, r);
                events.push(Event::Access {
                    thread: 0,
                    slot: buf_slot,
                    offset: end - ACCESS_LEN,
                    len: ACCESS_LEN,
                    kind: AccessKind::Write,
                    site: helper,
                });
                // Two straight-line in-bounds arena accesses through a
                // definitely bound, thread-confined slot.
                for a in 0..2u64 {
                    events.push(Event::Access {
                        thread: 0,
                        slot: 1,
                        offset: ((r as u64 + a) % 16) * 8,
                        len: 8,
                        kind: AccessKind::Read,
                        site: arena_use,
                    });
                }
                for _ in 0..=self.recursion_depth {
                    events.push(Event::ret());
                }
                events.push(Event::ret());
            }
            // The worker peeks the shared buffer once per round at a
            // fixed offset: enough traffic to make the slot escape,
            // never enough variance to widen any summary.
            events.push(Event::Access {
                thread: 1,
                slot: 0,
                offset: 0,
                len: ACCESS_LEN,
                kind: AccessKind::Read,
                site: peek,
            });
        }
        events.push(Event::ret()); // leave srv_loop
        events.push(Event::Free { thread: 0, slot: 0 });
        events.push(Event::Free { thread: 0, slot: 1 });
        if self.evil_handler.is_some() {
            events.push(Event::Free { thread: 0, slot: 2 });
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{ToolSpec, TraceRunner};
    use csod_core::CsodConfig;

    #[test]
    fn traces_are_deterministic_and_balanced() {
        for app in CallSensitiveApp::all() {
            assert_eq!(app.trace(3), app.trace(3), "{}", app.name);
            let trace = app.trace(1);
            let calls = trace
                .iter()
                .filter(|e| matches!(e, Event::Call { .. }))
                .count();
            let rets = trace
                .iter()
                .filter(|e| matches!(e, Event::Return { .. }))
                .count();
            assert_eq!(calls, rets, "{}: calls and returns balance", app.name);
        }
    }

    #[test]
    fn clean_variants_never_alarm_the_runtime() {
        for app in CallSensitiveApp::all() {
            if app.evil_handler.is_some() {
                continue;
            }
            let reg = app.registry();
            let outcome =
                TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::with_seed(5))).run(app.trace(1));
            assert!(!outcome.detected, "{}: clean run must stay clean", app.name);
        }
    }

    #[test]
    fn evil_variant_overflows_by_intent_only() {
        // The runner clamps plain accesses in bounds: the evil handler
        // expresses out-of-bounds *intent* the analyzer must flag, but
        // no runtime detector fires.
        let app = CallSensitiveApp::all()
            .into_iter()
            .find(|a| a.evil_handler.is_some())
            .expect("corpus has an evil variant");
        let reg = app.registry();
        let outcome =
            TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::with_seed(5))).run(app.trace(1));
        assert!(!outcome.detected);
    }

    #[test]
    fn registry_names_every_function() {
        let app = &CallSensitiveApp::all()[0];
        let reg = app.registry();
        assert_eq!(reg.function_name(0), "srv_loop");
        assert_eq!(reg.function_count(), app.handlers + 2);
    }
}
