//! A fluent builder for hand-written workload scenarios.
//!
//! The trace [`Event`] language is deliberately low-level; this builder
//! makes one-off scenarios (examples, regression tests, bug reports)
//! readable: it tracks slots and sites by name, assigns threads, and
//! yields the `(SiteRegistry, Vec<Event>)` pair the
//! [`TraceRunner`](crate::TraceRunner) consumes.

use crate::sites::SiteRegistry;
use crate::trace::Event;
use csod_ctx::FrameTable;
use sim_machine::{AccessKind, SiteToken};
use std::collections::HashMap;
use std::sync::Arc;

/// Builder state. See [`ScenarioBuilder::new`].
#[derive(Debug)]
pub struct ScenarioBuilder {
    registry: SiteRegistry,
    events: Vec<Event>,
    slots: HashMap<String, usize>,
    alloc_sites: HashMap<String, usize>,
    access_sites: HashMap<String, SiteToken>,
    threads: u8,
    current_thread: u8,
}

impl ScenarioBuilder {
    /// Starts a scenario for application `app` (the instrumented module
    /// name under ASan).
    pub fn new(app: &str) -> Self {
        ScenarioBuilder {
            registry: SiteRegistry::new(app, Arc::new(FrameTable::new())),
            events: Vec::new(),
            slots: HashMap::new(),
            alloc_sites: HashMap::new(),
            access_sites: HashMap::new(),
            threads: 1,
            current_thread: 0,
        }
    }

    /// Spawns an extra thread and switches subsequent events to it.
    pub fn on_new_thread(&mut self) -> &mut Self {
        self.events.push(Event::SpawnThread);
        self.threads += 1;
        self.current_thread = self.threads - 1;
        self
    }

    /// Switches subsequent events to thread `index` (0 = main).
    ///
    /// # Panics
    ///
    /// Panics if the thread has not been spawned.
    pub fn on_thread(&mut self, index: u8) -> &mut Self {
        assert!(index < self.threads, "thread {index} not spawned");
        self.current_thread = index;
        self
    }

    /// Allocates `size` bytes into the named object from the named
    /// allocation site (both created on first use).
    pub fn malloc(&mut self, object: &str, site: &str, size: u64) -> &mut Self {
        let site_index = match self.alloc_sites.get(site) {
            Some(&i) => i,
            None => {
                let i = self.registry.add_alloc_site(4);
                self.alloc_sites.insert(site.to_owned(), i);
                i
            }
        };
        let slot = match self.slots.get(object) {
            Some(&s) => s,
            None => {
                let s = self.slots.len();
                self.slots.insert(object.to_owned(), s);
                s
            }
        };
        self.events.push(Event::Malloc {
            thread: self.current_thread,
            site: site_index,
            size,
            slot,
        });
        self
    }

    /// Frees the named object.
    ///
    /// # Panics
    ///
    /// Panics if the object was never allocated.
    pub fn free(&mut self, object: &str) -> &mut Self {
        let slot = self.slot(object);
        self.events.push(Event::Free {
            thread: self.current_thread,
            slot,
        });
        self
    }

    /// `count` in-bounds accesses to the named object from a statement
    /// in `module` (the module decides ASan instrumentation coverage).
    pub fn touch(&mut self, object: &str, module: &str, kind: AccessKind, count: u64) -> &mut Self {
        let slot = self.slot(object);
        let site = self.access_site(module, "use");
        self.events.push(Event::AccessBurst {
            thread: self.current_thread,
            slot,
            count,
            kind,
            site,
        });
        self
    }

    /// THE BUG: a continuous overflow of the named object — the first
    /// out-of-bounds word plus `extent` further words, from `module`.
    pub fn overflow(
        &mut self,
        object: &str,
        module: &str,
        kind: AccessKind,
        extent: u64,
    ) -> &mut Self {
        let slot = self.slot(object);
        let site = self.access_site(module, "overflow");
        self.events.push(Event::OverflowAccess {
            thread: self.current_thread,
            slot,
            kind,
            site,
        });
        if extent > 0 {
            self.events.push(Event::OverflowBurst {
                thread: self.current_thread,
                slot,
                count: extent,
                kind,
                site,
            });
        }
        self
    }

    /// A use-after-free access to the named (already freed) object.
    pub fn use_after_free(&mut self, object: &str, module: &str, kind: AccessKind) -> &mut Self {
        let slot = self.slot(object);
        let site = self.access_site(module, "dangling");
        self.events.push(Event::DanglingAccess {
            thread: self.current_thread,
            slot,
            offset: 0,
            kind,
            site,
        });
        self
    }

    /// Enters the named function on the current thread (registered on
    /// first use). Pair with [`ScenarioBuilder::ret`]; the static
    /// analyzer uses these edges to build call strings.
    pub fn call(&mut self, function: &str) -> &mut Self {
        let func = self.registry.add_function(function);
        self.events.push(Event::Call {
            thread: self.current_thread,
            func,
        });
        self
    }

    /// Returns from the innermost open call on the current thread.
    pub fn ret(&mut self) -> &mut Self {
        self.events.push(Event::Return {
            thread: self.current_thread,
        });
        self
    }

    /// Non-heap CPU work.
    pub fn compute(&mut self, ops: u64) -> &mut Self {
        self.events.push(Event::Compute {
            thread: self.current_thread,
            ops,
        });
        self
    }

    /// Finishes the scenario.
    pub fn build(self) -> (SiteRegistry, Vec<Event>) {
        (self.registry, self.events)
    }

    fn slot(&self, object: &str) -> usize {
        *self
            .slots
            .get(object)
            .unwrap_or_else(|| panic!("unknown object `{object}` (allocate it first)"))
    }

    fn access_site(&mut self, module: &str, label: &str) -> SiteToken {
        let key = format!("{module}/{label}");
        match self.access_sites.get(&key) {
            Some(&t) => t,
            None => {
                let t = self
                    .registry
                    .add_access_site(module, &format!("{label}.c:1"));
                self.access_sites.insert(key, t);
                t
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{ToolSpec, TraceRunner};
    use csod_core::CsodConfig;

    #[test]
    fn builder_produces_a_detectable_scenario() {
        let mut b = ScenarioBuilder::new("app");
        b.malloc("buf", "parser.c:10", 64)
            .touch("buf", "app", AccessKind::Write, 8)
            .overflow("buf", "app", AccessKind::Write, 4)
            .free("buf");
        let (registry, trace) = b.build();
        let outcome = TraceRunner::new(&registry, ToolSpec::Csod(CsodConfig::default())).run(trace);
        assert!(outcome.detected);
    }

    #[test]
    fn builder_reuses_named_sites_and_slots() {
        let mut b = ScenarioBuilder::new("app");
        b.malloc("a", "site1", 16)
            .malloc("b", "site1", 16)
            .malloc("a", "site2", 32);
        let (registry, trace) = b.build();
        assert_eq!(registry.alloc_site_count(), 2);
        // "a" reuses slot 0 on its second allocation.
        let slots: Vec<usize> = trace
            .iter()
            .filter_map(|e| match e {
                Event::Malloc { slot, .. } => Some(*slot),
                _ => None,
            })
            .collect();
        assert_eq!(slots, vec![0, 1, 0]);
    }

    #[test]
    fn threads_are_tracked() {
        let mut b = ScenarioBuilder::new("app");
        b.malloc("x", "s", 8);
        b.on_new_thread().malloc("y", "s", 8);
        b.on_thread(0).free("x");
        let (_, trace) = b.build();
        assert!(matches!(trace[0], Event::Malloc { thread: 0, .. }));
        assert!(matches!(trace[1], Event::SpawnThread));
        assert!(matches!(trace[2], Event::Malloc { thread: 1, .. }));
        assert!(matches!(trace[3], Event::Free { thread: 0, .. }));
    }

    #[test]
    #[should_panic(expected = "unknown object")]
    fn touching_unallocated_object_panics() {
        let mut b = ScenarioBuilder::new("app");
        b.touch("ghost", "app", AccessKind::Read, 1);
    }

    #[test]
    #[should_panic(expected = "not spawned")]
    fn switching_to_missing_thread_panics() {
        let mut b = ScenarioBuilder::new("app");
        b.on_thread(1);
    }

    #[test]
    fn use_after_free_flows_through() {
        use sampler_sim::SamplerConfig;
        let mut b = ScenarioBuilder::new("app");
        b.malloc("buf", "s", 64)
            .free("buf")
            .use_after_free("buf", "app", AccessKind::Read);
        let (registry, trace) = b.build();
        let outcome = TraceRunner::new(
            &registry,
            ToolSpec::Sampler(SamplerConfig {
                sample_period: 1,
                ..SamplerConfig::default()
            }),
        )
        .run(trace);
        assert!(outcome.detected);
        assert!(outcome.reports[0].contains("use-after-free"));
    }
}
