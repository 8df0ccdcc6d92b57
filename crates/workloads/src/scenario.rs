//! A fluent builder for hand-written workload scenarios.
//!
//! The trace [`Event`] language is deliberately low-level; this builder
//! makes one-off scenarios (examples, regression tests, bug reports)
//! readable: it tracks slots and sites by name and yields the
//! `(SiteRegistry, Vec<Event>)` pair the
//! [`TraceRunner`](crate::TraceRunner) consumes.

use crate::sites::SiteRegistry;
use crate::trace::Event;
use csod_ctx::FrameTable;
use sim_machine::{AccessKind, SiteToken};
use std::collections::HashMap;
use std::sync::Arc;

/// Builder state. See [`ScenarioBuilder::new`]. Every event runs on the
/// main thread.
#[derive(Debug)]
pub struct ScenarioBuilder {
    registry: SiteRegistry,
    events: Vec<Event>,
    slots: HashMap<String, usize>,
    alloc_sites: HashMap<String, usize>,
    access_sites: HashMap<String, SiteToken>,
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
        }
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
            thread: 0,
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
        self.events.push(Event::Free { thread: 0, slot });
        self
    }

    /// `count` in-bounds accesses to the named object from a statement
    /// in `module` (the module decides ASan instrumentation coverage).
    pub fn touch(&mut self, object: &str, module: &str, kind: AccessKind, count: u64) -> &mut Self {
        let slot = self.slot(object);
        let site = self.access_site(module, "use");
        self.events.push(Event::AccessBurst {
            thread: 0,
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
            thread: 0,
            slot,
            kind,
            site,
        });
        if extent > 0 {
            self.events.push(Event::OverflowBurst {
                thread: 0,
                slot,
                count: extent,
                kind,
                site,
            });
        }
        self
    }

    /// Non-heap CPU work.
    pub fn compute(&mut self, ops: u64) -> &mut Self {
        self.events.push(Event::Compute { thread: 0, ops });
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
    #[should_panic(expected = "unknown object")]
    fn touching_unallocated_object_panics() {
        let mut b = ScenarioBuilder::new("app");
        b.touch("ghost", "app", AccessKind::Read, 1);
    }
}
