//! Ring churn: the allocation loop of one simulated process in the
//! kill/restart and fleet harnesses.
//!
//! Each step frees the occupant of a random ring slot and refills it
//! from a random context (context 0 at step 0, so even the shortest run
//! exercises it). A planted word lands just past each object of context
//! 0: invisible to watchpoints, deterministically caught by the canary
//! at free or exit, deterministically absorbed once the context is
//! mitigated.

use csod_core::Csod;
use csod_ctx::{CallingContext, ContextKey, FrameTable};
use csod_rng::Arc4Random;
use sim_heap::SimHeap;
use sim_machine::{Machine, ThreadId, VirtAddr, VirtDuration};

/// One allocation context per location, each called from `main.c:1`.
pub(crate) fn contexts(
    frames: &FrameTable,
    locations: impl IntoIterator<Item = String>,
) -> Vec<(ContextKey, CallingContext)> {
    locations
        .into_iter()
        .map(|loc| {
            let ctx = CallingContext::from_locations(frames, [loc.as_str(), "main.c:1"]);
            (ContextKey::new(frames.intern(&loc), 0x40), ctx)
        })
        .collect()
}

/// One process's churn workload.
pub(crate) struct Churn<'a> {
    /// Contexts the allocations draw from; context 0 carries the plant.
    pub contexts: &'a [(ContextKey, CallingContext)],
    /// The workload stream: slot, then site (not drawn at step 0), then
    /// size, per step.
    pub rng: Arc4Random,
    /// Live-object ring size.
    pub ring: usize,
    /// Allocations to perform.
    pub allocations: u64,
    /// Word stored just past each object of context 0, if any.
    pub plant: Option<u64>,
}

impl Churn<'_> {
    /// Runs the churn on the main thread. When the machine's fault plan
    /// kills the process before allocation `i`, returns `Some(i)` with
    /// the run abandoned on the spot. Otherwise the clean exit frees the
    /// ring, polls, drains the quarantine and finishes the runtime.
    pub(crate) fn run(
        mut self,
        csod: &mut Csod,
        machine: &mut Machine,
        heap: &mut SimHeap,
    ) -> Option<u64> {
        let mut ring: Vec<Option<VirtAddr>> = vec![None; self.ring.max(1)];
        for i in 0..self.allocations {
            if machine.fault_kill_now() {
                return Some(i);
            }
            let slot = self.rng.next_u64() as usize % ring.len();
            if let Some(addr) = ring[slot].take() {
                csod.free(machine, heap, ThreadId::MAIN, addr)
                    .expect("freeing a live churn object");
            }
            let site = if i == 0 {
                0
            } else {
                self.rng.next_u64() as usize % self.contexts.len()
            };
            let (key, ctx) = &self.contexts[site];
            let size = 16 + u64::from(self.rng.uniform(8)) * 8;
            let p = csod
                .malloc(machine, heap, ThreadId::MAIN, size, *key, ctx)
                .expect("churn workload fits in the heap");
            ring[slot] = Some(p);
            if let (0, Some(word)) = (site, self.plant) {
                machine
                    .raw_store_u64(p + size.div_ceil(8) * 8, word)
                    .expect("boundary word is mapped");
            }
            if i % 64 == 63 {
                machine.skip_time(VirtDuration::from_millis(1));
                csod.poll(machine);
            }
        }
        for addr in ring.into_iter().flatten() {
            csod.free(machine, heap, ThreadId::MAIN, addr)
                .expect("freeing a live churn object");
        }
        csod.poll(machine);
        csod.drain_quarantine(machine, heap)
            .expect("quarantined objects are live");
        csod.finish(machine);
        None
    }
}
