//! Closed-loop mitigation of confirmed-overflowing contexts.
//!
//! CSOD's detections are zero-false-positive: a fired watchpoint or a
//! corrupted canary *proves* the allocation context overflows. This
//! module closes the loop on that proof, in the spirit of code-less
//! heap patching: the [`MitigationPolicy`] keeps the set of confirmed
//! context signatures (seeded from WAL recovery, grown at runtime) and
//! prescribes hardened allocations for exactly those contexts —
//! size-rounded over-allocation so the overflow lands in dead slack,
//! guarded placement of the canary past that slack, and a bounded
//! free-quarantine delaying reuse of hardened objects' memory. Every
//! unconfirmed context keeps the untouched fast paths; the per-thread
//! decision caches memoize the verdict and the sampler's epoch
//! mechanism invalidates them when a context is confirmed mid-run.
//!
//! The confirmed set is the runtime's one overflow ledger: it also pins
//! every confirmed context at 100 %, whether or not mitigation is
//! enabled.

use crate::config::MitigationParams;
use sim_machine::VirtAddr;
use std::collections::{BTreeSet, VecDeque};

/// The mitigation state machine's ledger: which contexts are confirmed
/// overflowing, and the quarantine of their freed objects.
#[derive(Debug)]
pub struct MitigationPolicy {
    params: MitigationParams,
    /// Canonical signatures (frames joined by `|`) of confirmed
    /// contexts.
    confirmed: BTreeSet<String>,
    /// Real (header) addresses of freed hardened objects held back from
    /// reuse, oldest first.
    quarantine: VecDeque<VirtAddr>,
}

impl MitigationPolicy {
    /// A policy with no confirmed contexts.
    pub fn new(params: MitigationParams) -> MitigationPolicy {
        MitigationPolicy {
            params,
            confirmed: BTreeSet::new(),
            quarantine: VecDeque::new(),
        }
    }

    /// Confirms a context as overflowing. Returns `true` when the
    /// signature is new (first confirmation).
    pub fn confirm(&mut self, signature: &str) -> bool {
        self.confirmed.insert(signature.to_owned())
    }

    /// Whether this signature has been confirmed overflowing.
    pub fn is_confirmed(&self, signature: &str) -> bool {
        self.confirmed.contains(signature)
    }

    /// Whether allocations from this signature should be hardened:
    /// mitigation is enabled and the context is confirmed.
    pub fn should_mitigate(&self, signature: &str) -> bool {
        self.params.enabled && self.confirmed.contains(signature)
    }

    /// Number of confirmed contexts.
    pub fn confirmed_contexts(&self) -> usize {
        self.confirmed.len()
    }

    /// Iterates the confirmed signatures in sorted order.
    pub fn confirmed(&self) -> impl Iterator<Item = &str> {
        self.confirmed.iter().map(String::as_str)
    }

    /// Admits a freed hardened object's real address to the quarantine.
    /// Returns the evicted oldest address once the quarantine is over
    /// capacity — the caller releases that one to the allocator. With a
    /// zero-capacity quarantine the address comes straight back.
    pub fn quarantine_push(&mut self, real: VirtAddr) -> Option<VirtAddr> {
        if self.params.quarantine_capacity == 0 {
            return Some(real);
        }
        self.quarantine.push_back(real);
        if self.quarantine.len() > self.params.quarantine_capacity {
            self.quarantine.pop_front()
        } else {
            None
        }
    }

    /// Empties the quarantine, returning every held address for release
    /// (end of run, or an explicit drain point).
    pub fn drain_quarantine(&mut self) -> Vec<VirtAddr> {
        self.quarantine.drain(..).collect()
    }

    /// Objects currently held in the quarantine.
    pub fn quarantined_objects(&self) -> usize {
        self.quarantine.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confirm_is_idempotent_and_gates_mitigation() {
        let mut p = MitigationPolicy::new(MitigationParams::default());
        assert!(!p.should_mitigate("a.c:1|main.c:2"));
        assert!(p.confirm("a.c:1|main.c:2"));
        assert!(!p.confirm("a.c:1|main.c:2"), "second confirm is not new");
        assert!(p.should_mitigate("a.c:1|main.c:2"));
        assert!(p.is_confirmed("a.c:1|main.c:2"));
        assert!(!p.should_mitigate("b.c:9|main.c:2"));
        assert_eq!(p.confirmed_contexts(), 1);
        assert_eq!(p.confirmed().collect::<Vec<_>>(), vec!["a.c:1|main.c:2"]);
    }

    #[test]
    fn disabled_policy_never_mitigates_but_still_records() {
        let mut p = MitigationPolicy::new(MitigationParams::disabled());
        p.confirm("a.c:1");
        assert!(p.is_confirmed("a.c:1"));
        assert!(!p.should_mitigate("a.c:1"));
    }

    #[test]
    fn quarantine_is_bounded_fifo() {
        let mut p = MitigationPolicy::new(MitigationParams {
            quarantine_capacity: 2,
            ..MitigationParams::default()
        });
        assert_eq!(p.quarantine_push(VirtAddr::new(0x100)), None);
        assert_eq!(p.quarantine_push(VirtAddr::new(0x200)), None);
        // Third admission evicts the oldest.
        assert_eq!(
            p.quarantine_push(VirtAddr::new(0x300)),
            Some(VirtAddr::new(0x100))
        );
        assert_eq!(p.quarantined_objects(), 2);
        let drained = p.drain_quarantine();
        assert_eq!(drained, vec![VirtAddr::new(0x200), VirtAddr::new(0x300)]);
        assert_eq!(p.quarantined_objects(), 0);
    }

    #[test]
    fn zero_capacity_quarantine_passes_through() {
        let mut p = MitigationPolicy::new(MitigationParams {
            quarantine_capacity: 0,
            ..MitigationParams::default()
        });
        assert_eq!(
            p.quarantine_push(VirtAddr::new(0x42)),
            Some(VirtAddr::new(0x42))
        );
        assert!(p.drain_quarantine().is_empty());
    }
}
