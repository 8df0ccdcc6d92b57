//! A tiny reference interpreter used to *check* the static analysis.
//!
//! The oracle replays a trace concretely — tracking which generation
//! each slot holds at every step — and records the allocation sites
//! whose objects dynamically overflow. The soundness obligation the
//! self-test and property suites enforce is exactly:
//!
//! > no site the oracle saw overflow may be classified `ProvenSafe`.
//!
//! Only `OverflowAccess`/`OverflowBurst` (and `Access`es whose written
//! range exceeds the object) count; the trace runner clamps plain
//! accesses in bounds, but the analyzer judges intent, so the oracle
//! does too.

use std::collections::{BTreeSet, HashMap};
use workloads::Event;

/// Replays `trace` and returns the allocation-site indices whose
/// objects are dynamically overflowed (by an overflow event, or by an
/// access whose as-written range exceeds the object size).
pub fn overflowed_sites(trace: &[Event]) -> BTreeSet<usize> {
    let mut live: HashMap<usize, (usize, u64)> = HashMap::new(); // slot -> (site, size)
    let mut hit = BTreeSet::new();
    for event in trace {
        match *event {
            Event::Malloc {
                site, size, slot, ..
            } => {
                live.insert(slot, (site, size));
            }
            Event::Free { slot, .. } => {
                live.remove(&slot);
            }
            Event::OverflowAccess { slot, .. } | Event::OverflowBurst { slot, .. } => {
                if let Some(&(site, _)) = live.get(&slot) {
                    hit.insert(site);
                }
            }
            Event::Access {
                slot, offset, len, ..
            } => {
                if let Some(&(site, size)) = live.get(&slot) {
                    if offset.saturating_add(len) > size {
                        hit.insert(site);
                    }
                }
            }
            _ => {}
        }
    }
    hit
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_machine::{AccessKind, SiteToken};

    #[test]
    fn oracle_sees_overflow_events_and_oversized_accesses() {
        let t = SiteToken(0);
        let trace = vec![
            Event::malloc(3, 16, 0),
            Event::malloc(5, 16, 1),
            Event::overflow(0, AccessKind::Write, t),
            Event::access(1, 12, 8, AccessKind::Write, t), // [12, 20) > 16
        ];
        let hit = overflowed_sites(&trace);
        assert!(hit.contains(&3) && hit.contains(&5));
    }

    #[test]
    fn oracle_ignores_freed_slots_and_in_bounds_traffic() {
        let t = SiteToken(0);
        let trace = vec![
            Event::malloc(0, 16, 0),
            Event::access(0, 0, 16, AccessKind::Read, t),
            Event::free(0),
            // Slot empty: the runner makes this a no-op.
            Event::overflow(0, AccessKind::Write, t),
        ];
        assert!(overflowed_sites(&trace).is_empty());
    }
}
