//! Property tests for the analyzer's one hard obligation, at every
//! call-string limit: no access that dynamically overflows may come
//! from a context the analysis proved safe.
//!
//! Two workload generators drive it: the repo's [`FuzzWorkload`]
//! (realistic single-owner slots) and a nastier local generator that
//! deliberately reuses a handful of slots across threads with
//! mismatched sizes, out-of-bounds intent and unbalanced call/return
//! traffic — the shapes that force the escape analysis, the call-string
//! assignment and the interval summaries to earn their keep.

use csod_analyze::{analyze, analyze_with_k, oracle, DEFAULT_K};
use csod_core::RiskClass;
use csod_ctx::FrameTable;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_machine::AccessKind;
use std::sync::Arc;
use workloads::{Event, FuzzWorkload, SiteRegistry};

/// A workload built to stress aliasing: few slots, many reuses, random
/// cross-thread traffic, accesses whose written range may exceed the
/// object, and explicit overflow events.
fn hostile_workload(seed: u64) -> (SiteRegistry, Vec<Event>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA11A5);
    let sites = rng.gen_range(2..=8usize);
    let slots = rng.gen_range(1..=3usize);
    let threads = rng.gen_range(1..=3u8);
    let steps = rng.gen_range(5..=120usize);

    let mut registry = SiteRegistry::new("hostile", Arc::new(FrameTable::new()));
    registry.add_alloc_sites(sites);
    let tokens: Vec<_> = (0..4)
        .map(|i| registry.add_access_site("hostile", &format!("h.c:{i}")))
        .collect();
    let functions = rng.gen_range(1..=3usize);
    for f in 0..functions {
        registry.add_function(&format!("hf{f}"));
    }

    let mut trace = Vec::new();
    for _ in 1..threads {
        trace.push(Event::SpawnThread);
    }
    for _ in 0..steps {
        let thread = rng.gen_range(0..threads);
        let slot = rng.gen_range(0..slots);
        let token = tokens[rng.gen_range(0..tokens.len())];
        let kind = if rng.gen_bool(0.5) {
            AccessKind::Read
        } else {
            AccessKind::Write
        };
        match rng.gen_range(0..13u32) {
            0..=3 => trace.push(Event::Malloc {
                thread,
                site: rng.gen_range(0..sites),
                size: rng.gen_range(1..=128u64),
                slot,
            }),
            4..=6 => {
                // As-written range may or may not fit whatever object
                // happens to be in the slot.
                let offset = rng.gen_range(0..160u64);
                let len = rng.gen_range(1..=16u64);
                trace.push(Event::Access {
                    thread,
                    slot,
                    offset,
                    len,
                    kind,
                    site: token,
                });
            }
            7 => trace.push(Event::Free { thread, slot }),
            8 => trace.push(Event::OverflowAccess {
                thread,
                slot,
                kind,
                site: token,
            }),
            9 => trace.push(Event::AccessBurst {
                thread,
                slot,
                count: rng.gen_range(1..=1000),
                kind,
                site: token,
            }),
            // Unbalanced call/return traffic: the call-string replay
            // must tolerate rets past the stack bottom and calls that
            // never return.
            10..=11 => trace.push(Event::call(rng.gen_range(0..functions))),
            _ => trace.push(Event::ret()),
        }
    }
    (registry, trace)
}

/// Runs the differential harness at `k = 0`, `1` and [`DEFAULT_K`]:
/// verdict soundness against the oracle's overflowed sites.
fn assert_sound(registry: &SiteRegistry, trace: &[Event]) {
    for k in [0, 1, DEFAULT_K] {
        let report = analyze_with_k(registry, trace, k);
        for site in oracle::overflowed_sites(trace) {
            assert_ne!(
                report.class_of(site),
                RiskClass::ProvenSafe,
                "site {site} dynamically overflows but was proven safe at k = {k}"
            );
        }
    }
}

proptest! {
    #[test]
    fn fuzz_workloads_never_prove_an_overflowing_context_safe(
        seed in 0u64..500,
        inject in any::<bool>(),
    ) {
        let w = FuzzWorkload::generate(seed, inject);
        assert_sound(&w.registry, &w.trace);
        if let Some(bug) = w.bug {
            let report = analyze(&w.registry, &w.trace);
            prop_assert_ne!(report.class_of(bug.ctx), RiskClass::ProvenSafe);
        }
    }

    #[test]
    fn hostile_slot_reuse_never_proves_an_overflowing_context_safe(seed in 0u64..500) {
        let (registry, trace) = hostile_workload(seed);
        assert_sound(&registry, &trace);
    }

    #[test]
    fn clean_fuzz_workloads_get_no_suspicious_verdicts(seed in 0u64..200) {
        // Fuzz traffic is in-bounds by construction when no bug is
        // injected; the analyzer must not cry wolf on it.
        let w = FuzzWorkload::generate(seed, false);
        let report = analyze(&w.registry, &w.trace);
        let (_, sus, _) = report.census();
        prop_assert_eq!(sus, 0, "clean workload produced suspicious sites");
    }
}
