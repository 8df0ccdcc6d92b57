//! Property-based tests on core data structures and invariants.

use csod::core::{ContextJudgment, CsodConfig, SamplingParams, SamplingUnit};
use csod::ctx::{CallingContext, ContextKey, ContextTable, FrameTable};
use csod::heap::{HeapConfig, SimHeap, SizeClass, MIN_ALIGN};
use csod::machine::{Machine, VirtAddr, VirtDuration, VirtInstant};
use csod::rng::{Arc4Random, PPM_SCALE};
use proptest::prelude::*;

proptest! {
    /// Size classes always cover the request, are aligned, and waste a
    /// bounded factor.
    #[test]
    fn size_class_covers_and_bounds_waste(size in 1u64..(1 << 24)) {
        let class = SizeClass::for_request(size);
        let block = class.block_size();
        prop_assert!(block >= size);
        prop_assert_eq!(block % MIN_ALIGN, 0);
        // Power-of-two rounding never doubles more than 2x (+page slack).
        prop_assert!(block <= size * 2 + 4096);
    }

    /// Live heap allocations never overlap, regardless of the
    /// malloc/free interleaving.
    #[test]
    fn heap_objects_never_overlap(ops in proptest::collection::vec((1u64..4096, any::<bool>()), 1..120)) {
        let mut machine = Machine::new();
        let mut heap = SimHeap::new(&mut machine, HeapConfig::default()).unwrap();
        let mut live: Vec<(VirtAddr, u64)> = Vec::new();
        for (size, free_one) in ops {
            if free_one && !live.is_empty() {
                let (addr, _) = live.swap_remove(live.len() / 2);
                heap.free(&mut machine, addr).unwrap();
            } else {
                let addr = heap.malloc(&mut machine, size).unwrap();
                let block = heap.usable_size(addr).unwrap();
                for &(other, other_block) in &live {
                    let disjoint = addr.as_u64() + block <= other.as_u64()
                        || other.as_u64() + other_block <= addr.as_u64();
                    prop_assert!(disjoint, "overlap: {addr} vs {other}");
                }
                live.push((addr, block));
            }
        }
        // Statistics agree with the model.
        prop_assert_eq!(heap.stats().live_objects(), live.len() as u64);
    }

    /// Sampling probabilities always stay within [burst floor, 100%].
    #[test]
    fn sampling_probability_stays_in_bounds(
        allocs in 1u64..3000,
        watches in 0u64..40,
        seed in any::<u64>(),
    ) {
        let frames = FrameTable::new();
        let mut unit = SamplingUnit::new(SamplingParams::default());
        let key = ContextKey::new(frames.intern("p.c:1"), 0x40);
        let ctx = CallingContext::from_locations(&frames, ["p.c:1", "main.c:1"]);
        let mut rng = Arc4Random::from_seed(seed, 0);
        for i in 0..allocs {
            let d = unit.on_allocation(key, VirtInstant::BOOT, &mut rng, &ctx, |_| ContextJudgment::clear());
            prop_assert!(d.probability_ppm <= PPM_SCALE);
            prop_assert!(d.probability_ppm >= 1, "never zero: floor or burst floor");
            if i < watches {
                unit.on_watched(key);
            }
        }
        let state = unit.state(key).unwrap();
        prop_assert_eq!(state.alloc_count, allocs);
    }

    /// The context table is a faithful map under arbitrary key multisets.
    #[test]
    fn context_table_counts_match_model(keys in proptest::collection::vec((0u32..40, 0u64..8), 1..300)) {
        let frames = FrameTable::new();
        let mut table: ContextTable<u64> = ContextTable::with_buckets(16);
        let mut model = std::collections::HashMap::new();
        for (site, offset) in keys {
            let key = ContextKey::new(frames.intern(&format!("k{site}")), offset * 16);
            *table.entry(key, || 0u64).0 += 1;
            *model.entry((site, offset)).or_insert(0u64) += 1;
        }
        prop_assert_eq!(table.iter().count(), model.len());
        let total: u64 = table.iter().map(|(_, v)| *v).sum();
        prop_assert_eq!(total, model.values().sum::<u64>());
    }

    /// arc4random_uniform never exceeds its bound and hits both halves.
    #[test]
    fn rng_uniform_in_bounds(bound in 1u32..1_000_000, seed in any::<u64>()) {
        let mut rng = Arc4Random::from_seed(seed, 1);
        for _ in 0..64 {
            prop_assert!(rng.uniform(bound) < bound);
        }
    }

    /// Canary layout arithmetic is self-consistent for any size/mode.
    #[test]
    fn object_layout_round_trips(size in 0u64..100_000, evidence in any::<bool>()) {
        use csod::core::{ObjectLayout, CANARY_SIZE};
        let layout = ObjectLayout::new(evidence, size);
        let real = VirtAddr::new(0x4000_0000);
        let user = layout.user_ptr(real);
        prop_assert_eq!(layout.real_ptr(user), real);
        let canary = layout.canary_addr(user);
        // The canary word starts at or past the end of the object...
        prop_assert!(canary.as_u64() >= user.as_u64() + size.min(layout.canary_offset()));
        prop_assert!(canary.as_u64() - user.as_u64() < size.max(1) + 8);
        // ...and the whole thing fits in the raw allocation.
        prop_assert_eq!(
            layout.total_size(),
            layout.user_offset() + layout.canary_offset() + CANARY_SIZE
        );
        prop_assert!(canary.as_u64() + 8 <= real.as_u64() + layout.total_size());
    }

    /// The machine's accounting identity holds for arbitrary charge mixes.
    #[test]
    fn machine_accounting_identity(charges in proptest::collection::vec((0u8..3, 0u64..10_000), 0..100)) {
        use csod::machine::CostDomain;
        let mut m = Machine::new();
        let t0 = m.now();
        for (domain, ns) in charges {
            match domain {
                0 => m.charge(CostDomain::App, ns),
                1 => m.charge(CostDomain::Tool, ns),
                _ => m.wait_io(VirtDuration::from_nanos(ns)),
            }
        }
        let c = m.counter();
        prop_assert_eq!(c.total_ns(), c.app_ns() + c.tool_ns() + c.io_ns());
        prop_assert_eq!((m.now() - t0).as_nanos(), c.total_ns());
        prop_assert!(c.normalized_overhead() >= 1.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// End-to-end invariant: whatever the allocation pattern, CSOD never
    /// reports a bug in a program that only performs in-bounds accesses,
    /// and at most four objects are watched at any moment.
    #[test]
    fn no_false_positives_under_arbitrary_clean_workloads(
        ops in proptest::collection::vec((0usize..6, 8u64..128, any::<bool>()), 1..150),
        seed in any::<u64>(),
    ) {
        use csod::core::Csod;
        use csod::machine::ThreadId;
        use std::sync::Arc;

        let frames = Arc::new(FrameTable::new());
        let mut machine = Machine::new();
        let mut heap = SimHeap::new(&mut machine, HeapConfig::default()).unwrap();
        let mut csod = Csod::new(CsodConfig::with_seed(seed), Arc::clone(&frames));
        let mut live: Vec<(VirtAddr, u64)> = Vec::new();

        for (site, size, free_one) in ops {
            if free_one && !live.is_empty() {
                let (addr, _) = live.swap_remove(live.len() / 2);
                csod.free(&mut machine, &mut heap, ThreadId::MAIN, addr).unwrap();
            } else {
                let name = format!("site{site}.c:1");
                let key = ContextKey::new(frames.intern(&name), 0x40);
                let ctx = CallingContext::from_locations(&frames, [name.as_str(), "main.c:1"]);
                let addr = csod
                    .malloc(&mut machine, &mut heap, ThreadId::MAIN, size, key, &ctx)
                    .unwrap();
                live.push((addr, size));
            }
            // Touch every live object fully, in bounds.
            for &(addr, size) in &live {
                machine.app_write(ThreadId::MAIN, addr, size.min(8)).unwrap();
                machine.app_read(ThreadId::MAIN, addr + (size - size.min(8)), size.min(8)).unwrap();
            }
            csod.poll(&mut machine);
            let watched = live.iter().filter(|&&(a, _)| csod.is_watched(a)).count();
            prop_assert!(watched <= 4);
        }
        csod.finish(&mut machine);
        prop_assert!(!csod.detected(), "clean program must never alarm");
    }

    /// Conversely: a single one-word overflow on a *watched* object is
    /// always detected, whatever the surrounding pattern.
    #[test]
    fn watched_overflows_are_always_caught(
        prelude in proptest::collection::vec(8u64..128, 0..40),
        seed in any::<u64>(),
    ) {
        use csod::core::Csod;
        use csod::machine::{SiteToken, ThreadId};
        use std::sync::Arc;

        let frames = Arc::new(FrameTable::new());
        let mut machine = Machine::new();
        let mut heap = SimHeap::new(&mut machine, HeapConfig::default()).unwrap();
        let mut csod = Csod::new(CsodConfig::with_seed(seed), Arc::clone(&frames));

        for (i, size) in prelude.iter().enumerate() {
            let name = format!("pre{i}.c:1");
            let key = ContextKey::new(frames.intern(&name), 0x40);
            let ctx = CallingContext::from_locations(&frames, [name.as_str(), "main.c:1"]);
            let _ = csod
                .malloc(&mut machine, &mut heap, ThreadId::MAIN, *size, key, &ctx)
                .unwrap();
        }
        let key = ContextKey::new(frames.intern("bug.c:1"), 0x40);
        let ctx = CallingContext::from_locations(&frames, ["bug.c:1", "main.c:1"]);
        let p = csod
            .malloc(&mut machine, &mut heap, ThreadId::MAIN, 40, key, &ctx)
            .unwrap();
        prop_assume!(csod.is_watched(p));
        machine.set_current_site(ThreadId::MAIN, SiteToken(0));
        machine.app_write(ThreadId::MAIN, p + 40, 8).unwrap();
        csod.poll(&mut machine);
        prop_assert!(csod.detected_by_watchpoint());
    }

    /// Whatever the interleaving of allocation, free, in-bounds access,
    /// overflow, and thread spawn, a trace run is deterministic, and it
    /// alarms only if the trace plants an overflow.
    #[test]
    fn trace_runs_are_deterministic_and_alarm_only_on_planted_overflows(
        ops in proptest::collection::vec(
            (0u8..10, 0usize..4, 0u64..256, 1u64..16, any::<bool>()),
            1..250,
        ),
    ) {
        use csod::core::CsodConfig;
        use csod::machine::{AccessKind, SiteToken};
        use csod::workloads::{Event, SiteRegistry, ToolSpec, TraceRunner};
        use std::sync::Arc;

        let mut spawned = false;
        let trace: Vec<Event> = ops
            .into_iter()
            .map(|(op, slot, offset, len, write)| {
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                match op {
                    0 => Event::malloc(slot, 32 + offset, slot),
                    1 => Event::free(slot),
                    2 => Event::overflow(slot, kind, SiteToken(0)),
                    3 => {
                        spawned = true;
                        Event::SpawnThread
                    }
                    4 if spawned => Event::Access {
                        thread: 1,
                        slot,
                        offset,
                        len,
                        kind,
                        site: SiteToken(1),
                    },
                    5 => Event::compute(offset),
                    // Weight the mix toward in-bounds accesses, the bulk
                    // of real traffic.
                    _ => Event::access(slot, offset, len, kind, SiteToken(offset % 2)),
                }
            })
            .collect();

        let mut reg = SiteRegistry::new("prop", Arc::new(FrameTable::new()));
        reg.add_alloc_sites(4);
        reg.add_access_site("prop", "a.c:1");
        reg.add_access_site("prop", "b.c:2");
        let planted = trace.iter().any(|e| matches!(e, Event::OverflowAccess { .. }));
        let tool = ToolSpec::Csod(CsodConfig::default());
        let first = TraceRunner::new(&reg, tool.clone()).run(trace.iter().cloned());
        let second = TraceRunner::new(&reg, tool).run(trace.iter().cloned());
        prop_assert!(planted || !first.detected, "in-bounds traffic alone must never alarm");
        prop_assert_eq!(first, second);
    }
}
