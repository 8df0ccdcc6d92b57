//! Property tests for the no-leak invariant under injected faults.
//!
//! Whatever the fault plan does to the perf syscalls — open refused,
//! fcntl/ioctl interrupted mid-sequence, close failing with EINTR —
//! every descriptor handed out must eventually be closed and all debug
//! registers must return to free once the watchpoints are gone.

use csod::core::{ReplacementPolicy, WatchpointManager};
use csod::ctx::{ContextKey, FrameTable};
use csod::machine::{FaultPlan, Machine, ThreadId, VirtAddr, VirtDuration};
use csod::rng::Arc4Random;
use csod::workloads::{run_chaos_soak, ChaosConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full stack (Csod + heap + degradation) ends leak-free for any
    /// combination of fault rates, and never double-reports an
    /// allocation.
    #[test]
    fn chaos_soak_is_leak_free_for_any_fault_rates(
        seed in any::<u64>(),
        perf_ppm in 0u32..700_000,
        drop_ppm in 0u32..300_000,
        delay_ppm in 0u32..300_000,
        alloc_ppm in 0u32..50_000,
    ) {
        let cfg = ChaosConfig {
            seed,
            allocations: 2_000,
            perf_failure_ppm: perf_ppm,
            signal_drop_ppm: drop_ppm,
            signal_delay_ppm: delay_ppm,
            alloc_failure_ppm: alloc_ppm,
            planted_overflows: 2,
            sites: 8,
            ring: 16,
            thread_churn: 1,
            ..ChaosConfig::default()
        };
        let out = run_chaos_soak(&cfg);
        prop_assert!(
            out.leak_free(),
            "open events {} / free registers {}",
            out.open_events,
            out.free_registers
        );
        prop_assert_eq!(out.summary.stats.allocations, 2_000);
        prop_assert_eq!(
            out.summary.stats.frees + out.failed_allocs,
            2_000,
            "every successful allocation was freed"
        );
    }

    /// The watchpoint manager alone: arbitrary consider/remove
    /// interleavings under faults never leak a descriptor or register.
    #[test]
    fn watchpoint_interleavings_return_every_register(
        seed in any::<u64>(),
        ppm in 0u32..600_000,
        ops in proptest::collection::vec((0u8..4, 0u64..12), 1..150),
    ) {
        let frames = FrameTable::new();
        let mut machine = Machine::new();
        machine.install_fault_plan(
            FaultPlan::new(seed).perf_failures_ppm(ppm).signal_drops_ppm(ppm / 2),
        );
        let base = VirtAddr::new(0x10_0000);
        machine.map_region(base, 1 << 16, "heap").unwrap();
        let worker = machine.spawn_thread();
        let mut rng = Arc4Random::from_seed(seed, 1);
        let mut w = WatchpointManager::new(
            ReplacementPolicy::NearFifo,
            VirtDuration::from_secs(10),
        );
        for (op, n) in ops {
            let candidate = csod::core::WatchCandidate {
                object_start: base + n * 64,
                canary_addr: base + n * 64 + 56,
                key: ContextKey::new(frames.intern(&format!("s{n}")), 0),
                ctx_id: csod::core::CtxId::from_index(n as u32),
                probability_ppm: 300_000,
            };
            match op {
                0 | 1 => {
                    let _ = w.consider(&mut machine, candidate, &mut rng, |_| None);
                }
                2 => {
                    let _ = w.remove_by_object(&mut machine, candidate.object_start);
                }
                _ => machine.skip_time(VirtDuration::from_millis(1)),
            }
            // Whatever happened, bookkeeping never leaks: the number of
            // open events is exactly what the live slots hold.
            let held: usize = w.watched().map(|o| o.descriptors().count()).sum();
            prop_assert_eq!(machine.open_events(), held);
        }
        w.remove_all(&mut machine);
        let _ = machine.exit_thread(worker);
        prop_assert_eq!(machine.open_events(), 0, "descriptor leak");
        prop_assert_eq!(machine.free_registers(ThreadId::MAIN), 4, "register leak");
    }
}
