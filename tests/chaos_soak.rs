//! Chaos soak and degradation-ladder end-to-end tests.
//!
//! The acceptance scenario for the fault-injection layer: a soak of one
//! million allocations with a 30 % perf-syscall failure rate and
//! intermittent SIGTRAP drops must complete with zero panics, zero
//! leaked descriptors or debug registers, and still detect planted
//! overflows through the canary fallback. A second test drives the full
//! degradation ladder — watchpoints → canary-only → re-armed — and
//! checks the transitions are observable in the run summary.

use csod::core::{CsodConfig, DegradationParams, MitigationParams};
use csod::machine::VirtDuration;
use csod::workloads::{run_chaos_soak, run_parallel, ChaosConfig};

/// Scale knob for the nightly CI soak: `CSOD_SOAK_ALLOCS` /
/// `CSOD_FLEET_RUNS` grow the storms far past the per-push defaults
/// without forking the test logic.
fn env_scale(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// The nightly workflow sets `CSOD_SOAK_NIGHTLY=1` and lets the test
/// pick its own scaled-up default (10x the per-push storm), so the soak
/// size lives in one place; `CSOD_SOAK_ALLOCS` remains an explicit
/// override for local experiments either way.
fn soak_allocations() -> u64 {
    let nightly = std::env::var("CSOD_SOAK_NIGHTLY").is_ok_and(|v| v == "1");
    let default = if nightly { 10_000_000 } else { 1_000_000 };
    env_scale("CSOD_SOAK_ALLOCS", default)
}

#[test]
fn million_allocation_soak_under_fault_storm_is_leak_free() {
    let allocations = soak_allocations();
    let cfg = ChaosConfig {
        seed: 0xD15EA5E,
        allocations,
        perf_failure_ppm: 300_000, // 30 % of perf syscalls fail
        signal_drop_ppm: 100_000,  // 10 % of SIGTRAPs vanish
        signal_delay_ppm: 50_000,
        alloc_failure_ppm: 500,
        planted_overflows: 16,
        csod: CsodConfig {
            degradation: DegradationParams {
                // Recover fast relative to the soak's virtual clock so the
                // watchpoint path keeps re-arming inside the storm instead
                // of sitting out the whole run in canary-only mode.
                retry_backoff: VirtDuration::from_micros(100),
                max_backoff: VirtDuration::from_millis(2),
                probe_interval: VirtDuration::from_millis(2),
                // Quarantine leniently: with a 30 % syscall failure rate
                // almost 90 % of installs fail, so the default threshold
                // would bench every context within the first few seconds.
                quarantine_threshold: 50,
                quarantine_period: VirtDuration::from_millis(5),
                ..DegradationParams::default()
            },
            // This soak measures fault-storm absorption, and its
            // dropped-signal assertion needs sustained trap pressure.
            // Closed-loop mitigation would harden each overflowing
            // context after its first confirmed detection and starve
            // the storm of traps — the kill-chaos suite covers that
            // loop; here it stays off.
            mitigation: MitigationParams::disabled(),
            ..CsodConfig::default()
        },
        ..ChaosConfig::default()
    };
    let out = run_chaos_soak(&cfg);

    // Zero fd / debug-register leaks, checked after finish().
    assert!(
        out.leak_free(),
        "leaked: {} open events, {}/{} registers free",
        out.open_events,
        out.free_registers,
        out.total_registers
    );
    assert_eq!(out.summary.stats.allocations, allocations);
    assert_eq!(out.planted, 16);

    // The storm actually happened: the plan injected failures and the
    // runtime absorbed them (visible in the health counters).
    assert!(out.faults.perf_failures() > 0, "no faults injected?");
    // Signal drops need traps to drop; below the stock scale (a smoke
    // run with CSOD_SOAK_ALLOCS lowered) too few watchpoints survive
    // the storm to guarantee one.
    if allocations >= 1_000_000 {
        assert!(out.faults.dropped_signals > 0);
    }
    assert!(out.summary.stats.degradation.install_failures > 0);

    // Detection survived the storm: the planted overflows were caught
    // (canary evidence does not depend on the flaky backend).
    assert!(out.detected, "planted overflows went unnoticed");
    assert!(
        out.summary.stats.canary_free_hits + out.summary.stats.canary_exit_hits > 0,
        "canary fallback found nothing"
    );
}

#[test]
fn degradation_ladder_degrades_to_canary_only_then_recovers() {
    // A busy window during which every perf_event_open fails with EBUSY
    // (a co-resident debugger holding the registers), long enough to
    // push the backend past the degrade threshold.
    let cfg = ChaosConfig {
        seed: 0xBADD,
        allocations: 120_000,
        perf_failure_ppm: 0, // the window is the only failure source
        signal_drop_ppm: 0,
        signal_delay_ppm: 0,
        alloc_failure_ppm: 0,
        busy_window: Some((VirtDuration::from_millis(1), VirtDuration::from_millis(100))),
        planted_overflows: 8,
        csod: CsodConfig {
            degradation: DegradationParams {
                retry_backoff: VirtDuration::from_millis(1),
                max_backoff: VirtDuration::from_millis(10),
                degrade_threshold: 4,
                probe_interval: VirtDuration::from_millis(20),
                // Keep quarantine out of the way: this test is about the
                // backend-wide ladder, not per-context benching.
                quarantine_threshold: 1_000,
                ..DegradationParams::default()
            },
            ..CsodConfig::default()
        },
        ..ChaosConfig::default()
    };
    let out = run_chaos_soak(&cfg);

    assert!(out.leak_free());
    // The ladder went down: watchpoints -> canary-only...
    assert!(
        out.summary.stats.degradation.degradations >= 1,
        "never degraded: {} install failures",
        out.summary.stats.degradation.install_failures
    );
    // ...and detection kept working there (planted overflows are caught
    // by canaries regardless of the backend)...
    assert!(out.detected);
    // ...then a probe succeeded after the busy window and re-armed the
    // watchpoint path.
    assert!(
        out.summary.stats.degradation.recoveries >= 1,
        "never recovered"
    );
    assert!(
        !out.summary.canary_only,
        "run ended degraded despite a healthy backend"
    );
    // Re-armed means real watchpoints again: objects were installed
    // after recovery (watched_times counts successful installs only).
    assert!(out.summary.stats.watch.installs > 0);

    // The transitions are also visible in the rendered summary block.
    let text = out.summary.to_string();
    assert!(text.contains("health:"));
    assert!(text.contains("mode: watchpoints"));
}

#[test]
fn parallel_fleet_of_soaks_is_deterministic_and_leak_free() {
    // Four independent storms fanned across OS threads — each owns its
    // machine and runtime, so the fleet must reproduce the serial soaks
    // bit for bit, leak checks included. The fault rates are milder than
    // the acceptance storm: a Figure-3 install is many syscalls, and at
    // 30 % per-syscall failure essentially none succeed — here we want
    // watchpoints to actually install so the deferred-teardown path runs.
    let runs = env_scale("CSOD_FLEET_RUNS", 4);
    let configs: Vec<ChaosConfig> = (0..runs)
        .map(|i| ChaosConfig {
            seed: 0xF1EE7 + i,
            allocations: 50_000,
            perf_failure_ppm: 10_000,
            ..ChaosConfig::default()
        })
        .collect();
    let fleet = run_parallel(&configs, 4, run_chaos_soak);
    assert_eq!(fleet.len(), configs.len());
    for (cfg, out) in configs.iter().zip(&fleet) {
        assert!(out.leak_free());
        assert_eq!(out.summary.stats.allocations, 50_000);
        // The overhauled free path actually engaged: most frees are of
        // unwatched objects and skip the WMU; watched frees queue their
        // Figure-4 teardowns for batched drains.
        assert!(
            out.summary.stats.frees_fast_filtered > 0,
            "filter never hit"
        );
        assert!(
            out.summary.stats.watch.teardowns_batched > 0,
            "nothing batched"
        );
        let serial = run_chaos_soak(cfg);
        assert_eq!(
            serial.summary, out.summary,
            "a soak's outcome must not depend on scheduling"
        );
    }
}

#[test]
fn quarantine_is_reported_when_a_context_keeps_failing() {
    // A permanent 100 % open-failure rate: every install fails, contexts
    // cross the quarantine threshold, and the backend degrades for good.
    let cfg = ChaosConfig {
        seed: 3,
        allocations: 5_000,
        perf_failure_ppm: 1_000_000,
        signal_drop_ppm: 0,
        signal_delay_ppm: 0,
        alloc_failure_ppm: 0,
        planted_overflows: 4,
        sites: 4,
        csod: CsodConfig {
            degradation: DegradationParams {
                retry_backoff: VirtDuration::from_micros(100),
                max_backoff: VirtDuration::from_millis(1),
                quarantine_threshold: 2,
                quarantine_period: VirtDuration::from_secs(3600),
                ..DegradationParams::default()
            },
            ..CsodConfig::default()
        },
        ..ChaosConfig::default()
    };
    let out = run_chaos_soak(&cfg);

    assert!(out.leak_free());
    assert!(out.summary.canary_only, "backend never came back");
    assert_eq!(
        out.summary.stats.watch.installs, 0,
        "no install can succeed"
    );
    assert!(out.summary.quarantined_contexts >= 1);
    // Canary-only mode still detects the planted overflows.
    assert!(out.detected);
    assert!(out.summary.to_string().contains("mode: canary-only"));
}
