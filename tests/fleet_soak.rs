//! Fleet soak: two full generations at configurable scale.
//!
//! The default (64 processes) keeps tier-1 fast; the nightly CI leg
//! sets `CSOD_FLEET_PROCS=5000` to run a realistic fleet through the
//! same gates — every buggy process either detects or starts mitigated,
//! the ingest pipeline accounts for every WAL, and the budget keeps the
//! per-process probability under the global bound at every scale.

use csod::fleet::SamplingBudget;
use csod::workloads::{run_fleet_round, FleetRoundConfig, FLEET_BUG_SIGNATURE};

/// Scale knob for the nightly CI soak, mirroring `CSOD_SOAK_ALLOCS`.
fn env_scale(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

#[test]
fn fleet_soak_closes_the_loop_at_scale() {
    let processes = env_scale("CSOD_FLEET_PROCS", 64) as usize;
    let dir = std::env::temp_dir().join(format!("csod-fleet-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = FleetRoundConfig {
        processes,
        buggy_every: 10,
        buggy_offset: 0,
        allocations: 150,
        threads: 8,
        chunk: 32,
        budget: SamplingBudget::default(),
        ..FleetRoundConfig::default()
    };

    // Generation 1: cold fleet. Every buggy process detects on its own
    // (canary confirmation is deterministic in this workload) and the
    // parallel ingest merges every WAL exactly once.
    let gen1 = run_fleet_round(&cfg, &dir.join("gen-1"), None);
    assert_eq!(gen1.processes, processes as u64);
    assert!(gen1.buggy > 0, "the soak must actually exercise the bug");
    assert_eq!(
        gen1.detections, gen1.buggy,
        "cold detection is deterministic"
    );
    assert_eq!(gen1.ingest.processes, processes as u64);
    assert!(gen1.ingest.records > 0);
    assert!(gen1.store.get(FLEET_BUG_SIGNATURE).is_some());
    assert!(
        gen1.plan.initial_ppm <= cfg.budget.per_process_budget_ppm,
        "budget bound holds at {processes} processes"
    );

    // Generation 2: seeded, different processes buggy. The fan-out must
    // hold fleet-wide: every process starts mitigated, every buggy
    // process runs clean, and no new mitigations are minted.
    let cfg2 = FleetRoundConfig {
        buggy_offset: 5,
        ..cfg.clone()
    };
    let gen2 = run_fleet_round(&cfg2, &dir.join("gen-2"), Some(&gen1.plan));
    assert_eq!(gen2.mitigated_at_start, gen2.processes);
    assert_eq!(
        gen2.clean_buggy, gen2.buggy,
        "fan-out protected every buggy process"
    );
    assert!(gen2.all_buggy_accounted());
    assert_eq!(gen2.plan.newly_mitigated, 0, "fleet knowledge is stable");
    let _ = std::fs::remove_dir_all(&dir);
}
