//! Fleet acceptance: the cross-process mitigation loop, end to end.
//!
//! The GWP-ASan-style fleet economics the csod-fleet crate exists for:
//! the *same buggy code* ships to every process, so one process paying
//! the detection cost should protect every other process from its next
//! launch on. The gate here is exact:
//!
//! * a bug confirmed on process **A** in generation 1 is enrolled in
//!   process **B**'s `MitigationPolicy` on B's *first* subsequent run —
//!   B is a different process index that runs the same buggy context
//!   and completes with **zero** corruption and zero traps;
//! * the plan that carries the evidence also carries the budget: the
//!   seeded generation runs at a per-process probability no higher than
//!   the global bound, and the priors derived from merged evidence pin
//!   the trapped signature Suspicious — never proven-safe.

use csod::core::{CsodConfig, RiskClass};
use csod::ctx::{ContextKey, FrameTable};
use csod::fleet::SamplingBudget;
use csod::rng::PPM_SCALE;
use csod::workloads::{run_fleet_round, FleetRoundConfig, FLEET_BUG_SIGNATURE};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csod-fleet-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn bug_confirmed_on_process_a_protects_process_b_from_its_first_subsequent_run() {
    let dir = scratch("a-to-b");
    // Generation 1: sixteen processes, exactly one buggy — process A
    // (index 0). Nothing is seeded; A must detect on its own.
    let cfg_a = FleetRoundConfig {
        processes: 16,
        buggy_every: 16,
        buggy_offset: 0,
        allocations: 250,
        threads: 4,
        chunk: 8,
        budget: SamplingBudget::default(),
        ..FleetRoundConfig::default()
    };
    let gen1 = run_fleet_round(&cfg_a, &dir.join("gen-1"), None);
    assert_eq!(gen1.buggy, 1, "only process A plants the bug");
    assert_eq!(gen1.detections, 1, "A's canary detection is deterministic");
    assert_eq!(gen1.mitigated_at_start, 0, "generation 1 starts cold");
    let entry = gen1
        .store
        .get(FLEET_BUG_SIGNATURE)
        .expect("A's confirmation reached the fleet store");
    assert!(
        entry.mitigated,
        "planning enrolled the signature for fan-out"
    );

    // The plan respects the global overhead bound and lowers the
    // per-process probability below the solo default.
    let plan = &gen1.plan;
    assert!(plan.initial_ppm <= cfg_a.budget.per_process_budget_ppm);
    assert!(plan.initial_ppm < cfg_a.csod.sampling.initial_ppm);
    assert!(plan
        .seed_records
        .iter()
        .any(|r| r.signature == FLEET_BUG_SIGNATURE));

    // The priors derived from A's evidence never prove anything safe,
    // and pin the trapped signature Suspicious.
    let frames = FrameTable::new();
    let mut bug_key = None;
    let priors = plan.priors(|sig| {
        let key = ContextKey::new(frames.intern(sig), 0x40);
        if sig == FLEET_BUG_SIGNATURE {
            bug_key = Some(key);
        }
        Some(key)
    });
    assert_eq!(priors.census().0, 0, "no context is ever proven safe");
    assert_eq!(
        priors.class_of(bug_key.expect("bug signature resolved")),
        Some(RiskClass::Suspicious)
    );
    let mut config = CsodConfig::default();
    plan.apply(&mut config);
    config.priors = priors;
    config.validate().expect("seeded config is valid");

    // Generation 2: fresh launches, and now process B (index 3) is the
    // buggy one. Seeded with generation 1's plan, B is mitigated from
    // its first allocation: it runs completely clean.
    let cfg_b = FleetRoundConfig {
        buggy_offset: 3,
        ..cfg_a.clone()
    };
    let gen2 = run_fleet_round(&cfg_b, &dir.join("gen-2"), Some(plan));
    assert_eq!(gen2.buggy, 1, "only process B plants the bug");
    assert_eq!(
        gen2.mitigated_at_start, gen2.processes,
        "every generation-2 process recovered the seed WAL at startup"
    );
    assert_eq!(
        gen2.clean_buggy, 1,
        "B's first subsequent run absorbed the overwrite in mitigation slack"
    );
    assert_eq!(gen2.detections, 0, "B never had to pay for detection");
    assert!(gen2.all_buggy_accounted());

    // Closing the loop again mints no new mitigations — the fleet's
    // knowledge of this bug is complete and stable.
    assert_eq!(gen2.plan.newly_mitigated, 0);
    assert!(u64::from(gen2.plan.fleet_detection_ppm) <= u64::from(PPM_SCALE));
    let _ = std::fs::remove_dir_all(&dir);
}
