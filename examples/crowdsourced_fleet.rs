//! Crowdsourced detection: why 16% per execution is enough.
//!
//! ```bash
//! cargo run --release --example crowdsourced_fleet
//! ```
//!
//! The paper positions CSOD for "crowdsourcing or cloud environments,
//! where a program will be executed repeatedly by a large number of
//! users". This example simulates a fleet of users running the buggy
//! MySQL model: each execution detects the overflow with only ~16%
//! probability, yet the fleet as a whole finds it almost immediately —
//! and the WAL turns every *subsequent* run on the same host into a
//! guaranteed detection.

use csod::core::{CsodConfig, MitigationParams};
use csod::workloads::{BuggyApp, ToolSpec, TraceRunner};

fn main() {
    let app = BuggyApp::by_name("mysql").expect("model exists");
    let registry = app.registry();
    let trace = app.trace(42);
    println!(
        "fleet scenario: {} ({}), one overflow hidden in {} allocations\n",
        app.name, app.reference, app.total_allocs
    );

    // Phase 1: independent first executions across the fleet.
    let users: u64 = 40;
    let mut detectors = Vec::new();
    for user in 0..users {
        let outcome = TraceRunner::new(&registry, ToolSpec::Csod(CsodConfig::with_seed(user)))
            .run(trace.iter().copied());
        if outcome.watchpoint_detected {
            detectors.push(user);
        }
    }
    println!(
        "day 1: {}/{} user machines trapped the overflow precisely: users {:?}",
        detectors.len(),
        users,
        detectors
    );
    let p = detectors.len() as f64 / users as f64;
    println!(
        "per-execution probability ~{:.0}% -> P(fleet misses) = {:.2e}\n",
        p * 100.0,
        (1.0 - p).powi(users as i32)
    );

    // Phase 2: one host that MISSED the watchpoint still recorded canary
    // evidence (it is an over-write); its second run cannot miss.
    let missed_seed = (0..1000)
        .find(|&s| {
            let out = TraceRunner::new(&registry, ToolSpec::Csod(CsodConfig::with_seed(s)))
                .run(trace.iter().copied());
            !out.watchpoint_detected
        })
        .expect("some execution misses");
    let path = std::env::temp_dir().join("csod-fleet-example.wal");
    let _ = std::fs::remove_file(&path);
    let mut config = CsodConfig::with_seed(missed_seed);
    config.persist_path = Some(path.clone());
    let first =
        TraceRunner::new(&registry, ToolSpec::Csod(config.clone())).run(trace.iter().copied());
    println!(
        "a host that missed (seed {missed_seed}): watchpoint {}, canary evidence {}",
        first.watchpoint_detected, first.evidence_detected
    );
    // Pin-only: with mitigation on, the recovered context would be
    // hardened and the overflow would land harmlessly in slack.
    let mut config2 = CsodConfig::with_seed(missed_seed + 1);
    config2.persist_path = Some(path.clone());
    config2.mitigation = MitigationParams::disabled();
    let second = TraceRunner::new(&registry, ToolSpec::Csod(config2)).run(trace.iter().copied());
    println!(
        "the same host, second execution: watchpoint detection = {} (paper V-A2: always)",
        second.watchpoint_detected
    );
    let _ = std::fs::remove_file(&path);

    // The cost of being always-on.
    let outcome = TraceRunner::new(&registry, ToolSpec::Csod(CsodConfig::default()))
        .run(trace.iter().copied());
    println!(
        "\nalways-on cost of this run: {} watch installs, {} syscalls",
        outcome.watched_times, outcome.syscalls
    );
}
