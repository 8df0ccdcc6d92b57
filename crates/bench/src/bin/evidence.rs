//! Section V-A2: evidence-based over-write detection.
//!
//! "CSOD can always detect these over-write problems during their second
//! execution, if missed in the first." For each of the six over-write
//! applications, the harness hunts for first executions whose watchpoints
//! miss the bug, verifies the canary evidence catches it anyway, persists
//! it in the WAL, and checks that a second execution detects the
//! overflow with a watchpoint every time. The second execution runs with
//! mitigation off: a hardened context would absorb the overflow in slack,
//! and the paper's second run only pins.

use csod_bench::{header, row, runs_arg};
use csod_core::{CsodConfig, MitigationParams};
use workloads::{BuggyApp, OverflowKind, ToolSpec, TraceRunner};

fn main() {
    let attempts = runs_arg(200);
    header("Evidence-based over-write detection (Section V-A2)");
    let widths = [18, 12, 14, 14];
    println!(
        "{}",
        row(
            &[
                "Application".into(),
                "1st missed".into(),
                "1st evidence".into(),
                "2nd detected".into(),
            ],
            &widths
        )
    );
    let dir = std::env::temp_dir().join("csod-evidence-harness");
    std::fs::create_dir_all(&dir).expect("temp dir usable");

    for app in BuggyApp::all() {
        if app.vulnerability != OverflowKind::OverWrite {
            continue;
        }
        let registry = app.registry();
        let trace = app.trace(42);
        let mut first_missed = 0u32;
        let mut first_evidence = 0u32;
        let mut second_detected = 0u32;
        for seed in 0..attempts as u64 {
            let path = dir.join(format!("{}-{seed}.wal", app.name));
            let _ = std::fs::remove_file(&path);
            let mut config = CsodConfig::with_seed(seed);
            config.persist_path = Some(path.clone());
            let first = TraceRunner::new(&registry, ToolSpec::Csod(config.clone()))
                .run(trace.iter().copied());
            if first.watchpoint_detected {
                let _ = std::fs::remove_file(&path);
                continue; // only misses are interesting here
            }
            first_missed += 1;
            if first.evidence_detected {
                first_evidence += 1;
            }
            // Second execution, same WAL, fresh seed, pin-only.
            let mut config2 = CsodConfig::with_seed(seed ^ 0xFFFF);
            config2.persist_path = Some(path.clone());
            config2.mitigation = MitigationParams::disabled();
            let second =
                TraceRunner::new(&registry, ToolSpec::Csod(config2)).run(trace.iter().copied());
            if second.watchpoint_detected {
                second_detected += 1;
            }
            let _ = std::fs::remove_file(&path);
        }
        let cell = |n: u32| {
            if first_missed == 0 {
                "n/a (0 miss)".to_string()
            } else {
                format!("{n}/{first_missed}")
            }
        };
        println!(
            "{}",
            row(
                &[
                    app.name.into(),
                    first_missed.to_string(),
                    cell(first_evidence),
                    cell(second_detected),
                ],
                &widths
            )
        );
    }
    println!("\nexpected: every missed first run still records canary evidence, and");
    println!("every second run detects the overflow with a watchpoint (paper V-A2).");
}
