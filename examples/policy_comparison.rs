//! Replacement-policy shoot-out on one application (Table II, one row).
//!
//! ```bash
//! cargo run --release --example policy_comparison -- libdwarf 200
//! ```
//!
//! Libdwarf is the instructive case: the naive policy detects its
//! over-read *every* time (the buggy allocation reuses a register an
//! early, still-watched object just released), while the preempting
//! policies trade that certainty for coverage of applications the naive
//! policy can never catch.

use csod::core::{CsodConfig, ReplacementPolicy};
use csod::workloads::{BuggyApp, ToolSpec, TraceRunner};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "libdwarf".into());
    let runs: u64 = args.next().and_then(|v| v.parse().ok()).unwrap_or(200);
    let Some(app) = BuggyApp::by_name(&name) else {
        eprintln!("unknown application `{name}`; known:");
        for a in BuggyApp::all() {
            eprintln!("  {}", a.name);
        }
        std::process::exit(1);
    };

    println!("{} x {runs} executions per policy\n", app.name);
    let registry = app.registry();
    let trace = app.trace(42);
    for policy in ReplacementPolicy::ALL {
        let mut detected = 0u64;
        let mut watched_total = 0u64;
        for seed in 0..runs {
            let mut config = CsodConfig::with_policy(policy);
            config.seed = seed;
            let outcome =
                TraceRunner::new(&registry, ToolSpec::Csod(config)).run(trace.iter().copied());
            detected += u64::from(outcome.watchpoint_detected);
            watched_total += outcome.watched_times;
        }
        println!(
            "{policy:>10}: detected {detected:>4}/{runs}  ({:>5.1}%), avg {:.1} watch installs/run",
            100.0 * detected as f64 / runs as f64,
            watched_total as f64 / runs as f64,
        );
    }
}
