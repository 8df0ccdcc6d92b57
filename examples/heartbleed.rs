//! The Heartbleed scenario (CVE-2014-0160) on the workload models.
//!
//! ```bash
//! cargo run --release --example heartbleed
//! ```
//!
//! Nginx + OpenSSL allocate ~5,400 objects from ~300 calling contexts
//! before the malicious heartbeat request arrives; the over-*read* then
//! leaks whatever lies past the reply buffer. Tools that only check
//! writes (canaries, DoubleTake) cannot see it — CSOD's read/write
//! watchpoints can, with a per-execution probability that this example
//! measures over repeated "user sessions".

use csod::core::CsodConfig;
use csod::workloads::{BuggyApp, ToolSpec, TraceRunner};

fn main() {
    let app = BuggyApp::by_name("heartbleed").expect("model exists");
    println!("{}: {} ({})", app.name, app.vulnerability, app.reference);
    println!(
        "{} contexts / {} allocations, {} / {} before the overflow\n",
        app.total_contexts, app.total_allocs, app.contexts_before, app.allocs_before
    );

    let registry = app.registry();
    let trace = app.trace(42);

    // One "server lifetime" = one execution; the exploit is in the trace.
    let sessions: u64 = 50;
    let mut detected: u64 = 0;
    let mut first_report: Option<String> = None;
    for seed in 0..sessions {
        let config = CsodConfig::with_seed(seed);
        let outcome =
            TraceRunner::new(&registry, ToolSpec::Csod(config)).run(trace.iter().copied());
        if outcome.watchpoint_detected {
            detected += 1;
            if first_report.is_none() {
                first_report = outcome.reports.first().cloned();
            }
        }
    }
    println!(
        "detected in {detected}/{sessions} executions ({:.0}%; paper: ~36-40%)",
        100.0 * detected as f64 / sessions as f64
    );
    println!("\nfirst report produced:\n");
    println!(
        "{}",
        first_report.unwrap_or_else(|| "(no detection in this batch — rerun)".into())
    );

    // The canary cannot catch an over-READ, so evidence mode alone would
    // stay silent — exactly the Heartbleed blind spot of write-only
    // detectors the paper calls out in Section I.
    let outcome = TraceRunner::new(
        &registry,
        ToolSpec::Csod(CsodConfig {
            seed: 7,
            ..CsodConfig::default()
        }),
    )
    .run(trace.iter().copied());
    println!(
        "canary evidence for this over-read: {} (expected: none — reads corrupt nothing)",
        if outcome.evidence_detected {
            "found"
        } else {
            "none"
        }
    );
}
