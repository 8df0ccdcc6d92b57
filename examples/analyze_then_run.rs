//! Analyze-then-run: prime CSOD's sampler with static risk verdicts.
//!
//! ```bash
//! cargo run --example analyze_then_run
//! ```
//!
//! The workflow this demonstrates is the deployment loop the
//! `csod-analyze` crate adds to the reproduction:
//!
//! 1. run the static analysis over a workload's trace offline,
//! 2. persist the resulting risk report,
//! 3. start CSOD with the report's verdicts as sampling priors, and
//! 4. compare watch-slot spending against an unprimed run.

use csod::analyze::{analyze, RiskReport};
use csod::core::{CsodConfig, RiskClass};
use csod::workloads::{BuggyApp, ToolSpec, TraceRunner};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = BuggyApp::by_name("heartbleed").expect("built-in app");
    let registry = app.registry();
    let trace = app.trace(42);

    // 1. Offline: classify every allocation site of the workload.
    let report = analyze(&registry, &trace);
    let (safe, sus, unknown) = report.census();
    println!(
        "static analysis of {}: {safe} proven-safe, {sus} suspicious, {unknown} unknown site(s)",
        app.name
    );
    for v in &report.verdicts {
        if v.class == RiskClass::Suspicious {
            let innermost = v.signature.split('|').next().unwrap_or("?");
            println!(
                "  suspicious: {innermost} — {}",
                v.witness.as_deref().unwrap_or("no witness")
            );
        }
    }

    // 2. Persist and reload, as a deployment would across runs.
    let path = std::env::temp_dir().join("heartbleed-risk.tsv");
    report.save(&path)?;
    let report = RiskReport::load(&path, &registry)?;
    println!("report round-tripped through {}", path.display());

    // 3. Online: one unprimed run, one primed run, same seed.
    let unprimed = TraceRunner::new(&registry, ToolSpec::Csod(CsodConfig::default()))
        .run(trace.iter().copied());
    let priors = report.to_priors(&registry);
    let primed = TraceRunner::new(&registry, ToolSpec::Csod(CsodConfig::with_priors(priors)))
        .run(trace.iter().copied());

    // 4. What the priors bought.
    println!(
        "\nunprimed: {} installs, detected: {}",
        unprimed.watched_times, unprimed.detected
    );
    println!(
        "primed:   {} installs ({} on proven-safe, {} on suspicious), detected: {}",
        primed.watched_times,
        primed.proven_safe_installs,
        primed.suspicious_installs,
        primed.detected
    );
    println!(
        "watch slots saved on proven-safe contexts: {} skip(s); soundness violations: {}",
        primed.prior_availability_skips, primed.proven_safe_overflows
    );
    assert_eq!(primed.proven_safe_overflows, 0);
    Ok(())
}
