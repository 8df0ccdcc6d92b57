//! Priors on/off comparison: what the static pre-analysis buys the
//! sampler on the buggy-application suite.
//!
//! For each application, runs CSOD with the default schedule and with
//! `csod-analyze` priors over the same executions and reports detection
//! rate, installs spent on proven-safe contexts, watch slots saved
//! outright, and the soundness counter (must stay 0).
//!
//! ```bash
//! cargo run --release -p csod-bench --bin priors [-- --runs N]
//! ```

use csod_analyze::analyze;
use csod_bench::{header, row, runs_arg};
use csod_core::{CsodConfig, RiskClass};
use workloads::{BuggyApp, ToolSpec, TraceRunner};

fn main() {
    let runs = runs_arg(20);
    header("Static priors: default schedule vs analyze-then-run");
    let widths = [14, 9, 9, 12, 12, 9, 7];
    println!(
        "{}",
        row(
            &[
                "Application".into(),
                "det(off)".into(),
                "det(on)".into(),
                "safeWT(off)".into(),
                "safeWT(on)".into(),
                "skips".into(),
                "sound".into(),
            ],
            &widths
        )
    );

    let mut total_off = 0u64;
    let mut total_on = 0u64;
    for app in BuggyApp::all() {
        let registry = app.registry();
        let trace = app.trace(42);
        let priors = analyze(&registry, &trace).to_priors(&registry);

        let mut det = [0u64; 2];
        let mut safe_installs = [0u64; 2];
        let mut skips = 0u64;
        let mut violations = 0u64;
        for seed in 0..runs as u64 {
            for (i, primed) in [false, true].into_iter().enumerate() {
                let mut config = if primed {
                    CsodConfig::with_priors(priors.clone())
                } else {
                    CsodConfig::default()
                };
                config.seed = seed;
                let outcome =
                    TraceRunner::new(&registry, ToolSpec::Csod(config)).run(trace.iter().copied());
                det[i] += u64::from(outcome.watchpoint_detected);
                // Attribute installs to the analyzer's verdicts in both
                // modes so the columns are comparable.
                safe_installs[i] += outcome
                    .context_watch_counts
                    .iter()
                    .filter(|(key, _)| priors.class_of(*key) == Some(RiskClass::ProvenSafe))
                    .map(|(_, count)| count)
                    .sum::<u64>();
                if primed {
                    skips += outcome.prior_availability_skips;
                    violations += outcome.proven_safe_overflows;
                }
            }
        }
        total_off += safe_installs[0];
        total_on += safe_installs[1];
        println!(
            "{}",
            row(
                &[
                    app.name.into(),
                    format!("{}/{runs}", det[0]),
                    format!("{}/{runs}", det[1]),
                    safe_installs[0].to_string(),
                    safe_installs[1].to_string(),
                    skips.to_string(),
                    if violations == 0 {
                        "ok".into()
                    } else {
                        format!("{violations}!")
                    },
                ],
                &widths
            )
        );
    }
    let saved = if total_off > 0 {
        100.0 * (1.0 - total_on as f64 / total_off as f64)
    } else {
        0.0
    };
    println!("\ninstalls on proven-safe contexts: {total_off} -> {total_on} ({saved:.1}% saved)");
    println!("a nonzero 'sound' column would mean the static analysis is broken.");
}
