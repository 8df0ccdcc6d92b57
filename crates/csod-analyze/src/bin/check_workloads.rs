//! Analyzer self-test: run the static analysis over every built-in
//! workload and fail if any planted or dynamically observed overflow
//! comes from a context the analysis proved safe — statically (the
//! oracle's verdict check) and dynamically (a primed runtime whose
//! soundness counter must stay zero).
//!
//! ```text
//! cargo run -p csod-analyze --bin check_workloads -- --check-workloads [--k N]
//! ```
//!
//! CI runs this as its own job; a non-zero exit means the analysis is
//! unsound on a workload the repo itself ships — the one bug class the
//! priors design cannot tolerate. Every failure prints the offending
//! context signature so the falsified claim is identifiable without a
//! rerun.

use csod_analyze::{analyze_with_k, oracle, DEFAULT_K};
use csod_core::{CsodConfig, RiskClass};
use std::process::ExitCode;
use workloads::{BuggyApp, CallSensitiveApp, FuzzWorkload, SiteRegistry, ToolSpec, TraceRunner};

struct Gate {
    k: usize,
    checked: usize,
    failures: usize,
}

impl Gate {
    /// Static half: no oracle-overflowed site proven safe.
    fn check_static(
        &mut self,
        label: &str,
        registry: &SiteRegistry,
        trace: &[workloads::Event],
    ) -> csod_analyze::RiskReport {
        let report = analyze_with_k(registry, trace, self.k);
        self.checked += 1;
        for site in oracle::overflowed_sites(trace) {
            if report.class_of(site) == RiskClass::ProvenSafe {
                self.failures += 1;
                let signature = report
                    .rows_of(site)
                    .next()
                    .map_or_else(|| "?".to_owned(), |v| v.signature.clone());
                eprintln!("FAIL {label}: overflowed site {site} ({signature}) is proven-safe");
            }
        }
        report
    }

    /// Dynamic half: run the trace through a runtime primed with the
    /// report's priors; the soundness counter must stay zero.
    fn check_runtime(
        &mut self,
        label: &str,
        registry: &SiteRegistry,
        trace: &[workloads::Event],
        report: &csod_analyze::RiskReport,
    ) {
        let priors = report.to_priors(registry);
        let outcome = TraceRunner::new(registry, ToolSpec::Csod(CsodConfig::with_priors(priors)))
            .run(trace.iter().copied());
        self.checked += 1;
        if outcome.proven_safe_overflows > 0 {
            self.failures += 1;
            for signature in &outcome.proven_safe_overflow_signatures {
                eprintln!("FAIL {label}: runtime overflow in proven-safe context {signature}");
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut k = DEFAULT_K;
    let mut bad_usage = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check-workloads" => {}
            "--k" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(v) => k = v,
                    None => bad_usage = true,
                }
            }
            _ => bad_usage = true,
        }
        i += 1;
    }
    if bad_usage {
        eprintln!("usage: check_workloads [--check-workloads] [--k N]");
        return ExitCode::from(2);
    }

    let mut gate = Gate {
        k,
        checked: 0,
        failures: 0,
    };

    // 1. Every planted overflow in the buggy suite must be flagged, and
    // the primed runtime must never trap in a proven-safe context.
    for app in BuggyApp::all() {
        let registry = app.registry();
        for seed in 1..=5 {
            let trace = app.trace(seed);
            let label = format!("{} (seed {seed})", app.name);
            let report = gate.check_static(&label, &registry, &trace);
            let class = report.class_of(app.bug_ctx());
            if class == RiskClass::ProvenSafe {
                gate.failures += 1;
                eprintln!(
                    "FAIL {label}: planted overflow context {} is proven-safe",
                    app.bug_ctx()
                );
            }
            if seed == 1 {
                gate.check_runtime(&label, &registry, &trace, &report);
                let (safe, sus, unknown) = report.census();
                println!(
                    "{:<28} {safe:>3} proven-safe {sus:>2} suspicious {unknown:>2} unknown",
                    app.name
                );
            }
        }
    }

    // 2. The call-sensitive corpus: per-call-string verdicts against
    // both the oracle and the primed runtime.
    for app in CallSensitiveApp::all() {
        let registry = app.registry();
        for seed in 1..=3 {
            let trace = app.trace(seed);
            let label = format!("{} (seed {seed})", app.name);
            let report = gate.check_static(&label, &registry, &trace);
            if seed == 1 {
                gate.check_runtime(&label, &registry, &trace, &report);
            }
        }
    }

    // 3. Fuzzed workloads: anything the oracle saw overflow must not be
    // proven safe (including the injected FuzzBug context).
    for seed in 0..64 {
        for inject in [false, true] {
            let w = FuzzWorkload::generate(seed, inject);
            let label = format!("fuzz seed {seed} (inject={inject})");
            let report = gate.check_static(&label, &w.registry, &w.trace);
            if let Some(bug) = w.bug {
                if report.class_of(bug.ctx) == RiskClass::ProvenSafe {
                    gate.failures += 1;
                    eprintln!(
                        "FAIL {label}: injected bug context {} is proven-safe",
                        bug.ctx
                    );
                }
            }
        }
    }

    println!(
        "checked {} analyses at k = {k}, {} soundness failure(s)",
        gate.checked, gate.failures
    );
    if gate.failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
