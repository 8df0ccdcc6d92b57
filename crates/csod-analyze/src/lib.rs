//! # csod-analyze — static overflow-risk analysis that primes the sampler
//!
//! CSOD's adaptive sampler starts every allocation calling context at a
//! 50 % watch probability and learns only from what the four
//! watchpoints happen to observe. This crate front-loads that learning:
//! an offline pass over a workload's event trace classifies every
//! allocation site — per **k-limited call string** — as
//! **proven-safe**, **suspicious** or **unknown**, and hands the
//! verdicts to the runtime as
//! [`AnalysisPriors`](csod_core::AnalysisPriors) so proven-safe
//! contexts start at the probability floor (freeing watch slots) and
//! suspicious ones start boosted and immune to burst throttling.
//!
//! The pipeline, one module per stage:
//!
//! | Stage | Module |
//! |---|---|
//! | Trace → per-thread statement IR | [`ir`] |
//! | Basic blocks + spawn edges | [`cfg`](mod@cfg) |
//! | k-limited call-string assignment | [`callstring`] |
//! | Pointer-slot escape analysis | [`escape`] |
//! | Flow-sensitive binding resolution | [`cfg::resolve_bindings`] |
//! | Interval bounds inference + summaries | [`domain`], [`summaries`], [`classify`] |
//! | Serializable verdicts + runtime bridge | [`report`] |
//!
//! The classification is *sound* by construction toward the dangerous
//! side: precision loss (escaped slots, widened summaries) can only
//! move a site from proven-safe to unknown/suspicious, never the other
//! way. [`oracle`] provides the reference interpreter the test tiers
//! use to enforce that: no site it sees overflow may be proven safe.
//!
//! # Examples
//!
//! ```
//! use csod_analyze::analyze;
//! use csod_core::RiskClass;
//! use workloads::BuggyApp;
//!
//! let app = &BuggyApp::all()[0];
//! let registry = app.registry();
//! let report = analyze(&registry, &app.trace(1));
//! // The planted overflow's context is flagged; the rest are proven.
//! assert_eq!(report.class_of(app.bug_ctx()), RiskClass::Suspicious);
//! let priors = report.to_priors(&registry);
//! assert!(priors.census().1 >= 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::cast_possible_truncation)]
#![warn(clippy::missing_panics_doc)]

pub mod callstring;
pub mod cfg;
pub mod classify;
pub mod domain;
pub mod escape;
pub mod ir;
pub mod oracle;
pub mod report;
pub mod summaries;

pub use callstring::{CtxAssignment, CtxId, CtxTable};
pub use cfg::{Binding, Bindings, Cfg};
pub use classify::{CtxOutcome, WIDEN_AFTER};
pub use domain::{Bound, Interval};
pub use escape::{SlotInfo, SlotTable};
pub use ir::{AccessRange, GenId, Generation, Program};
pub use report::{RiskReport, SiteVerdict};
pub use summaries::{AccessSummary, SummaryTable};

use workloads::{Event, SiteRegistry};

/// The default call-string limit: distinguish up to the two innermost
/// callers, the paper-family sweet spot between precision and context
/// blow-up.
pub const DEFAULT_K: usize = 2;

/// Full output of [`analyze_detailed`]: the report plus the number of
/// call strings the run interned.
#[derive(Debug)]
pub struct Analysis {
    /// The serializable verdicts.
    pub report: RiskReport,
    /// Distinct k-limited call strings interned.
    pub contexts: usize,
}

/// Runs the whole pipeline at [`DEFAULT_K`]: lowers `trace`, resolves
/// what every access can touch, and classifies each of `registry`'s
/// allocation sites per call string.
pub fn analyze(registry: &SiteRegistry, trace: &[Event]) -> RiskReport {
    analyze_with_k(registry, trace, DEFAULT_K)
}

/// [`analyze`] with an explicit call-string limit (`k = 0` is the
/// context-insensitive analysis of earlier revisions, bit for bit).
pub fn analyze_with_k(registry: &SiteRegistry, trace: &[Event], k: usize) -> RiskReport {
    analyze_detailed(registry, trace, k).report
}

/// The full pipeline with the context count exposed.
pub fn analyze_detailed(registry: &SiteRegistry, trace: &[Event], k: usize) -> Analysis {
    let program = ir::lower(registry, trace);
    let cfg = Cfg::build(&program);
    let ctxs = callstring::assign(&program, k);
    let slots = escape::analyze_slots(&program);
    let bindings = cfg::resolve_bindings(&program, &cfg, &slots);
    let outcomes = classify::classify(&program, &bindings, &ctxs);
    Analysis {
        report: RiskReport::assemble(registry, &ctxs, outcomes, k),
        contexts: ctxs.table.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csod_core::RiskClass;
    use workloads::BuggyApp;

    #[test]
    fn every_buggy_app_flags_its_bug_and_proves_the_rest() {
        for app in BuggyApp::all() {
            let registry = app.registry();
            for seed in 1..=3 {
                let report = analyze(&registry, &app.trace(seed));
                assert_eq!(
                    report.class_of(app.bug_ctx()),
                    RiskClass::Suspicious,
                    "{}: planted overflow context must be suspicious",
                    app.name
                );
                let (safe, sus, _) = report.census();
                assert_eq!(sus, 1, "{}: exactly one suspicious row", app.name);
                assert_eq!(
                    safe,
                    report.verdicts.len() - 1,
                    "{}: every non-bug row is proven safe",
                    app.name
                );
            }
        }
    }

    #[test]
    fn analysis_is_deterministic() {
        let app = &BuggyApp::all()[2];
        let registry = app.registry();
        let a = analyze(&registry, &app.trace(7));
        let b = analyze(&registry, &app.trace(7));
        assert_eq!(a, b);
    }
}
