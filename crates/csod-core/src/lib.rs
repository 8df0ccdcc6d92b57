//! # csod-core — Context-Sensitive Overflow Detection
//!
//! A Rust reproduction of **CSOD** (Liu et al., CGO 2019): an always-on
//! heap buffer-overflow detector that guards millions of heap objects with
//! only the four hardware watchpoints an x86-64 thread offers, by sampling
//! *allocation calling contexts* instead of objects.
//!
//! The runtime interposes on `malloc`/`free` (no recompilation — the
//! paper preloads it with `LD_PRELOAD`), assigns every allocation context
//! an adaptive watch probability, places watchpoints on the word just
//! past sampled objects, and reports the full calling context of both the
//! overflowing statement and the overflowed object's allocation when a
//! watchpoint fires — with zero false positives and ~6.7 % overhead.
//!
//! The units of the paper's Figure 1 map to modules:
//!
//! | Paper unit | Here |
//! |---|---|
//! | Alloc/Dealloc Monitoring | [`Csod::malloc`], [`Csod::free`] |
//! | Sampling Management | [`SamplingUnit`] |
//! | Watchpoint Management | [`WatchpointManager`], [`ReplacementPolicy`] |
//! | Signal Handling | [`Csod::poll`], [`OverflowReport`] |
//! | Canary Management | [`CanaryUnit`], [`ObjectLayout`] |
//! | Termination Handling | [`Csod::finish`], [`csod_persist::Wal`] |
//!
//! See the crate-level example on [`Csod`] for an end-to-end detection.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::cast_possible_truncation)]
#![warn(clippy::missing_panics_doc)]
#![warn(clippy::perf)]
// The `Backend`/`HeapBackend` impls delegate to same-named inherent
// methods (`Machine::now`, `SimHeap::memalign`, ...). Should one of those
// stop being visible here, the call resolves to the trait method itself.
#![deny(unconditional_recursion)]

mod backend;
#[cfg(all(
    feature = "linux-hw",
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod backend_linux;
mod canary;
mod config;
mod decision_cache;
mod degradation;
mod mitigation;
mod policy;
mod report;
mod runtime;
mod sampling;
mod summary;
mod watchpoints;

pub use backend::{sim_heap, Backend, HeapBackend, NullBackend, NullHeap};
#[cfg(all(
    feature = "linux-hw",
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub use backend_linux::{CsodShimAlloc, LinuxHeap, LinuxHwBackend};
pub use canary::{
    CanaryStatus, CanaryUnit, ObjectHeader, ObjectLayout, CANARY_SIZE, HEADER_SIZE,
    OBJECT_IDENTIFIER,
};
pub use config::{
    paper, AnalysisPriors, CsodConfig, FastPathParams, MitigationParams, ParseRiskClassError,
    RiskClass, SamplingParams, TraceParams, WatchBackend,
};
pub use decision_cache::{DecisionCache, DecisionCacheStats};
pub use degradation::{
    DegradationManager, DegradationParams, DegradationStats, DetectionMode, FailureVerdict,
};
pub use mitigation::MitigationPolicy;
pub use policy::{ParsePolicyError, ReplacementPolicy};
pub use report::{DetectionMethod, OverflowReport};
pub use runtime::{Csod, CsodError, CsodStats};
pub use sampling::{AllocDecision, ContextJudgment, CtxId, CtxState, SamplingUnit};
pub use summary::RunSummary;
pub use watchpoints::{
    InstallOutcome, WatchCandidate, WatchFilter, WatchedObject, WatchpointManager, WatchpointStats,
};
