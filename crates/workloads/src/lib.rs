//! # workloads — application models for the CSOD evaluation
//!
//! Synthetic-but-parameterised applications that reproduce the paper's
//! effectiveness workloads (the nine buggy programs of Tables I-III) and
//! performance workloads (the nineteen programs of Table IV / Figure 7),
//! plus the [`TraceRunner`] that executes them under the baseline, CSOD,
//! or the ASan model.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::perf)]

mod buggy;
mod calls;
mod chaos;
mod churn;
mod driver;
mod fleet;
mod fuzz;
mod perf;
mod restart;
mod scenario;
mod sites;
mod trace;

pub use buggy::{BuggyApp, OverflowKind};
pub use calls::CallSensitiveApp;
pub use chaos::{run_chaos_soak, ChaosConfig, ChaosOutcome};
pub use csod_fleet::par::{run_parallel, run_parallel_chunked};
pub use driver::{RunOutcome, ToolSpec, TraceRunner};
pub use fleet::{run_fleet_round, FleetRoundConfig, FleetRoundOutcome, FLEET_BUG_SIGNATURE};
pub use fuzz::{FuzzBug, FuzzWorkload};
pub use perf::PerfApp;
pub use restart::{run_restart_fleet, run_restart_scenario, RestartConfig, RestartOutcome};
pub use scenario::ScenarioBuilder;
pub use sites::{AccessSite, AllocSite, SiteRegistry};
pub use trace::{Event, TraceThread};
