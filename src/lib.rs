//! # csod — Context-Sensitive Overflow Detection, reproduced in Rust
//!
//! Umbrella crate re-exporting the whole reproduction of *CSOD:
//! Context-Sensitive Overflow Detection* (Liu et al., CGO 2019):
//!
//! * [`core`] — the CSOD runtime (sampling, watchpoints,
//!   canaries, evidence, reports);
//! * [`machine`] — the deterministic machine substrate
//!   (address space, threads, debug registers, perf events, signals,
//!   virtual time);
//! * [`heap`] — the allocator substrate;
//! * [`ctx`] / [`rng`] — calling contexts and the
//!   per-thread generator;
//! * [`asan`] — the AddressSanitizer comparison baseline;
//! * [`sampler`] — the Sampler (MICRO'18) PMU-sampling
//!   baseline;
//! * [`fleet`] — fleet-scale trap aggregation: the sharded store,
//!   parallel WAL ingest, and the global sampling-budget controller;
//! * [`workloads`] — the paper's effectiveness and performance workloads;
//! * [`analyze`] — the static overflow-risk pre-analysis that primes
//!   the sampler with per-context priors;
//! * [`trace`] — the always-on observability layer (event rings,
//!   metrics snapshots, the JSONL report file); set
//!   `CsodConfig::trace.events = false` to stop emitting events.
//!
//! Run `cargo run --example quickstart` for a two-minute tour, and see
//! DESIGN.md / EXPERIMENTS.md for the experiment index.

pub use asan_sim as asan;
pub use csod_analyze as analyze;
pub use csod_core as core;
pub use csod_ctx as ctx;
pub use csod_fleet as fleet;
pub use csod_rng as rng;
pub use csod_trace as trace;
pub use sampler_sim as sampler;
pub use sim_heap as heap;
pub use sim_machine as machine;
pub use workloads;
