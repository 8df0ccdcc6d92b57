//! # csod-fleet — fleet-scale trap aggregation and sampling budgets
//!
//! The paper's detector is per-process, but its economics only work at
//! fleet scale: GWP-ASan (PAPERS.md) showed that a sampled detector
//! becomes effective when trap evidence from thousands of processes is
//! merged, so each process samples less while the fleet's per-bug
//! detection probability stays high. This crate is that aggregation
//! tier for the CSOD reproduction:
//!
//! * [`FleetStore`] — a signature-sharded store of
//!   strongest-per-signature evidence, trap counts and mitigation
//!   state (the 64-stripe locking pattern from `csod-ctx`'s
//!   `ContextTable`), committed to by batched k-way merge rather than
//!   record-at-a-time insertion;
//! * [`ingest_parallel`] — the chunked ingest pipeline: WAL reads and
//!   checksum scans fan out over the work-stealing driver in [`par`],
//!   merge commits stay shard-local, and durability is group-committed
//!   one fsync per chunk instead of one per process
//!   ([`ingest_serial`] keeps the naive discipline as the measured
//!   baseline);
//! * [`SamplingBudget`] — converts fleet size and a global overhead
//!   bound into the per-process initial watch probability that still
//!   meets a fleet-wide per-unique-bug detection target, and
//! * [`FleetPlan`] — the resulting launch plan: budgeted
//!   `SamplingParams`, `Suspicious`-only `AnalysisPriors`, and a seed
//!   WAL that enrolls every fleet-confirmed context in a new process's
//!   `MitigationPolicy` before its first allocation.
//!
//! The store's merge is a join on the evidence lattice (strongest
//! record kind, highest boost — [`csod_persist::Strongest`], the same
//! helper WAL compaction uses), which makes it commutative, associative
//! and idempotent: workers may claim and commit chunks in any order and
//! the fleet's knowledge comes out identical. That algebra, proved by
//! the proptests in `tests/`, is what lets the whole pipeline run
//! without coordination beyond per-shard locks.
//!
//! ```
//! use csod_fleet::{FleetStore, SamplingBudget};
//! use csod_persist::{RecordKind, WalRecord};
//!
//! // Process A trapped on a context; the fleet merges it...
//! let store = FleetStore::new();
//! store.insert_record(&WalRecord::new(
//!     RecordKind::TrapSignature,
//!     1_000_000,
//!     "gzip/deflate.c:595|gzip/gzip.c:804",
//! ));
//!
//! // ...and the budget turns 1000 upcoming launches into a plan:
//! // every process watches less, the confirmed context is hardened
//! // everywhere from first allocation.
//! let base = csod_core::CsodConfig::default().sampling;
//! let plan = SamplingBudget::default().plan(&store, 1000, &base);
//! assert!(plan.initial_ppm < base.initial_ppm);
//! assert_eq!(plan.seed_records.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::perf)]

mod budget;
mod ingest;
pub mod par;
mod store;

pub use budget::{FleetPlan, SamplingBudget};
pub use ingest::{ingest_parallel, ingest_serial, IngestOptions, IngestStats};
pub use store::{FleetEntry, FleetRecord, FleetStore, MergeStats, DEFAULT_SHARDS};
