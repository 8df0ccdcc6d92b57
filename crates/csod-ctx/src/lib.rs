//! # csod-ctx — allocation calling contexts
//!
//! CSOD's key insight is that "heap objects with the same allocation
//! calling context typically have the same access behavior" (paper
//! Section I), so sampling state is kept *per calling context*, not per
//! object. This crate provides the context machinery:
//!
//! * [`FrameTable`] interns code locations into compact [`FrameId`]s;
//! * [`CallingContext`] is a full backtrace (captured once per context,
//!   printed in bug reports);
//! * [`ContextKey`] is the cheap *(first-level site, stack offset)* pair
//!   compared on every allocation;
//! * [`ContextTable`] is the bucketed open-addressed hash table mapping
//!   keys to per-context state, owned by the runtime's sampler;
//! * [`ContextTree`] is a compressed calling-context tree that stores
//!   the full backtraces with shared suffixes interned once.
//!
//! ```
//! use csod_ctx::{CallingContext, ContextKey, ContextTable, FrameTable};
//!
//! let frames = FrameTable::new();
//! let ctx = CallingContext::from_locations(&frames, ["app.c:42", "main.c:7"]);
//! // An empty backtrace has no first-level site to key on, so
//! // `first_level` is fallible; bail out rather than unwrap.
//! let Some(site) = ctx.first_level() else {
//!     return;
//! };
//! let key = ContextKey::new(site, 0x40);
//!
//! let mut table: ContextTable<u64> = ContextTable::new();
//! *table.entry(key, || 0).0 += 1;
//! assert_eq!(table.get(key), Some(&1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::perf)]

mod context;
mod frame;
mod key;
mod table;
mod tree;

pub use context::CallingContext;
pub use frame::{FrameId, FrameTable};
pub use key::ContextKey;
pub use table::{ContextTable, DEFAULT_BUCKETS};
pub use tree::{ContextTree, CtxNodeId};
