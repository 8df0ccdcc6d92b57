//! Access summaries: per-context interval hulls with widening and
//! narrowing, plus reusable function-level summaries.
//!
//! Ambiguously-bound accesses cannot be compared exactly; the
//! classifier folds every end offset such a statement produces into an
//! [`AccessSummary`] — joining exactly for the first
//! [`WIDEN_AFTER`] occurrences, widening
//! after that so access-dense traces summarize in constant space. Each
//! summary also carries the *exact observed hull* (running min/max —
//! still constant space), which one narrowing iteration
//! ([`Interval::narrow`]) can substitute for a bound widening pushed to
//! infinity.
//!
//! Summaries are kept at two granularities:
//!
//! * per `(access site, slot, call string)` — the context-sensitive
//!   facts verdicts are drawn from;
//! * per `(innermost function, access site, slot)` — the reusable
//!   *function summary*: when a function's merged hull is already
//!   conclusive, every calling context that reaches the access through
//!   it shares that one conclusion and the per-context summaries need
//!   not be consulted. [`SummaryTable::reuses`] counts how often this
//!   shortcut fires.

use crate::callstring::CtxId;
use crate::classify::WIDEN_AFTER;
use crate::domain::Interval;
use std::collections::HashMap;

/// Interval summary of every end offset one access statement produces
/// through one slot (under one call string, or merged per function).
#[derive(Debug, Clone)]
pub struct AccessSummary {
    /// Hull of exclusive end offsets, possibly widened.
    pub end: Interval,
    /// Exact hull of the ends actually folded (never widened).
    pub observed: Interval,
    /// Number of accesses folded in.
    pub occurrences: usize,
}

impl AccessSummary {
    /// A summary of the single end `end`.
    pub fn of(end: i128) -> AccessSummary {
        AccessSummary {
            end: Interval::point(end),
            observed: Interval::point(end),
            occurrences: 1,
        }
    }

    /// Folds one more end offset in.
    pub fn fold(&mut self, end: i128) {
        let point = Interval::point(end);
        self.end = if self.occurrences < WIDEN_AFTER {
            self.end.join(point)
        } else {
            self.end.widen(point)
        };
        self.observed = self.observed.join(point);
        self.occurrences += 1;
    }

    /// The hull after one narrowing iteration: widened bounds replaced
    /// by the exact observed ones.
    pub fn narrowed(&self) -> Interval {
        self.end.narrow(self.observed)
    }
}

/// Key of a function-level summary: innermost function (if any), access
/// site, slot.
pub type FnKey = (Option<usize>, u64, usize);

/// Key of a context-level summary: access site, slot, call string.
pub type CtxKey = (u64, usize, CtxId);

/// All access summaries of one analysis run.
#[derive(Debug, Default)]
pub struct SummaryTable {
    /// Context-sensitive summaries, the verdict source.
    pub per_ctx: HashMap<CtxKey, AccessSummary>,
    /// Function-level summaries, merged across that function's calling
    /// contexts — the reuse candidates.
    pub per_fn: HashMap<FnKey, AccessSummary>,
    /// Times a conclusive function summary answered for a context
    /// without consulting the per-context summary.
    pub reuses: u64,
}

impl SummaryTable {
    /// An empty table.
    pub fn new() -> SummaryTable {
        SummaryTable::default()
    }

    /// Folds one ambiguous access end into both granularities.
    /// `track_fn` is false at `k = 0`, where no function frames exist
    /// and the per-context summary (under [`CtxId::ROOT`]) already *is*
    /// the merged view.
    pub fn fold(
        &mut self,
        token: u64,
        slot: usize,
        ctx: CtxId,
        innermost: Option<usize>,
        end: i128,
        track_fn: bool,
    ) {
        self.per_ctx
            .entry((token, slot, ctx))
            .and_modify(|s| s.fold(end))
            .or_insert_with(|| AccessSummary::of(end));
        if track_fn {
            self.per_fn
                .entry((innermost, token, slot))
                .and_modify(|s| s.fold(end))
                .or_insert_with(|| AccessSummary::of(end));
        }
    }

    /// The context-level summary for a key.
    ///
    /// # Panics
    ///
    /// Panics if nothing was folded for the key — the classifier only
    /// looks up summaries for accesses it folded in its first pass.
    pub fn ctx_summary(&self, token: u64, slot: usize, ctx: CtxId) -> &AccessSummary {
        &self.per_ctx[&(token, slot, ctx)]
    }

    /// Function-summary fast path: if the merged hull of `innermost`'s
    /// accesses through `(token, slot)` is stable (never widened) and
    /// bounded at or below `limit`, every context reaching the access
    /// through that function is proven safe at once. Increments
    /// [`reuses`](SummaryTable::reuses) and returns `true` when it
    /// fires.
    pub fn reuse_proves_safe(
        &mut self,
        innermost: Option<usize>,
        token: u64,
        slot: usize,
        limit: i128,
    ) -> bool {
        let Some(summary) = self.per_fn.get(&(innermost, token, slot)) else {
            return false;
        };
        let conclusive =
            !summary.end.widened && summary.end.hi_finite().is_some_and(|hi| hi <= limit);
        if conclusive {
            self.reuses += 1;
        }
        conclusive
    }

    /// Number of context-level summaries whose hull widened.
    pub fn widened_count(&self) -> usize {
        self.per_ctx.values().filter(|s| s.end.widened).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folding_past_the_threshold_widens_but_remembers_observations() {
        let mut s = AccessSummary::of(8);
        for i in 1..(WIDEN_AFTER as i128 + 10) {
            s.fold(8 + i);
        }
        assert!(s.end.widened);
        assert_eq!(s.end.hi_finite(), None);
        // The observed hull is exact and the narrowing recovers it.
        let n = s.narrowed();
        assert_eq!(n.hi_finite(), Some(8 + WIDEN_AFTER as i128 + 9));
        assert!(!n.widened);
    }

    #[test]
    fn stable_summaries_never_widen() {
        let mut s = AccessSummary::of(16);
        for _ in 0..(WIDEN_AFTER * 3) {
            s.fold(16);
        }
        assert!(!s.end.widened);
        assert_eq!(s.end.hi_finite(), Some(16));
    }

    #[test]
    fn function_summary_reuse_fires_only_when_conclusive() {
        let mut t = SummaryTable::new();
        t.fold(0, 0, CtxId(1), Some(3), 32, true);
        t.fold(0, 0, CtxId(2), Some(3), 40, true);
        assert!(t.reuse_proves_safe(Some(3), 0, 0, 64));
        assert!(!t.reuse_proves_safe(Some(3), 0, 0, 16));
        assert!(!t.reuse_proves_safe(Some(9), 0, 0, 64)); // no summary
        assert_eq!(t.reuses, 1);
        // Both granularities were tracked.
        assert_eq!(t.per_ctx.len(), 2);
        assert_eq!(t.per_fn.len(), 1);
    }
}
