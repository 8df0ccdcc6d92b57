//! Access summaries: per-context interval hulls with widening and
//! narrowing.
//!
//! Ambiguously-bound accesses cannot be compared exactly; the
//! classifier folds every end offset such a statement produces into an
//! [`AccessSummary`] — joining exactly for the first
//! [`WIDEN_AFTER`] occurrences, widening
//! after that so access-dense traces summarize in constant space. Each
//! summary also carries the *exact observed hull* (running min/max —
//! still constant space), which one narrowing iteration
//! ([`Interval::narrow`]) can substitute for a bound widening pushed to
//! infinity. Summaries are kept per `(access site, slot, call string)`,
//! the granularity verdicts are drawn from.

use crate::callstring::CtxId;
use crate::classify::WIDEN_AFTER;
use crate::domain::Interval;
use std::collections::HashMap;

/// Interval summary of every end offset one access statement produces
/// through one slot under one call string.
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

/// Key of a context-level summary: access site, slot, call string.
pub type CtxKey = (u64, usize, CtxId);

/// All access summaries of one analysis run.
#[derive(Debug, Default)]
pub struct SummaryTable {
    /// Context-sensitive summaries, the verdict source.
    pub per_ctx: HashMap<CtxKey, AccessSummary>,
}

impl SummaryTable {
    /// An empty table.
    pub fn new() -> SummaryTable {
        SummaryTable::default()
    }

    /// Folds one ambiguous access end into its context's summary.
    pub fn fold(&mut self, token: u64, slot: usize, ctx: CtxId, end: i128) {
        self.per_ctx
            .entry((token, slot, ctx))
            .and_modify(|s| s.fold(end))
            .or_insert_with(|| AccessSummary::of(end));
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
}
