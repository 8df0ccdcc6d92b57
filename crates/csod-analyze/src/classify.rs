//! The classifier: bounds facts in, per-(site, call-string) risk
//! verdicts out.
//!
//! For every `Use` the binding resolution left us, the classifier
//! relates the access's byte range to the size of the object(s) it can
//! touch and folds the result into a verdict per **(allocation site,
//! allocation call string)** — the same granularity the runtime's
//! priors are keyed at:
//!
//! * **Definite** bindings compare exactly: `offset + len > size` is an
//!   overflow, anything else is proven in bounds for *this* access.
//! * **Ambiguous** bindings go through a per-`(access site, slot, call
//!   string)` [`AccessSummary`](crate::summaries::AccessSummary) — the
//!   interval join of every end offset the statement produces under
//!   that context, switching to widening after [`WIDEN_AFTER`]
//!   occurrences so huge traces summarize in constant space. A summary
//!   bounded below the smallest candidate object is safe; one that can
//!   reach past it is suspicious.
//! * `PastEnd` accesses (the trace's overflow events) are out of
//!   bounds for every possible size and mark every candidate
//!   (site, context) suspicious outright.
//!
//! At `k = 0` a widened summary proves nothing and the candidates
//! demote to *Unknown* — exactly the context-insensitive behavior of
//! earlier revisions. At `k > 0` a widened per-context summary gets one
//! **narrowing** iteration that restores the exact observed hull, so a
//! context is never Unknown because unrelated contexts inflated a
//! merged summary.
//!
//! Uses-after-free are out of overflow scope (CSOD removes the
//! watchpoint at `free`) and are skipped. The lattice is
//! `ProvenSafe < Unknown < Suspicious`: a row keeps the worst verdict
//! any access reaching its allocations earned.

use crate::callstring::{CtxAssignment, CtxId};
use crate::cfg::{Binding, Bindings};
use crate::ir::{AccessRange, Program, StmtKind};
use crate::summaries::SummaryTable;
use csod_core::RiskClass;
use std::collections::{BTreeMap, HashMap};

/// Number of occurrences after which an access summary stops joining
/// and starts widening. Joins of concrete ends are exact; widening
/// bounds the work on access-dense traces at the price of precision.
pub const WIDEN_AFTER: usize = 64;

/// The verdict for one (allocation site, allocation call string) pair.
#[derive(Debug, Clone)]
pub struct CtxOutcome {
    /// Allocation-site index in the registry.
    pub site: usize,
    /// Call string the site's allocations ran under.
    pub ctx: CtxId,
    /// The risk class of this site under this call string.
    pub class: RiskClass,
    /// Human-readable justification (for suspicious/unknown verdicts).
    pub witness: Option<String>,
}

pub(crate) fn rank(class: RiskClass) -> u8 {
    match class {
        RiskClass::ProvenSafe => 0,
        RiskClass::Unknown => 1,
        RiskClass::Suspicious => 2,
    }
}

/// Classifies every (allocation site, call string) of `program` under
/// the context assignment `ctxs`: one verdict per (site, call string),
/// ordered by site then context id.
pub fn classify(program: &Program, bindings: &Bindings, ctxs: &CtxAssignment) -> Vec<CtxOutcome> {
    // One row per (site, allocation context) observed in the trace;
    // never-allocated sites get a vacuous root row so every site of the
    // registry is covered.
    let mut rows: BTreeMap<(usize, CtxId), (RiskClass, Option<String>)> = BTreeMap::new();
    let mut allocated = vec![false; program.alloc_site_count];
    for gen in &program.generations {
        if gen.site < program.alloc_site_count {
            allocated[gen.site] = true;
            rows.entry((gen.site, ctxs.gen_ctx[gen.id.0 as usize]))
                .or_insert((RiskClass::ProvenSafe, None));
        }
    }
    for (site, _) in allocated.iter().enumerate().filter(|(_, a)| !**a) {
        rows.insert(
            (site, CtxId::ROOT),
            (
                RiskClass::ProvenSafe,
                Some("never allocated in the analyzed trace".to_owned()),
            ),
        );
    }
    let raise = |rows: &mut BTreeMap<(usize, CtxId), (RiskClass, Option<String>)>,
                 site: usize,
                 ctx: CtxId,
                 class: RiskClass,
                 w: String| {
        if let Some(row) = rows.get_mut(&(site, ctx)) {
            if rank(class) > rank(row.0) {
                *row = (class, Some(w));
            }
        }
    };

    // Pass 1: summarize ambiguous exact accesses per (token, slot,
    // context). Iterate in program order (not map order) so summary
    // folding — and with it the widening point — is deterministic.
    let mut summaries = SummaryTable::new();
    for (thread, stmts) in program.threads.iter().enumerate() {
        for (i, stmt) in stmts.iter().enumerate() {
            let StmtKind::Use {
                slot,
                range: AccessRange::Exact { offset, len },
                token,
                dangling: false,
                ..
            } = stmt.kind
            else {
                continue;
            };
            if !matches!(bindings.of(thread, i), Some(Binding::Ambiguous(_))) {
                continue;
            }
            let end = i128::from(offset.saturating_add(len));
            summaries.fold(token.0, slot, ctxs.ctx_of(thread, i), end);
        }
    }

    // Pass 2: fold every bound access into its candidates' verdicts.
    let uses = program.threads.iter().enumerate().flat_map(|(t, stmts)| {
        (0..stmts.len()).filter_map(move |i| bindings.of(t, i).map(|b| (t, i, b)))
    });
    for (thread, i, binding) in uses {
        let StmtKind::Use {
            slot,
            range,
            token,
            dangling,
            ..
        } = program.threads[thread][i].kind
        else {
            continue;
        };
        if dangling {
            continue;
        }
        let ctx_of_gen = |g: &crate::ir::GenId| ctxs.gen_ctx[g.0 as usize];
        match (range, binding) {
            (_, Binding::None) => {}
            (AccessRange::FirstWord, _) => {
                // The runner clamps bursts to the first in-bounds word;
                // safe for every size.
            }
            (AccessRange::PastEnd, Binding::Definite(g)) => {
                let gen = program.generation(*g);
                raise(
                    &mut rows,
                    gen.site,
                    ctx_of_gen(g),
                    RiskClass::Suspicious,
                    format!(
                        "statement {} overflows past the boundary of the {}-byte object",
                        token.0, gen.size
                    ),
                );
            }
            (AccessRange::PastEnd, Binding::Ambiguous(gens)) => {
                for g in gens {
                    let gen = program.generation(*g);
                    raise(
                        &mut rows,
                        gen.site,
                        ctx_of_gen(g),
                        RiskClass::Suspicious,
                        format!(
                            "statement {} overflows a possibly-bound object of slot {}",
                            token.0, slot
                        ),
                    );
                }
            }
            (AccessRange::Exact { offset, len }, Binding::Definite(g)) => {
                let gen = program.generation(*g);
                let end = offset.saturating_add(len);
                if end > gen.size {
                    raise(
                        &mut rows,
                        gen.site,
                        ctx_of_gen(g),
                        RiskClass::Suspicious,
                        format!(
                            "access [{offset}, {end}) exceeds the {}-byte object",
                            gen.size
                        ),
                    );
                }
            }
            (AccessRange::Exact { .. }, Binding::Ambiguous(gens)) => {
                // Per candidate (site, allocation context), the access
                // must be compared against the smallest object that
                // group can put in the slot.
                let mut min_size: HashMap<(usize, CtxId), u64> = HashMap::new();
                for g in gens {
                    let gen = program.generation(*g);
                    min_size
                        .entry((gen.site, ctx_of_gen(g)))
                        .and_modify(|m| *m = (*m).min(gen.size))
                        .or_insert(gen.size);
                }
                let access_ctx = ctxs.ctx_of(thread, i);
                let summary = summaries.ctx_summary(token.0, slot, access_ctx);
                // At k > 0 a widened hull gets one narrowing iteration;
                // at k = 0 widening is final (the historical verdicts).
                let effective = if ctxs.k == 0 {
                    summary.end
                } else {
                    summary.narrowed()
                };
                let end_hi = if effective.widened {
                    None
                } else {
                    effective.hi_finite()
                };
                let Some(end_hi) = end_hi else {
                    for &(site, gctx) in min_size.keys() {
                        raise(
                            &mut rows,
                            site,
                            gctx,
                            RiskClass::Unknown,
                            format!(
                                "access summary of statement {} through slot {} widened to {}",
                                token.0, slot, summary.end
                            ),
                        );
                    }
                    continue;
                };
                for (&(site, gctx), &size) in &min_size {
                    if end_hi > i128::from(size) {
                        raise(
                            &mut rows,
                            site,
                            gctx,
                            RiskClass::Suspicious,
                            format!(
                                "summarized access end {effective} can exceed a {size}-byte binding of slot {slot}",
                            ),
                        );
                    }
                }
            }
        }
    }

    rows.into_iter()
        .map(|((site, ctx), (class, witness))| CtxOutcome {
            site,
            ctx,
            class,
            witness,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callstring::assign;
    use crate::cfg::{resolve_bindings, Cfg};
    use crate::escape::analyze_slots;
    use crate::ir::lower;
    use csod_ctx::FrameTable;
    use sim_machine::{AccessKind, SiteToken};
    use std::sync::Arc;
    use workloads::{Event, SiteRegistry};

    fn registry(sites: usize) -> SiteRegistry {
        let mut reg = SiteRegistry::new("clstest", Arc::new(FrameTable::new()));
        reg.add_alloc_sites(sites);
        reg.add_access_site("clstest", "u.c:1");
        reg.add_function("f");
        reg.add_function("g");
        reg
    }

    fn run_k(reg: &SiteRegistry, trace: &[Event], k: usize) -> Vec<CtxOutcome> {
        let program = lower(reg, trace);
        let cfg = Cfg::build(&program);
        let slots = analyze_slots(&program);
        let bindings = resolve_bindings(&program, &cfg, &slots);
        let ctxs = assign(&program, k);
        classify(&program, &bindings, &ctxs)
    }

    /// Worst class across the rows of one site.
    fn site_class(c: &[CtxOutcome], site: usize) -> RiskClass {
        c.iter()
            .filter(|o| o.site == site)
            .map(|o| o.class)
            .max_by_key(|cl| rank(*cl))
            .expect("site covered")
    }

    #[test]
    fn in_bounds_accesses_prove_the_site_safe() {
        let reg = registry(1);
        let t = SiteToken(0);
        let trace = vec![
            Event::malloc(0, 64, 0),
            Event::access(0, 0, 8, AccessKind::Read, t),
            Event::access(0, 56, 8, AccessKind::Write, t),
            Event::burst(0, 1000, AccessKind::Read, t),
            Event::free(0),
        ];
        for k in [0, 2] {
            assert_eq!(
                site_class(&run_k(&reg, &trace, k), 0),
                RiskClass::ProvenSafe
            );
        }
    }

    #[test]
    fn definite_out_of_bounds_intent_is_suspicious() {
        let reg = registry(1);
        let t = SiteToken(0);
        let trace = vec![
            Event::malloc(0, 16, 0),
            // As-written [12, 20) exceeds the 16-byte object.
            Event::access(0, 12, 8, AccessKind::Write, t),
        ];
        let c = run_k(&reg, &trace, 0);
        assert_eq!(site_class(&c, 0), RiskClass::Suspicious);
        assert!(c[0].witness.as_deref().unwrap().contains("exceeds"));
    }

    #[test]
    fn past_end_overflow_is_suspicious() {
        let reg = registry(2);
        let t = SiteToken(0);
        let trace = vec![
            Event::malloc(0, 16, 0),
            Event::malloc(1, 16, 1),
            Event::access(1, 0, 8, AccessKind::Read, t),
            Event::overflow(0, AccessKind::Write, t),
        ];
        let c = run_k(&reg, &trace, 0);
        assert_eq!(site_class(&c, 0), RiskClass::Suspicious);
        assert_eq!(site_class(&c, 1), RiskClass::ProvenSafe);
    }

    #[test]
    fn ambiguous_binding_compares_against_the_smallest_candidate() {
        let reg = registry(2);
        let t = SiteToken(0);
        // Slot 0 escapes with two generations: 16 B (site 0) and 64 B
        // (site 1). A 24-byte-end access fits the big one only.
        let trace = vec![
            Event::SpawnThread,
            Event::malloc(0, 16, 0),
            Event::malloc(1, 64, 0),
            Event::Access {
                thread: 1,
                slot: 0,
                offset: 16,
                len: 8,
                kind: AccessKind::Read,
                site: t,
            },
        ];
        let c = run_k(&reg, &trace, 0);
        assert_eq!(site_class(&c, 0), RiskClass::Suspicious);
        assert_eq!(site_class(&c, 1), RiskClass::ProvenSafe);
    }

    /// An escaped slot fed ever-growing in-bounds ends by one statement:
    /// past [`WIDEN_AFTER`] the merged summary widens to +inf.
    fn widening_trace(calls: bool) -> Vec<Event> {
        let t = SiteToken(0);
        let mut trace = vec![
            Event::SpawnThread,
            Event::malloc(0, 100_000, 0),
            Event::malloc(1, 100_000, 0),
        ];
        if calls {
            trace.push(Event::call(0));
        }
        for i in 0..(WIDEN_AFTER as u64 + 8) {
            trace.push(Event::Access {
                thread: 1,
                slot: 0,
                offset: i * 8,
                len: 8,
                kind: AccessKind::Read,
                site: t,
            });
        }
        if calls {
            trace.push(Event::ret());
        }
        trace
    }

    #[test]
    fn widened_summary_demotes_to_unknown() {
        let reg = registry(2);
        let c = run_k(&reg, &widening_trace(false), 0);
        assert_eq!(site_class(&c, 0), RiskClass::Unknown);
        assert_eq!(site_class(&c, 1), RiskClass::Unknown);
        assert!(c[0].witness.as_deref().unwrap().contains("widened"));
    }

    #[test]
    fn narrowing_recovers_widened_contexts_at_positive_k() {
        // The same growing stream stays in bounds of the 100 kB
        // objects; at k > 0 the narrowing restores the exact observed
        // hull and the sites prove safe.
        let reg = registry(2);
        let c = run_k(&reg, &widening_trace(false), 2);
        assert_eq!(site_class(&c, 0), RiskClass::ProvenSafe);
        assert_eq!(site_class(&c, 1), RiskClass::ProvenSafe);
    }

    #[test]
    fn never_allocated_sites_are_vacuously_safe() {
        let reg = registry(3);
        let trace = vec![Event::malloc(0, 8, 0)];
        let c = run_k(&reg, &trace, 0);
        let row = c.iter().find(|o| o.site == 2).unwrap();
        assert_eq!(row.class, RiskClass::ProvenSafe);
        assert!(row.witness.as_deref().unwrap().contains("never allocated"));
    }

    #[test]
    fn contexts_split_verdict_rows() {
        let reg = registry(1);
        let t = SiteToken(0);
        // The same site allocates under f and under g; only g's
        // allocation is overflowed.
        let trace = vec![
            Event::call(0),
            Event::malloc(0, 16, 0),
            Event::access(0, 0, 8, AccessKind::Read, t),
            Event::free(0),
            Event::ret(),
            Event::call(1),
            Event::malloc(0, 16, 0),
            Event::access(0, 8, 16, AccessKind::Write, t), // [8, 24) > 16
            Event::ret(),
        ];
        let c = run_k(&reg, &trace, 1);
        let classes: Vec<RiskClass> = c.iter().filter(|o| o.site == 0).map(|o| o.class).collect();
        assert_eq!(classes.len(), 2);
        assert!(classes.contains(&RiskClass::ProvenSafe));
        assert!(classes.contains(&RiskClass::Suspicious));
        // At k = 0 the contexts merge into one suspicious row.
        let c0 = run_k(&reg, &trace, 0);
        assert_eq!(c0.len(), 1);
        assert_eq!(c0[0].class, RiskClass::Suspicious);
    }

    #[test]
    fn suspicious_outranks_unknown() {
        assert!(rank(RiskClass::Suspicious) > rank(RiskClass::Unknown));
        assert!(rank(RiskClass::Unknown) > rank(RiskClass::ProvenSafe));
    }
}
