//! Corpus-level k-limit edge cases, per the context-sensitivity
//! contract:
//!
//! * `k = 0` reproduces the context-insensitive verdicts **bit for
//!   bit** — equivalently, the call-blind analysis of the same trace
//!   with every call/return event stripped;
//! * recursion deeper than `k` collapses onto its k-suffix without
//!   changing any verdict;
//! * spawn edges carry the spawn point's call string into the child
//!   thread;
//! * on the call-sensitive corpus, `k = 2` strictly reduces *unknown*
//!   rows versus `k = 0` (the acceptance check the bench harness
//!   also measures);
//! * every verdict row and every prior the runtime reads is pinned, per
//!   `k`, across the whole built-in corpus.

use csod_analyze::{analyze_with_k, callstring, ir, DEFAULT_K};
use csod_core::RiskClass;
use workloads::{BuggyApp, CallSensitiveApp, Event, FuzzWorkload, SiteRegistry};

/// The same trace with every call/return event removed: what the
/// context-insensitive pipeline of earlier revisions analyzed.
fn strip_calls(trace: &[Event]) -> Vec<Event> {
    trace
        .iter()
        .filter(|e| !matches!(e, Event::Call { .. } | Event::Return { .. }))
        .copied()
        .collect()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every (registry, trace) pair `check_workloads` gates: each buggy app
/// at seeds 1–5, each call-sensitive app at seeds 1–3, and fuzz seeds
/// 0–63 with and without an injected bug.
fn corpus() -> Vec<(SiteRegistry, Vec<Event>)> {
    let mut out = Vec::new();
    for app in BuggyApp::all() {
        for seed in 1..=5 {
            out.push((app.registry(), app.trace(seed)));
        }
    }
    for app in CallSensitiveApp::all() {
        for seed in 1..=3 {
            out.push((app.registry(), app.trace(seed)));
        }
    }
    for seed in 0..64 {
        for inject in [false, true] {
            let w = FuzzWorkload::generate(seed, inject);
            out.push((w.registry, w.trace));
        }
    }
    out
}

/// FNV-1a digests, per `k`, of `Debug(report.verdicts)` and of the
/// priors the sampler reads (each key's class and its
/// contexts/proven-safe/suspicious split, sorted by key), over
/// [`corpus`].
const VERDICT_PINS: [(usize, u64, u64); 3] = [
    (0, 0x55f2a8ab44728a7a, 0x02aec0b57c425a0e),
    (1, 0xa694b1cf0bb605a2, 0xf6e321f97a0d9e76),
    (2, 0x6438e5e8319fe663, 0x98200549b806bf66),
];

#[test]
fn verdicts_and_priors_are_pinned_across_the_corpus() {
    let corpus = corpus();
    assert_eq!(corpus.len(), 185);
    let mut fresh = Vec::new();
    for (k, _, _) in VERDICT_PINS {
        let mut verdicts = String::new();
        let mut priors = String::new();
        for (registry, trace) in &corpus {
            let report = analyze_with_k(registry, trace, k);
            verdicts.push_str(&format!("{:?}\n", report.verdicts));
            let table = report.to_priors(registry);
            let mut rows: Vec<_> = table
                .classes
                .iter()
                .map(|(key, class)| {
                    let d = table.detail.get(key).copied().unwrap_or_default();
                    (*key, *class, d.contexts, d.proven_safe, d.suspicious)
                })
                .collect();
            rows.sort_by_key(|row| row.0);
            priors.push_str(&format!("{rows:?}\n"));
        }
        fresh.push((k, fnv1a(verdicts.as_bytes()), fnv1a(priors.as_bytes())));
    }
    assert_eq!(fresh, VERDICT_PINS, "fresh digests: {fresh:#x?}");
}

#[test]
fn k0_reproduces_the_call_blind_verdicts_bit_for_bit() {
    for app in CallSensitiveApp::all() {
        let registry = app.registry();
        let trace = app.trace(1);
        let full = analyze_with_k(&registry, &trace, 0);
        let blind = analyze_with_k(&registry, &strip_calls(&trace), 0);
        assert_eq!(
            full.verdicts, blind.verdicts,
            "{}: k = 0 must ignore call structure",
            app.name
        );
        assert!(
            full.verdicts.iter().all(|v| v.call_string == "-"),
            "{}: k = 0 verdicts carry the empty call string",
            app.name
        );
    }
    for seed in 0..24 {
        for inject in [false, true] {
            let w = FuzzWorkload::generate(seed, inject);
            let full = analyze_with_k(&w.registry, &w.trace, 0);
            let blind = analyze_with_k(&w.registry, &strip_calls(&w.trace), 0);
            assert_eq!(
                full.verdicts, blind.verdicts,
                "fuzz seed {seed} (inject={inject}): k = 0 must ignore call structure"
            );
        }
    }
}

#[test]
fn k2_strictly_reduces_unknowns_on_the_call_corpus() {
    let mut total_k0 = 0;
    let mut total_k2 = 0;
    for app in CallSensitiveApp::all() {
        let registry = app.registry();
        let trace = app.trace(1);
        let (_, _, unknown_k0) = analyze_with_k(&registry, &trace, 0).census();
        let (_, _, unknown_k2) = analyze_with_k(&registry, &trace, DEFAULT_K).census();
        if app.evil_handler.is_none() {
            // The clean apps' merged helper summaries keep growing and
            // widen past the threshold: unknown, context-blind.
            assert!(
                unknown_k0 > 0,
                "{}: the merged helper summary must widen at k = 0",
                app.name
            );
        }
        assert_eq!(
            unknown_k2, 0,
            "{}: per-context summaries must stay exact at k = 2",
            app.name
        );
        total_k0 += unknown_k0;
        total_k2 += unknown_k2;
    }
    assert!(
        total_k2 < total_k0,
        "k = 2 must strictly reduce unknowns ({total_k2} vs {total_k0})"
    );
}

#[test]
fn contexts_confine_the_evil_handler_blame() {
    let app = CallSensitiveApp::all()
        .into_iter()
        .find(|a| a.evil_handler.is_some())
        .expect("corpus has an evil variant");
    let registry = app.registry();
    let trace = app.trace(1);
    // Context-blind, the out-of-bounds intent poisons the site's single
    // merged row: every allocation of the buffer looks suspicious.
    let k0 = analyze_with_k(&registry, &trace, 0);
    let k0_rows: Vec<_> = k0.rows_of(app.buffer_site()).collect();
    assert_eq!(k0_rows.len(), 1, "one merged row at k = 0");
    assert_eq!(k0_rows[0].class, RiskClass::Suspicious);
    assert_eq!(k0_rows[0].call_string, "-");
    // Split per call string, exactly one handler context carries the
    // blame and every other context of the same site is proven safe.
    let k2 = analyze_with_k(&registry, &trace, DEFAULT_K);
    assert_eq!(k2.class_of(app.buffer_site()), RiskClass::Suspicious);
    let rows: Vec<_> = k2.rows_of(app.buffer_site()).collect();
    let evil = format!("handler_{}>mem_helper", app.evil_handler.unwrap());
    for row in &rows {
        let expected = if row.call_string == evil {
            RiskClass::Suspicious
        } else {
            RiskClass::ProvenSafe
        };
        assert_eq!(row.class, expected, "context {}", row.call_string);
    }
    assert_eq!(rows.len(), app.handlers, "one row per handler context");
}

#[test]
fn recursion_collapses_to_the_k_suffix_on_the_corpus() {
    let apps = CallSensitiveApp::all();
    let recurse = apps
        .iter()
        .find(|a| a.recursion_depth > 0)
        .expect("corpus has a recursive variant");
    let clean = apps
        .iter()
        .find(|a| a.name == "SrvClean-3h")
        .expect("corpus has the clean 3-handler variant");
    // The recursive variant is the clean one with extra self-recursive
    // frames; at k = 2 the call strings collapse onto the same
    // (handler, helper) suffixes, so the verdict rows are identical.
    let rv = analyze_with_k(&recurse.registry(), &recurse.trace(1), DEFAULT_K);
    let cv = analyze_with_k(&clean.registry(), &clean.trace(1), DEFAULT_K);
    let rows = |r: &csod_analyze::RiskReport| -> Vec<(usize, String, RiskClass)> {
        r.verdicts
            .iter()
            .map(|v| (v.site, v.call_string.clone(), v.class))
            .collect()
    };
    assert_eq!(rows(&rv), rows(&cv), "recursion must collapse at k = 2");
    // And no choice of k resurrects the collapsed frames into a verdict
    // change: the recursive variant stays fully proven at every limit.
    for k in [1, 2, 3, 8] {
        let report = analyze_with_k(&recurse.registry(), &recurse.trace(1), k);
        assert_eq!(
            report.class_of(recurse.buffer_site()),
            RiskClass::ProvenSafe
        );
        assert_eq!(report.class_of(recurse.arena_site()), RiskClass::ProvenSafe);
    }
}

#[test]
fn spawn_edges_carry_the_spawn_point_call_string() {
    let in_loop = CallSensitiveApp::all()
        .into_iter()
        .find(|a| a.spawn_in_loop)
        .expect("corpus has a spawn-in-loop variant");
    let mut top_level = in_loop;
    top_level.spawn_in_loop = false;
    top_level.name = "SrvSpawnTop";

    let worker_ctxs = |app: &CallSensitiveApp| -> Vec<String> {
        let registry = app.registry();
        let program = ir::lower(&registry, &app.trace(1));
        let ctxs = callstring::assign(&program, DEFAULT_K);
        (0..program.threads[1].len())
            .map(|i| ctxs.table.render(ctxs.ctx_of(1, i), &registry))
            .collect()
    };
    // Spawned inside the server loop, every worker statement runs under
    // the srv_loop frame; spawned at top level, under the empty string.
    let inherited = worker_ctxs(&in_loop);
    assert!(!inherited.is_empty(), "worker thread has statements");
    assert!(inherited.iter().all(|c| c == "srv_loop"), "{inherited:?}");
    assert!(worker_ctxs(&top_level).iter().all(|c| c == "-"));

    // The spawn placement changes attribution, not soundness: both
    // variants produce the same per-site classes.
    let a = analyze_with_k(&in_loop.registry(), &in_loop.trace(1), DEFAULT_K);
    let b = analyze_with_k(&top_level.registry(), &top_level.trace(1), DEFAULT_K);
    for site in [in_loop.buffer_site(), in_loop.arena_site()] {
        assert_eq!(a.class_of(site), b.class_of(site), "site {site}");
    }
}
