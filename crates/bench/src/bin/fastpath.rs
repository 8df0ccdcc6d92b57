//! Tracked fast-path benchmark: ns/alloc and ns/free through the full
//! runtime, comparing the per-thread decision cache (the default,
//! `refresh = 64`) against the pre-cache behaviour (`refresh = 1`, every
//! decision goes to the sampling unit), and ns per free+malloc pair at a
//! steady live-object window (the Figure-7 shape, where the live table
//! churns at constant load).
//!
//! ```bash
//! cargo run --release -p csod-bench --bin fastpath            # writes BENCH_fastpath.json
//! cargo run --release -p csod-bench --bin fastpath -- --check BENCH_fastpath.json
//! ```
//!
//! The default mode writes `BENCH_fastpath.json` (flat keys, one number
//! each) to the current directory; `--check <baseline>` re-runs the
//! measurements and exits non-zero when any tracked cached-mode metric
//! regressed to more than twice the committed baseline — the CI
//! perf-smoke gate.

use csod_bench::{
    alloc_free_rounds, hot_contexts, BenchArgs, Metrics, HOT_CONTEXTS, REGRESSION_FACTOR, ROUNDS,
    ROUND_ALLOCS,
};
use csod_core::{Csod, CsodConfig};
use csod_ctx::FrameTable;
use sim_heap::{HeapConfig, SimHeap};
use sim_machine::{Machine, ThreadId};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Live objects held by the churn scenario.
const LIVE_WINDOW: usize = 192;

/// ns/alloc and ns/free through the full `Csod` runtime (malloc
/// interposition, canary layout, sampling, watch installs).
fn runtime_pair(refresh: u32) -> (f64, f64) {
    let mut machine = Machine::new();
    let mut heap = SimHeap::new(&mut machine, HeapConfig::default()).expect("fresh heap");
    let mut config = CsodConfig::default();
    config.fast_path.decision_cache_refresh = refresh;
    let mut csod = Csod::new(config, Arc::new(FrameTable::new()));
    alloc_free_rounds(&mut csod, &mut machine, &mut heap, |_, _| {})
}

/// ns per free+malloc pair through the full `Csod` runtime (default
/// config) with [`LIVE_WINDOW`] objects live: each step frees the oldest
/// object and allocates one from the next hot context, so the live-object
/// table stays at steady load the way a long-running program's does.
/// One untimed warm-up round, then the fastest of [`ROUNDS`] timed rounds
/// of [`ROUND_ALLOCS`] steps.
fn churn_ns_per_pair() -> f64 {
    let mut machine = Machine::new();
    let mut heap = SimHeap::new(&mut machine, HeapConfig::default()).expect("fresh heap");
    let mut csod = Csod::new(CsodConfig::default(), Arc::new(FrameTable::new()));
    let sites = hot_contexts(csod.frames());
    let mut live = VecDeque::with_capacity(LIVE_WINDOW);
    let mut next = 0usize;
    let mut malloc_next = |csod: &mut Csod, machine: &mut Machine, heap: &mut SimHeap| {
        let (key, ctx) = &sites[next % HOT_CONTEXTS];
        next += 1;
        csod.malloc(machine, heap, ThreadId::MAIN, 16, *key, ctx)
            .expect("heap has room")
    };
    for _ in 0..LIVE_WINDOW {
        live.push_back(malloc_next(&mut csod, &mut machine, &mut heap));
    }
    let mut best = f64::INFINITY;
    for round in 0..=ROUNDS {
        let start = Instant::now();
        for _ in 0..ROUND_ALLOCS {
            let oldest = live.pop_front().expect("window is full");
            csod.free(&mut machine, &mut heap, ThreadId::MAIN, oldest)
                .expect("was allocated");
            live.push_back(malloc_next(&mut csod, &mut machine, &mut heap));
        }
        let ns = start.elapsed().as_nanos() as f64 / ROUND_ALLOCS as f64;
        if round > 0 {
            best = best.min(ns);
        }
    }
    best
}

fn measure() -> Metrics {
    let cached = CsodConfig::default().fast_path.decision_cache_refresh;
    eprintln!("fastpath bench: runtime malloc/free, cached (refresh={cached})...");
    let (ca, cf) = runtime_pair(cached);
    eprintln!("fastpath bench: runtime malloc/free, uncached (refresh=1)...");
    let (ua, uf) = runtime_pair(1);
    eprintln!("fastpath bench: runtime free+malloc churn, {LIVE_WINDOW} live...");
    let churn = churn_ns_per_pair();
    Metrics(vec![
        ("cached_refresh", f64::from(cached)),
        ("uncontended_cached_ns_per_alloc", ca),
        ("uncontended_cached_ns_per_free", cf),
        ("uncontended_uncached_ns_per_alloc", ua),
        ("uncontended_uncached_ns_per_free", uf),
        ("churn_ns_per_pair", churn),
    ])
}

fn main() {
    let args = BenchArgs::from_env("BENCH_fastpath.json");
    let results = measure();
    results.print("allocation fast path", 36, 10);
    let mut failed = false;
    if let Some(baseline) = args.baseline() {
        failed = baseline.check(
            &results,
            &[
                "uncontended_cached_ns_per_alloc",
                "uncontended_cached_ns_per_free",
                "churn_ns_per_pair",
            ],
        );
        if !failed {
            println!("perf smoke passed");
        }
    }
    args.finish(
        &results,
        failed,
        &format!("perf smoke FAILED: cached fast path slower than {REGRESSION_FACTOR}x baseline"),
    );
}
