//! Tracked fast-path benchmark: ns/alloc and ns/free through the full
//! runtime, ns per free+malloc pair at a steady live-object window (the
//! Figure-7 shape, where the live table churns at constant load), plus a
//! 16-thread contended run against the shared sampling unit, comparing
//! the per-thread decision cache (the default, `refresh = 64`) against
//! the pre-cache behaviour (`refresh = 1`, every decision goes to the
//! striped context table).
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
use csod_core::{ContextJudgment, Csod, CsodConfig, DecisionCache, SamplingUnit};
use csod_ctx::FrameTable;
use csod_rng::Arc4Random;
use sim_heap::{HeapConfig, SimHeap};
use sim_machine::{Machine, ThreadId, VirtInstant};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// OS threads in the contended scenario.
const THREADS: usize = 16;
/// Sampling decisions per thread in the contended scenario.
const CONTENDED_OPS: usize = 200_000;
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

/// ns per sampling decision with 16 threads hammering one shared
/// `SamplingUnit`, each through its own per-thread decision cache.
fn contended_ns(refresh: u32) -> f64 {
    let frames = FrameTable::new();
    let unit = SamplingUnit::new(CsodConfig::default().sampling);
    let sites = hot_contexts(&frames);
    // Untimed warm-up drives every context past first sight and into a
    // steady probability so the timed section measures the fast path.
    {
        let mut rng = Arc4Random::from_seed(7, u64::MAX);
        let mut cache = DecisionCache::new(refresh);
        for _ in 0..200 {
            for (key, ctx) in &sites {
                cache.on_allocation(&unit, *key, VirtInstant::BOOT, &mut rng, ctx, |_| {
                    ContextJudgment::clear()
                });
            }
        }
    }
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let unit = &unit;
            let sites = &sites;
            scope.spawn(move || {
                let mut rng = Arc4Random::from_seed(7, t as u64);
                let mut cache = DecisionCache::new(refresh);
                for i in 0..CONTENDED_OPS {
                    let (key, ctx) = &sites[(i + t) % HOT_CONTEXTS];
                    let d =
                        cache.on_allocation(unit, *key, VirtInstant::BOOT, &mut rng, ctx, |_| {
                            ContextJudgment::clear()
                        });
                    std::hint::black_box(d.wants_watch);
                }
                cache.flush(unit);
            });
        }
    });
    start.elapsed().as_nanos() as f64 / (THREADS * CONTENDED_OPS) as f64
}

fn measure() -> Metrics {
    let cached = CsodConfig::default().fast_path.decision_cache_refresh;
    eprintln!("fastpath bench: runtime malloc/free, cached (refresh={cached})...");
    let (ca, cf) = runtime_pair(cached);
    eprintln!("fastpath bench: runtime malloc/free, uncached (refresh=1)...");
    let (ua, uf) = runtime_pair(1);
    eprintln!("fastpath bench: runtime free+malloc churn, {LIVE_WINDOW} live...");
    let churn = churn_ns_per_pair();
    eprintln!("fastpath bench: contended {THREADS}-thread sampling, cached...");
    let cc = contended_ns(cached);
    eprintln!("fastpath bench: contended {THREADS}-thread sampling, uncached...");
    let uc = contended_ns(1);
    Metrics(vec![
        ("threads_contended", THREADS as f64),
        ("cached_refresh", f64::from(cached)),
        ("uncontended_cached_ns_per_alloc", ca),
        ("uncontended_cached_ns_per_free", cf),
        ("uncontended_uncached_ns_per_alloc", ua),
        ("uncontended_uncached_ns_per_free", uf),
        ("churn_ns_per_pair", churn),
        ("contended_cached_ns_per_alloc", cc),
        ("contended_uncached_ns_per_alloc", uc),
        ("contended_speedup", uc / cc),
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
                "contended_cached_ns_per_alloc",
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
