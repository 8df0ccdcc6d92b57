//! Backend ceiling benchmark: the full `Csod` runtime driven over the
//! [`NullBackend`] — every arm/disarm accepted instantly, no traps, the
//! clock frozen, tool costs zero — versus the same loop on the
//! simulator. The null numbers are the detector's *own* ceiling: pure
//! sampling/decision/canary/bookkeeping cost with the substrate priced
//! at zero, so any future regression here is a regression in CSOD's
//! decision path itself, not in a backend.
//!
//! ```bash
//! cargo run --release -p csod-bench --bin backend            # writes BENCH_backend.json
//! cargo run --release -p csod-bench --bin backend -- --check BENCH_backend.json
//! ```
//!
//! `--check <baseline>` re-runs the measurements and exits non-zero when
//! a tracked null-backend metric regressed to more than twice the
//! committed baseline — the CI backend gate.

use csod_bench::{BenchArgs, Metrics, REGRESSION_FACTOR};
use csod_core::{Backend, Csod, CsodConfig, HeapBackend, NullBackend, NullHeap};
use csod_ctx::{CallingContext, ContextKey, FrameTable};
use sim_heap::{HeapConfig, SimHeap};
use sim_machine::{Machine, ThreadId};
use std::sync::Arc;
use std::time::Instant;

/// Contexts cycled through: enough to exercise the sampling table, few
/// enough that each stays hot.
const CONTEXTS: usize = 64;
/// Live objects per timed round.
const ROUND_ALLOCS: usize = 8_192;
/// Timed rounds (the fastest is reported, Criterion-style).
const ROUNDS: usize = 12;

fn contexts(frames: &FrameTable) -> Vec<(ContextKey, CallingContext)> {
    (0..CONTEXTS)
        .map(|i| {
            let ctx = CallingContext::from_locations(
                frames,
                [format!("hot_{i}.c:1").as_str(), "driver.c:7", "main.c:1"],
            );
            (ContextKey::new(ctx.first_level().expect("non-empty"), 0x40), ctx)
        })
        .collect()
}

/// ns/alloc and ns/free of the full runtime over any backend/heap pair.
/// Identical driving code for both substrates — that is the point: the
/// difference between the two results *is* the substrate.
fn runtime_pair<B: Backend>(
    backend: &mut B,
    heap: &mut impl HeapBackend<B>,
) -> (f64, f64) {
    let frames = Arc::new(FrameTable::new());
    let mut csod = Csod::new(CsodConfig::default(), Arc::clone(&frames));
    let sites = contexts(&frames);

    let mut best_alloc = f64::INFINITY;
    let mut best_free = f64::INFINITY;
    let mut ptrs = Vec::with_capacity(ROUND_ALLOCS);
    // One untimed warm-up round settles first-sight interning and the
    // initial flurry of watch installs.
    for round in 0..=ROUNDS {
        let start = Instant::now();
        for i in 0..ROUND_ALLOCS {
            let (key, ctx) = &sites[i % CONTEXTS];
            let p = csod
                .malloc(backend, heap, ThreadId::MAIN, 16, *key, ctx)
                .expect("heap has room");
            ptrs.push(p);
        }
        let alloc_ns = start.elapsed().as_nanos() as f64 / ROUND_ALLOCS as f64;
        let start = Instant::now();
        for p in ptrs.drain(..) {
            csod.free(backend, heap, ThreadId::MAIN, p)
                .expect("was allocated");
        }
        let free_ns = start.elapsed().as_nanos() as f64 / ROUND_ALLOCS as f64;
        csod.poll(backend);
        if round > 0 {
            best_alloc = best_alloc.min(alloc_ns);
            best_free = best_free.min(free_ns);
        }
    }
    csod.finish(backend);
    (best_alloc, best_free)
}

fn measure() -> Metrics {
    eprintln!("backend bench: runtime over the null backend (ceiling)...");
    let mut null = NullBackend::new();
    let mut null_heap = NullHeap::new();
    let (na, nf) = runtime_pair(&mut null, &mut null_heap);

    eprintln!("backend bench: runtime over the simulator...");
    let mut machine = Machine::new();
    let mut sim_heap = SimHeap::new(&mut machine, HeapConfig::default()).expect("fresh heap");
    let (sa, sf) = runtime_pair(&mut machine, &mut sim_heap);

    Metrics(vec![
        ("round_allocs", ROUND_ALLOCS as f64),
        ("null_ns_per_alloc", na),
        ("null_ns_per_free", nf),
        ("sim_ns_per_alloc", sa),
        ("sim_ns_per_free", sf),
        // How much the simulated substrate costs on top of the pure
        // decision path — the headroom a real backend has to play
        // with before it, not CSOD, dominates.
        ("sim_over_null_alloc", sa / na),
        ("sim_over_null_free", sf / nf),
    ])
}

fn main() {
    let args = BenchArgs::from_env("BENCH_backend.json");
    let results = measure();
    results.print("backend ceiling", 24, 10);
    let mut failed = false;
    if let Some(baseline) = args.baseline() {
        failed = baseline.check(&results, &["null_ns_per_alloc", "null_ns_per_free"]);
        if !failed {
            println!("backend ceiling smoke passed");
        }
    }
    args.finish(
        &results,
        failed,
        &format!(
            "backend smoke FAILED: null-backend ceiling slower than {REGRESSION_FACTOR}x baseline"
        ),
    );
}
