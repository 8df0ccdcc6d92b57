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

use csod_bench::{alloc_free_rounds, BenchArgs, Metrics, REGRESSION_FACTOR, ROUND_ALLOCS};
use csod_core::{Backend, Csod, CsodConfig, HeapBackend, NullBackend, NullHeap};
use csod_ctx::FrameTable;
use sim_heap::{HeapConfig, SimHeap};
use sim_machine::Machine;
use std::sync::Arc;

/// ns/alloc and ns/free of the full runtime over any backend/heap pair,
/// polling after every round. Identical driving code for both
/// substrates — that is the point: the difference between the two
/// results *is* the substrate.
fn runtime_pair<B: Backend>(backend: &mut B, heap: &mut impl HeapBackend<B>) -> (f64, f64) {
    let mut csod = Csod::new(CsodConfig::default(), Arc::new(FrameTable::new()));
    let pair = alloc_free_rounds(&mut csod, backend, heap, |csod, backend| csod.poll(backend));
    csod.finish(backend);
    pair
}

fn measure() -> Metrics {
    // Untimed warm-up, so the null half, timed first, does not pay the
    // process's cold start (page faults, heap growth).
    runtime_pair(&mut NullBackend::new(), &mut NullHeap::new());

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
