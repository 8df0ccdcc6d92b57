//! Static-analysis precision bench: what context sensitivity buys.
//!
//! Runs the whole analyzer over the repo's workload corpora — the buggy
//! apps, the call-sensitive server scenarios and a band of fuzz
//! workloads — once context-blind (`k = 0`) and once at the default
//! call-string limit, and reports the precision and cost delta:
//!
//! * verdict rows and the % classified *unknown* before/after (the
//!   headline: k = 2 must strictly reduce unknowns);
//! * call strings interned at the default k;
//! * wall-clock time of the full corpus sweep at each k.
//!
//! ```bash
//! cargo run --release -p csod-bench --bin bench_analyze            # writes BENCH_analyze.json
//! cargo run --release -p csod-bench --bin bench_analyze -- --check BENCH_analyze.json
//! ```
//!
//! `--check <baseline>` re-runs the sweep and exits non-zero when the
//! precision gate fails (no unknown reduction) or the sweep slowed to
//! more than twice the committed baseline.

use csod_analyze::{analyze_detailed, DEFAULT_K};
use csod_bench::{BenchArgs, Metrics};
use csod_core::RiskClass;
use std::time::Instant;
use workloads::{BuggyApp, CallSensitiveApp, Event, FuzzWorkload, SiteRegistry};

/// Fuzz seeds swept (each analyzed with and without an injected bug).
const FUZZ_SEEDS: u64 = 32;
/// Timed sweeps per k; the fastest is reported.
const ROUNDS: usize = 3;

/// One corpus entry: a registry and a trace to analyze.
struct Workload {
    registry: SiteRegistry,
    trace: Vec<Event>,
}

fn corpus() -> Vec<Workload> {
    let mut all = Vec::new();
    for app in BuggyApp::all() {
        all.push(Workload {
            registry: app.registry(),
            trace: app.trace(1),
        });
    }
    for app in CallSensitiveApp::all() {
        for seed in 1..=3 {
            all.push(Workload {
                registry: app.registry(),
                trace: app.trace(seed),
            });
        }
    }
    for seed in 0..FUZZ_SEEDS {
        for inject in [false, true] {
            let w = FuzzWorkload::generate(seed, inject);
            all.push(Workload {
                registry: w.registry,
                trace: w.trace,
            });
        }
    }
    all
}

/// Aggregate of one full-corpus sweep at a fixed k.
#[derive(Default)]
struct Sweep {
    rows: u64,
    unknown: u64,
    suspicious: u64,
    contexts: u64,
    best_ms: f64,
}

fn sweep(corpus: &[Workload], k: usize) -> Sweep {
    let mut out = Sweep {
        best_ms: f64::INFINITY,
        ..Sweep::default()
    };
    for round in 0..ROUNDS {
        let mut fresh = Sweep::default();
        let start = Instant::now();
        for w in corpus {
            let analysis = analyze_detailed(&w.registry, &w.trace, k);
            for v in &analysis.report.verdicts {
                fresh.rows += 1;
                match v.class {
                    RiskClass::Unknown => fresh.unknown += 1,
                    RiskClass::Suspicious => fresh.suspicious += 1,
                    RiskClass::ProvenSafe => {}
                }
            }
            fresh.contexts += analysis.contexts as u64;
        }
        fresh.best_ms = start.elapsed().as_secs_f64() * 1e3;
        if round == 0 {
            let ms = out.best_ms;
            out = fresh;
            out.best_ms = out.best_ms.min(ms);
        } else {
            assert_eq!(out.rows, fresh.rows, "analysis must be deterministic");
            out.best_ms = out.best_ms.min(fresh.best_ms);
        }
    }
    out
}

fn measure() -> Metrics {
    let corpus = corpus();
    eprintln!(
        "analyze bench: {} workloads, context-blind sweep (k = 0)...",
        corpus.len()
    );
    let k0 = sweep(&corpus, 0);
    eprintln!("analyze bench: context-sensitive sweep (k = {DEFAULT_K})...");
    let kd = sweep(&corpus, DEFAULT_K);
    let pct = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 * 100.0 / whole as f64
        }
    };
    Metrics(vec![
        ("corpus_analyses", corpus.len() as f64),
        ("k_default", DEFAULT_K as f64),
        ("verdict_rows_k0", k0.rows as f64),
        ("unknown_rows_k0", k0.unknown as f64),
        ("unknown_pct_k0", pct(k0.unknown, k0.rows)),
        ("suspicious_rows_k0", k0.suspicious as f64),
        ("verdict_rows_k2", kd.rows as f64),
        ("unknown_rows_k2", kd.unknown as f64),
        ("unknown_pct_k2", pct(kd.unknown, kd.rows)),
        ("suspicious_rows_k2", kd.suspicious as f64),
        ("contexts_k2", kd.contexts as f64),
        ("analyze_ms_k0", k0.best_ms),
        ("analyze_ms_k2", kd.best_ms),
    ])
}

fn main() {
    let args = BenchArgs::from_env("BENCH_analyze.json");
    let results = measure();
    results.print(
        &format!("static analysis precision (k = 0 vs k = {DEFAULT_K})"),
        28,
        10,
    );

    let mut failed = false;
    // Deterministic gate, baseline or not: the default k must strictly
    // reduce unknowns.
    if results.get("unknown_rows_k2") >= results.get("unknown_rows_k0") {
        eprintln!("FAIL: k = {DEFAULT_K} did not strictly reduce unknown rows");
        failed = true;
    }

    if let Some(baseline) = args.baseline() {
        failed |= baseline.check(&results, &["analyze_ms_k2"]);
        let base_unknown = baseline.try_get("unknown_pct_k2").unwrap_or(100.0);
        let fresh_unknown = results.get("unknown_pct_k2");
        println!("check unknown_pct_k2: {fresh_unknown:.2} vs baseline {base_unknown:.2}");
        if !failed {
            println!("analyze precision gates passed");
        }
    }
    args.finish(
        &results,
        failed,
        "analyze bench FAILED: a precision or perf gate tripped",
    );
}
