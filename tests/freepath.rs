//! Free-path overhaul invariants: detection parity between the deferred
//! batched teardown / fd-indexed dispatch fast path and the
//! paper-faithful synchronous teardown / linear scan, plus the parallel
//! scenario driver reproducing serial runs exactly.

use csod::core::{CsodConfig, FastPathParams};
use csod::workloads::{run_parallel, BuggyApp, ToolSpec, TraceRunner};

fn config(fast_path: FastPathParams, seed: u64) -> CsodConfig {
    CsodConfig {
        fast_path,
        seed,
        ..CsodConfig::default()
    }
}

#[test]
fn deferred_teardown_matches_synchronous_reports_on_every_app() {
    // The acceptance bar: across the whole effectiveness corpus and a
    // handful of seeds, the fast path and the paper-faithful path emit
    // *identical* reports — no lost traps, no false reports from
    // recycled addresses, same fd resolution.
    for app in BuggyApp::all() {
        let registry = app.registry();
        let trace = app.trace(42);
        for seed in 0..5 {
            let fast = TraceRunner::new(
                &registry,
                ToolSpec::Csod(config(FastPathParams::default(), seed)),
            )
            .run(trace.iter().copied());
            let faithful = TraceRunner::new(
                &registry,
                ToolSpec::Csod(config(FastPathParams::synchronous_teardown(), seed)),
            )
            .run(trace.iter().copied());
            assert_eq!(
                fast.reports, faithful.reports,
                "{} seed {seed}: reports diverged",
                app.name
            );
            assert_eq!(fast.detected, faithful.detected, "{} seed {seed}", app.name);
            assert_eq!(
                fast.watchpoint_detected, faithful.watchpoint_detected,
                "{} seed {seed}",
                app.name
            );
            assert_eq!(fast.traps, faithful.traps, "{} seed {seed}", app.name);
            assert_eq!(
                fast.watched_times, faithful.watched_times,
                "{} seed {seed}",
                app.name
            );
        }
    }
}

#[test]
fn fast_path_never_issues_more_syscalls_than_the_faithful_path() {
    // Batching exists to save kernel entries; on a free-heavy workload
    // the deferred path must come in strictly under the per-fd route.
    let app = BuggyApp::by_name("memcached").unwrap();
    let registry = app.registry();
    let trace = app.trace(7);
    let fast = TraceRunner::new(
        &registry,
        ToolSpec::Csod(config(FastPathParams::default(), 1)),
    )
    .run(trace.iter().copied());
    let faithful = TraceRunner::new(
        &registry,
        ToolSpec::Csod(config(FastPathParams::synchronous_teardown(), 1)),
    )
    .run(trace.iter().copied());
    assert!(
        fast.syscalls < faithful.syscalls,
        "batched teardown should save syscalls: {} vs {}",
        fast.syscalls,
        faithful.syscalls
    );
    assert!(fast.teardowns_batched > 0);
    assert_eq!(faithful.teardowns_batched, 0);
}

#[test]
fn parallel_trace_driver_reproduces_serial_outcomes() {
    let app = BuggyApp::by_name("gzip").unwrap();
    let registry = app.registry();
    let traces: Vec<Vec<_>> = (0..8).map(|seed| app.trace(seed)).collect();
    let tool = ToolSpec::Csod(CsodConfig::default());
    let parallel = run_parallel(&traces, 4, |trace| {
        TraceRunner::new(&registry, tool.clone()).run(trace.iter().cloned())
    });
    for (trace, par) in traces.iter().zip(&parallel) {
        let serial = TraceRunner::new(&registry, tool.clone()).run(trace.iter().cloned());
        assert_eq!(serial.reports, par.reports);
        assert_eq!(serial.detected, par.detected);
        assert_eq!(serial.syscalls, par.syscalls);
        assert_eq!(serial.total_ns, par.total_ns);
    }
}
