//! Integration tests for the extension features: watchpoint backends
//! (ptrace / combined syscall), the Sampler baseline, and failure
//! injection around the durability WAL and allocator.

use csod::core::{Csod, CsodConfig, WatchBackend};
use csod::ctx::{CallingContext, ContextKey, FrameTable};
use csod::heap::{HeapConfig, HeapError, SimHeap};
use csod::machine::{FaultPlan, Machine, ThreadId, VirtAddr};
use csod::sampler::SamplerConfig;
use csod::workloads::{BuggyApp, ToolSpec, TraceRunner};
use csod_persist::Wal;
use std::sync::Arc;

#[test]
fn every_backend_detects_and_costs_are_ordered() {
    let app = BuggyApp::by_name("gzip").unwrap();
    let registry = app.registry();
    let trace = app.trace(42);
    let mut overheads = Vec::new();
    for backend in [
        WatchBackend::Ptrace,
        WatchBackend::PerfEvent,
        WatchBackend::CombinedSyscall,
    ] {
        let config = CsodConfig {
            backend,
            ..CsodConfig::default()
        };
        let outcome =
            TraceRunner::new(&registry, ToolSpec::Csod(config)).run(trace.iter().copied());
        assert!(
            outcome.watchpoint_detected,
            "{backend}: detection is backend-independent"
        );
        overheads.push((backend, outcome.tool_ns));
    }
    assert!(
        overheads[0].1 > overheads[1].1 && overheads[1].1 > overheads[2].1,
        "ptrace > perf_event > combined: {overheads:?}"
    );
}

#[test]
fn sampler_catches_long_overreads_but_not_short_overwrites() {
    let runs = 60u64;
    let rate = |name: &str| {
        let app = BuggyApp::by_name(name).unwrap();
        let registry = app.registry();
        let trace = app.trace(42);
        (0..runs)
            .filter(|&seed| {
                TraceRunner::new(
                    &registry,
                    ToolSpec::Sampler(SamplerConfig {
                        phase: seed * 131,
                        ..SamplerConfig::default()
                    }),
                )
                .run(trace.iter().copied())
                .detected
            })
            .count() as f64
            / runs as f64
    };
    let heartbleed = rate("heartbleed"); // 8191-word over-read
    let libhx = rate("libhx"); // 15-word over-write
    assert!(
        heartbleed > 0.9,
        "64KB over-read is nearly always sampled: {heartbleed}"
    );
    assert!(
        libhx < 0.3,
        "short overflows usually dodge access sampling: {libhx}"
    );
    assert!(heartbleed > libhx);
}

#[test]
fn sampler_never_false_positives_on_buggy_free_traffic() {
    // The buggy traces contain heavy legitimate alloc/free/access
    // traffic around the bug; sampling must only flag the real one.
    let app = BuggyApp::by_name("mysql").unwrap();
    let registry = app.registry();
    let trace = app.trace(42);
    let outcome = TraceRunner::new(
        &registry,
        ToolSpec::Sampler(SamplerConfig {
            sample_period: 50, // aggressive sampling
            ..SamplerConfig::default()
        }),
    )
    .run(trace.iter().copied());
    for report in &outcome.reports {
        assert!(
            report.contains("overflow"),
            "only the injected overflow may be reported: {report}"
        );
    }
}

#[test]
fn corrupt_evidence_file_is_tolerated() {
    let dir = std::env::temp_dir().join("csod-ext-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("garbage-{}.wal", std::process::id()));
    std::fs::write(&path, b"\x00\xFFnot|a\x07context\nrandom line\n# comment\n").unwrap();

    let frames = Arc::new(FrameTable::new());
    let mut machine = Machine::new();
    let mut heap = SimHeap::new(&mut machine, HeapConfig::default()).unwrap();
    let mut csod = Csod::new(
        CsodConfig {
            persist_path: Some(path.clone()),
            ..CsodConfig::default()
        },
        Arc::clone(&frames),
    );
    assert!(csod.stats().wal_records_skipped_corrupt >= 1);
    // Normal operation is unaffected by the garbage.
    let ctx = CallingContext::from_locations(&frames, ["ok.c:1", "main.c:1"]);
    let key = ContextKey::new(frames.intern("ok.c:1"), 0x40);
    let p = csod
        .malloc(&mut machine, &mut heap, ThreadId::MAIN, 32, key, &ctx)
        .unwrap();
    assert!(csod.is_watched(p));
    csod.finish(&mut machine);
    // finish() compacts the log into a clean snapshot.
    assert_eq!(Wal::recover(&path).skipped_corrupt, 0);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn allocator_exhaustion_is_reported_and_recoverable() {
    let frames = Arc::new(FrameTable::new());
    let mut machine = Machine::new();
    let mut heap = SimHeap::new(
        &mut machine,
        HeapConfig {
            base: VirtAddr::new(0x10_0000),
            size: 8192,
        },
    )
    .unwrap();
    let mut csod = Csod::new(CsodConfig::default(), Arc::clone(&frames));
    let ctx = CallingContext::from_locations(&frames, ["big.c:1", "main.c:1"]);
    let key = ContextKey::new(frames.intern("big.c:1"), 0x40);

    let first = csod
        .malloc(&mut machine, &mut heap, ThreadId::MAIN, 4096, key, &ctx)
        .unwrap();
    // The second big allocation cannot fit (header + canary included).
    let err = csod
        .malloc(&mut machine, &mut heap, ThreadId::MAIN, 4096, key, &ctx)
        .unwrap_err();
    assert!(matches!(
        err,
        csod::core::CsodError::Heap(HeapError::OutOfMemory { .. })
    ));
    // The tool stays consistent: the first object is still managed.
    assert!(csod.is_watched(first));
    csod.free(&mut machine, &mut heap, ThreadId::MAIN, first)
        .unwrap();
    // And the same-sized allocation now succeeds by recycling the block
    // (the freelist allocator does not split size classes).
    let again = csod
        .malloc(&mut machine, &mut heap, ThreadId::MAIN, 4096, key, &ctx)
        .unwrap();
    assert!(heap.is_live(csod::core::ObjectLayout::new(true, 4096).real_ptr(again)));
}

#[test]
fn backends_compose_with_thread_spawning() {
    for backend in [WatchBackend::Ptrace, WatchBackend::CombinedSyscall] {
        let frames = Arc::new(FrameTable::new());
        let mut machine = Machine::new();
        let mut heap = SimHeap::new(&mut machine, HeapConfig::default()).unwrap();
        let mut csod = Csod::new(
            CsodConfig {
                backend,
                ..CsodConfig::default()
            },
            Arc::clone(&frames),
        );
        let ctx = CallingContext::from_locations(&frames, ["t.c:1", "main.c:1"]);
        let key = ContextKey::new(frames.intern("t.c:1"), 0x40);
        let p = csod
            .malloc(&mut machine, &mut heap, ThreadId::MAIN, 64, key, &ctx)
            .unwrap();
        let worker = csod.spawn_thread(&mut machine);
        machine.app_write(worker, p + 64, 8).unwrap();
        csod.poll(&mut machine);
        assert!(csod.detected(), "{backend}: late threads are covered");
        csod.free(&mut machine, &mut heap, ThreadId::MAIN, p)
            .unwrap();
        csod.finish(&mut machine);
        assert_eq!(machine.open_events(), 0, "{backend}: no leaked events");
    }
}

#[test]
fn pmu_and_watchpoints_coexist() {
    // Sampler's PMU and CSOD's debug registers are independent hardware;
    // enabling both on one machine must not interfere. Nor may a fault
    // plan installed mid-run that injects nothing.
    let frames = Arc::new(FrameTable::new());
    let mut machine = Machine::new();
    let mut heap = SimHeap::new(&mut machine, HeapConfig::default()).unwrap();
    machine.pmu_enable(2);
    let mut csod = Csod::new(CsodConfig::default(), Arc::clone(&frames));
    let ctx = CallingContext::from_locations(&frames, ["c.c:1", "main.c:1"]);
    let key = ContextKey::new(frames.intern("c.c:1"), 0x40);
    let p = csod
        .malloc(&mut machine, &mut heap, ThreadId::MAIN, 32, key, &ctx)
        .unwrap();
    machine.app_write(ThreadId::MAIN, p, 8).unwrap();
    machine.install_fault_plan(FaultPlan::new(7));
    machine.app_write(ThreadId::MAIN, p + 32, 8).unwrap();
    csod.poll(&mut machine);
    assert!(csod.detected());
    assert!(!machine.take_pmu_samples().is_empty());
}
