//! Tracked free-path benchmark: the deallocation and watchpoint-lifecycle
//! hot paths overhauled in the free-path PR.
//!
//! Four scenarios:
//!
//! 1. **Unwatched free** through the full runtime with all four debug
//!    registers pinned elsewhere — every free hits the compact
//!    watched-address filter and skips the WMU and the retry queue
//!    entirely. This is the common case (sampling watches a handful of
//!    objects out of millions).
//! 2. **Watched free**, deferred vs. synchronous: the manager-level
//!    install/remove churn where the deferred path only unlinks and
//!    queues the Figure-4 teardown for the next batched drain, while the
//!    paper-faithful path pays `ioctl(Disable)` + `close` per descriptor
//!    on the spot. Also reports the average teardown batch size.
//! 3. **Trap dispatch**: resolving a firing descriptor through the fd
//!    index vs. the paper's Section III-D1 one-by-one comparison, with
//!    16 threads alive (64 live descriptors).
//! 4. **Parallel scenario driver**: a batch of durability scenarios
//!    (each runtime compacts + fsyncs its own WAL at exit) fanned across
//!    OS threads vs. run serially. The per-trace cost is dominated by
//!    blocked disk I/O, so the fan-out wins even on a single-core host.
//!
//! ```bash
//! cargo run --release -p csod-bench --bin freepath            # writes BENCH_freepath.json
//! cargo run --release -p csod-bench --bin freepath -- --check BENCH_freepath.json
//! ```
//!
//! `--check <baseline>` re-runs the measurements and exits non-zero when
//! any tracked ns metric regressed to more than twice the committed
//! baseline — the CI perf-smoke gate.

use csod_bench::{
    alloc_free_rounds, best_of, BenchArgs, Metrics, REGRESSION_FACTOR, ROUNDS, ROUND_ALLOCS,
};
use csod_core::{Csod, CsodConfig, CtxId, ReplacementPolicy, WatchCandidate, WatchpointManager};
use csod_ctx::{CallingContext, ContextKey, FrameTable};
use csod_fleet::par::run_parallel_batches;
use csod_rng::Arc4Random;
use sim_heap::{HeapConfig, SimHeap};
use sim_machine::AccessKind;
use sim_machine::{Machine, ThreadId, VirtAddr, VirtDuration};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{Event, SiteRegistry, ToolSpec, TraceRunner};

/// Install/remove cycles per timed round of the watched churn.
const CHURN_CYCLES: usize = 512;
/// Threads alive during the trap-dispatch scenario.
const DISPATCH_THREADS: usize = 16;
/// Descriptor lookups per dispatch measurement.
const DISPATCH_LOOKUPS: usize = 200_000;
/// Traces fanned out by the parallel-driver scenario.
const PARALLEL_TRACES: usize = 16;
/// Worker threads for the parallel-driver scenario. The per-trace cost
/// is dominated by blocked WAL I/O (exit compaction's `fsync`), not
/// CPU, so the pool is fixed rather than capped to the core count —
/// overlapping the waits is the whole point, and it works on one core.
const PARALLEL_THREADS: usize = 4;
/// Overflowed-and-confirmed objects per durability trace; each one adds
/// a record the exit compaction must durably write.
const PARALLEL_OBJECTS: usize = 32;

/// ns per *unwatched* free through the full runtime: the four slots are
/// pinned by never-freed allocations under the naive policy, so every
/// timed free misses the watched-address filter and takes the fast path.
fn unwatched_free_ns() -> f64 {
    let frames = Arc::new(FrameTable::new());
    let mut machine = Machine::new();
    let mut heap = SimHeap::new(&mut machine, HeapConfig::default()).expect("fresh heap");
    let mut csod = Csod::new(
        CsodConfig::with_policy(ReplacementPolicy::Naive),
        Arc::clone(&frames),
    );
    // Pin all four debug registers; naive never preempts, so everything
    // allocated afterwards is guaranteed unwatched.
    for i in 0..4 {
        let ctx =
            CallingContext::from_locations(&frames, [format!("pin_{i}.c:1").as_str(), "main.c:1"]);
        let key = ContextKey::new(ctx.first_level().expect("non-empty"), 0x40);
        csod.malloc(&mut machine, &mut heap, ThreadId::MAIN, 16, key, &ctx)
            .expect("heap has room");
    }
    let (_, free_ns) = alloc_free_rounds(&mut csod, &mut machine, &mut heap, |_, _| {});
    assert!(
        csod.stats().frees_fast_filtered >= (ROUNDS * ROUND_ALLOCS) as u64,
        "the timed frees were supposed to take the filtered fast path"
    );
    free_ns
}

fn churn_candidate(frames: &FrameTable, base: VirtAddr, n: u64) -> WatchCandidate {
    WatchCandidate {
        object_start: base + n * 64,
        canary_addr: base + n * 64 + 56,
        // The conversion is exact: the churn uses four slots.
        key: ContextKey::new(frames.intern(&format!("churn{n}")), 0),
        ctx_id: CtxId::from_index(u32::try_from(n).expect("few slots")),
        probability_ppm: 500,
    }
}

/// ns per *watched* free at the manager level: fill the four slots, then
/// remove all four by object address. Deferred mode only unlinks (the
/// drain happens inside the next round's installs, off the free path);
/// synchronous mode pays the per-descriptor Figure-4 sequence inline.
/// Returns `(ns_per_remove, average_teardown_batch)`.
fn watched_churn(deferred: bool) -> (f64, f64) {
    let frames = FrameTable::new();
    let mut machine = Machine::new();
    let base = VirtAddr::new(0x10_0000);
    machine.map_region(base, 1 << 16, "heap").expect("mapped");
    let mut rng = Arc4Random::from_seed(9, 0);
    let mut w = WatchpointManager::new(ReplacementPolicy::Naive, VirtDuration::from_secs(10));
    w.configure_fast_path(deferred, true);
    let candidates: Vec<WatchCandidate> =
        (0..4).map(|n| churn_candidate(&frames, base, n)).collect();

    let mut best = f64::INFINITY;
    for round in 0..=ROUNDS {
        let mut removing = Duration::ZERO;
        for _ in 0..CHURN_CYCLES {
            // Install phase (untimed): the first consider also drains the
            // previous cycle's deferred batch, exactly like the runtime
            // drains at poll()/install points.
            for c in &candidates {
                w.consider(&mut machine, *c, &mut rng, |_| None);
            }
            let start = Instant::now();
            for c in &candidates {
                std::hint::black_box(w.remove_by_object(&mut machine, c.object_start));
            }
            removing += start.elapsed();
        }
        let ns = removing.as_nanos() as f64 / (CHURN_CYCLES * 4) as f64;
        if round > 0 {
            best = best.min(ns);
        }
    }
    let stats = w.stats();
    let batch_avg = if stats.teardown_batches == 0 {
        0.0
    } else {
        stats.teardowns_batched as f64 / stats.teardown_batches as f64
    };
    (best, batch_avg)
}

/// ns per descriptor resolution with 16 threads alive (4 slots × 16
/// threads = 64 live descriptors): the fd index vs. the paper's linear
/// scan over every slot's per-thread descriptor list.
fn dispatch_pair() -> (f64, f64) {
    let frames = FrameTable::new();
    let mut machine = Machine::new();
    let base = VirtAddr::new(0x10_0000);
    machine.map_region(base, 1 << 16, "heap").expect("mapped");
    for _ in 1..DISPATCH_THREADS {
        machine.spawn_thread();
    }
    let mut rng = Arc4Random::from_seed(3, 0);
    let mut w = WatchpointManager::new(ReplacementPolicy::Naive, VirtDuration::from_secs(10));
    w.configure_fast_path(true, true);
    for n in 0..4 {
        w.consider(
            &mut machine,
            churn_candidate(&frames, base, n),
            &mut rng,
            |_| None,
        );
    }
    let fds: Vec<_> = w
        .watched()
        .flat_map(|o| o.descriptors().map(|(_, fd)| fd))
        .collect();
    assert_eq!(fds.len(), 4 * DISPATCH_THREADS, "4 slots on every thread");

    let mut best_index = f64::INFINITY;
    let mut best_scan = f64::INFINITY;
    for round in 0..=ROUNDS {
        let start = Instant::now();
        for i in 0..DISPATCH_LOOKUPS {
            let hit = w.find_by_fd(fds[i % fds.len()]);
            std::hint::black_box(hit.map(|o| o.object_start));
        }
        let index_ns = start.elapsed().as_nanos() as f64 / DISPATCH_LOOKUPS as f64;
        let start = Instant::now();
        for i in 0..DISPATCH_LOOKUPS {
            let hit = w.find_by_fd_scan(fds[i % fds.len()]);
            std::hint::black_box(hit.map(|o| o.object_start));
        }
        let scan_ns = start.elapsed().as_nanos() as f64 / DISPATCH_LOOKUPS as f64;
        if round > 0 {
            best_index = best_index.min(index_ns);
            best_scan = best_scan.min(scan_ns);
        }
    }
    (best_index, best_scan)
}

/// Wall-clock milliseconds for a batch of durability scenarios, serial
/// vs. fanned across the parallel scenario driver. Returns
/// `(serial_ms, parallel_ms)`; the outcomes are asserted identical — the
/// driver must never trade determinism for speed.
///
/// Each trace runs a runtime with its own durable WAL: every object is
/// overflowed and freed, so every free confirms a corrupt canary, and
/// the exit path compacts the confirmed contexts to disk with an
/// `fsync`. That blocked I/O is what the fan-out overlaps — the honest
/// speedup source on a single-core host, where CPU-bound traces can
/// only measure scheduler overhead.
fn parallel_driver_pair() -> (f64, f64) {
    let dir = std::env::temp_dir().join(format!("csod_freepath_wal_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp WAL dir");
    let mut registry = SiteRegistry::new("walapp", Arc::new(FrameTable::new()));
    registry.add_alloc_sites(PARALLEL_OBJECTS);
    let bug = registry.add_access_site("walapp", "bug.c:1");
    let mut trace: Vec<Event> = Vec::new();
    for obj in 0..PARALLEL_OBJECTS {
        trace.push(Event::malloc(obj, 64, obj));
        trace.push(Event::access(obj, 0, 8, AccessKind::Write, bug));
        trace.push(Event::overflow(obj, AccessKind::Write, bug));
        trace.push(Event::free(obj));
    }
    trace.push(Event::compute(1_000));
    // One spec per trace: distinct WAL files keep the runs independent
    // and bit-deterministic (the job wipes its WAL before running, so
    // every round starts from the same recovered-nothing state).
    let specs: Vec<ToolSpec> = (0..PARALLEL_TRACES)
        .map(|i| {
            ToolSpec::Csod(CsodConfig {
                persist_path: Some(dir.join(format!("trace_{i}.wal"))),
                ..CsodConfig::default()
            })
        })
        .collect();
    let job = |spec: &ToolSpec| {
        if let ToolSpec::Csod(cfg) = spec {
            if let Some(path) = &cfg.persist_path {
                let _ = std::fs::remove_file(path);
            }
        }
        TraceRunner::new(&registry, spec.clone()).run(trace.iter().cloned())
    };

    let mut best_serial = f64::INFINITY;
    let mut best_parallel = f64::INFINITY;
    for round in 0..=3 {
        let start = Instant::now();
        let serial: Vec<_> = specs.iter().map(job).collect();
        let serial_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let parallel: Vec<_> = run_parallel_batches(&specs, PARALLEL_THREADS, 2, |_, slice| {
            slice.iter().map(job).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        let parallel_ms = start.elapsed().as_secs_f64() * 1e3;
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.reports, p.reports, "parallel driver changed an outcome");
            assert_eq!(s.detected, p.detected);
        }
        if round > 0 {
            best_serial = best_serial.min(serial_ms);
            best_parallel = best_parallel.min(parallel_ms);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    (best_serial, best_parallel)
}

/// Attempts per timed scenario (see [`best_of`]).
const ATTEMPTS: usize = 3;

fn measure() -> Metrics {
    eprintln!("freepath bench: unwatched frees through the filter...");
    let (unwatched, ()) = best_of(ATTEMPTS, || (unwatched_free_ns(), ()));
    eprintln!("freepath bench: watched churn, deferred teardown...");
    let (deferred, batch_avg) = best_of(ATTEMPTS, || watched_churn(true));
    eprintln!("freepath bench: watched churn, synchronous teardown...");
    let (synchronous, _) = best_of(ATTEMPTS, || watched_churn(false));
    eprintln!("freepath bench: trap dispatch, {DISPATCH_THREADS} threads...");
    let (index_ns, scan_ns) = best_of(ATTEMPTS, dispatch_pair);
    eprintln!("freepath bench: parallel driver, {PARALLEL_TRACES} WAL traces x {PARALLEL_THREADS} threads...");
    let (serial_ms, parallel_ms) = parallel_driver_pair();
    Metrics(vec![
        ("unwatched_ns_per_free", unwatched),
        ("watched_deferred_ns_per_free", deferred),
        ("watched_synchronous_ns_per_free", synchronous),
        ("deferred_free_speedup", synchronous / deferred),
        ("teardown_batch_avg", batch_avg),
        ("dispatch_threads", DISPATCH_THREADS as f64),
        ("trap_dispatch_fd_index_ns", index_ns),
        ("trap_dispatch_scan_ns", scan_ns),
        ("dispatch_speedup", scan_ns / index_ns),
        ("parallel_trace_threads", PARALLEL_THREADS as f64),
        ("parallel_serial_ms", serial_ms),
        ("parallel_fanned_ms", parallel_ms),
        ("parallel_trace_speedup", serial_ms / parallel_ms),
    ])
}

fn main() {
    let args = BenchArgs::from_env("BENCH_freepath.json");
    let mut best = measure();
    best.print("free path & watchpoint lifecycle", 36, 10);
    let mut failed = false;
    if let Some(baseline) = args.baseline() {
        let keys = [
            "unwatched_ns_per_free",
            "watched_deferred_ns_per_free",
            "trap_dispatch_fd_index_ns",
        ];
        best.remeasure_while(
            "freepath bench",
            |r| baseline.regressed(r, &keys),
            measure,
            |_, kept, fresh| kept.min(fresh),
        );
        failed = baseline.check(&best, &keys);
        if !failed {
            println!("perf smoke passed");
        }
    }
    args.finish(
        &best,
        failed,
        &format!("perf smoke FAILED: free path slower than {REGRESSION_FACTOR}x baseline"),
    );
}
