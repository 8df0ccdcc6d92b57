//! Backend conformance and refactor-parity suite (ROADMAP item 2).
//!
//! Two halves:
//!
//! 1. **Conformance** — the [`Backend`] contract exercised generically
//!    against both implementations that exist outside `cfg(linux)`: the
//!    simulator ([`Machine`]) and the [`NullBackend`]. Arm/disarm
//!    idempotence, trap-after-disarm suppression, and thread-exit
//!    cleanup are the behaviors the Watchpoint Management Unit leans on.
//!
//! 2. **Parity** — the trait extraction must not change behavior by a
//!    single bit. The goldens below are FNV-1a digests of the full
//!    `RunOutcome` debug representation for every buggy app under the
//!    default CSOD configuration, captured on the commit *before* the
//!    `Backend` trait existed, and must still be reproduced exactly.
//!    The Figure-7 goldens pin the nineteen performance apps the same
//!    way; they exercise the allocation, canary and memory paths that
//!    the buggy apps barely touch.

use std::sync::Arc;

use csod::core::{Backend, Csod, CsodConfig, NullBackend, NullHeap, RunSummary, WatchBackend};
use csod::ctx::{CallingContext, ContextKey, FrameTable};
use csod::heap::{HeapConfig, SimHeap};
use csod::machine::{Fd, Machine, ThreadId, VirtAddr};
use workloads::{
    run_chaos_soak, run_fleet_round, run_restart_fleet, BuggyApp, ChaosConfig, FleetRoundConfig,
    PerfApp, RestartConfig, RunOutcome, ToolSpec, TraceRunner,
};

// ----- parity: the refactor changed nothing ---------------------------------------

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `RunOutcome` digests per app, captured pre-refactor (seed 0xC50D,
/// default `CsodConfig`).
const PRE_REFACTOR_GOLDENS: &[(&str, u64)] = &[
    ("Gzip-1.2.4", 0xcd30025b7937d010),
    ("Heartbleed", 0xae94421684e123fb),
    ("Libdwarf-20161021", 0x53981fe65e0f831e),
    ("LibHX-3.4", 0x30e4cf95a205a972),
    ("Libtiff-4.01", 0x54693a406df0867c),
    ("Memcached-1.4.25", 0xc742eae626f3e2b7),
    ("MySQL-5.5.19", 0xf22cdf337eee32ae),
    ("Polymorph-0.4.0", 0x20fe0dcc15012a56),
    ("Zziplib-0.13.62", 0xe591e61ed8c0c4e5),
];

/// The same runs' digests with the three trace fields (`trace_events`,
/// `trace_dropped`, `trace_counts`) cleared. They are the only fields
/// that switching tracing off (`trace.events = false`) changes, so a run
/// with tracing off must reproduce these as they stand.
const TRACE_NEUTRAL_GOLDENS: &[(&str, u64)] = &[
    ("Gzip-1.2.4", 0xe22dd314d03c39d7),
    ("Heartbleed", 0xce031b9dd0a2fdf1),
    ("Libdwarf-20161021", 0xb5aaa4931cc0b1de),
    ("LibHX-3.4", 0xc52f0ba5fff5c6ec),
    ("Libtiff-4.01", 0xee3b79eace73fedb),
    ("Memcached-1.4.25", 0xd6ec5b336050645c),
    ("MySQL-5.5.19", 0x6033d9959802778b),
    ("Polymorph-0.4.0", 0x9046d81d3c900a75),
    ("Zziplib-0.13.62", 0x5e394eed0c82ef47),
];

/// `RunOutcome` digests of the nineteen Figure-7 apps (`PerfApp::run`,
/// seed 0xC50D, default `CsodConfig`), captured before the address
/// space's region table and single-chunk paths were rewritten.
const FIG7_GOLDENS: &[(&str, u64)] = &[
    ("Blackscholes", 0x1fc917739f26e96d),
    ("Bodytrack", 0x881ab6e05635ffdc),
    ("Canneal", 0x0f1d141a8c615521),
    ("Dedup", 0x8b1e684cc463fcdb),
    ("Facesim", 0x7b976156f9954b34),
    ("Ferret", 0xd9ef9a1648dd435d),
    ("Fluidanimate", 0xfaace2babf1ad00d),
    ("Freqmine", 0xd4994422e76c05f3),
    ("Raytrace", 0x004ff610c4663e22),
    ("Streamcluster", 0xa93644ba2f474c40),
    ("Swaptions", 0x2cb0ff0c0c6aca5b),
    ("Vips", 0xae34af03cad26292),
    ("X264", 0x66f38f880cd36ce7),
    ("Aget", 0x10b9a57405454e1e),
    ("Apache", 0x4e1b3bed2cc5f63e),
    ("Memcached", 0x08a0b0ee1feb2687),
    ("Mysql", 0x61f1bc22076b589e),
    ("Pbzip2", 0x8b96f192ffa56a5c),
    ("Pfscan", 0x2d41eca84324d3bc),
];

/// The same Figure-7 runs with the three trace fields cleared, as in
/// `TRACE_NEUTRAL_GOLDENS`.
const FIG7_TRACE_NEUTRAL_GOLDENS: &[(&str, u64)] = &[
    ("Blackscholes", 0x564d2c34b21e5dd7),
    ("Bodytrack", 0xb229028fd59187e2),
    ("Canneal", 0x9824131e47ebf521),
    ("Dedup", 0xc4b1d013ba8064de),
    ("Facesim", 0x73a9f989f8cb367f),
    ("Ferret", 0x5709247e8b909866),
    ("Fluidanimate", 0xd76f7d318928aa74),
    ("Freqmine", 0x129e7a2222c225ed),
    ("Raytrace", 0xd1efa5d759d05f5a),
    ("Streamcluster", 0x652598a357603f86),
    ("Swaptions", 0xb2eb7a4ae0222d03),
    ("Vips", 0x3f07af32c57d8737),
    ("X264", 0x16f55aaa0e673ade),
    ("Aget", 0xb03985b72cafb157),
    ("Apache", 0x0783c7bf6690e656),
    ("Memcached", 0x820f5af9ea9ef09d),
    ("Mysql", 0x47cb23e5c380c5f4),
    ("Pbzip2", 0xf25a3cf582636543),
    ("Pfscan", 0x02e0c15ba834d0e1),
];

fn golden(table: &[(&str, u64)], app: &str) -> u64 {
    table
        .iter()
        .find(|(name, _)| *name == app)
        .unwrap_or_else(|| panic!("no golden for {app} — new app needs a captured digest"))
        .1
}

fn assert_digest(outcome: &RunOutcome, expected: u64, what: &str) {
    let digest = fnv1a(format!("{outcome:?}").as_bytes());
    assert_eq!(
        digest, expected,
        "{what}: RunOutcome diverged from its pinned golden \
         (got {digest:#018x}, pinned {expected:#018x})"
    );
}

/// Runs every buggy app on a fresh default runner and checks its
/// `RunOutcome` digest against the pinned goldens: the full outcome
/// against `PRE_REFACTOR_GOLDENS`, and the outcome without its trace
/// fields against `TRACE_NEUTRAL_GOLDENS`.
fn assert_parity(mode: &str, check: impl Fn(&str, &RunOutcome)) {
    for app in BuggyApp::all() {
        let registry = app.registry();
        let trace = app.trace(0xC50D);
        let outcome = TraceRunner::new(&registry, ToolSpec::Csod(CsodConfig::default())).run(trace);
        check(app.name, &outcome);
        let what = format!("{} ({mode} replay)", app.name);
        assert_goldens(
            outcome,
            golden(PRE_REFACTOR_GOLDENS, app.name),
            golden(TRACE_NEUTRAL_GOLDENS, app.name),
            &what,
        );
    }
}

/// Checks one outcome against its full golden and, with its trace
/// fields cleared, against its trace-neutral golden.
fn assert_goldens(mut outcome: RunOutcome, full: u64, trace_neutral: u64, what: &str) {
    assert_digest(&outcome, full, what);
    outcome.trace_events = 0;
    outcome.trace_dropped = 0;
    outcome.trace_counts.clear();
    assert_digest(&outcome, trace_neutral, what);
}

/// The default runner used to replay through the trace cache; with the
/// cache gone it must still reproduce the goldens and report no replay
/// activity at all.
#[test]
fn parity_with_pre_refactor_goldens_cached_replay() {
    assert_parity("cached", |app, outcome| {
        let replay = [
            outcome.replay_cache_hits,
            outcome.replay_cache_misses,
            outcome.replay_cache_invalidations,
            outcome.replay_segments_compiled,
            outcome.replay_accesses,
        ];
        assert_eq!(
            replay, [0; 5],
            "{app}: replay counters must stay 0 without a trace cache"
        );
    });
}

/// Interpretation is now the only mode, and `TraceRunner::new` runs it.
#[test]
fn parity_with_pre_refactor_goldens_interpreted_replay() {
    assert_parity("interpreted", |_, _| {});
}

/// Every Figure-7 app reproduces its pinned outcome bit for bit.
#[test]
fn parity_with_fig7_goldens() {
    for app in PerfApp::all() {
        let registry = app.registry();
        let outcome = app.run(&registry, ToolSpec::Csod(CsodConfig::default()), 0xC50D);
        assert_goldens(
            outcome,
            golden(FIG7_GOLDENS, app.name),
            golden(FIG7_TRACE_NEUTRAL_GOLDENS, app.name),
            app.name,
        );
    }
}

/// With run-time tracing off, every buggy app and every Figure-7 app
/// records no trace activity and otherwise reproduces its run exactly:
/// the untouched outcome matches its trace-neutral golden.
#[test]
fn parity_with_tracing_switched_off() {
    let mut config = CsodConfig::default();
    config.trace.events = false;
    let check = |outcome: RunOutcome, trace_neutral: u64, what: &str| {
        assert_eq!(
            (
                outcome.trace_events,
                outcome.trace_dropped,
                outcome.trace_counts.len()
            ),
            (0, 0, 0),
            "{what}: tracing off must record no trace events"
        );
        assert_digest(&outcome, trace_neutral, what);
    };
    for app in BuggyApp::all() {
        let registry = app.registry();
        let outcome =
            TraceRunner::new(&registry, ToolSpec::Csod(config.clone())).run(app.trace(0xC50D));
        check(outcome, golden(TRACE_NEUTRAL_GOLDENS, app.name), app.name);
    }
    for app in PerfApp::all() {
        let registry = app.registry();
        let outcome = app.run(&registry, ToolSpec::Csod(config.clone()), 0xC50D);
        check(
            outcome,
            golden(FIG7_TRACE_NEUTRAL_GOLDENS, app.name),
            app.name,
        );
    }
}

/// Plain-text view of a run summary: every counter, the report and
/// context counts, the syscalls and the overhead's bits.
fn summary_text(s: &RunSummary) -> String {
    let c = &s.stats;
    format!(
        "allocs={} frees={} traps={} canary={}/{} retries={} safe={}/{} suspicious={} \
         skips={} safe_overflows={} fast_frees={} stale={} mitigated={} wal={}/{} \
         drop_flushed={} watch={:?} degradation={:?} cache={:?} contexts={} reports={} \
         dups={} quarantined={} canary_only={} syscalls={} overhead={:#x}",
        c.allocations,
        c.frees,
        c.traps,
        c.canary_free_hits,
        c.canary_exit_hits,
        c.install_retries,
        c.proven_safe_allocs,
        c.proven_safe_installs,
        c.suspicious_installs,
        c.prior_availability_skips,
        c.proven_safe_overflows,
        c.frees_fast_filtered,
        c.stale_traps_suppressed,
        c.contexts_mitigated,
        c.wal_records_recovered,
        c.wal_records_skipped_corrupt,
        c.reports_flushed_on_drop,
        c.watch,
        c.degradation,
        c.cache,
        s.contexts,
        s.reports,
        s.duplicate_reports,
        s.quarantined_contexts,
        s.canary_only,
        s.syscalls,
        s.overhead.to_bits(),
    )
}

/// FNV digests of the fleet, kill/restart and chaos harnesses' outcomes.
/// Each harness drives its own churn loop over one runtime per simulated
/// process; restructuring those loops must not move a single field.
#[test]
fn parity_of_the_robustness_harnesses() {
    let dir = std::env::temp_dir().join(format!("csod-harness-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let round1_cfg = FleetRoundConfig {
        processes: 8,
        allocations: 2_000,
        threads: 2,
        ..FleetRoundConfig::default()
    };
    let round2_cfg = FleetRoundConfig {
        buggy_offset: 3,
        ..round1_cfg.clone()
    };
    let round1 = run_fleet_round(&round1_cfg, &dir, None);
    let round2 = run_fleet_round(&round2_cfg, &dir, Some(&round1.plan));
    let _ = std::fs::remove_dir_all(&dir);
    let fleet: String = [&round1, &round2]
        .iter()
        .map(|r| {
            format!(
                "buggy={} detections={} at_start={} clean={} overhead={:#x} records={} \
                 evidence={:?} ppm={}\n",
                r.buggy,
                r.detections,
                r.mitigated_at_start,
                r.clean_buggy,
                r.avg_overhead.to_bits(),
                r.ingest.records,
                r.store.evidence(),
                r.plan.initial_ppm,
            )
        })
        .collect();

    let restart_base = RestartConfig {
        seed: 0x9A21,
        allocations: 800,
        kill_ppm: 5_000,
        ..RestartConfig::default()
    };
    let restart: String = run_restart_fleet(&restart_base, 4, 2)
        .iter()
        .map(|o| {
            format!(
                "seed={:#x} killed_at={:?} torn={} first={} second={} recovered={} \
                 skipped={} salvaged={} third: {}\n",
                o.seed,
                o.killed_at,
                o.torn_tail_planted,
                o.first_detected,
                o.second_detected,
                o.second_recovered,
                o.skipped_corrupt,
                o.reports_salvaged_on_drop,
                summary_text(&o.third),
            )
        })
        .collect();

    let soak = run_chaos_soak(&ChaosConfig {
        seed: 0xC4A0,
        allocations: 20_000,
        thread_churn: 2,
        ..ChaosConfig::default()
    });
    let chaos = format!(
        "{} planted={} failed_allocs={} detected={} open={} free_regs={} faults={:?}",
        summary_text(&soak.summary),
        soak.planted,
        soak.failed_allocs,
        soak.detected,
        soak.open_events,
        soak.free_registers,
        soak.faults,
    );

    let digests = [
        fnv1a(fleet.as_bytes()),
        fnv1a(restart.as_bytes()),
        fnv1a(chaos.as_bytes()),
    ];
    assert_eq!(
        digests,
        [
            0x6512_d530_1458_442c,
            0xaea1_1390_23a8_1c65,
            0x410d_a585_3bc8_61d4
        ],
        "harness outcomes diverged (got {digests:#018x?})\n{fleet}{restart}{chaos}"
    );
}

// ----- conformance: the Backend contract, generically ------------------------------

/// Arming yields distinct descriptors; disarming is idempotent, for
/// single descriptors and batches alike.
fn check_arm_disarm_idempotence<B: Backend>(b: &mut B, addr: VirtAddr) {
    let fd1 = b
        .arm_watch(WatchBackend::PerfEvent, addr, ThreadId::MAIN)
        .expect("first arm");
    let fd2 = b
        .arm_watch(WatchBackend::PerfEvent, addr, ThreadId::MAIN)
        .expect("second arm of the same word");
    assert_ne!(fd1, fd2, "each arm returns an independent descriptor");

    b.disarm_watch(WatchBackend::PerfEvent, fd1);
    // Double disarm and a batch over already-dead descriptors are
    // tolerated no-ops: the deferred-teardown drain may race thread
    // exit, which already closed the fds.
    b.disarm_watch(WatchBackend::PerfEvent, fd1);
    b.disarm_batch(WatchBackend::PerfEvent, &[fd1, fd2]);
    b.disarm_batch(WatchBackend::PerfEvent, &[fd1, fd2]);
}

/// A trap fired after its descriptor was disarmed is never delivered as
/// that descriptor's live trap. `trigger` performs the overflowing
/// access in whatever way the backend supports (a no-op for backends
/// that cannot synthesize accesses).
fn check_trap_after_disarm<B: Backend>(b: &mut B, addr: VirtAddr, trigger: impl Fn(&mut B)) {
    let fd = b
        .arm_watch(WatchBackend::PerfEvent, addr, ThreadId::MAIN)
        .expect("arm");
    b.disarm_watch(WatchBackend::PerfEvent, fd);
    trigger(b);
    let stale: Vec<Fd> = b.take_signals().into_iter().filter_map(|s| s.fd).collect();
    assert!(
        !stale.contains(&fd),
        "disarmed descriptor {fd:?} must not deliver a trap"
    );
}

/// Spawn registers a new dense id; exit unregisters it, exactly once,
/// and the dead thread's descriptors can still be disarmed safely.
fn check_thread_exit_cleanup<B: Backend>(b: &mut B, addr: VirtAddr) {
    let before = b.alive_threads();
    let tid = b.spawn_thread();
    assert!(!before.contains(&tid), "ids are not reused while alive");
    assert!(b.alive_threads().contains(&tid));

    let fd = b
        .arm_watch(WatchBackend::PerfEvent, addr, tid)
        .expect("arm on the new thread");
    b.exit_thread(tid).expect("first exit succeeds");
    assert!(!b.alive_threads().contains(&tid));
    assert!(b.exit_thread(tid).is_err(), "double exit is an error");
    assert!(
        b.exit_thread(ThreadId::MAIN).is_err(),
        "the main thread never exits through the backend"
    );
    // The backend closed the thread's descriptors on exit; a late
    // disarm from the manager's bookkeeping must still be tolerated.
    b.disarm_watch(WatchBackend::PerfEvent, fd);
}

fn sim_fixture() -> (Machine, VirtAddr) {
    let mut m = Machine::new();
    let base = VirtAddr::new(0x40_0000);
    m.map_region(base, 4096, "conformance").unwrap();
    (m, base)
}

#[test]
fn sim_backend_arm_disarm_idempotence() {
    let (mut m, base) = sim_fixture();
    check_arm_disarm_idempotence(&mut m, base + 56);
    assert_eq!(m.open_events(), 0, "no descriptor leaked");
}

#[test]
fn null_backend_arm_disarm_idempotence() {
    let mut b = NullBackend::new();
    check_arm_disarm_idempotence(&mut b, VirtAddr::new(0x100));
    assert_eq!(b.armed_count(), 0, "no descriptor leaked");
}

#[test]
fn sim_backend_trap_after_disarm_not_delivered() {
    let (mut m, base) = sim_fixture();
    let watched = base + 56;
    // Positive control first: an armed descriptor does deliver.
    let fd = m
        .arm_watch(WatchBackend::PerfEvent, watched, ThreadId::MAIN)
        .unwrap();
    m.app_write(ThreadId::MAIN, watched, 8).unwrap();
    let sigs = Backend::take_signals(&mut m);
    assert!(
        sigs.iter().any(|s| s.fd == Some(fd)),
        "armed watchpoint fires on a write to its word"
    );
    m.disarm_watch(WatchBackend::PerfEvent, fd);
    // And now the contract proper.
    check_trap_after_disarm(&mut m, watched, |m| {
        m.app_write(ThreadId::MAIN, watched, 8).unwrap();
    });
}

#[test]
fn null_backend_never_delivers_traps() {
    let mut b = NullBackend::new();
    check_trap_after_disarm(&mut b, VirtAddr::new(0x100), |_| {});
    // Even while armed, the null backend never traps — that is its
    // entire point as the ceiling substrate.
    let _fd = b
        .arm_watch(
            WatchBackend::PerfEvent,
            VirtAddr::new(0x200),
            ThreadId::MAIN,
        )
        .unwrap();
    assert!(b.take_signals().is_empty());
}

#[test]
fn sim_backend_thread_exit_cleanup() {
    let (mut m, base) = sim_fixture();
    check_thread_exit_cleanup(&mut m, base + 56);
    assert_eq!(m.open_events(), 0, "exit closed the thread's descriptors");
}

#[test]
fn null_backend_thread_exit_cleanup() {
    let mut b = NullBackend::new();
    check_thread_exit_cleanup(&mut b, VirtAddr::new(0x100));
}

// ----- the runtime end-to-end on the null backend ----------------------------------

/// The whole `Csod` runtime drives the null backend: allocations get
/// headers and canaries in the sparse memory, frees verify them as
/// intact (no false positives from zeroed reads), nothing ever traps,
/// and the frozen clock charges zero substrate cost.
#[test]
fn csod_runs_end_to_end_on_the_null_backend() {
    let frames = Arc::new(FrameTable::new());
    let mut backend = NullBackend::new();
    let mut heap = NullHeap::new();
    let mut csod = Csod::new(CsodConfig::default(), Arc::clone(&frames));

    let mut ptrs = Vec::new();
    for i in 0..64u64 {
        let site = format!("app.c:{}", 10 + (i % 7));
        let ctx = CallingContext::from_locations(&frames, [site.as_str(), "main.c:1"]);
        let key = ContextKey::new(frames.intern(&site), 0x40);
        let p = csod
            .malloc(&mut backend, &mut heap, ThreadId::MAIN, 24 + i, key, &ctx)
            .expect("null malloc");
        ptrs.push(p);
    }
    csod.poll(&mut backend);
    for p in ptrs {
        csod.free(&mut backend, &mut heap, ThreadId::MAIN, p)
            .expect("null free");
    }
    csod.finish(&mut backend);

    assert!(!csod.detected(), "nothing traps and no canary is corrupted");
    assert_eq!(csod.stats().frees, 64);
    assert_eq!(
        backend.charged_ns(),
        0,
        "CostModel::FREE_OF_CHARGE charges nothing"
    );
    assert_eq!(heap.live_blocks(), 0, "every block was freed");
    assert!(csod.distinct_contexts() >= 7);
}

/// The same driver sequence against the simulator still works through
/// the trait object... the generic path (sanity that the two backends
/// accept identical driving code).
#[test]
fn identical_driver_code_runs_on_both_backends() {
    fn drive<B: Backend>(
        backend: &mut B,
        heap: &mut impl csod::core::HeapBackend<B>,
        frames: &Arc<FrameTable>,
    ) -> Csod {
        let mut csod = Csod::new(CsodConfig::default(), Arc::clone(frames));
        let ctx = CallingContext::from_locations(frames, ["gen.c:1", "main.c:1"]);
        let key = ContextKey::new(frames.intern("gen.c:1"), 0x40);
        let p = csod
            .malloc(backend, heap, ThreadId::MAIN, 64, key, &ctx)
            .unwrap();
        csod.poll(backend);
        csod.free(backend, heap, ThreadId::MAIN, p).unwrap();
        csod.finish(backend);
        csod
    }

    let frames = Arc::new(FrameTable::new());
    let mut machine = Machine::new();
    let mut sim_heap = SimHeap::new(&mut machine, HeapConfig::default()).unwrap();
    let on_sim = drive(&mut machine, &mut sim_heap, &frames);

    let mut null = NullBackend::new();
    let mut null_heap = NullHeap::new();
    let on_null = drive(&mut null, &mut null_heap, &frames);

    assert_eq!(on_sim.stats().allocations, on_null.stats().allocations);
    assert_eq!(on_sim.stats().frees, on_null.stats().frees);
    assert!(!on_sim.detected() && !on_null.detected());
}
