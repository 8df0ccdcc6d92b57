//! Cross-crate integration tests: the full CSOD pipeline from machine to
//! report.

use csod::core::{Csod, CsodConfig, DetectionMethod, ReplacementPolicy};
use csod::ctx::{CallingContext, ContextKey, FrameTable};
use csod::heap::{HeapConfig, SimHeap};
use csod::machine::{AccessKind, Machine, SiteToken, ThreadId, VirtDuration};
use csod_persist::Wal;
use std::sync::Arc;

struct World {
    machine: Machine,
    heap: SimHeap,
    csod: Csod,
    frames: Arc<FrameTable>,
}

fn world(config: CsodConfig) -> World {
    let frames = Arc::new(FrameTable::new());
    let mut machine = Machine::new();
    let heap = SimHeap::new(&mut machine, HeapConfig::default()).unwrap();
    let csod = Csod::new(config, Arc::clone(&frames));
    World {
        machine,
        heap,
        csod,
        frames,
    }
}

impl World {
    fn ctx(&self, site: &str) -> CallingContext {
        CallingContext::from_locations(&self.frames, [site, "main.c:1"])
    }

    fn key(&self, site: &str) -> ContextKey {
        ContextKey::new(self.frames.intern(site), 0x40)
    }

    fn malloc(&mut self, site: &str, size: u64) -> csod::machine::VirtAddr {
        let key = self.key(site);
        let ctx = self.ctx(site);
        self.csod
            .malloc(
                &mut self.machine,
                &mut self.heap,
                ThreadId::MAIN,
                size,
                key,
                &ctx,
            )
            .unwrap()
    }
}

#[test]
fn pipeline_detects_and_reports_with_full_contexts() {
    let mut w = world(CsodConfig::default());
    let site = SiteToken(1);
    w.csod.register_site(
        site,
        CallingContext::from_locations(&w.frames, ["strcpy.S:40", "request.c:210", "main.c:1"]),
    );
    let p = w.malloc("request_buffer.c:55", 48);
    w.machine.set_current_site(ThreadId::MAIN, site);
    w.machine.app_write(ThreadId::MAIN, p + 48, 8).unwrap();
    w.csod.poll(&mut w.machine);

    let reports = w.csod.reports();
    assert_eq!(reports.len(), 1);
    let text = reports[0].render(&w.frames);
    assert!(text.contains("over-write problem is detected at:"));
    assert!(text.contains("strcpy.S:40"));
    assert!(text.contains("request.c:210"));
    assert!(text.contains("request_buffer.c:55"));
}

#[test]
fn four_watchpoints_is_a_hard_limit_end_to_end() {
    let mut w = world(CsodConfig::default());
    let mut ptrs = Vec::new();
    for i in 0..10 {
        ptrs.push(w.malloc(&format!("site{i}.c:1"), 32));
    }
    let watched = ptrs.iter().filter(|&&p| w.csod.is_watched(p)).count();
    assert!(watched <= 4, "at most four objects watched, got {watched}");
    assert!(w.machine.free_registers(ThreadId::MAIN) <= 4);
}

#[test]
fn watchpoints_span_threads_created_before_and_after_install() {
    let mut w = world(CsodConfig::default());
    let early = w.csod.spawn_thread(&mut w.machine);
    let p = w.malloc("shared.c:9", 64);
    assert!(w.csod.is_watched(p));
    let late = w.csod.spawn_thread(&mut w.machine);

    for (tid, name) in [(early, "early"), (late, "late")] {
        w.machine.set_current_site(tid, SiteToken::UNKNOWN);
        w.machine.app_read(tid, p + 64, 8).unwrap();
        w.csod.poll(&mut w.machine);
        assert!(
            w.csod.reports().iter().any(|r| r.thread == tid),
            "{name} thread's access must trap in that thread"
        );
    }
}

#[test]
fn freeing_a_watched_object_recycles_registers_for_later_bugs() {
    let mut w = world(CsodConfig::with_policy(ReplacementPolicy::Naive));
    // Fill all four registers.
    let ptrs: Vec<_> = (0..4).map(|i| w.malloc(&format!("f{i}.c:1"), 32)).collect();
    for p in ptrs {
        w.csod
            .free(&mut w.machine, &mut w.heap, ThreadId::MAIN, p)
            .unwrap();
    }
    // Even under the no-preemption policy, a new never-watched context
    // gets the freed registers and the bug is caught.
    let bug = w.malloc("bug.c:13", 32);
    assert!(w.csod.is_watched(bug));
    w.machine.app_write(ThreadId::MAIN, bug + 32, 8).unwrap();
    w.csod.poll(&mut w.machine);
    assert!(w.csod.detected_by_watchpoint());
}

#[test]
fn canary_evidence_without_any_watchpoint_coverage() {
    let mut w = world(CsodConfig::default());
    // Occupy the watchpoints with other contexts.
    for i in 0..4 {
        let _ = w.malloc(&format!("noise{i}.c:1"), 16);
    }
    // Use one context enough times that its probability is halved well
    // below certainty, then overflow an unwatched object.
    let mut target = None;
    for _ in 0..40 {
        let p = w.malloc("victim.c:7", 24);
        if !w.csod.is_watched(p) {
            target = Some(p);
            break;
        }
        w.csod
            .free(&mut w.machine, &mut w.heap, ThreadId::MAIN, p)
            .unwrap();
    }
    let p = target.expect("an unwatched allocation appears quickly");
    w.machine.app_write(ThreadId::MAIN, p + 24, 8).unwrap();
    w.csod.poll(&mut w.machine);
    assert!(!w.csod.detected_by_watchpoint(), "deliberately unwatched");
    w.csod
        .free(&mut w.machine, &mut w.heap, ThreadId::MAIN, p)
        .unwrap();
    let report = w.csod.reports().last().expect("canary fired");
    assert_eq!(report.method, DetectionMethod::CanaryOnFree);
    // And the context is pinned: the next object from it is watched.
    let p2 = w.malloc("victim.c:7", 24);
    assert!(w.csod.is_watched(p2), "pinned context preempts a register");
}

#[test]
fn burst_throttling_kicks_in_and_recovers_end_to_end() {
    let mut w = world(CsodConfig::default());
    let key = w.key("swaptions.c:1");
    for _ in 0..5_100 {
        let p = w.malloc("swaptions.c:1", 16);
        w.csod
            .free(&mut w.machine, &mut w.heap, ThreadId::MAIN, p)
            .unwrap();
    }
    assert_eq!(
        w.csod.sampling().probability_ppm(key),
        Some(1),
        "burst throttle at 0.0001%"
    );
    // After the 10-second window the probability recovers to the floor.
    w.machine.skip_time(VirtDuration::from_secs(11));
    let _ = w.malloc("swaptions.c:1", 16);
    assert_eq!(w.csod.sampling().probability_ppm(key), Some(10));
}

#[test]
fn reviving_gives_floor_contexts_another_chance() {
    // Section IV-A: a context that was watched many times without
    // overflowing sits at the floor; after a quiet period it is randomly
    // boosted so input-dependent bugs keep a chance.
    let mut w = world(CsodConfig::default());
    let key = w.key("revive.c:1");
    // Drive the context to the floor: repeated watches halve it.
    let _ = w.malloc("revive.c:1", 16);
    for _ in 0..30 {
        w.csod.sampling_mut().on_watched(key);
    }
    assert_eq!(w.csod.sampling().probability_ppm(key), Some(10), "at floor");
    // Mark the floor time, wait out the revive period, and allocate
    // until the random boost lands (1% per allocation by default).
    let _ = w.malloc("revive.c:1", 16);
    w.machine.skip_time(VirtDuration::from_secs(11));
    let mut revived = false;
    for _ in 0..2_000 {
        let p = w.malloc("revive.c:1", 16);
        if w.csod.sampling().probability_ppm(key).unwrap() > 10 {
            revived = true;
            break;
        }
        w.csod
            .free(&mut w.machine, &mut w.heap, ThreadId::MAIN, p)
            .unwrap();
    }
    assert!(revived, "the reviving mechanism must eventually fire");
}

#[test]
fn non_continuous_overflow_beyond_the_watch_word_is_missed() {
    // Documented limitation (paper Section VI): watchpoints guard only
    // the boundary word; an overflow that skips it goes unseen.
    let mut w = world(CsodConfig::default());
    let p = w.malloc("sparse.c:3", 32);
    assert!(w.csod.is_watched(p));
    // Skip the watched word (32..40) and hit 48..56 instead.
    w.machine
        .app_access(ThreadId::MAIN, p + 48, 8, AccessKind::Write)
        .unwrap();
    w.csod.poll(&mut w.machine);
    assert!(!w.csod.detected(), "non-continuous overflows are missed");
}

#[test]
fn finish_reports_leaked_overflows_and_persists() {
    let dir = std::env::temp_dir().join("csod-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("evidence-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let mut w = world(CsodConfig {
        persist_path: Some(path.clone()),
        ..CsodConfig::default()
    });
    for i in 0..4 {
        let _ = w.malloc(&format!("noise{i}.c:1"), 16);
    }
    // An unwatched leaked object is overflowed and never freed.
    let mut leaked = None;
    for _ in 0..40 {
        let p = w.malloc("leak.c:2", 16);
        if !w.csod.is_watched(p) {
            leaked = Some(p);
            break;
        }
    }
    let p = leaked.expect("unwatched allocation");
    w.machine.app_write(ThreadId::MAIN, p + 16, 8).unwrap();
    w.csod.poll(&mut w.machine);
    w.csod.finish(&mut w.machine);
    assert_eq!(w.csod.stats().canary_exit_hits, 1);
    let saved = Wal::recover(&path);
    assert!(saved
        .records
        .iter()
        .any(|r| r.signature.contains("leak.c:2")));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn overhead_accounting_separates_app_and_tool() {
    let mut w = world(CsodConfig::default());
    for i in 0..100 {
        let p = w.malloc(&format!("s{}.c:1", i % 7), 64);
        for off in (0..64).step_by(8) {
            w.machine.app_read(ThreadId::MAIN, p + off, 8).unwrap();
        }
        w.csod
            .free(&mut w.machine, &mut w.heap, ThreadId::MAIN, p)
            .unwrap();
    }
    w.csod.finish(&mut w.machine);
    let counter = w.machine.counter();
    assert!(counter.tool_ns() > 0);
    assert!(
        counter.app_ns() > counter.tool_ns() / 100,
        "app work exists"
    );
    assert!(counter.normalized_overhead() > 1.0);
    assert_eq!(counter.accesses(), 800);
}
