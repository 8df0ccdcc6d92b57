//! End-to-end observability: a seeded overflow must come out as one
//! overflow report and one machine-readable JSONL line,
//! the metrics registry must snapshot the same run coherently, and the
//! event trace must narrate it.

use csod::core::{Csod, CsodConfig, DetectionMethod};
use csod::ctx::{CallingContext, ContextKey, FrameTable};
use csod::heap::{HeapConfig, SimHeap};
use csod::machine::{Machine, SiteToken, ThreadId};
use csod::trace::TraceEventKind;
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
    fn malloc(&mut self, site: &str, size: u64) -> csod::machine::VirtAddr {
        let key = ContextKey::new(self.frames.intern(site), 0x40);
        let ctx = CallingContext::from_locations(&self.frames, [site, "request.c:210", "main.c:1"]);
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

    fn free(&mut self, p: csod::machine::VirtAddr) {
        self.csod
            .free(&mut self.machine, &mut self.heap, ThreadId::MAIN, p)
            .unwrap();
    }

    /// `ctx` as `file:line` strings, innermost frame first.
    fn resolve(&self, ctx: &CallingContext) -> Vec<String> {
        ctx.iter().map(|id| self.frames.resolve(id)).collect()
    }
}

/// The two JSONL lines of `seeded_overflow_lands_in_the_jsonl_trap_report`
/// (the watchpoint trap, then the exit-time canary scan). Crash-report
/// backends parse these lines, so the wire format is pinned byte for byte.
const SEEDED_OVERFLOW_JSONL: [&str; 2] = [
    r#"{"method":"watchpoint","kind":"write","thread":0,"ctx_id":0,"object_start":"0x7f0000000020","access_addr":"0x7f0000000050","requested_size":44,"offset_past_end":4,"object_age_ns":2151,"at_ns":4726,"alloc_context":["request_buffer.c:55","request.c:210","main.c:1"],"overflow_site":["memcpy.S:81","handler.c:44","main.c:1"]}"#,
    r#"{"method":"canary_exit","kind":"write","thread":0,"ctx_id":0,"object_start":"0x7f0000000020","access_addr":"0x7f0000000050","requested_size":44,"offset_past_end":4,"object_age_ns":2157,"at_ns":4732,"alloc_context":["request_buffer.c:55","request.c:210","main.c:1"],"overflow_site":[]}"#,
];

#[test]
fn seeded_overflow_lands_in_the_jsonl_trap_report() {
    let dir = std::env::temp_dir().join("csod-observability");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("traps-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let mut w = world(CsodConfig {
        trace: csod::core::TraceParams {
            trap_report_path: Some(path.clone()),
            ..csod::core::TraceParams::default()
        },
        ..CsodConfig::default()
    });
    let site = SiteToken(1);
    w.csod.register_site(
        site,
        CallingContext::from_locations(&w.frames, ["memcpy.S:81", "handler.c:44", "main.c:1"]),
    );
    // The first allocation of a fresh runtime is watched with certainty.
    // 44 bytes round up to a watch word at +48, so the trap lands four
    // bytes past the end of the object — a nonzero overflow offset.
    let p = w.malloc("request_buffer.c:55", 44);
    assert!(w.csod.is_watched(p));
    w.machine.set_current_site(ThreadId::MAIN, site);
    w.machine.app_write(ThreadId::MAIN, p + 48, 8).unwrap();
    w.csod.poll(&mut w.machine);
    w.csod.finish(&mut w.machine);

    // The reports are stored in memory: the watchpoint trap, plus the
    // exit-time canary scan independently finding the same corruption
    // on the never-freed object.
    let reports = w.csod.reports();
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[1].method, DetectionMethod::CanaryAtExit);
    let report = &reports[0];
    assert_eq!(report.offset_past_end(), 4);
    assert_eq!(report.requested_size, 44);
    assert_eq!(
        w.resolve(&report.alloc_context),
        vec!["request_buffer.c:55", "request.c:210", "main.c:1"]
    );
    assert_eq!(
        w.resolve(report.overflow_site.as_ref().unwrap())[0],
        "memcpy.S:81"
    );

    // ...and the JSONL file carries the same records, self-contained.
    let saved = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = saved.lines().collect();
    assert_eq!(lines, SEEDED_OVERFLOW_JSONL, "one JSON line per detection");
    for (line, report) in lines.iter().zip(reports) {
        assert_eq!(*line, report.to_json_line(&w.frames));
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn canary_detections_flow_through_the_same_pipeline() {
    let mut w = world(CsodConfig::default());
    // Fill the four registers with other contexts, then find an
    // unwatched victim and corrupt its canary.
    for i in 0..4 {
        let _ = w.malloc(&format!("noise{i}.c:1"), 16);
    }
    let mut victim = None;
    for _ in 0..40 {
        let p = w.malloc("victim.c:7", 24);
        if !w.csod.is_watched(p) {
            victim = Some(p);
            break;
        }
        w.free(p);
    }
    let p = victim.expect("an unwatched allocation appears quickly");
    w.machine.app_write(ThreadId::MAIN, p + 24, 8).unwrap();
    w.csod.poll(&mut w.machine);
    w.free(p);

    let report = w.csod.reports().last().expect("canary report");
    assert_eq!(report.method.tag(), "canary_free");
    assert_eq!(report.offset_past_end(), 0, "canary word sits at the end");
    assert_eq!(w.resolve(&report.alloc_context)[0], "victim.c:7");
    assert!(
        report.overflow_site.is_none(),
        "canaries cannot know the site"
    );
}

#[test]
fn metrics_snapshot_agrees_with_stats_in_both_formats() {
    let mut w = world(CsodConfig::default());
    for i in 0..200 {
        let p = w.malloc(&format!("s{}.c:1", i % 7), 32);
        w.free(p);
    }
    let p = w.malloc("bug.c:13", 32);
    if w.csod.is_watched(p) {
        w.machine.app_write(ThreadId::MAIN, p + 32, 8).unwrap();
        w.csod.poll(&mut w.machine);
    }
    w.csod.finish(&mut w.machine);

    let registry = w.csod.metrics_registry();
    assert_eq!(registry.counter("csod_allocations_total"), Some(201));
    assert_eq!(registry.counter("csod_frees_total"), Some(200));
    assert_eq!(
        registry.counter("csod_reports_total"),
        Some(w.csod.reports().len() as u64)
    );
    assert_eq!(registry.gauge("csod_distinct_contexts"), Some(8.0));

    let json = registry.to_json();
    assert!(json.contains("\"csod_allocations_total\": 201"));
    assert!(json.contains("csod_watch_lifetime_ns"));
    assert!(json.contains("csod_ctx_probability_ppm"));

    let prom = registry.to_prometheus();
    assert!(prom.contains("# TYPE csod_allocations_total counter"));
    assert!(prom.contains("csod_allocations_total 201"));
    assert!(prom.contains("# TYPE csod_watched_objects gauge"));
    assert!(prom.contains("# TYPE csod_slot_occupancy histogram"));
    assert!(prom.contains("csod_slot_occupancy_bucket"));
}

#[test]
fn trace_stream_narrates_the_run() {
    let mut w = world(CsodConfig::default());
    let p = w.malloc("hot.c:1", 32);
    for i in 0..50 {
        let q = w.malloc(&format!("s{}.c:1", i % 5), 16);
        w.free(q);
    }
    w.machine.app_write(ThreadId::MAIN, p + 32, 8).unwrap();
    w.csod.poll(&mut w.machine);

    let stream = w.csod.drain_trace();
    assert!(stream.count_of(TraceEventKind::AllocSampled) >= 1);
    assert!(stream.count_of(TraceEventKind::WatchInstalled) >= 1);
    assert_eq!(stream.count_of(TraceEventKind::TrapFired), 1);
    assert!(stream.count_of(TraceEventKind::FreeFiltered) >= 1);
    // Time-ordered, and a second drain starts empty.
    assert!(stream.events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    assert!(w.csod.drain_trace().events.is_empty());

    // An overflow from a spawned thread: the trap is attributed to the
    // worker and names the watched word, after the watch that armed it.
    let mut w = world(CsodConfig::default());
    let worker = w.csod.spawn_thread(&mut w.machine);
    let p = w.malloc("shared.c:1", 32);
    w.machine.app_write(worker, p + 32, 8).unwrap();
    w.csod.poll(&mut w.machine);

    let stream = w.csod.drain_trace();
    assert_eq!(stream.count_of(TraceEventKind::TrapFired), 1);
    let trap_at = stream
        .events
        .iter()
        .position(|e| e.kind == TraceEventKind::TrapFired)
        .unwrap();
    let trap = stream.events[trap_at];
    assert_eq!(trap.thread, worker.as_u32());
    assert_eq!(trap.a, (p + 32).as_u64());
    assert!(stream.events[..trap_at]
        .iter()
        .any(|e| e.kind == TraceEventKind::WatchInstalled && e.a == p.as_u64()));
}
