//! Section VI, executable: the bug classes each tool can and cannot see.
//!
//! The paper is explicit about CSOD's blind spots — non-continuous
//! overflows that skip the watched boundary word, stack/global
//! variables, over-reads under evidence-only detection — and about where
//! ASan's redzones do better (any stride within the redzone) and where
//! they do not (beyond the redzone). Each cell of the table below is an
//! actual run of the scenario against the real tool implementations.

use asan_sim::{Asan, AsanConfig};
use csod_bench::{header, row};
use csod_core::{Csod, CsodConfig};
use csod_ctx::{CallingContext, ContextKey, FrameTable};
use sim_heap::{HeapConfig, SimHeap};
use sim_machine::{AccessKind, Machine, SiteToken, ThreadId, VirtAddr};
use std::sync::Arc;

struct Scenario {
    name: &'static str,
    paper_expectation: &'static str,
    csod: bool,
    asan: bool,
}

fn main() {
    header("Section VI: what each tool detects (live runs)");
    let widths = [34, 8, 8, 30];
    println!(
        "{}",
        row(
            &[
                "Scenario".into(),
                "CSOD".into(),
                "ASan".into(),
                "paper expectation".into(),
            ],
            &widths
        )
    );

    let mut results: Vec<Scenario> = Vec::new();

    // --- 1. Continuous one-word heap overflow (the design target). ----
    {
        let (csod, asan) = heap_scenario(0, 8, AccessKind::Write);
        results.push(Scenario {
            name: "continuous heap over-write",
            paper_expectation: "both detect",
            csod,
            asan,
        });
    }

    // --- 2. Continuous heap over-read. ---------------------------------
    {
        let (csod, asan) = heap_scenario(0, 8, AccessKind::Read);
        results.push(Scenario {
            name: "continuous heap over-read",
            paper_expectation: "both detect",
            csod,
            asan,
        });
    }

    // --- 3. Non-continuous, skips boundary, lands in redzone. ----------
    {
        // Skip the watched word; +8 is still inside ASan's 16-byte
        // redzone.
        let (csod, asan) = heap_scenario(8, 4, AccessKind::Write);
        results.push(Scenario {
            name: "strided overflow within redzone",
            paper_expectation: "ASan only",
            csod,
            asan,
        });
    }

    // --- 4. Non-continuous, far beyond the redzone. ---------------------
    {
        let (csod, asan) = heap_scenario(4096, 8, AccessKind::Write);
        results.push(Scenario {
            name: "far non-continuous overflow",
            paper_expectation: "neither detects",
            csod,
            asan,
        });
    }

    // --- 5. Global-variable overflow. -----------------------------------
    {
        // CSOD interposes only the heap: it never even sees globals.
        let csod = false;
        let mut machine = Machine::new();
        let mut heap = SimHeap::new(&mut machine, HeapConfig::default()).unwrap();
        let _ = &mut heap;
        let data = VirtAddr::new(0x5_0000_0000);
        machine.map_region(data, 4096, "data").unwrap();
        let mut asan_tool = Asan::new(AsanConfig::default());
        asan_tool.instrument_module("app");
        let global = data + 64;
        asan_tool.add_global(global, 40);
        asan_tool
            .access(
                &mut machine,
                ThreadId::MAIN,
                global + 40,
                4,
                AccessKind::Write,
                "app",
                SiteToken(0),
            )
            .unwrap();
        results.push(Scenario {
            name: "global-variable overflow",
            paper_expectation: "ASan only",
            csod,
            asan: asan_tool.detected(),
        });
    }

    // --- 6. Stack-variable overflow. -------------------------------------
    {
        // Same story as globals: CSOD interposes only the heap; ASan's
        // instrumentation redzones stack frames exactly like globals
        // (modelled with the same mechanism).
        let mut machine = Machine::new();
        let stack = VirtAddr::new(0x7ffd_0000_0000);
        machine.map_region(stack, 8192, "stack").unwrap();
        let mut asan_tool = Asan::new(AsanConfig::default());
        asan_tool.instrument_module("app");
        let local = stack + 256;
        asan_tool.add_global(local, 64); // frame redzoning = same layout
        asan_tool
            .access(
                &mut machine,
                ThreadId::MAIN,
                local + 64,
                8,
                AccessKind::Write,
                "app",
                SiteToken(1),
            )
            .unwrap();
        results.push(Scenario {
            name: "stack-variable overflow",
            paper_expectation: "ASan only",
            csod: false,
            asan: asan_tool.detected(),
        });
    }

    for s in &results {
        println!(
            "{}",
            row(
                &[
                    s.name.into(),
                    yn(s.csod),
                    yn(s.asan),
                    s.paper_expectation.into(),
                ],
                &widths
            )
        );
    }
    println!("\n(the CSOD column uses a watched object — its best case; sampling");
    println!("means real detection is probabilistic on top of these capabilities)");
}

fn yn(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "no".into()
    }
}

/// Runs one heap scenario: a 64-byte object, guaranteed watched under
/// CSOD (first allocation) and redzoned under ASan, then one `len`-byte
/// access of `kind` starting `past_end` bytes past the object's end.
fn heap_scenario(past_end: u64, len: u64, kind: AccessKind) -> (bool, bool) {
    // CSOD.
    let frames = Arc::new(FrameTable::new());
    let mut machine = Machine::new();
    let mut heap = SimHeap::new(&mut machine, HeapConfig::default()).unwrap();
    let mut csod = Csod::new(CsodConfig::default(), Arc::clone(&frames));
    let ctx = CallingContext::from_locations(&frames, ["obj.c:1", "main.c:1"]);
    let key = ContextKey::new(frames.intern("obj.c:1"), 0x40);
    let p = csod
        .malloc(&mut machine, &mut heap, ThreadId::MAIN, 64, key, &ctx)
        .unwrap();
    assert!(csod.is_watched(p), "first object is always watched");
    machine.set_current_site(ThreadId::MAIN, SiteToken(0));
    let _ = machine.app_access(ThreadId::MAIN, p + 64 + past_end, len, kind);
    csod.poll(&mut machine);
    csod.finish(&mut machine);
    let csod_detected = csod.detected();

    // ASan.
    let mut machine = Machine::new();
    let mut heap = SimHeap::new(&mut machine, HeapConfig::default()).unwrap();
    let mut asan = Asan::new(AsanConfig::default());
    asan.instrument_module("app");
    let q = asan.malloc(&mut machine, &mut heap, 64).unwrap();
    let _ = asan.access(
        &mut machine,
        ThreadId::MAIN,
        q + 64 + past_end,
        len,
        kind,
        "app",
        SiteToken(0),
    );
    (csod_detected, asan.detected())
}
