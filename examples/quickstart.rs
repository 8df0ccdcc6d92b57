//! Quickstart: detect a heap buffer over-write with CSOD in ~40 lines.
//!
//! ```bash
//! cargo run --example quickstart
//! ```
//!
//! The flow mirrors a real deployment: the application's allocations are
//! interposed, CSOD samples the new object's calling context, places one
//! of the four hardware watchpoints on the word just past the object, and
//! the overflowing statement traps the moment it runs.

use csod::core::{Csod, CsodConfig, RunSummary};
use csod::ctx::{CallingContext, ContextKey, FrameTable};
use csod::heap::{HeapConfig, SimHeap};
use csod::machine::{Machine, SiteToken, ThreadId};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The substrate: a deterministic machine with a heap.
    let frames = Arc::new(FrameTable::new());
    let mut machine = Machine::new();
    let mut heap = SimHeap::new(&mut machine, HeapConfig::default())?;

    // The drop-in detector (the paper preloads it with LD_PRELOAD).
    let mut csod = Csod::new(CsodConfig::default(), Arc::clone(&frames));

    // The application allocates a 64-byte buffer...
    let alloc_ctx = CallingContext::from_locations(
        &frames,
        ["app/parser.c:104", "app/driver.c:88", "app/main.c:21"],
    );
    let key = ContextKey::new(alloc_ctx.first_level().expect("non-empty"), 0x40);
    let buffer = csod.malloc(&mut machine, &mut heap, ThreadId::MAIN, 64, key, &alloc_ctx)?;
    println!("allocated 64-byte buffer at {buffer}");
    println!(
        "watched by a hardware watchpoint: {}",
        csod.is_watched(buffer)
    );

    // ...fills it correctly...
    let copy_site = SiteToken(0);
    csod.register_site(
        copy_site,
        CallingContext::from_locations(
            &frames,
            ["libc/memcpy.S:81", "app/parser.c:131", "app/main.c:21"],
        ),
    );
    machine.set_current_site(ThreadId::MAIN, copy_site);
    for offset in (0..64).step_by(8) {
        machine.app_write(ThreadId::MAIN, buffer + offset, 8)?;
    }
    // ...does the rest of its real work (parsing, rendering, ...)...
    machine.app_compute(50_000_000);
    csod.poll(&mut machine);
    assert!(!csod.detected(), "in-bounds writes never alarm");

    // ...and then writes one word too far.
    machine.app_write(ThreadId::MAIN, buffer + 64, 8)?;
    csod.poll(&mut machine);

    assert!(csod.detected(), "the overflow trapped instantly");
    println!("\n--- CSOD bug report (paper Figure 6 format) ---\n");
    for report in csod.reports() {
        println!("{}", report.render(&frames));
    }

    csod.free(&mut machine, &mut heap, ThreadId::MAIN, buffer)?;
    csod.finish(&mut machine);
    println!("{}", RunSummary::collect(&csod, &machine));
    Ok(())
}
