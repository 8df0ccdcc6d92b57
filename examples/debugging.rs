//! Post-mortem debugging with CSOD's own event trace.
//!
//! ```bash
//! cargo run --release --example debugging
//! ```
//!
//! When a detection report looks surprising, the question is always
//! "what exactly happened just before the trap?". CSOD answers it from
//! its per-thread trace rings: every sampling, watch and trap decision
//! with its virtual timestamp and acting thread. This example triggers
//! an overflow from a worker thread and prints the drained trace.

use csod::core::{Csod, CsodConfig, RunSummary};
use csod::ctx::{CallingContext, ContextKey, FrameTable};
use csod::heap::{HeapConfig, SimHeap};
use csod::machine::{Machine, SiteToken, ThreadId};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let frames = Arc::new(FrameTable::new());
    let mut machine = Machine::new();
    let mut heap = SimHeap::new(&mut machine, HeapConfig::default())?;
    let mut csod = Csod::new(CsodConfig::default(), Arc::clone(&frames));

    // A producer/consumer pair sharing a ring of buffers.
    let consumer = csod.spawn_thread(&mut machine);
    let site = SiteToken(0);
    csod.register_site(
        site,
        CallingContext::from_locations(&frames, ["ring/pop.c:77", "consumer.c:consume_loop:12"]),
    );

    let mut ring = Vec::new();
    for i in 0..4 {
        let ctx =
            CallingContext::from_locations(&frames, ["ring/push.c:31", "producer.c:main_loop:8"]);
        let key = ContextKey::new(frames.intern("ring/push.c:31"), 0x40 + i * 0x10);
        ring.push(csod.malloc(&mut machine, &mut heap, ThreadId::MAIN, 48, key, &ctx)?);
    }

    // The consumer drains the ring... and reads one slot too far on the
    // last buffer.
    machine.set_current_site(consumer, site);
    for &buf in &ring {
        for off in (0..48).step_by(8) {
            machine.app_read(consumer, buf + off, 8)?;
        }
    }
    machine.app_read(consumer, ring[3] + 48, 8)?; // the bug
    csod.poll(&mut machine);

    assert!(csod.detected());
    println!("--- report ---\n");
    println!("{}", csod.reports()[0].render(&frames));

    let trace = csod.drain_trace();
    println!(
        "--- trace: {} events up to the trap ---\n",
        trace.events.len()
    );
    for event in &trace.events {
        println!("{event}");
    }

    csod.finish(&mut machine);
    println!("\n{}", RunSummary::collect(&csod, &machine));
    Ok(())
}
