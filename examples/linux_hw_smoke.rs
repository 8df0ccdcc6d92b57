//! Smoke test for the `linux-hw` backend: catch one injected heap
//! buffer overflow in a *real* Rust process — no simulator anywhere.
//!
//! ```text
//! cargo run --release --features linux-hw --example linux_hw_smoke
//! ```
//!
//! Two detection tiers, mirroring the paper's architecture:
//!
//! 1. **Hardware watchpoint** — if the kernel lets this process place
//!    `perf_event_open` breakpoints (it usually does not inside
//!    containers), a real RW breakpoint is armed on the canary word
//!    past a heap block and the injected overflow write fires it.
//! 2. **Canary evidence** — the [`CsodShimAlloc`] global allocator
//!    gives every allocation in the process a trailing canary; the same
//!    injected write corrupts it and is caught at deallocation.
//!
//! Exit status is 0 only if the overflow was detected (by either tier),
//! so CI can gate on this binary directly.

use csod::core::{Backend, CsodShimAlloc, HeapBackend, LinuxHeap, LinuxHwBackend, WatchBackend};
use csod::machine::ThreadId;

#[global_allocator]
static CSOD_SHIM: CsodShimAlloc = CsodShimAlloc::new();

/// Tier 1: a real hardware breakpoint over a heap canary word.
fn try_hardware_watchpoint() -> Result<bool, String> {
    LinuxHwBackend::probe().map_err(|e| format!("perf_event_open refused: {e}"))?;

    let mut backend = LinuxHwBackend::new();
    let mut heap = LinuxHeap::new();

    // A 64-byte object; the word at +64 plays the canary the runtime
    // would reserve past it.
    let p = heap
        .malloc(&mut backend, 72)
        .map_err(|e| format!("heap: {e}"))?;
    let canary = p + 64;
    backend
        .store_u64(canary, 0xC50D_C50D_C50D_C50D)
        .map_err(|e| format!("store: {e}"))?;
    let fd = backend
        .arm_watch(WatchBackend::PerfEvent, canary, ThreadId::MAIN)
        .map_err(|e| format!("arm: {e}"))?;

    // The injected overflow: one word past the 64-byte object.
    backend
        .store_u64(canary, 0x4242_4242_4242_4242)
        .map_err(|e| format!("overflow store: {e}"))?;

    let trapped = backend
        .take_signals()
        .iter()
        .any(|s| s.fd == Some(fd) && s.fault_addr == canary);
    backend.disarm_watch(WatchBackend::PerfEvent, fd);
    heap.free(&mut backend, p)
        .map_err(|e| format!("free: {e}"))?;
    Ok(trapped)
}

/// Tier 2: the global-allocator canary shim, always available.
fn canary_shim_detection() -> bool {
    let before = CsodShimAlloc::overflows_caught();
    let size = 48usize;
    let block: Vec<u8> = vec![0u8; size];
    let p = block.as_ptr().cast_mut();
    // The injected overflow: one byte past the end of the allocation,
    // straight into the shim's trailing canary.
    unsafe { *p.add(size) = 0x42 };
    drop(block); // dealloc verifies the canary
    CsodShimAlloc::overflows_caught() == before + 1
}

fn main() {
    println!("csod linux-hw smoke: injecting one heap overflow\n");

    let hw = match try_hardware_watchpoint() {
        Ok(true) => {
            println!("[hw   ] watchpoint trap DETECTED the overflow");
            true
        }
        Ok(false) => {
            println!("[hw   ] breakpoint armed but no trap observed");
            false
        }
        Err(e) => {
            println!("[hw   ] unavailable ({e}); relying on canary tier");
            false
        }
    };

    let canary = canary_shim_detection();
    if canary {
        println!("[shim ] allocator canary DETECTED the overflow at free");
    } else {
        println!("[shim ] allocator canary missed the overflow");
    }
    println!(
        "[shim ] {} allocations / {} frees checked so far",
        CsodShimAlloc::allocations(),
        CsodShimAlloc::frees()
    );

    if hw || canary {
        println!("\nSMOKE PASS: injected overflow detected");
    } else {
        println!("\nSMOKE FAIL: overflow went undetected");
        std::process::exit(1);
    }
}
