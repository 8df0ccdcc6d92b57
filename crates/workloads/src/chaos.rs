//! Chaos soak: allocation churn under an injected-fault storm.
//!
//! A robustness workload rather than a paper-evaluation one: it drives a
//! [`Csod`] runtime through heavy allocation churn while the machine's
//! [`FaultPlan`] makes perf syscalls fail, drops and delays SIGTRAPs,
//! rejects allocations, and (optionally) marks the debug registers busy
//! for a window — the situations a production always-on detector must
//! absorb without panicking or leaking a descriptor. Planted overflows
//! verify detection keeps working (through canary evidence when the
//! watchpoint path is down).

use csod_core::{Csod, CsodConfig, RunSummary};
use csod_ctx::{CallingContext, FrameTable};
use csod_rng::Arc4Random;
use sim_heap::{HeapConfig, SimHeap};
use sim_machine::{
    FaultPlan, FaultStats, Machine, SiteToken, ThreadId, VirtAddr, VirtDuration, VirtInstant,
};
use std::sync::Arc;

use crate::churn::contexts;

/// Parameters of one chaos soak.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for both the fault plan and the workload's own churn.
    pub seed: u64,
    /// Allocations to perform.
    pub allocations: u64,
    /// Failure probability of each perf syscall (open/fcntl/ioctl/close),
    /// in parts per million.
    pub perf_failure_ppm: u32,
    /// Probability that a fired SIGTRAP is silently dropped, in ppm.
    pub signal_drop_ppm: u32,
    /// Probability that a fired SIGTRAP is delayed, in ppm.
    pub signal_delay_ppm: u32,
    /// Probability that a heap allocation fails, in ppm.
    pub alloc_failure_ppm: u32,
    /// Virtual window during which every `perf_event_open` fails with
    /// `EBUSY` (a co-resident debugger holding the registers). `None`
    /// injects no window.
    pub busy_window: Option<(VirtDuration, VirtDuration)>,
    /// Overflows planted by corrupting canaries behind the tool's back
    /// (caught by evidence at free), per soak.
    pub planted_overflows: u64,
    /// Distinct allocation contexts the churn draws from.
    pub sites: usize,
    /// Live-object ring size (peak concurrent allocations).
    pub ring: usize,
    /// Worker threads churned (spawned and exited) during the run.
    pub thread_churn: usize,
    /// CSOD configuration for the run.
    pub csod: CsodConfig,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xC4A05,
            allocations: 100_000,
            perf_failure_ppm: 300_000, // the acceptance scenario's 30 %
            signal_drop_ppm: 100_000,
            signal_delay_ppm: 50_000,
            alloc_failure_ppm: 1_000,
            busy_window: None,
            planted_overflows: 8,
            sites: 32,
            ring: 64,
            thread_churn: 2,
            csod: CsodConfig::default(),
        }
    }
}

/// What one chaos soak observed. The leak checks (`open_events`,
/// `free_registers`) are read *after* [`Csod::finish`], so any non-clean
/// value is a real leak, not a live watchpoint.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The runtime's end-of-run summary (degradation counters included).
    pub summary: RunSummary,
    /// Perf events still open at exit — must be 0.
    pub open_events: usize,
    /// Debug registers free on the main thread at exit — must be all of
    /// them.
    pub free_registers: usize,
    /// Total debug registers the machine has.
    pub total_registers: usize,
    /// What the fault plan actually injected.
    pub faults: FaultStats,
    /// Overflows planted via silent canary corruption.
    pub planted: u64,
    /// Allocations the injected allocator faults rejected.
    pub failed_allocs: u64,
    /// Whether any overflow was detected by any mechanism.
    pub detected: bool,
    /// Host wall-clock milliseconds the soak took. Diagnostic only —
    /// excluded from determinism comparisons (the summary is the
    /// scheduling-independent part).
    pub wall_ms: u64,
}

impl ChaosOutcome {
    /// The no-leak invariant: every descriptor closed, every register
    /// returned.
    pub fn leak_free(&self) -> bool {
        self.open_events == 0 && self.free_registers == self.total_registers
    }
}

/// Runs one chaos soak. Panics only on genuine invariant violations
/// (e.g. `free` of a live pointer failing) — injected faults are
/// absorbed, which is the point of the exercise.
pub fn run_chaos_soak(cfg: &ChaosConfig) -> ChaosOutcome {
    let started = std::time::Instant::now();
    let frames = Arc::new(FrameTable::new());
    let mut machine = Machine::new();
    let mut plan = FaultPlan::new(cfg.seed)
        .perf_failures_ppm(cfg.perf_failure_ppm)
        .signal_drops_ppm(cfg.signal_drop_ppm)
        .signal_delays_ppm(cfg.signal_delay_ppm, VirtDuration::from_micros(200))
        .alloc_failures_ppm(cfg.alloc_failure_ppm);
    if let Some((from, until)) = cfg.busy_window {
        plan = plan.registers_busy_between(VirtInstant::BOOT + from, VirtInstant::BOOT + until);
    }
    machine.install_fault_plan(plan);
    let mut heap =
        SimHeap::new(&mut machine, HeapConfig::default()).expect("fresh machine has a heap region");
    let mut csod = Csod::new(cfg.csod.clone(), Arc::clone(&frames));

    let contexts = contexts(
        &frames,
        (0..cfg.sites.max(1)).map(|i| format!("chaos.c:{}", 10 + i)),
    );
    let smash = SiteToken(0xC4A05);
    csod.register_site(
        smash,
        CallingContext::from_locations(&frames, ["smash.c:1", "main.c:1"]),
    );

    let mut rng = Arc4Random::from_seed(cfg.seed ^ 0x50A_C4A0, 7);
    let mut ring: Vec<Option<VirtAddr>> = vec![None; cfg.ring.max(1)];
    let mut workers: Vec<ThreadId> = Vec::new();
    let mut planted = 0u64;
    let mut failed_allocs = 0u64;
    let plant_every = cfg
        .allocations
        .checked_div(cfg.planted_overflows)
        .map_or(u64::MAX, |n| n.max(1));

    for i in 0..cfg.allocations {
        let slot = rng.next_u64() as usize % ring.len();
        if let Some(addr) = ring[slot].take() {
            csod.free(&mut machine, &mut heap, ThreadId::MAIN, addr)
                .expect("freeing a live soak object");
        }
        let (key, ctx) = &contexts[rng.next_u64() as usize % contexts.len()];
        let size = 16 + u64::from(rng.uniform(8)) * 8;
        let tid = match workers.len() {
            0 => ThreadId::MAIN,
            n => match rng.uniform(n as u32 + 1) {
                0 => ThreadId::MAIN,
                k => workers[(k - 1) as usize],
            },
        };
        match csod.malloc(&mut machine, &mut heap, tid, size, *key, ctx) {
            Ok(p) => {
                ring[slot] = Some(p);
                let boundary = p + size.div_ceil(8) * 8;
                if planted < cfg.planted_overflows && i % plant_every == plant_every - 1 {
                    // Silent canary corruption: invisible to watchpoints
                    // (the raw store bypasses them), caught by evidence.
                    machine
                        .raw_store_u64(boundary, 0xDEAD_BEEF)
                        .expect("boundary word is mapped");
                    planted += 1;
                } else if csod.is_watched(p) || rng.chance_ppm(20_000) {
                    // Visible overflow through the access path: fires the
                    // watchpoint when the object is watched (and the
                    // SIGTRAP is not dropped).
                    machine.set_current_site(tid, smash);
                    let _ = machine.app_write(tid, boundary, 8);
                }
            }
            Err(_) => failed_allocs += 1,
        }

        if i % 64 == 63 {
            // Let virtual time pass so retries, probes and quarantine
            // periods actually elapse during the soak, then poll.
            machine.skip_time(VirtDuration::from_millis(1));
            csod.poll(&mut machine);
        }
        if cfg.thread_churn > 0 && i % 10_000 == 9_999 {
            if workers.len() < cfg.thread_churn {
                workers.push(csod.spawn_thread(&mut machine));
            } else if let Some(w) = workers.pop() {
                csod.exit_thread(&mut machine, w).expect("worker is alive");
            }
        }
    }

    for addr in ring.into_iter().flatten() {
        csod.free(&mut machine, &mut heap, ThreadId::MAIN, addr)
            .expect("freeing a live soak object");
    }
    for w in workers.drain(..) {
        csod.exit_thread(&mut machine, w).expect("worker is alive");
    }
    csod.poll(&mut machine);
    csod.finish(&mut machine);

    ChaosOutcome {
        summary: RunSummary::collect(&csod, &machine),
        open_events: machine.open_events(),
        free_registers: machine.free_registers(ThreadId::MAIN),
        total_registers: sim_machine::NUM_WATCHPOINT_REGISTERS,
        faults: machine.fault_stats().unwrap_or_default(),
        planted,
        failed_allocs,
        detected: csod.detected(),
        wall_ms: started.elapsed().as_millis() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csod_fleet::par::run_parallel;

    #[test]
    fn fleet_member_matches_serial_soak_exactly() {
        let configs: Vec<ChaosConfig> = (0..4)
            .map(|i| ChaosConfig {
                seed: 0xFEE7 + i,
                allocations: 2_000,
                sites: 8,
                ring: 16,
                thread_churn: 1,
                ..ChaosConfig::default()
            })
            .collect();
        let fleet = run_parallel(&configs, 4, run_chaos_soak);
        assert_eq!(fleet.len(), configs.len());
        for (cfg, parallel) in configs.iter().zip(&fleet) {
            let serial = run_chaos_soak(cfg);
            assert_eq!(
                serial.summary, parallel.summary,
                "a soak's outcome must not depend on scheduling"
            );
            assert_eq!(serial.detected, parallel.detected);
            assert!(parallel.leak_free());
        }
    }
}
