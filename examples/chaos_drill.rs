//! Chaos drill: watch CSOD degrade and recover under injected faults.
//!
//! ```bash
//! cargo run --example chaos_drill            # the acceptance storm
//! cargo run --example chaos_drill -- busy    # EBUSY window -> ladder down & up
//! cargo run --example chaos_drill -- broken  # permanently dead backend
//! cargo run --example chaos_drill -- clean   # control run, no faults
//! ```
//!
//! Each scenario runs the chaos soak from `csod::workloads` and prints
//! the injected-fault tally, the run summary (with its `health:` line),
//! and the no-leak verdict.

use csod::core::{CsodConfig, DegradationParams};
use csod::machine::VirtDuration;
use csod::workloads::{run_chaos_soak, ChaosConfig};

fn scenario(name: &str) -> Option<ChaosConfig> {
    let fast_recovery = DegradationParams {
        retry_backoff: VirtDuration::from_micros(100),
        max_backoff: VirtDuration::from_millis(2),
        probe_interval: VirtDuration::from_millis(2),
        quarantine_threshold: 50,
        quarantine_period: VirtDuration::from_millis(5),
        ..DegradationParams::default()
    };
    match name {
        // The acceptance scenario: 30 % of perf syscalls fail, 10 % of
        // SIGTRAPs vanish, and the detector has to ride it out.
        "storm" => Some(ChaosConfig {
            allocations: 200_000,
            csod: CsodConfig {
                degradation: fast_recovery,
                ..CsodConfig::default()
            },
            ..ChaosConfig::default()
        }),
        // A co-resident debugger holds the registers for a while: the
        // ladder goes watchpoints -> canary-only -> probed -> re-armed.
        "busy" => Some(ChaosConfig {
            allocations: 120_000,
            perf_failure_ppm: 0,
            signal_drop_ppm: 0,
            signal_delay_ppm: 0,
            alloc_failure_ppm: 0,
            busy_window: Some((VirtDuration::from_millis(1), VirtDuration::from_millis(100))),
            csod: CsodConfig {
                degradation: DegradationParams {
                    retry_backoff: VirtDuration::from_millis(1),
                    max_backoff: VirtDuration::from_millis(10),
                    degrade_threshold: 4,
                    probe_interval: VirtDuration::from_millis(20),
                    quarantine_threshold: 1_000,
                    ..DegradationParams::default()
                },
                ..CsodConfig::default()
            },
            ..ChaosConfig::default()
        }),
        // The backend never works: detection survives on canaries alone.
        "broken" => Some(ChaosConfig {
            allocations: 50_000,
            perf_failure_ppm: 1_000_000,
            ..ChaosConfig::default()
        }),
        // Control: no fault plan activity at all.
        "clean" => Some(ChaosConfig {
            allocations: 50_000,
            perf_failure_ppm: 0,
            signal_drop_ppm: 0,
            signal_delay_ppm: 0,
            alloc_failure_ppm: 0,
            ..ChaosConfig::default()
        }),
        _ => None,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "storm".into());
    let Some(cfg) = scenario(&name) else {
        eprintln!("unknown scenario `{name}`; pick one of: storm, busy, broken, clean");
        std::process::exit(2);
    };

    println!(
        "== chaos drill: {name} ({} allocations) ==",
        cfg.allocations
    );
    let out = run_chaos_soak(&cfg);

    println!(
        "injected: {} perf failure(s), {} dropped + {} delayed SIGTRAP(s), \
         {} busy rejection(s), {} failed alloc(s)",
        out.faults.perf_failures(),
        out.faults.dropped_signals,
        out.faults.delayed_signals,
        out.faults.busy_rejections,
        out.failed_allocs,
    );
    println!("planted overflows: {}", out.planted);
    println!("{}", out.summary);
    println!(
        "leak check: {} open event(s), {}/{} registers free -> {}",
        out.open_events,
        out.free_registers,
        out.total_registers,
        if out.leak_free() {
            "LEAK-FREE"
        } else {
            "LEAKED"
        },
    );
    if !out.detected {
        eprintln!("warning: planted overflows went undetected");
        std::process::exit(1);
    }
    Ok(())
}
