//! Kill→recover→rerun: the crash-safety acceptance harness.
//!
//! Each scenario drives the same deterministic buggy workload through
//! three executions sharing one on-disk WAL, reproducing the paper's
//! "always detected by the second execution" claim (Section V-A2) under
//! process-kill chaos:
//!
//! 1. **First execution, under fire** — a [`FaultPlan`] kill checkpoint
//!    fires at an arbitrary allocation and the run is abandoned on the
//!    spot: no `finish()`, no flushes, no WAL compaction — the runtime
//!    and its report sink simply drop, as under `SIGKILL`. Optionally a
//!    torn record is appended to the WAL afterwards, simulating death
//!    *mid-append*.
//! 2. **Second execution** — recovers whatever the WAL holds and reruns
//!    the workload to completion. Between what the first run confirmed
//!    (appended and synced *before* its report was sinked) and this
//!    run's own deterministic canary checks, the planted bug is known by
//!    the end of this execution — the gate the kill-chaos CI job holds.
//! 3. **Third execution** — recovers the compacted WAL, so the buggy
//!    context is hardened from its first allocation: the same overwrite
//!    lands in mitigation slack and corrupts nothing.
//!
//! The workload plants its bug with raw stores just past the requested
//! size — invisible to watchpoints, deterministically caught by canary
//! checks, and deterministically absorbed once mitigation moves the
//! canary out of reach. Detection therefore never depends on sampling
//! luck, which is what lets the fleet gate on **100 %** of scenarios.

use csod_core::{Csod, CsodConfig, RunSummary};
use csod_ctx::FrameTable;
use csod_fleet::par::run_parallel;
use csod_persist::{RecordKind, Wal, WalRecord};
use csod_rng::Arc4Random;
use sim_heap::{HeapConfig, SimHeap};
use sim_machine::{FaultPlan, Machine};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::churn::{contexts, Churn};

/// Parameters of one kill→recover→rerun scenario.
#[derive(Debug, Clone)]
pub struct RestartConfig {
    /// Seed for the workload churn and the kill plan.
    pub seed: u64,
    /// Allocations per execution.
    pub allocations: u64,
    /// Distinct allocation contexts; context 0 is the planted bug.
    pub sites: usize,
    /// Live-object ring size.
    pub ring: usize,
    /// Kill-checkpoint probability per allocation (first execution
    /// only), in parts per million.
    pub kill_ppm: u32,
    /// After a kill, also append a torn record to the WAL — the
    /// mid-append death the recovery path must skip without resurrecting.
    pub torn_tail: bool,
    /// Base runtime configuration; the harness points `persist_path`
    /// and the trap-report sink into the scenario's own directory.
    pub csod: CsodConfig,
}

impl Default for RestartConfig {
    fn default() -> Self {
        RestartConfig {
            seed: 0x2E57A27,
            allocations: 2_000,
            sites: 8,
            ring: 32,
            kill_ppm: 2_000,
            torn_tail: false,
            csod: CsodConfig::default(),
        }
    }
}

/// What one execution of the workload observed.
#[derive(Debug, Clone)]
struct Execution {
    /// `Some(i)`: the kill checkpoint fired before allocation `i` and
    /// the run was abandoned without `finish()`.
    killed_at: Option<u64>,
    /// Whether any overflow was detected before the run ended (or died).
    detected: bool,
    /// End-of-run summary. For killed runs this is collected at the
    /// point of death — counters the process would have reported had it
    /// been able to.
    summary: RunSummary,
    /// Report lines the sink's drop path salvaged (killed runs only;
    /// clean runs flush explicitly and count zero).
    salvaged_reports: u64,
}

/// Verdict of one three-execution scenario.
#[derive(Debug, Clone)]
pub struct RestartOutcome {
    /// The scenario's seed, for reproduction.
    pub seed: u64,
    /// Where the first execution died (`None`: the kill plan never
    /// fired and it ran to completion).
    pub killed_at: Option<u64>,
    /// Whether a torn mid-append tail was planted after the kill.
    pub torn_tail_planted: bool,
    /// First execution detected the bug before dying.
    pub first_detected: bool,
    /// Second execution detected the bug itself.
    pub second_detected: bool,
    /// WAL records the second execution recovered at startup.
    pub second_recovered: u64,
    /// Corrupt records skipped across the second and third recoveries.
    pub skipped_corrupt: u64,
    /// Report lines salvaged by the sink's drop path in the first
    /// (killed) execution.
    pub reports_salvaged_on_drop: u64,
    /// Full summary of the third (mitigated) execution.
    pub third: RunSummary,
}

impl RestartOutcome {
    /// The paper's §V-A2 gate: the bug is known no later than the end
    /// of the second execution.
    pub fn detected_by_second(&self) -> bool {
        self.first_detected || self.second_detected
    }

    /// The third execution started from recovered state and enrolled
    /// the buggy context in the mitigation policy.
    pub fn mitigated_on_third(&self) -> bool {
        self.third.stats.wal_records_recovered > 0 && self.third.stats.contexts_mitigated > 0
    }

    /// The third execution saw no corruption at all: every planted
    /// overwrite landed in mitigation slack.
    pub fn third_run_clean(&self) -> bool {
        let s = &self.third.stats;
        s.canary_free_hits == 0 && s.canary_exit_hits == 0 && s.traps == 0
    }
}

/// Runs the workload once against the scenario's WAL. `kill` installs
/// the kill plan (first execution); killed runs are abandoned with no
/// termination path at all.
fn run_once(cfg: &RestartConfig, wal_path: &Path, trap_log: &Path, kill: bool) -> Execution {
    let frames = Arc::new(FrameTable::new());
    let mut machine = Machine::new();
    if kill {
        machine
            .install_fault_plan(FaultPlan::new(cfg.seed ^ 0x0DEAD).process_kills_ppm(cfg.kill_ppm));
    }
    let mut heap =
        SimHeap::new(&mut machine, HeapConfig::default()).expect("fresh machine has a heap region");
    let mut config = cfg.csod.clone();
    config.persist_path = Some(wal_path.to_owned());
    config.trace.trap_report_path = Some(trap_log.to_owned());
    let mut csod = Csod::new(config, Arc::clone(&frames));
    let salvage = csod.flushed_on_drop_handle();

    let contexts = contexts(
        &frames,
        (0..cfg.sites.max(1)).map(|i| format!("restart.c:{}", 10 + i)),
    );
    // The workload stream is seeded independently of the kill plan, so
    // all three executions replay the same allocations and overwrites.
    let killed_at = Churn {
        contexts: &contexts,
        rng: Arc4Random::from_seed(cfg.seed ^ 0x5E57A27, 7),
        ring: cfg.ring,
        allocations: cfg.allocations,
        plant: Some(0xDEAD_BEEF),
    }
    .run(&mut csod, &mut machine, &mut heap);

    // SIGKILL semantics for a killed run: collect what the dying process
    // knew, then drop everything mid-flight. The WAL keeps only what
    // append() already synced; the report sink salvages its pending
    // lines in its Drop impl (counted through the shared handle).
    let detected = csod.detected();
    let summary = RunSummary::collect(&csod, &machine);
    drop(csod);
    Execution {
        killed_at,
        detected,
        summary,
        salvaged_reports: salvage.load(Ordering::Relaxed),
    }
}

/// Plants a mid-append death on the scenario's WAL: a record whose tail
/// never reached the disk. Recovery must skip it — and must not
/// resurrect its signature.
fn plant_torn_tail(wal: &Path, seed: u64) {
    let torn = WalRecord::new(RecordKind::TrapSignature, 999_999, "torn.c:1|main.c:1");
    let keep = 4 + (seed as usize % 8);
    let mut handle = Wal::open(wal);
    handle.append_partial(&torn, keep);
    handle.sync();
}

/// Runs one full kill→recover→rerun scenario in its own scratch
/// directory (removed on return).
pub fn run_restart_scenario(cfg: &RestartConfig) -> RestartOutcome {
    let dir = scenario_dir(cfg.seed);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scenario scratch dir is creatable");
    let wal = dir.join("contexts.wal");
    let reports = dir.join("traps.jsonl");

    let first = run_once(cfg, &wal, &reports, true);
    let torn_tail_planted = cfg.torn_tail && first.killed_at.is_some();
    if torn_tail_planted {
        plant_torn_tail(&wal, cfg.seed);
    }

    let second = run_once(cfg, &wal, &reports, false);
    let third = run_once(cfg, &wal, &reports, false);

    let _ = std::fs::remove_dir_all(&dir);
    RestartOutcome {
        seed: cfg.seed,
        killed_at: first.killed_at,
        torn_tail_planted,
        first_detected: first.detected,
        second_detected: second.detected,
        second_recovered: second.summary.stats.wal_records_recovered,
        skipped_corrupt: second.summary.stats.wal_records_skipped_corrupt
            + third.summary.stats.wal_records_skipped_corrupt,
        reports_salvaged_on_drop: first.salvaged_reports,
        third: third.summary,
    }
}

/// Runs a fleet of restart scenarios across OS threads, one scenario
/// (all three executions) per job. Scenario `i` gets seed
/// `base_seed + i` and plants a torn WAL tail on every other kill, so a
/// fleet of any size covers both recovery shapes.
pub fn run_restart_fleet(
    base: &RestartConfig,
    scenarios: u64,
    threads: usize,
) -> Vec<RestartOutcome> {
    let configs: Vec<RestartConfig> = (0..scenarios)
        .map(|i| RestartConfig {
            seed: base.seed + i,
            torn_tail: i % 2 == 0,
            ..base.clone()
        })
        .collect();
    run_parallel(&configs, threads, run_restart_scenario)
}

fn scenario_dir(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("csod-restart-{}-{seed:x}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unkilled_scenario_still_closes_the_loop() {
        // kill_ppm 0: the first execution completes, detects, compacts.
        let cfg = RestartConfig {
            seed: 0xA11A,
            allocations: 600,
            kill_ppm: 0,
            ..RestartConfig::default()
        };
        let out = run_restart_scenario(&cfg);
        assert_eq!(out.killed_at, None);
        assert!(out.first_detected);
        assert!(out.second_recovered > 0, "compacted WAL was empty");
        assert!(
            out.detected_by_second() && out.mitigated_on_third() && out.third_run_clean(),
            "loop failed: {out:?}"
        );
        // Mitigated from the first allocation: the second and third
        // executions never see corruption.
        assert!(!out.second_detected);
    }

    #[test]
    fn killed_scenario_detects_by_the_second_execution() {
        // A kill rate high enough that the first execution reliably
        // dies within the first few hundred allocations.
        let cfg = RestartConfig {
            seed: 0x4B31,
            allocations: 1_000,
            kill_ppm: 20_000,
            torn_tail: true,
            ..RestartConfig::default()
        };
        let out = run_restart_scenario(&cfg);
        assert!(out.killed_at.is_some(), "kill plan never fired");
        assert!(
            out.detected_by_second() && out.mitigated_on_third() && out.third_run_clean(),
            "loop failed: {out:?}"
        );
        if out.torn_tail_planted {
            assert!(out.skipped_corrupt > 0, "torn tail was not skipped");
        }
    }
}
