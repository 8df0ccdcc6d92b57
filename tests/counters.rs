//! The counter contract: every run counter is declared once, in
//! `CsodStats`, and `RunSummary` and the metrics registry are views of
//! it.
//!
//! One pinned run touches every counter family: static priors (with a
//! falsified proven-safe claim), the WAL (recovered, torn tail skipped,
//! mitigated contexts), a fault plan that drives the
//! degradation ladder down and back up, traps and canary evidence. Its
//! metric values were captured before the counters were consolidated
//! and must not change. Its summary text is pinned too; it was
//! re-captured once, when the summary became a render of the counter
//! table, with every counter value unchanged.

use csod::core::{
    AnalysisPriors, Csod, CsodConfig, CsodStats, DegradationParams, RiskClass, RunSummary,
};
use csod::ctx::{CallingContext, ContextKey, FrameTable};
use csod::heap::{HeapConfig, SimHeap};
use csod::machine::{FaultPlan, Machine, SiteToken, ThreadId, VirtAddr, VirtDuration, VirtInstant};
use csod::rng::Arc4Random;
use csod::trace::MetricsRegistry;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// The pinned workload's allocation sites and their static priors.
/// `bug.c` corrupts its canary in every execution, so the second one
/// starts with it mitigated. In the second execution only, `liar.c`
/// (claimed proven-safe) corrupts its canary too, and `plain.c:1`
/// overflows whenever it is watched.
const SITES: [(&str, Option<RiskClass>); 8] = [
    ("safe.c:1", Some(RiskClass::ProvenSafe)),
    ("safe.c:2", Some(RiskClass::ProvenSafe)),
    ("risky.c:1", Some(RiskClass::Suspicious)),
    ("risky.c:2", Some(RiskClass::Suspicious)),
    ("plain.c:1", None),
    ("plain.c:2", None),
    ("bug.c:1", None),
    ("liar.c:1", Some(RiskClass::ProvenSafe)),
];
const PLAIN: usize = 4;
const BUG: usize = 6;
const LIAR: usize = 7;

/// One execution of the pinned workload against the WAL at `wal`.
/// `chaos` adds the fault plan (perf failures plus a register-busy
/// window, so the degradation ladder runs).
fn execute(wal: &Path, chaos: bool) -> (RunSummary, MetricsRegistry) {
    let frames = Arc::new(FrameTable::new());
    let mut machine = Machine::new();
    if chaos {
        machine.install_fault_plan(
            FaultPlan::new(0xC0DE)
                .perf_failures_ppm(150_000)
                .registers_busy_between(
                    VirtInstant::BOOT + VirtDuration::from_millis(20),
                    VirtInstant::BOOT + VirtDuration::from_millis(60),
                ),
        );
    }
    let mut heap = SimHeap::new(&mut machine, HeapConfig::default()).unwrap();
    let contexts: Vec<(ContextKey, CallingContext)> = SITES
        .iter()
        .map(|(loc, _)| {
            let ctx = CallingContext::from_locations(&frames, [*loc, "main.c:1"]);
            (ContextKey::new(frames.intern(loc), 0x40), ctx)
        })
        .collect();
    let priors = AnalysisPriors::from_classes(
        SITES
            .iter()
            .zip(&contexts)
            .filter_map(|((_, class), (key, _))| class.map(|c| (*key, c))),
    );
    let config = CsodConfig {
        persist_path: Some(wal.to_owned()),
        degradation: DegradationParams {
            retry_backoff: VirtDuration::from_micros(200),
            max_backoff: VirtDuration::from_millis(2),
            degrade_threshold: 4,
            probe_interval: VirtDuration::from_millis(5),
            quarantine_threshold: 6,
            quarantine_period: VirtDuration::from_millis(4),
        },
        ..CsodConfig::with_priors(priors)
    };
    let mut csod = Csod::new(config, Arc::clone(&frames));
    let smash = SiteToken(0x5A);
    csod.register_site(
        smash,
        CallingContext::from_locations(&frames, ["memcpy.S:81", "main.c:1"]),
    );

    let mut rng = Arc4Random::from_seed(0x5EED, 7);
    let mut ring: Vec<Option<VirtAddr>> = vec![None; 24];
    for i in 0..6_000u64 {
        let slot = rng.next_u64() as usize % ring.len();
        if let Some(p) = ring[slot].take() {
            csod.free(&mut machine, &mut heap, ThreadId::MAIN, p)
                .unwrap();
        }
        let site = rng.next_u64() as usize % SITES.len();
        let (key, ctx) = &contexts[site];
        let size = 16 + u64::from(rng.uniform(6)) * 8;
        let p = csod
            .malloc(&mut machine, &mut heap, ThreadId::MAIN, size, *key, ctx)
            .unwrap();
        ring[slot] = Some(p);
        let boundary = p + size.div_ceil(8) * 8;
        if site == BUG || (chaos && site == LIAR) {
            machine.raw_store_u64(boundary, 0xDEAD_BEEF).unwrap();
        } else if chaos && site == PLAIN && csod.is_watched(p) {
            machine.set_current_site(ThreadId::MAIN, smash);
            let _ = machine.app_write(ThreadId::MAIN, boundary, 8);
            csod.poll(&mut machine);
        }
        if i % 64 == 63 {
            machine.skip_time(VirtDuration::from_millis(1));
            csod.poll(&mut machine);
        }
    }
    for p in ring.iter_mut().filter_map(Option::take) {
        csod.free(&mut machine, &mut heap, ThreadId::MAIN, p)
            .unwrap();
    }
    csod.poll(&mut machine);
    csod.finish(&mut machine);
    (
        RunSummary::collect(&csod, &machine),
        csod.metrics_registry(),
    )
}

/// The pinned run, shared by every test: a clean execution confirms the
/// planted bugs in the WAL, a torn record is appended, and a second
/// execution recovers from it under priors and faults.
fn pinned_run() -> &'static (RunSummary, MetricsRegistry) {
    static RUN: OnceLock<(RunSummary, MetricsRegistry)> = OnceLock::new();
    RUN.get_or_init(|| {
        let wal =
            std::env::temp_dir().join(format!("csod-counter-contract-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&wal);
        execute(&wal, false);
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes.extend_from_slice(&[0xA5; 11]);
        std::fs::write(&wal, bytes).unwrap();
        let run = execute(&wal, true);
        std::fs::remove_file(&wal).unwrap();
        run
    })
}

/// The pinned run's summary. Re-pinned twice by design: when the text
/// became a render of `CsodStats::COUNTERS` (every counter value in it
/// equals the text captured before the counters were consolidated), and
/// when the run-end cache flush stopped counting as an invalidation
/// (40 -> 39 invalidations; nothing else moved).
const PINNED_SUMMARY: &str = "\
==== CSOD run summary ====\n\
run: 8 context(s) (0 quarantined), 3 report(s) (1 duplicate(s)), mode: canary-only\n\
allocations: 6000 intercepted, 6000 freed\n\
watched: 34 object(s), 0 replacement(s), 33 removed on free, 5 rejected candidate(s), 46 refused by the backend\n\
detections: 1 watchpoint trap(s), 4 canary hit(s) at free, 0 canary hit(s) at exit\n\
health: 0 retr(ies) attempted, 46 failed install(s), 0 retr(ies) due, 0 retr(ies) succeeded, 2 quarantine(s), 3 degradation(s), 2 recover(ies), 12 probe(s)\n\
free path: 5298 filtered free(s), 0 stale trap(s) suppressed, 33 batched teardown(s), 24 teardown batch(es)\n\
durability: 3 context(s) mitigated, 1 WAL record(s) recovered, 1 corrupt region(s) skipped, 0 report line(s) salvaged on drop\n\
priors: 2228 proven-safe alloc(s), 7 install(s) on proven-safe, 7 install(s) on suspicious, 1467 slot(s) saved, 1 soundness violation(s)\n\
cache: 5740 lookup hit(s), 260 lookup miss(es), 39 invalidation(s)\n\
cost: 385 syscall(s), normalized overhead 1.820";

/// Every metric counter the pinned run exported before the counters were
/// consolidated, with its value (invalidations re-pinned 40 -> 39 with
/// the summary above).
const PINNED_COUNTERS: &[(&str, u64)] = &[
    ("csod_allocations_total", 6000),
    ("csod_canary_exit_hits_total", 0),
    ("csod_canary_free_hits_total", 4),
    ("csod_contexts_mitigated_total", 3),
    ("csod_decision_cache_hits_total", 5740),
    ("csod_decision_cache_invalidations_total", 39),
    ("csod_decision_cache_misses_total", 260),
    ("csod_degradation_probes_total", 12),
    ("csod_degradations_total", 3),
    ("csod_frees_fast_filtered_total", 5298),
    ("csod_frees_total", 6000),
    ("csod_install_failures_total", 46),
    ("csod_install_retries_total", 0),
    ("csod_quarantines_total", 2),
    ("csod_recoveries_total", 2),
    ("csod_reports_flushed_on_drop_total", 0),
    ("csod_reports_total", 3),
    ("csod_stale_traps_suppressed_total", 0),
    ("csod_teardown_batches_total", 24),
    ("csod_teardowns_batched_total", 33),
    ("csod_traps_total", 1),
    ("csod_wal_records_recovered_total", 1),
    ("csod_wal_records_skipped_corrupt_total", 1),
    ("csod_watch_installs_total", 34),
    ("csod_watch_rejected_total", 5),
    ("csod_watch_removals_on_free_total", 33),
    ("csod_watch_replacements_total", 0),
];

/// Counters that used to reach `RunSummary` or the unit stats but never
/// the metrics registry.
const NEWLY_EXPORTED: [&str; 8] = [
    "csod_proven_safe_allocs_total",
    "csod_proven_safe_installs_total",
    "csod_suspicious_installs_total",
    "csod_prior_availability_skips_total",
    "csod_proven_safe_overflows_total",
    "csod_watch_install_failures_total",
    "csod_degradation_retries_total",
    "csod_degradation_retry_successes_total",
];

/// Counter names in the registry's Prometheus exposition.
fn exported_counters(registry: &MetricsRegistry) -> Vec<String> {
    registry
        .to_prometheus()
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.strip_suffix(" counter"))
        .map(str::to_owned)
        .collect()
}

/// The numeric leaves of a `Debug` rendering, in field order — one per
/// counter of `CsodStats` and its nested unit snapshots.
fn debug_leaves(stats: &CsodStats) -> Vec<u64> {
    format!("{stats:?}")
        .split(['{', '}', ','])
        .filter_map(|field| field.trim().split_once(": ")?.1.parse().ok())
        .collect()
}

#[test]
fn pinned_run_summary_text_is_unchanged() {
    let (summary, _) = pinned_run();
    assert_eq!(summary.to_string(), PINNED_SUMMARY);
}

#[test]
fn pinned_run_keeps_every_existing_metric() {
    let (_, registry) = pinned_run();
    for &(name, value) in PINNED_COUNTERS {
        assert_eq!(registry.counter(name), Some(value), "{name}");
    }
}

#[test]
fn every_counter_is_exported_exactly_once() {
    let (summary, registry) = pinned_run();
    let names: BTreeSet<&str> = CsodStats::COUNTERS.iter().map(|(name, ..)| *name).collect();
    assert_eq!(
        names.len(),
        CsodStats::COUNTERS.len(),
        "duplicate metric name"
    );
    for (name, read, ..) in CsodStats::COUNTERS {
        assert!(
            name.starts_with("csod_") && name.ends_with("_total"),
            "{name} is not a csod_*_total counter"
        );
        assert_eq!(registry.counter(name), Some(read(&summary.stats)), "{name}");
    }
    for name in NEWLY_EXPORTED {
        assert!(names.contains(name), "{name} is not exported");
    }
    // The registry exports the list plus the report count, nothing
    // else.
    let mut expected: BTreeSet<&str> = names;
    expected.extend(["csod_reports_total"]);
    let exported = exported_counters(registry);
    assert_eq!(
        exported.iter().map(String::as_str).collect::<BTreeSet<_>>(),
        expected
    );
    // Every counter field has exactly one list entry, in declaration
    // order: a field added without its entry shifts this sequence.
    let reads: Vec<u64> = CsodStats::COUNTERS
        .iter()
        .map(|(_, read, ..)| read(&summary.stats))
        .collect();
    assert_eq!(debug_leaves(&summary.stats), reads);
}

#[test]
fn every_counter_label_prints_exactly_once() {
    let (summary, _) = pinned_run();
    let text = summary.to_string();
    for (name, _, group, label) in CsodStats::COUNTERS {
        assert_eq!(text.matches(label).count(), 1, "{name}: {label:?}");
        let line = text.lines().find(|l| l.contains(label)).unwrap();
        assert!(line.starts_with(&format!("{group}: ")), "{name}: {line}");
    }
}
